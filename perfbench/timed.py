"""One untraced CLI run in a fresh process; prints its measurements as JSON.

    python3 perfbench/timed.py WORKLOAD WORKDIR DEGREE [--setup-only]

``run.py`` writes ``WORKDIR/config.json`` and runs this with
``PYTHONPATH`` pointing at the package sources.  Set-up is what a CLI
user pays on every run: ``import torsionflow.cli`` plus, for
diagnostics workloads, the first ``jet_space(dim, DEGREE)``.  The wall
time is one ``cli.main`` call, from entry to report returned, flow
artifact writes included.  The report goes to ``WORKDIR/report.json``.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def main() -> None:
    name, work, degree = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    setup_only = sys.argv[4:] == ["--setup-only"]

    t0 = time.perf_counter()
    import torsionflow.cli as cli
    from torsionflow.jets import jet_space

    pairs = None
    if not workloads.is_flow(name):
        space = jet_space(workloads.dim(name), degree)
    setup_s = time.perf_counter() - t0
    if not workloads.is_flow(name):
        pairs = [len(space.table(d)[0]) for d in range(degree + 1)]

    record = {"setup_s": setup_s, "module": cli.__file__, "pairs": pairs}
    if not setup_only:
        argv = workloads.cli_argv(name, str(work / "config.json"), str(work / "run.json"))
        with open(work / "report.json", "w") as fh, contextlib.redirect_stdout(fh):
            t1 = time.perf_counter()
            code = cli.main(argv)
            wall_s = time.perf_counter() - t1
        record.update(exit=code, wall_s=wall_s)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))


if __name__ == "__main__":
    main()
