"""Byte-for-byte parity of the CLI between this tree and another.

    python tools/parity.py --against DIR

``DIR`` is another checkout of the repository, for example a
``git clone`` of the parent commit.  One child process per tree calls
that tree's ``cli.main`` in process on the same runs:

- the golden configs, ``GOLDEN_RUNS`` of this tree's ``tests/test_cli.py``;
- its 432-run ``k*sin(x1)`` edge ``SWEEP``;
- the flow at n=2, m=8 (the benchmark's flow-m8 config) at seeds 7 and
  3, with its ``.grid.json`` and its trace CSV without the ``millis``
  column.

Each run's exit code, stdout, stderr and artifacts are compared byte
for byte.  Every run that differs is printed with the parts that
differ and the largest |Δ| / (1 + |value|) over the numbers in them,
``value`` read in ``DIR``.  Where both sides of a part parse as JSON,
the dotted paths of the keys this tree adds (+), removes (-) or changes
(~) follow, for example ``-summary.metadata.rotated_frame``; list items
count as keys by their index.  Exits 1 on any difference.  It takes about
15 s per tree and is not part of the test suite.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLOW_M8 = {"n": 2, "m": 8, "amplitude": 0.3, "tol_grad": 1e-2}
FLOW_SEEDS = (7, 3)
NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def parity_runs() -> list:
    """[name, command, config] of every compared run."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_cli import GOLDEN_RUNS, SWEEP, geometry_config

    runs = [
        [name, command, geometry_config(geometry, count=count, seed=seed, command=command)]
        for name, command, geometry, count, seed, _ in GOLDEN_RUNS
    ]
    for command, k, n, periodic, seed in SWEEP:
        geometry = {"type": "conformal", "n": n, "f": f"{k}*sin(x1)", "periodic": periodic}
        config = geometry_config(geometry, count=3, seed=seed, command=command)
        runs.append([f"sweep {command} k={k} n={n} periodic={periodic} seed={seed}", command, config])
    for seed in FLOW_SEEDS:
        config = {"schema": 1, "command": "flow", "flow": {"seed": seed, **FLOW_M8}}
        runs.append([f"flow m=8 seed={seed}", "flow", config])
    return runs


def _trace_without_millis(path: Path) -> str:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != "millis"]
    return "\n".join(",".join(row[i] for i in keep) for row in rows) + "\n"


def run_tree(tree: str, runs: list) -> dict:
    """Each run through ``tree``'s ``cli.main``: exit code, stdout, stderr
    and, for the flow, its artifacts."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from torsionflow.cli import main

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        config, report = Path(tmp) / "config.json", Path(tmp) / "run.json"
        for name, command, cfg in runs:
            config.write_text(json.dumps(cfg))
            argv = [command, "--config", str(config)]
            if command == "flow":
                argv += ["--out", str(report)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            result = {"exit code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
            for artifact in sorted(Path(tmp).glob("run.*")):
                if artifact.name.endswith(".csv"):
                    result[artifact.name] = _trace_without_millis(artifact)
                elif artifact != report:
                    result[artifact.name] = artifact.read_text()
                artifact.unlink()
            results[name] = result
    return results


def largest_move(mine: str, theirs: str):
    """max |Δ| / (1 + |value|) over the numbers of two texts that differ
    only in them; None when the texts differ elsewhere too."""
    a, b = NUMBER.split(str(mine)), NUMBER.split(str(theirs))
    if len(a) != len(b) or a[::2] != b[::2]:
        return None
    return max((abs(float(x) - float(y)) / (1.0 + abs(float(y))) for x, y in zip(a[1::2], b[1::2])), default=0.0)


def key_changes(mine: str, theirs: str):
    """'+path', '-path' and '~path' for every key ``mine`` adds, removes or
    changes against ``theirs``; None unless both texts parse as JSON
    objects or arrays."""
    try:
        a, b = json.loads(str(mine)), json.loads(str(theirs))
    except ValueError:
        return None
    if not (isinstance(a, (dict, list)) and isinstance(b, (dict, list))):
        return None
    changes = []

    def walk(x, y, path):
        if isinstance(x, list) and isinstance(y, list):
            x, y = dict(enumerate(x)), dict(enumerate(y))
        if not (isinstance(x, dict) and isinstance(y, dict)):
            if x != y:
                changes.append("~" + path)
            return
        at = lambda key: f"{path}.{key}" if path else str(key)
        changes.extend("-" + at(key) for key in y if key not in x)
        changes.extend("+" + at(key) for key in x if key not in y)
        for key in x:
            if key in y:
                walk(x[key], y[key], at(key))

    walk(a, b, "")
    return changes


def compare(runs: list, mine: dict, theirs: dict) -> int:
    """Print each run that differs; the number of such runs."""
    differ = 0
    for name, _, _ in runs:
        a, b = mine[name], theirs[name]
        parts = [key for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
        if not parts:
            continue
        differ += 1
        moves = [largest_move(a.get(key, ""), b.get(key, "")) for key in parts]
        moved = "texts differ beyond their numbers" if None in moves else f"largest |Δ|/(1+|value|) {max(moves):.3g}"
        for key in parts:
            keys = key_changes(a.get(key, ""), b.get(key, ""))
            if keys is not None:
                more = f" and {len(keys) - 8} more" if len(keys) > 8 else ""
                moved += f"; {key} keys {' '.join(keys[:8]) or '(none)'}{more}"
        print(f"{name}: {', '.join(parts)} differ; {moved}")
    return differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the other checkout's root")
    parser.add_argument("--child", nargs=3, metavar=("TREE", "RUNS", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        tree, runs_path, out_path = args.child
        Path(out_path).write_text(json.dumps(run_tree(tree, json.loads(Path(runs_path).read_text()))))
        return 0

    against = Path(args.against).resolve()
    if not (against / "src" / "torsionflow" / "cli.py").is_file():
        parser.error(f"{against} holds no src/torsionflow/cli.py")
    runs = parity_runs()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        runs_path = Path(tmp) / "runs.json"
        runs_path.write_text(json.dumps(runs))
        for idx, tree in enumerate((ROOT, against)):
            out_path = Path(tmp) / f"tree{idx}.json"
            child = [sys.executable, __file__, "--against", str(against), "--child", str(tree), str(runs_path), str(out_path)]
            subprocess.run(child, env=env, check=True)
            results.append(json.loads(out_path.read_text()))
    differ = compare(runs, *results)
    print(f"{len(runs)} runs of {ROOT} against {against}: {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
