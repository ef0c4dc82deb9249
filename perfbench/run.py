"""Benchmark entry point: time to a verified CLI report, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Every CLI run happens in a fresh child process, so the module-level
caches start cold as they do for a CLI user.  The children run with
BLAS and OpenMP limited to one thread, so this process plus one child
fit on two cores.

``--trace 0`` repeats untraced runs until S seconds have passed and
reports the end-to-end metrics as medians.  ``--trace 1`` makes one
untraced run and one traced in-process run of the same seed, whatever
S is, and reports the per-layer metrics; layers a workload never
enters read 0.
Every run must pass the correctness gate built from the program's own
verdicts.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; failed_frac is
``failed / attempted``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PER_RUN = 2  # set-up-only children before each timed child
CHILD_TIMEOUT_S = 150


class Failed(Exception):
    """A run that failed the correctness gate."""


def machine_record() -> dict:
    import numpy as np

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg": os.getloadavg(),
    }


def run_child(script: str, *args) -> dict:
    """Run a child script to completion; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *map(str, args)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise Failed(f"{script} timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise Failed(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise Failed(f"{script} printed nothing")
    record = json.loads(lines[-1])
    if "module" in record and not Path(record["module"]).resolve().is_relative_to(SRC):
        raise Failed(f"imported torsionflow from {record['module']}, not from {SRC}")
    return record


def gate(name: str, seed: int, work: Path, record: dict) -> str:
    """Check one CLI run by the program's own verdicts; returns the report."""
    import numpy as np
    from torsionflow import flow

    text = (work / "report.json").read_text()
    report = json.loads(text)
    if record["exit"] != 0 or report.get("pass") is not True:
        raise Failed(f"exit {record['exit']}, pass {report.get('pass')}")
    command = workloads.WORKLOADS[name]["command"]
    if command == "inspect":
        summary = report["summary"]
        if summary["class_match"] is not True or summary["label"] != "W1":
            raise Failed(f"class {summary['label']}, match {summary['class_match']}")
    elif command == "verify":
        failing = [c["name"] for c in report["checks"] if c["pass"] is not True]
        if failing:
            raise Failed(f"failing checks {failing}")
    else:
        if not (report["converged"] and report["monotone"]):
            raise Failed("flow did not converge monotonically")
        expected = workloads.FLOW_ITERATIONS.get(seed)
        if expected is not None and report["iterations"] != expected:
            raise Failed(f"{report['iterations']} iterations at seed {seed}, expected {expected}")
        # independent re-check: reload the grid through the validating
        # constructor and recompute the terminal gradient norm
        payload = json.loads((work / "run.grid.json").read_text())
        n, res = payload["n"], payload["resolution"]
        values = np.asarray(payload["nodes"]).reshape((res,) * (2 * n) + (2 * n, 2 * n))
        try:
            grid = flow.JGrid(n, res, values)
        except flow.GridError as exc:
            raise Failed(f"final grid rejected: {exc}") from exc
        tol_grad = workloads.config(name, seed)["flow"]["tol_grad"]
        gnorm = flow.l2_norm(grid, flow.gradient(grid))
        if not gnorm < tol_grad:
            raise Failed(f"reloaded grid has gradient norm {gnorm} >= {tol_grad}")
    return text


def counters(name: str, work: Path, record: dict, text: str) -> dict:
    """Exact counters of one untraced run; must repeat exactly."""
    out = {"cli.report_bytes": len(text.rstrip("\n").encode())}
    if workloads.is_flow(name):
        out["flow.iterations"] = json.loads(text)["iterations"]
        with open(work / "run.trace.csv", newline="") as fh:
            out["flow.armijo_trials"] = workloads.armijo_trials(
                float(row["step"]) for row in csv.DictReader(fh)
            )
        out["cli.artifact_bytes"] = (work / "run.grid.json").stat().st_size
    else:
        for d, count in enumerate(record["pairs"]):
            out[f"jets.pairs.d{d}"] = count
    return out


class Invocation:
    """One benchmark invocation: its runs, failures and exact counters."""

    def __init__(self, name: str, seed: int, degree: int, scratch: Path):
        self.name, self.seed, self.degree, self.scratch = name, seed, degree, scratch
        self.attempted = self.failed = 0
        self.counters: dict | None = None

    def fresh_dir(self) -> Path:
        work = Path(tempfile.mkdtemp(dir=self.scratch))
        (work / "config.json").write_text(json.dumps(workloads.config(self.name, self.seed)))
        return work

    def fail(self, what: str, exc: Exception) -> None:
        self.failed += 1
        print(f"FAILED {what}: {exc}", flush=True)

    def check_counters(self, found: dict) -> None:
        if self.counters is None:
            self.counters = found
            return
        for key, value in found.items():
            if key in self.counters and self.counters[key] != value:
                raise Failed(f"{key} = {value} did not repeat ({self.counters[key]})")

    def untraced(self, keep: bool = False) -> tuple[dict, Path] | None:
        """One timed CLI run in a fresh process, gated; None if it failed."""
        self.attempted += 1
        work = self.fresh_dir()
        try:
            record = run_child("timed.py", self.name, work, self.degree)
            text = gate(self.name, self.seed, work, record)
            self.check_counters(counters(self.name, work, record, text))
        except (Failed, OSError, KeyError, ValueError) as exc:
            self.fail("untraced run", exc)
            return None
        finally:
            if not keep:
                shutil.rmtree(work, ignore_errors=True)
        print(
            f"run {self.attempted}: setup {record['setup_s']:.4f} s, wall {record['wall_s']:.4f} s, "
            f"peak rss {record['peak_rss_mb']:.1f} MB",
            flush=True,
        )
        return record, work

    def setup_only(self) -> float:
        work = self.fresh_dir()
        try:
            return run_child("timed.py", self.name, work, self.degree, "--setup-only")["setup_s"]
        finally:
            shutil.rmtree(work, ignore_errors=True)


def measure(inv: Invocation, seconds: float) -> dict | None:
    """Untraced runs for ``seconds``; medians of the end-to-end metrics.

    Set-up-only children run between the timed ones, so the set-up
    samples spread over the same stretch of time as the wall samples.
    """
    setups, runs = [], []
    deadline = time.perf_counter() + seconds
    while True:
        try:
            setups += [inv.setup_only() for _ in range(SETUP_PER_RUN)]
        except Failed as exc:
            inv.attempted += 1
            inv.fail("set-up run", exc)
            return None
        done = inv.untraced()
        if done is not None:
            runs.append(done[0])
        if time.perf_counter() >= deadline:
            break
    if not runs:
        return None
    setups += [r["setup_s"] for r in runs]
    wall = statistics.median(r["wall_s"] for r in runs)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "points_per_s": workloads.points(inv.name) / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def trace(inv: Invocation, out_dir: Path) -> dict | None:
    """One untraced and one traced run of the same seed; per-layer metrics."""
    done = inv.untraced(keep=True)
    if done is None:
        return None
    record, work = done
    inv.attempted += 1
    try:
        traced = run_child("traced.py", inv.name, inv.seed, work, inv.degree)
        if traced["problems"]:
            raise Failed("; ".join(traced["problems"]))
        inv.check_counters({k: v for k, v in traced["metrics"].items() if k in inv.counters})
    except (Failed, KeyError, ValueError) as exc:
        inv.fail("traced run", exc)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{inv.name}-seed{inv.seed}.json"
    spans_file.write_text(json.dumps(traced["spans"]))
    print(f"spans written to {spans_file.relative_to(ROOT)}", flush=True)
    metrics = traced["metrics"]
    metrics["trace.untraced_wall_s"] = record["wall_s"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - record["wall_s"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "torsionflow" / "cli.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(SRC))
    from torsionflow.catalog import spec_from_config

    name = args.workload
    cfg = workloads.config(name, args.seed)
    degree = 0 if workloads.is_flow(name) else spec_from_config(cfg["geometry"]).degree
    print(json.dumps({"machine": machine_record()}), flush=True)
    print(
        json.dumps(
            {
                "workload": name,
                "seed": args.seed,
                "held_out_seed": workloads.WORKLOADS[name]["held_out_seed"],
                "points": workloads.points(name),
                "jet_degree": degree or None,
                "cache_sizes": workloads.CACHE_SIZES,
                "config": cfg,
            }
        ),
        flush=True,
    )

    scratch_root = HERE / "work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        inv = Invocation(name, args.seed, degree, scratch)
        if args.trace:
            found = trace(inv, HERE / "out")
        else:
            found = measure(inv, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"failed_frac = {inv.failed}/{inv.attempted}", flush=True)
    if found is None:
        print("perfbench: no run passed the correctness gate", file=sys.stderr)
        return 1
    off_path = [m["name"] for m in declared if m["name"] not in found]
    if off_path:
        print(f"not on this workload's path (reported as 0): {', '.join(off_path)}", flush=True)
    metrics = {
        m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]} for m in declared
    }
    result = {
        "correct": inv.failed == 0,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
