"""The benchmark's three CLI workloads, shared by run.py and its children.

Each workload is one ``torsionflow`` command on one JSON config.  The
benchmark seed is written into ``points.seed`` (diagnostics workloads)
or ``flow.seed`` (flow workload); nothing else depends on it.

Point counts are chosen against the package's three point caches:
``AlmostHermitianStructure._cache`` (clears itself above 64 entries),
``MetricField._cache`` (above 256) and ``catalog._s6_cache`` (above 128).
"""

from __future__ import annotations

import inspect
import math

CACHE_SIZES = {
    "AlmostHermitianStructure._cache": 64,
    "MetricField._cache": 256,
    "catalog._s6_cache": 128,
}

WORKLOADS = {
    # Bound by the degree-4 jet kernels at dim 6 (210 coefficients,
    # 1,820-pair table) against non-trivial curvature.  8 points stay
    # below every cache size, so no point is evaluated twice.
    # ``jet_degree`` is left unset so that a change of the default shows.
    "inspect-s6": {
        "command": "inspect",
        "geometry": {"type": "s6"},
        "count": 8,
        "held_out_seed": 11,
    },
    # Small jets (dim 4, 70 coefficients), so per-point overhead and the
    # exprlang factor dominate.  72 points exceed the 64-entry structure
    # cache, so verify's second pass over the points (coderivative_xi and
    # star_ricci) misses it and rebuilds most points.
    "verify-hopf": {
        "command": "verify",
        "geometry": {"type": "hopf", "n": 2},
        "count": 72,
        "held_out_seed": 11,
    },
    # The config the tests pin at 736 iterations (seed 7); only the flow
    # and cli layers run, the jets are bypassed.  Seed 3 takes 683.
    "flow-m8": {
        "command": "flow",
        "flow": {"n": 2, "m": 8, "amplitude": 0.3, "tol_grad": 1e-2},
        "held_out_seed": 3,
    },
}

# Iteration counts the flow must reproduce: the test suite pins 736 at
# seed 7; 683 at the held-out seed 3 was measured alongside it.
FLOW_ITERATIONS = {7: 736, 3: 683}


def is_flow(name: str) -> bool:
    return WORKLOADS[name]["command"] == "flow"


def config(name: str, seed: int) -> dict:
    """The JSON config the CLI reads for ``name`` at benchmark ``seed``."""
    w = WORKLOADS[name]
    cfg = {"schema": 1, "command": w["command"]}
    if is_flow(name):
        cfg["flow"] = {"seed": seed, **w["flow"]}
    else:
        cfg["geometry"] = dict(w["geometry"])
        cfg["points"] = {"count": w["count"], "seed": seed}
    return cfg


def dim(name: str) -> int:
    """Chart dimension of a diagnostics workload."""
    geometry = WORKLOADS[name]["geometry"]
    return 6 if geometry["type"] == "s6" else 2 * geometry["n"]


def points(name: str) -> int:
    """Sample points of a diagnostics workload, grid nodes of a flow one."""
    w = WORKLOADS[name]
    if is_flow(name):
        return w["flow"]["m"] ** (2 * w["flow"]["n"])
    return w["count"]


def cli_argv(name: str, config_path: str, out_path: str) -> list[str]:
    """Arguments of ``torsionflow.cli.main``; the flow writes its artifacts."""
    argv = [WORKLOADS[name]["command"], "--config", config_path]
    if is_flow(name):
        argv += ["--out", out_path]
    return argv


def armijo_trials(steps) -> int:
    """Armijo trials of a descent from the step column of its trace.

    Each accepted step halves ``step0`` once per rejected trial, so a
    step s took 1 + log2(step0 / s) trials; rows with step 0 took none.
    """
    from torsionflow.flow import descend

    step0 = inspect.signature(descend).parameters["step0"].default
    return sum(1 + round(math.log2(step0 / s)) for s in steps if s > 0)
