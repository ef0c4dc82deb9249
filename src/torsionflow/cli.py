"""Batch front end: JSON configs in, machine-readable reports out.

Four commands share one strict config schema, each section checked by
``_fields``.  ``inspect`` runs the full residual suite over sampled
points, ``verify`` checks the tensor identities and the harmonicity
verdict coupling, ``classify`` reports the Gray-Hervella label (the
three build one report layout, ``_report``), and ``flow`` probes its
gradient, descends the discrete energy and writes its trace.  Reports
are deterministic for a fixed config and seed; every float is
serialized with 17 significant digits.

Exit codes: 0 pass, 1 residual failure, 2 config error (including
undecodable JSON, a seed outside 0..MAX_SEED = 2^63 - 1, a points count
above MAX_POINTS, a flow grid above MAX_GRID_ENTRIES, a flow max_iter
above MAX_ITER, an --out outside an existing directory and a failed
report or artifact write, to --out or to stdout, a closed pipe
included), 3 geometry error (including an expression nested deeper than
exprlang.MAX_DEPTH and a metric whose diagnostics overflow float64 at a
point), 4 flow stall, 5 internal failure (a cross-route or convention
check disagreed, a flow step drifted past flow.DRIFT_TOL or its polar
projection did not converge, or any other exception, report rendering
included: a bug in the package, not a verdict on the geometry or the
config). An error exit writes one JSON error to stderr and nothing to
stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
import unicodedata
from pathlib import Path

import numpy as np

from .catalog import build_structure, sample_points, spec_from_config
from .diagnostics import IDENTITY_NAMES, ROUTE_NAMES, classify_gh, gh_label, run_diagnostics
from .exprlang import EvalError, ParseError
from .flow import (
    GridError, calibrate_sign, descend, gradient, grid_payload, l2_norm, random_grid, write_trace_csv,
)
from .geometry import GeometryError
from .unstruct import InternalConventionError

__all__ = ["ConfigError", "load_config", "render_json", "run_command", "main"]

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_STALL = 4
EXIT_INTERNAL = 5

# sample points per diagnostics run; each point's residuals are kept
MAX_POINTS = 4096

# seeds index the points' Halton sequence (seed * 9973 + 1) and seed the
# flow's generator; a longer integer costs time linear in its digits
MAX_SEED = 2**63 - 1

# float64 entries in one (m^(2n), 2n, 2n) flow array: 128 MiB.  The
# descent holds about ten such arrays at once.
MAX_GRID_ENTRIES = 2**24

# descent iterations; descend keeps one trace row per iteration
MAX_ITER = 10**5

# top-level fields besides the command's sections
_TOP_KEYS = ("schema", "command", "tol")
_POINT_KEYS = ("count", "seed")
_FLOW_KEYS = ("seed", "n", "m", "amplitude", "max_iter", "tol_grad")

# residuals that vanish exactly when |d*xi| does (Sections 2 and 5)
_COUPLED = (
    "comm_JLapJ",
    "herm_defect",
    "cond_iv",
    "torsion_iv_a",
    "torsion_iv_b",
)


class ConfigError(ValueError):
    """Malformed or out-of-schema run configuration."""


# -- config -----------------------------------------------------------------


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is refused, not overwritten."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats key {json.dumps(key)}")
        obj[key] = value
    return obj


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError:
        raise
    except ValueError as exc:
        # JSONDecodeError, and integers beyond Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config nests arrays or objects too deeply") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _fields(section, name: str, allowed) -> dict:
    """``section``, checked to be an object with only ``allowed`` fields."""
    if not isinstance(section, dict):
        raise ConfigError(f"\"{name}\" must be an object")
    unknown = [k for k in section if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown {name} fields: {', '.join(sorted(unknown))}")
    return section


def _check_schema(cfg: dict, command: str) -> None:
    sections = ("flow",) if command == "flow" else ("geometry", "points")
    _fields(cfg, "config", _TOP_KEYS + sections)
    if cfg.get("schema") != 1:
        raise ConfigError("config needs \"schema\": 1")
    if "command" in cfg and cfg["command"] != command:
        raise ConfigError(
            f"config is for command {cfg['command']!r}, not {command!r}"
        )
    if sections[0] not in cfg:
        raise ConfigError(f"{command} command needs a \"{sections[0]}\" section")


def _is_finite_number(value) -> bool:
    """A JSON number other than a bool that is finite as a float (json
    reads Infinity and NaN, and integers beyond the float range)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _resolve_tol(cfg: dict, override) -> float:
    tol = override if override is not None else cfg.get("tol", 1e-6)
    if not _is_finite_number(tol) or not tol > 0:
        raise ConfigError("tol must be a positive finite number")
    return float(tol)


def _int_field(section: dict, key: str, default=None, minimum=None, maximum=None):
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"missing required field {key!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {key!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"field {key!r} must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"field {key!r} must be at most {maximum}")
    return value


def _resolve_seed(section: dict, override) -> int:
    """The config seed, or the --seed override under the same check."""
    seed = _int_field(section, "seed", default=0, minimum=0, maximum=MAX_SEED)
    if override is None:
        return seed
    return _int_field({"seed": override}, "seed", minimum=0, maximum=MAX_SEED)


def _float_field(section: dict, key: str, default):
    value = section.get(key, default)
    if not _is_finite_number(value):
        raise ConfigError(f"field {key!r} must be a finite number")
    return float(value)


def _resolve_points(cfg: dict, seed_override) -> tuple[int, int]:
    """The points count and seed, checked before any work is done."""
    section = _fields(cfg.get("points", {}), "points", _POINT_KEYS)
    count = _int_field(section, "count", default=20, minimum=1, maximum=MAX_POINTS)
    return count, _resolve_seed(section, seed_override)


def _prepare(cfg: dict, seed_override):
    """Geometry spec, structure and sample points of a diagnostics command."""
    count, seed = _resolve_points(cfg, seed_override)
    spec = spec_from_config(cfg["geometry"])
    return spec, build_structure(spec), sample_points(spec, count, seed)


# -- serialization ----------------------------------------------------------


def render_json(value) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if value is None or isinstance(value, (bool, np.bool_)):
        return json.dumps(bool(value) if value is not None else None)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not np.isfinite(v):
            raise ValueError("non-finite number in report")
        return format(v, ".17g")
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}: {render_json(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.size:
            # one "%.17g" template per matrix (the last two axes), then
            # bracket the axes before them outwards
            if not np.isfinite(value).all():
                raise ValueError("non-finite number in report")
            template = "%.17g"
            for size in reversed(value.shape[-2:]):
                template = "[" + ", ".join([template] * size) + "]"
            cells = value.reshape(-1, math.prod(value.shape[-2:]))
            items = [template % tuple(cell.tolist()) for cell in cells]
            for size in reversed(value.shape[:-2]):
                items = [
                    "[" + ", ".join(items[i : i + size]) + "]"
                    for i in range(0, len(items), size)
                ]
            return items[0]
        return "[" + ", ".join(render_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


# -- commands ---------------------------------------------------------------


def _class_match(spec, label: str) -> tuple:
    """The spec's expected class and whether ``label`` is it, or two Nones."""
    expected = spec.metadata.get("expected_class")
    if expected is None:
        return None, None
    ascii_label = unicodedata.normalize("NFKD", str(expected)).encode("ascii", "ignore").decode()
    return expected, ascii_label == label


def _report(cfg: dict, command: str, tol: float, count: int, body: dict, summary: dict, ok: bool):
    """The payload every diagnostics command writes, and its exit code:
    ``body``'s keys follow the geometry, ``summary``'s the count."""
    payload = {
        "schema": 1,
        "geometry": dict(cfg["geometry"]),
        "sign_audit": "paper-convention",
        **body,
        "summary": {"command": command, "tol": tol, "count": count, **summary},
        "pass": ok,
    }
    return payload, EXIT_PASS if ok else EXIT_RESIDUAL


def _run_inspect(cfg: dict, tol: float, seed_override) -> tuple[dict, int]:
    spec, structure, pts = _prepare(cfg, seed_override)
    report = run_diagnostics(structure, pts, tol=tol)

    normalized = report.component_norms / report.scale[:, None]
    point_rows = [
        {"x": [float(v) for v in p], "residuals": residuals, "class": gh_label(norms, tol)}
        for p, residuals, norms in zip(pts, report.residuals, normalized)
    ]
    label = gh_label(normalized.max(axis=0), tol)
    expected_class, class_match = _class_match(spec, label)
    checked = list(IDENTITY_NAMES) + list(spec.metadata.get("expected_zero", ()))
    ok = all(report.passes[k] for k in checked) and class_match is not False
    summary = {
        "label": label,
        "expected_class": expected_class,
        "class_match": class_match,
        "checked": checked,
        "max_residuals": dict(report.max_residuals),
        "passes": dict(report.passes),
        "metadata": dict(report.metadata),
    }
    return _report(cfg, "inspect", tol, len(pts), {"points": point_rows}, summary, ok)


def _run_verify(cfg: dict, tol: float, seed_override) -> tuple[dict, int]:
    _, structure, pts = _prepare(cfg, seed_override)
    report = run_diagnostics(structure, pts, tol=tol)

    columns, bound = report.columns, tol * report.scale
    harmonic = columns["harmonic"] < bound
    # points where any coupled verdict differs from harmonic's
    mixed = int(np.any([(columns[name] < bound) != harmonic for name in _COUPLED], axis=0).sum())

    def check(name: str, values: np.ndarray) -> dict:
        value = float(np.max(values / report.scale))
        return {"name": name, "value": value, "pass": value < tol}

    checks = [check(f"identity:{name}", columns[name]) for name in IDENTITY_NAMES]
    checks.append({"name": "harmonicity_coupling", "value": float(mixed), "pass": mixed == 0})
    checks += [check(name, report.routes[name]) for name in ROUTE_NAMES]

    ok = all(c["pass"] for c in checks)
    summary = {"coupled_residuals": list(_COUPLED)}
    return _report(cfg, "verify", tol, len(pts), {"checks": checks}, summary, ok)


def _run_classify(cfg: dict, tol: float, seed_override) -> tuple[dict, int]:
    spec, structure, pts = _prepare(cfg, seed_override)
    verdict = classify_gh(structure, pts, tol)
    expected, match = _class_match(spec, verdict["label"])
    summary = {"expected_class": expected, "class_match": match}
    return _report(cfg, "classify", tol, len(pts), verdict, summary, match is not False)


def _run_flow(cfg: dict, tol: float, seed_override, out) -> tuple[dict, int]:
    section = _fields(cfg["flow"], "flow", _FLOW_KEYS)
    seed = _resolve_seed(section, seed_override)
    n = _int_field(section, "n", default=2, minimum=1)
    m = _int_field(section, "m", default=None)
    amplitude = _float_field(section, "amplitude", 0.3)
    max_iter = _int_field(section, "max_iter", default=5000, minimum=1, maximum=MAX_ITER)
    tol_grad = _float_field(section, "tol_grad", 1e-5)
    if not tol_grad > 0:
        raise ConfigError("field 'tol_grad' must be positive")
    # random_grid rejects m < 4; for m >= 2, 2n > 24 alone exceeds the cap
    dim = 2 * n
    if m >= 2 and (dim > 24 or m**dim * dim**2 > MAX_GRID_ENTRIES):
        raise ConfigError(
            f"flow grid of m^(2n) * (2n)^2 entries exceeds {MAX_GRID_ENTRIES}"
        )

    grid = random_grid(seed, n, m, amplitude)
    # the probe first, so a gradient off the energy's slope stops the run
    # before the descent; the norm is the one of the trace's first row
    sign = calibrate_sign(grid) if l2_norm(grid, gradient(grid)) > 1e-10 else None
    result = descend(grid, max_iter=max_iter, tol_grad=tol_grad)
    start = result.trace[0]  # the starting grid's energy and gradient norm
    energies = [row.energy for row in result.trace]
    monotone = all(b <= a for a, b in zip(energies, energies[1:]))

    if out is not None:
        base = Path(out)
        stem = base.parent / base.stem
        write_trace_csv(result.trace, f"{stem}.trace.csv")
        Path(f"{stem}.grid.json").write_text(
            render_json(grid_payload(result.grid)) + "\n"
        )

    ok = result.converged and monotone
    payload = {
        "schema": 1,
        "flow": dict(section),
        "sign_audit": "paper-convention",
        "sign": sign,
        "initial_energy": start.energy,
        "final_energy": energies[-1],
        "iterations": len(result.trace) - 1,
        "terminal_grad_norm": result.terminal_grad_norm,
        "terminal_pointwise": result.terminal_pointwise,
        "max_drift": result.max_drift,
        "monotone": monotone,
        "converged": result.converged,
        "stalled": result.stalled,
        "message": result.message,
        "pass": ok,
    }
    if result.stalled:
        return payload, EXIT_STALL
    return payload, EXIT_PASS if ok else EXIT_RESIDUAL


# -- entry point --------------------------------------------------------------


def run_command(command: str, cfg: dict, tol=None, seed=None, out=None) -> tuple[dict, int]:
    """Dispatch a validated command; returns (report payload, exit code)."""
    _check_schema(cfg, command)
    resolved = _resolve_tol(cfg, tol)
    if command == "inspect":
        return _run_inspect(cfg, resolved, seed)
    if command == "verify":
        return _run_verify(cfg, resolved, seed)
    if command == "classify":
        return _run_classify(cfg, resolved, seed)
    return _run_flow(cfg, resolved, seed, out)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionflow",
        description="Diagnostics and gradient flow for almost Hermitian structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "inspect": "full residual suite over sampled points",
        "verify": "tensor identities and harmonicity verdict coupling",
        "classify": "Gray-Hervella class label",
        "flow": "energy descent on a periodic grid",
    }
    for name, text in helps.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", help="write the report (and flow artifacts) here")
        cmd.add_argument("--tol", type=float, help="override the config tolerance")
        cmd.add_argument("--seed", type=int, help="override the sampling seed")
    return parser


def _fail(error: str, code: int) -> int:
    print(render_json({"schema": 1, "error": error}), file=sys.stderr)
    return code


def _drop_stdout() -> None:
    """Point a failed stdout at the null device, so that the interpreter's
    flush at exit has nothing left to fail on."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # non-finite results are checked where they arise, so numpy's
        # floating-point warnings would only break the one-JSON stderr
        with np.errstate(all="ignore"):
            if args.out is not None and not Path(args.out).parent.is_dir():
                raise ConfigError(f"--out {args.out}: parent is not an existing directory")
            cfg = load_config(args.config)
            payload, code = run_command(
                args.command, cfg, tol=args.tol, seed=args.seed, out=args.out
            )
            text = render_json(payload)
            if args.out:
                Path(args.out).write_text(text + "\n")
    except InternalConventionError as exc:
        return _fail(f"internal check failed: {exc}", EXIT_INTERNAL)
    except (ConfigError, GridError) as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except (GeometryError, ParseError, EvalError) as exc:
        return _fail(str(exc), EXIT_GEOMETRY)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}", EXIT_CONFIG)
    except Exception as exc:
        # a bug in the package: name where it was raised, without a traceback
        where = traceback.extract_tb(exc.__traceback__)[-1]
        origin = f"{Path(where.filename).name}:{where.lineno}"
        return _fail(f"internal error: {type(exc).__name__}: {exc} ({origin})", EXIT_INTERNAL)

    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        _drop_stdout()
        return _fail(f"cannot write output: {exc}", EXIT_CONFIG)
    return code


if __name__ == "__main__":
    sys.exit(main())
