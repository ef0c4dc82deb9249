import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionflow import diagnostics
from torsionflow.catalog import build_structure, sample_points, spec_from_config
from torsionflow.cli import MAX_ITER, MAX_POINTS, MAX_SEED, main, render_json
from torsionflow.diagnostics import classify_gh, coderivative_xi, point_scale, star_ricci
from torsionflow.flow import JGrid, grid_payload, random_grid


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def geometry_config(geometry, count=2, seed=1, command="inspect", **extra):
    cfg = {
        "schema": 1,
        "command": command,
        "geometry": geometry,
        "points": {"count": count, "seed": seed},
    }
    cfg.update(extra)
    return cfg


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_errors_exit_2(tmp_path, capsys):
    flat = {"type": "flat", "n": 2}
    seed_max = "field 'seed' must be at most 9223372036854775807"
    bad = [
        ({"schema": 2, "geometry": flat}, 'config needs "schema": 1'),
        ({"geometry": flat}, 'config needs "schema": 1'),
        ({"schema": 1, "geometry": flat, "bogus": 1}, "unknown config fields: bogus"),
        ({"schema": 1, "geometry": flat, "flow": {"n": 1}}, "unknown config fields: flow"),
        ({"schema": 1, "command": "verify", "geometry": flat}, "config is for command 'verify', not 'inspect'"),
        ({"schema": 1, "geometry": flat, "tol": -1.0}, "tol must be a positive finite number"),
        ({"schema": 1, "geometry": flat, "points": {"n": 2}}, "unknown points fields: n"),
        ({"schema": 1, "geometry": flat, "points": []}, '"points" must be an object'),
        ({"schema": 1, "geometry": flat, "points": {"count": 0}}, "field 'count' must be at least 1"),
        ({"schema": 1}, 'inspect command needs a "geometry" section'),
        ({"schema": 1, "geometry": flat, "tol": float("inf")}, "tol must be a positive finite number"),
        # refused before the structure is built or any point sampled
        ({"schema": 1, "geometry": flat, "points": {"count": MAX_POINTS + 1}}, "field 'count' must be at most 4096"),
        ({"schema": 1, "geometry": flat, "points": {"count": 10**12}}, "field 'count' must be at most 4096"),
        # a seed's Halton digits cost time linear in its length
        ({"schema": 1, "geometry": flat, "points": {"seed": MAX_SEED + 1}}, seed_max),
        ({"schema": 1, "geometry": flat, "points": {"seed": 10**4000}}, seed_max),
    ]
    cases = [
        (["inspect", "--config", write_config(tmp_path, f"bad{idx}.json", cfg)], error)
        for idx, (cfg, error) in enumerate(bad)
    ]

    def flow(name, section, **top):
        return ["flow", "--config", write_config(tmp_path, name, {"schema": 1, "flow": section, **top})]

    flat_path = write_config(tmp_path, "flat.json", geometry_config(flat))
    small_flow = flow("small_flow.json", {"n": 1, "m": 4})
    grid_cap = "flow grid of m^(2n) * (2n)^2 entries exceeds 16777216"
    cases += [
        # json reads Infinity; non-finite numbers stop at the config edge
        (flow("inf_flow.json", {"n": 1, "m": 4, "amplitude": float("inf")}), "field 'amplitude' must be a finite number"),
        (flow("list_flow.json", []), '"flow" must be an object'),
        (flow("bogus_flow.json", {"n": 1, "m": 4, "bogus": 1}), "unknown flow fields: bogus"),
        (flow("geo_flow.json", {"n": 1, "m": 4}, geometry=flat), "unknown config fields: geometry"),
        (["flow", "--config", write_config(tmp_path, "no_flow.json", {"schema": 1})], 'flow command needs a "flow" section'),
        (["inspect", "--config", flat_path, "--tol", "inf"], "tol must be a positive finite number"),
        # --seed gets the same non-negative check as the config seed
        (["inspect", "--config", flat_path, "--seed", "-1"], "field 'seed' must be at least 0"),
        (small_flow + ["--seed", "-1"], "field 'seed' must be at least 0"),
        # and the same upper bound
        (["inspect", "--config", flat_path, "--seed", str(MAX_SEED + 1)], seed_max),
        (small_flow + ["--seed", str(MAX_SEED + 1)], seed_max),
        (flow("seed.json", {"n": 1, "seed": 10**4000}), seed_max),
        # descend keeps one trace row per iteration
        (flow("iter.json", {"n": 1, "m": 4, "max_iter": MAX_ITER + 1}), "field 'max_iter' must be at most 100000"),
        # grids above 2**24 float64 entries are refused before allocating
        (flow("huge0.json", {"n": 4, "m": 32}), grid_cap),
        (flow("huge1.json", {"n": 6, "m": 4}), grid_cap),
    ]

    def raw(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    # json keeps the last value of a repeated key; a config that says two things is refused
    geo = '"geometry": {"type": "flat", "n": 2}'
    cases += [
        (["inspect", "--config", raw("dup_top.json", '{"schema": 1, ' + geo + ', "tol": 1e-6, "tol": 0.5}')], 'config repeats key "tol"'),
        (["inspect", "--config", raw("dup_geometry.json", '{"schema": 1, "geometry": {"type": "flat", "n": 2, "n": 3}}')], 'config repeats key "n"'),
        (["inspect", "--config", raw("dup_points.json", '{"schema": 1, ' + geo + ', "points": {"count": 2, "count": 3}}')], 'config repeats key "count"'),
        (["flow", "--config", raw("dup_flow.json", '{"schema": 1, "flow": {"n": 1, "m": 4, "seed": 1, "seed": 2}}')], 'config repeats key "seed"'),
    ]
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    missing = tmp_path / "missing.json"
    cases += [
        (
            ["inspect", "--config", str(broken)],
            "config is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        (["inspect", "--config", str(missing)], f"cannot read config: [Errno 2] No such file or directory: '{missing}'"),
    ]
    for args, error in cases:
        code, out, err = run(args, capsys)
        assert (code, out, err) == (2, "", render_json({"schema": 1, "error": error}) + "\n"), args


@pytest.mark.parametrize(
    "text",
    [
        # beyond Python's 4,300-digit limit for integer strings
        '{"schema": 1, "flow": {"n": 1, "m": 4, "seed": ' + "9" * 5000 + "}}",
        # deeper than the JSON decoder's recursion
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["long_number", "deep_array"],
)
def test_undecodable_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = run(["flow", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_geometry_errors_exit_3(tmp_path, capsys):
    bad = [
        {"type": "torus", "n": 2},
        {"type": "flat", "n": 2, "extra": 1},
        {"type": "conformal", "n": 2, "f": "sin(x1"},
        {"type": "conformal", "n": 2, "f": "x1", "periodic": True},
        {"type": "conformal", "n": 2, "f": "1/x1"},
        {"type": "flat", "n": 2, "jet_degree": 3},
        {"type": "flat", "n": 2, "jet_degree": 9},
        {"type": "flat", "n": 2, "jet_degree": 2},
        {"type": "flat", "n": 2, "jet_degree": "abc"},
        {"type": "flat", "n": 2, "jet_degree": 4.5},
        {"type": "flat", "n": 2, "jet_degree": True},
        {"type": "flat", "n": "abc"},
        {"type": "flat", "n": 5},
        {"type": "flat", "n": True},
        {"type": "flat", "n": 2.7},
        {"type": "conformal", "n": 2, "f": "sin(x1)", "periodic": "false"},
        # nesting beyond exprlang.MAX_DEPTH is a parse error, not a stack overflow
        {"type": "conformal", "n": 2, "f": "(" * 3000 + "x1" + ")" * 3000},
        {"type": "conformal", "n": 2, "f": "+".join(["x1"] * 5000)},
        # an exponent literal longer than Python converts to int
        {"type": "conformal", "n": 2, "f": "x1^" + "9" * 5000},
        # a finite factor whose metric e^f overflows to inf
        {"type": "conformal", "n": 2, "f": "exp(700)"},
    ]
    for idx, geo in enumerate(bad):
        path = write_config(tmp_path, f"geo{idx}.json", geometry_config(geo))
        code, out, err = run(["inspect", "--config", path], capsys)
        assert code == 3, geo
        assert out == ""
        assert "error" in json.loads(err)
    not_text = "f must be an expression string"
    named = [
        # the factor is source text: no other JSON value is read as one
        ({"type": "conformal", "n": 2, "f": True}, not_text),
        ({"type": "conformal", "n": 2, "f": None}, not_text),
        ({"type": "conformal", "n": 2, "f": ["x1"]}, not_text),
        ({"type": "conformal", "n": 2, "f": 5}, not_text),
        # a field the type does not take is named before any value is read
        ({"type": "s6", "n": 0}, "unknown geometry config fields: ['n']"),
        ({"type": "flat", "n": 2, "periodic": "yes"}, "unknown geometry config fields: ['periodic']"),
    ]
    for idx, (geo, error) in enumerate(named):
        path = write_config(tmp_path, f"named{idx}.json", geometry_config(geo))
        code, out, err = run(["inspect", "--config", path], capsys)
        assert (code, out, err) == (3, "", render_json({"schema": 1, "error": error}) + "\n"), geo


def test_numpy_warnings_stay_off_stderr(tmp_path, capsys):
    # e^f overflows inside the jet products before the factor is refused
    geo = {"type": "conformal", "n": 2, "f": "exp(300*x1)"}
    path = write_config(tmp_path, "exp.json", geometry_config(geo))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["inspect", "--config", path], capsys)
    assert (code, out) == (3, "")
    assert "error" in json.loads(err)


# e^f up to 1e152 is finite, but products of xi and R overflow float64
_HUGE = {"type": "conformal", "n": 2, "f": "350*sin(x1)", "periodic": True}
# g near 1e-308 at the second point: the torsion jets overflow
_TINY = {"type": "conformal", "n": 3, "f": "709*sin(x1)"}


@pytest.mark.parametrize(
    "command, geo",
    [("inspect", _HUGE), ("verify", _HUGE), ("inspect", _TINY), ("verify", _TINY), ("classify", _TINY)],
    ids=["inspect", "verify", "inspect-709", "verify-709", "classify-709"],
)
def test_extreme_metric_exits_3(tmp_path, capsys, command, geo):
    cfg = geometry_config(geo, count=3, seed=0 if geo is _TINY else 1, command=command)
    path = write_config(tmp_path, "extreme.json", cfg)
    code, out, err = run([command, "--config", path], capsys)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1
    assert "overflow float64 at point (" in json.loads(err)["error"]


class _RawNumber(str):
    """A number written into the config text as-is, past what json.dumps emits."""


class _Twice(str):
    """A key written into the config text twice, with the same value."""


def _to_json(value) -> str:
    if isinstance(value, _RawNumber):
        return str(value)
    if isinstance(value, dict):
        pairs = [f"{json.dumps(k)}: {_to_json(v)}" for k, v in value.items()]
        pairs += [pair for pair, k in zip(pairs, value) if isinstance(k, _Twice)]
        return "{" + ", ".join(pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_to_json(v) for v in value) + "]"
    return json.dumps(value)  # NaN and Infinity as json writes them


_JUNK = st.sampled_from(
    [None, True, -1, 0, 2.5, -1e308, 1e308, float("nan"), float("inf"), float("-inf"),
     10**400, "abc", "", [], {}, [1, 2], {"a": 1}, _RawNumber("9" * 5000)]
)
_FORMULAS = st.sampled_from(
    ["sin(x1)", "sin(x1)*cos(x2)", "350*sin(x1)", "709*sin(x1)", "exp(x1)", "log(x1)", "1/x1", "x1^3",
     "sqrt(x2)", "x1^-2", "exp(exp(x1))", "exp(700)", "9" * 5000, "1e400", "x1^" + "9" * 5000,
     "x1^" + "9" * 30, "x5", "(x1"]
)


@st.composite
def _configs(draw):
    """A valid config of a random command with up to three fields spoiled,
    and in some examples one key repeated."""
    command = draw(st.sampled_from(["inspect", "verify", "classify", "flow"]))
    cfg = {"schema": 1, "command": command, "tol": draw(st.sampled_from([1e-6, 1e-3]))}
    if command == "flow":
        cfg["flow"] = {
            "seed": draw(st.integers(0, 5)),
            "n": draw(st.integers(1, 2)),
            "m": 4,
            "amplitude": draw(st.sampled_from([0.0, 0.3, -2.0, 1e308])),
            # set always: the default of 5000 iterations is too slow here
            "max_iter": draw(st.integers(1, 20)),
            "tol_grad": draw(st.sampled_from([1e-2, 1e-5, 10.0])),
        }
    else:
        kind = draw(st.sampled_from(["flat", "conformal", "hopf", "s6"]))
        cfg["geometry"] = {"type": kind, "n": draw(st.integers(1, 3))}
        if kind == "conformal":
            cfg["geometry"]["f"] = draw(_FORMULAS)
            cfg["geometry"]["periodic"] = draw(st.booleans())
        if kind == "s6":
            del cfg["geometry"]["n"]
        cfg["points"] = {"count": draw(st.integers(1, 3)), "seed": draw(st.integers(0, 5))}
    # only these dicts are edited: junk values are shared between examples
    sections = [cfg] + [v for v in cfg.values() if isinstance(v, dict)]
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(sections))
        key = draw(st.sampled_from(sorted(section) + ["bogus", "jet_degree", "count"]))
        if draw(st.booleans()):
            section.pop(key, None)
        else:
            section[key] = draw(_JUNK)
    # only a section the config still holds is written out
    live = [s for s in sections if s and (s is cfg or any(s is v for v in cfg.values()))]
    repeated = bool(live) and draw(st.integers(0, 3)) == 3
    if repeated:
        section = draw(st.sampled_from(live))
        key = draw(st.sampled_from(sorted(section)))
        section[_Twice(key)] = section.pop(key)
    return command, cfg, repeated


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_configs())
def test_fuzzed_configs_exit_with_a_documented_code(case):
    # every config ends in a report or one JSON error, never a traceback
    # and never exit 5, which is kept for faults of the package itself
    command, cfg, repeated = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(_to_json(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path)])
    assert code in (0, 1, 2, 3, 4), (code, err.getvalue()[:300])
    # a repeated key is refused when the config is read, whatever else it holds
    assert code == 2 or not repeated, err.getvalue()[:300]
    if code in (2, 3):
        assert out.getvalue() == ""
        assert "error" in json.loads(err.getvalue())
    else:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["schema"] == 1


def test_internal_check_failure_exits_5(tmp_path, capsys, monkeypatch):
    # a negative route tolerance makes every cross-route check fail, as a
    # sign or layout bug would; that must not read as a failed residual
    monkeypatch.setattr(diagnostics, "ROUTE_TOL", -1.0)
    path = write_config(tmp_path, "flat.json", geometry_config({"type": "flat", "n": 2}))
    code, out, err = run(["inspect", "--config", path], capsys)
    assert code == 5
    assert out == ""
    assert "internal check failed" in json.loads(err)["error"]


def test_flow_drift_exits_5(tmp_path, capsys, monkeypatch):
    # a retraction that leaves the constraint set is a kernel bug, not a
    # config error
    from torsionflow import flow

    cayley = flow._cayley
    monkeypatch.setattr(flow, "_cayley", lambda a: (1.0 + 1e-6) * cayley(a))
    cfg = {"schema": 1, "command": "flow", "flow": {"seed": 7, "n": 2, "m": 4, "max_iter": 2}}
    path = write_config(tmp_path, "drift.json", cfg)
    code, out, err = run(["flow", "--config", path], capsys)
    assert code == 5
    assert out == ""
    assert "drift" in json.loads(err)["error"]


SMALL_FLOW = {"schema": 1, "command": "flow", "flow": {"seed": 7, "n": 2, "m": 4, "max_iter": 2}}


def _must_not_run(*args, **kwargs):
    pytest.fail("a step ran that an earlier check should have stopped")


@pytest.mark.parametrize(
    "name, scale, message",
    [
        ("gradient", 2.0, "directional derivative disagrees with the gradient pairing"),
        # the descent's own gradient kernel, which the probe shares
        ("_gradient", 2.0, "directional derivative disagrees with the gradient pairing"),
        ("_cayley", 2.5, "polar projection did not converge"),
    ],
    ids=["gradient", "loop_gradient", "polar"],
)
def test_flow_kernel_faults_exit_5(tmp_path, capsys, monkeypatch, name, scale, message):
    # a gradient off the energy's slope, or a step too far from the
    # constraint set to project back, is a kernel bug, not a config error;
    # the probe finds it before the descent is paid for
    from torsionflow import cli, flow

    kernel = getattr(flow, name)
    monkeypatch.setattr(flow, name, lambda *args: scale * kernel(*args))
    monkeypatch.setattr(cli, "descend", _must_not_run)
    path = write_config(tmp_path, "fault.json", SMALL_FLOW)
    code, out, err = run(["flow", "--config", path], capsys)
    assert (code, out) == (5, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == f"internal check failed: {message}"


def test_flow_stall_exits_4(tmp_path, capsys, monkeypatch):
    # a retraction that steps uphill fails every Armijo trial
    from torsionflow import flow

    cayley = flow._cayley
    monkeypatch.setattr(flow, "_cayley", lambda a: cayley(-a))
    path = write_config(tmp_path, "stall.json", SMALL_FLOW)
    code, out, err = run(["flow", "--config", path], capsys)
    assert (code, err) == (4, "")
    report = json.loads(out)
    assert report["stalled"] is True
    assert report["converged"] is False
    assert report["message"] == "step-size underflow in the Armijo search"




@pytest.mark.parametrize("command", ["flow", "inspect"])
def test_out_into_missing_directory_exits_2(tmp_path, capsys, monkeypatch, command):
    from torsionflow import cli

    monkeypatch.setattr(cli, "descend", _must_not_run)
    monkeypatch.setattr(cli, "run_diagnostics", _must_not_run)
    cfg = SMALL_FLOW if command == "flow" else geometry_config({"type": "flat", "n": 2})
    path = write_config(tmp_path, "cfg.json", cfg)
    missing = tmp_path / "missing" / "dir" / "run.json"
    code, out, err = run([command, "--config", path, "--out", str(missing)], capsys)
    assert code == 2
    assert out == ""
    assert str(missing) in json.loads(err)["error"]


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_2(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, "flat.json", geometry_config({"type": "flat", "n": 2}, count=1))
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["inspect", "--config", path]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "cannot write output: [Errno 32] Broken pipe"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a device that is always full")
def test_full_stdout_exits_2_with_one_error(tmp_path):
    # the interpreter's flush at exit must not add a second error; it has
    # something to flush only when stdout is buffered
    path = write_config(tmp_path, "flat.json", geometry_config({"type": "flat", "n": 2}, count=1))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "torsionflow.cli", "inspect", "--config", path],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True,
        )
    assert done.returncode == 2
    assert done.stderr.count("\n") == 1
    assert json.loads(done.stderr)["error"] == "cannot write output: [Errno 28] No space left on device"


def test_failed_report_or_artifact_write_exits_2(tmp_path, capsys):
    # the report path is a directory; then the trace CSV's path is one
    path = write_config(tmp_path, "flow.json", SMALL_FLOW)
    (tmp_path / "taken").mkdir()
    code, out, err = run(["flow", "--config", path, "--out", str(tmp_path / "taken")], capsys)
    assert (code, out) == (2, "")
    assert "cannot write" in json.loads(err)["error"]
    (tmp_path / "run.trace.csv").mkdir()
    code, out, err = run(["flow", "--config", path, "--out", str(tmp_path / "run.json")], capsys)
    assert (code, out) == (2, "")
    assert "run.trace.csv" in json.loads(err)["error"]
    assert not (tmp_path / "run.json").exists()


def test_unexpected_exception_exits_5(tmp_path, capsys, monkeypatch):
    from torsionflow import cli

    def broken(*args, **kwargs):
        raise RuntimeError("descent exploded")

    path = write_config(tmp_path, "flow.json", SMALL_FLOW)
    monkeypatch.setattr(cli, "descend", broken)
    code, out, err = run(["flow", "--config", path], capsys)
    assert (code, out) == (5, "")
    error = json.loads(err)["error"]
    assert error.startswith("internal error: RuntimeError: descent exploded (test_cli.py:")


def test_non_finite_report_exits_5(tmp_path, capsys, monkeypatch):
    # render_json refuses NaN; that is a bug in the package, not a
    # failed residual, and must not end in a traceback
    from torsionflow import cli

    descend = cli.descend

    def nan_start(grid, **kwargs):
        # the report's initial energy is the first trace row's
        result = descend(grid, **kwargs)
        result.trace[0] = dataclasses.replace(result.trace[0], energy=float("nan"))
        return result

    monkeypatch.setattr(cli, "descend", nan_start)
    path = write_config(tmp_path, "flow.json", SMALL_FLOW)
    code, out, err = run(["flow", "--config", path], capsys)
    assert (code, out) == (5, "")
    assert "non-finite" in json.loads(err)["error"]
    assert "Traceback" not in err


def test_inspect_flat_is_all_zero(tmp_path, capsys):
    path = write_config(
        tmp_path, "flat.json", geometry_config({"type": "flat", "n": 2}, count=3)
    )
    code, out, _ = run(["inspect", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["pass"] is True
    assert report["sign_audit"] == "paper-convention"
    assert report["summary"]["label"] == "Kahler"
    assert len(report["points"]) == 3
    for row in report["points"]:
        assert row["class"] == "Kahler"
        assert max(row["residuals"].values()) < 1e-12
    assert all(report["summary"]["passes"].values())


def test_inspect_s6_reports_w1(tmp_path, capsys):
    path = write_config(tmp_path, "s6.json", geometry_config({"type": "s6"}, count=2))
    code, out, _ = run(["inspect", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["summary"]["label"] == "W1"
    assert report["summary"]["class_match"] is True
    passes = report["summary"]["passes"]
    assert passes["harmonic"] and passes["harmonic_map"] and passes["vert_geodesic"]
    assert not passes["flatness"]


def test_inspect_conformal_sin_verdicts(tmp_path, capsys):
    geo = {"type": "conformal", "n": 2, "f": "sin(x1)", "periodic": True}
    path = write_config(tmp_path, "conf.json", geometry_config(geo, count=3, seed=11))
    code, out, _ = run(["inspect", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["summary"]["label"] == "W4"
    passes = report["summary"]["passes"]
    assert passes["harmonic"] is True
    assert passes["harmonic_map"] is False
    # labels read from the diagnostics records match a direct classification
    spec = spec_from_config(geo)
    structure = build_structure(spec)
    pts = sample_points(spec, 3, 11)
    tol = report["summary"]["tol"]
    for p, row in zip(pts, report["points"]):
        assert row["class"] == classify_gh(structure, [p], tol)["label"]
    assert report["summary"]["label"] == classify_gh(structure, pts, tol)["label"]


def test_verify_hopf_checks_pass(tmp_path, capsys):
    geo = {"type": "hopf", "n": 2}
    path = write_config(
        tmp_path, "hopf.json", geometry_config(geo, count=2, command="verify")
    )
    code, out, _ = run(["verify", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    assert "harmonicity_coupling" in names
    assert "identity:rough_laplacian_omega" in names
    assert all(c["pass"] for c in report["checks"])
    assert report["pass"] is True
    # route values read from the diagnostics records match a direct re-query
    spec = spec_from_config(geo)
    structure = build_structure(spec)
    pts = sample_points(spec, 2, 1)
    scales = [point_scale(structure, p) for p in pts]
    cods = [coderivative_xi(structure, p) for p in pts]
    expected = {
        "coderivative_route_gap": max(c.route_gap / s for c, s in zip(cods, scales)),
        "coderivative_uperp_defect": max(c.uperp_defect / s for c, s in zip(cods, scales)),
        "star_ricci_route_gap": max(
            star_ricci(structure, p).route_gap / s for p, s in zip(pts, scales)
        ),
    }
    values = {c["name"]: c["value"] for c in report["checks"]}
    for name, value in expected.items():
        assert values[name] == value


def test_verify_counts_points_where_coupled_verdicts_disagree(tmp_path, capsys, monkeypatch):
    """A hand-made three-point report: the first point disagrees with
    harmonic on two coupled residuals, the second on one, the third on
    none, so the coupling check counts two points.  Every other check is
    the largest residual / scale over the points."""
    from torsionflow import cli

    report = diagnostics.DiagnosticsReport(
        geometry="flat",
        columns={
            "harmonic": np.zeros(3),
            "comm_JLapJ": np.array([1e-3, 0.0, 0.0]),
            "herm_defect": np.array([2e-3, 0.0, 0.0]),
            "cond_iv": np.zeros(3),
            "torsion_iv_a": np.array([0.0, 1e-3, 0.0]),
            "torsion_iv_b": np.zeros(3),
            "d2omega_combination": np.array([3e-7, 8e-7, 4e-7]),
            "lee_form_w4_derivative": np.array([1e-7, 2e-7, 2e-5]),
            "rough_laplacian_omega": np.zeros(3),
            "star_ricci_divergence": np.array([5e-7, 0.0, 0.0]),
        },
        routes={
            "coderivative_route_gap": np.array([0.0, 0.0, 1.2e-8]),
            "coderivative_uperp_defect": np.array([2e-9, 0.0, 0.0]),
            "star_ricci_route_gap": np.array([0.0, 6e-9, 0.0]),
        },
        scale=np.array([1.0, 2.0, 4.0]),
        component_norms=np.zeros((3, 4)),
        max_residuals={},
        passes={},
        metadata={},
    )
    monkeypatch.setattr(cli, "run_diagnostics", lambda structure, pts, tol: report)
    cfg = geometry_config({"type": "flat", "n": 2}, count=3, command="verify", tol=1e-6)
    code, out, _ = run(["verify", "--config", write_config(tmp_path, "v.json", cfg)], capsys)
    assert code == 1
    checks = {c["name"]: (c["value"], c["pass"]) for c in json.loads(out)["checks"]}
    assert checks == {
        "identity:d2omega_combination": (4e-7, True),
        "identity:lee_form_w4_derivative": (5e-6, False),
        "identity:rough_laplacian_omega": (0.0, True),
        "identity:star_ricci_divergence": (5e-7, True),
        "harmonicity_coupling": (2.0, False),
        "coderivative_route_gap": (3e-9, True),
        "coderivative_uperp_defect": (2e-9, True),
        "star_ricci_route_gap": (3e-9, True),
    }


def test_classify_labels(tmp_path, capsys):
    cases = [
        ({"type": "flat", "n": 2}, "Kahler"),
        ({"type": "conformal", "n": 2, "f": "sin(x1)", "periodic": True}, "W4"),
    ]
    for geo, expected in cases:
        path = write_config(
            tmp_path, "cls.json", geometry_config(geo, command="classify")
        )
        code, out, _ = run(["classify", "--config", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["label"] == expected
        assert report["pass"] is True


def test_classify_tolerance_override_flags_mismatch(tmp_path, capsys):
    geo = {"type": "conformal", "n": 2, "f": "sin(x1)", "periodic": True}
    path = write_config(tmp_path, "cls.json", geometry_config(geo, command="classify"))
    code, out, _ = run(["classify", "--config", path, "--tol", "10.0"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["label"] == "Kahler"
    assert report["summary"]["class_match"] is False
    assert report["pass"] is False


def test_flow_zero_amplitude_single_row(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "command": "flow",
        "flow": {"seed": 7, "n": 2, "m": 8, "amplitude": 0.0},
    }
    path = write_config(tmp_path, "flow0.json", cfg)
    out_path = tmp_path / "report.json"
    code, out, _ = run(["flow", "--config", path, "--out", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["iterations"] == 0
    assert report["sign"] is None
    assert report["converged"] is True
    rows = list(csv.DictReader(open(tmp_path / "report.trace.csv")))
    assert len(rows) == 1
    assert float(rows[0]["energy"]) == 0.0


def test_flow_rejects_tiny_grid(tmp_path, capsys):
    cfg = {"schema": 1, "flow": {"seed": 7, "n": 2, "m": 2}}
    path = write_config(tmp_path, "flow2.json", cfg)
    code, out, err = run(["flow", "--config", path], capsys)
    assert code == 2
    assert out == ""
    assert "resolution" in json.loads(err)["error"]


def test_flow_descends_and_writes_artifacts(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "command": "flow",
        "flow": {
            "seed": 7,
            "n": 2,
            "m": 8,
            "amplitude": 0.3,
            "max_iter": 900,
            "tol_grad": 1e-2,
        },
    }
    path = write_config(tmp_path, "flow8.json", cfg)
    out_path = tmp_path / "flow8.report.json"
    code, out, _ = run(["flow", "--config", path, "--out", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["monotone"] is True
    assert report["sign"] == 1
    assert report["iterations"] == 736
    assert report["terminal_grad_norm"] < 1e-2
    assert report["max_drift"] < 1e-8
    assert out_path.read_text().rstrip("\n") == out.rstrip("\n")

    rows = list(csv.DictReader(open(tmp_path / "flow8.report.trace.csv")))
    assert len(rows) == 737
    energies = [float(r["energy"]) for r in rows]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert energies[0] == report["initial_energy"]

    payload = json.loads((tmp_path / "flow8.report.grid.json").read_text())
    values = np.asarray(payload["nodes"]).reshape((8, 8, 8, 8, 4, 4))
    grid = JGrid(payload["n"], payload["resolution"], values)
    assert grid.structure_defect() < 1e-10
    assert_report_matches(report, json.loads((GOLDEN_DIR / "flow_m8.json").read_text()))


def test_grid_artifact_renders_like_nested_lists():
    grid = random_grid(3, 2, 4)
    payload = grid_payload(grid)
    nested = dict(payload, nodes=payload["nodes"].tolist())
    assert render_json(payload) == render_json(nested)
    odd = np.array([[-0.0, 5e-324, 1e300], [0.1, -2.5, 1.0]])
    assert render_json(odd) == render_json(odd.tolist())
    with pytest.raises(ValueError, match="non-finite"):
        render_json(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("shape", [(), (1,), (5,), (3, 4), (2, 3, 4), (2, 2, 3, 4)])
def test_float_arrays_render_like_each_float(shape):
    # the array branch formats a matrix at a time; the reference formats
    # each Python float on its own
    values = [-0.0, 5e-324, 1.7976931348623157e308, 2.0, 1 / 3]
    array = np.resize(np.array(values), shape)
    assert render_json(array) == render_json(array.tolist())


def test_reports_are_byte_identical(tmp_path, capsys):
    geo = {"type": "conformal", "n": 2, "f": "sin(x1)", "periodic": True}
    path = write_config(tmp_path, "conf.json", geometry_config(geo, count=2))
    _, first, _ = run(["inspect", "--config", path], capsys)
    _, second, _ = run(["inspect", "--config", path], capsys)
    assert first == second
    # every float is serialized so that parsing and re-rendering is stable
    assert render_json(json.loads(first)) == first.rstrip("\n")


def test_seed_override_moves_sample_points(tmp_path, capsys):
    path = write_config(
        tmp_path, "flat.json", geometry_config({"type": "flat", "n": 2}, count=2)
    )
    _, base, _ = run(["inspect", "--config", path], capsys)
    _, moved, _ = run(["inspect", "--config", path, "--seed", "9"], capsys)
    xs = json.loads(base)["points"][0]["x"]
    ys = json.loads(moved)["points"][0]["x"]
    assert np.abs(np.asarray(xs) - np.asarray(ys)).max() > 1e-3


GOLDEN_DIR = Path(__file__).parent / "golden"

# (golden file, command, geometry, count, seed, exit code)
CONF3 = {"type": "conformal", "n": 3, "f": "sin(x1)*cos(x2)", "periodic": True}
GOLDEN_RUNS = [
    ("inspect_s6.json", "inspect", {"type": "s6"}, 3, 1, 0),
    ("verify_hopf.json", "verify", {"type": "hopf", "n": 2}, 6, 1, 0),
    (
        "classify_conf.json",
        "classify",
        {"type": "conformal", "n": 2, "f": "sin(x1)", "periodic": True},
        3,
        1,
        0,
    ),
    # the parity configs: jet-kernel, per-point and conformal paths
    ("inspect_s6_8.json", "inspect", {"type": "s6"}, 8, 1, 0),
    ("verify_hopf_72.json", "verify", {"type": "hopf", "n": 2}, 72, 11, 0),
    ("classify_hopf_72.json", "classify", {"type": "hopf", "n": 2}, 72, 11, 0),
    ("verify_s6.json", "verify", {"type": "s6"}, 4, 3, 0),
    ("classify_s6.json", "classify", {"type": "s6"}, 5, 2, 0),
    ("inspect_conf3.json", "inspect", CONF3, 3, 2, 0),
    ("classify_conf3.json", "classify", CONF3, 3, 2, 0),
    (
        "verify_conf2_70.json",
        "verify",
        {"type": "conformal", "n": 2, "f": "sin(x1)", "periodic": True},
        70,
        1,
        0,
    ),
    ("inspect_flat1.json", "inspect", {"type": "flat", "n": 1}, 3, 0, 0),
    ("inspect_flat2.json", "inspect", {"type": "flat", "n": 2}, 3, 0, 0),
]


def assert_report_matches(got, want, where="report"):
    """Keys, strings, booleans and integers exactly; floats within
    1e-12 (1 + |golden|), so another LAPACK build still passes."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_report_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for idx, (a, b) in enumerate(zip(got, want)):
            assert_report_matches(a, b, f"{where}[{idx}]")
    elif isinstance(want, (bool, str)) or want is None:
        assert type(got) is type(want) and got == want, where
    elif isinstance(want, int) and isinstance(got, int) and not isinstance(got, bool):
        assert got == want, where
    else:
        # a float that renders as an integer (0.0 -> "0") parses as int
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (where, got, want)


@pytest.mark.parametrize("name,command,geometry,count,seed,code", GOLDEN_RUNS)
def test_reports_match_golden_files(tmp_path, capsys, name, command, geometry, count, seed, code):
    cfg = geometry_config(geometry, count=count, seed=seed, command=command)
    got_code, out, err = run([command, "--config", write_config(tmp_path, "cfg.json", cfg)], capsys)
    assert got_code == code, err
    want = json.loads((GOLDEN_DIR / name).read_text())
    assert_report_matches(json.loads(out), want)


# the edge sweep: conformal factors k*sin(x1) from a finite report to a
# metric whose jets overflow float64, every n, periodicity and seed
SWEEP = [
    (command, k, n, periodic, seed)
    for command in ("inspect", "verify", "classify")
    for k in (250, 350, 700, 709)
    for n in (1, 2, 3)
    for periodic in (False, True)
    for seed in range(6)
]
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def run_sweep():
    """Each sweep case as [command, k, n, periodic, seed, exit code, error
    text or None], run through ``main`` in this process."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        for command, k, n, periodic, seed in SWEEP:
            geo = {"type": "conformal", "n": n, "f": f"{k}*sin(x1)", "periodic": periodic}
            path.write_text(json.dumps(geometry_config(geo, count=3, seed=seed, command=command)))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path)])
            if code in (0, 1):
                assert err.getvalue() == "" and json.loads(out.getvalue())["schema"] == 1
                rows.append([command, k, n, periodic, seed, code, None])
            else:
                assert out.getvalue() == "" and err.getvalue().count("\n") == 1
                rows.append([command, k, n, periodic, seed, code, json.loads(err.getvalue())["error"]])
    return rows


def test_sin_sweep_matches_golden_file():
    want = json.loads((GOLDEN_DIR / "sin_sweep.json").read_text())
    got = run_sweep()
    assert len(got) == len(want) == 432
    for g, w in zip(got, want):
        # the exit code fixes whether there is an error text
        assert g[:6] == w[:6], (g, w)
        if w[6] is not None:
            # the text exactly, the point coordinates in it as report floats
            g_parts, w_parts = _NUMBER.split(g[6]), _NUMBER.split(w[6])
            assert g_parts[::2] == w_parts[::2], (g, w)
            assert_report_matches([float(v) for v in g_parts[1::2]], [float(v) for v in w_parts[1::2]], str(w[:5]))


if __name__ == "__main__":
    # writes the golden file from the code on the path:
    # PYTHONPATH=src python tests/test_cli.py
    rows = run_sweep()
    text = "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n"
    (GOLDEN_DIR / "sin_sweep.json").write_text(text)
