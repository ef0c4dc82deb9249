"""Traced in-process run of one workload, with spans taken from outside.

    python3 perfbench/traced.py WORKLOAD SEED WORKDIR DEGREE

Runs in a fresh process after the untraced run of the same seed, whose
report it re-renders and checks its own results against.  Inside the
``wall`` span it calls each module's public functions in the order the
CLI would, on a fresh structure and fresh points; the remaining layer
probes run after it, so ``wall`` stays comparable with the untraced
wall time.  Spans (name, parent, start, end) are kept in memory and
printed with the per-layer metrics as one JSON object.
"""

import contextlib
import json
import sys
import time
from pathlib import Path

import workloads

# StructureJets properties forced on each fresh point, grouped by layer,
# in the order the diagnostics suites read them.  run_diagnostics needs
# every one of them, so forcing them first adds no work.
LAYERS = (
    ("geometry.metric", ("g", "ginv", "gamma")),
    ("geometry.curvature", ("curv",)),
    ("unstruct.J", ("J",)),
    ("unstruct.xi", ("xi",)),
    ("unstruct.nabla_xi", ("nabla_xi",)),
    ("unstruct.gh_fields", ("gh_fields",)),
    ("unstruct.frame", ("framepack", "j_frame", "xi_frame", "gh_frame", "lee_frame")),
    ("unstruct.minimal_check", ("minimal_connection_validated",)),
)
SUITE_POINTS = 4  # last points of the set, still in the structure cache
EINSUM_REPS = 20
FLOW_PROBE_REPS = 5
ROUNDOFF = 1e-12  # agreement with the untraced report, relative to scale

# per-layer metric -> span whose mean self time it reports, in ms or us
SPAN_METRICS = {
    "jets.space_build_ms": "jets.space_build",
    "catalog.build_ms": "catalog.build",
    "catalog.sample_ms": "catalog.sample",
    "exprlang.eval_ms_per_point": "exprlang.eval",
    **{f"{layer}_ms": layer for layer, _ in LAYERS},
    "diagnostics.run_ms_per_point": "diagnostics.run",
    "diagnostics.section_ms": "diagnostics.section",
    "diagnostics.hermitian_ms": "diagnostics.hermitian",
    "diagnostics.identity_ms": "diagnostics.identity",
    "diagnostics.star_ricci_ms": "diagnostics.star_ricci",
    "diagnostics.coderivative_ms": "diagnostics.coderivative",
    "diagnostics.classify_ms": "diagnostics.classify",
    "diagnostics.verify_requery_ms_per_point": "diagnostics.verify_requery",
    "flow.energy_ms": "flow.energy",
    "flow.gradient_ms": "flow.gradient",
    "flow.reproject_ms": "flow.reproject",
    "flow.calibrate_ms": "flow.calibrate",
    "flow.grid_ms": "flow.grid",
    "cli.render_ms": "cli.render",
    "cli.artifact_ms": "cli.artifact",
}
PAIR_DEGREES = range(5)
EINSUM_DEGREES = range(4)
SPAN_METRICS.update({f"jets.einsum_us.d{d}": f"jets.einsum.d{d}" for d in EINSUM_DEGREES})


class Spans:
    """Spans recorded in memory as [name, parent index, start ns, end ns]."""

    def __init__(self):
        self.records: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        index = len(self.records)
        parent = self._open[-1] if self._open else None
        self.records.append([name, parent, time.perf_counter_ns(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.records[index][3] = time.perf_counter_ns()

    def mean_self_ms(self) -> dict[str, float]:
        """Per span name: duration minus child spans, averaged over calls."""
        child_ns = [0] * len(self.records)
        for name, parent, start, end in self.records:
            if parent is not None:
                child_ns[parent] += end - start
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        for (name, _, start, end), inner in zip(self.records, child_ns):
            total[name] = total.get(name, 0.0) + (end - start - inner) / 1e6
            count[name] = count.get(name, 0) + 1
        return {name: total[name] / count[name] for name in total}

    def duration_s(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.records if n == name) / 1e9


def _force(sj, attrs) -> None:
    for attr in attrs:
        getattr(sj, attr)


def _requery(span, diag, structure, pts) -> list[tuple]:
    """verify's second pass over the points, as the CLI makes it."""
    out = []
    for p in pts:
        with span("diagnostics.verify_requery"):
            out.append((diag.coderivative_xi(structure, p), diag.star_ricci(structure, p)))
    return out


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= ROUNDOFF * scale


def _check_inspect(report, rows, scales, labels, problems) -> None:
    for i, (row, scale, label) in enumerate(zip(rows, scales, labels)):
        expected = report["points"][i]
        if label != expected["class"]:
            problems.append(f"point {i}: class {label} != report {expected['class']}")
        if row.keys() != expected["residuals"].keys() or not all(
            _close(row[k], expected["residuals"][k], scale) for k in row
        ):
            problems.append(f"point {i}: residuals differ from the report")


def _check_verify(report, rows, scales, requeried, problems) -> None:
    tol = report["summary"]["tol"]
    values = {}
    for key in rows[0]:
        values[f"identity:{key}"] = max(r[key] / s for r, s in zip(rows, scales))
    coupled = report["summary"]["coupled_residuals"]
    mixed = sum(
        any((r[k] < tol * s) != (r["harmonic"] < tol * s) for k in coupled)
        for r, s in zip(rows, scales)
    )
    values["harmonicity_coupling"] = float(mixed)
    values["coderivative_route_gap"] = max(c.route_gap / s for (c, _), s in zip(requeried, scales))
    values["coderivative_uperp_defect"] = max(c.uperp_defect / s for (c, _), s in zip(requeried, scales))
    values["star_ricci_route_gap"] = max(r.route_gap / s for (_, r), s in zip(requeried, scales))
    for check in report["checks"]:
        if check["name"] not in values or not _close(values[check["name"]], check["value"]):
            problems.append(f"check {check['name']} differs from the report")


def trace_diagnostics(span, name, seed, degree, report, problems) -> dict:
    from torsionflow import catalog
    from torsionflow import diagnostics as diag
    from torsionflow.cli import render_json
    from torsionflow.exprlang import eval_expr
    from torsionflow.jets import jet_einsum, jet_space

    cfg = workloads.config(name, seed)
    is_inspect = cfg["command"] == "inspect"
    tol = report["summary"]["tol"]
    rows, scales, labels = [], [], []
    all_attrs = {a for _, attrs in LAYERS for a in attrs}

    with span("wall"):
        with span("catalog.build"):
            spec = catalog.spec_from_config(cfg["geometry"])
            structure = catalog.build_structure(spec)
        with span("catalog.sample"):
            pts = catalog.sample_points(spec, cfg["points"]["count"], seed)
        for p in pts:
            sj = structure.structure_jets(p)
            if all_attrs & vars(sj).keys():
                problems.append("a traced point was already filled")
            for layer, attrs in LAYERS:
                with span(layer):
                    _force(sj, attrs)
            with span("diagnostics.run"):
                one = diag.run_diagnostics(structure, [p], tol=tol)
            rows.append(one.residuals[0])
            scales.append(one.scales[0])
        if is_inspect:
            for p in pts:
                with span("diagnostics.classify"):
                    labels.append(diag.classify_gh(structure, [p], tol)["label"])
        else:
            requeried = _requery(span, diag, structure, pts)
        with span("cli.render"):
            text = render_json(report)

    # probes, outside the wall
    if is_inspect:
        _check_inspect(report, rows, scales, labels, problems)
        _requery(span, diag, structure, pts)
    else:
        _check_verify(report, rows, scales, requeried, problems)
    suites = (
        ("diagnostics.section", diag.section_residuals),
        ("diagnostics.hermitian", diag.hermitian_harmonicity),
        ("diagnostics.identity", diag.identity_suite),
        ("diagnostics.star_ricci", diag.star_ricci),
        ("diagnostics.coderivative", diag.coderivative_xi),
    )
    if not is_inspect:
        suites += (("diagnostics.classify", lambda s, p: diag.classify_gh(s, [p], tol)),)
    for p in pts[-SUITE_POINTS:]:
        _force(structure.structure_jets(p), all_attrs)
        for layer, suite in suites:
            with span(layer):
                suite(structure, p)
    gamma = structure.structure_jets(pts[-1]).gamma
    for d in EINSUM_DEGREES:
        if d <= gamma.deg:
            g_d = gamma.truncate(d)
            for _ in range(EINSUM_REPS):
                with span(f"jets.einsum.d{d}"):
                    jet_einsum("lim,mjk->lijk", g_d, g_d)
    if spec.conformal_factor is not None:
        for p in pts:
            with span("exprlang.eval"):
                eval_expr(spec.conformal_factor, p, spec.dim, spec.degree)

    space = jet_space(spec.dim, degree)
    metrics = {
        f"jets.pairs.d{d}": len(space.table(d)[0]) if d <= degree else 0 for d in PAIR_DEGREES
    }
    metrics["cli.report_bytes"] = len(text.encode())
    return metrics


def trace_flow(span, name, seed, work, report, problems) -> dict:
    from torsionflow import flow
    from torsionflow.cli import render_json

    section = workloads.config(name, seed)["flow"]
    with span("wall"):
        with span("flow.grid"):
            grid = flow.random_grid(seed, section["n"], section["m"], section["amplitude"])
        with span("flow.energy"):
            flow.energy(grid)
        with span("flow.gradient"):
            initial_grad = flow.l2_norm(grid, flow.gradient(grid))
        if initial_grad > 1e-10:
            with span("flow.calibrate"):
                flow.calibrate_sign(grid)
        with span("flow.descend"):
            result = flow.descend(grid, tol_grad=section["tol_grad"])
        with span("cli.artifact"):
            flow.write_trace_csv(result.trace, work / "traced.trace.csv")
            (work / "traced.grid.json").write_text(
                render_json(flow.grid_payload(result.grid)) + "\n"
            )
        with span("cli.render"):
            text = render_json(report)
            (work / "traced.json").write_text(text + "\n")

    for _ in range(FLOW_PROBE_REPS):
        with span("flow.energy"):
            flow.energy(result.grid)
        with span("flow.gradient"):
            flow.gradient(result.grid)
        with span("flow.reproject"):
            result.grid.reprojected()

    iterations = len(result.trace) - 1
    energies = [row.energy for row in result.trace]
    if not (result.converged and all(b <= a for a, b in zip(energies, energies[1:]))):
        problems.append("traced descent did not converge monotonically")
    if iterations != report["iterations"] or energies[-1] != report["final_energy"]:
        problems.append("traced descent differs from the untraced report")
    artifact = (work / "traced.grid.json").read_bytes()
    if artifact != (work / "run.grid.json").read_bytes():
        problems.append("traced grid artifact differs from the untraced one")

    return {
        "flow.iterations": iterations,
        "flow.armijo_trials": workloads.armijo_trials(row.step for row in result.trace),
        "flow.ms_per_iter": 1e3 * span.duration_s("flow.descend") / iterations,
        "cli.report_bytes": len(text.encode()),
        "cli.artifact_bytes": len(artifact),
    }


def main() -> None:
    name, seed, work, degree = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4])
    report = json.loads((work / "report.json").read_text())
    span = Spans()
    problems: list[str] = []
    with span("setup"):
        import torsionflow.cli  # noqa: F401

        if not workloads.is_flow(name):
            from torsionflow.jets import jet_space

            with span("jets.space_build"):
                jet_space(workloads.dim(name), degree)
    if workloads.is_flow(name):
        metrics = trace_flow(span, name, seed, work, report, problems)
    else:
        metrics = trace_diagnostics(span, name, seed, degree, report, problems)
    means = span.mean_self_ms()
    for metric, span_name in SPAN_METRICS.items():
        if span_name in means:
            metrics[metric] = means[span_name] * (1e3 if "_us" in metric else 1.0)
    metrics["trace.wall_s"] = span.duration_s("wall")
    print(json.dumps({"metrics": metrics, "problems": problems, "spans": span.records}))


if __name__ == "__main__":
    main()
