"""Tests for the harmonicity, identity, and classification diagnostics."""

import numpy as np
import pytest
from helpers import chart_change

from torsionflow import catalog, diagnostics
from torsionflow.catalog import (
    build_structure,
    conformal,
    flat_kahler,
    hopf_chart,
    s6_nearly_kahler,
    sample_points,
)
from torsionflow.diagnostics import (
    GH_LABELS,
    IDENTITY_NAMES,
    SECTION_NAMES,
    class_criteria,
    classify_gh,
    coderivative_xi,
    conformal_example_check,
    hermitian_harmonicity,
    identity_suite,
    nearly_kahler_suite,
    point_scale,
    run_diagnostics,
    section_residuals,
    star_ricci,
    w1w4_laplacian_residual,
)
from torsionflow.geometry import MIN_JET_DEGREE, GeometryError, cov_derivative_jets, rough_laplacian_jets
from torsionflow.jets import JetField
from torsionflow.unstruct import StructureJets, random_curved_structure, random_structure

TOL = 1e-7


def catalog_cases():
    return [
        (flat_kahler(2), 2),
        (conformal(2, "sin(x1)", periodic=True), 2),
        (hopf_chart(2), 2),
        (s6_nearly_kahler(), 2),
    ]


def random_cases():
    cases = []
    rng = np.random.default_rng(20240817)
    for seed, n in [(5, 2), (9, 2), (13, 3)]:
        cases.append((random_structure(seed, n), rng.uniform(-np.pi, np.pi, (2, 2 * n))))
    for seed, n in [(3, 2), (21, 2)]:
        cases.append(
            (random_curved_structure(seed, n), rng.uniform(-np.pi, np.pi, (2, 2 * n)))
        )
    return cases


def test_flat_kahler_everything_vanishes():
    structure = build_structure(flat_kahler(2))
    rng = np.random.default_rng(0)
    for _ in range(3):
        p = rng.uniform(-1.5, 1.5, 4)
        for val in section_residuals(structure, p).values():
            assert val <= 1e-14
        for val in identity_suite(structure, p).values():
            assert val <= 1e-14
        for val in hermitian_harmonicity(structure, p).values():
            assert val <= 1e-14


def test_one_complex_dimension_is_trivially_integrable():
    structure = build_structure(flat_kahler(1))
    p = np.array([0.3, -0.7])
    assert all(v <= 1e-14 for v in section_residuals(structure, p).values())
    assert all(v <= 1e-14 for v in identity_suite(structure, p).values())


def test_catalog_expected_residual_patterns():
    for spec, count in catalog_cases():
        structure = build_structure(spec)
        for p in sample_points(spec, count, seed=7):
            res = section_residuals(structure, p)
            scale = point_scale(structure, p)
            for name in spec.metadata["expected_zero"]:
                assert res[name] <= 1e-8 * scale, (spec.name, name, res[name])
            for name in spec.metadata["expected_nonzero"]:
                assert res[name] > 1e-3, (spec.name, name, res[name])


def test_harmonicity_verdicts_never_mix():
    # The coderivative of the intrinsic torsion, the three commutator
    # style conditions, and the two torsion-trace defects must agree on
    # whether a structure is harmonic at a point.
    harmonic_seen = nonharmonic_seen = 0
    cases = [
        (build_structure(spec), sample_points(spec, count, seed=5))
        for spec, count in catalog_cases()
    ]
    cases += [(s, pts) for s, pts in random_cases()]
    for structure, pts in cases:
        for p in pts:
            res = section_residuals(structure, p)
            herm = hermitian_harmonicity(structure, p)
            scale = point_scale(structure, p)
            a = res["harmonic"] < TOL * scale
            b = max(herm.values()) < TOL * scale
            c = max(res["torsion_iv_a"], res["torsion_iv_b"]) < TOL * scale
            assert a == b == c, (res["harmonic"], herm, res["torsion_iv_b"])
            harmonic_seen += a
            nonharmonic_seen += not a
    assert harmonic_seen >= 8
    assert nonharmonic_seen >= 8


def test_identity_battery_on_random_structures():
    for structure, pts in random_cases():
        for p in pts:
            scale = point_scale(structure, p)
            for name, val in identity_suite(structure, p).items():
                assert val <= 1e-7 * scale, (name, val)


def test_lck_surface_laplacian_relations():
    # On a conformally flat 4-manifold the form Laplacian is collinear
    # with omega: Lap omega = 2 |theta|^2 omega for theta = J d*omega / 2,
    # theta is minus the Lee form, and |grad omega|^2 = 8 |theta|^2.
    spec = conformal(2, "sin(x1)", periodic=True)
    structure = build_structure(spec)
    for p in sample_points(spec, 3, seed=2):
        sj = structure.structure_jets(p)
        fp = sj.framepack
        jf = sj.j_frame
        nom = fp.to_frame(sj.nabla_omega.value, "ddd")
        dstar_om = -np.einsum("ixi->x", nom)
        theta = -0.5 * np.einsum("k,kx->x", dstar_om, jf)
        np.testing.assert_allclose(theta, -sj.lee_frame, atol=1e-12)
        np.testing.assert_allclose(dstar_om, 2.0 * jf @ sj.lee_frame, atol=1e-12)
        lap = fp.to_frame(
            rough_laplacian_jets(cov_derivative_jets(sj.omega, "dd", sj.gamma), "dd", sj.gamma, sj.ginv).value, "dd"
        )
        tsq = float(theta @ theta)
        np.testing.assert_allclose(lap, 2.0 * tsq * jf, atol=1e-12)
        assert abs(np.sum(nom**2) / 16.0 - 0.5 * tsq) <= 1e-12


def test_nearly_kahler_six_sphere_suite():
    spec = s6_nearly_kahler()
    structure = build_structure(spec)
    for p in sample_points(spec, 2, seed=3):
        nk = nearly_kahler_suite(structure, p)
        assert nk["applicable"]
        for name in ("ecxy", "ecjxjy", "ecxyzw", "minimal_parallel", "curvature_skew"):
            assert nk[name] <= 1e-10, (name, nk[name])
        assert nk["laplacian_collinear"] <= 1e-10
        assert nk["flatness"] > 1.0
        assert nk["flat_implies_kahler"]
        assert abs(nk["psi_norm_sq"] - 144.0) <= 1e-4 * 144.0
        assert abs(nk["psi_norm_sq_plain"] - 6.0) <= 1e-10
        assert abs(nk["einstein_alpha"] - 1.0) <= 1e-10
        assert abs(nk["xi_norm"] - np.sqrt(6.0)) <= 1e-10


def test_nearly_kahler_suite_refuses_w4_geometry():
    spec = conformal(2, "sin(x1)", periodic=True)
    structure = build_structure(spec)
    p = sample_points(spec, 1, seed=1)[0]
    nk = nearly_kahler_suite(structure, p)
    assert not nk["applicable"]
    assert nk["reason"]


def test_six_sphere_class_criteria():
    spec = s6_nearly_kahler()
    structure = build_structure(spec)
    p = sample_points(spec, 1, seed=5)[0]
    scale = point_scale(structure, p)
    for label in ("W1+W2", "W1+W4", "W1+W2-map"):
        rec = class_criteria(structure, p, label)
        assert rec["applicable"], label
        assert rec["criterion"] <= 1e-8 * scale, (label, rec["criterion"])
        assert rec["harmonic"] <= 1e-8 * scale
    for label in ("W2+W4", "W3+W4"):
        rec = class_criteria(structure, p, label)
        assert not rec["applicable"]
        assert "W1" in rec["reason"]
    lap = w1w4_laplacian_residual(structure, p)
    assert lap["applicable"]
    assert lap["residual"] <= 1e-7 * scale


def test_conformal_class_criteria():
    spec = conformal(2, "sin(x1)", periodic=True)
    structure = build_structure(spec)
    p = np.array([0.7, 0.1, 0.3, -0.2])
    scale = point_scale(structure, p)
    for label in ("W2+W4", "W3+W4"):
        rec = class_criteria(structure, p, label)
        assert rec["applicable"], label
        assert rec["criterion"] <= 1e-10 * scale
        assert rec["harmonic"] <= 1e-10 * scale
    rec = class_criteria(structure, p, "W1+W2")
    assert not rec["applicable"]
    assert "W4" in rec["reason"]
    rec = class_criteria(structure, p, "W1+W4")
    assert not rec["applicable"]
    assert "n = 2" in rec["reason"]
    lap = w1w4_laplacian_residual(structure, p)
    assert not lap["applicable"]


def test_class_criteria_rejects_unknown_label():
    structure = build_structure(flat_kahler(2))
    with pytest.raises(ValueError):
        class_criteria(structure, np.zeros(4), "W5")


def test_conformal_one_form_closed_form_at_reference_point():
    p = np.array([0.7, 0.1, 0.3, -0.2])
    rec = conformal_example_check(2, "sin(x1)", p)
    expected = np.exp(-np.sin(0.7)) * np.sin(0.7) * np.cos(0.7) / 8.0
    assert abs(rec["numeric"][0] - expected) <= 1e-7 * abs(expected)
    assert np.abs(rec["numeric"][1:]).max() <= 1e-12
    assert rec["residual"] <= 1e-10
    np.testing.assert_allclose(rec["numeric_raw"], 4.0 * rec["numeric"], atol=1e-15)


def test_conformal_one_form_vanishes_for_flat_factors():
    p = np.array([0.9, 0.2, -0.3, 0.4])
    rec = conformal_example_check(2, "1.5", p)
    assert np.abs(rec["numeric"]).max() <= 1e-14
    assert np.abs(rec["closed_form"]).max() <= 1e-14
    # The chart factor of a compatible fibration is harmonic as a map,
    # so both sides vanish despite a nonconstant f.
    rec = conformal_example_check(2, "-log(x1^2 + x2^2 + x3^2 + x4^2)", p)
    assert np.abs(rec["numeric"]).max() <= 1e-12 * rec["scale"]
    assert np.abs(rec["closed_form"]).max() <= 1e-12 * rec["scale"]


def test_conformal_one_form_matches_numeric_pairing_generically():
    rng = np.random.default_rng(4)
    for f_src, n in [("sin(x1)*cos(x2)", 2), ("sin(x1) + 0.5*cos(x3)", 3)]:
        for _ in range(2):
            p = rng.uniform(-1.2, 1.2, 2 * n)
            rec = conformal_example_check(n, f_src, p)
            assert rec["residual"] <= 1e-9 * rec["scale"], (f_src, rec["residual"])


def test_residuals_are_chart_invariant():
    """Every column, route, scale and component norm is a norm of a
    tensor, so a pullback by x = A x' + b leaves it within 1e-12 * scale.
    The pullback makes every catalog metric non-diagonal and moves the
    point, the Christoffel symbols and the Cholesky frame."""
    rng = np.random.default_rng(11)
    specs = (
        flat_kahler(2),
        conformal(2, "sin(x1)*cos(x2)", periodic=True),
        conformal(3, "sin(x1)*cos(x2)", periodic=True),
        hopf_chart(2),
        s6_nearly_kahler(),
    )
    cases = [(build_structure(spec), sample_points(spec, 4, seed=5)) for spec in specs]
    cases.append((random_curved_structure(21, 2), rng.uniform(-np.pi, np.pi, (4, 4))))
    for structure, pts in cases:
        ref = run_diagnostics(structure, pts)
        got = run_diagnostics(*chart_change(structure, pts, rng))
        assert list(got.columns) == list(ref.columns)
        gap = np.abs(_report_table(got) - _report_table(ref))
        assert np.all(gap <= 1e-12 * ref.scale[:, None]), structure.name


def test_star_ricci_record_invariants():
    structure = random_curved_structure(5, 2)
    p = np.array([0.3, -0.2, 0.15, 0.4])
    rec = star_ricci(structure, p)
    sj = structure.structure_jets(p)
    jf = sj.j_frame
    scale = point_scale(structure, p)
    assert rec.route_gap <= 1e-9 * scale
    ric_frame = sj.framepack.to_frame(rec.ric_star, "dd")
    np.testing.assert_allclose(rec.sym + rec.alt, ric_frame, atol=1e-13)
    twisted = np.einsum("ax,by,ab->xy", jf, jf, ric_frame)
    np.testing.assert_allclose(twisted, ric_frame.T, atol=1e-12)
    np.testing.assert_allclose(
        np.einsum("ax,by,ab->xy", jf, jf, rec.sym), rec.sym, atol=1e-12
    )
    np.testing.assert_allclose(
        np.einsum("ax,by,ab->xy", jf, jf, rec.alt), -rec.alt, atol=1e-12
    )
    assert abs(rec.s_star - np.trace(rec.sym)) <= 1e-12
    assert np.linalg.norm(rec.alt) > 1e-3
    assert rec.ric_star.shape == (4, 4)


def test_star_ricci_on_six_sphere_equals_metric():
    spec = s6_nearly_kahler()
    structure = build_structure(spec)
    p = sample_points(spec, 1, seed=2)[0]
    rec = star_ricci(structure, p)
    np.testing.assert_allclose(rec.sym, np.eye(6), atol=1e-12)
    assert np.abs(rec.alt).max() <= 1e-12
    assert abs(rec.s_star - 6.0) <= 1e-12


def test_coderivative_xi_record():
    spec = hopf_chart(2)
    structure = build_structure(spec)
    p = sample_points(spec, 1, seed=9)[0]
    rec = coderivative_xi(structure, p)
    scale = point_scale(structure, p)
    assert rec.norm <= 1e-12 * scale
    assert rec.route_gap <= 1e-10 * scale
    assert rec.uperp_defect <= 1e-10 * scale
    assert rec.value.shape == (4, 4)

    structure = random_curved_structure(3, 2)
    p = np.array([0.4, -0.6, 0.2, 0.1])
    rec = coderivative_xi(structure, p)
    scale = point_scale(structure, p)
    assert rec.norm > 1e-3
    assert rec.uperp_defect <= 1e-10 * scale


def test_skew_torsion_harmonicity_implies_harmonic_map():
    spec = s6_nearly_kahler()
    structure = build_structure(spec)
    for p in sample_points(spec, 2, seed=8):
        sj = structure.structure_jets(p)
        psi = sj.xi_frame
        # Totally skew intrinsic torsion.
        assert np.abs(psi + psi.transpose((0, 2, 1))).max() <= 1e-12
        assert np.abs(psi + psi.transpose((2, 1, 0))).max() <= 1e-12
        res = section_residuals(structure, p)
        scale = point_scale(structure, p)
        assert res["harmonic"] <= TOL * scale
        assert res["harmonic_map"] <= TOL * scale


def test_classify_gh_labels():
    spec = conformal(2, "sin(x1)", periodic=True)
    rec = classify_gh(build_structure(spec), sample_points(spec, 3, seed=11))
    assert rec["label"] == "W4"
    assert rec["component_norms"]["W4"] > 0.1
    for name in ("W1", "W2", "W3"):
        assert rec["component_norms"][name] <= 1e-12

    spec = s6_nearly_kahler()
    rec = classify_gh(build_structure(spec), sample_points(spec, 2, seed=11))
    assert rec["label"] == "W1"

    spec = hopf_chart(2)
    rec = classify_gh(build_structure(spec), sample_points(spec, 2, seed=11))
    assert rec["label"] == "W4"

    structure = random_structure(7, 2, amplitude=0.0)
    rec = classify_gh(structure, [np.array([0.2, -0.1, 0.4, 0.3])])
    assert rec["label"] == "Kahler"
    assert set(rec["component_norms"]) == set(GH_LABELS)


def test_classify_and_scale_never_build_nabla_xi(monkeypatch):
    def forbidden(sj):
        pytest.fail("nabla xi was built")

    monkeypatch.setattr(StructureJets, "nabla_xi", property(forbidden))
    spec = hopf_chart(2)
    structure = build_structure(spec)
    pts = sample_points(spec, diagnostics._chunk_size(structure) + 1, seed=2)
    assert classify_gh(structure, pts)["label"] == "W4"
    assert point_scale(structure, pts[0]) > 1.0


def test_one_evaluation_per_point_and_no_hidden_memo(monkeypatch):
    """Each point evaluates g and J in one call; only the StructureJets a
    caller holds remembers a point's jets.  An evaluator call takes a
    block of points, so the counter counts the points evaluated.  Each s6
    chunk builds its graph chart once."""
    charts = []
    graph = catalog._s6_graph
    monkeypatch.setattr(catalog, "_s6_graph", lambda p, degree: charts.append(p) or graph(p, degree))
    for spec in (hopf_chart(2), s6_nearly_kahler()):
        structure = build_structure(spec)
        calls = {"evaluate": 0}

        def counted(evaluator):
            def wrapped(p):
                calls["evaluate"] += len(np.atleast_2d(p))
                return evaluator(p)

            return wrapped

        structure.evaluate = counted(structure.evaluate)
        pts = sample_points(spec, 3, seed=5)
        charts.clear()
        run_diagnostics(structure, pts, tol=1e-6)
        assert calls == {"evaluate": 3}, spec.name
        chunks = -(-len(pts) // diagnostics._chunk_size(structure))
        assert len(charts) == (chunks if spec.name == "s6" else 0), spec.name
        classify_gh(structure, pts)
        assert calls == {"evaluate": 6}, spec.name

        first = structure.structure_jets(pts[0])
        second = structure.structure_jets(pts[0])
        assert first is not second
        assert first.g is not second.g
        assert calls["evaluate"] == 8


def test_errors_name_the_first_failing_point_in_point_order():
    """Both points share a chunk.  The second fails the metric check, which
    runs first on the chunk; the error is still the one the first point
    raises on its own, where its torsion jets overflow."""
    structure = build_structure(conformal(2, "-745*sin(x1)"))
    pts = [[1.3, 0.0, 0.0, 0.0], [-1.3, 0.0, 0.0, 0.0]]
    with np.errstate(all="ignore"):
        for run in (run_diagnostics, classify_gh):
            with pytest.raises(GeometryError, match=r"torsion jets overflow float64 at point \(1.3, 0, 0, 0\)"):
                run(structure, pts)


def test_no_points_is_an_error():
    structure = build_structure(flat_kahler(2))
    for run in (run_diagnostics, classify_gh):
        with pytest.raises(ValueError, match="diagnostics need at least one point"):
            run(structure, np.zeros((0, 4)))


def test_run_diagnostics_report_shape():
    spec = conformal(2, "sin(x1)", periodic=True)
    structure = build_structure(spec)
    pts = sample_points(spec, 3, seed=11)
    report = run_diagnostics(structure, pts, tol=1e-6)
    assert report.geometry == "conformal"
    assert len(report.residuals) == 3
    assert len(report.scales) == 3
    assert report.scale.shape == (3,)
    assert report.component_norms.shape == (3, 4)
    for values in (*report.columns.values(), *report.routes.values()):
        assert values.shape == (3,)
    assert list(report.routes) == list(diagnostics.ROUTE_NAMES)
    assert list(report.columns) == list(report.max_residuals)
    for i, (row, scale) in enumerate(zip(report.residuals, report.scales)):
        assert row == {name: values[i] for name, values in report.columns.items()}
        assert scale == report.scale[i]
    names = set(report.residuals[0])
    assert set(SECTION_NAMES) <= names
    assert set(IDENTITY_NAMES) <= names
    assert {"comm_JLapJ", "herm_defect", "cond_iv", "star_ricci_alt_norm"} <= names
    assert set(report.passes) == names
    assert report.passes["harmonic"]
    assert report.passes["torsion_iv_b"]
    assert not report.passes["flatness"]
    assert report.metadata == {"jet_degree": 3, "sign_audit": "paper-convention"}


def test_default_jet_degree_matches_degree_four():
    """The default jet degree carries every order the diagnostics read:
    each column equals a degree-4 build of the same geometry, bit for bit
    on the catalog and to 1e-14 * scale on random structures."""
    rng = np.random.default_rng(7)
    catalog = [
        (s6_nearly_kahler(), s6_nearly_kahler(degree=4)),
        (
            conformal(3, "sin(x1)*cos(x2)", periodic=True),
            conformal(3, "sin(x1)*cos(x2)", periodic=True, degree=4),
        ),
        (hopf_chart(2), hopf_chart(2, degree=4)),
    ]
    cases = [
        (build_structure(low), build_structure(high), sample_points(low, 2, seed=3), True)
        for low, high in catalog
    ]
    for factory, seed, n in [(random_structure, 13, 3), (random_curved_structure, 21, 2)]:
        pts = rng.uniform(-np.pi, np.pi, (2, 2 * n))
        cases.append((factory(seed, n), factory(seed, n, degree=4), pts, False))
    for low, high, pts, exact in cases:
        got = run_diagnostics(low, pts)
        ref = run_diagnostics(high, pts)
        assert got.metadata["jet_degree"] == MIN_JET_DEGREE
        assert ref.metadata["jet_degree"] == 4
        assert list(got.columns) == list(ref.columns)
        assert list(got.routes) == list(ref.routes)
        a, b = _report_table(got), _report_table(ref)
        if exact:
            assert np.array_equal(a, b), low.name
        else:
            assert np.all(np.abs(a - b) <= 1e-14 * ref.scale[:, None]), low.name


def _report_table(report) -> np.ndarray:
    """Per point: the scale, every column, every route and the four
    component norms."""
    return np.column_stack([report.scale, *report.columns.values(), *report.routes.values(), report.component_norms])


@pytest.mark.parametrize("charted", [False, True])
def test_chunks_match_chunks_of_one(monkeypatch, charted):
    """run_diagnostics and classify_gh on chunk + 1 points, in the default
    chunks and in one chunk, give the chunk-of-one columns to
    1e-14 * scale, and the same labels and passes; also after a chart
    change."""
    rng = np.random.default_rng(29)
    cases = []
    specs = (
        flat_kahler(2),
        conformal(2, "sin(x1)*cos(x2)", periodic=True),
        conformal(3, "sin(x1)*cos(x2)", periodic=True),
        hopf_chart(2),
        s6_nearly_kahler(),
    )
    for spec in specs:
        structure = build_structure(spec)
        if structure.dim == 6:
            # else the default chunks would be the chunks of one
            assert diagnostics._chunk_size(structure) > 1, spec.name
        cases.append((structure, sample_points(spec, diagnostics._chunk_size(structure) + 1, seed=4)))
    curved = random_curved_structure(21, 2)
    cases.append((curved, rng.uniform(-np.pi, np.pi, (diagnostics._chunk_size(curved) + 1, 4))))

    for structure, pts in cases:
        if charted:
            structure, pts = chart_change(structure, pts, rng)
        runs = {}
        for entries in (1, diagnostics.CHUNK_ENTRIES, 2**40):
            monkeypatch.setattr(diagnostics, "CHUNK_ENTRIES", entries)
            runs[entries] = (run_diagnostics(structure, pts), classify_gh(structure, pts))
        ref, ref_class = runs.pop(1)
        for got, got_class in runs.values():
            assert got.passes == ref.passes, structure.name
            assert got_class["label"] == ref_class["label"], structure.name
            top = max(ref.scales)
            for name, value in ref_class["component_norms"].items():
                assert abs(got_class["component_norms"][name] - value) <= 1e-14 * top
            assert list(got.columns) == list(ref.columns)
            gap = np.abs(_report_table(got) - _report_table(ref))
            assert np.all(gap <= 1e-14 * ref.scale[:, None]), structure.name


def _held_bytes(obj, buffers: dict) -> None:
    """The distinct buffers of the arrays and jet fields ``obj`` holds,
    through containers and object attributes, but not its structure."""
    if isinstance(obj, JetField):
        obj = obj.data
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        buffers[id(obj)] = obj.nbytes
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _held_bytes(item, buffers)
    elif isinstance(obj, dict):
        for item in obj.values():
            _held_bytes(item, buffers)
    elif hasattr(obj, "__dict__"):
        for name, item in vars(obj).items():
            if name != "structure":
                _held_bytes(item, buffers)


def test_chunk_memo_is_bounded():
    """A default chunk of every catalog geometry holds below 3 MB of
    arrays once its columns are built, the bound that the CHUNK_ENTRIES
    comment states."""
    specs = [flat_kahler(n) for n in (1, 2, 3, 4)]
    specs += [conformal(n, "sin(x1)*cos(x2)", periodic=True) for n in (2, 3)]
    specs += [hopf_chart(n) for n in (2, 3, 4)] + [s6_nearly_kahler()]
    for spec in specs:
        structure = build_structure(spec)
        pts = sample_points(spec, diagnostics._chunk_size(structure), seed=1)
        pd = diagnostics._PointData(structure, pts)
        diagnostics._point_columns(pd)
        buffers: dict = {}
        _held_bytes(pd, buffers)
        assert sum(buffers.values()) < 3e6, (spec.name, structure.dim)


def test_chunk_peak_is_bounded():
    """Building the columns of one default chunk of hopf n=2, s6 and flat
    n=1 allocates at most 3.75 MB at once, the peak bound that the
    CHUNK_ENTRIES comment states."""
    import tracemalloc

    for spec in (hopf_chart(2), s6_nearly_kahler(), flat_kahler(1)):
        structure = build_structure(spec)
        pts = sample_points(spec, diagnostics._chunk_size(structure), seed=1)
        # the jet space's tables are built once per process, not per chunk
        diagnostics._point_columns(diagnostics._PointData(structure, pts[:1]))
        tracemalloc.start()
        try:
            diagnostics._point_columns(diagnostics._PointData(structure, pts))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.75e6, (spec.name, structure.dim, peak)
