import numpy as np
import pytest
from helpers import chart_change, conformal_metric_field, gh_norms, trig_scalar

from torsionflow.geometry import GeometryError, curvature_jets
from torsionflow.jets import JetField, jet_space
from torsionflow.tensor import permute
from torsionflow.unstruct import (
    AlmostHermitianStructure,
    InternalConventionError,
    StructureJets,
    minimal_derivative_jets,
    random_curved_structure,
    random_structure,
    standard_j,
)


def flat_kahler(n):
    """Its evaluator, like conformal_structure's, returns degree-4 jets
    whatever degree is asked for."""
    m = 2 * n

    def evaluate(p, _):
        space = jet_space(m, 4)
        return JetField.constants(space, np.eye(m)), JetField.constants(space, standard_j(n))

    return AlmostHermitianStructure(m, evaluate)


def conformal_structure(n, f_of_x):
    m = 2 * n
    metric = conformal_metric_field(m, f_of_x)

    def evaluate(p, _):
        return metric(p), JetField.constants(jet_space(m, 4), standard_j(n))

    return AlmostHermitianStructure(m, evaluate)


def f_example(space, p):
    return trig_scalar(space, p, [1.0, 0.0, 2.0, 0.0, -1.0, 0.0][: space.dim], 0.4, 0.6)


def test_flat_kahler_form_sign():
    s = flat_kahler(2)
    omega = s.structure_jets(np.zeros(4)).omega.value
    # omega(X, Y) = <X, JY> with J e1 = e2 makes omega(e1, e2) = -1
    expect = np.zeros((4, 4))
    expect[0, 1] = -1.0
    expect[1, 0] = 1.0
    expect[2, 3] = -1.0
    expect[3, 2] = 1.0
    assert np.abs(omega - expect).max() < 1e-14


def test_kahler_form_compatibility_properties():
    s = random_structure(3, 3)
    p = np.array([0.2, -0.4, 0.1, 0.7, -0.2, 0.5])
    sj = s.structure_jets(p)
    omega = sj.omega.value
    jv = sj.J.value
    assert np.abs(omega + omega.T).max() < 1e-12
    assert np.abs(jv.T @ omega @ jv - omega).max() < 1e-11


def test_flat_kahler_torsion_vanishes():
    s = flat_kahler(2)
    sj = s.structure_jets(np.array([0.3, -0.2, 0.5, 0.1]))
    assert np.abs(sj.xi_frame).max() < 1e-14
    assert np.abs(sj.lee_frame).max() < 1e-14


def test_random_structure_invariants():
    for seed, n in ((0, 2), (1, 3)):
        s = random_structure(seed, n)
        rng = np.random.default_rng(seed + 10)
        p = rng.uniform(-0.5, 0.5, size=2 * n)
        sj = s.structure_jets(p)
        jv = sj.J.value
        assert np.abs(jv @ jv + np.eye(2 * n)).max() < 1e-12
        xi = sj.xi_frame
        m = 2 * n
        # each xi_{e_a} is skew and anti-commutes with J (frame rep)
        jf = sj.j_frame
        for a in range(m):
            assert np.abs(xi[a] + xi[a].T).max() < 1e-10
            assert np.abs(xi[a] @ jf + jf @ xi[a]).max() < 1e-10
        comps = sj.gh_frame
        total = comps[0] + comps[1] + comps[2] + comps[3]
        assert np.abs(total - xi).max() < 1e-12
        scale = 1.0 + np.abs(xi).max() ** 2
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.sum(comps[i] * comps[j])) < 1e-9 * scale


def test_n2_has_no_w1_w3():
    for seed in range(3):
        s = random_structure(seed, 2)
        p = np.random.default_rng(seed).uniform(-0.6, 0.6, size=4)
        norms = gh_norms(s.structure_jets(p))
        assert norms[0] < 1e-9
        assert norms[2] < 1e-9


def test_generic_n3_has_all_components():
    s = random_structure(7, 3)
    sj = s.structure_jets(np.array([0.3, -0.1, 0.45, 0.2, -0.5, 0.15]))
    assert (gh_norms(sj) > 1e-3).all()


def test_amplitude_zero_is_flat_kahler():
    s = random_structure(5, 2, amplitude=0.0)
    p = np.array([0.2, 0.4, -0.3, 0.6])
    assert np.abs(s.structure_jets(p).J.value - standard_j(2)).max() < 1e-14
    assert np.abs(s.structure_jets(p).xi_frame).max() < 1e-13


def test_curved_structure_invariants():
    s = random_curved_structure(2, 2)
    p = np.array([0.1, -0.3, 0.25, 0.4])
    sj = s.structure_jets(p)
    jv = sj.J.value
    g = sj.g.value
    assert np.abs(jv @ jv + np.eye(4)).max() < 1e-11
    assert np.abs(jv.T @ g @ jv - g).max() < 1e-11
    # curvature should be genuinely nonzero for the identity battery
    assert np.abs(curvature_jets(sj.g, sj.gamma).riem.value).max() > 1e-3
    sj.minimal_connection_validated


def test_conformal_structure_is_pure_w4():
    s = conformal_structure(3, f_example)
    rng = np.random.default_rng(4)
    for _ in range(2):
        p = rng.uniform(-0.5, 0.5, size=6)
        sj = s.structure_jets(p)
        norms = gh_norms(sj)
        assert norms[0] < 1e-9
        assert norms[1] < 1e-9
        assert norms[2] < 1e-9
        assert norms[3] > 1e-3
        # W3+W4 characterisation: xi_{JX} JY = xi_X Y
        jf = sj.j_frame
        pxi = np.einsum("ba,bkc,cm->akm", jf, sj.xi_frame, jf)
        assert np.abs(pxi - sj.xi_frame).max() < 1e-9


def test_conformal_lee_vector_closed_form():
    n = 3
    s = conformal_structure(n, f_example)
    rng = np.random.default_rng(9)
    for _ in range(2):
        p = rng.uniform(-0.5, 0.5, size=2 * n)
        sj = s.structure_jets(p)
        ell = sj.lee_frame
        space = jet_space(2 * n, 4)
        fj = JetField(space, f_example(space, p).data.reshape(space.ncoeff))
        df = fj.grad().value
        grad_conf = np.exp(-float(fj.value)) * df
        expect = sj.framepack.to_frame((n - 1) / 2.0 * grad_conf, "u")
        assert np.abs(ell - expect).max() < 1e-9


def test_minimal_connection_stabilises_structure():
    s = random_curved_structure(6, 3, amplitude=0.25, metric_amplitude=0.2)
    p = np.array([0.15, -0.2, 0.3, 0.05, -0.4, 0.25])
    sj = s.structure_jets(p)
    assert sj.minimal_connection_validated
    nabla_u_omega = minimal_derivative_jets(sj.omega, "dd", sj).value
    assert np.abs(nabla_u_omega).max() < 1e-10


def test_minimal_connection_equals_levi_civita_when_kahler():
    s = flat_kahler(2)
    p = np.array([0.1, 0.2, 0.3, 0.4])

    def field(q):
        space = jet_space(4, 4)
        x = JetField.variables(space, q)
        entries = np.zeros((4, space.ncoeff))
        for i in range(4):
            entries[i] = (x.entry(i) * x.entry((i + 1) % 4)).data
        return JetField(space, entries)

    nabla_u = minimal_derivative_jets(field(p), "u", s.structure_jets(p)).value
    partials = field(p).grad().value
    assert np.abs(nabla_u - partials).max() < 1e-13


def _gh_membership_gaps(sj):
    """Largest defect, per point, of each condition that puts a piece of
    the split in its Gray-Hervella class."""
    xi1, xi2, xi3, xi4 = sj.gh_frame
    jf, ell, n = sj.j_frame, sj.lee_frame, sj.n
    lead = sj.points.ndim - 1

    def gap(a):
        return np.abs(a).max(axis=tuple(range(lead, a.ndim)))

    def three_form(c):  # <c_{e_x} e_y, e_z>
        return permute(c, (0, 2, 1))

    def j_commutator(c):  # c_{JX} - J c_X
        return np.einsum("...ba,...bkm->...akm", jf, c) - np.einsum("...kl,...alm->...akm", jf, c)

    t1, t2 = three_form(xi1), three_form(xi2)
    jell = np.einsum("...km,...m->...k", jf, ell)
    eye = np.eye(sj.dim)
    lee4 = (
        np.einsum("am,...k->...akm", eye, ell)
        - np.einsum("...m,ak->...akm", ell, eye)
        - np.einsum("...ma,...k->...akm", jf, jell)
        + np.einsum("...m,...ka->...akm", jell, jf)
    ) / (2.0 * (n - 1))
    return {
        "sum": gap(xi1 + xi2 + xi3 + xi4 - sj.xi_frame),
        "xi1 totally skew": np.maximum(gap(t1 + permute(t1, (1, 0, 2))), gap(t1 + permute(t1, (0, 2, 1)))),
        "xi2 cyclic sum": gap(t2 + permute(t2, (1, 2, 0)) + permute(t2, (2, 0, 1))),
        "xi3 commutes with J": gap(j_commutator(xi3)),
        "xi4 commutes with J": gap(j_commutator(xi4)),
        "xi4 Lee expression": gap(xi4 - lee4),
        "xi3 Lee trace": gap(np.einsum("...aka->...k", xi3)),
    }


GH_BLOCK = np.array([[0.2, 0.1, -0.3, 0.4, 0.0, -0.1], [0.5, -0.25, 0.125, 0.375, 0.0, -0.5]])


def test_gh_split_membership_at_a_point_and_a_block():
    # the frame values of the one jet split must land in the four classes
    s = random_curved_structure(8, 3)
    for points in (GH_BLOCK[0], GH_BLOCK):
        sj = s.structure_jets(points)
        sizes = [np.abs(c).max() for c in sj.gh_frame]
        assert min(sizes) > 1e-3, sizes
        for name, gaps in _gh_membership_gaps(sj).items():
            assert gaps.shape == points.shape[:-1]
            assert (gaps < 1e-12).all(), (name, gaps)


def test_perturbed_xi4_fails_the_cross_route_check(monkeypatch):
    s = random_curved_structure(8, 3)
    split = StructureJets.gh_fields.func

    def perturbed(sj):
        *rest, xi4 = split(sj)
        data = xi4.data.copy()
        data[1, ..., 0] += 1e-6
        return (*rest, JetField(xi4.space, data))

    monkeypatch.setattr(StructureJets, "gh_fields", property(perturbed))
    with pytest.raises(
        InternalConventionError,
        match=r"xi4 routes disagree \(torsion formula vs Lee-vector expression\) at point "
        r"\(0.5, -0.25, 0.125, 0.375, 0, -0.5\)",
    ):
        s.structure_jets(GH_BLOCK).gh_frame


def test_torsion_norm_frame_invariant():
    s = random_structure(13, 3)
    p = np.array([0.4, -0.2, 0.1, 0.3, 0.6, -0.5])
    base = s.structure_jets(p)
    norm0 = np.sum(base.xi_frame * base.xi_frame)
    comp0 = gh_norms(base)
    for seed in range(2):
        charted, moved = chart_change(s, p[None], np.random.default_rng(seed))
        sj = charted.structure_jets(moved[0])
        assert np.sum(sj.xi_frame * sj.xi_frame) == pytest.approx(norm0, rel=1e-9)
        assert np.allclose(gh_norms(sj), comp0, rtol=1e-8, atol=1e-10)


def test_extended_norm_matches_coordinate_contraction():
    s = random_curved_structure(14, 2)
    p = np.array([0.3, 0.2, -0.1, 0.5])
    sj = s.structure_jets(p)
    frame_norm = np.sum(sj.xi_frame * sj.xi_frame)
    g = sj.g.value
    ginv = np.linalg.inv(g)
    xi = sj.xi.value
    coord = np.einsum("kxy,lab,kl,xa,yb->", xi, xi, g, ginv, ginv)
    assert frame_norm == pytest.approx(coord, rel=1e-10)


def test_odd_dimension_rejected():
    def evaluate(p, _):
        return JetField.constants(jet_space(3, 4), np.eye(3)), None

    with pytest.raises(GeometryError):
        AlmostHermitianStructure(3, evaluate)


def test_bad_j_rejected():
    def evaluate(p, _):
        space = jet_space(4, 4)
        return JetField.constants(space, np.eye(4)), JetField.constants(space, np.diag([1.0, -1.0, 1.0, -1.0]))

    s = AlmostHermitianStructure(4, evaluate)
    with pytest.raises(GeometryError):
        s.structure_jets(np.zeros(4)).J
    # the block is checked before the evaluator is called
    with pytest.raises(GeometryError, match=r"point must have shape \(\.\.\., 4\)"):
        s.structure_jets(np.zeros(3)).J


def test_connection_action_on_scalar_is_zero():
    # a scalar has no slots for the coefficients to act on
    s = random_structure(1, 2)
    p = np.zeros(4)
    sj = s.structure_jets(p)
    space = sj.g.space
    x = JetField.variables(space, p)
    scalar = JetField(space, (x.entry(0) * x.entry(1)).data.reshape(space.ncoeff))
    nabla_u = minimal_derivative_jets(scalar, "", sj)
    assert np.array_equal(nabla_u.data, scalar.grad().data)
