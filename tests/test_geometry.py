import numpy as np
import pytest
from helpers import (
    conformal_metric_field,
    flat_metric_field,
    random_metric_field,
    random_tensor_evaluator,
    sphere6_metric_field,
    trig_scalar,
)

from torsionflow.geometry import (
    FramePack,
    GeometryError,
    checked_metric,
    christoffel_jets,
    cov_derivative_jets,
    curvature_jets,
    rough_laplacian_jets,
)
from torsionflow.jets import JetField, jet_matrix_inverse, jet_space
from torsionflow.unstruct import AlmostHermitianStructure, standard_j


def curvature_at(m, p):
    g = m(p)
    return curvature_jets(g, christoffel_jets(g))


def test_flat_metric_trivial():
    m = flat_metric_field(3)
    p = np.array([0.2, -0.1, 0.4])
    assert np.abs(christoffel_jets(m(p)).value).max() == 0.0
    pack = curvature_at(m, p)
    assert np.abs(pack.riem.value).max() == 0.0
    assert np.abs(pack.ricci.value).max() == 0.0
    assert float(pack.scalar.value) == 0.0


def test_flat_covariant_derivative_is_partials():
    m = flat_metric_field(2)
    t = random_tensor_evaluator(3, 2, (2, 2))
    p = np.array([0.3, -0.6])
    nabla = cov_derivative_jets(t(p), "ud", christoffel_jets(m(p))).value
    partials = t(p).grad().value
    assert np.abs(nabla - partials).max() < 1e-14


def test_christoffel_symmetric_in_lower_slots():
    m = random_metric_field(0, 3)
    p = np.array([0.1, 0.2, -0.3])
    gam = christoffel_jets(m(p)).value
    assert np.abs(gam - np.swapaxes(gam, 1, 2)).max() < 1e-13


def test_conformal_christoffel_closed_form():
    # g = e^f delta:  Gamma^k_ij = (d_i f delta^k_j + d_j f delta^k_i - d^k f delta_ij) / 2
    n = 4

    def f_of_x(space, p):
        return trig_scalar(space, p, [1.0, 0.0, 2.0, -1.0], 0.3, 0.7)

    m = conformal_metric_field(n, f_of_x)
    rng = np.random.default_rng(5)
    for _ in range(3):
        p = rng.uniform(-0.5, 0.5, size=n)
        gam = christoffel_jets(m(p)).value
        space = jet_space(n, 4)
        fj = JetField(space, f_of_x(space, p).data.reshape(space.ncoeff))
        df = fj.grad().value
        eye = np.eye(n)
        expect = 0.5 * (
            np.einsum("i,kj->kij", df, eye)
            + np.einsum("j,ki->kij", df, eye)
            - np.einsum("k,ij->kij", df, eye)
        )
        assert np.abs(gam - expect).max() < 1e-12


def test_metric_compatibility():
    m = random_metric_field(1, 3)
    p = np.array([0.15, -0.25, 0.05])
    g = m(p)
    nabla_g = cov_derivative_jets(g, "dd", christoffel_jets(g)).value
    assert np.abs(nabla_g).max() < 1e-12


def test_leibniz_rule():
    n = 3
    m = random_metric_field(2, n)
    p = np.array([-0.2, 0.3, 0.1])
    space = jet_space(n, 4)
    f = trig_scalar(space, p, [1.0, -1.0, 2.0], 0.1, 0.8)
    x_eval = random_tensor_evaluator(4, n, (n,))
    x = x_eval(p)
    fx = x * JetField(space, f.data.reshape(space.ncoeff))
    gamma = christoffel_jets(m(p))
    lhs = cov_derivative_jets(fx, "u", gamma).value
    fj = JetField(space, f.data.reshape(space.ncoeff))
    rhs = (
        np.einsum("c,a->ac", fj.grad().value, x.value)
        + f.value * cov_derivative_jets(x, "u", gamma).value
    )
    assert np.abs(lhs - rhs).max() < 1e-12


def test_curvature_symmetries_random_geometry():
    m = random_metric_field(6, 4)
    rng = np.random.default_rng(7)
    for _ in range(2):
        p = rng.uniform(-0.4, 0.4, size=4)
        pack = curvature_at(m, p)
        rf = pack.rflat.value
        # skew in the vector-pair slots and in the lowered pair
        assert np.abs(rf + np.transpose(rf, (1, 0, 2, 3))).max() < 1e-9
        assert np.abs(rf + np.transpose(rf, (0, 1, 3, 2))).max() < 1e-9
        # pair interchange
        assert np.abs(rf - np.transpose(rf, (2, 3, 0, 1))).max() < 1e-8
        # first Bianchi: cyclic sum over (i, j, k)
        riem = pack.riem.value
        cyc = riem + np.transpose(riem, (0, 2, 3, 1)) + np.transpose(riem, (0, 3, 1, 2))
        assert np.abs(cyc).max() < 1e-8


def test_second_bianchi():
    m = random_metric_field(8, 3)
    p = np.array([0.2, -0.1, 0.3])
    g = m(p)
    gamma = christoffel_jets(g)
    nr = cov_derivative_jets(curvature_jets(g, gamma).riem, "uddd", gamma).value
    cyc = (
        nr
        + np.transpose(nr, (0, 2, 4, 3, 1))
        + np.transpose(nr, (0, 4, 1, 3, 2))
    )
    assert np.abs(cyc).max() < 1e-7


def test_conformal_curvature_closed_form():
    # the audit that pins the stored sign convention
    n = 4

    def f_of_x(space, p):
        return trig_scalar(space, p, [1.0, 2.0, 0.0, -1.0], 0.2, 0.6)

    m = conformal_metric_field(n, f_of_x)
    rng = np.random.default_rng(11)
    for _ in range(3):
        p = rng.uniform(-0.5, 0.5, size=n)
        pack = curvature_at(m, p)
        space = jet_space(n, 4)
        fj = JetField(space, f_of_x(space, p).data.reshape(space.ncoeff))
        fval = float(fj.value)
        df = fj.grad().value
        hess = fj.grad().grad().value
        ell = hess - 0.5 * np.outer(df, df)
        df2 = float(df @ df)
        eye = np.eye(n)
        lhs = -2.0 * np.exp(-fval) * pack.rflat.value
        rhs = (
            np.einsum("ik,jl->ijkl", ell, eye)
            + np.einsum("jl,ik->ijkl", ell, eye)
            - np.einsum("il,jk->ijkl", ell, eye)
            - np.einsum("jk,il->ijkl", ell, eye)
            + 0.5 * df2 * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("jk,il->ijkl", eye, eye))
        )
        scale = 1.0 + np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() / scale < 1e-8


def test_sphere6_ricci_is_five_g():
    m = sphere6_metric_field()
    rng = np.random.default_rng(13)
    for _ in range(2):
        p = rng.uniform(-0.3, 0.3, size=6)
        pack = curvature_at(m, p)
        g = m(p).value
        assert np.abs(pack.ricci.value - 5.0 * g).max() < 1e-7
        assert float(pack.scalar.value) == pytest.approx(30.0, abs=1e-7)


def test_flat_laplacian_is_sum_of_second_partials():
    m = flat_metric_field(2)
    p = np.array([0.5, -0.2])

    def psi(q):
        space = jet_space(2, 4)
        x = JetField.variables(space, q)
        x1, x2 = x.entry(0), x.entry(1)
        val = x1 * x1 * x2 + x2 * x2
        return JetField(space, val.data.reshape(space.ncoeff))

    g = m(p)
    gamma = christoffel_jets(g)
    lap = rough_laplacian_jets(cov_derivative_jets(psi(p), "", gamma), "", gamma, jet_matrix_inverse(g)).value
    # psi = x1^2 x2 + x2^2: sum of pure second partials is 2 x2 + 2
    assert lap == pytest.approx(-(2.0 * p[1] + 2.0), abs=1e-12)


def test_laplacian_of_metric_vanishes():
    m = random_metric_field(14, 3)
    p = np.array([0.1, 0.0, -0.2])
    g = m(p)
    gamma = christoffel_jets(g)
    lap = rough_laplacian_jets(cov_derivative_jets(g, "dd", gamma), "dd", gamma, jet_matrix_inverse(g)).value
    assert np.abs(lap).max() < 1e-11


def test_hessian_slot_order():
    # (nabla^2 psi)_{x,y} for scalar psi is the coordinate Hessian minus
    # Gamma^m_{xy} d_m psi; trailing axis is the outer direction x
    m = random_metric_field(15, 2)
    p = np.array([0.2, 0.3])
    psi = random_tensor_evaluator(16, 2, ())
    gamma = christoffel_jets(m(p))
    h = cov_derivative_jets(cov_derivative_jets(psi(p), "", gamma), "d", gamma).value
    space = jet_space(2, 4)
    pj = psi(p)
    dd = pj.grad().grad().value  # dd[y, x] = d_x d_y psi
    dpsi = pj.grad().value
    gam = christoffel_jets(m(p)).value
    expect = dd - np.einsum("mxy,m->yx", gam, dpsi)
    assert np.abs(h - expect).max() < 1e-12
    assert np.abs(h - h.T).max() < 1e-12


def test_geometry_errors():
    def bad_spd(p):
        return JetField.constants(jet_space(2, 4), -np.eye(2))

    with pytest.raises(GeometryError):
        checked_metric(bad_spd(np.zeros(2)), np.zeros(2))

    def asym(p):
        return JetField.constants(jet_space(2, 4), np.array([[1.0, 0.5], [0.0, 1.0]]))

    with pytest.raises(GeometryError):
        checked_metric(asym(np.zeros(2)), np.zeros(2))

    def overflowing(p):
        return JetField.constants(jet_space(2, 4), np.array([[np.inf, 0.0], [0.0, 1.0]]))

    with pytest.raises(GeometryError, match="not finite"):
        checked_metric(overflowing(np.zeros(2)), np.zeros(2))

    # degree-2 metric jets leave curvature at degree 0: no nabla R
    g = random_metric_field(17, 2, degree=2)(np.zeros(2))
    gamma = christoffel_jets(g)
    riem = curvature_jets(g, gamma).riem
    with pytest.raises(GeometryError):
        cov_derivative_jets(riem, "uddd", gamma)


def test_metric_checks_compare_each_point_against_its_own_scale():
    """In a block, |g| ~ 1e3 at one point must not hide a 1e-8 asymmetry
    at another where |g| ~ 1: a scale taken over the block would."""
    space = jet_space(2, 3)
    values = np.stack([1e3 * np.eye(2), np.array([[1.0, 1e-8], [0.0, 1.0]])])

    def evaluator(p):
        return JetField.constants(space, values)

    block = np.array([[0.0, 0.0], [0.5, 0.25]])
    with pytest.raises(GeometryError, match=r"metric jets are not symmetric at point \(0.5, 0.25\)"):
        checked_metric(evaluator(block), block)


@pytest.mark.parametrize(
    "g, message",
    [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "metric jets are not symmetric"),
        (-np.eye(2), "metric is not positive definite"),
    ],
)
def test_frame_is_built_only_from_a_checked_metric(g, message):
    # FramePack itself checks nothing: the structure's frame reads g through checked_metric
    def evaluate(p, degree):
        space = jet_space(2, degree)
        lead = p.shape[:-1]
        return (JetField.constants(space, np.broadcast_to(g, lead + (2, 2))),
                JetField.constants(space, np.broadcast_to(standard_j(1), lead + (2, 2))))

    structure = AlmostHermitianStructure(2, evaluate)
    with pytest.raises(GeometryError, match=message + r" at point \(0.5, 0.25\)"):
        structure.structure_jets(np.array([[0.5, 0.25]])).framepack


# -- orthonormal frames --------------------------------------------------------


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def inner(fp, a, b, variance):
    """Extended inner product: all slots paired through the metric, as the
    plain sum of products of frame components."""
    return np.sum(fp.to_frame(a, variance) * fp.to_frame(b, variance))


def test_frame_is_orthonormal():
    rng = np.random.default_rng(0)
    for n in (2, 3, 6):
        g = random_spd(rng, n)
        fp = FramePack(g)
        assert np.abs(fp.frame.T @ g @ fp.frame - np.eye(n)).max() < 1e-12
        assert np.abs(fp.frame @ fp.frame.T - np.linalg.inv(g)).max() < 1e-10
        assert np.abs(fp.coframe @ fp.frame - np.eye(n)).max() < 1e-12


def test_to_frame_round_trip():
    rng = np.random.default_rng(1)
    g = random_spd(rng, 4)
    fp = FramePack(g)
    t = rng.standard_normal((4, 4, 4))
    for variance in ("uuu", "udd", "ddd", "dud"):
        back = fp.from_frame(fp.to_frame(t, variance), variance)
        assert np.abs(back - t).max() < 1e-10


def test_to_frame_validates_variance():
    fp = FramePack(np.eye(2))
    with pytest.raises(GeometryError):
        fp.to_frame(np.zeros((2, 2)), "u")
    with pytest.raises(GeometryError):
        fp.from_frame(np.zeros(2), "x")


def test_inner_product_matches_metric_contraction():
    rng = np.random.default_rng(2)
    g = random_spd(rng, 3)
    ginv = np.linalg.inv(g)
    fp = FramePack(g)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    assert inner(fp, u, v, "u") == pytest.approx(u @ g @ v, rel=1e-12)
    assert inner(fp, u, v, "d") == pytest.approx(u @ ginv @ v, rel=1e-12)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    expect = np.einsum("ij,kl,ik,jl->", a, b, g, ginv)
    assert inner(fp, a, b, "ud") == pytest.approx(expect, rel=1e-11)


def test_inner_product_frame_invariant():
    """The chart change x = A x' takes t to A^{-1} t A and g to A^T g A,
    and with them the Cholesky frame; the inner product stays."""
    rng = np.random.default_rng(3)
    g = random_spd(rng, 5)
    t = rng.standard_normal((5, 5))
    s = rng.standard_normal((5, 5))
    base = inner(FramePack(g), t, s, "ud")
    for _ in range(3):
        a = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        ainv = np.linalg.inv(a)
        moved = inner(FramePack(a.T @ g @ a), ainv @ t @ a, ainv @ s @ a, "ud")
        assert moved == pytest.approx(base, rel=1e-11)
