import numpy as np
import pytest

from torsionflow.tensor import (
    FramePack,
    wedge2,
)


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


def test_frame_rejects_bad_metrics():
    with pytest.raises(ValueError):
        FramePack(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        FramePack(-np.eye(3))


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
    with pytest.raises(ValueError):
        fp.to_frame(np.zeros((2, 2)), "u")
    with pytest.raises(ValueError):
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


def test_wedge2():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    w = wedge2(a, b)
    assert np.abs(w + w.T).max() < 1e-14
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    assert x @ w @ y == pytest.approx((a @ x) * (b @ y) - (a @ y) * (b @ x), rel=1e-12)

