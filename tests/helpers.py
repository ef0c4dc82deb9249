"""Shared builders for test geometries.

Everything here is an independent construction path used as an oracle
against the package's own factories, so it stays deliberately plain:
scalar jets assembled entry by entry, no reuse of catalog code.
"""

import functools

import numpy as np

from torsionflow.geometry import checked_metric
from torsionflow.jets import JetField, jet_space
from torsionflow.unstruct import AlmostHermitianStructure


def trig_scalar(space, point, freq, phase, coef):
    """coef * sin(freq . x + phase) as a scalar jet at the point."""
    x = JetField.variables(space, point)
    arg = None
    for k in range(space.dim):
        term = x.entry(k) * float(freq[k])
        arg = term if arg is None else arg + term
    return (arg + float(phase)).fn("sin") * float(coef)


def pack_scalar_matrix(space, entries):
    """Stack a nested list of scalar jets into a JetField."""
    entries = np.asarray(entries, dtype=object)
    data = np.zeros(entries.shape + (space.ncoeff,))
    for idx in np.ndindex(entries.shape):
        data[idx] = entries[idx].data
    return JetField(space, data)


def random_metric_field(seed, n, degree=4, amp=0.25):
    """Identity plus a symmetric trigonometric perturbation."""
    rng = np.random.default_rng(seed)
    freqs = rng.integers(-2, 3, size=(n, n, n)).astype(float)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, n))
    coefs = rng.uniform(-1.0, 1.0, size=(n, n))

    def evaluator(p):
        space = jet_space(n, degree)
        s = [[trig_scalar(space, p, freqs[i, j], phases[i, j], coefs[i, j])
              for j in range(n)] for i in range(n)]
        entries = [[(s[i][j] + s[j][i]) * (0.5 * amp) for j in range(n)]
                   for i in range(n)]
        for i in range(n):
            entries[i][i] = entries[i][i] + 1.0
        return pack_scalar_matrix(space, entries)

    return lambda p: checked_metric(evaluator(p), p)


def flat_metric_field(n, degree=4):
    def evaluator(p):
        return JetField.constants(jet_space(n, degree), np.eye(n))

    return lambda p: checked_metric(evaluator(p), p)


def conformal_metric_field(n, f_of_x, degree=4):
    """g = e^f * identity, with f built from scalar jets by the caller."""
    def evaluator(p):
        space = jet_space(n, degree)
        ef = f_of_x(space, p).fn("exp")
        entries = [[ef * (1.0 if i == j else 0.0) for j in range(n)]
                   for i in range(n)]
        return pack_scalar_matrix(space, entries)

    return lambda p: checked_metric(evaluator(p), p)


def sphere6_metric_field(degree=4):
    """Round unit 6-sphere in the graph chart x -> (x, sqrt(1 - |x|^2))."""
    def evaluator(p):
        space = jet_space(6, degree)
        x = JetField.variables(space, p)
        xj = [x.entry(i) for i in range(6)]
        w2 = 1.0 - sum(xi * xi for xi in xj)
        inv_w2 = 1.0 / w2
        entries = [[xj[i] * xj[j] * inv_w2 + (1.0 if i == j else 0.0)
                    for j in range(6)] for i in range(6)]
        return pack_scalar_matrix(space, entries)

    return lambda p: checked_metric(evaluator(p), p)


def random_tensor_evaluator(seed, n, shape, degree=4, amp=1.0):
    """A tensor field with trigonometric entries, as an evaluator."""
    rng = np.random.default_rng(seed)
    freqs = rng.integers(-2, 3, size=shape + (n,)).astype(float)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    coefs = rng.uniform(-amp, amp, size=shape)

    def evaluator(p):
        space = jet_space(n, degree)
        entries = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            entries[idx] = trig_scalar(space, p, freqs[idx], phases[idx], coefs[idx])
        data = np.zeros(shape + (space.ncoeff,))
        for idx in np.ndindex(shape):
            data[idx] = entries[idx].data
        return JetField(space, data)

    return evaluator


def gh_norms(sj):
    """Euclidean norms of the four Gray-Hervella components of
    ``sj.gh_frame``, along a last axis after any point axes."""
    return np.stack([np.sqrt(np.sum(c * c, axis=(-3, -2, -1))) for c in sj.gh_frame], axis=-1)


def pulled_back(structure, a, b):
    """The same structure in the chart x = a x' + b.

    The new evaluator calls the old one at a p' + b and substitutes the
    coordinates in every jet: with h the coordinate jets at 0,
    K[alpha, beta] is coefficient beta of (a h)^alpha, which is
    homogeneous of degree |alpha|, so a truncated jet takes a prefix of
    K.  It returns g' = a^T g a and J' = a^{-1} J a.
    """
    a = np.asarray(a, dtype=float)
    ainv = np.linalg.inv(a)
    dim = structure.dim

    @functools.cache
    def substitution(space):
        ah = JetField(space, a @ JetField.variables(space, np.zeros(dim)).data)
        k = np.empty((space.ncoeff, space.ncoeff))
        for row, alpha in enumerate(space.multi_indices):
            term = JetField.constants(space, 1.0)
            for i, e in enumerate(alpha):
                term = term * ah.entry(i) ** e
            k[row] = term.data
        return k

    def evaluate(q, degree):
        # not a matmul: a block maps each point to the bits it gets alone
        x = np.sum(a * np.asarray(q, dtype=float)[..., None, :], axis=-1) + b
        g, j = structure.evaluate(x, degree)
        k = substitution(g.space)
        sub = lambda f: f.data @ k[: f.data.shape[-1], : f.data.shape[-1]]
        g_new = np.einsum("ki,...klc,lj->...ijc", a, sub(g), a)
        j_new = np.einsum("ik,...klc,lj->...ijc", ainv, sub(j), a)
        return JetField(g.space, g_new), JetField(j.space, j_new)

    return AlmostHermitianStructure(dim, evaluate, structure.name)


def chart_change(structure, points, rng):
    """``structure`` pulled back by x = A x' + b, A = I + 0.3 N(0, 1) and
    b = 0.1 N(0, 1), and ``points`` in the new chart.  The pullback's
    roundoff grows with cond(A): on conformal n=3 the report moves by
    up to 8e-14 * scale at cond(A) <= 13 and by 7e-9 at 109, so a draw
    above 20 is refused."""
    dim = structure.dim
    a = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    b = 0.1 * rng.standard_normal(dim)
    assert np.linalg.cond(a) < 20, "redraw A: the chart is too ill-conditioned"
    return pulled_back(structure, a, b), np.linalg.solve(a, (points - b).T).T
