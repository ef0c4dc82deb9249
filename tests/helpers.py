"""Shared builders for test geometries.

Everything here is an independent construction path used as an oracle
against the package's own factories, so it stays deliberately plain:
scalar jets assembled entry by entry, no reuse of catalog code.
"""

import numpy as np

from torsionflow.geometry import checked_metric
from torsionflow.jets import JetField, jet_space


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
