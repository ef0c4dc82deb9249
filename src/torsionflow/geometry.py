"""Riemannian geometry at a point from jet data.

Levi-Civita connection, curvature in the convention

    R(X, Y) = nabla_[X,Y] - [nabla_X, nabla_Y],

which is the negative of the more common sign, covariant derivatives of
arbitrary tensor fields, and the connection (rough) Laplacian
``nabla*nabla Psi = -(nabla^2 Psi)_{e_i, e_i}``, from jets of g that
``checked_metric`` has found finite, symmetric and positive definite.
A variance string names tensor axes, ``'u'`` upper and ``'d'`` lower;
``FramePack`` turns them into components in the g-orthonormal frame.

Index conventions, used everywhere downstream:
  * ``gamma[k, i, j]`` is Gamma^k_{ij}.
  * Covariant differentiation appends the direction as the last axis:
    ``(nabla T)[..., c] = (nabla_c T)[...]``.
  * ``riem[l, i, j, k]`` is ``(R(d_i, d_j) d_k)^l``; ``rflat[i, j, k, l]``
    lowers the first slot to the last: ``<R(d_i, d_j) d_k, d_l>``.
  * The Ricci tensor is the negative frame trace of the stored R, so the
    unit round sphere comes out with positive Ricci.  The test
    ``test_conformal_curvature_closed_form`` pins the stored sign of R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import JetField, jet_einsum, jet_matrix_inverse

__all__ = [
    "MIN_JET_DEGREE",
    "GeometryError",
    "fail_first",
    "point_max",
    "checked_metric",
    "FramePack",
    "permute",
    "christoffel_jets",
    "cov_derivative_jets",
    "curvature_jets",
    "rough_laplacian_jets",
]


# Default and least jet degree of a metric.  The Ric* divergence identity
# differentiates curvature, which already holds second derivatives of g,
# so it needs g to third order; nothing the diagnostics read goes deeper.
MIN_JET_DEGREE = 3


class GeometryError(ValueError):
    """Geometric precondition failure: bad metric, degree too low, etc."""


def _where(p) -> str:
    return "(" + ", ".join(format(float(v), ".17g") for v in p) + ")"


def point_max(a: np.ndarray, lead: int) -> np.ndarray:
    """max |a| over every axis after the ``lead`` leading ones: one value
    per point, so each check compares against its own point's scale."""
    return np.abs(a).max(axis=tuple(range(lead, np.ndim(a))))


def fail_first(failed, points, error: type[Exception], message: str) -> None:
    """Raise ``error`` naming the first point, in point order, at which
    ``failed`` (one flag per point) holds."""
    points = np.asarray(points)
    failed = np.broadcast_to(np.asarray(failed, dtype=bool), points.shape[:-1]).ravel()
    if failed.any():
        first = points.reshape(-1, points.shape[-1])[np.flatnonzero(failed)[0]]
        raise error(f"{message} at point {_where(first)}")


def checked_metric(g, points) -> JetField:
    """The jets ``g`` of a metric at ``points``, checked point by point.

    ``g`` must be a :class:`JetField` of shape ``points.shape + (dim,)``:
    the leading axes of the block lead the jets.  Symmetry is required as
    jets; positive definiteness is required of the constant term.
    """
    points = np.asarray(points, dtype=float)
    dim, lead = points.shape[-1], points.ndim - 1
    if not isinstance(g, JetField) or g.shape != points.shape + (dim,):
        raise GeometryError("metric evaluator must return a square jet field per point")
    size = point_max(g.data, lead)
    fail_first(~np.isfinite(size), points, GeometryError, "metric jets are not finite")
    sym_gap = point_max(g.data - np.swapaxes(g.data, -3, -2), lead)
    fail_first(sym_gap > 1e-10 * (1.0 + size), points, GeometryError, "metric jets are not symmetric")
    try:
        np.linalg.cholesky(g.value)
    except np.linalg.LinAlgError:
        # the stacked factorization fails as a whole: find the point
        for q, v in zip(points.reshape(-1, dim), g.value.reshape(-1, dim, dim)):
            try:
                np.linalg.cholesky(v)
            except np.linalg.LinAlgError as err:
                raise GeometryError(f"metric is not positive definite at point {_where(q)}") from err
    return g


def permute(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``np.transpose`` of the trailing ``len(axes)`` axes; leading
    (point) axes stay in front."""
    lead = a.ndim - len(axes)
    return np.transpose(a, (*range(lead), *(lead + x for x in axes)))


class FramePack:
    """Metrics at one point or a block of points, with g-orthonormal frames.

    ``g`` holds metric values that :func:`checked_metric` has passed, of
    shape ``(..., m, m)``; the leading axes are point axes and every
    array here carries them.  The columns of ``frame`` are the frame
    vectors in coordinates, so ``frame.T @ g @ frame`` is the identity.
    ``coframe`` is the inverse; its rows are the dual one-forms.  The
    frame is read off the Cholesky factor of g, so it turns with the
    chart; nothing geometric may depend on it.  In the frame, metric
    contractions and frame traces are plain component sums.
    """

    def __init__(self, g: np.ndarray):
        self.g = g
        self.frame = np.swapaxes(np.linalg.inv(np.linalg.cholesky(g)), -1, -2)
        self.coframe = np.linalg.inv(self.frame)

    def _apply(self, data, variance: str, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """Contract each slot's axis with ``upper`` or ``lower`` on the right."""
        data = np.asarray(data, dtype=float)
        rank = data.ndim - (self.g.ndim - 2)
        if len(variance) != rank or any(c not in "ud" for c in variance):
            raise GeometryError(f"variance {variance!r} does not match a rank-{rank} tensor")
        slots = "abcdefgh"[: len(variance)]
        for k, c in enumerate(variance):
            out = slots[:k] + "z" + slots[k + 1 :]
            data = np.einsum(f"...{slots},...{slots[k]}z->...{out}", data, upper if c == "u" else lower)
        return data

    def to_frame(self, data, variance: str) -> np.ndarray:
        """Components in the orthonormal frame.

        Upper slots contract with the coframe, lower slots with the
        frame; afterwards index position no longer matters.
        """
        return self._apply(data, variance, np.swapaxes(self.coframe, -1, -2), self.frame)

    def from_frame(self, data, variance: str) -> np.ndarray:
        """Back from frame components to coordinate components."""
        return self._apply(data, variance, np.swapaxes(self.frame, -1, -2), self.coframe)


def christoffel_jets(g: JetField, ginv: JetField | None = None) -> JetField:
    """Gamma^k_{ij} as jets, one degree below the metric jets."""
    if g.deg < 1:
        raise GeometryError("metric jets must have degree >= 1 for Christoffel symbols")
    if ginv is None:
        ginv = jet_matrix_inverse(g)
    dg = g.grad()  # dg[i, j, c] = d_c g_{ij}
    b = dg.transpose((1, 2, 0)) + dg.transpose((1, 0, 2)) - dg.transpose((2, 0, 1))
    # b[l, i, j] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
    return jet_einsum("kl,lij->kij", ginv, b) * 0.5


def cov_derivative_jets(t: JetField, variance: str, gamma: JetField) -> JetField:
    """Covariant derivative of a tensor jet field.

    ``gamma[k, x, m]`` acts as Gamma^k_{xm}, plus on upper slots and minus
    on lower ones: Christoffel jets, or ``StructureJets.minimal_gamma``.
    The direction is appended as a new last (covariant) axis; degree
    drops by one.  ``variance`` names the trailing tensor axes of ``t``;
    axes ahead of them are leading (point) axes.
    """
    if len(variance) > len(t.shape) or any(c not in "ud" for c in variance):
        raise GeometryError(f"variance {variance!r} does not match shape {t.shape}")
    if t.deg < 1:
        raise GeometryError("tensor jets must have degree >= 1 to differentiate")
    letters = "abcdefgh"[: len(variance)]
    out = t.grad()
    # the sum is valid only to t.deg - 1 and gamma.deg, so no product goes
    # higher; gamma is read through a view of its low coefficients, not a copy
    if gamma.deg < out.deg:
        out = out.truncate(gamma.deg)
    gamma = JetField(gamma.space, gamma.data[..., : gamma.space.nc_at(out.deg)])
    # each term is added in place into the fresh gradient array
    for k, c in enumerate(variance):
        lab = letters[k]
        inner = letters[:k] + "m" + letters[k + 1 :]
        if c == "u":
            out.data += jet_einsum(f"{lab}ym,{inner}->{letters}y", gamma, t).data
        else:
            out.data -= jet_einsum(f"my{lab},{inner}->{letters}y", gamma, t).data
    return out


@dataclass
class CurvatureJets:
    """Curvature data as jet fields, all in the stored sign convention."""

    riem: JetField | None  # [l, i, j, k] = (R(d_i, d_j) d_k)^l; StructureJets drops it
    rflat: JetField  # [i, j, k, l] = <R(d_i, d_j) d_k, d_l>
    ricci: JetField  # [x, y], positive on round spheres
    scalar: JetField


def curvature_jets(g: JetField, gamma: JetField, ginv: JetField | None = None) -> CurvatureJets:
    if gamma.deg < 1:
        raise GeometryError("Christoffel jets must have degree >= 1 for curvature")
    if ginv is None:
        ginv = jet_matrix_inverse(g)
    dgamma = gamma.grad()  # [l, a, b, c] = d_c Gamma^l_{ab}
    t1 = dgamma.transpose((0, 3, 1, 2))  # d_i Gamma^l_{jk}
    t2 = dgamma.transpose((0, 1, 3, 2))  # d_j Gamma^l_{ik}
    low = gamma.truncate(dgamma.deg)  # riem is valid only to dgamma.deg
    # riem = (t2 - t1) + (q2 - q1), summed in place into the fresh q2 array
    riem = jet_einsum("ljm,mik->lijk", low, low)
    riem.data -= jet_einsum("lim,mjk->lijk", low, low).data
    riem.data += (t2 - t1).data
    rflat = jet_einsum("lm,mijk->ijkl", g, riem)
    ricci = jet_einsum("ab,axyb->xy", ginv, rflat) * (-1.0)
    scalar = jet_einsum("xy,xy->", ginv, ricci)
    return CurvatureJets(riem=riem, rflat=rflat, ricci=ricci, scalar=scalar)


def rough_laplacian_jets(nabla_t: JetField, variance: str, gamma: JetField, ginv: JetField) -> JetField:
    """Connection Laplacian -(nabla^2 T)_{e_i, e_i} as a jet field, from
    the first derivative ``nabla_t = cov_derivative_jets(t, variance, gamma)``
    that the caller already holds; ``variance`` is that of T."""
    # the outer direction is the last axis: [..., y, x] holds (nabla^2 T)_{x,y}
    second = cov_derivative_jets(nabla_t, variance + "d", gamma)
    letters = "abcdefgh"[: len(variance)]
    return jet_einsum(f"xy,{letters}yx->{letters}", ginv, second) * (-1.0)
