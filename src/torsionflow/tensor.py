"""Pointwise tensor algebra over a fixed metric.

A tensor at a point is a plain numpy array; a variance string, passed
alongside it as an argument, names each axis: ``'u'`` for a
contravariant (vector) slot, ``'d'`` for a covariant (form) slot.  A
:class:`FramePack` carries the metric together with a g-orthonormal
frame; expressing tensors in that frame turns metric contractions and
frame traces into plain component sums.
A FramePack may hold a block of points: then its arrays, and the
tensors it converts, lead with the point axes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FramePack",
    "permute",
    "wedge2",
]


def _check_variance(variance: str, ndim: int):
    if len(variance) != ndim or any(c not in "ud" for c in variance):
        raise ValueError(
            f"variance {variance!r} does not match a rank-{ndim} tensor"
        )


def permute(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """``np.transpose`` of the trailing ``len(axes)`` axes; leading
    (point) axes stay in front."""
    lead = a.ndim - len(axes)
    return np.transpose(a, (*range(lead), *(lead + x for x in axes)))


def wedge2(alpha, beta) -> np.ndarray:
    """Wedge of two one-forms: (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X)."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.ndim != 1 or beta.ndim != 1 or alpha.shape != beta.shape:
        raise ValueError("wedge2 expects two one-forms of equal dimension")
    outer = np.outer(alpha, beta)
    return outer - outer.T


class FramePack:
    """Metrics at one point or a block of points, with g-orthonormal frames.

    ``g`` has shape ``(..., m, m)``; the leading axes are point axes and
    every array here carries them.  The columns of ``frame`` are the
    frame vectors in coordinates, so ``frame.T @ g @ frame`` is the
    identity.  ``coframe`` is the inverse; its rows are the dual
    one-forms.  The frame is read off the Cholesky factor of g, so it
    turns with the chart; nothing geometric may depend on it.
    """

    def __init__(self, g):
        g = np.asarray(g, dtype=float)
        if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
            raise ValueError("metric must be a square matrix")
        scale = 1.0 + np.abs(g).max(axis=(-2, -1))
        if (np.abs(g - np.swapaxes(g, -1, -2)).max(axis=(-2, -1)) > 1e-10 * scale).any():
            raise ValueError("metric must be symmetric")
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError as err:
            raise ValueError("metric must be positive definite") from err
        self.g = g
        self.frame = np.swapaxes(np.linalg.inv(chol), -1, -2)
        self.coframe = np.linalg.inv(self.frame)

    def _apply(self, data, variance: str, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """Contract each slot's axis with ``upper`` or ``lower`` on the right."""
        data = np.asarray(data, dtype=float)
        _check_variance(variance, data.ndim - (self.g.ndim - 2))
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
