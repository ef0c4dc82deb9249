"""Pointwise tensor algebra over a fixed metric.

A tensor at a point is a numpy array tagged with a variance string, one
character per axis: ``'u'`` for a contravariant (vector) slot, ``'d'``
for a covariant (form) slot.  A :class:`FramePack` carries the metric
together with a g-orthonormal frame; expressing tensors in that frame
turns metric contractions and frame traces into plain component sums.

Kept for the tests only: ``random_rotation`` (frame invariance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointTensor",
    "FramePack",
    "wedge2",
    "random_rotation",
]


def _check_variance(variance: str, ndim: int):
    if len(variance) != ndim or any(c not in "ud" for c in variance):
        raise ValueError(
            f"variance {variance!r} does not match a rank-{ndim} tensor"
        )


@dataclass(frozen=True)
class PointTensor:
    """A tensor at a point: components plus a variance tag per axis."""

    data: np.ndarray
    variance: str

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float))
        _check_variance(self.variance, self.data.ndim)


def wedge2(alpha, beta) -> np.ndarray:
    """Wedge of two one-forms: (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X)."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.ndim != 1 or beta.ndim != 1 or alpha.shape != beta.shape:
        raise ValueError("wedge2 expects two one-forms of equal dimension")
    outer = np.outer(alpha, beta)
    return outer - outer.T


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random special orthogonal matrix."""
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class FramePack:
    """A metric at a point together with a g-orthonormal frame.

    The columns of ``frame`` are the frame vectors in coordinates, so
    ``frame.T @ g @ frame`` is the identity.  ``coframe`` is the inverse;
    its rows are the dual one-forms.  An optional rotation mixes the
    frame, and nothing geometric may depend on that choice.
    """

    def __init__(self, g, rotation: np.ndarray | None = None):
        g = np.asarray(g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("metric must be a square matrix")
        scale = 1.0 + np.abs(g).max()
        if np.abs(g - g.T).max() > 1e-10 * scale:
            raise ValueError("metric must be symmetric")
        try:
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError as err:
            raise ValueError("metric must be positive definite") from err
        frame = np.linalg.inv(chol).T
        if rotation is not None:
            rotation = np.asarray(rotation, dtype=float)
            if np.abs(rotation.T @ rotation - np.eye(g.shape[0])).max() > 1e-10:
                raise ValueError("frame rotation must be orthogonal")
            frame = frame @ rotation
        self.g = g
        self.ginv = frame @ frame.T
        self.frame = frame
        self.coframe = np.linalg.inv(frame)

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def to_frame(self, data, variance: str) -> np.ndarray:
        """Components in the orthonormal frame.

        Upper slots contract with the coframe, lower slots with the
        frame; afterwards index position no longer matters.
        """
        data = np.asarray(data, dtype=float)
        _check_variance(variance, data.ndim)
        for k, c in enumerate(variance):
            if c == "u":
                data = np.moveaxis(
                    np.tensordot(self.coframe, data, axes=(1, k)), 0, k
                )
            else:
                data = np.moveaxis(
                    np.tensordot(data, self.frame, axes=(k, 0)), -1, k
                )
        return data

    def from_frame(self, data, variance: str) -> np.ndarray:
        """Back from frame components to coordinate components."""
        data = np.asarray(data, dtype=float)
        _check_variance(variance, data.ndim)
        for k, c in enumerate(variance):
            if c == "u":
                data = np.moveaxis(
                    np.tensordot(self.frame, data, axes=(1, k)), 0, k
                )
            else:
                data = np.moveaxis(
                    np.tensordot(data, self.coframe, axes=(k, 0)), -1, k
                )
        return data

    def inner(self, a, b, variance: str) -> float:
        """Extended inner product: all slots paired through the metric.

        In frame components this is the plain sum of products, which is
        how it is computed.
        """
        af = self.to_frame(a, variance)
        bf = self.to_frame(b, variance)
        if af.shape != bf.shape:
            raise ValueError("tensors must have the same shape")
        return float(np.sum(af * bf))

    def norm(self, a, variance: str) -> float:
        return float(np.sqrt(max(self.inner(a, a, variance), 0.0)))
