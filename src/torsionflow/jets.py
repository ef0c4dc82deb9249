"""Truncated multivariate Taylor arithmetic.

A jet of degree K at a base point stores, for every multi-index alpha with
|alpha| <= K, the Taylor coefficient

    coeff[alpha] = (d^alpha f) / alpha!

of a scalar function f.  Sums, products and the elementary analytic
functions act exactly on these coefficients, so a jet of a composite
expression carries the exact partial derivatives of the composition up to
order K (no finite-difference error; the only noise is roundoff).

One type lives here: ``JetField``, a dense tensor whose entries are jets,
stored as a single ndarray with a trailing coefficient axis.  A shape-()
field is a scalar jet.  ``JetField.constants`` and ``JetField.variables``
build constant and coordinate jets, and ``field.fn(name)`` applies sin,
cos, exp, log, sqrt or the reciprocal entrywise.  Chart geometry
(metrics, Christoffel symbols, curvature) is built on fields;
``jet_einsum`` contracts tensor axes while convolving coefficient axes.
It is the one product kernel: an entrywise product (``*``, and each
Horner step of the elementary functions) is its contraction ``",->"``.
The convolution walks the space's pair table one rank at a time, rank k
being the k-th coefficient pair of every output coefficient, so its
largest temporary holds one rank (at most one row per coefficient), and
each output's pairs p0, p1, ... are summed as p0 + ((p1 + p2) + ...),
numpy's order for a segment sum over the whole table.

A field may carry leading axes ahead of its tensor axes, one per axis of
a block of base points (``JetField.variables`` of a ``(k, dim)`` block
has shape ``(k, dim)``).  Every operation addresses the trailing tensor
axes and broadcasts the leading ones, as numpy's ``...`` does, so the
same code expands one point or a block of them.

Multi-indices are ordered by total degree, then lexicographically, so a
truncation to lower degree is a prefix slice.  A ``JetField`` stores its
coefficients only up to the degree at which they are valid, and the length
of its coefficient axis is the record of that degree: differentiation drops
the top degree, and sums and products keep the smaller operand degree.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

__all__ = [
    "JetError",
    "JetDomainError",
    "JetSpace",
    "jet_space",
    "JetField",
    "jet_einsum",
]

MAX_DIM = 8
MAX_DEGREE = 8


class JetError(ValueError):
    """Raised on structural misuse of jets (dimension/degree mismatch)."""


class JetDomainError(JetError):
    """Raised when an elementary function is evaluated outside its domain."""


def _compositions(total: int, slots: int) -> Iterable[tuple[int, ...]]:
    """All multi-indices of the given total degree, lexicographic order."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, slots - 1):
            yield (head,) + tail


class JetSpace:
    """Index tables for jets of a fixed dimension and degree.

    Instances are cached; use :func:`jet_space` rather than constructing
    directly.  The heavy piece is the one multiplication table: flat
    arrays of coefficient-index pairs grouped by output index.  A product
    truncated to degree d reads its prefix ``table(d)``, which
    ``jet_einsum`` takes rank by rank from ``ranks[d]``.
    """

    def __init__(self, dim: int, degree: int):
        if not 1 <= dim <= MAX_DIM:
            raise JetError(f"jet dimension must be in 1..{MAX_DIM}, got {dim}")
        if not 0 <= degree <= MAX_DEGREE:
            raise JetError(f"jet degree must be in 0..{MAX_DEGREE}, got {degree}")
        self.dim = dim
        self.degree = degree

        indices: list[tuple[int, ...]] = []
        for d in range(degree + 1):
            indices.extend(sorted(_compositions(d, dim)))
        self.multi_indices: tuple[tuple[int, ...], ...] = tuple(indices)
        self.index: dict[tuple[int, ...], int] = {
            a: i for i, a in enumerate(indices)
        }
        self.ncoeff = len(indices)
        order = [sum(a) for a in indices]
        # ncoeff of each truncation degree: prefix lengths
        self.nc_level = np.searchsorted(order, np.arange(degree + 1), side="right")
        # a field's degree, read from the length of its coefficient axis
        self.deg_of_nc = {int(nc): d for d, nc in enumerate(self.nc_level)}

        # one pair table, (ia, ib) grouped by output index; outputs are in
        # degree order, so the pairs of a truncation to degree d are a prefix
        pairs = [
            (ia, ib, self.index[tuple(x + y for x, y in zip(a, b))])
            for ia, a in enumerate(indices)
            for ib, b in enumerate(indices)
            if order[ia] + order[ib] <= degree
        ]
        ia, ib, out = np.array(pairs, dtype=np.int64).T
        srt = np.argsort(out, kind="stable")
        self._ia, self._ib = ia[srt], ib[srt]
        # segment starts, then the pair count: _starts[nc] pairs end at output nc
        self._starts = np.searchsorted(out[srt], np.arange(self.ncoeff + 1))
        # table(d) rank by rank, for each truncation degree d
        self.ranks = [self._rank_table(d) for d in range(degree + 1)]

        # differentiation maps: index of alpha + e_c and the factor alpha_c + 1
        n_lower = self.nc_level[degree - 1] if degree >= 1 else 0
        self._diff_idx = np.zeros((dim, n_lower), dtype=np.int64)
        self._diff_coef = np.zeros((dim, n_lower))
        for i in range(n_lower):
            a = indices[i]
            for c in range(dim):
                shifted = list(a)
                shifted[c] += 1
                self._diff_idx[c, i] = self.index[tuple(shifted)]
                self._diff_coef[c, i] = a[c] + 1

    def nc_at(self, d: int) -> int:
        return int(self.nc_level[d])

    def table(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs (ia, ib) of a product truncated to degree ``d`` and the
        start of each output index's segment: a prefix of the one table."""
        nc = self.nc_at(d)
        npairs = self._starts[nc]
        return self._ia[:npairs], self._ib[:npairs], self._starts[:nc]

    def _rank_table(self, d: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """The pairs (ia, ib) of ``table(d)`` by rank, and ``tail_outs``.

        Rank k holds the k-th pair of every output index with more than k
        pairs.  Rank 0 has one pair per output, in output order.  From rank
        1 on, outputs are ordered by pair count, most first (``tail_outs``),
        so rank k covers a prefix of them."""
        ia, ib, starts = self.table(d)
        count = np.diff(starts, append=len(ia))
        order = np.argsort(-count, kind="stable")
        ranks = [(ia[starts], ib[starts])]
        for k in range(1, int(count.max())):
            pos = starts[order[: np.count_nonzero(count > k)]] + k
            ranks.append((ia[pos], ib[pos]))
        return ranks, order[: np.count_nonzero(count > 1)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"JetSpace(dim={self.dim}, degree={self.degree})"


@functools.lru_cache(maxsize=None)
def jet_space(dim: int, degree: int) -> JetSpace:
    return JetSpace(dim, degree)


# ---------------------------------------------------------------------------
# raw-coefficient kernels; data has shape tensor_shape + (nc_at(deg),)
# ---------------------------------------------------------------------------


def _diff_data(space: JetSpace, a: np.ndarray, c: int | slice, new_deg: int) -> np.ndarray:
    nc = space.nc_at(new_deg)
    return a[..., space._diff_idx[c, :nc]] * space._diff_coef[c, :nc]


def _sin_coeffs(c: np.ndarray, deg: int, shift: int = 0) -> list[np.ndarray]:
    """Coefficient k is derivative k + shift of sin (the cycle sin, cos,
    -sin, -cos) over k!.  Only the cycle entries that the deg + 1
    coefficients read are computed: degree 0 evaluates sin alone."""
    read = {(k + shift) % 4 for k in range(deg + 1)}
    s = np.sin(c) if read & {0, 2} else None
    co = np.cos(c) if read & {1, 3} else None
    table = [s, co, -s if 2 in read else None, -co if 3 in read else None]
    return [table[(k + shift) % 4] / math.factorial(k) for k in range(deg + 1)]


def _cos_coeffs(c: np.ndarray, deg: int) -> list[np.ndarray]:
    """cos is sin shifted by one derivative: degree 0 evaluates cos alone."""
    return _sin_coeffs(c, deg, shift=1)


def _exp_coeffs(c: np.ndarray, deg: int) -> list[np.ndarray]:
    e = np.exp(c)
    return [e / math.factorial(k) for k in range(deg + 1)]


def _log_coeffs(c: np.ndarray, deg: int) -> list[np.ndarray]:
    if np.any(c <= 0.0):
        raise JetDomainError("log of a jet with non-positive constant term")
    out = [np.log(c)]
    for k in range(1, deg + 1):
        out.append((-1.0) ** (k - 1) / (k * c**k))
    return out


def _sqrt_coeffs(c: np.ndarray, deg: int) -> list[np.ndarray]:
    if np.any(c <= 0.0):
        raise JetDomainError("sqrt of a jet with non-positive constant term")
    out = [np.sqrt(c)]
    for k in range(1, deg + 1):
        out.append(out[-1] * (1.5 - k) / (k * c))
    return out


def _recip_coeffs(c: np.ndarray, deg: int) -> list[np.ndarray]:
    if np.any(c == 0.0):
        raise JetDomainError("division by a jet with zero constant term")
    return [(-1.0) ** k / c ** (k + 1) for k in range(deg + 1)]


# the Taylor coefficients of each function at the constant term c
_TAYLOR_COEFFS = {
    "sin": _sin_coeffs,
    "cos": _cos_coeffs,
    "exp": _exp_coeffs,
    "log": _log_coeffs,
    "sqrt": _sqrt_coeffs,
    "reciprocal": _recip_coeffs,
}


# ---------------------------------------------------------------------------
# jet-valued tensors
# ---------------------------------------------------------------------------

_NUMBERS = (int, float, np.floating, np.integer)


class JetField:
    """A tensor with jet entries: ndarray of shape ``shape + (nc_at(deg),)``.

    ``deg`` is the degree up to which coefficients are valid, and only those
    coefficients are stored: ``deg`` is read from the length of the trailing
    axis, which must be one of the space's prefix lengths ``nc_level``.
    Differentiation lowers ``deg`` by one; binary operations are valid to
    the smaller operand degree and require both operands to live in the
    same ``JetSpace``.  Plain numbers act as constant fields of this field's
    degree.  A shape-() field is a scalar jet.
    """

    __slots__ = ("space", "data", "deg")

    def __init__(self, space: JetSpace, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        deg = space.deg_of_nc.get(data.shape[-1]) if data.ndim else None
        if deg is None:
            raise JetError(
                f"trailing axis must have a length in {space.nc_level.tolist()}, "
                f"got shape {data.shape}"
            )
        self.space = space
        self.data = data
        self.deg = deg

    # -- constructors -------------------------------------------------

    @staticmethod
    def constants(space: JetSpace, values: np.ndarray, deg: int | None = None) -> "JetField":
        values = np.asarray(values, dtype=float)
        field = JetField.zeros(space, values.shape, deg)
        field.data[..., 0] = values
        return field

    @staticmethod
    def zeros(space: JetSpace, shape: tuple[int, ...], deg: int | None = None) -> "JetField":
        deg = space.degree if deg is None else deg
        if not 0 <= deg <= space.degree:
            raise JetError(f"invalid field degree {deg}")
        return JetField(space, np.zeros(shape + (space.nc_at(deg),)))

    @staticmethod
    def variables(space: JetSpace, point: np.ndarray) -> "JetField":
        """Vector of coordinate jets x_i expanded at ``point``, shape
        ``(..., dim)``: a block of points gives the leading axes."""
        point = np.asarray(point, dtype=float)
        if point.shape[-1:] != (space.dim,):
            raise JetError(f"point must have shape (..., {space.dim})")
        data = np.zeros(point.shape + (space.ncoeff,))
        data[..., 0] = point
        if space.degree >= 1:
            units = [space.index[tuple(int(k == i) for k in range(space.dim))] for i in range(space.dim)]
            data[..., range(space.dim), units] = 1.0
        return JetField(space, data)

    # -- accessors ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[:-1]

    @property
    def value(self) -> np.ndarray:
        """Constant terms (the point values)."""
        return self.data[..., 0].copy()

    def entry(self, *idx) -> "JetField":
        """The entry at trailing tensor index ``idx``, leading axes kept."""
        return JetField(self.space, self.data[(Ellipsis, *idx, slice(None))].copy())

    def coeff(self, alpha: tuple[int, ...]) -> np.ndarray:
        """The Taylor coefficient of multi-index ``alpha`` of every entry."""
        i = self.space.index.get(tuple(alpha))
        if i is None or i >= self.data.shape[-1]:
            raise JetError(f"multi-index {alpha} not stored at degree {self.deg}")
        return self.data[..., i].copy()

    def partial(self, alpha: tuple[int, ...]) -> np.ndarray:
        """The partial derivative d^alpha of every entry, i.e. coeff * alpha!."""
        fac = 1.0
        for k in alpha:
            fac *= math.factorial(k)
        return self.coeff(alpha) * fac

    # -- algebra ------------------------------------------------------

    def _binary_deg(self, other: "JetField") -> int:
        if other.space is not self.space:
            raise JetError("jet fields from different spaces")
        return min(self.deg, other.deg)

    def _operand(self, other) -> "JetField | None":
        if isinstance(other, JetField):
            return other
        if isinstance(other, _NUMBERS):
            return JetField.constants(self.space, float(other), self.deg)
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        nc = self.space.nc_at(self._binary_deg(o))
        return JetField(self.space, self.data[..., :nc] + o.data[..., :nc])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        nc = self.space.nc_at(self._binary_deg(o))
        return JetField(self.space, self.data[..., :nc] - o.data[..., :nc])

    def __rsub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return JetField(self.space, -self.data)

    def __mul__(self, other):
        if isinstance(other, _NUMBERS):
            return JetField(self.space, self.data * float(other))
        if isinstance(other, JetField):
            shape = np.broadcast_shapes(self.shape, other.shape)
            a, b = (JetField(f.space, np.broadcast_to(f.data, shape + f.data.shape[-1:])) for f in (self, other))
            return jet_einsum(",->", a, b)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBERS):
            if other == 0:
                raise ZeroDivisionError("jet divided by zero scalar")
            return JetField(self.space, self.data / float(other))
        if isinstance(other, JetField):
            return self * other.fn("reciprocal")
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent):
        """Integer power by square-and-multiply; negative powers divide.

        The result starts at the lowest set bit's square and the squaring
        stops at the highest, so ``x**2`` is one product and ``x**5`` three."""
        if not isinstance(exponent, (int, np.integer)):
            raise JetError("jet exponent must be an integer")
        n = int(exponent)
        if n < 0:
            return 1.0 / self**-n
        if n == 0:
            return JetField.constants(self.space, np.ones(self.shape), self.deg)
        result, acc = None, self
        while True:
            if n & 1:
                result = acc if result is None else result * acc
            n >>= 1
            if not n:
                break
            acc = acc * acc
        # x**1 is a new field, as every other power is
        return JetField(self.space, self.data.copy()) if result is self else result

    def truncate(self, d: int) -> "JetField":
        if not 0 <= d <= self.deg:
            raise JetError(f"cannot truncate a degree-{self.deg} field to degree {d}")
        return JetField(self.space, self.data[..., : self.space.nc_at(d)].copy())

    def diff(self, c: int | slice) -> "JetField":
        """Partial derivative with respect to coordinate ``c``; a slice of
        coordinates stacks their derivatives along a new last tensor axis."""
        if self.deg < 1:
            raise JetError("cannot differentiate a degree-0 jet field")
        return JetField(self.space, _diff_data(self.space, self.data, c, self.deg - 1))

    def grad(self) -> "JetField":
        """Stack of all coordinate derivatives along a new last tensor axis."""
        return self.diff(slice(None))

    def transpose(self, axes: tuple[int, ...]) -> "JetField":
        """Permute the trailing ``len(axes)`` tensor axes; leading axes stay."""
        lead = self.data.ndim - 1 - len(axes)
        full = (*range(lead), *(lead + a for a in axes), self.data.ndim - 1)
        return JetField(self.space, np.transpose(self.data, full))

    def fn(self, name: str) -> "JetField":
        """Apply ``name`` (sin, cos, exp, log, sqrt or reciprocal) entrywise:
        its Taylor series at the constant term, evaluated in Horner form on
        the nilpotent part."""
        coeffs = _TAYLOR_COEFFS[name](self.data[..., 0], self.deg)
        h = JetField(self.space, self.data.copy())
        h.data[..., 0] = 0.0
        out = JetField.constants(self.space, coeffs[self.deg], self.deg)
        for k in range(self.deg - 1, -1, -1):
            out = out * h
            out.data[..., 0] += coeffs[k]
        return out


@functools.lru_cache(maxsize=None)
def _einsum_plan(subscripts: str, rank_a: int, rank_b: int):
    """Lower ``subscripts`` on operands of these ranks (leading axes
    included) to a batched matmul per rank of the pair table.

    Indices group as batch (in both operands and the output), left and
    right (in one operand and the output) and contracted.  Returns the
    leading-axis counts, the group boundaries len(batch), len(batch +
    left) and len(batch + contracted), and the axis orders: coefficient
    first, then leading, then (batch, left, contracted) for ``a`` and
    (batch, contracted, right) for ``b``; ``perm_out`` restores the
    output order from (coefficient, leading, batch, left, right).
    """
    lhs, out = subscripts.split("->")
    s1, s2 = lhs.split(",")
    la, lb = rank_a - len(s1), rank_b - len(s2)
    if min(la, lb) < 0 or not set(out) <= set(s1 + s2) <= set(out) | (set(s1) & set(s2)) or any(
        len(set(s)) < len(s) for s in (s1, s2, out)
    ):
        raise JetError(f"cannot contract {subscripts!r} over tensor ranks {rank_a}, {rank_b}")
    batch = "".join(c for c in out if c in s1 and c in s2)
    left, right = "".join(c for c in out if c not in s2), "".join(c for c in out if c not in s1)
    con = "".join(c for c in s1 if c not in out)
    perm_a = (rank_a, *range(la), *(la + s1.index(c) for c in batch + left + con))
    perm_b = (rank_b, *range(lb), *(lb + s2.index(c) for c in batch + con + right))
    lead = max(la, lb)
    perm_out = (*range(1, lead + 1), *(1 + lead + (batch + left + right).index(c) for c in out), 0)
    return la, lb, len(batch), len(batch + left), len(batch + con), perm_a, perm_b, perm_out


def jet_einsum(subscripts: str, a: JetField, b: JetField) -> JetField:
    """Einstein contraction over tensor axes with jet-coefficient convolution.

    ``subscripts`` addresses the trailing tensor axes only, e.g.
    ``'km,mj->kj'``; every summed index appears in both operands.
    Leading axes are equal in both operands or absent from one, and the
    coefficient axes are handled internally.  The pairs of ``table`` are
    taken rank by rank (``JetSpace.ranks``): each rank is one gather of
    each operand and one batched product, an elementwise multiply when
    the left, contracted and right groups are single entries (as in the
    entrywise product ``",->"``) and a matmul otherwise.  Ranks 1 and up
    add, in order, into a tail that is added to rank 0 last, which is the
    order in which numpy's segment sum adds each output's pairs, so the
    sums are bit-for-bit those of the whole pair table reduced at once.
    (The multiply keeps the sign of a -0.0 product, which a 1x1 matmul
    drops by adding it to +0.0; the values are equal.)
    """
    space = a.space
    if b.space is not space:
        raise JetError("jet fields from different spaces")
    ranks, tail_outs = space.ranks[min(a.deg, b.deg)]
    la, lb, nb, nbl, nbk, perm_a, perm_b, perm_out = _einsum_plan(subscripts, a.data.ndim - 1, b.data.ndim - 1)
    xa, yb = a.data.transpose(perm_a), b.data.transpose(perm_b)
    sx, sy = xa.shape[1 + la :], yb.shape[1 + lb :]  # (batch, left, contracted), (batch, contracted, right)
    nl, nk, nr = math.prod(sx[nb:nbl]), math.prod(sx[nbl:]), math.prod(sy[nbk:])
    xshape, yshape = (-1, math.prod(sx[:nb]), nl, nk), (-1, math.prod(sy[:nb]), nk, nr)
    # a 1x1 matmul is one product: multiply elementwise instead
    mul = np.multiply if nl == nk == nr == 1 else np.matmul

    def rank(k: int) -> np.ndarray:
        ia, ib = ranks[k]
        return mul(xa[ia].reshape(len(ia), *xshape), yb[ib].reshape(len(ib), *yshape))

    prod = rank(0)
    if len(ranks) > 1:
        tail = rank(1)
        for k in range(2, len(ranks)):
            tail[: len(ranks[k][0])] += rank(k)
        prod[tail_outs] += tail
    lead = np.broadcast_shapes(a.shape[:la], b.shape[:lb])
    return JetField(space, prod.reshape((len(prod), *lead, *sx[:nbl], *sy[nbk:])).transpose(perm_out))


def jet_matrix_inverse(a: JetField) -> JetField:
    """Inverse of a square-matrix jet field whose constant part is invertible.

    Writes A = A0 (I - N) with N carrying no constant term, so the Neumann
    series (sum of N^k) A0^{-1} terminates exactly at the field degree.
    """
    m = a.shape[-1]
    if a.shape[-2:] != (m, m):
        raise JetError("matrix inverse requires a square jet field")
    a0 = a.data[..., 0]
    a0inv = np.linalg.inv(a0)
    b = JetField.constants(a.space, a0inv, a.deg)
    eye = JetField.constants(a.space, np.eye(m), a.deg)
    n = eye - jet_einsum("ij,jk->ik", b, a)
    total = eye
    acc = eye
    for _ in range(a.deg):
        acc = jet_einsum("ij,jk->ik", acc, n)
        total = total + acc
    return jet_einsum("ij,jk->ik", total, b)
