"""U(n)-structure layer: almost Hermitian structures and intrinsic torsion.

An almost Hermitian structure is a metric plus a compatible almost
complex structure J, one section of SO(2n)/U(n): one evaluator returns
the jets of both on a block of points.  Its intrinsic torsion is

    xi_X Y = -1/2 J (nabla_X J) Y,

a one-form with values in the skew endomorphisms anti-commuting with J
(the u(n)-perp part of so(2n)).  The minimal U(n)-connection is
``nabla + xi``; its coefficients Gamma + xi are ``minimal_gamma``, laid
out like gamma.  This module computes xi, splits it into the four
Gray-Hervella components once, on the coordinate jets
(``StructureJets.gh_fields``; ``gh_frame`` holds their frame values),
and differentiates tensors with the minimal connection.

Layout conventions:
  * Coordinate jet fields: ``xi[k, x, y]`` is ``(xi_{d_x} d_y)^k``; the
    direction is the middle axis, matching ``gamma[k, i, j]``.
  * Frame arrays (plain numpy at a point): ``xi_frame[a, k, m]`` is
    ``<xi_{e_a} e_m, e_k>``, so ``xi_frame[a]`` is the matrix of the
    skew endomorphism ``xi_{e_a}`` in the orthonormal frame.
  * ``JetField``s and frame arrays of a block of points lead with the
    block's point axes; the layouts above are those of the trailing axes.
  * The Kahler form is ``omega(X, Y) = <X, JY>``; with the standard flat
    structure (J e_1 = e_2) this makes ``omega(e_1, e_2) = -1``.

``random_structure`` is a flat family whose invariants hold exactly as
jets; its J at the grid nodes is the flow's start (``flow.random_grid``).

Kept for the tests only: ``random_curved_structure`` (a curved family
whose invariants hold exactly as jets).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from .geometry import (
    MIN_JET_DEGREE,
    CurvatureJets,
    FramePack,
    GeometryError,
    checked_metric,
    christoffel_jets,
    cov_derivative_jets,
    curvature_jets,
    fail_first,
    permute,
    point_max,
)
from .jets import JetField, jet_einsum, jet_matrix_inverse, jet_space

__all__ = [
    "InternalConventionError",
    "AlmostHermitianStructure",
    "StructureJets",
    "minimal_derivative_jets",
    "random_structure",
    "random_curved_structure",
    "standard_j",
]

CHECK_TOL = 1e-9


class InternalConventionError(AssertionError):
    """A built-in cross-check failed; signals a sign or layout bug."""


def standard_j(n: int) -> np.ndarray:
    """Block-diagonal J_0 with 2x2 blocks [[0, -1], [1, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    for k in range(n):
        j[2 * k, 2 * k + 1] = -1.0
        j[2 * k + 1, 2 * k] = 1.0
    return j


class AlmostHermitianStructure:
    """Metric plus compatible almost complex structure, as one evaluator.

    ``evaluate(points, degree)`` maps a block of points, shape ``(k, 2n)``
    (or one point, ``(2n,)``), to the jet fields ``(g, J)`` of g_{ij} and
    J^i_j to the degree its caller reads, each of shape ``(k, 2n, 2n)``
    (or ``(2n, 2n)``): :class:`StructureJets` asks for MIN_JET_DEGREE,
    the flow start for the values alone.  The metric
    (:func:`checked_metric`) and compatibility (J^2 = -Id and
    <JX, JY> = <X, Y>) are checked point by point in each new
    :class:`StructureJets`.
    """

    def __init__(
        self,
        dim: int,
        evaluate: Callable[[np.ndarray, int], tuple[JetField, JetField]],
        name: str = "",
    ):
        if dim % 2 != 0:
            raise GeometryError("almost Hermitian structures need even dimension")
        self.dim = dim
        self.n = dim // 2
        self.evaluate = evaluate
        self.name = name

    def structure_jets(self, p) -> "StructureJets":
        """A new :class:`StructureJets` at the point or block of points on
        every call; a caller holds that object to reuse the jets."""
        return StructureJets(self, np.asarray(p, dtype=float))


class StructureJets:
    """All jet and frame data of a structure at a block of points, lazily built.

    ``points`` has shape ``(k, dim)``; every jet field and frame array
    leads with that point axis (one point of shape ``(dim,)`` gives
    arrays without it).  Everything downstream (torsion, curvature
    couplings, diagnostics) reads from this object, so each quantity is
    computed once per block.  It is the only memo of jets; two
    instances never share them.  Every check compares against its own
    point's scale and names the first failing point.
    """

    def __init__(self, structure: AlmostHermitianStructure, points: np.ndarray):
        self.structure = structure
        self.points = points
        self.dim = structure.dim
        self.n = structure.n

    def _max(self, a: np.ndarray) -> np.ndarray:
        return point_max(a, self.points.ndim - 1)

    def fail(self, failed, error: type[Exception], message: str) -> None:
        """Raise ``error`` at the first point where ``failed`` holds."""
        fail_first(failed, self.points, error, message)

    @cached_property
    def evaluated(self) -> tuple[JetField, JetField]:
        """The structure's one evaluator call on the block: (g, J) to
        MIN_JET_DEGREE, unchecked."""
        if self.points.shape[-1:] != (self.dim,):
            raise GeometryError(f"point must have shape (..., {self.dim})")
        return self.structure.evaluate(self.points, MIN_JET_DEGREE)

    # -- metric layer ---------------------------------------------------

    @cached_property
    def g(self) -> JetField:
        return checked_metric(self.evaluated[0], self.points)

    @cached_property
    def ginv(self) -> JetField:
        """g^{-1} to degree g.deg - 1, the most any reader uses."""
        return jet_matrix_inverse(self.g.truncate(self.g.deg - 1))

    @cached_property
    def gamma(self) -> JetField:
        return christoffel_jets(self.g, self.ginv)

    @cached_property
    def curv(self) -> CurvatureJets:
        """Curvature jets without ``riem``: nothing reads it after the
        finite check, and ``rflat`` holds the same tensor."""
        c = curvature_jets(self.g, self.gamma, self.ginv)
        self._require_finite("curvature", c.riem, c.rflat, c.ricci, c.scalar)
        c.riem = None
        return c

    def _require_finite(self, what: str, *jets: JetField) -> None:
        # a metric near either end of the float64 range: refused before
        # any cross-route check reads the overflowed jets
        overflow = np.logical_or.reduce([~np.isfinite(self._max(j.data)) for j in jets])
        self.fail(overflow, GeometryError, f"{what} jets overflow float64")

    @cached_property
    def framepack(self) -> FramePack:
        return FramePack(self.g.value)

    # -- J layer --------------------------------------------------------

    @cached_property
    def J(self) -> JetField:
        g1, j = self.g.truncate(1), self.evaluated[1]
        if not isinstance(j, JetField) or j.shape != self.points.shape + (self.dim,):
            raise GeometryError("J evaluator must return a square jet field per point")
        # both checks read the value and first derivatives only
        j1 = j.truncate(1)
        jsq = jet_einsum("ik,kj->ij", j1, j1)
        jsq.data[..., 0] += np.eye(self.dim)
        self.fail(self._max(jsq.data) > 1e-10, GeometryError, "J^2 = -Id fails")
        compat = jet_einsum("ki,kl->il", j1, jet_einsum("kl,lj->kj", g1, j1))
        cgap = self._max(compat.data - g1.data)
        self.fail(cgap > 1e-10 * (1.0 + self._max(self.g.value)), GeometryError,
                   "J is not compatible with the metric")
        return j

    @cached_property
    def omega(self) -> JetField:
        """Kahler form omega_{ij} = g_{ik} J^k_j."""
        return jet_einsum("ik,kj->ij", self.g, self.J)

    @cached_property
    def nabla_J(self) -> JetField:
        return cov_derivative_jets(self.J, "ud", self.gamma)

    @cached_property
    def nabla_omega(self) -> JetField:
        return cov_derivative_jets(self.omega, "dd", self.gamma)

    # -- torsion layer ----------------------------------------------------

    @cached_property
    def xi(self) -> JetField:
        """xi[k, x, y] = (xi_{d_x} d_y)^k = -1/2 (J nabla_{d_x} J)(d_y)^k.

        Cross-validated against 2 <xi_X Y, Z> = -(nabla_X omega)(Y, JZ)
        coefficient by coefficient; disagreement aborts.
        """
        xi = jet_einsum("km,myx->kxy", self.J, self.nabla_J) * (-0.5)
        lhs = jet_einsum("zk,kxy->xyz", self.g, xi) * 2.0
        rhs = jet_einsum("ymx,mz->xyz", self.nabla_omega, self.J) * (-1.0)
        self._require_finite("torsion", xi, lhs, rhs)
        scale = 1.0 + self._max(lhs.data)
        self.fail(self._max(lhs.data - rhs.data) > CHECK_TOL * scale, InternalConventionError,
                   "xi from nabla J disagrees with nabla omega route")
        return xi

    @cached_property
    def minimal_gamma(self) -> JetField:
        """Gamma + xi: the minimal connection's coefficients, laid out like gamma."""
        return self.gamma + self.xi

    @cached_property
    def nabla_xi(self) -> JetField:
        """nabla xi to degree 0: its reader keeps only the value."""
        return cov_derivative_jets(self.xi.truncate(1), "udd", self.gamma)

    @cached_property
    def lee_field(self) -> JetField:
        """Lee vector field xi_{e_i} e_i = g^{xy} xi[., x, y], to first
        order: its readers differentiate it once and keep the value."""
        return jet_einsum("xy,kxy->k", self.ginv, self.xi.truncate(1))

    @cached_property
    def gh_fields(self) -> tuple[JetField, JetField, JetField, JetField]:
        """The Gray-Hervella split of xi, as coordinate jet fields to first
        order, laid out like ``xi``: the package's only split.  Their
        values are ``gh_frame``; the identity suite also differentiates
        them once.  xi4 is the Lee-vector formula
        2(n-1) xi4_X Y = <X,Y> l - <l,Y> X - <JX,Y> Jl + <Jl,Y> JX."""
        space = self.g.space
        xi = self.xi.truncate(1)
        if self.n == 1:
            z = JetField.zeros(space, xi.shape, deg=xi.deg)
            return z, z, z, z
        t1 = jet_einsum("kbc,bx->kxc", xi, self.J)
        p_xi = jet_einsum("kxc,cy->kxy", t1, self.J)
        a_part = (xi - p_xi) * 0.5
        b_part = xi - a_part
        a3 = jet_einsum("zk,kxy->xyz", self.g, a_part)
        psi = (a3 + a3.transpose((1, 2, 0)) + a3.transpose((2, 0, 1))) * (1.0 / 3.0)
        xi1 = jet_einsum("kz,xyz->kxy", self.ginv, psi)
        xi2 = a_part - xi1

        ell = self.lee_field
        jell = jet_einsum("km,m->k", self.J, ell)
        ell_flat = jet_einsum("ky,k->y", self.g, ell)
        jell_flat = jet_einsum("ky,k->y", self.g, jell)
        eye = JetField.constants(space, np.eye(self.dim))
        t_a = jet_einsum("xy,k->kxy", self.g, ell)
        t_b = jet_einsum("y,kx->kxy", ell_flat, eye)
        t_c = jet_einsum("yx,k->kxy", self.omega, jell)  # omega[y, x] = <J d_x, d_y>
        t_d = jet_einsum("y,kx->kxy", jell_flat, self.J)
        xi4 = (t_a - t_b - t_c + t_d) * (1.0 / (2.0 * (self.n - 1)))
        xi3 = b_part - xi4
        return xi1, xi2, xi3, xi4

    # -- frame layer ------------------------------------------------------

    @cached_property
    def j_frame(self) -> np.ndarray:
        return self.framepack.to_frame(self.J.value, "ud")

    @cached_property
    def xi_frame(self) -> np.ndarray:
        """xi_frame[a, k, m] = <xi_{e_a} e_m, e_k>."""
        return permute(self.framepack.to_frame(self.xi.value, "udd"), (1, 0, 2))

    @cached_property
    def dstar_omega(self) -> np.ndarray:
        """Frame components of d*omega = -(nabla_{e_i} omega)(e_i, .)."""
        nom = self.framepack.to_frame(self.nabla_omega.value, "ddd")
        return -np.einsum("...iai->...a", nom)

    @cached_property
    def gh_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The values of ``gh_fields`` in the frame, laid out like ``xi_frame``.

        Cross-check: xi4 (the Lee-vector formula in coordinates) against
        <xi4_X Y, JZ> = -(X_flat ^ d*omega (Y,Z) - JX_flat ^ J d*omega (Y,Z))
        / (4(n-1)), evaluated on the frame with J theta (X) = -theta(JX).
        """
        comps = tuple(permute(self.framepack.to_frame(c.value, "udd"), (1, 0, 2)) for c in self.gh_fields)
        if self.n == 1:
            return comps
        jf, theta = self.j_frame, self.dstar_omega
        jtheta = -np.einsum("...m,...mk->...k", theta, jf)
        eye = np.eye(self.dim)
        b3 = -(
            np.einsum("xy,...z->...xyz", eye, theta)
            - np.einsum("xz,...y->...xyz", eye, theta)
            - np.einsum("...yx,...z->...xyz", jf, jtheta)
            + np.einsum("...zx,...y->...xyz", jf, jtheta)
        ) / (4.0 * (self.n - 1))
        xi4 = permute(-np.einsum("...xyz,...zw->...xyw", b3, jf), (0, 2, 1))
        scale = 1.0 + self._max(self.xi_frame)
        self.fail(self._max(xi4 - comps[3]) > CHECK_TOL * scale, InternalConventionError,
                   "xi4 routes disagree (torsion formula vs Lee-vector expression)")
        return comps

    @cached_property
    def lee_frame(self) -> np.ndarray:
        ell = np.einsum("...aka->...k", self.xi_frame)
        # independent route: 2 xi_{e_i} e_i = -J (d*omega)^sharp
        alt = -0.5 * np.einsum("...km,...m->...k", self.j_frame, self.dstar_omega)
        scale = 1.0 + self._max(ell)
        self.fail(self._max(ell - alt) > CHECK_TOL * scale, InternalConventionError,
                   "Lee vector routes disagree (frame trace vs d*omega)")
        return ell

    @cached_property
    def minimal_connection_validated(self) -> bool:
        """Contract for the sign of ``minimal_gamma``: the minimal connection
        kills g, J and omega.  Checked once per point, then trusted."""
        for t, variance in ((self.g, "dd"), (self.J, "ud"), (self.omega, "dd")):
            nabla_u = cov_derivative_jets(t, variance, self.minimal_gamma)
            self.fail(self._max(nabla_u.data) > CHECK_TOL * (1.0 + self._max(t.data)),
                       InternalConventionError, "minimal connection does not stabilise the structure tensors")
        return True


def minimal_derivative_jets(t: JetField, variance: str, sj: StructureJets) -> JetField:
    """Minimal-connection derivative (nabla + xi) T, direction axis last."""
    sj.minimal_connection_validated
    return cov_derivative_jets(t, variance, sj.minimal_gamma)


# -- structure factories ---------------------------------------------------


def _givens_product(space, point, pairs, params, amplitude) -> JetField:
    """Product of Givens rotations with trigonometric angle fields.

    Each angle is amplitude * sum of unit-frequency sine terms, so the
    rotation field is 2 pi periodic and exactly orthogonal as jets.
    """
    m = space.dim
    x = JetField.variables(space, point)
    q = JetField.constants(space, np.eye(m))
    for (i, j), (coefs, phases) in zip(pairs, params):
        theta = None
        for k in range(m):
            term = (x.entry(k) + float(phases[k])).fn("sin") * float(coefs[k] * amplitude)
            theta = term if theta is None else theta + term
        c, s = theta.fn("cos"), theta.fn("sin")
        factor = JetField.constants(space, np.broadcast_to(np.eye(m), theta.shape + (m, m)))
        factor.data[..., i, i, :] = factor.data[..., j, j, :] = c.data
        factor.data[..., i, j, :] = -s.data
        factor.data[..., j, i, :] = s.data
        q = jet_einsum("ik,kj->ij", q, factor)
    return q


def _rotation_params(rng, m, count):
    pairs = [(k, k + 1) for k in range(m - 1)] + [(0, m - 1)]
    pairs = pairs[:count] if count <= len(pairs) else pairs
    params = [
        (rng.uniform(-1.0, 1.0, size=m), rng.uniform(0.0, 2.0 * np.pi, size=m))
        for _ in pairs
    ]
    return pairs, params


def random_structure(seed: int, n: int, amplitude: float = 0.3) -> AlmostHermitianStructure:
    """Flat metric with J = Q J_0 Q^T for a rotation field Q.

    Q is a product of Givens rotations with 2 pi periodic trigonometric
    angles, so all structure invariants hold exactly as jets; amplitude
    zero gives the flat Kahler structure.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    m = 2 * n
    rng = np.random.default_rng(seed)
    pairs, params = _rotation_params(rng, m, m)
    j0 = standard_j(n)

    def evaluate(p, degree):
        space = jet_space(m, degree)
        q = _givens_product(space, p, pairs, params, amplitude)
        qj = jet_einsum("ik,kj->ij", q, JetField.constants(space, j0))
        # a read-only view: flow.random_grid evaluates a million nodes
        eye = JetField.constants(space, np.eye(m)).data
        g = JetField(space, np.broadcast_to(eye, p.shape[:-1] + eye.shape))
        return g, jet_einsum("ik,jk->ij", qj, q)

    return AlmostHermitianStructure(m, evaluate, name=f"random-flat-{seed}")


def random_curved_structure(
    seed: int,
    n: int,
    amplitude: float = 0.3,
    metric_amplitude: float = 0.25,
) -> AlmostHermitianStructure:
    """Curved compatible pair from a single invertible matrix field A.

    J = A J_0 A^{-1} and g = A^{-T} A^{-1} are compatible for any
    invertible A; here A is a Givens product times a diagonal of
    exponentials, so curvature is generically nonzero while all the
    structure invariants still hold exactly as jets.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    m = 2 * n
    rng = np.random.default_rng(seed)
    pairs, params = _rotation_params(rng, m, m - 1)
    mu_coefs = rng.uniform(-1.0, 1.0, size=(m, m)) * metric_amplitude
    mu_phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, m))
    j0 = standard_j(n)

    def a_jets(space, p):
        q = _givens_product(space, p, pairs, params, amplitude)
        x = JetField.variables(space, p)
        diag = JetField.zeros(space, q.shape)
        for i in range(m):
            mu = None
            for k in range(m):
                term = (x.entry(k) + float(mu_phases[i, k])).fn("sin") * float(mu_coefs[i, k])
                mu = term if mu is None else mu + term
            diag.data[..., i, i, :] = mu.fn("exp").data
        return jet_einsum("ik,kj->ij", q, diag)

    def evaluate(p, degree):
        space = jet_space(m, degree)
        a = a_jets(space, p)
        ainv = jet_matrix_inverse(a)
        aj = jet_einsum("ik,kj->ij", a, JetField.constants(space, j0))
        return jet_einsum("ki,kj->ij", ainv, ainv), jet_einsum("ik,kj->ij", aj, ainv)

    return AlmostHermitianStructure(m, evaluate, name=f"random-curved-{seed}")
