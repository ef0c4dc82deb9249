"""Pointwise diagnostics for almost Hermitian structures.

Every harmonicity criterion, curvature coupling and tensor identity of
the intrinsic-torsion framework is evaluated as a named residual: the
norm of a defect tensor, measured in a g-orthonormal frame.  Verdicts
compare residuals against ``tolerance * scale`` where ``scale = 1 +
|xi| + |R|`` at the point, so thresholds stay meaningful across
geometries of very different curvature size.

Two quantities are computed by independent routes and must agree, or
the run aborts: the coderivative d*xi (definition versus the minimal
connection identity) and the skew part of the *-Ricci tensor (curvature
contraction versus its torsion expression).  Biconditional theorems are
exposed as coupled residual pairs; numerics cannot test "if and only
if" directly, so tests assert that both members vanish together.

Conventions follow the rest of the package: R(X,Y) = nabla_[X,Y] -
[nabla_X, nabla_Y], omega(X,Y) = <X, JY>, xi_X = -1/2 J (nabla_X J),
and tensor inner products contract every slot in an orthonormal frame.

``run_diagnostics`` and ``classify_gh`` evaluate the points in chunks,
priced by the rank-3 jets that a chunk memoizes (CHUNK_ENTRIES bounds
its memory).  Each chunk is one object, a
``StructureJets`` of a block of points that also memoizes the frame
arrays the suites share; the suites return one array over the chunk's
points, ``_chunked`` joins each over the chunks into one column per
quantity, and the per-point functions below are chunks of one point.

Kept for the tests only: the theorem checks ``class_criteria``,
``w1w4_laplacian_residual``, ``nearly_kahler_suite`` and
``conformal_example_check``, and ``point_scale`` (the verdict scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exprlang import eval_expr, parse
from .geometry import (
    MIN_JET_DEGREE,
    GeometryError,
    cov_derivative_jets,
    permute,
    point_max,
    rough_laplacian_jets,
)
from .jets import JetField, jet_einsum, jet_space
from .unstruct import (
    AlmostHermitianStructure,
    InternalConventionError,
    StructureJets,
    minimal_derivative_jets,
    standard_j,
)

__all__ = [
    "SECTION_NAMES",
    "IDENTITY_NAMES",
    "CLASS_LABELS",
    "GH_LABELS",
    "ROUTE_NAMES",
    "CoderivativeXi",
    "StarRicci",
    "DiagnosticsReport",
    "coderivative_xi",
    "section_residuals",
    "star_ricci",
    "hermitian_harmonicity",
    "identity_suite",
    "class_criteria",
    "w1w4_laplacian_residual",
    "nearly_kahler_suite",
    "conformal_example_check",
    "classify_gh",
    "gh_label",
    "point_scale",
    "run_diagnostics",
]

# Independent computation routes must agree this closely (times scale).
ROUTE_TOL = 1e-8

# The theorem checks' hypotheses and verdicts hold within this (times scale).
THEOREM_TOL = 1e-6

# Points evaluated together: about this many entries of a rank-3 jet at
# one degree below MIN_JET_DEGREE, the degree a chunk evaluates (dim^3
# entries of nc_at(MIN_JET_DEGREE - 1) coefficients) per chunk.  Most of
# a chunk's memo is in that layout (Gamma, Gamma + xi, nabla J, nabla
# omega and xi), at about 80 to 106 bytes per entry from dim 8 to dim 2,
# so a chunk holds 560 points at dim 2, 28 at dim 4 (960 entries each),
# 4 at dim 6 and 1 at dim 8; every catalog geometry's chunk memo stays
# below 3 MB (1.84 to 2.86 MB, test_chunk_memo_is_bounded), and building
# the columns of one chunk of hopf n=2, s6 or flat n=1 peaks below 3.75
# MB of allocations (3.38, 2.91 and 3.58 MB; test_chunk_peak_is_bounded).
# The bound holds only while a chunk drops riem, keeps g^{-1} one degree
# short, sums its covariant derivatives and curvature in place and
# builds Ric* before the split of xi (BENCH_chunk_lean.json).
CHUNK_ENTRIES = 28 * 960

SECTION_NAMES = (
    "harmonic",
    "harmonic_map",
    "vert_geodesic",
    "horiz_geodesic",
    "flatness",
    "superflat",
    "torsion_iv_a",
    "torsion_iv_b",
)

IDENTITY_NAMES = (
    "d2omega_combination",
    "lee_form_w4_derivative",
    "rough_laplacian_omega",
    "star_ricci_divergence",
)

CLASS_LABELS = ("W1+W2+W4", "W1+W2", "W2+W4", "W1+W4", "W3+W4", "W1+W2-map")

GH_LABELS = ("W1", "W2", "W3", "W4")

# independent-route disagreements kept per point (DiagnosticsReport.routes)
ROUTE_NAMES = (
    "coderivative_route_gap",
    "coderivative_uperp_defect",
    "star_ricci_route_gap",
)

# The reported 3-form norm |Psi|^2 is calibrated so a unit 6-sphere
# gives 144; the plain all-slot contraction of the same components
# gives 6 there, hence the factor 24.
PSI_NORM_CALIBRATION = 24.0

# The conformal closed form normalizes the endomorphism pairing
# <xi_{e_i}, R(e_i, X)> so that the quoted 16 e^f prefactor holds; the
# plain all-component pairing is exactly 4 times that for every f, n
# and point, so the comparison divides by 4.
HARMONIC_MAP_FORM_CALIBRATION = 4.0


def _fro(a: np.ndarray, lead: int = 1) -> np.ndarray:
    """Frobenius norm over every axis after the ``lead`` point axes."""
    a = np.asarray(a)
    return np.sqrt(np.sum(a**2, axis=tuple(range(lead, a.ndim))))


class _PointData(StructureJets):
    """The jets of a chunk of points with the diagnostics' frame arrays.

    Everything added here is plain numpy in the orthonormal frames of
    ``framepack``, one leading axis over the chunk's points, so residual
    norms do not depend on the chart or the frame.  Each derived
    quantity is built once, on first use, like the jets; the suites
    return one value per point.
    """

    def __init__(self, structure: AlmostHermitianStructure, points: np.ndarray):
        super().__init__(structure, points)
        # the frame layer's checks run before the curvature's
        self.j_frame, self.xi_frame, self.lee_frame
        # rflat frame: RF[x, y, z, w] = <R(e_x, e_y) e_z, e_w>
        self.RF = self.framepack.to_frame(self.curv.rflat.value, "dddd")
        self.scale = 1.0 + _fro(self.xi_frame) + _fro(self.RF)
        # an infinite scale would pass every residual
        self.fail(~np.isfinite(self.scale), GeometryError, "torsion and curvature norms overflow float64")

    def check_route(self, gap: np.ndarray, what: str) -> None:
        """Two routes to one quantity agree within ROUTE_TOL * scale."""
        self.fail(gap > ROUTE_TOL * self.scale, InternalConventionError, what)

    @cached_property
    def F(self) -> np.ndarray:
        """nabla xi frame: F[k, s, a, c] = <(nabla_{e_c} xi)_{e_s} e_a, e_k>."""
        return self.framepack.to_frame(self.nabla_xi.value, "uddd")

    @cached_property
    def minimal_xi(self) -> np.ndarray:
        """G[k, s, a, c] = <(nabla^{U(n)}_{e_c} xi)_{e_s} e_a, e_k>."""
        # only the value is read, so xi to first order suffices
        jets = minimal_derivative_jets(self.xi.truncate(1), "udd", self)
        return self.framepack.to_frame(jets.value, "uddd")

    @cached_property
    def component_norms(self) -> np.ndarray:
        return np.stack([_fro(c) for c in self.gh_frame], axis=-1)

    @cached_property
    def coderivative(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """d*xi by definition, checked against the minimal-connection route;
        with the route gap and the u(n) defect of each point."""
        d1 = -np.einsum("...kiyi->...ky", self.F)
        d2 = -np.einsum("...kiyi->...ky", self.minimal_xi) - self.lee_endo()
        gap = point_max(d1 - d2, 1)
        self.check_route(gap, "d*xi routes disagree")
        # membership in u(n)-perp: the J-commuting half must vanish
        u_def = point_max(0.5 * (d1 - self.j_frame @ d1 @ self.j_frame), 1)
        self.check_route(u_def, "d*xi has a u(n) component")
        return d1, gap, u_def

    @cached_property
    def harmonic_map_form(self) -> np.ndarray:
        """Frame components of the one-form <xi_{e_i}, R(e_i, X)>."""
        return np.einsum("...ikm,...ixmk->...x", self.xi_frame, self.RF)

    @cached_property
    def rperp(self) -> np.ndarray:
        """u(n)-perp part of the curvature endomorphisms R(e_x, e_y)."""
        # endo matrix of R(e_x, e_y): entries [k, m] = <R e_m, e_k>
        rend = permute(self.RF, (0, 1, 3, 2))
        return 0.5 * (rend + np.einsum("...ka,...xyab,...bm->...xykm", self.j_frame, rend, self.j_frame))

    @cached_property
    def star_ricci_frame(self) -> np.ndarray:
        """Ric* by contracting the frame curvature."""
        return np.einsum("...xicd,...cy,...di->...xy", self.RF, self.j_frame, self.j_frame)

    @cached_property
    def star_ricci_field(self) -> JetField:
        """Ric* as a coordinate jet field (degree limited by curvature)."""
        # the first rank-4 product is freed before the last
        t2 = jet_einsum("xayd,db->xayb", jet_einsum("xacd,cy->xayd", self.curv.rflat, self.J), self.J)
        return jet_einsum("ab,xayb->xy", self.ginv, t2)

    def lee_endo(self) -> np.ndarray:
        """Matrix of xi_{xi_{e_i} e_i} in the frame."""
        return np.einsum("...a,...akm->...km", self.lee_frame, self.xi_frame)

    @cached_property
    def laplacian_j(self) -> np.ndarray:
        lap_j = rough_laplacian_jets(self.nabla_J, "ud", self.gamma, self.ginv)
        return self.framepack.to_frame(lap_j.value, "ud")

    @cached_property
    def laplacian_omega(self) -> np.ndarray:
        lap_om = rough_laplacian_jets(self.nabla_omega, "dd", self.gamma, self.ginv)
        lo = self.framepack.to_frame(lap_om.value, "dd")
        # (nabla*nabla omega)(X, Y) = <X, (nabla*nabla J) Y>
        self.check_route(point_max(lo - self.laplacian_j, 1), "rough Laplacians of omega and J disagree")
        return lo


def _point_data(structure: AlmostHermitianStructure, p) -> _PointData:
    """A chunk of the one point ``p``: the per-point functions read index 0."""
    return _PointData(structure, np.asarray(p, dtype=float)[None])


def _chunk_size(structure: AlmostHermitianStructure) -> int:
    """Points per chunk, at least one: CHUNK_ENTRIES entries of a rank-3
    jet of degree MIN_JET_DEGREE - 1, the layout of Gamma and xi: 560
    points at dim 2, 28 at dim 4, 4 at dim 6 and 1 at dim 8, holding at
    most 2.86 MB and peaking at 3.58 MB (flat n=1)."""
    ncoeff = jet_space(structure.dim, MIN_JET_DEGREE).nc_at(MIN_JET_DEGREE - 1)
    return max(1, CHUNK_ENTRIES // (structure.dim**3 * ncoeff))


def _chunked(structure: AlmostHermitianStructure, points, evaluate) -> dict[str, np.ndarray]:
    """``evaluate`` on each chunk of points; each array it returns is
    joined over the chunks in point order.

    A chunk that fails is evaluated again one point at a time, so the
    error raised is the one of the first failing point in point order.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) == 0:
        raise ValueError("diagnostics need at least one point")
    size = _chunk_size(structure)
    parts = []
    for start in range(0, len(points), size):
        block = points[start : start + size]
        try:
            parts.append(evaluate(_PointData(structure, block)))
        except Exception:
            if len(block) > 1:
                for p in block:
                    evaluate(_point_data(structure, p))
            raise
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def point_scale(structure: AlmostHermitianStructure, p) -> float:
    """1 + |xi| + |R| at the point; residual tolerances multiply this."""
    return float(_point_data(structure, p).scale[0])


# -- coderivative ----------------------------------------------------------


@dataclass(frozen=True)
class CoderivativeXi:
    """d*xi at a point, in frame components.

    ``value[k, y] = <d*xi (e_y), e_k>`` from the definition
    d*xi(X) = -(nabla_{e_i} xi)_{e_i} X.  ``route_gap`` is the
    disagreement with the minimal-connection route and ``uperp_defect``
    the size of the J-commuting (u(n)) part; both must be tiny.
    """

    value: np.ndarray
    route_gap: float
    uperp_defect: float

    @property
    def norm(self) -> float:
        return float(_fro(self.value, 0))


def coderivative_xi(structure: AlmostHermitianStructure, p) -> CoderivativeXi:
    """d*xi computed two ways with a built-in agreement check."""
    pd = _point_data(structure, p)
    d1, gap, u_def = pd.coderivative
    return CoderivativeXi(value=d1[0], route_gap=float(gap[0]), uperp_defect=float(u_def[0]))


# -- section residuals ------------------------------------------------------


def _section_residuals(pd: _PointData) -> dict[str, np.ndarray]:
    xiF, RF, F = pd.xi_frame, pd.RF, pd.F

    harmonic = _fro(pd.coderivative[0])

    # Sup over unit X of |<xi_{e_i}, R(e_i, X)>|, the l2 norm in an
    # orthonormal frame.
    harmonic_map = _fro(pd.harmonic_map_form)

    # A[x, y, k, m] = <(nabla_{e_x} xi)_{e_y} e_m, e_k>
    a = permute(F, (3, 1, 0, 2))
    sym = a + permute(a, (1, 0, 2, 3))
    vert = _fro(sym)

    t3 = np.einsum("...xkm,...yzmk->...xyz", xiF, RF)
    horiz = _fro(t3 + permute(t3, (1, 0, 2)))

    flatness = _fro(pd.rperp)

    superflat = _fro(-0.5 * (sym + pd.rperp))

    # Torsion criteria.  The exact trace identity (D - D^T) + A = -2 (d*xi)b
    # with D[u,z] = sum_i <(nabla_{e_i}T)(e_i,e_z), e_u> couples both
    # residuals to harmonicity; the d*T endomorphism contributes through
    # its skew part only, so that is the reported defect.
    # nabla T = nabla xi - (nabla xi) with its two form slots swapped
    ft = F - permute(F, (0, 2, 1, 3))
    # Sup over unit X, Y: the spectral norm of the bilinear trace form.
    iv_a = np.linalg.norm(np.einsum("...ixyi->...xy", ft), 2, axis=(-2, -1))
    dt = -np.einsum("...kixi->...kx", ft)
    iv_b = _fro(0.5 * (dt - permute(dt, (1, 0))))

    return {
        "harmonic": harmonic,
        "harmonic_map": harmonic_map,
        "vert_geodesic": vert,
        "horiz_geodesic": horiz,
        "flatness": flatness,
        "superflat": superflat,
        "torsion_iv_a": iv_a,
        "torsion_iv_b": iv_b,
    }


def section_residuals(structure: AlmostHermitianStructure, p) -> dict[str, float]:
    """The eight named section residuals of the energy-critical theory.

    ``harmonic`` is |d*xi|; ``harmonic_map`` the sup of the one-form
    <xi_{e_i}, R(e_i, X)>; ``vert_geodesic`` / ``horiz_geodesic`` /
    ``superflat`` measure the corresponding geodesic and flatness
    defects of the section; ``flatness`` is |R(X,Y)_{u(n)-perp}|;
    ``torsion_iv_{a,b}`` restate harmonicity through the torsion
    T(X,Y) = xi_X Y - xi_Y X of the minimal connection.
    """
    return _first(_section_residuals(_point_data(structure, p)))


def _first(columns: dict[str, np.ndarray]) -> dict[str, float]:
    """The values of the first point of per-point columns."""
    return {name: float(values[0]) for name, values in columns.items()}


# -- *-Ricci ----------------------------------------------------------------


@dataclass(frozen=True)
class StarRicci:
    """The *-Ricci tensor Ric*(X,Y) = <R(X, e_i) JY, Je_i> at a point.

    ``ric_star`` is the ``(dim, dim)`` array of covariant coordinate
    components; ``sym``/``alt`` are the symmetric (Hermitian) and skew
    (anti-Hermitian) parts in the frame.
    ``route_gap`` is the checked disagreement between the curvature
    contraction and the torsion expression for the skew part.
    """

    ric_star: np.ndarray
    s_star: float
    sym: np.ndarray
    alt: np.ndarray
    route_gap: float


def _star_ricci(pd: _PointData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ric* in the frame, its skew part and the skew part's route gap."""
    ric = pd.star_ricci_frame
    jf, xiF = pd.j_frame, pd.xi_frame
    # Hermitian symmetry Ric*(JX, JY) = Ric*(Y, X) is a theorem; treat
    # violation as an internal layout bug.
    twisted = np.einsum("...ax,...by,...ab->...xy", jf, jf, ric)
    pd.check_route(point_max(twisted - permute(ric, (1, 0)), 1), "Ric*(JX,JY) = Ric*(Y,X) fails")
    alt = 0.5 * (ric - permute(ric, (1, 0)))

    # independent route for the skew part through the minimal connection
    jell = np.einsum("...km,...m->...k", jf, pd.lee_frame)
    m1 = np.einsum("...a,...akm->...km", jell, xiF)
    term1 = -np.einsum("...ym,...mx->...xy", m1, jf)
    term2 = np.einsum("...si,...ax,...ysai->...xy", jf, jf, pd.minimal_xi)
    gap = point_max(alt - (term1 + term2), 1)
    pd.check_route(gap, "Ric*_alt routes disagree")
    return ric, alt, gap


def star_ricci(structure: AlmostHermitianStructure, p) -> StarRicci:
    """Ric* with the built-in cross-check on its skew part."""
    pd = _point_data(structure, p)
    ric, alt, gap = _star_ricci(pd)
    return StarRicci(
        ric_star=pd.framepack.from_frame(ric, "dd")[0],
        s_star=float(np.trace(ric[0])),
        sym=0.5 * (ric[0] + ric[0].T),
        alt=alt[0],
        route_gap=float(gap[0]),
    )


# -- Hermitian Laplacian criteria --------------------------------------------


def _hermitian_harmonicity(pd: _PointData) -> dict[str, np.ndarray]:
    jf, xiF = pd.j_frame, pd.xi_frame
    lo, lj = pd.laplacian_omega, pd.laplacian_j
    comm = jf @ lj - lj @ jf

    herm = np.einsum("...ax,...by,...ab->...xy", jf, jf, lo) - lo

    pairing = np.einsum("...ikx,...km,...imy->...xy", xiF, jf, xiF)
    cond_iv = lo + 4.0 * pairing

    return {
        "comm_JLapJ": _fro(comm),
        "herm_defect": _fro(herm),
        "cond_iv": _fro(cond_iv),
    }


def hermitian_harmonicity(structure: AlmostHermitianStructure, p) -> dict[str, float]:
    """Laplacian-based harmonicity criteria.

    ``comm_JLapJ`` = |[J, nabla*nabla J]|, ``herm_defect`` measures
    whether nabla*nabla omega is Hermitian, and ``cond_iv`` is the
    defect of nabla*nabla omega(X,Y) = -4 omega(xi_{e_i} X, xi_{e_i} Y).
    The three vanish together, and exactly when |d*xi| does.
    """
    return _first(_hermitian_harmonicity(_point_data(structure, p)))


# -- tensor identities --------------------------------------------------------


def _act_on_form(endo: np.ndarray, form: np.ndarray) -> np.ndarray:
    """Derivation action of an endomorphism on a (0,2) tensor:
    (A T)(Y, Z) = -T(AY, Z) - T(Y, AZ)."""
    return -(np.einsum("...kx,...ky->...xy", endo, form) + np.einsum("...ky,...xk->...xy", endo, form))


def _lee_dexterior_anti(pd: _PointData) -> np.ndarray:
    """dl(X, Y) - dl(JX, JY) in the frame, dl the exterior derivative of
    the Lee form."""
    ell_flat = jet_einsum("ky,k->y", pd.g, pd.lee_field)
    dal = ell_flat.grad().value  # dal[c, x] = d_x (ell_flat)_c
    dl = pd.framepack.to_frame(permute(dal, (1, 0)) - dal, "dd")
    return dl - np.einsum("...ax,...by,...ab->...xy", pd.j_frame, pd.j_frame, dl)


def _gh_trace_terms(pd: _PointData) -> list[np.ndarray]:
    """A_k[x, y] = <(nabla^{U(n)}_{e_i} xi_{(k)})_{e_i} e_x, e_y> for
    k = 1, 3, 4, the components the identities read."""
    xi1, _, xi3, xi4 = pd.gh_fields
    out = []
    for comp in (xi1, xi3, xi4):
        gk = pd.framepack.to_frame(minimal_derivative_jets(comp, "udd", pd).value, "uddd")
        out.append(np.einsum("...yixi->...xy", gk))
    return out


def _identity_suite(pd: _PointData) -> dict[str, np.ndarray]:
    n, xiF, ell = pd.n, pd.xi_frame, pd.lee_frame
    if n == 1:
        # xi vanishes identically in complex dimension one
        return {name: np.zeros(pd.scale.shape) for name in IDENTITY_NAMES}

    # (d) divergence identity for Ric* and the *-scalar curvature, first:
    # its rank-4 Ric* products run before the chunk holds the split of xi
    res_d = _fro(_star_ricci_divergence_defect(pd))

    xi1F, xi2F, xi3F, xi4F = pd.gh_frame
    a1, a3, a4 = _gh_trace_terms(pd)

    # (a) the ten-term combination forced by d^2 omega = 0
    b1 = np.einsum("...xci,...icy->...xy", xi3F, xi1F)
    b2 = np.einsum("...xci,...icy->...xy", xi3F, xi2F)
    ell4 = np.einsum("...iki->...k", xi4F)
    c1 = np.einsum("...a,...ayx->...xy", ell4, xi1F)
    c2 = np.einsum("...a,...ayx->...xy", ell4, xi2F)
    c3 = np.einsum("...a,...ayx->...xy", ell4, xi3F)
    combo = (
        3.0 * a1
        - a3
        + (n - 2.0) * a4
        + (b1 - permute(b1, (1, 0)))
        + (b2 - permute(b2, (1, 0)))
        - ((n - 5.0) / (n - 1.0)) * c1
        - ((n - 2.0) / (n - 1.0)) * c2
        + c3
    )
    res_a = _fro(combo)

    # (b) trace of the minimal derivative of the W4 part against the
    # exterior derivative of the Lee form
    dl_anti = _lee_dexterior_anti(pd)
    c1f = np.einsum("...a,...ayx->...xy", ell, xi1F)
    c2f = np.einsum("...a,...ayx->...xy", ell, xi2F)
    res_b = _fro(2.0 * (n - 1.0) * a4 - (dl_anti - 4.0 * c1f + 2.0 * c2f))

    # (c) rough Laplacian of omega through the minimal connection
    lo = pd.laplacian_omega
    omf = pd.j_frame  # omega(e_x, e_y) = <e_x, J e_y> is the frame matrix of J
    d_endo = np.einsum("...kimi->...km", pd.minimal_xi)
    rhs = _act_on_form(d_endo, omf) + _act_on_form(pd.lee_endo(), omf)
    for i in range(pd.dim):
        rhs -= _act_on_form(xiF[:, i], _act_on_form(xiF[:, i], omf))
    res_c = _fro(lo - rhs)

    return {
        "d2omega_combination": res_a,
        "lee_form_w4_derivative": res_b,
        "rough_laplacian_omega": res_c,
        "star_ricci_divergence": res_d,
    }


def _star_ricci_divergence_defect(pd: _PointData) -> np.ndarray:
    jf, xiF = pd.j_frame, pd.xi_frame
    ric = pd.framepack.to_frame(pd.star_ricci_field.value, "dd")
    pd.check_route(point_max(ric - pd.star_ricci_frame, 1), "Ric* jet field disagrees with frame route")

    k = np.einsum("...ai,...akb,...bm->...ikm", jf, xiF, jf)
    t1 = 2.0 * np.einsum("...ixmk,...ikm->...x", pd.RF, k)
    t2 = -4.0 * np.einsum("...xy,...y->...x", ric, pd.lee_frame)
    t3 = 4.0 * np.einsum("...ib,...xbi->...x", ric, xiF)
    return _divergence_pair(pd) - (t1 + t2 + t3)


def identity_suite(structure: AlmostHermitianStructure, p) -> dict[str, float]:
    """Residuals of four tensor identities that hold on every almost
    Hermitian manifold; any sizeable value indicates an implementation
    bug, not a geometric property."""
    return _first(_identity_suite(_point_data(structure, p)))


# -- classification-restricted criteria ---------------------------------------


def _class_requirements(label: str, n: int) -> tuple[tuple[int, ...], str | None]:
    """Indices of Gray-Hervella components that must vanish, plus an
    optional reason the label cannot apply at all."""
    required = {
        "W1+W2+W4": (2,),
        "W1+W2": (2, 3),
        "W2+W4": (0, 2),
        "W1+W4": (1, 2),
        "W3+W4": (0, 1),
        "W1+W2-map": (2, 3),
    }
    if label not in required:
        raise ValueError(f"unknown class label {label!r}; use one of {CLASS_LABELS}")
    if label == "W1+W4" and n == 2:
        return required[label], "criterion undefined for n = 2"
    return required[label], None


def class_criteria(structure: AlmostHermitianStructure, p, label: str) -> dict:
    """Harmonicity criterion restricted to a Gray-Hervella class.

    Returns the left-minus-right residual of the class equivalence
    together with the matching coderivative residual, so the
    biconditional is testable: both small or both large.  When the
    structure is not numerically of the stated class at ``p`` (or the
    criterion excludes the dimension) the record is marked
    inapplicable instead of passing silently.
    """
    pd = _point_data(structure, p)
    n, ell, xiF = pd.n, pd.lee_frame, pd.xi_frame
    must_vanish, reason = _class_requirements(label, n)
    norms = pd.component_norms[0]
    if reason is None:
        bad = [GH_LABELS[i] for i in must_vanish if norms[i] > THEOREM_TOL * pd.scale[0]]
        if bad:
            reason = f"structure has {'+'.join(bad)} torsion above tolerance"
    record = {
        "label": label,
        "applicable": reason is None,
        "reason": reason,
        "criterion": None,
        "harmonic": float(_fro(pd.coderivative[0])[0]),
        "harmonic_map": float(_fro(pd.harmonic_map_form)[0]),
    }
    if reason is not None:
        return record

    _, alt, _ = _star_ricci(pd)
    xi1F = pd.gh_frame[0]
    cf = np.einsum("...a,...ayx->...xy", ell, xiF)
    c1f = np.einsum("...a,...ayx->...xy", ell, xi1F)
    c2f = np.einsum("...a,...ayx->...xy", ell, pd.gh_frame[1])

    if label == "W1+W2+W4":
        dl_anti = _lee_dexterior_anti(pd)
        defect = (n - 1.0) * alt - (dl_anti + 2.0 * (n - 3.0) * c1f + 2.0 * n * c2f)
    elif label == "W1+W2":
        defect = alt
    elif label == "W2+W4":
        defect = (n - 1.0) * alt - 2.0 * n * cf
    elif label == "W1+W4":
        defect = (n - 1.0) * (n - 5.0) * alt - 2.0 * (n + 1.0) * (n - 3.0) * cf
    elif label == "W3+W4":
        defect = alt + 2.0 * cf
    else:  # W1+W2-map: Ric* symmetric and 2 d*Ric* + ds* = 0
        div = _divergence_pair(pd)
        defect = np.concatenate([alt.reshape(len(alt), -1), div], axis=1)
    record["criterion"] = float(_fro(defect)[0])
    return record


def _divergence_pair(pd: _PointData) -> np.ndarray:
    """Frame components of 2 d*(Ric*^t) + ds*."""
    ric_field = pd.star_ricci_field.truncate(1)  # only first derivatives are read
    nt = pd.framepack.to_frame(
        cov_derivative_jets(ric_field.transpose((1, 0)), "dd", pd.gamma).value, "ddd"
    )
    dstar_rt = -np.einsum("...ixi->...x", nt)
    s_field = jet_einsum("xy,xy->", pd.ginv, ric_field)
    ds = pd.framepack.to_frame(s_field.grad().value, "d")
    return 2.0 * dstar_rt + ds


def w1w4_laplacian_residual(structure: AlmostHermitianStructure, p) -> dict:
    """Six-dimensional W1+W4 formula for the rough Laplacian of omega:
    nabla*nabla omega(X,Y) = 4 <X ,| Psi, JY ,| Psi> +
    (1/(4(n-1)^2)) d*omega ^ J d*omega (X,Y), with Psi the 3-form of
    the W1 part.  Requires dim 6, W1+W4 torsion, and a harmonic
    structure; otherwise marked inapplicable."""
    pd = _point_data(structure, p)
    record = {"applicable": False, "reason": None, "residual": None}
    if pd.dim != 6:
        record["reason"] = "formula is specific to six dimensions"
        return record
    norms, scale = pd.component_norms[0], pd.scale[0]
    bad = [GH_LABELS[i] for i in (1, 2) if norms[i] > THEOREM_TOL * scale]
    if bad:
        record["reason"] = f"structure has {'+'.join(bad)} torsion above tolerance"
        return record
    harmonic = _fro(pd.coderivative[0])[0]
    if harmonic > THEOREM_TOL * scale:
        record["reason"] = "structure is not harmonic at the point"
        return record

    n, jf = pd.n, pd.j_frame[0]
    psi = np.transpose(pd.gh_frame[0][0], (0, 2, 1))
    term1 = 4.0 * np.einsum("xbc,ay,abc->xy", psi, jf, psi)
    dstar_om = pd.dstar_omega[0]
    j_dstar = -jf.T @ dstar_om
    term2 = (np.outer(dstar_om, j_dstar) - np.outer(j_dstar, dstar_om)) / (4.0 * (n - 1.0) ** 2)
    lo = pd.laplacian_omega[0]
    record["applicable"] = True
    record["residual"] = float(_fro(lo - term1 - term2, 0))
    return record


# -- nearly Kahler suite -------------------------------------------------------


def nearly_kahler_suite(structure: AlmostHermitianStructure, p) -> dict:
    """Curvature identities specific to nearly Kahler manifolds.

    Inapplicable unless the torsion is pure W1 at the point.  Reports
    the defects of the Gray curvature identities, the parallelism of
    xi under the minimal connection, the u(n)-perp curvature pairing
    with |xi_X Y|^2, the flat-implies-Kahler implication, and the
    calibrated norm of the torsion 3-form together with the residual
    of nabla*nabla omega = 4 alpha omega.
    """
    pd = _point_data(structure, p)
    xiF, jf, RF, scale = pd.xi_frame[0], pd.j_frame[0], pd.RF[0], pd.scale[0]
    norms = pd.component_norms[0]
    impurity = float(np.sqrt(max(np.sum(norms[1:] ** 2), 0.0)))
    record: dict = {"applicable": bool(impurity < THEOREM_TOL * scale), "reason": None}
    if not record["applicable"]:
        record["reason"] = "torsion is not pure W1 at the point"
        return record

    idx = np.arange(pd.dim)
    rxyxy = RF[idx[:, None], idx[None, :], idx[:, None], idx[None, :]]
    rjj = np.einsum("ax,by,xyab->xy", jf, jf, RF)
    xi_sq = np.einsum("xky,xky->xy", xiF, xiF)
    record["ecxy"] = float(np.abs(rxyxy - rjj - 4.0 * xi_sq).max())

    rj4 = np.einsum("abcd,ax,by,cz,dw->xyzw", RF, jf, jf, jf, jf)
    record["ecjxjy"] = float(_fro(rj4 - RF, 0))

    rzw_j = np.einsum("xycd,cz,dw->xyzw", RF, jf, jf)
    pair = np.einsum("xky,zkw->xyzw", xiF, xiF)
    record["ecxyzw"] = float(_fro(RF - rzw_j - 4.0 * pair, 0))

    record["minimal_parallel"] = float(_fro(pd.minimal_xi[0], 0))

    rperp = pd.rperp[0]
    skew_pair = rperp[idx[:, None], idx[None, :], idx[None, :], idx[:, None]]
    record["curvature_skew"] = float(np.abs(skew_pair - 2.0 * xi_sq).max())

    flatness = float(_fro(rperp, 0))
    xi_norm = float(_fro(xiF, 0))
    record["flatness"] = flatness
    record["xi_norm"] = xi_norm
    record["flat_implies_kahler"] = bool(flatness >= THEOREM_TOL * scale or xi_norm < THEOREM_TOL * scale)

    plain = float(np.sum(xiF**2))
    record["psi_norm_sq_plain"] = plain
    record["psi_norm_sq"] = PSI_NORM_CALIBRATION * plain

    alpha = float(pd.curv.scalar.value[0]) / (5.0 * pd.dim)
    record["einstein_alpha"] = alpha
    lo = pd.laplacian_omega[0]
    record["laplacian_collinear"] = float(_fro(lo - 4.0 * alpha * jf, 0))
    return record


# -- conformal closed form ------------------------------------------------------


def conformal_example_check(n: int, f_src: str, p, structure: AlmostHermitianStructure) -> dict:
    """Harmonic-map one-form of a conformally flat structure against its
    closed form.

    For the metric e^f delta with the standard J, the one-form
    4 e^f <xi_{e_i}, R(e_i, X)> equals
    -(2n-3)/2 d(|df|^2)(X) + d*(df) df(X) + (nabla_{JX} df)(J grad f),
    with every right-hand quantity taken in the flat metric; ``numeric``
    is the all-component pairing divided by HARMONIC_MAP_FORM_CALIBRATION
    so both sides use the closed form's normalization, ``numeric_raw``
    the uncalibrated pairing.  Returns both one-forms in coordinate
    components plus their difference.  ``structure`` must be the
    conformal structure for the same ``f``.
    """
    pd = _point_data(structure, p)
    if pd.n != n:
        raise ValueError("structure dimension does not match n")
    dim = pd.dim
    p = np.asarray(p, dtype=float)

    numeric_raw = pd.framepack.from_frame(pd.harmonic_map_form, "d")[0]
    numeric = numeric_raw / HARMONIC_MAP_FORM_CALIBRATION

    ff = eval_expr(parse(f_src), p, dim, degree=3)
    grad = ff.grad()
    hess = grad.grad().value
    gvals = grad.value

    jm = standard_j(n)
    d_norm_sq = 2.0 * hess @ gvals
    dstar_df = -float(np.trace(hess))
    third = np.einsum("ab,ax,b->x", hess, jm, jm @ gvals)
    closed = (-(2.0 * n - 3.0) / 2.0 * d_norm_sq + dstar_df * gvals + third) / (
        16.0 * np.exp(ff.value)
    )

    return {
        "numeric": numeric,
        "numeric_raw": numeric_raw,
        "closed_form": closed,
        "residual": float(np.abs(numeric - closed).max()),
        "scale": float(pd.scale[0]),
    }


# -- classification --------------------------------------------------------------


def gh_label(normalized_norms, tol: float) -> str:
    """Join the Gray-Hervella components whose scale-normalized norm
    exceeds ``tol`` ("W1+W4", ...); all below yields "Kahler"."""
    present = [GH_LABELS[i] for i in range(4) if normalized_norms[i] > tol]
    return "+".join(present) if present else "Kahler"


def _norms_and_scale(pd: _PointData) -> dict[str, np.ndarray]:
    return {"component_norms": pd.component_norms, "scale": pd.scale}


def classify_gh(structure: AlmostHermitianStructure, points, tol: float = 1e-6) -> dict:
    """Gray-Hervella class label over a set of points.

    The label is ``gh_label`` of each component's largest
    scale-normalized norm over the points.  The table reports the raw
    maximum norm of each component.
    """
    joined = _chunked(structure, points, _norms_and_scale)
    norms = joined["component_norms"]
    normalized = (norms / joined["scale"][:, None]).max(axis=0)
    return {
        "label": gh_label(normalized, tol),
        "component_norms": dict(zip(GH_LABELS, (float(v) for v in norms.max(axis=0)))),
    }


# -- report assembly --------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport:
    """Everything ``run_diagnostics`` measures, one float64 array per
    quantity over the points, in point order, with two summaries.

    ``columns`` maps each residual name to its values; ``routes`` maps
    each of ROUTE_NAMES to the d*xi route gap, the d*xi u(n) defect and
    the Ric*_alt route gap, each already checked against ROUTE_TOL *
    scale; ``component_norms[i]`` holds the raw norms of xi1..xi4 at
    point i.  ``max_residuals[name]`` is the largest residual over the
    points; ``passes[name]`` is true when the residual stays below
    ``tol * scale`` at every point.
    """

    geometry: str
    columns: dict
    routes: dict
    scale: np.ndarray
    component_norms: np.ndarray
    max_residuals: dict
    passes: dict
    metadata: dict

    @property
    def residuals(self) -> tuple[dict, ...]:
        """Per point, residual name -> value."""
        rows = zip(*(values.tolist() for values in self.columns.values()))
        return tuple(dict(zip(self.columns, row)) for row in rows)

    @property
    def scales(self) -> tuple[float, ...]:
        return tuple(self.scale.tolist())


def _point_columns(pd: _PointData) -> dict[str, np.ndarray]:
    """The residual columns of a chunk, then its routes, scale and
    component norms."""
    columns: dict = {}
    columns.update(_section_residuals(pd))
    columns.update(_hermitian_harmonicity(pd))
    columns.update(_identity_suite(pd))
    _, alt, star_gap = _star_ricci(pd)
    columns["star_ricci_alt_norm"] = _fro(alt)
    columns.update(zip(ROUTE_NAMES, (*pd.coderivative[1:], star_gap)))
    finite = np.isfinite(np.column_stack(list(columns.values()))).all(axis=1)
    pd.fail(~finite, GeometryError, "residuals overflow float64")
    return {**columns, **_norms_and_scale(pd)}


def run_diagnostics(structure: AlmostHermitianStructure, points, tol: float = 1e-6) -> DiagnosticsReport:
    """Evaluate sections, Laplacian criteria and identities pointwise,
    on chunks of points."""
    columns = _chunked(structure, points, _point_columns)
    routes = {name: columns.pop(name) for name in ROUTE_NAMES}
    scale, norms = columns.pop("scale"), columns.pop("component_norms")
    meta = {
        "jet_degree": MIN_JET_DEGREE,
        "sign_audit": "paper-convention",
    }
    return DiagnosticsReport(
        geometry=structure.name,
        columns=columns,
        routes=routes,
        scale=scale,
        component_norms=norms,
        max_residuals={name: float(v.max()) for name, v in columns.items()},
        passes={name: bool(np.all(v < tol * scale)) for name, v in columns.items()},
        metadata=meta,
    )
