"""Catalog of example geometries with documented expected diagnostics.

Each factory returns a GeometrySpec: the data needed to rebuild the
structure (one evaluator of the jets of g and J, the chart box and an
optional predicate on it) plus metadata recording what the diagnostics
should find.  The test suite asserts the metadata, so the catalog is
self-verifying.

Charts:
  * ``flat`` and ``conformal`` live on R^{2n}; ``conformal`` with
    ``periodic=True`` refuses a factor that is not 2 pi periodic.
  * ``hopf`` is the cylinder metric |z|^{-2} delta on an annulus chart
    of C^n minus the origin; its compact quotient is S^1 x S^{2n-1}.
  * ``s6`` is the round six-sphere inside the imaginary octonions with
    J_p = p x (cross product), on the graph chart p = (x, sqrt(1-|x|^2)).

Canonical structures on 3-symmetric spaces other than the six-sphere
(which are quasi-Kahler with parallel torsion) are not modelled here;
the six-sphere is the built-in representative.

Kept for the tests only: ``octonion_multiply`` and ``cross7`` (the Fano table).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .diagnostics import SECTION_NAMES
from .exprlang import EvalError, Expr, eval_expr, parse
from .geometry import MIN_JET_DEGREE, GeometryError, fail_first
from .jets import MAX_DIM, JetField, jet_einsum, jet_space
from .unstruct import AlmostHermitianStructure, standard_j

__all__ = [
    "GeometrySpec",
    "flat_kahler",
    "conformal",
    "hopf_chart",
    "s6_nearly_kahler",
    "build_structure",
    "sample_points",
    "spec_from_config",
    "octonion_structure_constants",
    "cross7",
    "octonion_multiply",
    "FANO_TRIPLES",
]

# Cayley basis: e_a e_b = e_c with sign +1 for each cyclic rotation of
# these index triples (1-based), -1 for the transpositions.
FANO_TRIPLES = (
    (1, 2, 4),
    (2, 3, 5),
    (3, 4, 6),
    (4, 5, 7),
    (5, 6, 1),
    (6, 7, 2),
    (7, 1, 3),
)


def octonion_structure_constants() -> np.ndarray:
    """Constants f with e_i e_j = -delta_ij + sum_k f[i, j, k] e_k (0-based)."""
    f = np.zeros((7, 7, 7))
    for triple in FANO_TRIPLES:
        a, b, c = (t - 1 for t in triple)
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            f[i, j, k] = 1.0
            f[j, i, k] = -1.0
    return f


_OCT = octonion_structure_constants()


def cross7(x, y) -> np.ndarray:
    """Cross product of imaginary octonions, x x y = (xy - yx)/2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.einsum("ijk,i,j->k", _OCT, x, y)


def octonion_multiply(x, y) -> np.ndarray:
    """Full octonion product; components are (scalar, imaginary part)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (8,) or y.shape != (8,):
        raise ValueError("octonions have eight components")
    out = np.empty(8)
    out[0] = x[0] * y[0] - x[1:] @ y[1:]
    out[1:] = x[0] * y[1:] + y[0] * x[1:] + cross7(x[1:], y[1:])
    return out


@dataclass(frozen=True)
class GeometrySpec:
    """Recipe for one catalog geometry.

    ``jets(p, degree)``, the evaluator of its structure, returns the jets
    of g and of J at a block of points, to the degree its caller reads,
    from one evaluation.  ``domain`` is a box of per-coordinate (lo, hi)
    bounds; ``inside(p)``, when set, keeps only the sample points of the
    box where it holds.  ``metadata``
    holds expected diagnostics: the class label and which section
    residuals should vanish or stay visibly nonzero.
    """

    name: str
    n: int
    jets: Callable[[np.ndarray, int], tuple[JetField, JetField]]
    inside: Callable[[np.ndarray], bool] | None = None
    conformal_factor: Expr | None = None
    domain: tuple[tuple[float, float], ...] = ()
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise GeometryError("n must be at least 1")
        if len(self.domain) != self.dim:
            raise GeometryError("domain box must have one (lo, hi) pair per coordinate")
        for lo, hi in self.domain:
            if not lo < hi:
                raise GeometryError("domain bounds must satisfy lo < hi")
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def degree(self) -> int:
        """MIN_JET_DEGREE, the degree the diagnostics read; kept for
        ``perfbench/run.py`` and ``perfbench/traced.py``, which read it."""
        return MIN_JET_DEGREE


# -- low-discrepancy sampling ----------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _halton_value(index: int, base: int) -> float:
    out, frac = 0.0, 1.0 / base
    while index > 0:
        index, digit = divmod(index, base)
        out += digit * frac
        frac /= base
    return out


def _halton_box(domain, count: int, start: int, predicate=None) -> np.ndarray:
    dim = len(domain)
    if dim > len(_PRIMES):
        raise GeometryError("domain dimension exceeds the supported Halton bases")
    lo = np.array([b[0] for b in domain])
    hi = np.array([b[1] for b in domain])
    pts: list[np.ndarray] = []
    idx = start
    tried = 0
    while len(pts) < count:
        u = np.array([_halton_value(idx, _PRIMES[k]) for k in range(dim)])
        p = lo + (hi - lo) * u
        idx += 1
        tried += 1
        if tried > 1000 * (count + 1):
            raise GeometryError("domain predicate rejected too many candidates")
        if predicate is None or predicate(p):
            pts.append(p)
    return np.array(pts)


def sample_points(spec: GeometrySpec, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy points inside the spec domain."""
    if count < 1:
        raise GeometryError("need at least one sample point")
    return _halton_box(spec.domain, count, seed * 9973 + 1, spec.inside)


# -- factories ---------------------------------------------------------------

_KAHLER_META = {
    "expected_class": "Kähler",
    "expected_zero": SECTION_NAMES,
    "expected_nonzero": (),
}


def _constant(value: np.ndarray, p, degree: int) -> JetField:
    """The jets of a constant matrix field at the points ``p``."""
    space = jet_space(value.shape[-1], degree)
    return JetField.constants(space, np.broadcast_to(value, p.shape[:-1] + value.shape))


def flat_kahler(n: int) -> GeometrySpec:
    """Flat metric with the standard block J on R^{2n}."""
    if n < 1:
        raise GeometryError("flat_kahler needs n >= 1")
    return GeometrySpec(
        name="flat",
        n=n,
        jets=lambda p, degree: (_constant(np.eye(2 * n), p, degree), _constant(standard_j(n), p, degree)),
        domain=((-np.pi, np.pi),) * (2 * n),
        metadata=_KAHLER_META,
    )


def _eval_factor(expr: Expr, p, dim: int, degree: int = 1):
    try:
        jet = eval_expr(expr, p, dim, degree)
    except EvalError as exc:
        raise GeometryError(f"conformal factor fails on the domain: {exc}") from exc
    if not np.all(np.isfinite(jet.data)):
        raise GeometryError("conformal factor is not finite on the domain")
    return jet


def conformal(
    n: int,
    f: str,
    periodic: bool = False,
    name: str = "conformal",
    domain: tuple[tuple[float, float], ...] | None = None,
) -> GeometrySpec:
    """Conformally flat metric e^f delta with the standard J.

    ``f`` is source text in x1..x_{2n}.  The factor is probed on the
    domain for finiteness, and with ``periodic=True`` also for 2 pi
    periodicity in every coordinate; either failure raises before a spec
    is issued.  A factor with vanishing gradient leaves the structure
    Kahler; otherwise it is locally conformal Kahler (pure W4).
    """
    if n < 2:
        raise GeometryError("conformal needs n >= 2")
    expr = parse(f)
    dim = 2 * n
    box = domain if domain is not None else ((-np.pi, np.pi),) * dim
    probes = _halton_box(box, 8, 1)
    jet = _eval_factor(expr, probes, dim)
    grad_mag = float(np.abs(jet.data[..., 1 : 1 + dim]).max())
    if periodic:
        base = jet.value[:4, None]
        # [p, i] is probe p moved by 2 pi along coordinate i
        moved = _eval_factor(expr, probes[:4, None] + 2.0 * np.pi * np.eye(dim), dim).value
        if (np.abs(moved - base) > 1e-9 * (1.0 + np.abs(base))).any():
            raise GeometryError("conformal factor is not 2 pi periodic in every coordinate")
    if grad_mag < 1e-12:
        meta = _KAHLER_META
    else:
        meta = {
            "expected_class": "W4",
            "expected_zero": ("harmonic", "torsion_iv_a", "torsion_iv_b"),
            "expected_nonzero": (),
        }

    def jets(p, degree):
        fj = _eval_factor(expr, p, dim, degree)
        g = jet_einsum("ij,->ij", JetField.constants(jet_space(dim, degree), np.eye(dim)), fj.fn("exp"))
        return g, _constant(standard_j(n), p, degree)

    return GeometrySpec(
        name=name,
        n=n,
        jets=jets,
        conformal_factor=expr,
        domain=box,
        metadata=meta,
    )


def hopf_chart(n: int) -> GeometrySpec:
    """Cylinder metric |z|^{-2} delta on an annulus chart of C^n minus 0.

    Conformal with factor f = -log(|z|^2).  The box keeps 0.5 < |z| < 2,
    so the chart stays on the cylinder whose compact quotient is the
    Hopf manifold; the sphere factor has unit radius, recorded in the
    metadata as the constant in the curvature display.
    """
    if n < 2:
        raise GeometryError("hopf_chart needs n >= 2")
    dim = 2 * n
    src = "-log(" + " + ".join(f"x{i}^2" for i in range(1, dim + 1)) + ")"
    box = ((0.3, 1.9 / np.sqrt(dim)),) * dim
    spec = conformal(n, src, periodic=False, name="hopf", domain=box)
    meta = {
        "expected_class": "W4",
        "expected_zero": ("harmonic", "harmonic_map", "torsion_iv_a", "torsion_iv_b"),
        "expected_nonzero": ("vert_geodesic", "horiz_geodesic"),
        "sphere_curvature_k": 1.0,
    }
    return replace(spec, inside=lambda p: 0.5 < np.sqrt(float(p @ p)) < 2.0, metadata=meta)


def _s6_graph(p, degree: int) -> tuple[JetField, JetField, JetField, JetField]:
    """Jets of the graph chart x -> (x, sqrt(1 - |x|^2)): x, the height w,
    the embedding differential D and the pullback metric g = D^T D.

    D has identity rows over -x_i/w.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (6,):
        raise GeometryError("six-sphere chart points live in R^6")
    fail_first(np.sum(p * p, axis=-1) >= 0.9**2, p, GeometryError,
               "six-sphere chart point outside the coordinate ball")
    space = jet_space(6, degree)
    x = JetField.variables(space, p)
    sq = jet_einsum("i,i->", x, x)
    w = (sq * (-1.0) + JetField.constants(space, 1.0)).fn("sqrt")
    winv = w.fn("reciprocal")

    d = JetField.zeros(space, p.shape[:-1] + (7, 6))
    for i in range(6):
        d.data[..., i, i, 0] = 1.0
    d.data[..., 6, :, :] = (jet_einsum("i,->i", x, winv) * (-1.0)).data
    g = jet_einsum("ai,aj->ij", d, d)
    return x, w, d, g


def _s6(p, degree: int) -> tuple[JetField, JetField]:
    """g and J jets in the graph chart, from one chart build.  J is the
    pullback of cross multiplication by the sphere point.

    p x (D X) is tangent at p, so (p x) D = D J; D's top 6 x 6 block is
    the identity, so J is the top six rows of (p x) D.
    """
    x, w, d, g = _s6_graph(p, degree)
    embed = JetField.zeros(x.space, x.shape[:-1] + (7,))
    embed.data[..., :6, :] = x.data
    embed.data[..., 6, :] = w.data

    cross_op = jet_einsum("abc,a->cb", JetField.constants(x.space, _OCT[:, :, :6]), embed)
    return g, jet_einsum("cb,bj->cj", cross_op, d)


def s6_nearly_kahler() -> GeometrySpec:
    """Round six-sphere with J from the octonion cross product."""
    box = ((-0.35, 0.35),) * 6
    meta = {
        "expected_class": "W1",
        "expected_zero": ("harmonic", "harmonic_map", "vert_geodesic"),
        "expected_nonzero": ("flatness",),
        "einstein_ricci_factor": 5.0,
        "laplacian_omega_factor": 4.0,
        "psi_norm_sq": 144.0,
    }
    return GeometrySpec(
        name="s6",
        n=3,
        jets=_s6,
        inside=lambda p: float(p @ p) < 0.88**2,
        domain=box,
        metadata=meta,
    )


# -- structure assembly ------------------------------------------------------


def build_structure(spec: GeometrySpec) -> AlmostHermitianStructure:
    """Materialize a spec as one evaluator of point blocks."""
    return AlmostHermitianStructure(spec.dim, spec.jets, name=spec.name)


# the config fields each catalog geometry takes
_CONFIG_FIELDS = {"flat": {"type", "n"}, "conformal": {"type", "n", "f", "periodic"},
                  "hopf": {"type", "n"}, "s6": {"type"}}


def spec_from_config(cfg: Mapping) -> GeometrySpec:
    """Build a GeometrySpec from a JSON-style mapping.

    Dispatches on the ``type`` field over the catalog names; fields the
    type does not take are rejected before any value is read, so
    misspelled options cannot silently pass.
    """
    if not isinstance(cfg, Mapping) or "type" not in cfg:
        raise GeometryError("geometry config must be a mapping with a 'type' field")
    kind = cfg["type"]
    allowed = _CONFIG_FIELDS.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise GeometryError(f"unknown catalog geometry {kind!r}")
    extra = set(cfg) - allowed
    if extra:
        raise GeometryError(f"unknown geometry config fields: {sorted(extra)}")
    n = cfg.get("n", 2)
    # type(), not isinstance(), so that true/false are rejected too
    if type(n) is not int or not 1 <= n <= MAX_DIM // 2:
        raise GeometryError(f"n must be an integer in 1..{MAX_DIM // 2}")
    periodic = cfg.get("periodic", False)
    if type(periodic) is not bool:
        raise GeometryError("periodic must be true or false")
    if kind == "flat":
        return flat_kahler(n)
    if kind == "conformal":
        if "f" not in cfg:
            raise GeometryError("conformal geometry needs an 'f' expression")
        if not isinstance(cfg["f"], str):
            raise GeometryError("f must be an expression string")
        return conformal(n, cfg["f"], periodic=periodic)
    if kind == "hopf":
        return hopf_chart(n)
    return s6_nearly_kahler()
