"""Discrete total-bending energy and its gradient flow on flat tori.

A periodic grid carries one orthogonal almost complex matrix per node
over the flat metric.  Central finite differences stand in for jets, so
the energy ½ sum |xi|^2 h^dim, its discrete L2 gradient, and the
second-variation quadratic form are plain dense linear algebra.  On a
flat chart d*xi = [J, lap J] / 4 identically; using the discrete
Laplacian in that algebraic form makes the gradient exact for the
discrete energy, because central differences are exactly skew-adjoint
on a periodic grid.

The start, ``random_grid``, is ``unstruct.random_structure``'s J at the nodes.

Every field differentiated here is skew, so one spectral path,
``_dirichlet_modes``, transforms only the strict upper triangle of the
skew part (6 of 16 entries at n = 2) and ``_skew_laplacian`` rebuilds
the skew Laplacian from its inverse transform.  Three kernels,
``_energy``, ``_gradient`` and ``_retract`` (Cayley step, polar
projection, drift check), are all of ``descend``'s arithmetic, and
``energy``, ``gradient`` and ``variation`` call them too: the CLI's
probe ``calibrate_sign`` checks the descent's own code.

Kept for the tests only: ``grid_torsion`` (one node's xi; converges to the jet torsion),
``hessian_form`` (second variation) and ``bracket_u_defect`` ([m, m] in u(n)).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .unstruct import InternalConventionError, random_structure

__all__ = [
    "GridError",
    "DriftError",
    "JGrid",
    "FlowTrace",
    "FlowResult",
    "random_grid",
    "grid_torsion",
    "torsion_field",
    "energy",
    "gradient",
    "l2_norm",
    "pointwise_norms",
    "variation",
    "directional_check",
    "calibrate_sign",
    "descend",
    "hessian_form",
    "random_uperp_field",
    "uperp_project",
    "bracket_u_defect",
    "write_trace_csv",
    "grid_payload",
]

PROJECTION_TOL = 1e-10
DRIFT_TOL = 1e-8
PROBE_EPS = 1e-4  # step of directional_check's symmetric difference

# Armijo search of descend: each rejected trial halves the step, a trial
# must lower the energy by ARMIJO_DECREASE * step * slope, and a step
# below STEP_FLOOR is a stall
ARMIJO_SHRINK = 0.5
ARMIJO_DECREASE = 1e-4
STEP_FLOOR = 1e-12

# 4th-order central first derivative: weight per node offset, overall /(12h).
_STENCIL = ((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0))


class GridError(ValueError):
    """Invalid grid data or resolution, or a critical grid where a probe needs slope."""


class DriftError(InternalConventionError):
    """A step drifted past DRIFT_TOL: a fault of the retraction kernels."""


def _diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    out = np.zeros_like(values)
    for off, w in _STENCIL:
        # roll by -off puts f(x + off h) at position x
        out += w * np.roll(values, -off, axis=axis)
    return out / (12.0 * h)


def _symbol(resolution: int, h: float) -> np.ndarray:
    """Eigenvalues i*d(k) of the circulant stencil on e^{ikx}: the d(k)."""
    k = np.fft.fftfreq(resolution, d=1.0 / resolution)
    return (8.0 * np.sin(k * h) - np.sin(2.0 * k * h)) / (6.0 * h)


def _mode_weights(resolution: int, dim: int, h: float) -> tuple[np.ndarray, ...]:
    """Multiplier sum_x d(k_x)^2 on the rfft grid, Parseval weights, and
    the strict-upper index pair of the dim x dim skew fields transformed.

    The real transform keeps only half of the last axis; weight 2 counts
    the dropped conjugate modes, except at k = 0 and Nyquist.
    """
    d2 = _symbol(resolution, h) ** 2
    half = resolution // 2 + 1
    mult = np.zeros((resolution,) * (dim - 1) + (half,))
    for axis in range(dim):
        r = half if axis == dim - 1 else resolution
        shape = [1] * dim
        shape[axis] = r
        mult += d2[:r].reshape(shape)
    weight = np.full(half, 2.0)
    weight[0] = 1.0
    if resolution % 2 == 0:
        weight[-1] = 1.0
    rows, cols = np.triu_indices(dim, 1)
    return mult, weight, rows, cols


def _dirichlet_modes(values: np.ndarray, modes: tuple[np.ndarray, ...]) -> tuple[float, np.ndarray]:
    """sum_nodes sum_axes |D_x A|^2 via Parseval, A the skew part of ``values``.

    Only the strict-upper entries ½(v_ij - v_ji) are transformed, with
    the component axis first; the lower triangle mirrors them, so the
    sum over all entries is twice theirs.  Every field differentiated
    here (J, u(n)-perp variations) is skew up to roundoff.  ``modes``
    is ``_mode_weights`` of the grid.  Also returns the packed transform
    for ``_skew_laplacian``.
    """
    mult, weight, rows, cols = modes
    entries = np.moveaxis(values, (-2, -1), (0, 1))
    packed = 0.5 * (entries[rows, cols] - entries[cols, rows])
    fhat = np.fft.rfftn(packed, axes=tuple(range(1, mult.ndim + 1)))
    power = np.sum(fhat.real**2 + fhat.imag**2, axis=0) * weight
    deriv_sq = 2.0 * float(np.sum(mult * power)) / packed[0].size
    return deriv_sq, fhat


def _skew_laplacian(fhat: np.ndarray, modes: tuple[np.ndarray, ...]) -> np.ndarray:
    """sum_x D_x D_x A through the multiplier -sum d(k_x)^2, rebuilt skew
    from the packed transform of ``_dirichlet_modes``."""
    mult, _, rows, cols = modes
    dim = mult.ndim
    grid = (mult.shape[0],) * dim
    packed = np.fft.irfftn(fhat * -mult, s=grid, axes=tuple(range(1, dim + 1)))
    lap = np.zeros(grid + (dim, dim))
    upper = np.moveaxis(packed, 0, -1)
    lap[..., rows, cols] = upper
    lap[..., cols, rows] = -upper
    return lap


def _structure_defect(values: np.ndarray) -> float:
    """max |J^2 + Id| and |J^T J - Id| over the nodes.

    J^T is copied C-contiguous first: numpy's stacked small matmul runs
    2-4x slower with a ``swapaxes`` view as an operand.
    """
    eye = np.eye(values.shape[-1])
    sq = np.abs(values @ values + eye).max()
    vt = np.ascontiguousarray(np.swapaxes(values, -1, -2))
    orth = np.abs(vt @ values - eye).max()
    return float(max(sq, orth))


def _nearest_structure(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Skew part followed by Newton-Schulz polar sweeps.

    Returns the corrected field and the structure defect it removed.
    Quadratic convergence needs values near orthogonal, which grid
    validation guarantees for every caller, so a failure to converge is
    a kernel fault (``InternalConventionError``).  The first gram a^T a is
    -(a @ a), bit for bit, because a = (v - v^T)/2 is exactly skew (each
    term of the dot product only changes sign); a swept a is skew only
    to roundoff, so later grams take a contiguous copy of a^T.
    """
    drift = _structure_defect(values)
    a = 0.5 * (values - np.swapaxes(values, -1, -2))
    eye = np.eye(values.shape[-1])
    gram = a @ a
    np.negative(gram, out=gram)
    for _ in range(8):
        if float(np.abs(gram - eye).max()) <= 1e-14:
            return a, drift
        a = a @ (1.5 * eye - 0.5 * gram)
        gram = np.ascontiguousarray(np.swapaxes(a, -1, -2)) @ a
    raise InternalConventionError("polar projection did not converge")


def _check_size(n: int, resolution: int) -> None:
    """The complex dimension and resolution every grid needs."""
    if n < 1:
        raise GridError("n must be at least 1")
    if resolution < 4:
        raise GridError("grid resolution must be at least 4")


@dataclass
class JGrid:
    """Per-node almost complex structure on the flat torus [0, 2pi)^dim.

    ``values`` has shape (resolution,)*dim + (dim, dim) with node
    spacing 2pi/resolution along every axis.  Nodes must stay orthogonal
    with square -Id; ``validate`` enforces both to PROJECTION_TOL.
    """

    n: int
    resolution: int
    values: np.ndarray

    def __post_init__(self):
        _check_size(self.n, self.resolution)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.resolution,) * self.dim + (self.dim, self.dim):
            raise GridError("grid values have the wrong shape")
        self.validate()

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.resolution

    def node_count(self) -> int:
        return self.resolution**self.dim

    def node_points(self) -> np.ndarray:
        """Coordinates of every node, shape grid + (dim,)."""
        ticks = self.spacing * np.arange(self.resolution)
        mesh = np.meshgrid(*([ticks] * self.dim), indexing="ij")
        return np.stack(mesh, axis=-1)

    def structure_defect(self) -> float:
        return _structure_defect(self.values)

    def validate(self) -> None:
        defect = self.structure_defect()
        if not defect <= PROJECTION_TOL:  # a NaN node fails too
            raise GridError(f"grid violates J^2 = -Id / orthogonality by {defect:.3e}")

    def reprojected(self) -> tuple["JGrid", float]:
        """Polar correction to the nearest orthogonal J with J^2 = -Id.

        Returns the corrected grid and the drift that was removed.
        """
        values, drift = _nearest_structure(self.values)
        return JGrid(self.n, self.resolution, values), drift


def random_grid(seed: int, n: int, resolution: int, amplitude: float = 0.3) -> JGrid:
    """The 2pi-periodic ``random_structure(seed, n, amplitude)`` sampled onto a
    grid: its degree-0 J jets at every node; amplitude 0 gives J_0 everywhere."""
    _check_size(n, resolution)
    ticks = 2.0 * np.pi * np.arange(resolution) / resolution
    mesh = np.meshgrid(*([ticks] * (2 * n)), indexing="ij")
    points = np.stack(mesh, axis=-1)
    structure = random_structure(seed, n, amplitude)
    return JGrid(n, resolution, structure.evaluate(points, 0)[1].value)


# -- torsion and energy -----------------------------------------------------------


def torsion_field(grid: JGrid) -> np.ndarray:
    """xi at every node, shape grid + (a, k, m): xi[a] = matrix of xi_{e_a}."""
    j = grid.values
    h = grid.spacing
    dj = np.stack([_diff(j, axis, h) for axis in range(grid.dim)], axis=-3)
    return -0.5 * np.einsum("...km,...amy->...aky", j, dj)


def grid_torsion(grid: JGrid, node: tuple[int, ...]) -> np.ndarray:
    """xi at one node from 4th-order central differences, laid out like
    ``torsion_field``'s node entries."""
    node = tuple(int(i) for i in node)
    if len(node) != grid.dim:
        raise GridError("node index needs one entry per axis")
    res = grid.resolution
    j = grid.values
    h = grid.spacing
    dj = np.zeros((grid.dim,) + j.shape[-2:])
    for axis in range(grid.dim):
        for off, w in _STENCIL:
            shifted = list(node)
            shifted[axis] = (node[axis] + off) % res
            dj[axis] += w * j[tuple(shifted)]
    dj /= 12.0 * h
    return -0.5 * np.einsum("km,amy->aky", j[node], dj)


def _energy(values: np.ndarray, modes: tuple[np.ndarray, ...], vol: float) -> tuple[float, np.ndarray]:
    """⅛ h^dim sum_nodes sum_x |D_x J|^2 and the packed transform it read."""
    deriv_sq, fhat = _dirichlet_modes(values, modes)
    return 0.125 * vol * deriv_sq, fhat


def _gradient(values: np.ndarray, fhat: np.ndarray, modes: tuple[np.ndarray, ...]) -> np.ndarray:
    """[J, lap J] / 4 from the packed transform of J."""
    lap = _skew_laplacian(fhat, modes)
    return 0.25 * (values @ lap - lap @ values)


def energy(grid: JGrid) -> float:
    """Total bending ½ sum_nodes |xi|^2 h^dim over the flat volume.

    Since J is orthogonal, |xi|^2 = ¼ sum_x |D_x J|^2 nodewise, and the
    grid sum is evaluated through Parseval for the identical stencil.
    """
    modes = _mode_weights(grid.resolution, grid.dim, grid.spacing)
    return _energy(grid.values, modes, grid.spacing**grid.dim)[0]


def gradient(grid: JGrid) -> np.ndarray:
    """The discrete d*xi field, shape grid + (dim, dim): the descent's own.

    [J, lap J] / 4 with the composed central-difference Laplacian; this
    is the exact L2 gradient of ``energy`` for variations
    J -> exp(eps phi) J exp(-eps phi), with the global sign fixed by
    ``calibrate_sign``.  Each node value is skew and anticommutes with
    J, so the field is u(n)-perp valued by construction.
    """
    modes = _mode_weights(grid.resolution, grid.dim, grid.spacing)
    return _gradient(grid.values, _dirichlet_modes(grid.values, modes)[1], modes)


def l2_norm(grid: JGrid, field: np.ndarray) -> float:
    """Flat L2 norm of a per-node field: sqrt(sum |field|^2 h^dim)."""
    return float(np.sqrt(grid.spacing**grid.dim * np.sum(field * field)))


def pointwise_norms(field: np.ndarray) -> np.ndarray:
    """Frobenius norm per node of a grid of matrices."""
    return np.sqrt(np.sum(field * field, axis=(-2, -1)))


# -- variations -------------------------------------------------------------------


def _cayley(a: np.ndarray) -> np.ndarray:
    """(I - a/2)^{-1}(I + a/2): exactly orthogonal for skew a.

    Gaussian elimination on all nodes at once: both sides are laid out
    component first, (d, d, nodes), and each of the d - 1 forward and d
    back steps updates whole rows.  No pivoting: I - a/2 has symmetric
    part I, each Schur complement keeps a symmetric part >= I, so every
    pivot is >= 1 (Golub & Van Loan §4.4).  Returns a C-contiguous array.
    """
    d = a.shape[-1]
    comps = a.reshape(-1, d * d).T.reshape(d, d, -1)
    lhs = np.multiply(comps, -0.5, out=np.empty(comps.shape))
    rhs = np.multiply(comps, 0.5, out=np.empty(comps.shape))
    # every (d + 1)-th entry of the flattened (d, d) axis is diagonal
    lhs.reshape(d * d, -1)[:: d + 1] += 1.0
    rhs.reshape(d * d, -1)[:: d + 1] += 1.0
    for k in range(d - 1):
        f = lhs[k + 1 :, k] / lhs[k, k]
        lhs[k + 1 :, k + 1 :] -= f[:, None] * lhs[k, k + 1 :]
        rhs[k + 1 :] -= f[:, None] * rhs[k]
    for k in range(d - 1, -1, -1):
        rhs[k] -= np.sum(lhs[k, k + 1 :, None] * rhs[k + 1 :], axis=0)
        rhs[k] /= lhs[k, k]
    return np.ascontiguousarray(rhs.reshape(d * d, -1).T).reshape(a.shape)


def _retract(values: np.ndarray, g: np.ndarray, step: float) -> tuple[np.ndarray, float]:
    """q J q^T for the Cayley factor q of step * g, polar-projected, and the drift removed (at most
    DRIFT_TOL).  step * g and q^T die right after use: kept alive, they made glibc re-fault the heap."""
    q = _cayley(step * g)
    values, drift = _nearest_structure(q @ values @ np.ascontiguousarray(np.swapaxes(q, -1, -2)))
    if drift > DRIFT_TOL:
        raise DriftError(f"per-step drift {drift:.3e} exceeds {DRIFT_TOL}")
    return values, drift


def variation(grid: JGrid, phi: np.ndarray, eps: float) -> JGrid:
    """The descent's step along ``phi`` of size ``eps``, bit for bit: its Cayley factor is
    exp(eps phi) + O(eps^3), so both variations are exp's up to the projection's roundoff."""
    return JGrid(grid.n, grid.resolution, _retract(grid.values, phi, eps)[0])


def directional_check(grid: JGrid, phi: np.ndarray) -> dict:
    """Symmetric-difference slope of the energy against the gradient pairing."""
    e_plus, e_minus = (energy(variation(grid, phi, eps)) for eps in (PROBE_EPS, -PROBE_EPS))
    slope = (e_plus - e_minus) / (2.0 * PROBE_EPS)
    pairing = float(grid.spacing**grid.dim * np.sum(gradient(grid) * phi))
    return {"slope": slope, "pairing": pairing}


def calibrate_sign(grid: JGrid) -> float:
    """The global sign s with slope = -s * pairing, fixed empirically.

    One directional-derivative probe pins the bundle-identification
    sign relating the reported d*xi to the L2 gradient of the energy.
    A critical grid is the caller's misuse (``GridError``); a probe that
    matches neither sign is a fault of the package
    (``InternalConventionError``).
    """
    rec = directional_check(grid, random_uperp_field(grid, 0))
    if abs(rec["pairing"]) < 1e-14:
        raise GridError("sign calibration needs a non-critical grid")
    s = -1.0 if rec["slope"] * rec["pairing"] > 0 else 1.0
    if abs(rec["slope"] + s * rec["pairing"]) > 1e-3 * abs(rec["pairing"]):
        raise InternalConventionError("directional derivative disagrees with the gradient pairing")
    return s


def random_uperp_field(grid: JGrid, seed: int) -> np.ndarray:
    """A smooth per-node u(n)-perp direction field: three sine profiles."""
    rng = np.random.default_rng(seed)
    dim = grid.dim
    pts = grid.node_points()
    out = np.zeros(pts.shape[:-1] + (dim, dim))
    for _ in range(3):
        a = rng.standard_normal((dim, dim))
        a = 0.5 * (a - a.T)
        coefs = rng.uniform(-1.0, 1.0, dim)
        phases = rng.uniform(0.0, 2.0 * np.pi, dim)
        profile = np.sin(pts + phases) @ coefs
        out += profile[..., None, None] * a
    return uperp_project(out, grid.values)


def uperp_project(a: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Project per-node skew matrices onto the J-anticommuting part."""
    return 0.5 * (a + j @ a @ j)


def bracket_u_defect(j: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Norm of the u(n)-perp part of [a, b] for u(n)-perp a, b.

    The bracket of two J-anticommuting skew matrices commutes with J,
    so this vanishes: [m, m] lands back in u(n) and the locally
    symmetric second-variation formula applies.
    """
    return float(np.sqrt(np.sum(uperp_project(a @ b - b @ a, j) ** 2)))


# -- descent ----------------------------------------------------------------------


@dataclass(frozen=True)
class FlowTrace:
    """One descent step: state at ``iteration`` and the step taken from it."""

    iteration: int
    energy: float
    grad_norm: float
    step: float
    millis: float


@dataclass
class FlowResult:
    grid: JGrid
    trace: list[FlowTrace]
    converged: bool
    stalled: bool
    message: str
    max_drift: float
    terminal_grad_norm: float
    terminal_pointwise: float


def descend(
    grid: JGrid,
    max_iter: int = 5000,
    tol_grad: float = 1e-5,
    step0: float = 1e-2,
) -> FlowResult:
    """Armijo-backtracked gradient descent of the total bending.

    Each iteration recomputes d*xi (``_gradient``), steps along it by
    ``_retract`` (the exactly orthogonal Cayley step, re-projected with
    drift below DRIFT_TOL; ``variation`` is this step) and Armijo-tests
    the trial's ``_energy``.  The accepted trial is therefore exactly
    the next state, and its skew-packed transform and energy carry over:
    an accepted step costs one forward and one inverse transform.  A
    step shrinking past STEP_FLOOR reports a stall instead of
    failing: whether non-Kahler stationary points can trap the flow is
    left as an empirical finding.
    """
    t0 = time.perf_counter()
    trace: list[FlowTrace] = []
    converged = stalled = False
    message = ""
    max_drift = 0.0
    vol = grid.spacing**grid.dim
    modes = _mode_weights(grid.resolution, grid.dim, grid.spacing)
    vals = grid.values
    e, fhat = _energy(vals, modes, vol)

    for iteration in range(max_iter + 1):
        g = _gradient(vals, fhat, modes)
        g_sq = float(np.sum(g * g))
        gnorm = float(np.sqrt(vol * g_sq))
        millis = 1e3 * (time.perf_counter() - t0)
        if gnorm < tol_grad:
            trace.append(FlowTrace(iteration, e, gnorm, 0.0, millis))
            converged = True
            break
        if iteration == max_iter:
            trace.append(FlowTrace(iteration, e, gnorm, 0.0, millis))
            message = "iteration budget exhausted"
            break

        slope = vol * g_sq
        step = step0
        while True:
            trial, drift = _retract(vals, g, step)
            trial_e, trial_hat = _energy(trial, modes, vol)
            if trial_e <= e - ARMIJO_DECREASE * step * slope:
                break
            step *= ARMIJO_SHRINK
            if step < STEP_FLOOR:
                stalled = True
                message = "step-size underflow in the Armijo search"
                break
        if stalled:
            trace.append(FlowTrace(iteration, e, gnorm, 0.0, millis))
            break
        max_drift = max(max_drift, drift)
        trace.append(FlowTrace(iteration, e, gnorm, step, millis))
        vals, fhat, e = trial, trial_hat, trial_e

    # the last g is the gradient of vals: the same transform of the same values
    grid = JGrid(grid.n, grid.resolution, vals)
    return FlowResult(
        grid=grid,
        trace=trace,
        converged=converged,
        stalled=stalled,
        message=message,
        max_drift=max_drift,
        terminal_grad_norm=l2_norm(grid, g),
        terminal_pointwise=float(pointwise_norms(g).max()),
    )


def hessian_form(grid: JGrid, phi: np.ndarray) -> dict:
    """Second variation sum (|grad phi|^2 - 2 |[xi, phi]|^2) h^dim.

    Only meaningful at a critical grid (the locally symmetric form of
    the second-variation formula), so a gradient norm at or above 1e-4
    yields an inapplicable marker instead of a value.
    """
    gnorm = l2_norm(grid, gradient(grid))
    if gnorm >= 1e-4:
        return {
            "applicable": False,
            "reason": f"grid is not critical: grad norm {gnorm:.3e}",
            "value": None,
        }
    h = grid.spacing
    grad_sq, _ = _dirichlet_modes(phi, _mode_weights(grid.resolution, grid.dim, h))
    xi = torsion_field(grid)
    bracket = xi @ phi[..., None, :, :] - phi[..., None, :, :] @ xi
    value = h**grid.dim * (grad_sq - 2.0 * float(np.sum(bracket * bracket)))
    return {"applicable": True, "reason": None, "value": value}


# -- artifacts --------------------------------------------------------------------


def write_trace_csv(trace: list[FlowTrace], path) -> None:
    """Energy trace as CSV rows (iteration, energy, grad_norm, step, millis)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "energy", "grad_norm", "step", "millis"])
        for row in trace:
            writer.writerow(
                [
                    row.iteration,
                    format(row.energy, ".17g"),
                    format(row.grad_norm, ".17g"),
                    format(row.step, ".17g"),
                    format(row.millis, ".3f"),
                ]
            )


def grid_payload(grid: JGrid) -> dict:
    """The final grid for a binary-free JSON writer: ``nodes`` is the
    float array of node matrices, shape (node_count, dim, dim)."""
    return {
        "n": grid.n,
        "resolution": grid.resolution,
        "nodes": grid.values.reshape(grid.node_count(), grid.dim, grid.dim),
    }
