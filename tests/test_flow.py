import numpy as np
import pytest

from torsionflow.flow import (
    DriftError,
    GridError,
    JGrid,
    bracket_u_defect,
    calibrate_sign,
    descend,
    directional_check,
    energy,
    grid_payload,
    grid_torsion,
    gradient,
    hessian_form,
    l2_norm,
    pointwise_norms,
    random_grid,
    random_uperp_field,
    torsion_field,
    uperp_project,
    variation,
    write_trace_csv,
    _cayley,
    _dirichlet_modes,
    _diff,
    _mode_weights,
    _nearest_structure,
    _skew_laplacian,
    _structure_defect,
)
from torsionflow.unstruct import random_structure

# jet-quadrature value of the continuum energy for seed 7, amplitude 0.3
QUAD_ENERGY = 125.3631136398


def test_jgrid_validation():
    with pytest.raises(GridError):
        JGrid(2, 2, np.zeros((2, 2, 2, 2, 4, 4)))
    with pytest.raises(GridError):
        JGrid(0, 8, np.zeros(0))
    with pytest.raises(GridError):
        JGrid(2, 8, np.zeros((8, 8, 8, 8, 4, 4)))
    values = np.broadcast_to(np.eye(4), (8, 8, 8, 8, 4, 4)).copy()
    with pytest.raises(GridError):
        JGrid(2, 8, values)  # orthogonal but J^2 = +Id
    with pytest.raises(GridError):
        JGrid(2, 8, np.zeros((8, 8, 4, 4)))
    # an amplitude whose angles overflow to inf leaves NaN nodes
    with np.errstate(all="ignore"), pytest.raises(GridError, match="orthogonality by nan"):
        random_grid(0, 2, 4, amplitude=1e308)
    # random_grid checks n like JGrid, before it samples any node
    with pytest.raises(GridError, match="n must be at least 1"):
        random_grid(0, 0, 8)


def test_grid_geometry_accessors():
    g = random_grid(0, 1, 6, 0.0)
    assert g.dim == 2
    assert g.node_count() == 36
    assert abs(g.spacing - np.pi / 3) < 1e-15
    pts = g.node_points()
    assert pts.shape == (6, 6, 2)
    assert abs(pts[2, 5, 0] - 2 * g.spacing) < 1e-15
    assert abs(pts[2, 5, 1] - 5 * g.spacing) < 1e-15


def test_constant_grid_is_critical():
    g = random_grid(0, 2, 8, 0.0)
    assert energy(g) == 0.0
    assert np.abs(gradient(g)).max() == 0.0
    assert np.abs(torsion_field(g)).max() == 0.0


def test_random_grid_is_valid_and_energetic():
    for seed in (0, 7, 21):
        g = random_grid(seed, 2, 8)
        assert g.structure_defect() < 1e-10
        assert energy(g) > 1.0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [3, 7])
def test_random_grid_samples_the_random_structure(seed, n):
    # the flow starts from the jet family's J, whatever jet degree reads it
    g = random_grid(seed, n, 4, amplitude=0.5)
    nodes = g.node_points().reshape(-1, g.dim)
    j = random_structure(seed, n, amplitude=0.5).structure_jets(nodes).J.value
    assert np.abs(g.values.reshape(j.shape) - j).max() <= 1e-15


def test_energy_matches_roll_stencil():
    g = random_grid(7, 2, 8)
    h = g.spacing
    dj = [_diff(g.values, ax, h) for ax in range(g.dim)]
    e_roll = 0.125 * h**g.dim * sum(float(np.sum(d * d)) for d in dj)
    assert abs(energy(g) - e_roll) < 1e-12 * e_roll

    lap = sum(_diff(d, ax, h) for ax, d in enumerate(dj))
    g_roll = 0.25 * (g.values @ lap - lap @ g.values)
    assert np.abs(gradient(g) - g_roll).max() < 1e-12


def _full_fft_reference(values, h):
    """Derivative sum and Laplacian from a plain complex FFT of every entry."""
    res, dim = values.shape[0], values.ndim - 2
    k = np.fft.fftfreq(res, d=1.0 / res)
    d2 = ((8.0 * np.sin(k * h) - np.sin(2.0 * k * h)) / (6.0 * h)) ** 2
    mult = sum(np.meshgrid(*([d2] * dim), indexing="ij"))[..., None, None]
    fhat = np.fft.fftn(values, axes=tuple(range(dim)))
    deriv_sq = float(np.sum(mult * np.abs(fhat) ** 2)) / res**dim
    lap = np.fft.ifftn(-mult * fhat, axes=tuple(range(dim))).real
    return deriv_sq, lap


def test_packed_modes_match_full_transform():
    # random skew fields at n = 1, 2, 3 (J itself is constant at n = 1)
    # and random structure grids, which are skew to roundoff
    rng = np.random.default_rng(0)
    fields = []
    for n, res in ((1, 5), (1, 8), (2, 6), (3, 4)):
        raw = rng.standard_normal((res,) * (2 * n) + (2 * n, 2 * n))
        fields.append(0.5 * (raw - np.swapaxes(raw, -1, -2)))
    fields += [random_grid(6, 2, 6).values, random_grid(7, 3, 4).values]
    for values in fields:
        res, dim = values.shape[0], values.shape[-1]
        h = 2.0 * np.pi / res
        modes = _mode_weights(res, dim, h)
        deriv_sq, fhat = _dirichlet_modes(values, modes)
        lap = _skew_laplacian(fhat, modes)
        ref_sq, ref_lap = _full_fft_reference(values, h)
        assert abs(deriv_sq - ref_sq) <= 1e-13 * ref_sq, values.shape
        assert np.abs(lap - ref_lap).max() <= 1e-13 * np.abs(ref_lap).max(), values.shape
        assert np.array_equal(lap, -np.swapaxes(lap, -1, -2))


def test_energy_converges_to_jet_quadrature():
    e16 = energy(random_grid(7, 2, 16))
    assert abs(e16 - QUAD_ENERGY) < 5e-3 * QUAD_ENERGY
    e32 = energy(random_grid(7, 2, 32))
    assert abs(e32 - QUAD_ENERGY) < 5e-4 * QUAD_ENERGY
    # 4th-order Richardson extrapolation tightens the agreement
    rich = (16.0 * e32 - e16) / 15.0
    assert abs(rich - QUAD_ENERGY) < 5e-5 * QUAD_ENERGY


def test_grid_torsion_matches_jets_at_fourth_order():
    st = random_structure(7, 2)
    g8 = random_grid(7, 2, 8)
    g16 = random_grid(7, 2, 16)
    nodes = [(1, 3, 5, 7), (0, 2, 4, 6), (3, 3, 1, 5), (7, 1, 6, 2)]
    errs8, errs16, scales = [], [], []
    for nd in nodes:
        p = 2 * np.pi * np.asarray(nd) / 8.0
        ref = st.structure_jets(p).xi_frame
        scales.append(np.sqrt(np.sum(ref**2)))
        errs8.append(np.sqrt(np.sum((grid_torsion(g8, nd) - ref) ** 2)))
        nd16 = tuple(2 * i for i in nd)
        errs16.append(np.sqrt(np.sum((grid_torsion(g16, nd16) - ref) ** 2)))
    scale = np.sqrt(np.mean(np.square(scales)))
    e8 = np.sqrt(np.mean(np.square(errs8)))
    e16 = np.sqrt(np.mean(np.square(errs16)))
    assert e16 < 8e-3 * scale
    assert 9.0 < e8 / e16 < 16.0


def test_grid_torsion_record_consistency():
    g = random_grid(3, 2, 8)
    xi = grid_torsion(g, (2, 6, 1, 4))
    field = torsion_field(g)
    assert np.abs(field[2, 6, 1, 4] - xi).max() < 1e-14
    with pytest.raises(GridError):
        grid_torsion(g, (1, 2, 3))


def test_gradient_lands_in_uperp():
    g = random_grid(5, 2, 8)
    grad = gradient(g)
    j = g.values
    assert np.abs(grad + np.swapaxes(grad, -1, -2)).max() < 1e-12
    assert np.abs(j @ grad + grad @ j).max() < 1e-12
    assert np.abs(uperp_project(grad, j) - grad).max() < 1e-12


def test_directional_derivative_matches_pairing():
    g = random_grid(7, 2, 8)
    assert calibrate_sign(g) == 1.0
    for seed in range(3):
        phi = random_uperp_field(g, seed)
        rec = directional_check(g, phi)
        assert abs(rec["slope"] + rec["pairing"]) < 1e-6 * abs(rec["pairing"])
    with pytest.raises(GridError):
        calibrate_sign(random_grid(0, 2, 8, 0.0))


def test_uperp_projection_and_bracket_closure():
    g = random_grid(9, 2, 8)
    j = g.values
    rng = np.random.default_rng(4)
    raw = rng.standard_normal(j.shape)
    skew = 0.5 * (raw - np.swapaxes(raw, -1, -2))
    a = uperp_project(skew, j)
    assert np.abs(uperp_project(a, j) - a).max() < 1e-13
    assert np.abs(j @ a + a @ j).max() < 1e-12
    b = random_uperp_field(g, 2)
    norm = np.sqrt(np.sum(a * a)) * np.sqrt(np.sum(b * b))
    assert bracket_u_defect(j, a, b) < 1e-12 * norm


def test_variation_preserves_structure():
    g = random_grid(1, 2, 8)
    phi = random_uperp_field(g, 0)
    varied = variation(g, phi, 0.37)
    assert varied.structure_defect() < 1e-10
    assert abs(energy(varied) - energy(g)) > 1e-3


def test_reprojection_removes_drift():
    g = random_grid(2, 2, 6)
    noise = 1e-11 * np.random.default_rng(0).standard_normal(g.values.shape)
    dirty = JGrid(g.n, g.resolution, g.values + noise)
    fixed, drift = dirty.reprojected()
    assert drift > 2e-12
    assert fixed.structure_defect() < 1e-13
    again, drift2 = fixed.reprojected()
    assert drift2 < 1e-13


def test_descend_from_kahler_terminates_immediately():
    result = descend(random_grid(0, 2, 8, 0.0))
    assert result.converged and not result.stalled
    assert len(result.trace) == 1
    assert result.trace[0].energy == 0.0
    assert result.trace[0].step == 0.0
    assert result.terminal_grad_norm == 0.0


def test_descend_converges_monotonically():
    result = descend(random_grid(7, 2, 8), max_iter=1000, tol_grad=1e-2)
    assert result.converged and not result.stalled
    assert result.message == ""
    assert len(result.trace) == 737
    energies = [row.energy for row in result.trace]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert result.terminal_grad_norm < 1e-2
    assert result.max_drift < 1e-8
    assert result.trace[-1].step == 0.0
    assert all(row.step > 0 for row in result.trace[:-1])
    millis = [row.millis for row in result.trace]
    assert all(b >= a for a, b in zip(millis, millis[1:]))
    final = pointwise_norms(gradient(result.grid)).max()
    assert final < result.terminal_grad_norm
    assert result.terminal_pointwise == final
    assert result.terminal_grad_norm == l2_norm(result.grid, gradient(result.grid))


def test_descend_carries_the_accepted_trial_energy():
    # the accepted trial is projected before its Armijo test, so its
    # energy is the next state's, computed once and reported as is
    result = descend(random_grid(7, 2, 8), max_iter=5)
    assert len(result.trace) == 6
    assert result.trace[-1].energy == energy(result.grid)


def test_descend_rejects_drift_above_tolerance(monkeypatch):
    from torsionflow import flow

    cayley = flow._cayley
    monkeypatch.setattr(flow, "_cayley", lambda a: (1.0 + 1e-6) * cayley(a))
    with pytest.raises(DriftError, match="drift"):
        descend(random_grid(7, 2, 6), max_iter=2)


def test_variation_is_the_descent_step():
    # the probe's step is the descent's: the same Cayley factor, the same
    # contiguous transpose and the same polar projection, bit for bit
    grid = random_grid(7, 2, 8)
    result = descend(grid, max_iter=1)
    step = result.trace[0].step
    assert step == 0.01
    assert result.grid.values.tobytes() == variation(grid, gradient(grid), step).values.tobytes()


def _solve_cayley(a):
    """The Cayley factor by one LAPACK solve per node: the kernel's oracle."""
    eye = np.eye(a.shape[-1])
    return np.linalg.solve(eye - 0.5 * a, eye + 0.5 * a)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
@pytest.mark.parametrize(
    "size, gap_bound, orth_bound",
    [
        # flow steps: |a| = 1e-2 per node; measured <= 3.4e-16 and <= 6.7e-16
        (1e-2, 4e-15, 4e-15),
        # entries ~ N(0, 10^2); measured <= 4.4e-15 and <= 9.6e-15
        (10.0, 1e-13, 1e-13),
    ],
)
def test_cayley_matches_the_solve(d, size, gap_bound, orth_bound):
    rng = np.random.default_rng(d)
    g = rng.standard_normal((3, 5, d, d))
    a = (g - np.swapaxes(g, -1, -2)) / np.sqrt(2.0)
    if size < 1.0:
        a *= size / np.sqrt(np.sum(a * a, axis=(-2, -1), keepdims=True))
    else:
        a *= size
    q = _cayley(a)
    assert q.shape == a.shape and q.flags.c_contiguous
    assert np.abs(q - _solve_cayley(a)).max() <= gap_bound
    assert np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(d)).max() <= orth_bound


@pytest.mark.parametrize("n, m", [(2, 6), (3, 4)])
def test_descend_follows_the_solve_trajectory(monkeypatch, n, m):
    # at d = 6 u(n)-perp is 6-dimensional, so the elimination's later
    # rows see non-trivial Schur complements
    from torsionflow import flow

    ours = descend(random_grid(7, n, m), max_iter=5)
    monkeypatch.setattr(flow, "_cayley", _solve_cayley)
    theirs = descend(random_grid(7, n, m), max_iter=5)
    assert len(ours.trace) == len(theirs.trace) == 6
    assert [r.step for r in ours.trace] == [r.step for r in theirs.trace]
    for a, b in zip(ours.trace, theirs.trace):
        assert abs(a.energy - b.energy) <= 1e-13 * b.energy


def _transposed_nearest_structure(values):
    """Polar projection with every a^T and v^T a swapaxes view: the oracle
    for the contiguous operands of ``_nearest_structure``."""
    eye = np.eye(values.shape[-1])
    sq = np.abs(values @ values + eye).max()
    orth = np.abs(np.swapaxes(values, -1, -2) @ values - eye).max()
    drift = float(max(sq, orth))
    a = 0.5 * (values - np.swapaxes(values, -1, -2))
    for _ in range(8):
        gram = np.swapaxes(a, -1, -2) @ a
        if float(np.abs(gram - eye).max()) <= 1e-14:
            return a, drift
        a = a @ (1.5 * eye - 0.5 * gram)
    raise GridError("polar projection did not converge")


def _cayley_step_field():
    g = random_grid(7, 2, 8)
    q = _cayley(1e-2 * gradient(g))
    return q @ g.values @ np.swapaxes(q, -1, -2)


def _noisy_field(scale):
    # the grid of test_reprojection_removes_drift; noise 1e-11 needs one
    # sweep, 1e-6 two, and only the second reads a swept gram's bits
    g = random_grid(2, 2, 6)
    return g.values + scale * np.random.default_rng(0).standard_normal(g.values.shape)


@pytest.mark.parametrize(
    "make, swept",
    [
        (_cayley_step_field, False),
        (lambda: _noisy_field(1e-11), True),
        (lambda: _noisy_field(1e-6), True),
        (lambda: random_grid(5, 3, 4).values, False),
    ],
    ids=["cayley-step", "noise-1e-11", "noise-1e-6", "n3-m4"],
)
def test_nearest_structure_matches_the_transposed_oracle(make, swept):
    values = make()
    ours, drift = _nearest_structure(values)
    theirs, oracle_drift = _transposed_nearest_structure(values)
    assert np.array_equal(ours, theirs)
    assert drift == oracle_drift
    skew = 0.5 * (values - np.swapaxes(values, -1, -2))
    assert np.array_equal(ours, skew) != swept


@pytest.mark.parametrize("n, m", [(2, 6), (3, 4)])
def test_descend_follows_the_transposed_oracle(monkeypatch, n, m):
    from torsionflow import flow

    ours = descend(random_grid(7, n, m), max_iter=5)
    monkeypatch.setattr(flow, "_nearest_structure", _transposed_nearest_structure)
    theirs = descend(random_grid(7, n, m), max_iter=5)
    assert len(ours.trace) == len(theirs.trace) == 6
    for a, b in zip(ours.trace, theirs.trace):
        assert (a.energy, a.grad_norm, a.step) == (b.energy, b.grad_norm, b.step)
    assert np.array_equal(ours.grid.values, theirs.grid.values)
    assert ours.max_drift == theirs.max_drift


def test_structure_defect_measures_jt_j_not_j_jt():
    # J = S J0 S^-1 with S not orthogonal: J^2 = -Id to roundoff, but
    # J^T J and J J^T miss Id by different amounts (8.90587e-3 and
    # 8.90591e-3), so a transposition slip in the defect shows
    j0 = random_grid(0, 2, 4, 0.0).values
    s = np.eye(4) + 1e-3 * np.random.default_rng(0).standard_normal(j0.shape)
    j = s @ j0 @ np.linalg.inv(s)
    eye = np.eye(4)
    jtj = np.abs(np.einsum("...ki,...kj->...ij", j, j) - eye).max()
    jjt = np.abs(np.einsum("...ik,...jk->...ij", j, j) - eye).max()
    assert np.abs(j @ j + eye).max() < 1e-14
    assert abs(_structure_defect(j) - jtj) <= 1e-14
    assert abs(_structure_defect(j) - jjt) > 1e-9


def test_terminal_gradient_is_the_loop_gradient():
    # descend reports the terminal norms from its last gradient, which
    # must be the gradient of the returned grid bit for bit (a converged
    # run is checked in test_descend_converges_monotonically)
    for grid, kwargs in (
        (random_grid(3, 2, 8), {"max_iter": 3}),
        (random_grid(5, 3, 4), {"max_iter": 4}),
        (random_grid(0, 2, 8, 0.0), {}),
    ):
        result = descend(grid, **kwargs)
        terminal = gradient(result.grid)
        assert result.terminal_grad_norm == l2_norm(result.grid, terminal)
        assert result.terminal_pointwise == float(pointwise_norms(terminal).max())


def test_descend_reports_budget_exhaustion():
    result = descend(random_grid(7, 2, 8), max_iter=3)
    assert not result.converged and not result.stalled
    assert result.message == "iteration budget exhausted"
    assert len(result.trace) == 4
    energies = [row.energy for row in result.trace]
    assert all(b <= a for a, b in zip(energies, energies[1:]))


def test_l2_norm_and_pointwise_norms():
    g = random_grid(0, 2, 8, 0.0)
    field = np.ones(g.values.shape)
    # sum field^2 = N * 16, L2 norm = 4 sqrt(N h^4) = 4 (2 pi)^2
    assert abs(l2_norm(g, field) - 16.0 * np.pi**2) < 1e-10
    assert np.abs(pointwise_norms(field) - 4.0).max() < 1e-14


def test_hessian_requires_a_critical_grid():
    g = random_grid(7, 2, 8)
    rec = hessian_form(g, random_uperp_field(g, 0))
    assert rec["applicable"] is False
    assert "not critical" in rec["reason"]
    assert rec["value"] is None


def test_hessian_at_kahler_matches_second_difference():
    k = random_grid(0, 2, 8, 0.0)
    phi = random_uperp_field(k, 5)
    rec = hessian_form(k, phi)
    assert rec["applicable"] is True
    # xi = 0 there, so the form reduces to the Dirichlet term
    modes = _mode_weights(8, 4, k.spacing)
    dirichlet = k.spacing**k.dim * _dirichlet_modes(phi, modes)[0]
    assert abs(rec["value"] - dirichlet) < 1e-12 * dirichlet
    eps = 1e-3
    second = (
        energy(variation(k, phi, eps)) - 2.0 * energy(k) + energy(variation(k, phi, -eps))
    ) / eps**2
    assert abs(second - rec["value"]) < 1e-5 * rec["value"]
    scaled = hessian_form(k, 1.7 * phi)
    assert abs(scaled["value"] - 1.7**2 * rec["value"]) < 1e-10 * rec["value"]


def test_trace_csv_roundtrip(tmp_path):
    result = descend(random_grid(7, 2, 8), max_iter=5)
    path = tmp_path / "trace.csv"
    write_trace_csv(result.trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,grad_norm,step,millis"
    assert len(lines) == len(result.trace) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == result.trace[0].energy
    assert float(first[2]) == result.trace[0].grad_norm


def test_grid_payload_roundtrip():
    g = random_grid(11, 1, 5)
    payload = grid_payload(g)
    assert payload["n"] == 1 and payload["resolution"] == 5
    back = np.asarray(payload["nodes"]).reshape(g.values.shape)
    assert np.abs(back - g.values).max() == 0.0
