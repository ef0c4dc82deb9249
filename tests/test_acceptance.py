"""End-to-end acceptance battery.

One test per package-level contract, in order: the conformal curvature
and one-form closed forms, the Hopf and six-sphere example suites, the
locally conformal Kahler Laplacian, the tensor-identity battery, the
harmonicity-verdict coupling, and the grid checks (first variation,
descent, second variation, refinement order).  Each test finishes with
a single summary line carrying the measured margins, so a verbose run
doubles as a results table.  The m = 16 descent dominates the runtime
and is shared between the flow and Hessian tests.
"""

import numpy as np
import pytest

from torsionflow import diagnostics
from torsionflow.catalog import (
    build_structure,
    conformal,
    flat_kahler,
    hopf_chart,
    s6_nearly_kahler,
    sample_points,
)
from torsionflow.diagnostics import (
    classify_gh,
    coderivative_xi,
    conformal_example_check,
    hermitian_harmonicity,
    identity_suite,
    nearly_kahler_suite,
    point_scale,
    section_residuals,
    star_ricci,
)
from torsionflow.flow import (
    calibrate_sign,
    descend,
    directional_check,
    energy,
    grid_torsion,
    hessian_form,
    random_grid,
    random_uperp_field,
    variation,
)
from torsionflow.exprlang import eval_expr, parse
from torsionflow.geometry import cov_derivative_jets, rough_laplacian_jets
from torsionflow.jets import JetField, jet_einsum, jet_matrix_inverse, jet_space
from torsionflow.unstruct import AlmostHermitianStructure, random_curved_structure, random_structure, standard_j


def _fro(a):
    return float(np.sqrt(np.sum(np.asarray(a) ** 2)))


@pytest.fixture(scope="module")
def conformal_cases():
    """Conformally flat structures with 20 sample points per case."""
    cases = {}
    for f_src in ("sin(x1)", "sin(x1)*cos(x2)"):
        for n in (2, 3):
            spec = conformal(n, f_src, periodic=True)
            cases[f_src, n] = (build_structure(spec), sample_points(spec, 20, seed=1))
    return cases


@pytest.fixture(scope="module")
def start16():
    return random_grid(7, 2, 16, amplitude=0.3)


@pytest.fixture(scope="module")
def flow16(start16):
    return descend(start16, max_iter=5000, tol_grad=1e-5)


def test_conformal_curvature_closed_form(conformal_cases):
    # For g = e^f delta the curvature contraction -2 e^{-f} <R(X,Y)Z,W>
    # equals L(X,Z)<Y,W> + L(Y,W)<X,Z> - L(X,W)<Y,Z> - L(Y,Z)<X,W>
    # + |df|^2/2 (<X,Z><Y,W> - <Y,Z><X,W>) with L = Hess f - df x df / 2,
    # every right-hand quantity flat.  This pins the sign conventions of
    # the whole curvature pipeline.
    worst = 0.0
    for (f_src, n), (structure, points) in conformal_cases.items():
        dim = 2 * n
        eye = np.eye(dim)
        for p in points:
            sj = structure.structure_jets(p)
            ff = eval_expr(parse(f_src), p, dim, degree=3)
            df = ff.grad().value
            hess = ff.grad().grad().value
            ell = hess - 0.5 * np.outer(df, df)
            df2 = float(df @ df)
            lhs = -2.0 * np.exp(-float(ff.value)) * sj.curv.rflat.value
            rhs = (
                np.einsum("ik,jl->ijkl", ell, eye)
                + np.einsum("jl,ik->ijkl", ell, eye)
                - np.einsum("il,jk->ijkl", ell, eye)
                - np.einsum("jk,il->ijkl", ell, eye)
                + 0.5 * df2 * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("jk,il->ijkl", eye, eye))
            )
            rel = np.abs(lhs - rhs).max() / np.abs(rhs).max()
            assert rel < 1e-7, (f_src, n, p, rel)
            worst = max(worst, rel)
    print(f"\n[acceptance] PASS conformal curvature closed form: worst rel {worst:.3e} (< 1e-7)")


def test_conformal_one_form_sine_closed_form(conformal_cases):
    # f = sin x1 gives the harmonic-map one-form
    # (n-1)/8 e^{-sin x1} sin x1 cos x1 dx1, while d*xi vanishes (locally
    # conformal Kahler structures are harmonic).
    worst = 0.0
    worst_h = 0.0
    for n in (2, 3):
        structure, points = conformal_cases["sin(x1)", n]
        for p in points:
            rec = conformal_example_check(n, "sin(x1)", p, structure=structure)
            expected = np.zeros(2 * n)
            expected[0] = (n - 1) / 8.0 * np.exp(-np.sin(p[0])) * np.sin(p[0]) * np.cos(p[0])
            rel = np.abs(rec["numeric"] - expected).max() / np.abs(expected).max()
            assert rel < 1e-6, (n, p, rel)
            cx = coderivative_xi(structure, p)
            assert cx.norm < 1e-8 * rec["scale"], (n, p, cx.norm)
            worst = max(worst, rel)
            worst_h = max(worst_h, cx.norm / rec["scale"])
    print(
        f"\n[acceptance] PASS sine one-form closed form: worst rel {worst:.3e} (< 1e-6), "
        f"worst |d*xi|/scale {worst_h:.3e} (< 1e-8)"
    )


def test_hopf_chart_harmonic_but_not_geodesic():
    # The standard structure on the Hopf chart is harmonic and a
    # harmonic map, yet neither vertically nor horizontally geodesic.
    spec = hopf_chart(2)
    structure = build_structure(spec)
    zero_margin = 0.0
    floor = np.inf
    for p in sample_points(spec, 6, seed=2):
        res = section_residuals(structure, p)
        scale = point_scale(structure, p)
        assert res["harmonic"] < 1e-7 * scale, (p, res["harmonic"])
        assert res["harmonic_map"] < 1e-7 * scale, (p, res["harmonic_map"])
        assert res["vert_geodesic"] > 1e-3, (p, res["vert_geodesic"])
        assert res["horiz_geodesic"] > 1e-3, (p, res["horiz_geodesic"])
        zero_margin = max(zero_margin, max(res["harmonic"], res["harmonic_map"]) / scale)
        floor = min(floor, min(res["vert_geodesic"], res["horiz_geodesic"]))
    print(
        f"\n[acceptance] PASS Hopf chart: harmonic residuals {zero_margin:.3e} (< 1e-7), "
        f"geodesic defects > {floor:.3e} (> 1e-3)"
    )


def test_six_sphere_nearly_kahler_suite():
    spec = s6_nearly_kahler()
    structure = build_structure(spec)
    points = sample_points(spec, 3, seed=3)
    label = classify_gh(structure, points)["label"]
    assert label == "W1", label
    worst = {}
    for p in points:
        nk = nearly_kahler_suite(structure, p)
        assert nk["applicable"], nk["reason"]
        for name in ("minimal_parallel", "ecxy", "ecjxjy", "ecxyzw"):
            assert nk[name] < 1e-7, (name, nk[name])
            worst[name] = max(worst.get(name, 0.0), nk[name])
        alt = _fro(star_ricci(structure, p).alt)
        assert alt < 1e-7, alt
        worst["ric_star_alt"] = max(worst.get("ric_star_alt", 0.0), alt)

        sj = structure.structure_jets(p)
        ric_gap = np.abs(sj.curv.ricci.value - 5.0 * sj.g.value).max()
        assert ric_gap < 1e-6, ric_gap
        worst["ricci_5g"] = max(worst.get("ricci_5g", 0.0), float(ric_gap))

        lo = sj.framepack.to_frame(
            rough_laplacian_jets(cov_derivative_jets(sj.omega, "dd", sj.gamma), "dd", sj.gamma, sj.ginv).value, "dd"
        )
        lap_gap = np.abs(lo - 4.0 * sj.j_frame).max()
        assert lap_gap < 1e-5, lap_gap
        worst["laplacian_4omega"] = max(worst.get("laplacian_4omega", 0.0), float(lap_gap))

        psi_rel = abs(nk["psi_norm_sq"] - 144.0) / 144.0
        assert psi_rel < 1e-4, nk["psi_norm_sq"]
        worst["psi_norm_sq_rel"] = max(worst.get("psi_norm_sq_rel", 0.0), psi_rel)
    table = ", ".join(f"{k} {v:.3e}" for k, v in worst.items())
    print(f"\n[acceptance] PASS six-sphere suite: class W1, {table}")


def test_lck_laplacian_collinear_with_omega(conformal_cases):
    # On conformally flat 4-manifolds the rough Laplacian of omega is
    # 2 |theta|^2 omega with theta the (negated) Lee form.
    worst = 0.0
    for f_src in ("sin(x1)", "sin(x1)*cos(x2)"):
        structure, points = conformal_cases[f_src, 2]
        for p in points[:5]:
            sj = structure.structure_jets(p)
            lo = sj.framepack.to_frame(
                rough_laplacian_jets(cov_derivative_jets(sj.omega, "dd", sj.gamma), "dd", sj.gamma, sj.ginv).value, "dd"
            )
            tsq = float(sj.lee_frame @ sj.lee_frame)
            gap = np.abs(lo - 2.0 * tsq * sj.j_frame).max()
            assert gap < 1e-6, (f_src, p, gap)
            worst = max(worst, float(gap))
    print(f"\n[acceptance] PASS lcK Laplacian collinearity: worst defect {worst:.3e} (< 1e-6)")


def _battery_identities(structure, p):
    """The eight identity residuals at one point, unnormalized."""
    vals = dict(identity_suite(structure, p))
    vals["coderivative_routes"] = coderivative_xi(structure, p).route_gap

    sj = structure.structure_jets(p)
    jf = sj.j_frame
    xiF = sj.xi_frame
    nom = sj.framepack.to_frame(sj.nabla_omega.value, "ddd")

    # 2 xi_{e_i} e_i = -J (d*omega)^sharp
    dstar_om = -np.einsum("ixi->x", nom)
    vals["lee_vector_route"] = float(
        np.abs(2.0 * np.einsum("iki->k", xiF) + jf @ dstar_om).max()
    )

    # 2 <xi_X Y, Z> = -(nabla_X omega)(Y, JZ)
    vals["torsion_from_nabla_omega"] = float(
        np.abs(2.0 * xiF + np.einsum("mca,ck->akm", nom, jf)).max()
    )

    # W4 component: codifferential formula versus the Lee-vector expression
    n = sj.n
    eye = np.eye(2 * n)
    ell = np.einsum("aka->k", xiF)
    jell = jf @ ell
    theta = 2.0 * jell
    jtheta = -theta @ jf
    b3 = -(
        np.einsum("xy,z->xyz", eye, theta)
        - np.einsum("xz,y->xyz", eye, theta)
        - np.einsum("yx,z->xyz", jf, jtheta)
        + np.einsum("zx,y->xyz", jf, jtheta)
    ) / (4.0 * (n - 1))
    xi4_codiff = np.transpose(-np.einsum("xyz,zw->xyw", b3, jf), (0, 2, 1))
    xi4_lee = (
        np.einsum("am,k->akm", eye, ell)
        - np.einsum("m,ak->akm", ell, eye)
        - np.einsum("ma,k->akm", jf, jell)
        + np.einsum("m,ka->akm", jell, jf)
    ) / (2.0 * (n - 1))
    vals["w4_component_routes"] = float(np.abs(xi4_codiff - xi4_lee).max())
    return vals


def test_identity_battery_on_random_structures():
    # Eight identities on 20 random structures (flat and curved metric,
    # n in {2, 3}) at 5 points each: the exterior-derivative combination
    # for d(d omega) = 0, the Lee-form derivative of the W4 part, the
    # rough Laplacian of omega against its torsion expression, the
    # star-Ricci divergence, both coderivative routes, both W4 routes,
    # and the two pointwise torsion identities.
    rng = np.random.default_rng(61)
    worst = {}
    for k in range(20):
        n = 2 if k % 5 else 3
        if k < 12:
            structure = random_structure(100 + k, n)
        else:
            structure = random_curved_structure(200 + k, n)
        for p in rng.uniform(-np.pi, np.pi, (5, 2 * n)):
            scale = point_scale(structure, p)
            for name, v in _battery_identities(structure, p).items():
                assert v < 1e-7 * scale, (k, name, v, scale)
                worst[name] = max(worst.get(name, 0.0), v / scale)
    top = max(worst.values())
    assert len(worst) == 8
    print(f"\n[acceptance] PASS identity battery: 8 identities, worst {top:.3e} (< 1e-7 x scale)")


def test_harmonicity_verdicts_never_mix():
    # Both equivalence theorems at once: the coderivative by definition
    # and by the minimal-connection route, the two torsion-trace
    # criteria, and the three Laplacian criteria must agree with |d*xi|
    # on every geometry, harmonic or not.
    cases = []
    for spec, count in [
        (flat_kahler(2), 2),
        (conformal(2, "sin(x1)", periodic=True), 2),
        (conformal(3, "sin(x1)*cos(x2)", periodic=True), 2),
        (hopf_chart(2), 2),
        (s6_nearly_kahler(), 2),
    ]:
        cases.append((build_structure(spec), sample_points(spec, count, seed=5)))
    rng = np.random.default_rng(71)
    for seed, n in [(5, 2), (9, 2), (13, 3)]:
        cases.append((random_structure(seed, n), rng.uniform(-np.pi, np.pi, (2, 2 * n))))
    for seed, n in [(3, 2), (21, 2)]:
        cases.append((random_curved_structure(seed, n), rng.uniform(-np.pi, np.pi, (2, 2 * n))))

    harmonic_pts = other_pts = 0
    ceiling = 0.0
    floor = np.inf
    for structure, pts in cases:
        for p in pts:
            scale = point_scale(structure, p)
            res = section_residuals(structure, p)
            herm = hermitian_harmonicity(structure, p)
            eight = (
                res["harmonic"],
                coderivative_xi(structure, p).norm,
                res["torsion_iv_a"],
                res["torsion_iv_b"],
                res["harmonic"],
                herm["comm_JLapJ"],
                herm["herm_defect"],
                herm["cond_iv"],
            )
            votes = {v < 1e-7 * scale for v in eight}
            assert len(votes) == 1, (eight, scale)
            if votes.pop():
                harmonic_pts += 1
                ceiling = max(ceiling, max(eight) / scale)
            else:
                other_pts += 1
                floor = min(floor, min(eight) / scale)
    assert harmonic_pts >= 8 and other_pts >= 8, (harmonic_pts, other_pts)
    print(
        f"\n[acceptance] PASS verdict coupling: {harmonic_pts} harmonic points "
        f"(worst {ceiling:.3e}), {other_pts} non-harmonic (floor {floor:.3e}), no mixed verdicts"
    )


def test_first_variation_matches_gradient_pairing(start16):
    sign = calibrate_sign(start16)
    assert sign == 1.0
    worst = 0.0
    for seed in range(10):
        phi = random_uperp_field(start16, seed)
        rec = directional_check(start16, phi)
        rel = abs(rec["slope"] + sign * rec["pairing"]) / abs(rec["pairing"])
        assert rel < 1e-4, (seed, rel)
        worst = max(worst, rel)
    print(
        f"\n[acceptance] PASS first variation: sign +1, 10 directions, "
        f"worst rel {worst:.3e} (< 1e-4)"
    )


def _cayley_jets(a):
    eye = JetField.constants(a.space, np.eye(a.shape[-1]))
    return jet_einsum("ij,jk->ik", jet_matrix_inverse(eye - a * 0.5), eye + a * 0.5)


def _curved_torus(n, seed):
    """g = e^f delta on the 2n-torus with J_t = C(t phi) C(psi) J_0 C(psi)^T
    C(t phi)^T, C the Cayley map: t -> the structure J_t, and phi at
    points.  f and the skew fields psi and phi combine sin and cos of x1
    and x2, so every integrand is constant along the other coordinates.
    The jets go to degree 2, all that d*xi reads."""
    dim = 2 * n
    rng = np.random.default_rng(seed)
    f_coef = 0.3 * rng.uniform(-1.0, 1.0, 4)
    psi, phi = 0.2 * rng.standard_normal((2, 4, dim, dim))
    psi, phi = psi - psi.swapaxes(1, 2), phi - phi.swapaxes(1, 2)

    def structure(t):
        def evaluate(pts, _):
            space = jet_space(dim, 2)
            x = JetField.variables(space, pts)
            modes = np.stack([x.entry(k).fn(name).data for k in (0, 1) for name in ("sin", "cos")])
            f = JetField(space, np.einsum("m...c,m->...c", modes, f_coef))
            g = JetField(space, f.fn("exp").data[..., None, None, :] * np.eye(dim)[:, :, None])
            skew = [JetField(space, np.einsum("m...c,mij->...ijc", modes, a)) for a in (t * phi, psi)]
            c = jet_einsum("ij,jk->ik", *map(_cayley_jets, skew))
            j = jet_einsum("ij,kj->ik", jet_einsum("ij,jk->ik", c, JetField.constants(space, standard_j(n))), c)
            return g, j

        return AlmostHermitianStructure(dim, evaluate)

    def phi_at(pts):
        x1, x2 = pts[:, 0], pts[:, 1]
        return np.einsum("mp,mij->pij", [np.sin(x1), np.cos(x1), np.sin(x2), np.cos(x2)], phi)

    return structure, phi_at


@pytest.mark.parametrize("n", [2, 3])
def test_jets_coderivative_is_the_energy_gradient_on_curved_tori(n):
    """dE/dt = -sum <d*xi, phi> sqrt(det g) h^2 for J_t = C(t phi) J C(t phi)^T,
    with E = 1/2 sum |xi|^2 sqrt(det g) h^2 over the m^2 nodes in (x1, x2)
    and d*xi the jets' ``coderivative``, on a curved conformal torus.  The
    trapezoid rule converges spectrally: |slope / pairing + 1| is 4.5e-9
    (n=2) and 6.4e-7 (n=3) at m = 16, so the bound 1e-5 holds with margins
    2200 and 16; a sign slip in d*xi reads 2."""
    m, eps = 16, 1e-4
    h = 2.0 * np.pi / m
    pts = np.zeros((m * m, 2 * n))
    pts[:, :2] = np.stack(np.meshgrid(np.arange(m) * h, np.arange(m) * h), axis=-1).reshape(-1, 2)
    structure, phi_at = _curved_torus(n, seed=1)

    def weight(sj):
        return np.sqrt(np.linalg.det(sj.g.value)) * h * h

    def energy(t):
        sj = structure(t).structure_jets(pts)
        return 0.5 * np.sum(np.sum(sj.xi_frame**2, axis=(1, 2, 3)) * weight(sj))

    slope = (energy(eps) - energy(-eps)) / (2.0 * eps)
    pd = diagnostics._PointData(structure(0.0), pts)
    phi_frame = pd.framepack.to_frame(phi_at(pts), "ud")
    pairing = np.sum(np.sum(pd.coderivative[0] * phi_frame, axis=(1, 2)) * weight(pd))
    # the base is far from harmonic, so the pairing is no roundoff
    assert abs(pairing) > 1.0, pairing
    rel = abs(slope / pairing + 1.0)
    assert rel < 1e-5, (slope, pairing)
    print(
        f"\n[acceptance] PASS jets' d*xi is the energy gradient (n={n}, m={m}): "
        f"slope {slope:.6f}, pairing {pairing:.6f}, |ratio + 1| {rel:.1e} (< 1e-5)"
    )


def test_flow_converges_from_random_start(flow16):
    energies = [row.energy for row in flow16.trace]
    drops = np.diff(energies)
    assert flow16.converged and not flow16.stalled, flow16.message
    assert len(flow16.trace) - 1 <= 5000
    assert np.all(drops <= 0.0)
    assert flow16.terminal_grad_norm < 1e-5
    assert flow16.terminal_pointwise < 1e-4
    print(
        f"\n[acceptance] PASS flow: {len(flow16.trace) - 1} iterations, energy "
        f"{energies[0]:.6f} -> {energies[-1]:.3e} monotone, grad norm "
        f"{flow16.terminal_grad_norm:.3e} (< 1e-5), pointwise "
        f"{flow16.terminal_pointwise:.3e} (< 1e-4)"
    )


def test_second_variation_at_flow_endpoint(flow16):
    grid = flow16.grid
    e0 = energy(grid)
    eps = 1e-3
    quad = []
    diffs = []
    for seed in range(300, 310):
        phi = random_uperp_field(grid, seed)
        rec = hessian_form(grid, phi)
        assert rec["applicable"], rec["reason"]
        quad.append(rec["value"])
        d2 = (energy(variation(grid, phi, eps)) - 2.0 * e0 + energy(variation(grid, phi, -eps))) / eps**2
        diffs.append(d2)
    quad = np.asarray(quad)
    diffs = np.asarray(diffs)
    constant = float(np.median(diffs / quad))
    rel = np.abs(diffs - constant * quad) / np.abs(diffs)
    assert rel.max() < 5e-3, rel
    assert np.all(quad >= 0.0)
    print(
        f"\n[acceptance] PASS second variation: constant {constant:.8f}, 10 directions, "
        f"worst rel {rel.max():.3e} (< 5e-3), all forms nonnegative"
    )


def test_grid_torsion_refines_at_fourth_order(start16):
    # Halving the spacing must shrink the stencil-versus-jet torsion
    # mismatch by about 2^4 = 16.
    structure = random_structure(7, 2, amplitude=0.3)
    nodes16 = [(1, 2, 3, 4), (3, 1, 0, 2), (5, 7, 2, 6), (0, 4, 1, 3), (7, 3, 6, 1), (2, 6, 5, 0)]
    xi_ref = {
        node: structure.structure_jets((2.0 * np.pi / 16.0) * np.asarray(node, dtype=float)).xi_frame
        for node in nodes16
    }

    def rms_error(grid, mult):
        num = den = 0.0
        for node in nodes16:
            diff = grid_torsion(grid, tuple(mult * i for i in node)) - xi_ref[node]
            num += float(np.sum(diff**2))
            den += float(np.sum(xi_ref[node] ** 2))
        return float(np.sqrt(num / den))

    e16 = rms_error(start16, 1)
    e32 = rms_error(random_grid(7, 2, 32, amplitude=0.3), 2)
    ratio = e16 / e32
    assert e16 < 8e-3
    assert e32 < 5e-4
    assert 11.0 < ratio < 22.0, ratio
    print(
        f"\n[acceptance] PASS refinement: torsion mismatch {e16:.3e} -> {e32:.3e} "
        f"under m 16 -> 32, ratio {ratio:.2f} (~16)"
    )
