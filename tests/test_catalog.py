import numpy as np
import pytest
from helpers import gh_norms

from torsionflow import catalog
from torsionflow.catalog import (
    FANO_TRIPLES,
    GeometrySpec,
    build_structure,
    conformal,
    cross7,
    flat_kahler,
    hopf_chart,
    octonion_multiply,
    octonion_structure_constants,
    s6_nearly_kahler,
    sample_points,
    spec_from_config,
)
from torsionflow.geometry import MIN_JET_DEGREE, GeometryError, christoffel_jets, curvature_jets, point_max
from torsionflow.jets import JetField, jet_einsum, jet_matrix_inverse
from torsionflow.unstruct import random_curved_structure, random_structure

SECTION_NAMES = {
    "harmonic",
    "harmonic_map",
    "vert_geodesic",
    "horiz_geodesic",
    "flatness",
    "superflat",
    "torsion_iv_a",
    "torsion_iv_b",
}


def test_octonion_table_signs():
    f = octonion_structure_constants()
    # e1 e2 = e4 and every cyclic rotation of each line
    assert f[0, 1, 3] == 1.0
    assert f[1, 0, 3] == -1.0
    for a, b, c in FANO_TRIPLES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            assert f[i - 1, j - 1, k - 1] == 1.0
            assert f[j - 1, i - 1, k - 1] == -1.0
    assert np.abs(f + np.transpose(f, (1, 0, 2))).max() == 0.0
    # seven lines, three cyclic orientations each, both signs
    assert np.count_nonzero(f) == 42


def test_octonion_norm_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        xy = octonion_multiply(x, y)
        assert abs(np.linalg.norm(xy) - np.linalg.norm(x) * np.linalg.norm(y)) < 1e-10


def test_octonion_alternative():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        xx = octonion_multiply(x, x)
        left = octonion_multiply(x, octonion_multiply(x, y))
        right = octonion_multiply(xx, y)
        assert np.abs(left - right).max() < 1e-10
        left = octonion_multiply(octonion_multiply(y, x), x)
        right = octonion_multiply(y, xx)
        assert np.abs(left - right).max() < 1e-10


def test_cross7_orthogonal_and_norm():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.standard_normal(7)
        y = rng.standard_normal(7)
        c = cross7(x, y)
        assert abs(c @ x) < 1e-10
        assert abs(c @ y) < 1e-10
        want = (x @ x) * (y @ y) - (x @ y) ** 2
        assert abs(c @ c - want) < 1e-8
        assert np.abs(cross7(y, x) + c).max() < 1e-12


def test_flat_spec_builds_kahler():
    spec = flat_kahler(2)
    assert spec.name == "flat"
    assert spec.dim == 4
    assert spec.metadata["expected_class"] == "Kähler"
    structure = build_structure(spec)
    p = sample_points(spec, 1, seed=4)[0]
    assert np.abs(structure.structure_jets(p).xi_frame).max() < 1e-12


def test_conformal_periodicity_probe():
    conformal(2, "sin(x1) + cos(x2)", periodic=True)
    with pytest.raises(GeometryError):
        conformal(2, "x1", periodic=True)
    # non-periodic use of the same factor is fine
    assert conformal(2, "x1", periodic=False).metadata["expected_class"] == "W4"


def test_conformal_domain_fault_rejected():
    # log(x1) is undefined on half of the default box
    with pytest.raises(GeometryError):
        conformal(2, "log(x1)")


def test_conformal_constant_factor_stays_kahler():
    spec = conformal(2, "3", periodic=True)
    assert spec.metadata["expected_class"] == "Kähler"
    structure = build_structure(spec)
    p = sample_points(spec, 1, seed=0)[0]
    assert np.abs(structure.structure_jets(p).xi_frame).max() < 1e-12


def test_hopf_box_stays_in_annulus():
    for n in (2, 3):
        spec = hopf_chart(n)
        pts = sample_points(spec, 50, seed=1)
        radii = np.linalg.norm(pts, axis=1)
        assert radii.min() > 0.5
        assert radii.max() < 2.0
        assert spec.metadata["sphere_curvature_k"] == 1.0


def _radial_and_sphere_frame(p):
    """Coordinate vectors: g-unit radial p, g-orthonormal basis of p-perp."""
    m = len(p)
    a = np.zeros((m, m))
    a[:, 0] = p
    a[:, 1:] = np.eye(m)[:, : m - 1]
    q, _ = np.linalg.qr(a)
    return p.copy(), np.linalg.norm(p) * q[:, 1:]


def test_hopf_curvature_display():
    spec = hopf_chart(2)
    structure = build_structure(spec)
    eye3 = np.eye(3)
    for p in sample_points(spec, 3, seed=5):
        radial, sphere = _radial_and_sphere_frame(p)
        g = structure.structure_jets(p).g
        rflat = curvature_jets(g, christoffel_jets(g)).rflat.value
        scale = 1.0 + np.abs(rflat).max()
        t = np.einsum("ijkl,ia,jb,kc,ld->abcd", rflat, sphere, sphere, sphere, sphere)
        want = np.einsum("ac,bd->abcd", eye3, eye3) - np.einsum("ad,bc->abcd", eye3, eye3)
        assert np.abs(t - want).max() < 1e-7 * scale
        # the cylinder axis is flat: any slot contracted with the radial
        # direction kills the curvature
        assert np.abs(np.einsum("ijkl,i->jkl", rflat, radial)).max() < 1e-7 * scale
        assert np.abs(np.einsum("ijkl,k->ijl", rflat, radial)).max() < 1e-7 * scale


def test_s6_torsion_is_nearly_kahler():
    spec = s6_nearly_kahler()
    structure = build_structure(spec)
    for p in sample_points(spec, 3, seed=2):
        sj = structure.structure_jets(p)
        xi = sj.xi_frame
        scale = 1.0 + np.abs(xi).max()
        # xi_X Y = -xi_Y X: swap direction and argument slots
        assert np.abs(xi + np.transpose(xi, (2, 1, 0))).max() < 1e-9 * scale
        norms = gh_norms(sj)
        assert norms[0] > 1e-2
        assert norms[1] < 1e-9 * scale
        assert norms[2] < 1e-9 * scale
        assert norms[3] < 1e-9 * scale
        assert np.abs(sj.lee_frame).max() < 1e-9 * scale
        jf = sj.j_frame
        # xi_{JX} JY = -xi_X Y
        twisted = np.einsum("ax,by,akb->xky", jf, jf, xi)
        assert np.abs(twisted + xi).max() < 1e-9 * scale
        # the three-form psi changes sign under J on two slots
        psi = np.transpose(sj.gh_frame[0], (0, 2, 1))
        jjpsi = np.einsum("ax,by,abz->xyz", jf, jf, psi)
        assert np.abs(jjpsi + psi).max() < 1e-9 * scale


def test_s6_j_is_the_pullback_through_the_metric():
    # oracle: J = g^-1 D^T (p x) D; the evaluator reads the top rows of (p x) D
    spec = s6_nearly_kahler()
    pts = sample_points(spec, 6, seed=4)
    x, w, d, g = catalog._s6_graph(pts, MIN_JET_DEGREE)
    embed = JetField(x.space, np.concatenate([x.data, w.data[..., None, :]], axis=-2))
    cross_op = jet_einsum("abc,a->cb", JetField.constants(x.space, octonion_structure_constants()), embed)
    dtmd = jet_einsum("ai,aj->ij", d, jet_einsum("cb,bj->cj", cross_op, d))
    oracle = jet_einsum("ik,kj->ij", jet_matrix_inverse(g), dtmd)
    gap = point_max(catalog._s6(pts, MIN_JET_DEGREE)[1].data - oracle.data, 1)
    assert np.all(gap <= 1e-13 * (1.0 + point_max(oracle.data, 1))), gap


def test_every_degree_reads_the_same_section():
    """The flow start reads degree 0 and the diagnostics MIN_JET_DEGREE:
    an evaluator gives g and J to the degree asked for, with the same
    values at every degree."""
    rng = np.random.default_rng(12)
    specs = (
        flat_kahler(1),
        flat_kahler(2),
        conformal(2, "sin(x1)*cos(x2)", periodic=True),
        conformal(3, "sin(x1) + 0.5*cos(x3)"),
        hopf_chart(2),
        s6_nearly_kahler(),
    )
    cases = [(build_structure(spec), sample_points(spec, 3, seed=6), 0.0) for spec in specs]
    cases += [(random_structure(9, n), rng.uniform(-np.pi, np.pi, (3, 2 * n)), 0.0) for n in (2, 3)]
    # J = A J_0 A^{-1}: jet_matrix_inverse's Neumann term I - A_0^{-1} A_0
    # is zero only to roundoff (4.4e-16), so the values may move by an ulp
    cases.append((random_curved_structure(21, 2), rng.uniform(-np.pi, np.pi, (3, 4)), 1e-15))
    for structure, pts, rel in cases:
        ref = [f.value for f in structure.evaluate(pts, MIN_JET_DEGREE)]
        for degree in range(5):
            fields = structure.evaluate(pts, degree)
            assert [f.deg for f in fields] == [degree, degree], structure.name
            for f, want in zip(fields, ref):
                if rel:
                    assert np.abs(f.value - want).max() <= rel * np.abs(want).max(), (structure.name, degree)
                else:
                    assert np.array_equal(f.value, want), (structure.name, degree)


def test_s6_is_einstein_with_factor_five():
    spec = s6_nearly_kahler()
    structure = build_structure(spec)
    for p in sample_points(spec, 2, seed=6):
        g = structure.structure_jets(p).g
        pack = curvature_jets(g, christoffel_jets(g))
        assert np.abs(pack.ricci.value - 5.0 * g.value).max() < 1e-6
        assert abs(float(pack.scalar.value) - 30.0) < 1e-6


def test_catalog_self_verification():
    specs = [
        flat_kahler(2),
        conformal(2, "sin(x1)", periodic=True),
        hopf_chart(2),
        s6_nearly_kahler(),
    ]
    for spec in specs:
        assert set(spec.metadata["expected_zero"]) <= SECTION_NAMES
        assert set(spec.metadata["expected_nonzero"]) <= SECTION_NAMES
        structure = build_structure(spec)
        for p in sample_points(spec, 50, seed=3):
            sj = structure.structure_jets(p)
            xi = sj.xi_frame
            scale = 1.0 + np.abs(xi).max()
            comps = sj.gh_frame
            recomposed = comps[0] + comps[1] + comps[2] + comps[3]
            assert np.abs(recomposed - xi).max() < 1e-9 * scale
            norms = gh_norms(sj)
            label = spec.metadata["expected_class"]
            if label == "Kähler":
                assert norms.max() < 1e-9 * scale
            elif label == "W4":
                assert norms[3] > 1e-3
                assert norms[:3].max() < 1e-8 * scale
            elif label == "W1":
                assert norms[0] > 1e-3
                assert norms[1:].max() < 1e-8 * scale


def test_sample_points_deterministic_and_inside():
    spec = conformal(3, "sin(x1)")
    a = sample_points(spec, 20, seed=11)
    b = sample_points(spec, 20, seed=11)
    assert np.array_equal(a, b)
    c = sample_points(spec, 20, seed=12)
    assert not np.array_equal(a, c)
    lo = np.array([d[0] for d in spec.domain])
    hi = np.array([d[1] for d in spec.domain])
    assert np.all(a >= lo) and np.all(a <= hi)
    assert len(np.unique(a, axis=0)) == 20


def test_spec_from_config_dispatch():
    spec = spec_from_config({"type": "flat", "n": 3})
    assert spec.name == "flat" and spec.n == 3
    spec = spec_from_config({"type": "conformal", "n": 2, "f": "sin(x1)", "periodic": True})
    assert spec.conformal_factor is not None
    spec = spec_from_config({"type": "hopf", "n": 2})
    assert spec.name == "hopf"
    spec = spec_from_config({"type": "s6"})
    assert spec.n == 3
    # the four catalog types each dispatch to the spec of that name
    assert spec.name == "s6"
    assert spec_from_config({"type": "conformal", "n": 2, "f": "x1"}).name == "conformal"


def test_spec_from_config_strictness():
    with pytest.raises(GeometryError):
        spec_from_config({"type": "lens-space"})
    with pytest.raises(GeometryError):
        spec_from_config({"type": "flat", "n": 2, "radius": 1.0})
    with pytest.raises(GeometryError):
        spec_from_config({"type": "conformal", "n": 2})
    with pytest.raises(GeometryError):
        spec_from_config({"no_type": True})


def test_spec_validation_errors():
    flat = flat_kahler(2)
    with pytest.raises(GeometryError):
        GeometrySpec(name="x", n=2, jets=flat.jets, domain=((0, 1),) * 3)
    with pytest.raises(GeometryError):
        GeometrySpec(name="x", n=2, jets=flat.jets, domain=((1, 0),) * 4)
    with pytest.raises(GeometryError):
        flat_kahler(0)
    with pytest.raises(GeometryError):
        hopf_chart(1)
