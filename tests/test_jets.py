"""Jet arithmetic against finite-difference and hand-series oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionflow.jets import (
    JetDomainError,
    JetError,
    JetField,
    _einsum_plan,
    jet_einsum,
    jet_matrix_inverse,
    jet_space,
)


def fd_partial(f, x, alpha, h=1e-2):
    """Richardson-extrapolated central differences for d^alpha f at x.

    Recurses one derivative at a time, so it handles |alpha| <= 3 as an
    independent oracle for low-order jet coefficients.
    """
    if sum(alpha) == 0:
        return f(x)
    c = next(i for i, a in enumerate(alpha) if a > 0)
    rest = list(alpha)
    rest[c] -= 1
    rest = tuple(rest)

    def outer(step):
        e = np.zeros_like(x)
        e[c] = step
        return (fd_partial(f, x + e, rest, h) - fd_partial(f, x - e, rest, h)) / (2 * step)

    a1 = outer(h)
    a2 = outer(h / 2)
    return (4 * a2 - a1) / 3


def jet_inputs(dim, degree, point):
    x = JetField.variables(jet_space(dim, degree), point)
    return [x.entry(i) for i in range(dim)]


CASES = [
    ("poly", lambda x: x[0] * x[0] * x[1] + 3.0 * x[1] - 2.0,
     lambda p: p[0] ** 2 * p[1] + 3 * p[1] - 2),
    ("trig", lambda x: x[0].fn("sin") * x[1].fn("cos"),
     lambda p: np.sin(p[0]) * np.cos(p[1])),
    ("expquot", lambda x: x[0].fn("exp") / (x[1] + 2.0),
     lambda p: np.exp(p[0]) / (p[1] + 2.0)),
    ("logsqrt", lambda x: (x[0] + 3.0).fn("log") + (x[1] + 2.5).fn("sqrt"),
     lambda p: np.log(p[0] + 3.0) + np.sqrt(p[1] + 2.5)),
    ("nested", lambda x: (x[0].fn("sin") + x[1] ** 2).fn("exp"),
     lambda p: np.exp(np.sin(p[0]) + p[1] ** 2)),
]


@pytest.mark.parametrize("name,jf,nf", CASES, ids=[c[0] for c in CASES])
def test_jets_match_finite_differences(name, jf, nf):
    rng = np.random.default_rng(42)
    dim, degree = 2, 4
    sp = jet_space(dim, degree)
    for _ in range(4):
        p = rng.uniform(-0.8, 0.8, size=dim)
        j = jf(jet_inputs(dim, degree, p))
        for alpha in sp.multi_indices:
            if sum(alpha) > 3:
                continue
            want = fd_partial(nf, p, alpha)
            got = j.partial(alpha)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6), (name, alpha)


def test_hand_series_exp_sin():
    # exp(sin x) = 1 + x + x^2/2 + 0*x^3 - x^4/8 + ...
    x = JetField.variables(jet_space(1, 4), [0.0]).entry(0)
    j = x.fn("sin").fn("exp")
    assert j.coeff((0,)) == pytest.approx(1.0, abs=1e-15)
    assert j.coeff((1,)) == pytest.approx(1.0, abs=1e-15)
    assert j.coeff((2,)) == pytest.approx(0.5, abs=1e-15)
    assert j.coeff((3,)) == pytest.approx(0.0, abs=1e-15)
    assert j.coeff((4,)) == pytest.approx(-1.0 / 8.0, abs=1e-15)


def test_hand_series_geometric():
    # 1/(1-x) = 1 + x + x^2 + x^3 + x^4
    x = JetField.variables(jet_space(1, 4), [0.0]).entry(0)
    j = 1.0 / (1.0 - x)
    for k in range(5):
        assert j.coeff((k,)) == pytest.approx(1.0, abs=1e-15)


def test_variable_and_constant_layout():
    j = JetField.variables(jet_space(2, 3), [2.0, 0.0]).entry(0)
    assert j.coeff((0, 0)) == 2.0
    assert j.coeff((1, 0)) == 1.0
    assert all(j.coeff(a) == 0.0 for a in j.space.multi_indices if a not in {(0, 0), (1, 0)})
    c = JetField.constants(jet_space(2, 3), 5.5)
    assert c.value == 5.5
    assert c.coeff((0, 1)) == 0.0


def test_dense_storage_every_multi_index():
    sp = jet_space(3, 4)
    assert sp.ncoeff == math.comb(3 + 4, 4)
    j = JetField.constants(sp, 1.0)
    assert j.data.shape == (sp.ncoeff,)
    # graded order: truncation to lower degree is a prefix slice
    orders = [sum(a) for a in sp.multi_indices]
    assert orders == sorted(orders)


def test_mixed_space_arithmetic_rejected():
    a = JetField.variables(jet_space(2, 3), [1.0, 0.0]).entry(0)
    b = JetField.variables(jet_space(2, 4), [1.0, 0.0]).entry(0)
    c = JetField.variables(jet_space(3, 3), [1.0, 0.0, 0.0]).entry(0)
    with pytest.raises(JetError):
        a + b
    with pytest.raises(JetError):
        a * c


def test_domain_errors():
    sp = jet_space(1, 3)
    x = JetField.variables(sp, [-1.0]).entry(0)
    with pytest.raises(JetDomainError):
        x.fn("log")
    with pytest.raises(JetDomainError):
        x.fn("sqrt")
    zero = JetField.constants(sp, 0.0)
    with pytest.raises(JetDomainError):
        JetField.variables(sp, [1.0]).entry(0) / zero


def test_integer_pow_matches_repeated_mul():
    x, y = (JetField.variables(jet_space(2, 4), [0.7, -0.3]).entry(i) for i in range(2))
    base = 1.0 + x * y
    assert np.allclose((base**3).data, (base * base * base).data, atol=1e-14)
    inv = base**-2
    direct = 1.0 / (base * base)
    assert np.allclose(inv.data, direct.data, atol=1e-14)
    with pytest.raises(JetError):
        base**0.5


def _pow_from_one(x: JetField, n: int) -> JetField:
    """Square-and-multiply from a constant one, squaring after every bit."""
    result = JetField.constants(x.space, np.ones(x.shape), x.deg)
    acc = x
    while n:
        if n & 1:
            result = result * acc
        acc = acc * acc
        n >>= 1
    return result


def test_integer_pow_products(monkeypatch):
    """x**k makes 0, 0, 1, 2, 2 and 3 jet products for k = 0..5, and its
    bits are those of square-and-multiply from a constant one."""
    import torsionflow.jets as jets

    rng = np.random.default_rng(5)
    space = jet_space(3, 3)
    x = JetField(space, rng.uniform(0.5, 1.5, (4, 2, space.ncoeff)))
    refs = [_pow_from_one(x, k) for k in range(6)]
    calls = []

    def counted(subscripts, a, b):
        calls.append(subscripts)
        return jet_einsum(subscripts, a, b)

    monkeypatch.setattr(jets, "jet_einsum", counted)
    for k, ref in enumerate(refs):
        calls.clear()
        got = x**k
        assert len(calls) == (0, 0, 1, 2, 2, 3)[k], k
        assert got is not x and got.data.tobytes() == ref.data.tobytes(), k


finite =st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(finite, min_size=3, max_size=3), st.lists(finite, min_size=3, max_size=3))
def test_ring_axioms(avals, bvals):
    sp = jet_space(1, 2)
    a = JetField(sp, np.array(avals))
    b = JetField(sp, np.array(bvals))
    x = JetField.variables(sp, [0.5]).entry(0)
    assert np.allclose((a + b).data, (b + a).data)
    assert np.allclose((a * b).data, (b * a).data, atol=1e-9)
    assert np.allclose(((a + b) * x).data, (a * x + b * x).data, atol=1e-9)
    assert np.allclose((a - a).data, 0.0)


def test_trig_identity_as_jets():
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = rng.uniform(-2, 2, size=2)
        x = JetField.variables(jet_space(2, 4), p)
        u = x.entry(0) * x.entry(1)
        lhs = u.fn("sin") * u.fn("sin") + u.fn("cos") * u.fn("cos")
        want = np.zeros(u.space.ncoeff)
        want[0] = 1.0
        assert np.allclose(lhs.data, want, atol=1e-12)


def test_division_roundtrip():
    rng = np.random.default_rng(3)
    sp = jet_space(2, 4)
    for _ in range(10):
        a = JetField(sp, rng.normal(size=sp.ncoeff))
        b = JetField(sp, rng.normal(size=sp.ncoeff))
        b = b + (3.0 + abs(b.value))  # keep the constant term away from zero
        assert np.allclose(((a / b) * b).data, a.data, atol=1e-10)


# ---------------------------------------------------------------------------
# JetField layer
# ---------------------------------------------------------------------------


def entry(field, i):
    return JetField(field.space, field.data[i].copy())


def test_field_matches_scalar_jets():
    sp = jet_space(2, 4)
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3, sp.ncoeff))
    B = rng.normal(size=(3, 3, sp.ncoeff))
    prod = jet_einsum("ij,jk->ik", JetField(sp, A), JetField(sp, B))
    want = JetField(sp, np.zeros(sp.ncoeff))
    for j in range(3):
        want = want + JetField(sp, A[0, j]) * JetField(sp, B[j, 2])
    assert np.allclose(prod.data[0, 2], want.data, atol=1e-12)


def test_field_diff_and_degree_tracking():
    sp = jet_space(2, 4)
    x = JetField.variables(sp, np.array([0.4, -0.2]))
    f = entry(x, 0) * entry(x, 1)  # x0 * x1
    d = f.diff(0)
    assert d.value == pytest.approx(-0.2)
    assert d.deg == 3
    g = entry(x, 0).fn("sin")
    assert g.deg == 4
    h = g.diff(0) * g
    assert h.deg == 3
    assert h.data.shape[-1] == sp.nc_at(3)
    with pytest.raises(JetError):
        f.truncate(0).diff(0)


def test_field_fn_matches_scalar():
    sp = jet_space(2, 4)
    x = JetField.variables(sp, np.array([0.4, 0.9]))
    f = entry(x, 1).fn("log")
    want = JetField.variables(sp, [0.0, 0.9]).entry(1).fn("log")
    assert np.allclose(f.data, want.data, atol=1e-14)


def test_matrix_inverse_exact():
    sp = jet_space(2, 4)
    x = JetField.variables(sp, np.array([0.3, -0.5]))
    x0, x1 = entry(x, 0), entry(x, 1)
    off = x0 * x1
    data = np.zeros((2, 2, sp.ncoeff))
    data[0, 0] = x0.fn("exp").data
    data[0, 1] = off.data
    data[1, 0] = off.data
    data[1, 1] = (x1 * x1 + JetField.constants(sp, np.array(2.0))).data
    A = JetField(sp, data)
    prod = jet_einsum("ij,jk->ik", A, jet_matrix_inverse(A))
    assert np.allclose(prod.data, JetField.constants(sp, np.eye(2)).data, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_matrix_inverse_truncates_bit_for_bit(dim):
    # N = I - A0^{-1} A has its constant term zeroed, so the Neumann sum
    # stops at the field degree and a low-degree inverse is the full one
    # truncated, bits included: g^{-1} is inverted at the degree it is read
    sp = jet_space(dim, 3)
    rng = np.random.default_rng(dim)
    data = rng.normal(size=(3, dim, dim, sp.ncoeff))
    data += np.swapaxes(data, 1, 2)
    data[..., 0] = data[..., 0] @ data[..., 0] + np.eye(dim)
    g = JetField(sp, data)
    full = jet_matrix_inverse(g)
    for d in range(sp.degree):
        assert jet_matrix_inverse(g.truncate(d)).data.tobytes() == full.truncate(d).data.tobytes(), d


def test_field_grad_stacks_derivatives():
    sp = jet_space(3, 3)
    x = JetField.variables(sp, np.array([0.1, 0.2, 0.3]))
    f = entry(x, 0) * entry(x, 1) * entry(x, 2)
    g = f.grad()
    assert g.shape == (3,)
    assert g.deg == 2
    assert g.value[0] == pytest.approx(0.2 * 0.3)
    assert g.value[2] == pytest.approx(0.1 * 0.2)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


NUMBER_OPS = [
    lambda a: a + 1.5,
    lambda a: 1.5 + a,
    lambda a: a - 1.5,
    lambda a: 1.5 - a,
    lambda a: a / 1.5,
    lambda a: 1.5 / a,
    lambda a: a**3,
    lambda a: a**-2,
]


def test_field_number_arithmetic_matches_entries():
    sp = jet_space(2, 4)
    rng = np.random.default_rng(5)
    data = rng.normal(size=(2, 2, sp.ncoeff))
    data[..., 0] += 3.0  # keep the constant terms away from zero
    f = JetField(sp, data)
    for op in NUMBER_OPS:
        whole = op(f)
        assert whole.shape == (2, 2) and whole.deg == 4
        for idx in np.ndindex(2, 2):
            assert _same_bits(whole.data[idx], op(f.entry(*idx)).data)

    # an entry of a degree-2 field in a degree-4 space stays degree 2
    e = f.truncate(2).entry(0, 1)
    assert e.space is sp and e.deg == 2
    for op in NUMBER_OPS:
        r = op(e)
        assert r.deg == 2
        assert r.data.shape[-1] == sp.nc_at(2)

    other = JetField.constants(jet_space(2, 3), 1.0)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(JetError):
            op(f, other)


# each op maps (a, b) to a field and (deg a, deg b) to the degree it is valid to
STORAGE_OPS = {
    "add": (lambda a, b: a + b, min),
    "sub": (lambda a, b: a - b, min),
    "mul": (lambda a, b: a * b, min),
    "div": (lambda a, b: a / b, min),
    "pow3": (lambda a, b: a**3, lambda da, db: da),
    "einsum": (lambda a, b: jet_einsum("ij,jk->ik", a, b), min),
    "diff": (lambda a, b: a.diff(1), lambda da, db: da - 1),
    "grad": (lambda a, b: a.grad(), lambda da, db: da - 1),
    "truncate": (lambda a, b: a.truncate(a.deg // 2), lambda da, db: da // 2),
    "entry": (lambda a, b: a.entry(0, 1), lambda da, db: da),
    "transpose": (lambda a, b: a.transpose((1, 0)), lambda da, db: da),
    "fn": (lambda a, b: a.fn("sqrt"), lambda da, db: da),
}


@pytest.mark.parametrize("name", list(STORAGE_OPS))
def test_fields_store_only_their_valid_degree(name):
    """A result holds exactly nc_at(deg) coefficients, bit-equal to the
    same operation on full-degree operands truncated afterwards: the short
    storage drops only coefficients that were never valid."""
    op, result_deg = STORAGE_OPS[name]
    sp = jet_space(3, 4)
    rng = np.random.default_rng(17)
    full_a = JetField(sp, rng.normal(size=(3, 3, sp.ncoeff)))
    full_b = JetField(sp, rng.normal(size=(3, 3, sp.ncoeff)))
    full_a.data[..., 0] = rng.uniform(2.0, 3.0, size=(3, 3))  # sqrt needs > 0
    full_b.data[..., 0] = rng.uniform(2.0, 3.0, size=(3, 3))  # division needs != 0
    for da in range(sp.degree + 1):
        for db in range(sp.degree + 1):
            deg = result_deg(da, db)
            if deg < 0:
                continue  # a degree-0 field has no derivative
            got = op(full_a.truncate(da), full_b.truncate(db))
            assert got.deg == deg
            assert got.data.shape[-1] == sp.nc_at(deg)
            want = op(full_a, full_b).truncate(deg)
            assert _same_bits(got.data, want.data), (name, da, db)


def test_storage_length_is_the_degree():
    sp = jet_space(3, 4)  # prefix lengths 1, 4, 10, 20, 35
    for d in range(sp.degree + 1):
        assert JetField(sp, np.zeros((2, sp.nc_at(d)))).deg == d
    for bad in (np.zeros(5), np.zeros((2, 36)), np.zeros((3, 0)), np.array(1.0)):
        with pytest.raises(JetError):
            JetField(sp, bad)
    f = JetField(sp, np.arange(sp.nc_at(3), dtype=float))
    assert f.coeff((1, 1, 1)) == float(sp.index[(1, 1, 1)])
    with pytest.raises(JetError):
        f.coeff((2, 2, 0))
    with pytest.raises(JetError):
        f.partial((0, 0, 4))
    with pytest.raises(JetError):
        f.truncate(4)


@pytest.mark.parametrize("dim, degree", [(1, 5), (3, 3), (4, 2)])
def test_pair_table_prefixes_are_the_truncated_products(dim, degree):
    # table(d) is a prefix of one table: the pairs of |alpha| + |beta| <= d,
    # grouped by output index, each group in (ia, ib) order
    sp = jet_space(dim, degree)
    idx = sp.multi_indices
    for d in range(degree + 1):
        want = [
            (k, i, j)
            for k in range(sp.nc_at(d))
            for i, a in enumerate(idx)
            for j, b in enumerate(idx)
            if tuple(x + y for x, y in zip(a, b)) == idx[k]
        ]
        ia, ib, starts = sp.table(d)
        assert list(zip(ia.tolist(), ib.tolist())) == [(i, j) for _, i, j in want]
        assert starts.tolist() == [[k for k, _, _ in want].index(k) for k in range(sp.nc_at(d))]


def _reduceat_product(subscripts, a, b):
    """The product over the whole pair table at once, summed by reduceat."""
    ia, ib, starts = a.space.table(min(a.deg, b.deg))
    la, lb, nb, nbl, nbk, perm_a, perm_b, perm_out = _einsum_plan(subscripts, a.data.ndim - 1, b.data.ndim - 1)
    x = a.data.transpose(perm_a)[ia]
    y = b.data.transpose(perm_b)[ib]
    sx, sy = x.shape[1 + la :], y.shape[1 + lb :]
    nk = math.prod(sx[nbl:])
    x = x.reshape(len(ia), -1, math.prod(sx[:nb]), math.prod(sx[nb:nbl]), nk)
    y = y.reshape(len(ib), -1, math.prod(sy[:nb]), nk, math.prod(sy[nbk:]))
    prod = np.add.reduceat(x @ y, starts, axis=0)
    lead = np.broadcast_shapes(a.shape[:la], b.shape[:lb])
    return prod.reshape((len(starts), *lead, *sx[:nbl], *sy[nbk:])).transpose(perm_out)


# subscripts and the tensor shapes of their operands
PRODUCTS = {
    ",->": ((), ()),
    "ij,jk->ik": ((3, 2), (2, 3)),
    "myb,am->aby": ((2, 3, 2), (2, 2)),
    "lim,mjk->lijk": ((2, 2, 3), (3, 2, 2)),
}


@pytest.mark.parametrize("dim", [1, 2, 4, 6])
def test_rank_sum_matches_reduceat(dim):
    # jet_einsum sums each output's pairs rank by rank in reduceat's order,
    # a[s] + ((a[s+1] + a[s+2]) + ...), so it equals the one-shot reduceat
    # exactly, not only to roundoff
    sp = jet_space(dim, 3)
    rng = np.random.default_rng(dim)
    for d in range(sp.degree + 1):
        ia, ib, _ = sp.table(d)
        ranks, _ = sp.ranks[d]
        # the ranks hold every pair of table(d), whose pairs are distinct, once
        by_rank = [(i, j) for ra, rb in ranks for i, j in zip(ra.tolist(), rb.tolist())]
        assert sorted(by_rank) == sorted(zip(ia.tolist(), ib.tolist()))
        for subscripts, (sa, sb) in PRODUCTS.items():
            for lead_a, lead_b in [((), ()), ((3,), (3,)), ((3,), ()), ((), (3,))]:
                a = JetField(sp, rng.normal(size=lead_a + sa + (sp.nc_at(d),)))
                b = JetField(sp, rng.normal(size=lead_b + sb + (sp.ncoeff,)))
                got = jet_einsum(subscripts, a, b)
                want = _reduceat_product(subscripts, a, b)
                assert got.deg == d and np.array_equal(got.data, want), (subscripts, d, lead_a, lead_b)
