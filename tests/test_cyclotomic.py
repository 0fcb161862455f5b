import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from invkloos.cyclotomic import (CycloRational, _pack,
                                 _phi_powers, _unpack, cyclotomic_poly,
                                 embed_complex, embed_counts, reduce_counts,
                                 reduce_mod_phi)


# ----------------------------------------------------------------------
# reduce_mod_phi
# ----------------------------------------------------------------------

def test_reduce_examples():
    assert reduce_mod_phi(np.array([1, 1, 1])).is_zero()
    v = reduce_mod_phi(np.array([0, 1, 1]))
    assert v == CycloRational.from_int(3, -1)
    v = reduce_mod_phi(np.array([2, 0, 0, 0, 0]))
    assert v.coeffs == (Fraction(2), 0, 0, 0)


def test_reduce_requires_conductor_one():
    with pytest.raises(ValueError, match="conductor"):
        reduce_mod_phi(np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="conductor"):
        reduce_mod_phi(np.zeros((3, 1), dtype=np.int64))


def _random_counts(p, data, m=1):
    """A (p, m) count row with entries in [-5, 5]."""
    return np.array([[data.draw(st.integers(-5, 5)) for _ in range(m)]
                     for _ in range(p)], dtype=np.int64)


def _mass(v):
    """sum |counts|, the scale of embed_counts' error bound."""
    return int(np.abs(v).sum())


def _hist_product(a, b):
    """a b for two (p, m) count rows: the cyclic convolution of the
    histograms on Z/p x Z/m."""
    p, m = a.shape
    out = np.zeros((p, m), dtype=np.int64)
    for (t1, j1), (t2, j2) in product(product(range(p), range(m)), repeat=2):
        out[(t1 + t2) % p, (j1 + j2) % m] += a[t1, j1] * b[t2, j2]
    return out


def _same(a, b):
    """Whether two (p, m) count rows are the same element of Z[zeta_p, zeta_m]."""
    return np.array_equal(reduce_counts(a), reduce_counts(b))


@given(st.sampled_from([3, 5, 7]), st.data())
def test_reduce_is_ring_map(p, data):
    a = _random_counts(p, data)[:, 0]
    b = _random_counts(p, data)[:, 0]
    assert reduce_mod_phi(a + b) == reduce_mod_phi(a) + reduce_mod_phi(b)
    assert reduce_mod_phi(_hist_product(a[:, None], b[:, None])[:, 0]) == \
        reduce_mod_phi(a) * reduce_mod_phi(b)


# ----------------------------------------------------------------------
# valuations
# ----------------------------------------------------------------------

def test_ord_examples():
    pi = CycloRational.zeta(3) - 1
    assert pi.ord_q(3) == Fraction(1, 2)
    assert CycloRational.from_int(3, 3).ord_q(3) == 1
    y = CycloRational.zeta(3, 1) - CycloRational.zeta(3, 2)
    assert y.norm() == 3
    assert y.ord_q(3) == Fraction(1, 2)
    assert CycloRational.zero(5).ord_q(5) is math.inf


def test_ord_q_conductor_mismatch():
    with pytest.raises(ValueError):
        CycloRational.from_int(3, 2).ord_q(5)
    with pytest.raises(ValueError):
        CycloRational.from_int(3, 2).ord_q(6)


def test_ord_with_rational_scaling():
    x = CycloRational.from_int(5, Fraction(1, 5))
    assert x.ord_q(5) == -1
    x = (CycloRational.zeta(5) - 1) / 25
    assert x.ord_q(5) == Fraction(1, 4) - 2


@given(st.sampled_from([3, 5, 7]), st.data())
def test_ord_is_a_valuation(p, data):
    def rand():
        return CycloRational(p, [data.draw(st.integers(-4, 4))
                                 for _ in range(p - 1)])
    x, y = rand(), rand()
    q = p
    ox, oy = x.ord_q(q), y.ord_q(q)
    assert (x * y).ord_q(q) == (math.inf if math.inf in (ox, oy) else ox + oy)
    os = (x + y).ord_q(q)
    assert os >= min(ox, oy)


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _check_ord_pi_against_norm(p, k, data):
    # p-power numerators and denominators put the valuation anywhere, and
    # the factor pi^k moves it off the multiples of p-1
    x = CycloRational(p, [Fraction(data.draw(st.integers(-3, 3))
                                   * p ** data.draw(st.integers(0, 3)),
                                   p ** data.draw(st.integers(0, 3)))
                          for _ in range(p - 1)])
    for _ in range(k):
        x = x * (CycloRational.zeta(p) - 1)
    assume(not x.is_zero())
    nrm = (x * x.den).norm()
    assert nrm.denominator == 1
    assert x.ord_pi() == _vp(int(nrm), p) - (p - 1) * _vp(x.den, p)


@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(0, 12), st.data())
def test_ord_pi_matches_norm_oracle(p, k, data):
    _check_ord_pi_against_norm(p, k, data)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 60), st.data())
def test_ord_pi_matches_norm_oracle_at_p53(k, data):
    # a norm is p-2 products of conjugates: affordable at p = 53 only
    # because the product is one big-int multiplication
    _check_ord_pi_against_norm(53, k, data)


# ----------------------------------------------------------------------
# complex embeddings
# ----------------------------------------------------------------------

def test_embed_examples():
    v = np.array([[0], [1], [1]])
    assert abs(embed_complex(v) - (-1.0)) < 1e-12
    w = np.array([[0], [1], [-1]])
    assert abs(embed_complex(w) - cmath.sqrt(-3)) < 1e-12
    assert embed_complex(np.zeros((3, 1), dtype=np.int64)) == 0
    assert type(embed_complex(w)) is complex


@given(st.sampled_from([3, 5]), st.data())
def test_embed_multiplicative(p, data):
    a = _random_counts(p, data, m=2 if p == 3 else 1)
    b = _random_counts(p, data, m=2 if p == 3 else 1)
    lhs = embed_complex(_hist_product(a, b))
    rhs = embed_complex(a) * embed_complex(b)
    assert abs(lhs - rhs) <= 1e-9 * (1 + _mass(a) * _mass(b))


# ----------------------------------------------------------------------
# canonical equality of count rows
# ----------------------------------------------------------------------

def _cell(p, m, t, j, c=1):
    v = np.zeros((p, m), dtype=np.int64)
    v[t, j] = c
    return v


def test_equality_across_representations():
    # zeta_6 = -zeta_6^4 = -zeta_3^2: same number, different histograms
    a = _cell(5, 6, 0, 1)
    b = _cell(5, 6, 0, 4, -1)
    assert _same(a, b)
    assert not _same(a, _cell(5, 6, 0, 4))
    # 3 = 3 zeta_5^0 and -3 (zeta_5 + ... + zeta_5^4)
    assert _same(_cell(5, 1, 0, 0, 3), np.array([[0], [-3], [-3], [-3], [-3]]))
    # the reduction is canonical only for coprime conductors, and refuses others
    with pytest.raises(ValueError, match="coprime"):
        reduce_counts(_cell(3, 6, 0, 1))


def test_conjugation_and_shift():
    # rotating the indices by (dt, dj) multiplies by zeta_p^dt zeta_m^dj
    v = _cell(5, 4, 2, 1, 3)
    s = np.roll(v, (1, 2), axis=(0, 1))
    assert abs(embed_complex(s)
               - embed_complex(v) * cmath.exp(2j * cmath.pi / 5)
               * cmath.exp(2j * cmath.pi * 2 / 4)) < 1e-12


def _reduced_reference(v):
    """The canonical (p-1) x phi(m) grid of v, cell by cell on Python ints:
    each row mod Phi_m, then the last row subtracted (mod Phi_p)."""
    p, m = v.shape
    phi = cyclotomic_poly(m)
    d = len(phi) - 1
    rows = v.tolist()
    for r in rows:
        for j in range(m - 1, d - 1, -1):
            c = r[j]
            if c:
                r[j] = 0
                for i in range(d):
                    r[j - d + i] -= c * phi[i]
    return [[rows[t][j] - rows[p - 1][j] for j in range(d)]
            for t in range(p - 1)]


_CONDUCTORS = [(p, m) for p in (3, 5, 7) for m in (1, 2, 3, 4, 6, 12, 30)
               if math.gcd(p, m) == 1]


@given(st.sampled_from(_CONDUCTORS), st.data())
def test_is_zero_matches_the_cell_loop(pm, data):
    p, m = pm
    ints = st.integers(-2 ** 20, 2 ** 20)
    # vanishing: every row the same (sum_t zeta_p^t = 0), plus in each row
    # c_t zeta_m^(s_t) Phi_m(zeta_m), its coefficients folded by y^m = 1
    fold = [0] * m
    for i, c in enumerate(cyclotomic_poly(m)):
        fold[i % m] += c
    const = [data.draw(ints) for _ in range(m)]
    rows = [(data.draw(ints), data.draw(st.integers(0, m - 1)))
            for _ in range(p)]
    z = np.array([[const[j] + c * fold[(j - s) % m] for j in range(m)] for c, s in rows])
    r = np.array([[data.draw(ints) for _ in range(m)] for _ in range(p)])
    R, _ = _phi_powers(m)
    for v in (z, r, r + z):
        ref = _reduced_reference(v)
        assert ((v[:-1] - v[-1]) @ R).tolist() == reduce_counts(v).tolist() == ref
        assert (not reduce_counts(v).any()) == (not any(map(any, ref)))
    assert not reduce_counts(z).any()
    assert _same(r + z, r)
    r1 = np.roll(r, 1, axis=0)
    assert _same(r, r1) == (not any(map(any, _reduced_reference(r - r1))))


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 23), st.data())
def test_array_embedding_matches_the_per_entry_sum(p, m, data):
    # within the documented bound mass * 1e-14, which holds for p + m <= 25
    assume(math.gcd(p, m) == 1 and p + m <= 25)
    cells = st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=m, max_size=m)
    v = np.array(data.draw(st.lists(cells, min_size=p, max_size=p)), dtype=np.int64)
    zp = [cmath.exp(2j * cmath.pi * t / p) for t in range(p)]
    zm = [cmath.exp(2j * cmath.pi * j / m) for j in range(m)]
    exact = 0j
    for (t, j), c in np.ndenumerate(v):
        exact += int(c) * zp[t] * zm[j]
    assert abs(embed_complex(v) - exact) <= _mass(v) * 1e-14
    # a stack embeds row by row, and reduces to the same canonical grids
    stack = np.stack([v, -v, 0 * v])
    assert np.allclose(embed_counts(stack),
                       [exact, -exact, 0], rtol=0, atol=_mass(v) * 1e-14)
    red = reduce_counts(stack)
    assert red.shape == (3, p - 1, len(_phi_powers(m)[0][0]))
    assert not red[2].any() and (red[0] == -red[1]).all()
    assert bool(red[0].any()) == bool(reduce_counts(v).any())


def test_growth_past_int64_is_refused():
    with pytest.raises(OverflowError):      # 2^62 - (-2^62) in the reduction
        reduce_counts(np.array([[2 ** 62], [0], [-2 ** 62]], dtype=np.int64))
    with pytest.raises(OverflowError):      # a whole stack, at m = 4
        reduce_counts(np.full((2, 3, 4), 2 ** 61, dtype=np.int64))


# ----------------------------------------------------------------------
# cyclotomic polynomials
# ----------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12, 30, 105])
def test_cyclotomic_poly_degree_and_root(m):
    phi = cyclotomic_poly(m)
    totient = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
    assert len(phi) - 1 == totient
    z = cmath.exp(2j * cmath.pi / m)
    val = sum(c * z ** k for k, c in enumerate(phi))
    assert abs(val) < 1e-9


def test_cyclotomic_poly_prime_is_all_ones():
    assert cyclotomic_poly(7) == tuple([1] * 7)
    assert cyclotomic_poly(13) == tuple([1] * 13)


# ----------------------------------------------------------------------
# CycloRational ring behaviour
# ----------------------------------------------------------------------

@given(st.sampled_from([3, 5, 7]), st.data())
def test_cyclo_ring_axioms(p, data):
    def rand():
        return CycloRational(p, [Fraction(data.draw(st.integers(-6, 6)),
                                          data.draw(st.integers(1, 3)))
                                 for _ in range(p - 1)])
    x, y, z = rand(), rand(), rand()
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    lhs = (x * y).embed()
    rhs = x.embed() * y.embed()
    assert abs(lhs - rhs) < 1e-7 * (1 + abs(rhs))


def _fraction_product(x, y):
    """x y by the schoolbook O(p^2) loop on Fraction coefficients, folded
    by zeta^p = 1 and then mod Phi_p: the product as it was computed before
    Kronecker substitution, kept as the oracle for it."""
    p = x.p
    v = [Fraction(0)] * p
    for i, a in enumerate(x.coeffs):
        if a:
            for j, b in enumerate(y.coeffs):
                if b:
                    v[(i + j) % p] += a * b
    return tuple(v[t] - v[p - 1] for t in range(p - 1))


def _assert_canonical(x):
    assert len(x.num) == x.p - 1
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1


def _draw_cyclo(p, data, kinds):
    kind = data.draw(st.sampled_from(kinds))
    bits = data.draw(st.sampled_from([1, 7, 63, 200]))
    ints = st.integers(-2 ** bits, 2 ** bits)
    num = [0] * (p - 1)
    if kind == "dense":
        num = data.draw(st.lists(ints, min_size=p - 1, max_size=p - 1))
    elif kind == "extreme":       # every entry +-2^bits
        num = data.draw(st.lists(st.sampled_from([-2 ** bits, 2 ** bits]),
                                 min_size=p - 1, max_size=p - 1))
    elif kind == "sparse":
        for t, c in data.draw(st.dictionaries(st.integers(0, p - 2), ints,
                                              max_size=8)).items():
            num[t] = c
    elif kind == "last":          # one nonzero entry, on zeta^(p-2)
        num[p - 2] = data.draw(ints.filter(bool))
    den = data.draw(st.integers(1, 10 ** 6))
    return CycloRational(p, [Fraction(a, den) for a in num])


@settings(deadline=None)
@given(st.sampled_from([3, 5, 53, 89, 401]), st.data())
def test_product_matches_the_fraction_loop(p, data):
    kinds = ["dense", "extreme", "sparse", "zero", "last"]
    x = _draw_cyclo(p, data, kinds)
    # at p = 401 one sparse factor keeps the O(p^2) oracle affordable
    y = _draw_cyclo(p, data, kinds if p < 401 else ["sparse", "zero", "last"])
    c = Fraction(data.draw(st.integers(-10 ** 6, 10 ** 6)),
                 data.draw(st.integers(1, 10 ** 6)))
    assert (x * y).coeffs == _fraction_product(x, y)
    assert (x + y).coeffs == tuple(a + b for a, b in zip(x.coeffs, y.coeffs))
    assert (x * c).coeffs == tuple(a * c for a in x.coeffs)
    h = data.draw(st.lists(st.integers(-6, 6), min_size=p, max_size=p))
    r = reduce_mod_phi(np.array(h)) / 6
    assert r.coeffs == tuple(Fraction(a - h[-1], 6) for a in h[:-1])
    for z in (x, y, x * y, y * x, x + y, x - y, -x, x * c, c * x, x + c,
              x.galois(2), r):
        _assert_canonical(z)
    if c:
        _assert_canonical(x / c)
        assert (x / c).coeffs == tuple(a / c for a in x.coeffs)


@pytest.mark.parametrize("p", [3, 5, 53])
def test_product_reaches_the_coefficient_bound(p):
    # entries of one sign make the middle coefficient of the acyclic
    # product exactly (p-1) max|a| max|b|, the bound the digit width is
    # taken from; k puts its bit length at every residue mod 8
    for k in range(8):
        for s in (1, -1):
            x = CycloRational(p, [2 ** k] * (p - 1))
            y = CycloRational(p, [s] * (p - 1))
            assert (x * y).coeffs == _fraction_product(x, y)


@given(st.integers(1, 40), st.data())
def test_unpack_inverts_pack_at_the_ends_of_the_digit_range(sb, data):
    half = 2 ** (8 * sb - 1)
    digits = data.draw(st.lists(st.sampled_from([-half, half - 1, -1, 0, 1])
                                | st.integers(-half, half - 1),
                                min_size=1, max_size=12))
    x = sum(d << (8 * sb * i) for i, d in enumerate(digits))
    assert _pack(digits, sb) == x
    pad = data.draw(st.integers(0, 2))
    assert _unpack(x, sb, len(digits) + pad) == digits + [0] * pad


def test_galois_action():
    z = CycloRational.zeta(5)
    assert z.galois(2) == CycloRational.zeta(5, 2)
    x = z + 3
    prod = CycloRational.one(5)
    for j in range(1, 5):
        prod = prod * x.galois(j)
    assert prod.rational_value() == x.norm()
    # norm of 3 + zeta_5 is Phi_5(-3) = 61
    assert x.norm() == sum((-3) ** k for k in range(5))


def test_zeta_power_wraps():
    z = CycloRational.zeta(3)
    assert z * z * z == CycloRational.one(3)
    assert z * z == CycloRational.zeta(3, 2)
    assert (z * z + z + 1).is_zero()
