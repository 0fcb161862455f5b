import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from invkloos.cyclotomic import (CycloRational, SumValue, _pack,
                                 _phi_powers, _unpack, cyclotomic_poly,
                                 embed_complex, embed_counts, reduce_counts,
                                 reduce_mod_phi)


# ----------------------------------------------------------------------
# reduce_mod_phi
# ----------------------------------------------------------------------

def test_reduce_examples():
    assert reduce_mod_phi(SumValue.from_hist(3, [1, 1, 1])).is_zero()
    v = reduce_mod_phi(SumValue.from_hist(3, [0, 1, 1]))
    assert v == CycloRational.from_int(3, -1)
    v = reduce_mod_phi(SumValue.from_hist(5, [2, 0, 0, 0, 0]))
    assert v.coeffs == (Fraction(2), 0, 0, 0)


def test_reduce_requires_conductor_one():
    with pytest.raises(ValueError, match="conductor"):
        reduce_mod_phi(SumValue(3, 2))


def _random_sumvalue(p, data, m=1):
    counts = [[data.draw(st.integers(-5, 5)) for _ in range(m)]
              for _ in range(p)]
    return SumValue(p, m, counts)


def _mass(v):
    """sum |counts|, the scale of embed_counts' error bound."""
    return int(np.abs(v.counts).sum())


def _hist_product(a, b):
    """a b for two SumValues with the same (p, m): the cyclic convolution
    of their histograms on Z/p x Z/m."""
    p, m = a.p, a.m
    out = [[0] * m for _ in range(p)]
    for (t1, j1), (t2, j2) in product(product(range(p), range(m)), repeat=2):
        out[(t1 + t2) % p][(j1 + j2) % m] += a.counts[t1][j1] * b.counts[t2][j2]
    return SumValue(p, m, out)


@given(st.sampled_from([3, 5, 7]), st.data())
def test_reduce_is_ring_map(p, data):
    a = _random_sumvalue(p, data)
    b = _random_sumvalue(p, data)
    assert reduce_mod_phi(SumValue(p, 1, a.counts + b.counts)) == \
        reduce_mod_phi(a) + reduce_mod_phi(b)
    assert reduce_mod_phi(_hist_product(a, b)) == \
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
    v = SumValue.from_hist(3, [0, 1, 1])
    assert abs(embed_complex(v) - (-1.0)) < 1e-12
    w = SumValue(3, 1, [[0], [1], [-1]])
    assert abs(embed_complex(w) - cmath.sqrt(-3)) < 1e-12
    assert embed_complex(SumValue(3)) == 0


@given(st.sampled_from([3, 5]), st.data())
def test_embed_multiplicative(p, data):
    a = _random_sumvalue(p, data, m=2 if p == 3 else 1)
    b = _random_sumvalue(p, data, m=2 if p == 3 else 1)
    lhs = embed_complex(_hist_product(a, b))
    rhs = embed_complex(a) * embed_complex(b)
    assert abs(lhs - rhs) <= 1e-9 * (1 + _mass(a) * _mass(b))


# ----------------------------------------------------------------------
# SumValue canonical equality
# ----------------------------------------------------------------------

def _cell(p, m, t, j, c=1):
    v = SumValue(p, m)
    v.counts[t, j] = c
    return v


def test_equality_across_representations():
    # zeta_6 = -zeta_6^4 = -zeta_3^2: same number, different histograms
    a = _cell(5, 6, 0, 1)
    b = _cell(5, 6, 0, 4, -1)
    assert a == b
    assert not (a == _cell(5, 6, 0, 4))
    # 3 = 3 zeta_5^0 and -3 (zeta_5 + ... + zeta_5^4)
    assert _cell(5, 1, 0, 0, 3) == SumValue.from_hist(5, [0, -3, -3, -3, -3])
    # values of different conductors are not compared
    with pytest.raises(ValueError, match="conductors"):
        _ = a == SumValue(5, 3)
    with pytest.raises(ValueError, match="conductors"):
        _ = SumValue(3) == SumValue(5)
    # nor with a number: an int is not silently unequal
    with pytest.raises(TypeError):
        _ = _cell(5, 1, 0, 0, 3) == 3


def test_conjugation_and_shift():
    # rotating the indices by (dt, dj) multiplies by zeta_p^dt zeta_m^dj
    v = _cell(5, 4, 2, 1, 3)
    s = SumValue(5, 4, np.roll(v.counts, (1, 2), axis=(0, 1)))
    assert abs(embed_complex(s)
               - embed_complex(v) * cmath.exp(2j * cmath.pi / 5)
               * cmath.exp(2j * cmath.pi * 2 / 4)) < 1e-12


def _reduced_reference(v):
    """The canonical (p-1) x phi(m) grid of v, cell by cell on Python ints:
    each row mod Phi_m, then the last row subtracted (mod Phi_p)."""
    p, m = v.p, v.m
    phi = cyclotomic_poly(m)
    d = len(phi) - 1
    rows = v.counts.tolist()
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
    z = [[const[j] + c * fold[(j - s) % m] for j in range(m)] for c, s in rows]
    r = SumValue(p, m, [[data.draw(ints) for _ in range(m)] for _ in range(p)])
    R, _ = _phi_powers(m)
    for v in (SumValue(p, m, z), r, SumValue(p, m, r.counts + z)):
        ref = _reduced_reference(v)
        assert ((v.counts[:-1] - v.counts[-1]) @ R).tolist() == ref
        assert v.is_zero() == (not any(map(any, ref)))
    assert SumValue(p, m, z).is_zero()
    assert SumValue(p, m, r.counts + z) == r
    r1 = SumValue(p, m, np.roll(r.counts, 1, axis=0))
    assert (r == r1) == (not any(map(any, _reduced_reference(
        SumValue(p, m, r.counts - r1.counts)))))


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 23), st.data())
def test_array_embedding_matches_the_per_entry_sum(p, m, data):
    # within the documented bound mass * 1e-14, which holds for p + m <= 25
    assume(math.gcd(p, m) == 1 and p + m <= 25)
    cells = st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=m, max_size=m)
    v = SumValue(p, m, data.draw(st.lists(cells, min_size=p, max_size=p)))
    zp = [cmath.exp(2j * cmath.pi * t / p) for t in range(p)]
    zm = [cmath.exp(2j * cmath.pi * j / m) for j in range(m)]
    exact = 0j
    for t, j, c in v.entries():
        exact += c * zp[t] * zm[j]
    assert abs(v.embed() - exact) <= _mass(v) * 1e-14
    # a stack embeds row by row, and reduces to the same canonical grids
    stack = np.stack([v.counts, -v.counts, 0 * v.counts])
    assert np.allclose(embed_counts(stack),
                       [exact, -exact, 0], rtol=0, atol=_mass(v) * 1e-14)
    red = reduce_counts(stack)
    assert red.shape == (3, p - 1, len(_phi_powers(m)[0][0]))
    assert not red[2].any() and (red[0] == -red[1]).all()
    assert bool(red[0].any()) == (not v.is_zero())


def test_growth_past_int64_is_refused():
    with pytest.raises(OverflowError):
        SumValue(3, 1, [[2 ** 63], [0], [0]])
    with pytest.raises(OverflowError):      # 2^62 - (-2^62) in the reduction
        SumValue(3, 1, [[2 ** 62], [0], [-2 ** 62]]).is_zero()
    with pytest.raises(OverflowError):      # either side of an equality
        _ = SumValue(3) == SumValue(3, 1, [[2 ** 62], [0], [-2 ** 62]])
    with pytest.raises(OverflowError):      # a whole stack, at m = 4
        reduce_counts(np.full((2, 3, 4), 2 ** 61, dtype=np.int64))


def test_construction_copies_and_checks_shape():
    with pytest.raises(ValueError):
        SumValue(3, 2, [[1, 2, 3]])
    with pytest.raises(ValueError):
        SumValue.from_hist(5, np.zeros(4))
    hist = np.array([1, 2, 3])
    v = SumValue.from_hist(3, hist)
    hist[0] = 9
    assert v.counts.tolist() == [[1], [2], [3]]


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
    r = reduce_mod_phi(SumValue.from_hist(p, h)) / 6
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
