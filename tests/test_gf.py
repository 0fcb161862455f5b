import hashlib
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from invkloos import gf
from invkloos.errors import BudgetExceeded
from invkloos.gf import (FieldTable, build_field, field_maps, is_prime,
                         smallest_irreducible)


# dense polynomials over Z/p as little-endian coefficient lists, kept here
# as an oracle independent of the matrix arithmetic gf bootstraps with

def _pmodred(f, mod, p):
    # mod is monic; the result is trimmed of zero leading coefficients
    f, d = list(f), len(mod) - 1
    for i in range(len(f) - 1, d - 1, -1):
        c, f[i] = f[i], 0
        for j in range(d):
            f[i - d + j] = (f[i - d + j] - c * mod[j]) % p
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmulmod(f, g, mod, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = (out[i + j] + fi * gj) % p
    return _pmodred(out, mod, p)


def _irreducible_by_trial_division(f, p):
    """No monic d of degree 1..a/2 divides f: long division leaves f mod d."""
    a = len(f) - 1
    return all(_pmodred(f, list(low) + [1], p)
               for deg in range(1, a // 2 + 1)
               for low in product(range(p), repeat=deg))


def test_f7_generator_is_smallest_primitive_root():
    F = build_field(7, 1)
    assert F.g == 3
    # exhaustive order check: every smaller candidate has order < 6
    for c in (2,):
        assert 1 in {pow(c, e, 7) for e in range(1, 6)}


def test_f9_modulus_is_x2_plus_1():
    F = build_field(3, 2)
    assert F.modulus == (1, 0, 1)
    # x^2+2 = (x-1)(x+1) over F_3, so it must be skipped
    roots = [x for x in range(3) if (x * x + 2) % 3 == 0]
    assert roots


def test_nonprime_p_rejected():
    with pytest.raises(ValueError, match="not prime"):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(3, 0)


def test_table_cap_refusal_reports_memory(monkeypatch):
    monkeypatch.setattr(gf, "TABLE_CAP", 1 << 20)
    with pytest.raises(BudgetExceeded, match="MiB"):
        build_field(2, 30)


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (3, 2), (5, 2), (2, 4), (7, 3),
                                 (2, 13), (4099, 1)])
def test_exp_dlog_bijection_and_inverses(p, a):
    F = build_field(p, a)
    q = F.q
    idx = np.arange(q - 1)
    assert (F.dlog[F.exp[idx]] == idx).all()
    assert sorted(F.exp.tolist()) == list(range(1, q))
    xs = np.arange(1, q)
    inv = np.array([F.power(int(x), -1) for x in xs])
    assert (F.mul(xs, inv) == 1).all()
    with pytest.raises(ZeroDivisionError):
        F.power(0, -1)


def _reference_tables(p, a):
    """Tables built one element at a time: g is the smallest candidate
    whose powers, stepped by single polynomial products, reach 1 only after
    q-1 steps; the trace sums the Frobenius conjugates x^(p^i)."""
    mod = list(smallest_irreducible(p, a))
    q, m = p ** a, p ** a - 1
    for g in range(1, q):
        gpoly = [(g // p ** i) % p for i in range(a)]
        exp, val = [], [1]
        while True:
            exp.append(sum(c * p ** i for i, c in enumerate(val)))
            val = _pmulmod(val, gpoly, mod, p)
            if val == [1]:
                break
        if len(exp) == m:
            break
    exp = np.array(exp, dtype=np.int64)
    dlog = np.full(q, -1, dtype=np.int64)
    dlog[exp] = np.arange(m)
    digits = np.array([[(x // p ** i) % p for i in range(a)] for x in range(q)],
                      dtype=np.int16)
    conj = sum(digits[exp[dlog[1:] * p ** i % m]].astype(np.int64)
               for i in range(a)) % p
    assert not conj[:, 1:].any()
    tr_abs = np.zeros(q, dtype=np.int16)
    tr_abs[1:] = conj[:, 0]
    return dict(g=g, exp=exp, dlog=dlog, tr_abs=tr_abs, digits=digits)


# q-1 against the block of 1024 powers: below it (2^1, 3^2, 2^10), one
# short of a multiple (2^12), a multiple (12289), just above one (4099), and
# a partial last block with a = 3 (17^3); then a multiple of p
# and a = p, so that tr(1) = a = 0 (3^6, 5^5)
@pytest.mark.parametrize("p,a", [(2, 1), (3, 2), (2, 10), (2, 12), (12289, 1),
                                 (4099, 1), (17, 3), (3, 6), (5, 5)])
def test_tables_match_per_element_reference(p, a):
    F = build_field(p, a)
    ref = _reference_tables(p, a)
    assert F.g == ref.pop("g")
    for name, want in ref.items():
        got = getattr(F, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("p,a", [(3, 1), (3, 2), (5, 1), (7, 2), (2, 5)])
def test_generator_order_is_full(p, a):
    F = build_field(p, a)
    M = F.q - 1
    seen = 1
    for d in range(1, M):
        if F.power(F.g, d) == 1:
            seen = d
            break
    else:
        seen = M
    assert seen == M or M == 1


def test_trace_additive_exhaustive_up_to_729():
    # freshman's dream: tr(x+y) = tr(x) + tr(y), and tr(x^p) = tr(x)
    for p, a in [(3, 1), (3, 2), (3, 3), (3, 6), (2, 4), (5, 2)]:
        F = build_field(p, a)
        xs = np.arange(F.q)
        x = np.repeat(xs, F.q)
        y = np.tile(xs, F.q)
        lhs = F.tr_abs[F.add(x, y)]
        rhs = (F.tr_abs[x].astype(np.int64) + F.tr_abs[y]) % p
        assert (lhs == rhs).all()
        frob = np.array([F.power(int(v), p) for v in xs[: min(F.q, 200)]])
        assert (F.tr_abs[frob] == F.tr_abs[xs[: len(frob)]]).all()


def test_dlog_is_homomorphism_exhaustive_up_to_2401():
    for p, a in [(5, 2), (7, 4)]:
        F = build_field(p, a)
        M = F.q - 1
        e = np.arange(M)
        x = F.exp[np.repeat(e, M)]
        y = F.exp[np.tile(e, M)]
        assert (F.dlog[F.mul(x, y)] == (F.dlog[x] + F.dlog[y]) % M).all()


def _rel_trace(m, x):
    """x + x^q + ... + x^(q^(k-1)) in F_{q^k}, by Frobenius powers."""
    E, s = m.ext, 0
    for i in range(m.k):
        s = E.add(s, E.power(x, m.base.q ** i))
    return s


def _rel_norm(m, x):
    """x x^q ... x^(q^(k-1)) in F_{q^k}, by Frobenius powers."""
    E, s = m.ext, 1
    for i in range(m.k):
        s = E.mul(s, E.power(x, m.base.q ** i))
    return s


def test_random_norm_mult_trace_add_on_large_field():
    F = build_field(13, 4)
    rng = np.random.default_rng(0)
    x = rng.integers(0, F.q, size=10 ** 4)
    y = rng.integers(0, F.q, size=10 ** 4)
    assert (F.tr_abs[F.add(x, y)]
            == (F.tr_abs[x].astype(np.int64) + F.tr_abs[y]) % 13).all()
    # the norm to F_13 is x^((q^4-1)/12): multiplicative, into the prime field
    m = field_maps(build_field(13, 1), 4)
    assert m.ext is F
    x, y = x[:2000], y[:2000]
    nx = np.array([_rel_norm(m, int(v)) for v in x])
    ny = np.array([_rel_norm(m, int(v)) for v in y])
    nxy = np.array([_rel_norm(m, int(v)) for v in F.mul(x, y)])
    assert (nx == [F.power(int(v), (F.q - 1) // 12) if v else 0 for v in x]).all()
    assert (nxy == F.mul(nx, ny)).all()
    assert (nx < 13).all() and (nxy < 13).all()


def test_extension_maps_f9_over_f3():
    base = build_field(3, 1)
    m = field_maps(base, 2)
    E = m.ext
    assert (m.embed_tab == np.arange(3)).all()      # prime field: identity
    assert _rel_trace(m, 3) == 0    # x + x^3 = 0 for x = t, t^2 = -1
    # x + x^3 lies in F_3 for every x, and tr_abs factors through it
    for x in range(E.q):
        t = _rel_trace(m, x)
        assert t < 3 and E.tr_abs[x] == base.tr_abs[t]


def test_extension_maps_k1_identity():
    base = build_field(5, 1)
    m = field_maps(base, 1)
    assert m.ext is base and m.k == 1
    assert (m.embed_tab == np.arange(5)).all()


def test_norm_f49_over_f7_is_x8_and_surjective():
    base = build_field(7, 1)
    m = field_maps(base, 2)
    E = m.ext
    norms = [_rel_norm(m, x) for x in range(1, E.q)]
    assert norms == [E.power(x, 8) for x in range(1, E.q)]
    g_norm = _rel_norm(m, E.g)
    assert sorted({pow(g_norm, e, 7) for e in range(1, 7)}) == list(range(1, 7))
    # surjectivity onto the embedded F_7^* by enumeration
    assert set(norms) == set(m.embed_tab[1:].tolist())


def test_embed_is_ring_hom():
    base = build_field(3, 2)
    m = field_maps(base, 2)
    E = m.ext
    for x in range(base.q):
        for y in range(base.q):
            assert m.embed_tab[base.add(x, y)] == E.add(int(m.embed_tab[x]),
                                                        int(m.embed_tab[y]))
            assert m.embed_tab[base.mul(x, y)] == E.mul(int(m.embed_tab[x]),
                                                        int(m.embed_tab[y]))
    assert len(set(m.embed_tab.tolist())) == base.q


def test_absolute_trace_factors_through_relative():
    base = build_field(3, 2)
    for k in (2, 3):
        m = field_maps(base, k)
        E = m.ext
        pre = {int(v): y for y, v in enumerate(m.embed_tab)}    # embed^-1
        # Tr_{E/F_3} = Tr_{F_9/F_3} o Tr_{E/F_9}, the inner a Frobenius sum
        for x in range(E.q):
            assert E.tr_abs[x] == base.tr_abs[pre[_rel_trace(m, x)]]
        # on the embedded base: Tr_{E/F_3}(y) = k Tr_{F_9/F_3}(y) and
        # N_{E/F_9}(y) = y^k
        for y in range(base.q):
            v = int(m.embed_tab[y])
            assert E.tr_abs[v] == k * base.tr_abs[y] % 3
            if y:
                assert pre[_rel_norm(m, v)] == base.power(y, k)


@given(st.sampled_from([(2, 1), (3, 1), (5, 1), (3, 2), (2, 3), (7, 1)]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_field_axioms_random(pa, xi, yi):
    F = build_field(*pa)
    x, y = xi % F.q, yi % F.q
    assert F.add(x, y) == F.add(y, x)
    assert F.mul(x, y) == F.mul(y, x)
    assert F.add(x, F.neg(x)) == 0
    if x:
        assert F.mul(x, F.power(x, -1)) == 1
    # distributivity
    z = (xi * 7 + yi * 3) % F.q
    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))


def test_smallest_irreducible_lex_order():
    # over F_3, degree 2: (c0,c1) = (1,0) i.e. x^2+1 comes before x^2+x+2 etc.
    assert smallest_irreducible(3, 2) == (1, 0, 1)
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1
    assert smallest_irreducible(5, 1) == (0, 1)


@pytest.mark.parametrize("p,a", [(p, a) for p, top in ((2, 11), (3, 7), (5, 4), (7, 3))
                                 for a in range(1, top + 1)])
def test_smallest_irreducible_matches_trial_division_scan(p, a):
    # every candidate in (c_0, ..., c_{a-1}) order, c_0 = 0 included, tried
    # against every monic divisor of degree <= a/2
    want = next(coeffs + (1,) for coeffs in product(range(p), repeat=a)
                if _irreducible_by_trial_division(list(coeffs) + [1], p))
    assert smallest_irreducible(p, a) == want


@pytest.mark.parametrize("p,a,terms", [
    (2, 20, {20: 1, 17: 1, 0: 1}),
    (2, 24, {24: 1, 23: 1, 21: 1, 20: 1, 0: 1}),
    (3, 11, {11: 1, 10: 2, 9: 1, 0: 1}),
    (3, 16, {16: 1, 14: 1, 13: 1, 0: 1}),
    (5, 7, {7: 1, 6: 1, 0: 1}),
    (7, 6, {6: 1, 4: 1, 0: 1}),
    (53, 3, {3: 1, 2: 2, 0: 1}),
])
def test_smallest_irreducible_is_pinned(p, a, terms):
    assert smallest_irreducible(p, a) == tuple(terms.get(i, 0) for i in range(a + 1))


def _trace_by_conjugates(mod, p, j):
    """tr(t^j) = sum_i (t^j)^(p^i) in F_p[t]/(mod), each p-th power taken
    as p products."""
    y, acc = _pmodred([0] * j + [1], mod, p), [0] * (len(mod) - 1)
    for _ in acc:
        for i, c in enumerate(y):
            acc[i] = (acc[i] + c) % p
        z = [1]
        for _ in range(p):
            z = _pmulmod(z, y, mod, p)
        y = z
    assert not any(acc[1:]), "trace outside the prime field"
    return acc[0]


@settings(max_examples=25)
@given(st.sampled_from([(p, a) for p, top in ((2, 15), (3, 10), (5, 6), (7, 5),
                                               (11, 4), (13, 4))
                        for a in range(1, top + 1)]),
       st.integers(0, 10 ** 6))
@example((3, 6), 0)
@example((5, 5), 0)
@example((2, 9), 0)
def test_power_basis_traces_match_the_conjugate_sums(pa, seed):
    # tr_abs at t^j (encoding p^j) comes from Newton's identities on the
    # modulus; here the modulus is a random irreducible
    p, a = pa
    rng = random.Random(seed)
    while True:
        mod = [rng.randrange(p) for _ in range(a)] + [1]
        if _irreducible_by_trial_division(mod, p):
            break
    F = FieldTable(p, a, tuple(mod))
    assert [int(F.tr_abs[p ** j]) for j in range(a)] == \
        [_trace_by_conjugates(mod, p, j) for j in range(a)]


def _table_digest(F):
    h = hashlib.sha256(repr((F.modulus, F.g)).encode())
    for name in ("exp", "dlog", "digits", "tr_abs"):
        arr = getattr(F, name)
        h.update(repr((name, arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# sha256 of (modulus, g) and the four tables with their dtypes and shapes,
# recorded with the per-polynomial construction these tables replaced;
# (3, 11), (5, 7) and (7, 6), the largest tables the benchmark builds, with
# the int64 exp/dlog blocks that the float64 ones replaced
TABLE_DIGESTS = {
    (2, 1): "0c3b36a13009d9a390ac7c3ccbb5565680fe22e0f32cc99d786cbb549e66db56",
    (2, 12): "4be5dd262cc3c426d2c7af2bfc71071c8cf69436a37f2b4bca82f25cbffdd94b",
    (2, 16): "cbba97c9cd578c893dbaec1149726f4150243fb85c90397db1912640dfc0bc20",
    (3, 7): "8eda8da38aa565cd4a656002ea810fc7d41b1203557d963bc35c0993cdbaf12a",
    (3, 10): "855bd51dc0b34d217a8246d6ff4fa675b87cd59380a1e6a24e7f433aa6180959",
    (3, 11): "7b19fb47badf0886ae73a41c35d96ee013ac78a8936822b3d8fb7122e680da2a",
    (5, 5): "d1b4cc430fa3cf9623443302e825db7cab8f32aa8c307630d90f4138436e98af",
    (5, 6): "0415f4722fd1ecb1b7a56d20fa9d8d8a99473872233c0dd0c91f4c0883772107",
    (5, 7): "6660c57b29e27d0b24d56f7ec911bba6771e17244f054a9b70014d25b48babf5",
    (7, 4): "caec3709697c9ff147f84759ce7413fc2c4f75e5b34652981c88c6fa49922f0f",
    (7, 5): "aa751cbaa1f5b0f0407fa750855e4f71a184c730398105a333b257bbe333f199",
    (7, 6): "1b5fc76b8c7cb2b030643127ab33d838fafd1c827f83797e1a424cd2e5777f88",
    (13, 4): "1d326d7e46a33fbb96ac020ee80738954d1524fcba50ecc9f47dd0be5e9658b2",
    (41, 3): "22df59e582eff8568cf3da1f90ef4140e5f71863054cb80763a588daf044ee03",
    (53, 3): "54f1bb93cf70233f3718fcc42ee3da90fd98a8e4afeabd3450e02cf88a1970bb",
    (4099, 1): "d6b163d8e0c1bbb0690c793570f8a0da62cdfc2f8944ba8669d2cf7a1cb5492f",
    (65537, 1): "36b0060ec31622fbe8be8de12026d6d44217677d717df17e5912d9a944bd1b67",
}


@pytest.mark.parametrize("p,a", list(TABLE_DIGESTS))
def test_tables_are_pinned(p, a):
    assert _table_digest(build_field(p, a)) == TABLE_DIGESTS[p, a]


def test_is_prime():
    assert [n for n in range(2, 40) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_table_build_peak_is_a_small_multiple_of_the_tables(monkeypatch):
    # the trace is built by outer sums in the digits' dtype and the digits
    # are filled in place, so no (q, a) or q-sized int64 temporary adds to
    # the tables
    monkeypatch.setattr(gf, "_FIELDS", {})
    monkeypatch.setattr(gf, "_MAPS", {})
    tracemalloc.start()
    try:
        m = field_maps(build_field(2, 9), 2)    # builds F_{2^18} and its maps
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    E = m.ext
    tables = sum(arr.nbytes for arr in (
        E.exp, E.dlog, E.tr_abs, E.digits, m.embed_tab))
    assert peak < 1.2 * tables


def test_float_blocks_are_exact_under_the_table_cap():
    # for every a, the largest p with p^a <= TABLE_CAP: a dot product of a
    # digits with matrix entries, at most a (p-1)^2, stays below 2^52, and
    # the float64 reduction agrees with % p up to there
    for a in range(1, 27):
        p = next(x for x in range(round(gf.TABLE_CAP ** (1 / a)) + 1, 1, -1)
                 if x ** a <= gf.TABLE_CAP and is_prime(x))
        top = a * (p - 1) ** 2
        assert top < 1 << 52
        xs = [x + d for x in (top, top // p * p, (1 << 52) - 1,
                              ((1 << 52) - 1) // p * p)
              for d in (-p, -1, 0, 1, p) if 0 <= x + d < 1 << 52]
        got = gf._mod_p(np.array(xs, dtype=np.float64), p)
        assert got.tolist() == [float(x % p) for x in xs], (p, a)


@pytest.mark.parametrize("p,a", [(3, 5), (7, 3), (65537, 1)])
def test_table_cap_reports_the_bytes_the_tables_store(monkeypatch, p, a):
    F = build_field(p, a)
    stored = sum(v.nbytes for v in vars(F).values() if isinstance(v, np.ndarray))
    assert gf._table_bytes(p, a) == stored
    monkeypatch.setattr(gf, "TABLE_CAP", 1)
    with pytest.raises(BudgetExceeded, match=f"~{stored // (1 << 20)} MiB"):
        gf.check_table_cap(p, a)


def test_tables_hold_p_above_int16():
    # digits and traces of F_65537 do not fit int16
    p = 65537
    F = build_field(p, 1)
    assert F.add(40000, 1) == 40001 and F.add(40000, 30000) == 4463
    assert F.neg(1) == p - 1
    assert (F.digits[:, 0] == np.arange(p)).all()
    assert (F.tr_abs == np.arange(p)).all()          # Tr_{F_p/F_p} = id
