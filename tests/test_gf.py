import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from invkloos import gf
from invkloos.errors import BudgetExceeded
from invkloos.gf import (_pmulmod, build_field, field_maps, is_prime,
                         smallest_irreducible)


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
# a partial last block with a = 3 (17^3)
@pytest.mark.parametrize("p,a", [(2, 1), (3, 2), (2, 10), (2, 12), (12289, 1),
                                 (4099, 1), (17, 3)])
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


def test_is_prime():
    assert [n for n in range(2, 40) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_table_build_peak_is_a_small_multiple_of_the_tables(monkeypatch):
    # the trace goes column by column; (q, a) int64 temporaries used to
    # push the peak past 3x the tables' bytes
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
    assert peak < 2 * tables


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
