import cmath
import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from invkloos.cyclotomic import embed_complex, embed_counts, reduce_counts, reduce_mod_phi
from invkloos import expsum, gf, suites
from invkloos.errors import BudgetExceeded, VerificationError
from invkloos.expsum import (CharacterTuple, LaurentPoly, b_class, check_transform,
                             e_sum, gauss_formula_parts, gauss_sum, ik_laurent,
                             kloosterman_sum, kloosterman_sums, tn_transform,
                             toric_sum, tower_sums, _pair_counts,
                             _sum_one_counts)
from invkloos.gf import _FIELDS, FieldTable, build_field, field_maps


def _unit(p, c, t=0, m=1):
    """c zeta_p^t as a (p, m) count row."""
    v = np.zeros((p, m), dtype=np.int64)
    v[t, 0] = c
    return v


def _same(a, b):
    """Whether two (p, m) count rows are the same element of Z[zeta_p, zeta_m]."""
    return np.array_equal(reduce_counts(a), reduce_counts(b))


def _at_conductor(v, M):
    """The (p, m) row v on conductor M, a multiple of m: zeta_m = zeta_M^(M/m)."""
    out = np.zeros((v.shape[0], M), dtype=np.int64)
    out[:, ::M // v.shape[1]] = v
    return out


# ----------------------------------------------------------------------
# Gauss sums
# ----------------------------------------------------------------------

def test_gauss_trivial_is_minus_one():
    for p, a in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        F = build_field(p, a)
        assert _same(gauss_sum(F, 0), _unit(p, -1, m=F.q - 1))


def test_gauss_quadratic_f3():
    F = build_field(3, 1)
    g = gauss_sum(F, 1)
    # zeta_3 - zeta_3^2, because dlog(1)=0 (coeff +1 at t=tr(1)=1) and
    # dlog(2)=1 (coeff zeta_2 = -1 at t=tr(2)=2)
    assert _same(g, np.array([[0, 0], [1, 0], [-1, 0]]))
    assert abs(embed_complex(g) - cmath.sqrt(-3)) < 1e-12


@pytest.mark.parametrize("p,a", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_gauss_magnitude_sqrt_q(p, a):
    F = build_field(p, a)
    for j in range(1, F.q - 1):
        assert abs(abs(embed_complex(gauss_sum(F, j))) - F.q ** 0.5) < 1e-9
    assert np.abs(gauss_sum(F, 0)).sum() == F.q - 1


def test_gauss_sum_refuses_over_the_table_cap_before_allocating():
    # p (q-1) = 65537 * 65536 cells would be 32 GiB of int64
    F = build_field(65537, 1)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="table cap") as exc:
        gauss_sum(F, 1)
    assert time.perf_counter() - t0 < 0.05
    assert exc.value.estimate == 65537 * 65536


# ----------------------------------------------------------------------
# inverted Kloosterman sums
# ----------------------------------------------------------------------

def test_f3_n1_b1_by_hand():
    # x=1: s=2, 1/s=2, tr=2; x=2: s=1, 1/s=1, tr=1; no excluded points
    F = build_field(3, 1)
    v = kloosterman_sum(F, 1, 1, 1)
    assert v.tolist() == [[0], [1], [1]]
    assert _same(v, _unit(3, -1))
    assert np.abs(v).sum() == 2  # the excluded locus s=0 is empty here


def test_b_validation():
    F = build_field(5, 1)
    with pytest.raises(ValueError, match="unit"):
        kloosterman_sum(F, 1, 1, 0)
    with pytest.raises(ValueError, match="unit"):
        kloosterman_sum(F, 1, 1, 5)


def test_budget_refusal_carries_estimate(monkeypatch):
    F = build_field(3, 1)
    monkeypatch.setattr(expsum, "POINT_CAP", 10 ** 6)
    with pytest.raises(BudgetExceeded) as ei:
        kloosterman_sum(F, 6, 3, 1)
    assert ei.value.estimate == (3 ** 6 - 1) ** 3
    # a larger cap admits the cell: F_9^* is 8 points
    monkeypatch.setattr(expsum, "POINT_CAP", 7)
    with pytest.raises(BudgetExceeded):
        kloosterman_sum(F, 2, 1, 1)
    monkeypatch.setattr(expsum, "POINT_CAP", 8)
    assert kloosterman_sum(F, 2, 1, 1).shape == (3, 1)


def test_excluded_locus_is_skipped():
    # over F_5, n=1, b=4: x + 4/x = 0 at x^2 = -4 = 1, x = 1, 4: two points skipped
    F = build_field(5, 1)
    v = kloosterman_sum(F, 1, 1, 4)
    assert np.abs(v).sum() == (5 - 1) - 2


def test_main_term_bound_spot():
    for q, n, b in [(3, 1, 1), (5, 1, 2), (7, 2, 3)]:
        F = build_field(q, 1)
        s = embed_complex(kloosterman_sum(F, 1, n, b))
        assert abs(s + (q - 1) ** n / q) <= q ** ((n + 1) / 2) + 1e-9


@pytest.mark.parametrize("p,n,b,chi", [(5, 1, 2, (1, 2)), (7, 2, 3, (0, 0, 0))])
def test_one_sum_embeds_as_the_benchmark_reads_it(p, n, b, chi):
    # the call shape of the benchmark's sample check: one CharacterTuple in,
    # a Python complex out, equal to the stack's embedding of the same row
    F = build_field(p, 1)
    got = embed_complex(kloosterman_sum(F, 1, n, b, CharacterTuple(chi)))
    assert type(got) is complex
    assert got == embed_counts(kloosterman_sums(F, 1, n, b, [CharacterTuple(chi)]))[0]


def test_twisted_exact_value_small():
    # q=5, n=1, b=1, chi = (1, 0): S = sum over x of zeta_4^dlog(x) psi(1/(x+1/x))
    F = build_field(5, 1)
    chi = CharacterTuple((1, 0))
    v = kloosterman_sum(F, 1, 1, 1, chi)
    brute = 0j
    for x in range(1, 5):
        s = (x + pow(x, 3, 5)) % 5
        if s == 0:
            continue
        inv_s = pow(s, 3, 5)
        brute += (cmath.exp(2j * cmath.pi * int(F.dlog[x]) / 4)
                  * cmath.exp(2j * cmath.pi * inv_s / 5))
    assert abs(embed_complex(v) - brute) < 1e-12


def test_extension_matches_direct_enumeration():
    # S_{k=2, n=1}(b) over F_9 computed independently with field tables
    F = build_field(3, 1)
    m = field_maps(F, 2)
    E = m.ext
    b_ext = int(m.embed_tab[1])
    acc = np.zeros(3, dtype=int)
    skipped = 0
    for x in range(1, 9):
        s = E.add(x, E.mul(b_ext, E.power(x, -1)))
        if s == 0:
            skipped += 1
            continue
        acc[E.tr_abs[E.power(s, -1)]] += 1
    v = kloosterman_sum(F, 2, 1, 1)
    assert v.tolist() == [[int(c)] for c in acc]


def test_conjugation_symmetry_untwisted():
    # x -> -x turns s into -s for the parameter (-1)^(n+1) b, so
    # conj S_n(b) = S_n((-1)^(n+1) b); at n = 2 over F_7, b = 4 pairs with 3
    F = build_field(7, 1)
    v = kloosterman_sum(F, 1, 2, 4)
    assert abs(embed_complex(kloosterman_sum(F, 1, 2, 3))
               - embed_complex(v).conjugate()) < 1e-12
    assert abs(embed_complex(v).imag) > 1e-3        # not real, so the pairing matters


# ----------------------------------------------------------------------
# batched sums: one enumeration, one key row per character tuple
# ----------------------------------------------------------------------

def _field(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    return build_field(p, round(np.log(q) / np.log(p)))


def _inverted_points(F, k, n, b, product_is_b=True):
    """(trace bucket, dlogs) of every torus point of S_n(b) over F_{q^k}
    (product of the n+1 variables = b, bucket Tr(1/s)), or, with
    product_is_b False, of T_n(b) (product 1, bucket Tr(b/s)); s = 0
    skipped.  Scalar field arithmetic, one element at a time."""
    maps = field_maps(F, k)
    E, bb = maps.ext, int(maps.embed_tab[b])
    out = []
    for xs in product(range(1, E.q), repeat=n):
        prod = 1
        for x in xs:
            prod = E.mul(prod, x)
        last = E.mul(bb if product_is_b else 1, E.power(prod, -1))
        s = 0
        for x in xs + (last,):
            s = E.add(s, x)
        if s:
            w = E.power(s, -1) if product_is_b else E.mul(bb, E.power(s, -1))
            out.append((int(E.tr_abs[w]),
                        [int(E.dlog[x]) for x in xs + (last,)]))
    return out


def _points_hist(F, k, points, chi):
    """Counts of the points by (bucket, sum_i j_i dlog x_i), m = 1 untwisted."""
    M = F.q ** k - 1
    lifted = [j % (F.q - 1) * (M // (F.q - 1)) for j in chi]
    m = M if any(lifted) else 1
    hist = [[0] * m for _ in range(F.p)]
    for t, dl in points:
        hist[t][sum(j * d for j, d in zip(lifted, dl)) % m] += 1
    return hist


def _all_chis(q, count):
    """Every count-tuple of characters of F_q as one (C, count) index array."""
    return np.array(list(product(range(q - 1), repeat=count)),
                    dtype=np.int64).reshape(-1, count)


def _pad(hist, m):
    """A histogram list widened to m columns: an untwisted one (one column)
    is the same value as a stack row with all of its counts in column 0."""
    return [row + [0] * (m - len(row)) for row in hist]


def _oracle_matches(F, k, n, bs, chis):
    """Whether q^k M S_n = M main + rest holds row for row in
    Z[zeta_p, zeta_M], M = q^k - 1: the reduced stacks agree cell for cell."""
    Q = F.q ** k
    M = Q - 1
    for b, (main, rest) in zip(bs, gauss_formula_parts(F, k, n, bs, chis)):
        S = kloosterman_sums(F, k, n, b, chis)
        S = np.array([_pad(h, M) for h in S.tolist()])
        if not np.array_equal(reduce_counts(Q * M * S), reduce_counts(M * main + rest)):
            return False
    return True


@pytest.mark.parametrize("q,n,k", [(3, 1, 2), (5, 2, 1), (7, 2, 1), (4, 1, 1),
                                   (9, 1, 1), (5, 3, 1)])
def test_batched_kernel_matches_enumeration_and_oracle(q, n, k):
    F = _field(q)
    chis = _all_chis(q, n + 1)
    bs = range(1, q)
    for b in bs:
        points = _inverted_points(F, k, n, b)
        batch = kloosterman_sums(F, k, n, b, chis)
        assert batch.shape == (len(chis), F.p, q ** k - 1)
        for chi, v in zip(chis, batch.tolist()):
            assert v == _pad(_points_hist(F, k, points, chi), q ** k - 1), (b, chi)
    assert _oracle_matches(F, k, n, bs, chis)


@pytest.mark.parametrize("q,n,k", [(5, 2, 1), (3, 1, 2), (9, 1, 1)])
def test_one_chi_wrapper_is_an_element_of_the_batch(q, n, k):
    F = _field(q)
    chis = _all_chis(q, n + 1)
    M = q ** k - 1
    for b in range(1, q):
        batch = kloosterman_sums(F, k, n, b, chis)
        for i in (0, 1, len(chis) // 2, len(chis) - 1):
            one = kloosterman_sum(F, k, n, b, chis[i])
            assert one.shape == (F.p, M if chis[i].any() else 1)
            assert _at_conductor(one, M).tolist() == batch[i].tolist()
        assert _at_conductor(kloosterman_sum(F, k, n, b), M).tolist() == \
            batch[0].tolist()


@pytest.mark.parametrize("q,n", [(5, 1), (5, 2), (7, 1), (4, 1)])
def test_batched_tn_transform_matches_enumeration(q, n):
    F = _field(q)
    chis = _all_chis(q, n + 1)
    for b in range(1, q):
        points = _inverted_points(F, 1, n, b, product_is_b=False)
        batch = tn_transform(F, n, b, chis)
        for chi, v in zip(chis, batch.tolist()):
            assert v == _pad(_points_hist(F, 1, points, chi), q - 1), (b, chi)
        assert tn_transform(F, n, b, chis[-1:])[0].tolist() == batch[-1].tolist()


def test_tn_transform_raises_when_the_two_sides_differ(monkeypatch):
    F = build_field(5, 1)
    real = FieldTable.tr_quotient
    monkeypatch.setattr(FieldTable, "tr_quotient",
                        lambda self, w: (real(self, w) + (w != 1)) % (self.p + 1))
    with pytest.raises(VerificationError, match="transform mismatch"):
        tn_transform(F, 1, 2, _all_chis(5, 2))


@pytest.mark.parametrize("q,n", [(5, 1), (3, 2), (5, 2), (4, 1)])
def test_batched_e_sum_matches_enumeration(q, n):
    F = _field(q)
    chis = _all_chis(q, n + 1)
    for b in range(1, q):
        f = ik_laurent(F, n, b)
        batch = e_sum(F, n, b, chis)
        want = {}
        for chi, v in zip(chis, batch.tolist()):
            twist = tuple((chi[:n] - chi[n]) % (q - 1)) + (0, 0)
            if twist not in want:
                want[twist] = _pad(_torus_hist(F, 1, f, twist), q - 1)
            assert v == want[twist], (b, chi)
        assert _pad(e_sum(F, n, b, chis[-1:])[0].tolist(), q - 1) == batch[-1].tolist()


def test_batched_toric_rows_match_single_calls():
    F = build_field(5, 1)
    chis = _all_chis(5, 2)
    for f in (X1X2_PLUS_X2_INV, CONST_PLUS_X1X2, ik_laurent(F, 1, 3)):
        rows = np.pad(chis, ((0, 0), (0, f.n_vars - 2)))
        for chi, v in zip(rows, toric_sum(F, 1, f, rows).tolist()):
            assert v == _pad(_torus_hist(F, 1, f, chi), 4), (f, chi)


def test_cell_cap_refused_before_any_enumeration(monkeypatch):
    # 4 twisted rows x (4099 + 1) buckets x 4098 = 67.2e6 cells > 2^26
    F = build_field(4099, 1)

    def no_chunks(*args):
        raise AssertionError("enumerated before the cell check")

    monkeypatch.setattr(expsum, "_toric_chunks", no_chunks)
    chis = [CharacterTuple((j, 0)) for j in range(1, 5)]
    with pytest.raises(BudgetExceeded, match="table cap") as exc:
        kloosterman_sums(F, 1, 1, 1, chis)
    assert exc.value.estimate == 4 * 4100 * 4098
    with pytest.raises(BudgetExceeded, match="table cap"):
        tn_transform(F, 1, 1, chis)
    with pytest.raises(BudgetExceeded, match="table cap"):
        toric_sum(F, 1, X, [CharacterTuple((j,)) for j in range(1, 5)])
    # all-trivial rows share one (p + 1)-cell histogram and are admitted
    with pytest.raises(AssertionError, match="before the cell check"):
        kloosterman_sums(F, 1, 1, 1, [CharacterTuple((0, 0))] * 4)


def test_key_arrays_stay_within_the_chunk(monkeypatch):
    F = build_field(5, 1)
    chis = _all_chis(5, 3)                           # 64 rows, 16 points
    want = kloosterman_sums(F, 1, 2, 3, chis).tolist()
    want_e = e_sum(F, 2, 3, chis).tolist()
    sizes = []
    real = np.bincount
    monkeypatch.setattr(expsum.np, "bincount",
                        lambda x, **kw: sizes.append(x.size) or real(x, **kw))
    monkeypatch.setattr(expsum, "_CHUNK", 10)
    assert kloosterman_sums(F, 1, 2, 3, chis).tolist() == want
    # the 4 x 4 grid of (x_1, x_2) in two slabs of 2 x 4 points; one row
    # per key array
    assert len(sizes) == 2 * 64 and max(sizes) == 8
    sizes.clear()
    monkeypatch.setattr(expsum, "_CHUNK", 40)
    assert kloosterman_sums(F, 1, 2, 3, chis).tolist() == want
    assert len(sizes) == 64 // 2 and max(sizes) == 32      # 2 rows x 16 points
    sizes.clear()
    assert e_sum(F, 2, 3, chis).tolist() == want_e
    # 16 distinct twists over the 4 x 4 x 4 grid of (x_1, x_2, x_4), in two
    # slabs of 2 x 4 x 4 points: one row per key array, and per row one
    # bincount for every point and one for the points with A = 0
    assert len(sizes) == 2 * 16 * 2 and max(sizes) == 32


def test_kloosterman_sums_reads_none_as_one_trivial_tuple():
    F = build_field(5, 1)
    for n in (1, 2):
        trivial = kloosterman_sums(F, 1, n, 3, [(0,) * (n + 1)])
        assert kloosterman_sums(F, 1, n, 3, None).tolist() == trivial.tolist()
        assert kloosterman_sums(F, 1, n, 3).tolist() == trivial.tolist()
        assert kloosterman_sum(F, 1, n, 3).tolist() == trivial[0].tolist()


def test_reciprocal_trace_table_is_built_once_per_field(monkeypatch):
    F = build_field(11, 1)
    maps = field_maps(F, 2)
    vars(maps).pop("tr_inv", None)
    builds = []
    real = FieldTable.tr_quotient
    monkeypatch.setattr(FieldTable, "tr_quotient",
                        lambda self, w: builds.append(w) or real(self, w))
    first = kloosterman_sum(F, 2, 1, 3)
    second = kloosterman_sum(F, 2, 1, 3)
    assert builds == [1]
    assert first.tolist() == second.tolist() == \
        _points_hist(F, 2, _inverted_points(F, 2, 1, 3), CharacterTuple((0, 0)))


# ----------------------------------------------------------------------
# toric sums
# ----------------------------------------------------------------------

def test_toric_single_variable_full_character_sum():
    F = build_field(5, 1)
    f = LaurentPoly(1, ((1, (1,)),))
    assert _same(toric_sum(F, 1, f)[0], _unit(5, -1))


def test_toric_constant_term():
    F = build_field(5, 1)
    for c in (1, 2):
        f = LaurentPoly(2, ((c, (0, 0)),))
        v = toric_sum(F, 1, f)[0]
        assert _same(v, _unit(5, (5 - 1) ** 2, t=c % 5))
    # over an extension: (q^k-1)^nvars psi(Tr(c))
    f = LaurentPoly(1, ((2, (0,)),))
    v = toric_sum(F, 2, f)[0]
    m = field_maps(F, 2)
    t = int(m.ext.tr_abs[m.embed_tab[2]])
    assert _same(v, _unit(5, 5 ** 2 - 1, t=t))


def test_toric_relation_to_inverted_sum():
    # the (n+2)-variable rewrite: S*_k(f) = q^k S_{k,n}(b) + (q^k-1)^n
    for q, n, b, k in [(3, 1, 1, 1), (3, 1, 2, 2), (5, 1, 3, 1), (5, 2, 1, 1)]:
        F = build_field(q, 1)
        diff = toric_sum(F, k, ik_laurent(F, n, b))[0] - q ** k * kloosterman_sum(F, k, n, b)
        diff[0, 0] -= (q ** k - 1) ** n
        assert not reduce_counts(diff).any()


def _torus_hist(F, k, f, chi=None):
    """Point counts of the whole torus by (Tr f(x), sum_i j_i dlog x_i),
    evaluated element by element with the field's scalar arithmetic."""
    maps = field_maps(F, k)
    E, M = maps.ext, maps.ext.q - 1
    chi = (0,) * f.n_vars if chi is None else chi
    lifted = [j % (F.q - 1) * (M // (F.q - 1)) for j in chi]
    m = M if any(lifted) else 1
    hist = [[0] * m for _ in range(E.p)]
    for xs in product(range(1, E.q), repeat=f.n_vars):
        val = 0
        for c, e in f.terms:
            term = int(maps.embed_tab[c])
            for x, ei in zip(xs, e):
                term = E.mul(term, E.power(x, ei))
            val = E.add(val, term)
        j = sum(jl * int(E.dlog[x]) for jl, x in zip(lifted, xs)) % m
        hist[int(E.tr_abs[val])][j] += 1
    return hist


X_PLUS_2_OVER_X = LaurentPoly(1, ((1, (1,)), (2, (-1,))))
X2_PLUS_X_INV = LaurentPoly(1, ((1, (2,)), (1, (-1,))))
X = LaurentPoly(1, ((1, (1,)),))
# x is summed out and nothing is left to enumerate; C = 2
X_PLUS_2 = LaurentPoly(1, ((1, (1,)), (2, (0,))))
CONST_PLUS_X1X2 = LaurentPoly(2, ((2, (0, 0)), (1, (1, 1))))
ONLY_CONST = LaurentPoly(2, ((2, (0, 0)),))
# x_1 is the only variable with exponents in {0, 1}
X1X2_PLUS_X2_INV = LaurentPoly(2, ((1, (1, 1)), (1, (0, -1))))
X1_PLUS_X2 = LaurentPoly(2, ((1, (1, 0)), (1, (0, 1))))
# exponents +-2 and +-3 and a constant term: no variable is summed out, and
# every variable enters some term through a reduced column v e mod M
POWERS_AND_CONST = LaurentPoly(3, ((1, (2, -3, 0)), (1, (0, 3, -2)),
                                   (1, (-2, 0, 3)), (1, (0, 0, 0))))
# x_3 (x_1^2 + x_2^-3 + 1): x_3 is summed out and the C part is empty
EMPTY_C = LaurentPoly(3, ((1, (2, 0, 1)), (1, (0, -3, 1)), (1, (0, 0, 1))))


@pytest.mark.parametrize("q,k,f,chi", [
    (3, 1, "ik1", None), (3, 2, "ik1", None), (5, 1, "ik1", None),
    (7, 1, "ik1", None), (3, 1, "ik2", None), (3, 2, "ik2", None),
    (5, 1, "ik2", None),
    (5, 1, X_PLUS_2_OVER_X, None), (3, 2, X_PLUS_2_OVER_X, None),
    (5, 1, X2_PLUS_X_INV, (1,)), (3, 2, X2_PLUS_X_INV, None),
    (5, 1, X, None), (3, 2, X, None), (5, 1, X, (1,)),
    (5, 1, CONST_PLUS_X1X2, None), (3, 2, CONST_PLUS_X1X2, (1, 0)),
    (5, 1, ONLY_CONST, None), (3, 2, ONLY_CONST, (0, 1)),
    (5, 1, X1X2_PLUS_X2_INV, (1, 0)), (5, 1, X1X2_PLUS_X2_INV, (0, 3)),
    (3, 2, X1X2_PLUS_X2_INV, (1, 1)), (3, 2, X1X2_PLUS_X2_INV, None),
    # F_8 and F_27: digit rows of length 3
    (2, 3, POWERS_AND_CONST, None), (2, 3, EMPTY_C, None),
    (3, 3, POWERS_AND_CONST, (1, 0, 1)), (3, 3, EMPTY_C, None),
    (3, 3, EMPTY_C, (1, 1, 0)),
    # one point: nothing left to enumerate
    (5, 1, X_PLUS_2, None), (3, 2, X_PLUS_2, None),
])
def test_toric_matches_whole_torus_enumeration(q, k, f, chi):
    F = build_field(q, 1)
    if f in ("ik1", "ik2"):
        f = ik_laurent(F, int(f[2]), q - 1)
    chi = CharacterTuple(chi) if chi else None
    got = toric_sum(F, k, f, None if chi is None else [chi])[0]
    assert got.tolist() == _torus_hist(F, k, f, chi)


@pytest.mark.parametrize("q,n", [(5, 1), (3, 2)])
def test_e_sum_twists_match_whole_torus_enumeration(q, n):
    F = build_field(q, 1)
    for b in range(1, q):
        f = ik_laurent(F, n, b)
        for idx in product(range(q - 1), repeat=n + 1):
            twist = tuple((idx[i] - idx[n]) % (q - 1) for i in range(n)) + (0, 0)
            assert e_sum(F, n, b, [CharacterTuple(idx)])[0].tolist() == \
                _torus_hist(F, 1, f, twist)


def test_toric_budget_prices_the_enumerated_points(monkeypatch):
    F = build_field(5, 1)
    f = ik_laurent(F, 1, 2)          # x_2 summed out: 4^2 of 4^3 points
    monkeypatch.setattr(expsum, "POINT_CAP", 16)
    toric_sum(F, 1, f)

    def no_chunks(*args):
        raise AssertionError("enumerated before the budget check")

    monkeypatch.setattr(expsum, "_toric_chunks", no_chunks)
    # priced from (q, k) alone, before any table of F_{5^30} is built
    with pytest.raises(BudgetExceeded):
        toric_sum(F, 30, f)
    monkeypatch.setattr(expsum, "POINT_CAP", 15)
    with pytest.raises(BudgetExceeded) as exc:
        toric_sum(F, 1, f)
    assert exc.value.estimate == 16
    # a character on the only linear variable keeps it in the enumeration
    with pytest.raises(BudgetExceeded) as exc:
        toric_sum(F, 1, X1X2_PLUS_X2_INV, [CharacterTuple((1, 0))])
    assert exc.value.estimate == 16
    monkeypatch.setattr(expsum, "POINT_CAP", 3)
    with pytest.raises(BudgetExceeded) as exc:
        toric_sum(F, 1, X1X2_PLUS_X2_INV)
    assert exc.value.estimate == 4


def test_toric_chunks_with_reduced_columns(monkeypatch):
    # several chunks, each evaluating columns v e mod M with |v| >= 2
    F8, F27 = build_field(2, 1), build_field(3, 1)
    f2 = LaurentPoly(2, ((1, (2, -3)), (2, (-2, 1)), (1, (0, 0))))
    chi = CharacterTuple((1, 1))
    want = [_torus_hist(F8, 3, POWERS_AND_CONST), _torus_hist(F27, 3, f2, chi)]
    sizes = []
    real = expsum._toric_chunks
    monkeypatch.setattr(expsum, "_toric_chunks", lambda M, n: (
        sizes.append(math.prod(c[0])) or c for c in real(M, n)))
    monkeypatch.setattr(expsum, "_CHUNK", 16)
    assert toric_sum(F8, 3, POWERS_AND_CONST)[0].tolist() == want[0]
    # x_1 fixed, slabs of 2, 2, 2 and 1 rows of x_2 by the 7 values of x_3
    assert len(sizes) == 7 * 4 and sum(sizes) == 7 ** 3 and max(sizes) == 14
    sizes.clear()
    monkeypatch.setattr(expsum, "_CHUNK", 64)
    assert toric_sum(F27, 3, f2, [chi])[0].tolist() == want[1]
    # slabs of 2 rows of x_1 by the 26 values of x_2
    assert len(sizes) == 13 and sum(sizes) == 26 ** 2 and max(sizes) == 52


# (M, variables, _CHUNK, chunks): one chunk; slabs of the leading axis; a
# fixed outer variable; _CHUNK < M, so two fixed variables
GRID_LAYOUTS = [(6, 3, 1 << 18, 1), (6, 3, 80, 3), (6, 3, 12, 18), (6, 3, 4, 72)]


@pytest.mark.parametrize("M,r,chunk,count",
                         GRID_LAYOUTS + [(5, 1, 3, 2), (5, 0, 1 << 18, 1)])
def test_grid_chunks_cover_the_torus_once(monkeypatch, M, r, chunk, count):
    monkeypatch.setattr(expsum, "_CHUNK", chunk)
    seen, chunks = Counter(), 0
    for shape, exps in expsum._toric_chunks(M, r):
        chunks += 1
        assert math.prod(shape) <= chunk and len(exps) == r
        assert all(e.ndim == len(shape) for e in exps)
        seen.update(zip(*(np.broadcast_to(e, shape).ravel().tolist() for e in exps))
                    if r else [()])
    assert chunks == count
    assert seen == Counter(product(range(M), repeat=r))     # each tuple once


@pytest.mark.parametrize("chunk", [layout[2] for layout in GRID_LAYOUTS])
def test_grid_kernels_match_brute_force_at_every_layout(monkeypatch, chunk):
    # over F_7: three enumerated variables with exponents -1 and |v| >= 2 for
    # toric_sum, the 6 x 6 grid of S_2 and T_2; trivial, twisted and
    # equal-character rows.  Digit sums, up to 4 * 6, are reduced by % at
    # _CHUNK 4 and 12 and through the lookup table at 80 and 2^18.
    F = build_field(7, 1)
    f = LaurentPoly(3, ((1, (2, -1, 0)), (3, (0, 3, -1)), (1, (-1, -2, 2)),
                        (5, (0, 0, 0))))
    rows = [(0, 0, 0), (1, 0, 2), (3, 5, 1)]
    chis = [(1, 0, 2), (0, 0, 0), (5, 5, 5)]
    want_t = [_pad(_torus_hist(F, 1, f, r), 6) for r in rows]
    want = {(b, is_s): [_pad(_points_hist(F, 1, _inverted_points(F, 1, 2, b, is_s), c), 6)
                        for c in chis]
            for b in (1, 3) for is_s in (True, False)}
    monkeypatch.setattr(expsum, "_CHUNK", chunk)
    assert toric_sum(F, 1, f, rows).tolist() == want_t
    for b in (1, 3):
        assert kloosterman_sums(F, 1, 2, b, chis).tolist() == want[b, True]
        assert tn_transform(F, 2, b, chis).tolist() == want[b, False]


def test_toric_grid_peak_memory_per_point():
    # identities (b) at n = 2, q = 7, k = 2: x_3 summed out, 48^3 points in
    # one grid chunk; 58 B a point with flat chunks, about 30 as a grid
    F = build_field(7, 1)
    f = ik_laurent(F, 2, 3)
    want = toric_sum(F, 2, f)                   # tables and lazy maps built first
    tracemalloc.start()
    try:
        got = toric_sum(F, 2, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 48 ** 3, peak / 48 ** 3
    assert np.array_equal(got, want)


def test_toric_digit_table_peak_memory(monkeypatch):
    # one enumerated variable: the (1 + 1) M-row table and the M gathered
    # rows it is tiled from are the peak, 3 times the field's digit table;
    # the chunks (here 1024 points) add little beside them
    F = build_field(3, 1)
    f = LaurentPoly(1, ((1, (2,)), (1, (-3,))))
    want = toric_sum(F, 10, f)                  # tables and lazy maps built first
    E = field_maps(F, 10).ext
    monkeypatch.setattr(expsum, "_CHUNK", 1 << 10)
    tracemalloc.start()
    try:
        got = toric_sum(F, 10, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * E.digits.nbytes + 2 ** 16, peak / E.digits.nbytes
    assert np.array_equal(got, want)


def test_toric_one_point_gathers_only_the_terms_rows():
    # x summed out over F_{3^12}: no variable is left to enumerate, so no
    # (Q - 1)-row digit table is built; psi(Tr x) over x != 0 puts Q/3 - 1
    # points in bucket 0 and Q/3 in each other bucket
    F = build_field(3, 1)
    toric_sum(F, 12, X)                         # tables and lazy maps built first
    E = field_maps(F, 12).ext
    tracemalloc.start()
    try:
        got = toric_sum(F, 12, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < E.digits.nbytes / 64, peak / E.digits.nbytes
    assert got.tolist() == [[[3 ** 11 - 1], [3 ** 11], [3 ** 11]]]


def test_toric_negative_exponents_classical_kloosterman():
    # f = x + b/x gives the classical sum; check the Weil bound numerically
    F = build_field(7, 1)
    for b in range(1, 7):
        f = LaurentPoly(1, ((1, (1,)), (b, (-1,))))
        v = embed_complex(toric_sum(F, 1, f)[0])
        assert abs(v) <= 2 * 7 ** 0.5 + 1e-9


# ----------------------------------------------------------------------
# the auxiliary sum and the rewrite identity
# ----------------------------------------------------------------------

@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (3, 2)])
def test_rewrite_identity_exact(q, n):
    F = build_field(q, 1)
    M = q - 1
    for b in range(1, q):
        db = int(F.dlog[b])
        for idx in product(range(M), repeat=n + 1):
            chi = CharacterTuple(idx)
            lhs = q * _at_conductor(kloosterman_sum(F, 1, n, b, chi), M)
            # chi_{n+1}(b) E_n: E_n's indices rotated by j_{n+1} db
            rhs = np.roll(_at_conductor(e_sum(F, n, b, [chi])[0], M), idx[n] * db % M, axis=1)
            if len(set(idx)) == 1:
                rhs[0, idx[0] * db % M] -= (q - 1) ** n
            assert not reduce_counts(lhs - rhs).any()


def _identities_cases(part):
    rep = suites.suite_identities(ps=(5,), ns=(1,))
    return [c.status for c in rep.cases if c.name.startswith(part)]


def test_identities_rewrite_fails_on_one_wrong_cell_of_the_e_sum_stack(monkeypatch):
    real = suites.e_sum

    def off_by_one(F, n, b, chis=None):
        out = np.array(real(F, n, b, chis))
        if b == 3:
            out[5, 1, 2] += 1
        return out

    assert _identities_cases("(a)") == ["pass"]
    monkeypatch.setattr(suites, "e_sum", off_by_one)
    assert _identities_cases("(a)") == ["fail"]
    assert _identities_cases("(d)") == ["pass"]


def test_identities_oracle_fails_on_one_wrong_cell_of_the_oracle_stack(monkeypatch):
    real = suites.gauss_formula_parts

    def off_by_one(F, k, n, bs, chis=None):
        parts = real(F, k, n, bs, chis)
        parts[2][1][5, 1, 2] += 1                   # rest at b = 3
        return parts

    assert _identities_cases("(d)") == ["pass"]
    monkeypatch.setattr(suites, "gauss_formula_parts", off_by_one)
    assert _identities_cases("(d)") == ["fail"]
    assert _identities_cases("(a)") == ["pass"]


def _assert_only_b_fails():
    ran = [s for s in _identities_cases("(b)") if s != "skip"]
    assert ran and set(ran) == {"fail"}
    for part in ("(a)", "(c)", "(d)"):
        assert _identities_cases(part) == ["pass"]


def test_identities_toric_relation_fails_on_one_wrong_cell_of_the_toric_sum(monkeypatch):
    real = suites.toric_sum

    def off_by_one(F, k, f, chis=None):
        out = np.array(real(F, k, f, chis))
        out[:, 1, 0] += 1
        return out

    ran = [s for s in _identities_cases("(b)") if s != "skip"]
    assert ran and set(ran) == {"pass"}
    monkeypatch.setattr(suites, "toric_sum", off_by_one)
    _assert_only_b_fails()


def test_identities_toric_relation_fails_on_one_wrong_bucket_of_a_tower_row(monkeypatch):
    real = suites.tower_sums

    def off_by_one(F, k, n, bs):
        out = real(F, k, n, bs)
        out[-1, F.p - 1] += 1                       # the last b's top bucket
        return out

    monkeypatch.setattr(suites, "tower_sums", off_by_one)
    _assert_only_b_fails()


def test_e_sum_untwisted_value_n1_q3():
    # E_1 = q S + (q-1)^n = 3*(-1) + 2 = -1
    F = build_field(3, 1)
    assert _same(e_sum(F, 1, 1)[0], _unit(3, -1))


# ----------------------------------------------------------------------
# the Gauss-formula oracle
# ----------------------------------------------------------------------

def _oracle_values(F, k, n, bs, chis=None):
    """The oracle's S_n = main / Q + rest / (Q M) per b, embedded: (len(chis),)."""
    Q = F.q ** k
    return [embed_counts(main) / Q + embed_counts(rest) / (Q * (Q - 1))
            for main, rest in gauss_formula_parts(F, k, n, bs, chis)]


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1)])
def test_oracle_agrees_with_enumeration(q, n):
    F = build_field(q, 1)
    bound = 1e-9 * q ** ((n + 1) / 2)
    chis = _all_chis(q, n + 1)
    for b, orac in zip(range(1, q), _oracle_values(F, 1, n, range(1, q), chis)):
        for chi, o in zip(chis, orac):
            assert abs(embed_complex(kloosterman_sum(F, 1, n, b, chi)) - o) < bound


def test_oracle_error_term_bound():
    F = build_field(7, 1)
    chis = [CharacterTuple(idx) for idx in [(0, 0), (1, 1), (2, 4), (0, 5)]]
    for _, rest in gauss_formula_parts(F, 1, 1, (1, 3), chis):
        assert rest.shape == (4, 7, 6)
        assert (abs(embed_counts(rest)) / (7 * 6) <= 7 + 1e-9).all()


@pytest.mark.parametrize("q,n,k", [(3, 2, 1), (5, 1, 1), (5, 2, 1), (3, 1, 2),
                                   (4, 1, 1), (9, 1, 1), (4, 1, 2)])
def test_oracle_parts_equal_enumeration_exactly_for_every_b(q, n, k):
    F = _field(q)
    bs = range(1, q)
    chis = _all_chis(q, n + 1)
    parts = gauss_formula_parts(F, k, n, bs, chis)
    assert len(parts) == len(bs)
    assert all(main.shape == rest.shape == (len(chis), F.p, q ** k - 1)
               for main, rest in parts)
    assert _oracle_matches(F, k, n, bs, chis)


def test_batched_oracle_peak_memory():
    # grouped by Gauss index, the products of all 216 tuples at q = 7, n = 2
    # peak near 2 MiB; one (216, 6, 42, 42) stack of circulants would be 18 MiB
    F = build_field(7, 1)
    chis = _all_chis(7, 3)
    gauss_formula_parts(F, 1, 2, range(1, 7), chis[:1])   # tables built first
    tracemalloc.start()
    try:
        parts = gauss_formula_parts(F, 1, 2, range(1, 7), chis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parts) == 6 and parts[0][1].shape == (216, 7, 6)
    assert peak <= 4 * 2 ** 20, peak / 2 ** 20


def test_gauss_oracle_leaves_numpy_ma_unimported():
    # np.unique on an int array imports numpy.ma (about 10 ms) on first use
    code = ("import sys\n"
            "from invkloos.gf import build_field\n"
            "from invkloos.expsum import gauss_formula_parts\n"
            "gauss_formula_parts(build_field(3, 1), 1, 1, [1, 2], [(0, 0), (1, 0)])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(expsum.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_oracle_refuses_products_that_overflow_int64():
    # (2^13 - 1)^5 >= 2^63, refused before any table of F_{2^13} is built
    with pytest.raises(BudgetExceeded, match="overflows int64"):
        gauss_formula_parts(build_field(2, 1), 13, 1, (1,))


def test_oracle_refuses_by_its_multiply_adds_before_building_tables():
    # n + 2 = 3 convolutions of length N = 3 M per character c, M = 3^7 - 1
    M = 3 ** 7 - 1
    with pytest.raises(BudgetExceeded, match="multiply-adds") as ei:
        gauss_formula_parts(build_field(3, 1), 7, 1, (1,))
    assert ei.value.estimate == 3 * M * (3 * M) ** 2
    assert (3, 7) not in _FIELDS


def test_oracle_over_extension():
    F = build_field(3, 1)
    brute = kloosterman_sum(F, 2, 1, 2)
    (orac,), = _oracle_values(F, 2, 1, (2,))
    assert abs(embed_complex(brute) - orac) < 1e-9


def test_oracle_untwisted_n1_q3():
    F = build_field(3, 1)
    (orac,), = _oracle_values(F, 1, 1, (1,))
    assert abs(orac - (-1)) < 1e-12


# ----------------------------------------------------------------------
# the product-locus-1 transform
# ----------------------------------------------------------------------

def test_transform_b1_fixed_point():
    for q, n in [(3, 1), (5, 1), (5, 2)]:
        F = build_field(q, 1)
        for idx in product(range(q - 1), repeat=n + 1):
            chi = CharacterTuple(idx)
            t = tn_transform(F, n, 1, [chi])[0]
            s = kloosterman_sum(F, 1, n, 1, chi)
            assert _same(t, s)


def test_transform_untwisted_q3_b2():
    F = build_field(3, 1)
    assert _same(tn_transform(F, 1, 2)[0], _unit(3, -1))


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_transform_identity_exhaustive(q, n):
    F = build_field(q, 1)
    for b in range(1, q):
        for idx in product(range(q - 1), repeat=n + 1):
            tn_transform(F, n, b, [CharacterTuple(idx)])  # raises on mismatch


# ----------------------------------------------------------------------
# Galois stability of the downstream reduction
# ----------------------------------------------------------------------

def test_galois_action_consistency_p3_n1():
    # conjugating the additive character conjugates every power sum and
    # leaves the reconstructed Newton polygon and root magnitudes unchanged
    from invkloos.lfun import complex_weights, strip_trivial_roots

    F = build_field(3, 1)
    star = [3 ** k * reduce_mod_phi(tower_sums(F, k, 1, [1])[0]) + (3 ** k - 1)
            for k in (1, 2)]                            # S*_k, n = 1
    lf = strip_trivial_roots(star, 1, 3)
    star_c = [s.galois(2) for s in star]
    lf_c = strip_trivial_roots(star_c, 1, 3)
    assert [c.galois(2) for c in lf.P_coeffs] == list(lf_c.P_coeffs)
    assert lf.slopes == lf_c.slopes
    mags = sorted(abs(a) for a in complex_weights(lf.P_coeffs))
    mags_c = sorted(abs(a) for a in complex_weights(lf_c.P_coeffs))
    assert all(abs(a - b) < 1e-9 for a, b in zip(mags, mags_c))


# ----------------------------------------------------------------------
# character tuples and Laurent polynomials
# ----------------------------------------------------------------------

# sha256 over the shapes and int64 bytes of the twisted kernels' stacks,
# recorded while every tuple was a CharacterTuple lifted one at a time:
# F_3, F_4, F_5, F_7, F_9, n = 1, 2, every tuple and None, b = 1 and q - 1,
# k = 1 and 2 (the Gauss-sum oracle where its products stay cheap)
STACK_DIGEST = "a40a8cc0b2163fdedadb758a6659e261de1c6d07b8d1974c85535d0a71646d22"


def test_twisted_stacks_are_pinned():
    h = hashlib.sha256()

    def put(a):
        a = np.ascontiguousarray(a)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    for q in (3, 4, 5, 7, 9):
        F = _field(q)
        bs = (1, q - 1)
        for n in (1, 2):
            for chis in (_all_chis(q, n + 1), None):
                for b in bs:
                    put(tn_transform(F, n, b, chis))
                    put(e_sum(F, n, b, chis))
                for k in (1, 2):
                    for b in bs:
                        put(kloosterman_sums(F, k, n, b, chis))
                    C, M = 1 if chis is None else len(chis), q ** k - 1
                    if (C * (n + 1) + 1) * M * (F.p * M) ** 2 <= 3 * 10 ** 7:
                        for main, rest in gauss_formula_parts(F, k, n, bs, chis):
                            put(main)
                            put(rest)
        for k in (1, 2):
            for chis in (_all_chis(q, 2), None):
                put(toric_sum(F, k, X1X2_PLUS_X2_INV, chis))
            put(toric_sum(F, k, ik_laurent(F, 1, q - 1)))
    assert h.hexdigest() == STACK_DIGEST


def test_every_batch_form_gives_the_same_stacks():
    F, n, b = build_field(5, 1), 1, 2
    rows = [(0, 0), (1, 3), (6, -1), (2, 2)]
    forms = (lambda: rows, lambda: [CharacterTuple(t) for t in rows],
             lambda: np.array(rows, dtype=np.int64), lambda: (t for t in rows))
    kernels = (lambda c: kloosterman_sums(F, 2, n, b, c),
               lambda c: tn_transform(F, n, b, c),
               lambda c: e_sum(F, n, b, c),
               lambda c: toric_sum(F, 1, X1X2_PLUS_X2_INV, c),
               lambda c: np.concatenate(gauss_formula_parts(F, 1, n, [b], c)[0]))
    for kernel in kernels:
        want = kernel(forms[0]())
        for form in forms[1:]:
            got = kernel(form())
            assert got.dtype == np.int64 and np.array_equal(got, want)
    # the empty batch: no rows, one column; a wrong width is refused
    assert kloosterman_sums(F, 1, n, b, []).shape == (0, F.p, 1)
    assert e_sum(F, n, b, np.zeros((0, 2), dtype=np.int64)).shape == (0, F.p, 1)
    for bad in ([(1, 2, 3)], [(1, 2), (1,)], np.zeros((2, 3), dtype=np.int64)):
        with pytest.raises(ValueError):
            kloosterman_sums(F, 1, n, b, bad)
        with pytest.raises(ValueError):
            toric_sum(F, 1, X1X2_PLUS_X2_INV, bad)


def test_twisted_kernels_refuse_before_lifting_to_a_huge_field():
    # (5^30 - 1)/4 overflows int64: the lift must wait for the refusal
    F, chis = build_field(5, 1), [CharacterTuple((1, 0))]
    calls = (lambda: kloosterman_sums(F, 30, 1, 1, chis),
             lambda: toric_sum(F, 30, X1_PLUS_X2, chis),
             lambda: gauss_formula_parts(F, 30, 1, [1], chis))
    for call in calls:
        with pytest.raises(BudgetExceeded):
            call()
    assert (5, 30) not in _FIELDS


def test_character_tuple_reduction_and_lift():
    # indices are read mod q - 1 = 4 and act over F_25 as 6 j
    F = build_field(5, 1)
    assert expsum._rows([(7, -1, 0)], 3, 5).tolist() == [[3, 3, 0]]
    got = kloosterman_sums(F, 2, 2, 3, [(7, -1, 0)])[0].tolist()
    assert got == kloosterman_sums(F, 2, 2, 3, [(3, 3, 0)])[0].tolist()
    assert got == _points_hist(F, 2, _inverted_points(F, 2, 2, 3), (3, 3, 0))


def test_laurent_poly_validation():
    with pytest.raises(ValueError, match="duplicate"):
        LaurentPoly(1, ((1, (1,)), (2, (1,))))
    with pytest.raises(ValueError, match="zero coefficient"):
        LaurentPoly(1, ((0, (1,)),))
    with pytest.raises(ValueError, match="wrong length"):
        LaurentPoly(2, ((1, (1,)),))


@given(st.sampled_from([3, 5]), st.integers(1, 2), st.data())
def test_mass_bounded_by_point_count(q, n, data):
    F = build_field(q, 1)
    b = data.draw(st.integers(1, q - 1))
    idx = tuple(data.draw(st.integers(0, q - 2)) for _ in range(n + 1))
    v = kloosterman_sum(F, 1, n, b, CharacterTuple(idx))
    assert np.abs(v).sum() <= (q - 1) ** n


# ----------------------------------------------------------------------
# the untwisted tower route (pair counts, Gauss-sum transform) against enumeration
# ----------------------------------------------------------------------

# (p, a, n, largest k): n = 1, 2, 3, 4 over p = 2, 3, 5, 7 and the non-prime
# bases q = 4 and q = 9; the p | n+1 cells (2, 1), (3, 2), (2, 3), (5, 4)
# included, since the sum is defined there even where the L-function is refused
TRANSFORM_GRID = [
    (2, 1, 1, 8), (3, 1, 1, 6), (5, 1, 1, 4), (7, 1, 1, 3), (2, 2, 1, 4),
    (3, 2, 1, 3),
    (2, 1, 2, 6), (3, 1, 2, 4), (5, 1, 2, 3), (7, 1, 2, 2), (2, 2, 2, 3),
    (3, 2, 2, 2),
    (2, 1, 3, 4), (3, 1, 3, 3), (5, 1, 3, 2), (7, 1, 3, 2), (2, 2, 3, 2),
    (3, 2, 3, 1),
    (2, 1, 4, 3), (3, 1, 4, 2), (5, 1, 4, 1), (7, 1, 4, 1),
]


@pytest.mark.parametrize("p,a,n,kmax", TRANSFORM_GRID)
def test_gauss_transform_matches_enumeration(p, a, n, kmax):
    F = build_field(p, a)
    for k in range(1, kmax + 1):
        bs = range(1, F.q)                  # every b from one tower_sums call
        for b, v in zip(bs, tower_sums(F, k, n, bs), strict=True):
            assert v.tolist() == kloosterman_sum(F, k, n, b)[:, 0].tolist(), (k, b)
        if n == 1:                          # the FFT's counts are A's oracle
            E = field_maps(F, k).ext
            assert np.array_equal(_pair_counts(E), _sum_one_counts(E, 1)[0]), k


# the cells on which S_n(b c^(n+1)) = sigma_{1/c} S_n(b) was first checked
CLASS_CELLS = [(7, 1, 3, 2), (5, 1, 4, 1), (3, 2, 2, 1), (3, 2, 3, 2),
               (2, 3, 2, 2), (11, 1, 3, 1), (13, 1, 2, 3), (5, 2, 2, 2)]


@pytest.mark.parametrize("p,a,k,n", CLASS_CELLS)
def test_class_served_tower_sums_equal_direct_serving(p, a, k, n, direct_serve):
    F = build_field(p, a)
    bs = range(1, F.q)
    h = math.gcd(n + 1, p - 1) * (F.q - 1) // (p - 1)
    classes = [b_class(F, n, b) for b in bs]
    for b, (rep, c) in zip(bs, classes):
        assert 0 < c < p and F.mul(rep, F.power(c, n + 1)) == b
        assert rep == F.exp[F.dlog[b] % h]
    assert len({rep for rep, _ in classes}) == h
    family = tower_sums(F, k, n, bs)
    assert sorted(key[4] for key in expsum._TOWER) == sorted({rep for rep, _ in classes})
    backwards = [tower_sums(F, k, n, [b])[0] for b in reversed(bs)][::-1]
    for b, v, w in zip(bs, family, backwards, strict=True):
        want = direct_serve(F, k, n, b).tolist()
        assert v.tolist() == w.tolist() == want, b


@given(st.integers(1, 200), st.integers(1, 6), st.integers(-10 ** 6, 10 ** 6))
def test_walk_equals_the_index_gather(M, step, start):
    X = np.arange(M, dtype=np.int64) * 7 + 3
    got = expsum._walk(X, start, step)
    assert np.array_equal(got, X[(start + step * np.arange(M)) % M])
    got[:] = -1                             # new memory, not a view of X
    assert (X >= 0).all()


def test_non_prime_base_serves_only_the_requested_classes(monkeypatch):
    # over F_9 at n = 2 there are (q-1)/(p-1) = 4 classes of b: each new
    # class builds its count array again, as before every class was served
    F = build_field(3, 2)
    builds = []
    real = expsum._sum_one_counts
    monkeypatch.setattr(expsum, "_sum_one_counts", lambda E, n: builds.append(E.q) or real(E, n))
    reps = sorted({b_class(F, 2, b)[0] for b in range(1, 9)})
    assert len(reps) == 4
    for i, rep in enumerate(reps, 1):
        tower_sums(F, 2, 2, [rep])
        assert sorted(key[4] for key in expsum._TOWER) == reps[:i]
    assert builds == [81] * 4


def test_tower_fields_build_no_digit_matrix(monkeypatch):
    monkeypatch.setattr(gf, "_FIELDS", {})
    monkeypatch.setattr(gf, "_MAPS", {})
    F = build_field(5, 1)
    for n in (1, 2):
        tower_sums(F, 3, n, [1, 2])
    E = field_maps(F, 3).ext
    assert E is not F and "digits" not in vars(E) and "digits" not in vars(F)
    assert E.digits[7].tolist() == [2, 1, 0]            # built on first read
    assert "digits" in vars(E)


def test_tower_sums_rows_are_not_views_of_served_histograms():
    # every row of the result is new memory: writing into it changes no
    # served histogram, so a later call, warm or for the same b, is unchanged
    F = build_field(7, 1)
    bs = [1, 3, 6, 1]                       # 1 is its class's representative
    want = tower_sums(F, 2, 1, bs).copy()
    for out in (tower_sums(F, 2, 1, bs), tower_sums(F, 2, 1, [1]), tower_sums(F, 2, 1, [3])):
        out += 5
    assert np.array_equal(tower_sums(F, 2, 1, bs), want)


# n = 1 sums two digit rows, which pass int16 once 2(p-1) > 32767; at
# p = 65537 the digits and traces themselves do
@pytest.mark.parametrize("p", [16411, 65537])
def test_kernel_matches_transform_past_int16(p):
    F = build_field(p, 1)
    bs = (1, 2, 3, p - 1)
    for b, v in zip(bs, tower_sums(F, 1, 1, bs), strict=True):
        assert kloosterman_sum(F, 1, 1, b)[:, 0].tolist() == v.tolist(), b


# the largest n >= 2 fields of the tier-1 run (criteria 3 and 8, the n=3,
# p=5 held-out k), and 7^7, where the rounding error is no longer zero
@pytest.mark.parametrize("p,k,n", [(13, 4, 2), (7, 5, 2), (5, 7, 3), (7, 7, 3)])
def test_gauss_transform_rounding_within_stated_bound(p, k, n):
    A, dev = _sum_one_counts(build_field(p, k), n)
    assert dev <= check_transform(p ** k, n) < 0.5
    M = p ** k - 1
    assert int(A.sum()) == (M ** (n + 1) - (-1) ** (n + 1)) // p ** k


def test_gauss_transform_peak_memory_per_element():
    # G and P (16 B each) are the peak: P is walked out of G by strided
    # slices, the inverse FFT runs in place and P is dropped before the
    # rounding check
    E = build_field(3, 12)
    A0, dev0 = _sum_one_counts(E, 2)        # tables and lazy maps built first
    tracemalloc.start()
    try:
        A, dev = _sum_one_counts(E, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 34 * E.q, peak / E.q
    assert np.array_equal(A, A0) and dev == dev0


def test_pair_count_tower_sum_peak_memory_per_element():
    # the digit permutation and its dlog row (8 B each), then the count
    # array and one walk of it (8 B each) beside the traces in dlog order
    # (2 B); both classes of F_3 are served from the one count array
    F = build_field(3, 1)
    v0, = tower_sums(F, 12, 1, [1])         # tables and lazy maps built first
    expsum._TOWER.clear()                   # and b = 1 is served again below
    tracemalloc.start()
    try:
        v, = tower_sums(F, 12, 1, [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 3 ** 12, peak / 3 ** 12
    assert v.tolist() == v0.tolist()


def test_gauss_transform_bound_admits_the_point_budget():
    # every n >= 2 torus of at most POINT_CAP points has q^k - 1 <=
    # POINT_CAP^(1/n), and the bound grows with q^k; only F_2 has an unbounded n
    for n in range(2, 34):
        Q = 2
        while Q ** n <= expsum.POINT_CAP:
            Q += 1
        check_transform(Q, n)
    for n in range(2, 80):
        check_transform(2, n)


def test_gauss_transform_refuses_over_bound_before_any_fft(monkeypatch):
    calls = []
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, _real=real, **kw: calls.append(a)
                            or _real(*a, **kw))
    F = build_field(3, 1)
    with pytest.raises(BudgetExceeded, match="rounding bound") as ei:
        tower_sums(F, 16, 3, [1])           # within the table cap
    assert ei.value.estimate == 3 ** 16
    assert (3, 16) not in _FIELDS           # no table was built either
    with pytest.raises(BudgetExceeded, match="2\\^63"):
        check_transform(6 * 10 ** 4, 4)     # bound 0.3, but M^4 > 2^63
    assert calls == []
    assert len(tower_sums(build_field(13, 1), 2, 2, range(1, 13))) == 12
    assert len(calls) == 2                 # one forward, one inverse FFT for all b
