"""Exact evaluators for the character sums over finite fields.

Covered sums, all with values in Z[zeta_p, zeta_m] histograms:

* gauss_sum        G(chi) = sum_{x != 0} chi(x) psi(x), refused when its
                   p x (q-1) histogram exceeds gf.TABLE_CAP cells
* kloosterman_sums the inverted n-variable Kloosterman sums S_n(chi, b) over
                   F_{q^k} for many chi at once (kloosterman_sum: one chi):
                   the sum over the torus of chi-products times
                   psi(1/(x_1 + ... + x_{n+1})) on x_1 ... x_{n+1} = b,
                   zero denominators skipped
* tn_transform     the companion sum with the product locus = 1 and b in
                   the numerator of psi; cross-checked exactly against
                   its reciprocal-parameter expression via S_n
* toric_sum        generic twisted toric exponential sum of a Laurent
                   polynomial; a variable x_v with exponents in {0, 1} and
                   trivial character is summed out in closed form,
                   sum_{x_v} psi(Tr(x_v A + C)) = psi(Tr C) (Q [A = 0] - 1)
* e_sum            the auxiliary (n+2)-variable toric sum that rewrites
                   q S_n in closed form
* gauss_formula_parts  an independent oracle for S_n built from q^k - 1
                   Gauss-sum products instead of point enumeration; the
                   products do not depend on b and are built once per call
                   for every tuple, grouped by Gauss index
* tower_sums       untwisted S_n(b) over F_{q^k} for many b, priced by
                   check_tower: one count array per (F_{q^k}, n), from
                   y (1 - y) at n = 1, two FFTs at n >= 2, walked per class

Every sum is returned as int64 counts (cyclotomic): gauss_sum one (p, q-1)
row, tower_sums one (len(bs), p) array, and the twisted sums a stack.  The
enumerating sums visit each point once however many character tuples they
are given: a tuple only selects a point's bucket sum_i j_i dlog x_i, so all
tuples fill one exact int64 bincount per chunk of points.  A batch of C
tuples is one (C, count) int64 index array against the fixed generator of
F_q (any sequence of C tuples is read as one; None: one trivial tuple),
reduced mod q - 1 and lifted to F_{q^k} only after the call is priced.  A
twisted sum returns one int64 (C, p, m) array with row c the histogram of
tuple c (m = 1 when every tuple is trivial), for cyclotomic.reduce_counts
and embed_counts to check whole.

toric_sum gathers each term c x^v of a chunk by one np.take of digit rows at
its unreduced exponent dlog c + sum_i v_i e_i, M = q^k - 1: -e_i enters as
M - e_i, and v_i e_i is reduced mod M once per chunk only for |v_i| >= 2, so
the table has (r + 1) M rows for r enumerated variables.  A part's T terms
add in digit_dtype(T (p-1)), then one % p.

For c in F_p^*, s -> c s shows S_n(b c^(n+1)) is S_n(b) with trace bucket
t moved to t/c (sigma_{1/c} on Q(zeta_p)), so tower_sums serves only one
representative per F_p^*-class of b (b_class) and moves the others in O(p).
Served histograms stay in _TOWER for the process, 8p bytes each; a count
array (8 B per element of F_{q^k}) lives for one call, which serves every
class over an a = 1 base (n+1 or fewer) and the classes asked for over a > 1.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import BudgetExceeded, VerificationError
from .gf import TABLE_CAP, FieldTable, check_table_cap, digit_dtype, field_maps

#: enumeration cap: torus points per kernel call (multiply-adds for the
#: Gauss-sum oracle); read at call time, as gf.TABLE_CAP is
POINT_CAP = 10 ** 10


def check_points(cost: int, what: str = "enumeration", unit: str = "points") -> None:
    if cost > POINT_CAP:
        raise BudgetExceeded(f"{what} needs {cost} {unit}, over the cap "
                             f"{POINT_CAP}; lower k or n", estimate=cost)


def _check_positive(**degrees: int) -> None:
    for name, value in degrees.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


class CharacterTuple(tuple):
    """One tuple of multiplicative character indices against the fixed
    generator, index 0 trivial; a row of the (C, count) index arrays that
    the twisted sums take."""


@dataclass(frozen=True)
class LaurentPoly:
    """Finitely many terms (coefficient encoding, integer exponent vector)."""
    n_vars: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        seen = set()
        for c, e in self.terms:
            if len(e) != self.n_vars:
                raise ValueError(f"exponent vector {e} has wrong length")
            if c == 0:
                raise ValueError("zero coefficient in canonical LaurentPoly")
            if e in seen:
                raise ValueError(f"duplicate exponent vector {e}")
            seen.add(e)

    def exponents(self) -> list[tuple[int, ...]]:
        return [e for _, e in self.terms]


# ----------------------------------------------------------------------
# Gauss sums
# ----------------------------------------------------------------------

def _check_cells(cells: int, what: str) -> None:
    """Refuse a histogram of more than gf.TABLE_CAP cells before allocating it."""
    if cells > TABLE_CAP:
        raise BudgetExceeded(f"{what} need {cells} histogram cells, over the "
                             f"table cap {TABLE_CAP}", estimate=cells)


def _gauss_hists(F: FieldTable, js) -> np.ndarray:
    """(len(js), p, q-1) histograms of the Gauss sums G(chi_j), j in js.

    Row i, cell (t, u) counts the x != 0 with tr x = t and j_i dlog x = u
    mod q-1.  Refused before allocating when the cells exceed gf.TABLE_CAP.
    """
    p, M = F.p, F.q - 1
    js = np.asarray(js, dtype=np.int64).reshape(-1, 1) % M
    cells = len(js) * p * M
    _check_cells(cells, f"{len(js)} Gauss sums over F_{F.q}")
    e = np.arange(M, dtype=np.int64)
    t = F.tr_abs[F.exp[e]].astype(np.int64)
    flat = (np.arange(len(js))[:, None] * p + t) * M + js * e % M
    return np.bincount(flat.ravel(), minlength=cells).reshape(len(js), p, M)


def gauss_sum(F: FieldTable, j: int) -> np.ndarray:
    """Exact (p, q-1) histogram of sum_{x != 0} zeta_{q-1}^(j dlog x) zeta_p^(tr x)."""
    return _gauss_hists(F, [j])[0]


# ----------------------------------------------------------------------
# batched enumeration: one pass over the points, one key row per character
# ----------------------------------------------------------------------

#: points per enumeration chunk; also caps (character rows x points) per key array
_CHUNK = 1 << 18


def _toric_chunks(M: int, nvars: int):
    """(length, exponent columns) of (Z/M)^nvars in chunks; one point if nvars = 0."""
    total = M ** nvars
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        exps = []
        for _ in range(nvars - 1):
            exps.append(idx % M)
            idx = idx // M
        yield stop - start, exps + [idx][:nvars]    # the last column is < M


def _char_hists(J: np.ndarray, width: int, M: int, chunks, nmasks: int = 1):
    """(rows, width, m) histograms summed over chunks, one per point mask.

    chunks yields (buckets t < width, exponent columns, nmasks masks, None
    meaning every point).  Row c, cell (t, u) counts the points with bucket
    t and sum_i J[c, i] e_i = u mod M, exactly in int64.  m = M when some
    row of J is twisted; otherwise m = 1 and one row serves every row (a
    broadcast view).  The (rows x points) key array of one bincount stays
    within _CHUNK by splitting the rows.
    """
    C, twisted = len(J), J.any()
    m = M if twisted else 1
    hists = [np.zeros((C if twisted else 1, width, m), dtype=np.int64)
             for _ in range(nmasks)]
    for t, cols, masks in chunks:
        step = _CHUNK // len(t) if twisted else 1       # len(t) <= _CHUNK
        for c0 in range(0, len(hists[0]), step):
            Jg = J[c0:c0 + step]
            key = t
            if twisted:
                u = np.zeros((len(Jg), len(t)), dtype=np.int64)
                for j, e in zip(Jg.T, cols):
                    if j.any():
                        u += j[:, None] * e
                        u %= M
                key = (np.arange(len(Jg))[:, None] * width + t) * M + u
            for h, mask in zip(hists, masks):
                g = h[c0:c0 + step]
                g += np.bincount((key if mask is None else key[..., mask]).ravel(),
                                 minlength=g.size).reshape(g.shape)
    return [np.broadcast_to(h, (C, width, m)) for h in hists]


def _rows(chis, count: int, q: int) -> np.ndarray:
    """(C, count) int64 indices of the C tuples in chis, reduced mod q - 1;
    None is one trivial tuple.  Over F_Q = F_{q^k} index j acts through the
    norm, as j (Q-1)/(q-1): callers lift only after pricing, so that Q - 1
    is known to fit in int64."""
    if chis is None:
        return np.zeros((1, count), dtype=np.int64)
    J = np.array(chis if isinstance(chis, np.ndarray) else list(chis), dtype=np.int64)
    J = J.reshape(0, count) if J.shape == (0,) else J
    if J.ndim != 2 or J.shape[1] != count:
        raise ValueError(f"need {count} characters per tuple, got shape {J.shape}")
    return J % (q - 1)


# ----------------------------------------------------------------------
# the inverted-sum enumeration kernel
# ----------------------------------------------------------------------

def _pack(sd: np.ndarray, p: int) -> np.ndarray:
    s = sd[:, -1].astype(np.int64)
    for i in range(sd.shape[1] - 2, -1, -1):
        s *= p
        s += sd[:, i]
    return s


def _inverted_hist(E: FieldTable, n: int, d_last: int, TQ: np.ndarray,
                   J: np.ndarray):
    """_char_hists of the inverted sum over the whole torus, one row per
    row of lifted character indices J, buckets TQ[s] (p at s = 0).

    Free variables x_1..x_n run over the torus by exponent, in flat chunks;
    the dependent variable is x_last = exp(d_last) / (x_1 ... x_n) and
    s = x_1 + ... + x_n + x_last.  Digit rows of the n+1 variables are
    summed before one reduction mod p, in a dtype that holds (n+1)(p-1).
    """
    p, M = E.p, E.q - 1
    dt = digit_dtype((n + 1) * (p - 1))
    DIG, EXP = E.digits.astype(dt, copy=False), E.exp

    def chunks():
        for _, exps in _toric_chunks(M, n):
            e_last = (d_last - sum(exps)) % M
            sd = np.take(DIG, EXP[e_last], axis=0)
            for e in exps:
                sd += np.take(DIG, EXP[e], axis=0)
            sd %= p
            yield TQ[_pack(sd, p)], exps + [e_last], (None,)
    return _char_hists(J, p + 1, M, chunks())[0]


def _validate_b(F: FieldTable, b: int) -> None:
    if not 0 < b < F.q:
        raise ValueError(f"b = {b} is not a unit of the base field (need 0 < b < {F.q})")


def _plan_inverted(F: FieldTable, k: int, n: int, b: int, chis) -> np.ndarray:
    """_rows of chis lifted to F_{q^k}, after checking n, k and b and pricing
    points and cells."""
    _check_positive(n=n, k=k)
    _validate_b(F, b)
    Q = F.q ** k
    J = _rows(chis, n + 1, F.q)
    check_points((Q - 1) ** n)
    if J.any():
        _check_cells(len(J) * (F.p + 1) * (Q - 1), f"{len(J)} twisted sums over F_{Q}")
    return J * ((Q - 1) // (F.q - 1))


def kloosterman_sums(F: FieldTable, k: int, n: int, b: int, chis=None) -> np.ndarray:
    """Inverted n-variable Kloosterman sums S_n(chi, b) over F_{q^k}, exactly,
    for every chi in chis from one enumeration of the torus.

    Enumerates (x_1, ..., x_n) over the torus, sets
    s = x_1 + ... + x_n + b/(x_1 ... x_n), skips s = 0 and accumulates
    psi(Tr(1/s)); each chi only picks the bucket sum_i j_i dlog x_i of a
    point.  Priced (points, histogram cells) before any table is built;
    returns the (C, p, m) stack (None: one trivial tuple), m = q^k - 1,
    or 1 when every chi is trivial (a read-only broadcast of one row).
    """
    J = _plan_inverted(F, k, n, b, chis)
    maps = field_maps(F, k)
    E = maps.ext
    d_last = int(E.dlog[maps.embed_tab[b]])
    return _inverted_hist(E, n, d_last, maps.tr_inv, J)[:, :E.p]


def kloosterman_sum(F: FieldTable, k: int, n: int, b: int, chi=None) -> np.ndarray:
    """S_n(chi, b) over F_{q^k}, untwisted for chi None: kloosterman_sums'
    (p, m) row."""
    return kloosterman_sums(F, k, n, b, None if chi is None else [chi])[0]


def tn_transform(F: FieldTable, n: int, b: int, chis=None) -> np.ndarray:
    """The product-locus-1 companion sum T_n(chi, b), computed two ways.

    Direct definition: product of the n+1 variables equals 1 and psi is
    evaluated at b/(x_1 + ... + x_{n+1}).  Also computed through
    S_n(chi, b^-(n+1)) shifted by chi_1...chi_{n+1}(b): x = b y maps the
    one point set onto the other bucket for bucket, so the two exact
    histograms must be equal cell for cell or the call raises.  Returns the
    (C, p, m) stack as kloosterman_sums does (None: one trivial
    tuple); each side is one pass.
    """
    J = _plan_inverted(F, 1, n, b, chis)
    M = F.q - 1
    direct = _inverted_hist(F, n, 0, F.tr_quotient(b), J)
    b_target = F.power(b, -(n + 1)) if M > 1 else 1
    via_s = _inverted_hist(F, n, int(F.dlog[b_target]), field_maps(F, 1).tr_inv, J)
    if J.any():                     # chi_1...chi_{n+1}(b) moves u up by this
        shift = J.sum(axis=1) * int(F.dlog[b]) % M
        u = (np.arange(M)[None, :] - shift[:, None]) % M
        via_s = np.take_along_axis(via_s, u[:, None, :], axis=2)
    if not np.array_equal(direct, via_s):
        raise VerificationError(
            "transform mismatch between the direct sum and its "
            "reciprocal-parameter expression (implementation bug)")
    return direct[:, :F.p]


# ----------------------------------------------------------------------
# untwisted tower sums: one count array per (F_{q^k}, n), served per class of b
# ----------------------------------------------------------------------

def check_transform(Q: int, n: int) -> float:
    """A-priori bound on max |A_float - A| in _sum_one_counts over F_Q.

    Source: Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., §24.1, Thm 24.2: an FFT has normwise relative error eps <= L eta /
    (1 - L eta), eta = u + gamma_4 (sqrt2 + u), u = 2^-53, L = log2 length;
    L = 3 ceil(log2 4M), M = Q - 1, covers pocketfft's Bluestein passes.
    Gauss sums (f within 32u of unimodular, ||DFT f||_2 = M) are then within
    r sqrt Q, r = (eps + 33u) M / sqrt Q; n+1 complex products (Lemma 3.5)
    make rho = (1+r)^(n+2) (1 + sqrt2 gamma_2)^(n+1) - 1 relative to
    Q^((n+2)/2); the inverse FFT (2-norm 1/sqrt M) and (M^n + C)/Q give
    (rho + (eps+u)(1+rho) + 6u) Q^(n/2) + 3u M^n / Q.  Refuses at >= 1/2,
    or when counts up to M^n overflow int64.
    """
    M, u, s2 = Q - 1, 2.0 ** -53, math.sqrt(2)
    leta = 3 * math.ceil(math.log2(4 * M)) * (u + 4 * u / (1 - 4 * u) * (s2 + u))
    eps = leta / (1 - leta)
    r = (eps + 33 * u) * M / math.sqrt(Q)
    rho = (1 + r) ** (n + 2) * (1 + s2 * 2 * u / (1 - 2 * u)) ** (n + 1) - 1
    bound = (rho + (eps + u) * (1 + rho) + 6 * u) * math.sqrt(Q) ** n + 3 * u * M ** n / Q
    if bound >= 0.5 or M ** n >= 2 ** 63:
        raise BudgetExceeded(f"transform over F_{Q}, n = {n}: rounding bound {bound:.2g}"
                             " (needs < 1/2, counts below 2^63)", estimate=Q)
    return bound


def _walk(X: np.ndarray, start: int, step: int) -> np.ndarray:
    """X[(start + step e) mod M] for e < M = len(X): at most step + 1 strided slices."""
    M, i, parts = len(X), start % len(X), []
    while (left := M - sum(map(len, parts))) > 0:
        parts.append(X[i::step][:left])
        i = (i + step * len(parts[-1])) % M
    return np.concatenate(parts)


def _sum_one_counts(E: FieldTable, n: int) -> tuple[np.ndarray, float]:
    """A[d] = #{y in torus^(n+1): sum y = 1, prod y = g^d}, max |A_float - A|.

    DFT(f)^(n+1), f[e] = psi(g^e), is the DFT of the hyper-Kloosterman sums
    K[d]; A = (M^n + C)/Q with C[d] = sum_v psi(-g^v) K[d + (n+1)v], whose
    DFT is DFT(K) conj(DFT(f)[(n+1)j]).  Asserts the deviation bound and
    sum A = (M^(n+1) - (-1)^(n+1))/Q, the points of y_1 + ... = 1.
    """
    Q, M = E.q, E.q - 1
    bound = check_transform(Q, n)
    G = np.fft.fft(np.exp(2j * np.pi / E.p * np.arange(E.p))[E.tr_abs[E.exp]])
    P = _walk(G, 0, n + 1)
    np.conj(P, out=P)
    for _ in range(n + 1):
        P *= G
    del G                       # peak 32 B/element: G and P
    A_float = (float(M ** n) + np.fft.ifft(P, out=P).real) / Q   # (M^n + C)/Q
    del P
    A = np.rint(A_float).astype(np.int64)
    dev = float(np.abs(A_float - A).max())
    if dev > bound or int(A.sum()) != (M ** (n + 1) - (-1) ** (n + 1)) // Q:
        raise VerificationError(f"transform counts over F_{Q}: deviation "
                                f"{dev:.2g} over {bound:.2g} or a wrong total")
    return A, dev


def _pair_counts(E: FieldTable) -> np.ndarray:
    """A[d] = #{y in F_Q minus {0, 1}: y (1 - y) = g^d}, the n = 1 count of
    _sum_one_counts, exactly, from one bincount over Q - 2 points.  z ->
    enc(1 - z) is built one base-p digit at a time, the constant digit last."""
    p, M = E.p, E.q - 1
    neg = -np.arange(p, dtype=np.int64) % p
    perm = np.zeros(1, dtype=np.int64)
    for i in range(E.a - 1, 0, -1):
        perm = (perm[:, None] + neg * p ** i).ravel()
    perm = (perm[:, None] + (1 - np.arange(p)) % p).ravel()
    d = E.dlog[perm[2:]]                        # dlog (1 - y); y = 0, 1 left out
    del perm
    d += E.dlog[2:]
    d %= M
    return np.bincount(d, minlength=M)


def check_tower(F: FieldTable, k: int, n: int) -> None:
    """Refuse tower_sums over F_{q^k} before any work: n or k below 1, the
    table cap, then the n >= 2 rounding bound."""
    _check_positive(n=n, k=k)
    check_table_cap(F.p, F.a * k)
    if n > 1:
        check_transform(F.q ** k, n)


#: served histograms of class representatives, keyed (p, a, k, n, rep)
_TOWER: dict[tuple[int, int, int, int, int], np.ndarray] = {}


def _drop_class(F: FieldTable, n: int, rep: int) -> None:
    """Remove the served histograms of one class from _TOWER, at every k."""
    for key in [t for t in _TOWER if t[:2] == (F.p, F.a) and t[3:] == (n, rep)]:
        del _TOWER[key]


def b_class(F: FieldTable, n: int, b: int) -> tuple[int, int]:
    """(rep, c), b = rep c^(n+1) with c in F_p^* and rep = g^(dlog b mod h),
    h = gcd(n+1, p-1) (q-1)/(p-1) the number of classes."""
    _validate_b(F, b)
    s, G = (F.q - 1) // (F.p - 1), math.gcd(n + 1, F.p - 1)
    d, m = int(F.dlog[b]), (F.p - 1) // G
    e = d // (G * s) * pow((n + 1) // G, -1, m) % m    # (n+1) e = G (d // h) mod p-1
    return int(F.exp[d % (G * s)]), int(F.exp[s * e % (F.q - 1)])


def tower_sums(F: FieldTable, k: int, n: int, bs: Sequence[int]) -> np.ndarray:
    """Untwisted S_n(b) over F_{q^k} for every b in bs, priced by check_tower,
    as one new (len(bs), p) int64 array, row i the histogram of bs[i].

    x = s y with s = sum x gives S = sum_s psi(1/s) A(b s^-(n+1)), so with
    w = 1/s = g^e, hist[tr w] sums A[dlog b + (n+1) e] (int64), a _walk of A.
    A depends on (F_{q^k}, n) only: _pair_counts at n = 1, _sum_one_counts at
    n >= 2, built when a class representative (b_class) is not in _TOWER,
    then serving every class at a = 1 (F.exp[:gcd(n+1, p-1)]), the asked
    ones at a > 1; hist_b[u] = hist_rep[c u mod p], one gather for every b.
    """
    cls = [b_class(F, n, b) for b in bs]
    check_tower(F, k, n)
    p, a = F.p, F.a
    if any((p, a, k, n, r) not in _TOWER for r, _ in cls):
        maps = field_maps(F, k)
        E = maps.ext
        A = _pair_counts(E) if n == 1 else _sum_one_counts(E, n)[0]
        t = E.tr_abs[E.exp]                     # hist[tr g^e] += A[dlog r + (n+1) e]
        for r in F.exp[:math.gcd(n + 1, p - 1)].tolist() if a == 1 else [r for r, _ in cls]:
            if (p, a, k, n, r) not in _TOWER:   # a = 1: every class; a > 1: those asked
                hist = np.zeros(p, dtype=np.int64)
                np.add.at(hist, t, _walk(A, int(E.dlog[maps.embed_tab[r]]), n + 1))
                _TOWER[p, a, k, n, r] = hist
    hists = np.array([_TOWER[p, a, k, n, r] for r, _ in cls], dtype=np.int64).reshape(-1, p)
    cs = np.array([c for _, c in cls], dtype=np.int64)
    return hists[np.arange(len(cls))[:, None], cs[:, None] * np.arange(p) % p]


# ----------------------------------------------------------------------
# toric sums
# ----------------------------------------------------------------------

def _digit_sum(tab: np.ndarray, terms, cols, L: int, p: int) -> np.ndarray:
    """Packed encodings of sum c x^v over terms (dlog c, v) at the chunk: row
    dlog c + sum_i cols[i, v_i] of tab per term, summed, then one % p."""
    acc = np.zeros((L, tab.shape[1]), dtype=tab.dtype)
    for dc, v in terms:
        acc += np.take(tab, sum((cols[i, vi] for i, vi in enumerate(v) if vi), dc), axis=0)
    acc %= p
    return _pack(acc, p)


def toric_sum(F: FieldTable, k: int, f: LaurentPoly, chis=None) -> np.ndarray:
    """Twisted toric exponential sum of f over (F_{q^k}^*)^n, exactly.

    sum over the torus of prod_i chi_i(N(x_i)) * psi(Tr f(x)), as the
    histogram of the torus points by (Tr f(x), sum_i j_i dlog x_i), for
    every tuple in chis (None: one trivial tuple): the (C, p, m)
    stack as kloosterman_sums returns it, from one enumeration in which
    each tuple is one more key row.

    The first variable x_v whose exponents all lie in {0, 1} and whose
    character index is 0 in every tuple is summed out: with
    f = x_v A(x') + C(x') and Q = q^k,

        sum_{x_v != 0} psi(Tr f) = psi(Tr C) (Q [A = 0] - 1),

    so only the other n - 1 coordinates are enumerated and priced.  The
    histogram stays the point count: x' with A = 0 puts Q - 1 points in
    bucket Tr C, x' with A != 0 puts Q/p - [s = 0] in bucket Tr C + s.
    Without such a variable the whole torus is enumerated.  The digit rows
    of the terms come from one table of (r + 1) (Q - 1) rows for the r
    enumerated variables: built from Q - 1 gathered rows, it peaks at r + 2
    times the field's digit table, on top of the chunks.  At r = 0 (one
    point) the table holds only the terms' own rows.
    """
    _check_positive(k=k)
    Q, p = F.q ** k, F.p
    M = Q - 1
    J = _rows(chis, f.n_vars, F.q)
    v = next((i for i in range(f.n_vars) if not J[:, i].any()
              and all(e[i] in (0, 1) for e in f.exponents())), None)
    rest = [i for i in range(f.n_vars) if i != v]
    J = J[:, rest]
    check_points(M ** len(rest))
    if J.any():
        _check_cells(len(J) * p * M, f"{len(J)} twisted toric sums over F_{Q}")
    maps = field_maps(F, k)     # refuses Q over the table cap
    E = maps.ext
    J = J * (M // (F.q - 1))

    parts, dcs = ([], []), []   # terms of C (x_v absent) and of A (x_v^1)
    for c, e in f.terms:
        if not 0 < c < F.q:
            raise ValueError(f"coefficient {c} is not a unit of the base field")
        dcs.append(int(E.dlog[maps.embed_tab[c]]))
        parts[0 if v is None else e[v]].append(
            (dcs[-1] if rest else len(dcs) - 1, [e[i] for i in rest]))

    # tab[e] = digits of g^e for e < (r + 1) M: every column lies in [0, M];
    # at one point (r = 0) tab[j] = digits of term j's coefficient instead
    dt = digit_dtype(max(map(len, parts)) * (p - 1))
    tab = np.tile(np.take(E.digits, E.exp if rest else E.exp[dcs], axis=0)
                  .astype(dt, copy=False), (len(rest) + 1, 1))
    keys = {(i, vi) for _, vec in parts[0] + parts[1] for i, vi in enumerate(vec) if vi}

    def chunks():               # buckets Tr C; the x' with A(x') = 0
        for L, exps in _toric_chunks(M, len(rest)):
            cols = {(i, vi): exps[i] if vi == 1 else M - exps[i] if vi == -1
                    else vi * exps[i] % M for i, vi in keys}
            t = E.tr_abs[_digit_sum(tab, parts[0], cols, L, p)]
            yield t, exps, (None,) if v is None else (
                None, _digit_sum(tab, parts[1], cols, L, p) == 0)
    hist, *z = _char_hists(J, p, M, chunks(), 1 if v is None else 2)
    if z:
        hist = Q * z[0] - hist + (Q // p) * (hist - z[0]).sum(axis=1, keepdims=True)
    return hist


def ik_laurent(F: FieldTable, n: int, b: int) -> LaurentPoly:
    """The (n+2)-variable Laurent polynomial whose toric sum rewrites the
    inverted Kloosterman sum:

        x_{n+1} (1 - x_{n+2} (x_1 + ... + x_n + b/(x_1...x_n))) + x_{n+2}
    """
    _validate_b(F, b)
    nv = n + 2
    terms = []

    def unit(*idx):
        e = [0] * nv
        for i in idx:
            e[i] = 1
        return tuple(e)

    terms.append((1, unit(n)))                       # x_{n+1}
    minus_one = F.neg(1)
    for i in range(n):
        terms.append((minus_one, unit(i, n, n + 1)))  # -x_i x_{n+1} x_{n+2}
    terms.append((F.neg(b), tuple([-1] * n + [1, 1])))
    terms.append((1, unit(n + 1)))                   # x_{n+2}
    return LaurentPoly(nv, tuple(terms))


def e_sum(F: FieldTable, n: int, b: int, chis=None) -> np.ndarray:
    """The auxiliary (n+2)-variable toric sum E_n(chi, b).

    Twist (chi_1 conj(chi_{n+1}), ..., chi_n conj(chi_{n+1}), 1, 1); it
    satisfies q S_n = -(q-1)^n chi_1(b) + chi_1(b) E_n when all characters
    agree and q S_n = chi_{n+1}(b) E_n otherwise.  Returns the
    (C, p, m) stack (None: one trivial tuple): the distinct twists
    are the key rows of one toric_sum, and x_{n+1}, trivial in every twist,
    is summed out.
    """
    J = _rows(chis, n + 1, F.q)
    twists = np.zeros((len(J), n + 2), dtype=np.int64)
    twists[:, :n] = J[:, :n] - J[:, n:]
    rows, inv = np.unique(twists % (F.q - 1), axis=0, return_inverse=True)
    return toric_sum(F, 1, ik_laurent(F, n, b), rows)[inv]


# ----------------------------------------------------------------------
# the Gauss-sum oracle
# ----------------------------------------------------------------------

def gauss_formula_parts(F: FieldTable, k: int, n: int, bs: Sequence[int],
                        chis=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """S_n(chi, b) over F_{q^k} for every chi in chis (None: the trivial
    tuple), as (main, rest) per b in bs: two (C, p, M) int64 stacks,
    M = q^k - 1, with S_n(chi, b) = main / q^k + rest / (q^k M) row for row.

    main is -M^n chi_1(b) for a tuple of equal characters, else 0; rest is

        sum_c g(-xi_c)^2 g(c + j_1) ... g(c + j_{n+1}) zeta_M^(xi_c d_-1 - c d_b)

    over the M characters c, where g(j) is the Gauss sum of chi_j,
    xi_c = (n+1) c + j_1 + ... + j_{n+1} and d_x = dlog x.  Only the last
    unit depends on b: the M Gauss sums, their squares and every tuple's M
    products of n+3 of them (int64 cyclic convolutions on Z/p x Z/M = Z/pM,
    refused when their mass M^(n+4) reaches 2^63, then when their
    (C (n+1) + 1) M (pM)^2 multiply-adds exceed POINT_CAP) are
    built once per call, the rows that take g(r) next by one product with
    its circulant, and each b costs one shift and add.  An oracle for
    kloosterman_sums that shares no enumeration code with it.
    """
    for b in bs:
        _validate_b(F, b)
    Q = F.q ** k
    M, p, N = Q - 1, F.p, F.p * (Q - 1)
    J = _rows(chis, n + 1, F.q)
    if M ** (n + 4) >= 2 ** 63:
        raise BudgetExceeded(f"Gauss-sum products over F_{Q}, n = {n}: mass "
                             f"{M}^{n + 4} overflows int64", estimate=M ** (n + 4))
    check_points((len(J) * (n + 1) + 1) * M * N * N,
                 f"Gauss-sum oracle over F_{Q}, n = {n}", "multiply-adds")
    J = J * (M // (F.q - 1))
    maps = field_maps(F, k)
    E = maps.ext
    d_neg1 = int(E.dlog[E.neg(1)])
    # cell (t, u) of Z/p x Z/M as its CRT index in Z/pM
    crt = (np.arange(p)[:, None] * (M * pow(M, -1, p))
           + np.arange(M) * (p * pow(p, -1, M))) % N
    G = np.zeros((M, N), dtype=np.int64)
    G[:, crt.ravel()] = _gauss_hists(E, range(M)).reshape(M, N)
    GG = np.concatenate([G, G], axis=1)

    def times(X: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Row i of X times g(r[i]): one product per Gauss index g with its
        circulant, c[j, i] = g[i - j mod N], a strided view into GG[g]."""
        out = np.empty_like(X)
        step = GG.strides[1]
        for g in np.unique(r):
            rows = r == g
            out[rows] = X[rows] @ as_strided(GG[g, N:], (N, N), (-step, step),
                                             writeable=False)
        return out

    cs = np.arange(M)
    xi = ((n + 1) * cs + J.sum(axis=1)[:, None]) % M             # (tuple, c)
    X = times(G, cs)[-xi.ravel() % M]                            # g(-xi_c)^2
    for j in J.T:
        X = times(X, ((cs + j[:, None]) % M).ravel())
    terms = X.reshape(len(J), M, N)[..., crt]                    # (tuple, c, t, u)
    del X
    equal = (J == J[:, :1]).all(axis=1)
    out = []
    for b in bs:
        db = int(E.dlog[maps.embed_tab[b]])
        u = (cs - ((xi * d_neg1 - cs * db) % M)[..., None]) % M
        rest = np.take_along_axis(terms, u[:, :, None, :], axis=3).sum(axis=1)
        main = np.zeros_like(rest)
        main[equal, 0, J[equal, 0] * db % M] = -(Q - 1) ** n
        out.append((main, rest))
    return out
