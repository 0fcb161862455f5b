"""Exact evaluators for the character sums over finite fields.

Covered sums, all with values in Z[zeta_p, zeta_m] histograms:

* gauss_sum        G(chi) = sum_{x != 0} chi(x) psi(x), refused when its
                   p x (q-1) histogram exceeds gf.TABLE_CAP cells
* kloosterman_sum  the inverted n-variable Kloosterman sum S_n(chi, b)
                   over any extension F_{q^k}: the sum over the torus of
                   chi-products times psi(1/(x_1 + ... + x_{n+1})) on the
                   locus x_1 ... x_{n+1} = b, zero denominators skipped
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
* _transform_sum   untwisted S_n from two FFTs behind a rounding bound

Enumeration kernels are numpy-vectorized over the last variable, run
serially and accumulate exact integer histograms.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from .cyclotomic import SumValue
from .errors import BudgetExceeded, VerificationError
from .gf import TABLE_CAP, FieldTable, digit_dtype, field_maps

DEFAULT_POINT_BUDGET = 10 ** 10


@dataclass(frozen=True)
class Budget:
    """Enumeration budget: maximum number of torus points per kernel call."""
    points: int = DEFAULT_POINT_BUDGET
    force: bool = False


def check_points(npoints: int, budget: Budget | None) -> None:
    b = budget or Budget()
    if npoints > b.points and not b.force:
        raise BudgetExceeded(
            f"enumeration needs {npoints} points, over the budget {b.points}; "
            f"lower k or n, or force the run", estimate=npoints)


@dataclass(frozen=True)
class CharacterTuple:
    """Multiplicative characters as exponents against the fixed generator.

    Index 0 is the trivial character.  Over F_{q^k} each character acts
    through composition with the norm, i.e. via index j * (q^k-1)/(q-1).
    """
    indices: tuple[int, ...]

    @classmethod
    def trivial(cls, count: int) -> "CharacterTuple":
        return cls((0,) * count)

    @classmethod
    def reduced(cls, indices, q: int) -> "CharacterTuple":
        return cls(tuple(int(j) % (q - 1) for j in indices))

    def __len__(self) -> int:
        return len(self.indices)

    def all_equal(self) -> bool:
        return len(set(self.indices)) == 1

    def lifted(self, q: int, ext_q: int) -> tuple[int, ...]:
        step = (ext_q - 1) // (q - 1)
        return tuple((j % (q - 1)) * step % (ext_q - 1) for j in self.indices)


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

def _gauss_hists(F: FieldTable, js) -> np.ndarray:
    """(len(js), p, q-1) histograms of the Gauss sums G(chi_j), j in js.

    Row i, cell (t, u) counts the x != 0 with tr x = t and j_i dlog x = u
    mod q-1.  Refused before allocating when the cells exceed gf.TABLE_CAP.
    """
    p, M = F.p, F.q - 1
    js = np.asarray(js, dtype=np.int64).reshape(-1, 1) % M
    cells = len(js) * p * M
    if cells > TABLE_CAP:
        raise BudgetExceeded(f"{len(js)} Gauss sums over F_{F.q} need {cells} "
                             f"histogram cells, over the table cap {TABLE_CAP}",
                             estimate=cells)
    e = np.arange(M, dtype=np.int64)
    t = F.tr_abs[F.exp[e]].astype(np.int64)
    flat = (np.arange(len(js))[:, None] * p + t) * M + js * e % M
    return np.bincount(flat.ravel(), minlength=cells).reshape(len(js), p, M)


def gauss_sum(F: FieldTable, j: int) -> SumValue:
    """Exact histogram of sum_{x != 0} zeta_{q-1}^(j dlog x) zeta_p^(tr x)."""
    return SumValue.from_hist(F.p, _gauss_hists(F, [j])[0], m=F.q - 1)


# ----------------------------------------------------------------------
# the inverted-sum enumeration kernel
# ----------------------------------------------------------------------

def _tq_table(E: FieldTable, w: int) -> np.ndarray:
    """TQ[s] = tr_abs(w/s) for s != 0; sentinel value p at s = 0."""
    M, p = E.q - 1, E.p
    out = np.full(E.q, p, dtype=E.tr_abs.dtype)      # holds p
    dw = int(E.dlog[w])
    e = np.arange(M, dtype=np.int64)
    out[E.exp[e]] = E.tr_abs[E.exp[(dw + M - e) % M]]
    return out


def _pack(sd: np.ndarray, p: int) -> np.ndarray:
    s = sd[:, -1].astype(np.int64)
    for i in range(sd.shape[1] - 2, -1, -1):
        s *= p
        s += sd[:, i]
    return s


def _inverted_hist(E: FieldTable, n: int, d_last: int, w: int,
                   jidx: tuple[int, ...] | None) -> np.ndarray:
    """Histogram of the inverted sum over the whole torus.

    Free variables x_1..x_n run over the torus by exponent; the dependent
    variable is x_last = exp(d_last) / (x_1 ... x_n).  Points with
    s = x_1 + ... + x_n + x_last = 0 are skipped (sentinel bucket, dropped
    by the caller).  Buckets are tr_abs(w/s) in the untwisted case, else
    (tr_abs(w/s), sum_i j_i dlog x_i + j_last dlog x_last mod q^k-1).
    Digit rows of the n+1 variables are summed before one reduction mod p,
    in a dtype that holds (n+1)(p-1).
    """
    p, M = E.p, E.q - 1
    dt = digit_dtype((n + 1) * (p - 1))
    DIG, EXP = E.digits.astype(dt, copy=False), E.exp
    TQ = _tq_table(E, w)
    twisted = jidx is not None
    if twisted:
        hist = np.zeros((p + 1) * M, dtype=np.int64)
        j_free, j_last = np.array(jidx[:n], dtype=np.int64), jidx[n]
    else:
        hist = np.zeros(p + 1, dtype=np.int64)

    def inner(dig_pre, esum, jsum):
        idx = ((d_last - esum) % M) + MN            # in [1, 2M)
        v = EXP2[idx]
        sd = DXN + DIG[v]
        sd += dig_pre
        sd %= p
        t = TQ[_pack(sd, p)]
        if not twisted:
            return np.bincount(t, minlength=p + 1)
        jv = (jsum + j_free[n - 1] * EN + j_last * idx) % M
        flat = t.astype(np.int64) * M + jv
        return np.bincount(flat, minlength=(p + 1) * M)

    if n == 1:
        # the single free variable is the vector
        e = np.arange(M, dtype=np.int64)
        idx = (d_last + M - e) % M
        v = EXP[idx]
        sd = DIG[EXP[e]] + DIG[v]
        sd %= p
        t = TQ[_pack(sd, p)]
        if not twisted:
            hist += np.bincount(t, minlength=p + 1)
        else:
            jv = (jidx[0] * e + jidx[1] * idx) % M
            flat = t.astype(np.int64) * M + jv
            hist += np.bincount(flat, minlength=(p + 1) * M)
        return hist

    EXP2 = np.concatenate([EXP, EXP])   # inner-variable tables, n >= 2 only
    EN = np.arange(M, dtype=np.int64)
    MN = M - EN
    DXN = DIG[EXP]                      # digits of the inner variable
    for pre in product(range(M), repeat=n - 1):
        dig_pre = DIG[EXP[np.array(pre, dtype=np.int64)]].sum(axis=0, dtype=dt)
        esum = sum(pre) % M
        jsum = 0
        if twisted:
            jsum = int(sum(j * e for j, e in zip(jidx, pre)) % M)
        hist += inner(dig_pre, esum, jsum)
    return hist


def _finish_hist(E: FieldTable, hist: np.ndarray,
                 jidx: tuple[int, ...] | None) -> SumValue:
    p, M = E.p, E.q - 1
    if jidx is None:
        return SumValue.from_hist(p, hist[:p])       # drop the s = 0 sentinel
    return SumValue.from_hist(p, hist.reshape(p + 1, M)[:p], m=M)


def _validate_b(F: FieldTable, b: int) -> None:
    if not 0 < b < F.q:
        raise ValueError(f"b = {b} is not a unit of the base field (need 0 < b < {F.q})")


def kloosterman_sum(F: FieldTable, k: int, n: int, b: int,
                    chi: CharacterTuple | None = None, *,
                    budget: Budget | None = None) -> SumValue:
    """Inverted n-variable Kloosterman sum over F_{q^k}, exactly.

    Enumerates (x_1, ..., x_n) over the torus, sets
    s = x_1 + ... + x_n + b/(x_1 ... x_n), skips s = 0 and accumulates
    psi(Tr(1/s)) together with the character indices.  All-trivial chi
    takes the conductor-1 fast path (p counters).
    """
    _validate_b(F, b)
    if chi is None:
        chi = CharacterTuple.trivial(n + 1)
    if len(chi) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} characters, got {len(chi)}")
    maps = field_maps(F, k)
    E = maps.ext
    check_points((E.q - 1) ** n, budget)
    b_ext = int(maps.embed_tab[b])
    d_last = int(E.dlog[b_ext])
    lifted = chi.lifted(F.q, E.q)
    jidx = None if all(j == 0 for j in lifted) else lifted
    hist = _inverted_hist(E, n, d_last, 1, jidx)
    return _finish_hist(E, hist, jidx)


def tn_transform(F: FieldTable, n: int, b: int,
                 chi: CharacterTuple | None = None, *,
                 budget: Budget | None = None) -> SumValue:
    """The product-locus-1 companion sum T_n(chi, b), computed two ways.

    Direct definition: product of the n+1 variables equals 1 and psi is
    evaluated at b/(x_1 + ... + x_{n+1}).  Also computed through
    S_n(chi, b^-(n+1)) shifted by chi_1...chi_{n+1}(b); the two exact
    values must agree or the call raises.
    """
    _validate_b(F, b)
    if chi is None:
        chi = CharacterTuple.trivial(n + 1)
    M = F.q - 1
    check_points(M ** n, budget)
    lifted = chi.lifted(F.q, F.q)
    jidx = None if all(j == 0 for j in lifted) else lifted
    hist = _inverted_hist(F, n, 0, b, jidx)
    direct = _finish_hist(F, hist, jidx)

    db = int(F.dlog[b])
    b_target = F.power(b, -(n + 1)) if M > 1 else 1
    via_s = kloosterman_sum(F, 1, n, b_target, chi, budget=budget)
    if jidx is not None:
        via_s = via_s.shift(0, sum(lifted) * db % M)
    if not (direct == via_s):
        raise VerificationError(
            "transform mismatch between the direct sum and its "
            "reciprocal-parameter expression (implementation bug)")
    return direct


# ----------------------------------------------------------------------
# the Gauss-sum transform for untwisted sums
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
    P = np.conj(G[(n + 1) * np.arange(M) % M])
    for _ in range(n + 1):
        P *= G
    A_float = (float(M ** n) + np.fft.ifft(P).real) / Q       # (M^n + C)/Q
    A = np.rint(A_float).astype(np.int64)
    dev = float(np.abs(A_float - A).max())
    if dev > bound or int(A.sum()) != (M ** (n + 1) - (-1) ** (n + 1)) // Q:
        raise VerificationError(f"transform counts over F_{Q}: deviation "
                                f"{dev:.2g} over {bound:.2g} or a wrong total")
    return A, dev


def _transform_sum(F: FieldTable, k: int, n: int, b: int) -> SumValue:
    """Untwisted S_n(b) over F_{q^k}, equal to kloosterman_sum's.

    x = s y with s = sum x gives S = sum_s psi(1/s) A(b s^-(n+1)), so with
    1/s = g^u, hist[t] = sum over tr(g^u) = t of A[dlog b + (n+1)u] (int64).
    """
    _validate_b(F, b)
    check_transform(F.q ** k, n)                 # before building tables
    maps = field_maps(F, k)
    E, M = maps.ext, maps.ext.q - 1
    A, _ = _sum_one_counts(E, n)
    d_b = int(E.dlog[maps.embed_tab[b]])
    hist = np.zeros(E.p, dtype=np.int64)
    np.add.at(hist, E.tr_abs[E.exp], A[(d_b + (n + 1) * np.arange(M)) % M])
    return SumValue.from_hist(E.p, hist)


# ----------------------------------------------------------------------
# toric sums
# ----------------------------------------------------------------------

def _toric_chunks(M: int, nvars: int, chunk: int):
    """(length, exponent columns) of (Z/M)^nvars in chunks; one point if nvars = 0."""
    total = M ** nvars
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        exps = []
        for _ in range(nvars):
            exps.append(idx % M)
            idx = idx // M
        yield stop - start, exps


def _digit_sum(E: FieldTable, terms, exps, L: int) -> np.ndarray:
    """(L, a) digits mod p of sum c x^v over terms (dlog c, v) at the chunk."""
    M = E.q - 1
    acc = np.zeros((L, E.a), dtype=np.int32)
    for dc, v in terms:
        dl = np.full(L, dc, dtype=np.int64)
        for vi, ei in zip(v, exps):
            if vi:
                dl += vi * ei
        acc += E.digits[E.exp[dl % M]]
    acc %= E.p
    return acc


def toric_sum(F: FieldTable, k: int, f: LaurentPoly,
              chi: CharacterTuple | None = None, *,
              budget: Budget | None = None,
              chunk: int = 1 << 18) -> SumValue:
    """Twisted toric exponential sum of f over (F_{q^k}^*)^n, exactly.

    sum over the torus of prod_i chi_i(N(x_i)) * psi(Tr f(x)), as the
    histogram of the torus points by (Tr f(x), sum_i j_i dlog x_i).

    The first variable x_v whose exponents all lie in {0, 1} and whose
    lifted character is trivial is summed out: with f = x_v A(x') + C(x')
    and Q = q^k,

        sum_{x_v != 0} psi(Tr f) = psi(Tr C) (Q [A = 0] - 1),

    so only the other n - 1 coordinates are enumerated and priced.  The
    histogram stays the point count: x' with A = 0 puts Q - 1 points in
    bucket Tr C, x' with A != 0 puts Q/p - [s = 0] in bucket Tr C + s.
    Without such a variable the whole torus is enumerated.
    """
    if chi is None:
        chi = CharacterTuple.trivial(f.n_vars)
    if len(chi) != f.n_vars:
        raise ValueError(f"need {f.n_vars} characters, got {len(chi)}")
    Q, p = F.q ** k, F.p
    M = Q - 1
    lifted = chi.lifted(F.q, Q)
    v = next((i for i in range(f.n_vars) if lifted[i] == 0
              and all(e[i] in (0, 1) for e in f.exponents())), None)
    rest = [i for i in range(f.n_vars) if i != v]
    check_points(M ** len(rest), budget)
    maps = field_maps(F, k)
    E = maps.ext

    parts = ([], [])            # terms of C (x_v absent) and of A (x_v^1)
    for c, e in f.terms:
        if not 0 < c < F.q:
            raise ValueError(f"coefficient {c} is not a unit of the base field")
        parts[0 if v is None else e[v]].append(
            (int(E.dlog[maps.embed_tab[c]]), [e[i] for i in rest]))
    jrest = [lifted[i] for i in rest]
    m = M if any(jrest) else 1
    every = np.zeros(p * m, dtype=np.int64)     # x' by (Tr C, character)
    a_zero = np.zeros(p * m, dtype=np.int64)    # the x' with A(x') = 0
    for L, exps in _toric_chunks(M, len(rest), chunk):
        key = E.tr_abs[_pack(_digit_sum(E, parts[0], exps, L), p)].astype(np.int64)
        if m > 1:
            jv = np.zeros(L, dtype=np.int64)
            for j, ei in zip(jrest, exps):
                if j:
                    jv += j * ei
            key = key * M + jv % M
        every += np.bincount(key, minlength=p * m)
        if v is not None:
            zero = ~_digit_sum(E, parts[1], exps, L).any(axis=1)
            a_zero += np.bincount(key[zero], minlength=p * m)
    hist = every.reshape(p, m)
    if v is not None:
        z = a_zero.reshape(p, m)
        hist = Q * z - hist + (Q // p) * (hist - z).sum(axis=0)
    return SumValue.from_hist(p, hist, m=m)


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


def e_sum(F: FieldTable, n: int, b: int,
          chi: CharacterTuple | None = None, *,
          budget: Budget | None = None) -> SumValue:
    """The auxiliary (n+2)-variable toric sum E_n(chi, b).

    Twist (chi_1 conj(chi_{n+1}), ..., chi_n conj(chi_{n+1}), 1, 1); it
    satisfies q S_n = -(q-1)^n chi_1(b) + chi_1(b) E_n when all characters
    agree and q S_n = chi_{n+1}(b) E_n otherwise.
    """
    if chi is None:
        chi = CharacterTuple.trivial(n + 1)
    M = F.q - 1
    j_last = chi.indices[n]
    twist = CharacterTuple.reduced(
        [chi.indices[i] - j_last for i in range(n)] + [0, 0], F.q)
    return toric_sum(F, 1, ik_laurent(F, n, b), twist, budget=budget)


# ----------------------------------------------------------------------
# the Gauss-sum oracle
# ----------------------------------------------------------------------

def gauss_formula_parts(F: FieldTable, k: int, n: int, bs: Sequence[int],
                        chi: CharacterTuple | None = None, *,
                        budget: Budget | None = None
                        ) -> list[tuple[SumValue, SumValue]]:
    """S_n(chi, b) over F_{q^k} as (main term, Gauss-product sum), per b in bs.

    The main term is -(q^k-1)^n / q^k * chi_1(b) when all characters are
    equal and 0 otherwise; the remainder is 1/(q^k (q^k-1)) times

        sum_c g(-xi_c)^2 g(c + j_1) ... g(c + j_{n+1}) zeta_M^(xi_c d_-1 - c d_b)

    over the M = q^k - 1 characters c, where g(j) is the Gauss sum of
    chi_j, xi_c = (n+1) c + j_1 + ... + j_{n+1} and d_x = dlog x.  Only
    the last unit depends on b: the M Gauss sums and the M products of n+3
    of them (int64 cyclic convolutions on Z/p x Z/M = Z/pM, refused when
    their mass M^(n+4) reaches 2^63) are built once per call, and each b
    costs one shift and add.  Both parts are exact SumValues with
    denominators, so this is an oracle for kloosterman_sum that shares no
    enumeration code with it.
    """
    for b in bs:
        _validate_b(F, b)
    if chi is None:
        chi = CharacterTuple.trivial(n + 1)
    Q = F.q ** k
    M, p, N = Q - 1, F.p, F.p * (Q - 1)
    check_points(Q * Q, budget)
    if M ** (n + 4) >= 2 ** 63:
        raise BudgetExceeded(f"Gauss-sum products over F_{Q}, n = {n}: mass "
                             f"{M}^{n + 4} overflows int64", estimate=M ** (n + 4))
    maps = field_maps(F, k)
    E = maps.ext
    lifted = chi.lifted(F.q, Q)
    d_neg1 = int(E.dlog[E.neg(1)])
    # cell (t, u) of Z/p x Z/M as its CRT index in Z/pM
    crt = (np.arange(p)[:, None] * (M * pow(M, -1, p))
           + np.arange(M) * (p * pow(p, -1, M))) % N
    G = np.zeros((M, N), dtype=np.int64)
    G[:, crt.ravel()] = _gauss_hists(E, range(M)).reshape(M, N)

    def times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        full = np.convolve(x, y)
        full[:N - 1] += full[N:]
        return full[:N]

    xi = ((n + 1) * np.arange(M) + sum(lifted)) % M
    terms = []
    for c in range(M):
        term = times(G[-xi[c] % M], G[-xi[c] % M])
        for ji in lifted:
            term = times(term, G[(c + ji) % M])
        terms.append(term)
    terms = np.array(terms)[:, crt]              # back to (c, t, u)

    out = []
    cs, ts = np.arange(M)[:, None, None], np.arange(p)[None, :, None]
    for b in bs:
        db = int(E.dlog[maps.embed_tab[b]])
        shift = (xi * d_neg1 - np.arange(M) * db) % M
        u = (np.arange(M)[None, :] - shift[:, None]) % M
        s2 = SumValue.from_hist(p, terms[cs, ts, u[:, None, :]].sum(axis=0),
                                m=M, denom=Q * M)
        s1 = SumValue(p, M, denom=Q)
        if chi.all_equal():
            s1.counts[0][(lifted[0] * db) % M] = -(Q - 1) ** n
        out.append((s1, s2))
    return out


def gauss_formula_sum(F: FieldTable, k: int, n: int, b: int,
                      chi: CharacterTuple | None = None, *,
                      budget: Budget | None = None) -> SumValue:
    """S_n(chi, b) over F_{q^k} through the Gauss-sum closed form."""
    (s1, s2), = gauss_formula_parts(F, k, n, (b,), chi, budget=budget)
    return s1 + s2
