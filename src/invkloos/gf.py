"""Finite fields F_{p^a} and their extensions as flat lookup tables.

An element of F_{p^a} is encoded as the integer in [0, q) whose base-p
digits are the coefficients of its residue polynomial, constant term
first; 0 encodes the zero element.  Construction is deterministic: the
modulus is the lexicographically smallest monic irreducible of degree a
over Z/p (coefficients compared from the constant term upward) and the
generator g is the generating element with the smallest integer
encoding.  Bootstrapping computes in F_p[t]/(f) with a x a int64 matrices
over Z/p: Rabin's irreducibility test and the generator's order test take
powers of companion and multiplication matrices, and the absolute traces
of the power basis are the power sums of f's roots, from Newton's
identities.  The exp/dlog blocks multiply in float64 through BLAS, exactly:
entries lie in [0, p-1] and TABLE_CAP keeps dot products a(p-1)^2 < 2^52
(p < 2^26 at a = 1, p <= 2^13 at a >= 2), so every partial sum and FMA,
in any order, is an integer below 2^53; _mod_p's floor(x/p) is exact for
x < 2^52 (rounding reaches k+1 only at x >= 2^53 - p); encodings stay < q.

Multiplication and powers go through exp/dlog tables, so per-element
cost inside enumeration kernels is a handful of table lookups; addition
goes through the digit matrix, built on first read (never on the tower
route), so it vectorizes with numpy.  Tables are immutable once built
and cached per field, so every caller in a process shares one copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import BudgetExceeded

#: cap on table size (number of field elements)
TABLE_CAP = 1 << 26


# ----------------------------------------------------------------------
# arithmetic in F_p[t]/(f) through a x a matrices over Z/p (row vectors:
# v @ mat multiplies the element v by the one mat stands for), used only
# while bootstrapping the tables; int64 is exact while a (p-1)^2 < 2^63
# ----------------------------------------------------------------------

def _companion(mod: tuple[int, ...], p: int) -> np.ndarray:
    """Multiplication by t modulo the monic mod: row i holds t^(i+1)."""
    c = np.eye(len(mod) - 1, k=1, dtype=np.int64)
    c[-1] = np.negative(mod[:-1]) % p
    return c


def _mulmat(x: np.ndarray, c: np.ndarray, p: int) -> np.ndarray:
    """Multiplication by the element with coefficients x: row i is t^i x."""
    rows = [x]
    for _ in range(len(c) - 1):
        rows.append(rows[-1] @ c % p)
    return np.array(rows, dtype=np.int64)


def _mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for float64 integers 0 <= x < 2^52 (exact: module docstring)."""
    return x - p * np.floor(x / p)


def _matpow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % p
        m = m @ m % p
        e >>= 1
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % d == 0:
            return n == d
    d = 37
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    # Rabin: t^(p^a) == t mod f, and gcd(t^(p^(a/l)) - t, f) = 1 for prime
    # l | a.  Once the first holds, f is squarefree with factors of degrees
    # dividing a, so h is prime to f exactly when h^(p^a - 1) == 1 mod f.
    a = len(mod) - 1
    c = _companion(mod, p)
    if not (_matpow(c, p ** a, p) == c).all():
        return False
    one = np.eye(a, dtype=np.int64)
    return all((_matpow((_matpow(c, p ** (a // ell), p) - c) % p, p ** a - 1, p)
                == one).all() for ell in prime_factors(a))


def smallest_irreducible(p: int, a: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree a over Z/p.

    Candidates x^a + c_{a-1} x^{a-1} + ... + c_0 are ordered by the tuple
    (c_0, c_1, ..., c_{a-1}); for a > 1 those with c_0 = 0 are divisible
    by x, so the scan starts at c_0 = 1.
    """
    if a == 1:
        return (0, 1)  # x itself: F_p[x]/(x) = F_p
    for coeffs in product(range(1, p), *[range(p)] * (a - 1)):
        if _is_irreducible(coeffs + (1,), p):
            return coeffs + (1,)
    raise AssertionError("no irreducible found (unreachable)")


# ----------------------------------------------------------------------
# field tables
# ----------------------------------------------------------------------

class FieldTable:
    """F_{p^a} with exp/dlog, absolute-trace and digit tables.

    Public arrays (all numpy, immutable by convention):
      exp      (q-1,) exp[e] = g^e
      dlog     (q,)   dlog[exp[e]] = e, dlog[0] = -1
      tr_abs   (q,)   absolute trace to Z/p
      digits   (q, a) base-p digit matrix, built on first read
    exp and dlog are int64; digits and tr_abs use digit_dtype(p), the
    narrowest of int16 and wider that holds p.
    """

    def __init__(self, p: int, a: int, modulus: tuple[int, ...]):
        self.p, self.a, self.modulus = p, a, modulus
        q = self.q = p ** a
        m_order = q - 1
        self._pows = np.array([p ** i for i in range(a)], dtype=np.int64)
        c = _companion(modulus, p)

        # generator: smallest encoding whose order is exactly q-1; for a > 1
        # the encodings below p lie in F_p^*, so none of them generates
        rad = prime_factors(m_order) if m_order > 1 else []
        one = np.eye(a, dtype=np.int64)
        for g in range(p if a > 1 else 1, q):
            mat = _mulmat(g // self._pows % p, c, p)
            if not any((_matpow(mat, m_order // r, p) == one).all() for r in rad):
                break
        self.g = g

        # exp/dlog in blocks of B <= 1024 rows (bigger ones only grow peak
        # memory): mat, which multiplies by g, then by g^2, g^4, ... doubles
        # g^0..g^(B-1); then it multiplies by g^B per block, in float64
        assert a * (p - 1) ** 2 < 1 << 52, "float64 blocks would not be exact"
        B = 1 << min(10, (m_order - 1).bit_length())
        mat, pows = mat.astype(np.float64), self._pows.astype(np.float64)
        blk = np.eye(1, a)
        while len(blk) < B:
            blk = np.vstack([blk, _mod_p(blk @ mat, p)])
            mat = _mod_p(mat @ mat, p)
        exp = self.exp = np.zeros(m_order, dtype=np.int64)
        dlog = self.dlog = np.full(q, -1, dtype=np.int64)
        for s in range(0, m_order, B):
            exp[s:s + B] = (blk @ pows)[:m_order - s]
            dlog[exp[s:s + B]] = np.arange(s, min(s + B, m_order))
            blk = _mod_p(blk @ mat, p)
        assert (dlog[1:] >= 0).all(), "generator order mismatch"

        # absolute trace on the power basis: tr(t^j) = sum_i t^(j p^i) is
        # the power sum P_j of the modulus' roots t^(p^i), by Newton's
        # identities P_k = -(k c_{a-k} + sum_{i<k} c_{a-i} P_{k-i}), P_0 = a
        tr_basis = [a % p]
        for k in range(1, a):
            tr_basis.append(-(k * modulus[a - k] + sum(
                modulus[a - i] * tr_basis[k - i] for i in range(1, k))) % p)
        # linear in the digits: an outer sum per digit, the last one outermost
        tr = np.zeros(1, dtype=digit_dtype(2 * p))
        for j in range(a):
            col = (np.arange(p) * tr_basis[j] % p).astype(tr.dtype)
            tr = ((col[:, None] + tr[None, :]) % p).ravel()
        self.tr_abs = tr.astype(digit_dtype(p), copy=False)

    @cached_property
    def digits(self) -> np.ndarray:
        """The digit matrix, on first read: digit i runs through 0..p-1 in blocks of p^i."""
        p, a = self.p, self.a
        digits = np.empty((self.q, a), dtype=digit_dtype(p))
        for i in range(a):
            digits.reshape(p ** (a - 1 - i), p, p ** i, a)[..., i] = np.arange(p)[:, None]
        return digits

    def modulus_str(self) -> str:
        def mono(i, c):
            if i == 0:
                return f"{c}"
            x = "x" if i == 1 else f"x^{i}"
            return x if c == 1 else f"{c}*{x}"
        parts = [mono(self.a, 1)]
        for i in range(self.a - 1, -1, -1):
            if self.modulus[i]:
                parts.append(mono(i, self.modulus[i]))
        return "+".join(parts)

    # -- arithmetic (scalars or numpy arrays) ----------------------------

    def add(self, x, y):
        d = (self.digits[x].astype(np.int64) + self.digits[y]) % self.p
        if isinstance(x, (int, np.integer)) and isinstance(y, (int, np.integer)):
            return int(d @ self._pows)
        return d @ self._pows

    def neg(self, x):
        d = (-self.digits[x].astype(np.int64)) % self.p
        if isinstance(x, (int, np.integer)):
            return int(d @ self._pows)
        return d @ self._pows

    def mul(self, x, y):
        m = self.q - 1
        if isinstance(x, (int, np.integer)) and isinstance(y, (int, np.integer)):
            if x == 0 or y == 0:
                return 0
            return int(self.exp[(self.dlog[x] + self.dlog[y]) % m])
        x = np.asarray(x)
        y = np.asarray(y)
        nz = (x != 0) & (y != 0)
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        e = (self.dlog[x] + self.dlog[y]) % m
        np.copyto(out, self.exp[e], where=nz)
        return out

    def tr_quotient(self, w: int) -> np.ndarray:
        """T[s] = tr_abs(w/s) for s != 0; the sentinel p (tr_abs's dtype
        holds it) at s = 0."""
        M = self.q - 1
        out = np.full(self.q, self.p, dtype=self.tr_abs.dtype)
        e = np.arange(M, dtype=np.int64)
        out[self.exp] = self.tr_abs[self.exp[(int(self.dlog[w]) - e) % M]]
        return out

    def power(self, x: int, e: int) -> int:
        m = self.q - 1
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        return int(self.exp[(int(self.dlog[x]) * e) % m])

    def __repr__(self):
        return f"FieldTable(p={self.p}, a={self.a}, modulus={self.modulus_str()}, g={self.g})"


_FIELDS: dict[tuple[int, int], FieldTable] = {}


def digit_dtype(bound: int) -> np.dtype:
    """The narrowest signed dtype, int16 or wider, that holds 0..bound."""
    return np.result_type(np.int16, np.min_scalar_type(-bound))


def _table_bytes(p: int, a: int) -> int:
    """Bytes of the arrays that FieldTable stores for F_{p^a}."""
    q = p ** a
    return 8 * (2 * q - 1 + a) + digit_dtype(p).itemsize * q * (a + 1)


def check_table_cap(p: int, a: int) -> None:
    """Refuse F_{p^a} over TABLE_CAP, reporting the memory it needs."""
    q = p ** a
    if q > TABLE_CAP:
        raise BudgetExceeded(
            f"field F_{p}^{a} has {q} elements, over the table cap {TABLE_CAP} "
            f"(tables would need ~{_table_bytes(p, a) // (1 << 20)} MiB); "
            f"lower the extension degree k, the base degree a or p", estimate=q)


def build_field(p: int, a: int) -> FieldTable:
    """Construct (and cache) F_{p^a}.

    Deterministic: lex-smallest irreducible modulus, smallest generator.
    Refuses when p^a exceeds the table cap, reporting the memory that the
    tables would need.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a < 1:
        raise ValueError(f"extension degree must be >= 1, got {a}")
    key = (p, a)
    if key in _FIELDS:
        return _FIELDS[key]
    check_table_cap(p, a)
    field = _FIELDS[key] = FieldTable(p, a, smallest_irreducible(p, a))
    return field


# ----------------------------------------------------------------------
# extensions F_{q^k} / F_q
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionMaps:
    """F_{q^k} over F_q: embed_tab is the unique-up-to-conjugacy ring
    embedding of the base field, pinned to the smallest root of the base
    generator's minimal polynomial.  Relative traces and norms are not
    tabulated: sums reach F_q through tr_abs, and characters lift through
    the norm by index arithmetic: j becomes j (q^k - 1)/(q - 1).
    """
    base: FieldTable
    ext: FieldTable
    k: int
    embed_tab: np.ndarray

    @cached_property
    def tr_inv(self) -> np.ndarray:
        """ext.tr_quotient(1), the trace of 1/s that the inverted sums read;
        built on first use and kept with the cached maps."""
        return self.ext.tr_quotient(1)


_MAPS: dict[tuple[int, int, int], ExtensionMaps] = {}


def field_maps(base: FieldTable, k: int) -> ExtensionMaps:
    """Build F_{q^k} over the given base together with the embedding table."""
    if k < 1:
        raise ValueError("k must be >= 1")
    key = (base.p, base.a, k)
    if key in _MAPS:
        return _MAPS[key]
    p, q = base.p, base.q
    if k == 1:
        maps = _MAPS[key] = ExtensionMaps(base, base, 1, np.arange(q, dtype=np.int64))
        return maps
    ext = build_field(p, base.a * k)
    M = ext.q - 1
    s = M // (q - 1)

    # embed: send the base generator to the smallest root of its minimal
    # polynomial over Z/p inside the unique subfield of order q
    if base.a == 1:
        embed_tab = np.arange(q, dtype=np.int64)  # prime subfield is canonical
    else:
        minpoly = [1]  # over the base field, coefficients are packed scalars
        for i in range(base.a):
            conj = base.power(base.g, pow(p, i, q - 1))
            # multiply by (x - conj)
            new = [0] * (len(minpoly) + 1)
            for d, c in enumerate(minpoly):
                new[d + 1] = base.add(new[d + 1], c)
                new[d] = base.add(new[d], base.mul(c, base.neg(conj)))
            minpoly = new
        coeffs = []
        for c in minpoly:
            assert c < p, "minimal polynomial has a non-prime-field coefficient"
            coeffs.append(int(c))
        root = None
        for t in range(q - 1):
            cand = int(ext.exp[(t * s) % M])
            acc = 0
            for c in reversed(coeffs):
                acc = ext.add(ext.mul(acc, cand), c)
            if acc == 0 and (root is None or cand < root):
                root = cand
        assert root is not None, "base generator has no root in the extension"
        dh = int(ext.dlog[root])
        embed_tab = np.zeros(q, dtype=np.int64)
        e = np.arange(q - 1, dtype=np.int64)
        embed_tab[base.exp[e]] = ext.exp[(e * dh) % M]

    # F_q^* must go to q-1 distinct elements fixed by x -> x^q, which are
    # the g^(s j), 0 <= j < q-1 (no np.unique or np.sort: either one grows
    # the resident set by ~1 MiB for this O(q) check)
    d = ext.dlog[embed_tab[1:]]
    assert (d % s == 0).all() and (np.bincount(d // s) == 1).all(), \
        "embedding is not onto the subfield F_q"

    maps = _MAPS[key] = ExtensionMaps(base, ext, k, embed_tab)
    return maps
