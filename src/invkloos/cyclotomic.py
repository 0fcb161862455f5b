"""Exact arithmetic for character-sum values and their valuations.

Two representations:

* Count arrays: an element of Z[zeta_p, zeta_m] is a (p, m) int64 array
  whose cell (t, j) counts zeta_p^t zeta_m^j, and a kernel returns a
  (..., p, m) stack of them, one value per row.  reduce_counts and
  embed_counts take whole stacks and are the only way values are compared
  or evaluated.  reduce_counts reduces mod Phi_p (minus the last row) and
  mod Phi_m (times R_m, whose row j is y^j mod Phi_m(y)); since
  gcd(p, m) = 1 the reduced grid is a Z-basis representation of
  Z[zeta_p] (x) Z[zeta_m], so two values are equal exactly when their
  images are.  Where int64 could wrap it raises OverflowError, its bound
  checked in Python ints.

* CycloRational: an element of Q(zeta_p) as p-1 integer numerators on
  1, zeta, ..., zeta^(p-2) over one denominator, in lowest terms; a
  product is one big-int product (Kronecker substitution).  ord_pi uses
  Z[zeta_p] = Z[pi], pi = zeta_p - 1 Eisenstein: ord_pi(sum_j c_j pi^j) =
  min_j ((p-1) v_p(c_j) + j) over j < p-1, in O(p^2) integer operations.
  The field norm (ord_pi(x) = v_p(Norm(x))) is the independent check.
  No floating point enters any valuation.  reduce_mod_phi takes a length-p
  count row (m = 1) to its CycloRational.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending, via exact division of y^m - 1."""
    if m == 1:
        return (-1, 1)
    num = [0] * m + [1]
    num[0] = -1
    for d in range(1, m):
        if m % d == 0:
            phi = cyclotomic_poly(d)
            # exact polynomial division num // phi
            out = [0] * (len(num) - len(phi) + 1)
            rem = list(num)
            for i in range(len(out) - 1, -1, -1):
                c = rem[i + len(phi) - 1]
                out[i] = c
                if c:
                    for j, pj in enumerate(phi):
                        rem[i + j] -= c * pj
            assert not any(rem[:len(phi) - 1]), "cyclotomic division not exact"
            num = out
    return tuple(num)


def _vp(n: int, p: int) -> int:
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ----------------------------------------------------------------------
# count arrays
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _phi_powers(m: int) -> tuple[np.ndarray, int]:
    """R_m, whose row j holds y^j mod Phi_m(y) on 1, y, ..., y^(phi(m)-1),
    and max_k sum_j |R_m[j, k]|, the most a product C @ R_m can grow."""
    phi = cyclotomic_poly(m)
    rows, r = [], [1] + [0] * (len(phi) - 2)
    for _ in range(m):
        rows.append(r)
        r = [x - r[-1] * c for x, c in zip([0] + r[:-1], phi)]   # y r mod Phi_m
    R = np.array(rows, dtype=np.int64)
    R.setflags(write=False)
    return R, int(np.abs(R).sum(axis=0).max())


@lru_cache(maxsize=None)
def _roots(m: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * j / m) for j in range(m))


def reduce_counts(C: np.ndarray) -> np.ndarray:
    """Canonical images of (..., p, m) counts in Z[zeta_p] (x) Z[zeta_m]:
    mod Phi_p (each row minus the last), then mod Phi_m (@ R_m).  A value
    is zero exactly when its image is; OverflowError where int64 could wrap,
    ValueError unless gcd(p, m) = 1."""
    p, m = C.shape[-2:]
    if math.gcd(p, m) != 1:
        raise ValueError(f"conductors p = {p} and m = {m} are not coprime")
    R, grow = _phi_powers(m)
    bound = 2 * max(int(C.max(initial=0)), -int(C.min(initial=0))) * grow
    if bound >= 2 ** 63:
        raise OverflowError(f"reduction: entries up to {bound} overflow int64")
    return (C[..., :-1, :] - C[..., -1:, :]) @ R


def embed_counts(C: np.ndarray) -> np.ndarray:
    """(..., p, m) counts at zeta_p = e^(2 pi i/p), zeta_m = e^(2 pi i/m), as
    complex128 of shape (...): inner products of length m, then p, as
    ufunc sums (a BLAS matmul would page in its buffers).  Absolute error at
    most (2 (p + m) + 40) 2^-53 mass, the mass being a row's sum |C|: a
    tabled root is within 17 ulps (its argument 2 pi j/m is rounded twice)
    and the inner products add sqrt2 (p + m) (Higham, *Accuracy and Stability*, §3.1, Lemma 3.5).  So
    below mass * 1e-14 while p + m <= 25 (q <= 13) and entries are < 2^53."""
    p, m = C.shape[-2:]
    return ((C * np.array(_roots(m))).sum(axis=-1) * np.array(_roots(p))).sum(axis=-1)


# ----------------------------------------------------------------------
# CycloRational
# ----------------------------------------------------------------------

def _pack(v, sb: int) -> int:
    """sum_i v_i 2^(8 sb i) for signed ints v_i, |v_i| < 2^(8 sb)."""
    pos = b"".join((c if c > 0 else 0).to_bytes(sb, "little") for c in v)
    neg = b"".join((-c if c < 0 else 0).to_bytes(sb, "little") for c in v)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(x: int, sb: int, n: int) -> list[int]:
    """The n digits d_i in [-2^(8 sb - 1), 2^(8 sb - 1)) of x = sum_i d_i 2^(8 sb i):
    plus 2^(8 sb - 1) each digit is a plain sb-byte field, with no carries."""
    half = 1 << (8 * sb - 1)
    buf = (x + int.from_bytes((bytes(sb - 1) + b"\x80") * n, "little")
           ).to_bytes(n * sb, "little")
    return [int.from_bytes(buf[i:i + sb], "little") - half
            for i in range(0, n * sb, sb)]


class CycloRational:
    """Element of Q(zeta_p): numerators num on 1, zeta, ..., zeta^(p-2) over
    den > 0, in lowest terms, so equal elements have equal (num, den)."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, coeffs):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients, got {len(cs)}")
        den = math.lcm(*(c.denominator for c in cs))
        x = self._raw(p, [c.numerator * (den // c.denominator) for c in cs], den)
        self.p, self.num, self.den = p, x.num, x.den

    @classmethod
    def _raw(cls, p: int, num, den: int) -> "CycloRational":
        """From p-1 integer numerators over a nonzero integer denominator."""
        g = math.gcd(den, *num) * (1 if den > 0 else -1)
        x = cls.__new__(cls)
        x.p, x.num, x.den = p, tuple(a // g for a in num), den // g
        return x

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    @classmethod
    def from_int(cls, p: int, n) -> "CycloRational":
        n = Fraction(n)
        return cls._raw(p, (n.numerator,) + (0,) * (p - 2), n.denominator)

    @classmethod
    def zero(cls, p: int) -> "CycloRational":
        return cls.from_int(p, 0)

    @classmethod
    def one(cls, p: int) -> "CycloRational":
        return cls.from_int(p, 1)

    @classmethod
    def zeta(cls, p: int, t: int = 1) -> "CycloRational":
        return cls._from_length_p(p, [int(i == t % p) for i in range(p)])

    @classmethod
    def _from_length_p(cls, p: int, v, den: int = 1) -> "CycloRational":
        """From coefficients of 1, ..., zeta^(p-1), folded by Phi_p(zeta) = 0."""
        return cls._raw(p, [c - v[p - 1] for c in v[:p - 1]], den)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloRational):
            if other.p != self.p:
                raise ValueError("conductor mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloRational.from_int(self.p, other)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = math.lcm(self.den, o.den)
        sa, sb = d // self.den, d // o.den
        return CycloRational._raw(self.p, [a * sa + b * sb for a, b
                                           in zip(self.num, o.num)], d)

    __radd__ = __add__

    def __neg__(self):
        return CycloRational._raw(self.p, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CycloRational._raw(self.p, [a * c.numerator for a in self.num],
                                      self.den * c.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, a, b = self.p, self.num, o.num
        bound = max(map(abs, a)) * max(map(abs, b)) * (p - 1)
        if not bound:
            return CycloRational.zero(p)
        # Kronecker substitution: no coefficient of the acyclic product
        # exceeds bound, so signed digits of bit_length(bound) + 2 bits hold it
        sb = (bound.bit_length() + 9) // 8
        c = _unpack(_pack(a, sb) * _pack(b, sb), sb, 2 * p)
        # fold zeta^(p+t) = zeta^t; digits 2p-3 and on are zero
        v = [x + y for x, y in zip(c[:p], c[p:])]
        return CycloRational._from_length_p(p, v, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return (self * (1 / Fraction(other)) if isinstance(other, (int, Fraction))
                else NotImplemented)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_integral(self) -> bool:
        return self.den == 1

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    # -- Galois action, norm, valuations ------------------------------------

    def galois(self, j: int) -> "CycloRational":
        """Apply zeta -> zeta^j (requires gcd(j, p) = 1)."""
        p = self.p
        if math.gcd(j, p) != 1:
            raise ValueError("Galois index must be prime to p")
        v = [0] * p
        for t, c in enumerate(self.num):
            v[(t * j) % p] = c
        return CycloRational._from_length_p(p, v, self.den)

    def norm(self) -> Fraction:
        """Field norm to Q: the resultant Res(Phi_p, X) of any integer
        polynomial representative X, computed as the product of the p-1
        Galois conjugates, multiplied in a balanced tree."""
        xs = [self.galois(j) for j in range(1, self.p)]
        while len(xs) > 1:
            xs = [a * b for a, b in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1:]
        return xs[0].rational_value()        # raises if the norm escaped Q

    def ord_pi(self):
        """Valuation at the unique prime above p, normalized ord_pi(pi) = 1
        for pi = zeta_p - 1.  Returns math.inf for 0.  A Taylor shift
        (zeta^i = (1 + pi)^i) writes the numerator vector as
        sum_j d_j pi^j, j < p-1, whose terms have valuations
        (p-1) v_p(d_j) + j, distinct mod p-1: the least one is its ord_pi.
        """
        if self.is_zero():
            return math.inf
        p = self.p
        ds = list(self.num)
        for k in range(p - 2):
            for j in range(p - 3, k - 1, -1):
                ds[j] += ds[j + 1]
        best = min((p - 1) * _vp(dj, p) + j for j, dj in enumerate(ds) if dj)
        return best - (p - 1) * _vp(self.den, p)

    def ord_q(self, q: int):
        """q-adic valuation, q = p^a: ord_pi / ((p-1) a).  inf for 0."""
        p = self.p
        a = _vp(q, p) if q else 0
        if a == 0 or p ** a != q:
            raise ValueError(f"{q} is not a power of the conductor {p}")
        o = self.ord_pi()
        return math.inf if o is math.inf else Fraction(o, (p - 1) * a)

    def embed(self) -> complex:
        zs, d = _roots(self.p), self.den
        return sum((a / d) * zs[t] for t, a in enumerate(self.num))

    def __repr__(self):
        terms = [f"{c}" if t == 0 else f"{c}*z^{t}"
                 for t, c in enumerate(self.coeffs) if c]
        return f"CycloRational(p={self.p}, {' + '.join(terms) or '0'})"


# ----------------------------------------------------------------------
# conversions
# ----------------------------------------------------------------------

def reduce_mod_phi(row: np.ndarray) -> CycloRational:
    """Canonical image of a length-p count row (conductor m = 1) in Z[zeta_p]
    (a CycloRational with denominator 1), by zeta^(p-1) = -1 - ... - zeta^(p-2).
    """
    if row.ndim != 1:
        raise ValueError(f"need a length-p count row (conductor m = 1), got shape {row.shape}")
    return CycloRational._from_length_p(len(row), row.tolist())


def embed_complex(v) -> complex:
    """Complex embedding of a CycloRational or of one (p, m) count row,
    the latter within embed_counts' bound: mass * 1e-14 while p + m <= 25."""
    if isinstance(v, CycloRational):
        return v.embed()
    return complex(embed_counts(v))
