"""Exact arithmetic for character-sum values and their valuations.

Two representations:

* SumValue: an element of (1/d) Z[zeta_p, zeta_m] stored as a p x m
  integer histogram; entry (t, j) counts zeta_p^t zeta_m^j.  This is the
  natural output of an enumeration kernel (d = 1) and of the Gauss-sum
  closed form (d = q(q-1)).  Equality is decided canonically by reducing
  the group-ring representative modulo Phi_p on the additive axis and
  Phi_m on the multiplicative axis; since gcd(p, m) = 1 the reduced grid
  is a Z-basis representation of Z[zeta_p] (x) Z[zeta_m].

* CycloRational: an element of Q(zeta_p) as a rational vector on the
  basis 1, zeta, ..., zeta^(p-2).  Carries pi-adic and q-adic valuations
  computed on the pi-adic basis: Z[zeta_p] = Z[pi] with pi = zeta_p - 1
  Eisenstein, so ord_pi(sum_j c_j pi^j) = min_j ((p-1) v_p(c_j) + j) over
  j < p-1, in O(p^2) integer operations.  The field norm (the product of
  the Galois conjugates, ord_pi(x) = v_p(Norm(x))) is the independent
  check.  No floating point enters any valuation.
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
# SumValue
# ----------------------------------------------------------------------

class SumValue:
    """Histogram representation of an element of (1/denom) Z[zeta_p, zeta_m]."""

    __slots__ = ("p", "m", "counts", "denom")

    def __init__(self, p: int, m: int = 1, counts=None, denom: int = 1):
        if math.gcd(p, m) != 1:
            raise ValueError("additive and multiplicative conductors must be coprime")
        if denom <= 0:
            raise ValueError("denominator must be positive")
        self.p = p
        self.m = m
        self.counts = counts if counts is not None else [[0] * m for _ in range(p)]
        self.denom = denom

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, p: int, m: int = 1) -> "SumValue":
        return cls(p, m)

    @classmethod
    def integer(cls, p: int, n: int, m: int = 1) -> "SumValue":
        v = cls(p, m)
        v.counts[0][0] = n
        return v

    @classmethod
    def unit(cls, p: int, m: int, t: int = 0, j: int = 0, coeff: int = 1) -> "SumValue":
        v = cls(p, m)
        v.counts[t % p][j % m] = coeff
        return v

    @classmethod
    def from_hist(cls, p: int, hist, m: int = 1, denom: int = 1) -> "SumValue":
        arr = np.asarray(hist)
        if arr.ndim == 1:
            assert m == 1 and arr.shape == (p,)
            counts = [[int(c)] for c in arr]
        else:
            assert arr.shape == (p, m)
            counts = [[int(c) for c in row] for row in arr]
        return cls(p, m, counts, denom)

    # -- structure -------------------------------------------------------

    def mass(self) -> int:
        return sum(abs(c) for row in self.counts for c in row)

    def promote(self, new_m: int) -> "SumValue":
        """Reinterpret with conductor new_m (requires m | new_m)."""
        if new_m % self.m:
            raise ValueError(f"cannot promote conductor {self.m} to {new_m}")
        if new_m == self.m:
            return self
        step = new_m // self.m
        out = SumValue(self.p, new_m, denom=self.denom)
        for t in range(self.p):
            row, orow = self.counts[t], out.counts[t]
            for j, c in enumerate(row):
                if c:
                    orow[j * step] = c
        return out

    def _aligned(self, other: "SumValue"):
        if self.p != other.p:
            raise ValueError("additive conductor mismatch")
        m = self.m * other.m // math.gcd(self.m, other.m)
        a, b = self.promote(m), other.promote(m)
        d = a.denom * b.denom // math.gcd(a.denom, b.denom)
        return m, d, a, d // a.denom, b, d // b.denom

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "SumValue":
        if isinstance(other, int):
            other = SumValue.integer(self.p, other, 1)
        m, d, a, sa, b, sb = self._aligned(other)
        counts = [[a.counts[t][j] * sa + b.counts[t][j] * sb for j in range(m)]
                  for t in range(self.p)]
        return SumValue(self.p, m, counts, d)

    __radd__ = __add__

    def __neg__(self) -> "SumValue":
        return SumValue(self.p, self.m,
                        [[-c for c in row] for row in self.counts], self.denom)

    def __sub__(self, other) -> "SumValue":
        if isinstance(other, int):
            other = SumValue.integer(self.p, other, 1)
        return self + (-other)

    def __rsub__(self, other) -> "SumValue":
        return (-self) + other

    def scale(self, c: int) -> "SumValue":
        return SumValue(self.p, self.m,
                        [[c * x for x in row] for row in self.counts], self.denom)

    def shift(self, dt: int = 0, dj: int = 0) -> "SumValue":
        """Multiply by the unit zeta_p^dt zeta_m^dj (index rotation)."""
        p, m = self.p, self.m
        out = SumValue(p, m, denom=self.denom)
        for t in range(p):
            row = self.counts[t]
            orow = out.counts[(t + dt) % p]
            for j, c in enumerate(row):
                if c:
                    orow[(j + dj) % m] += c
        return out

    def conjugate(self) -> "SumValue":
        """Complex conjugation: negate both root-of-unity axes."""
        out = SumValue(self.p, self.m, denom=self.denom)
        for t in range(self.p):
            row = self.counts[t]
            orow = out.counts[(-t) % self.p]
            for j, c in enumerate(row):
                if c:
                    orow[(-j) % self.m] = c
        return out

    # -- canonical form and equality --------------------------------------

    def _reduced(self) -> list[list[int]]:
        p, m = self.p, self.m
        phi = cyclotomic_poly(m)
        d = len(phi) - 1
        rows = [row[:] for row in self.counts]
        for r in rows:
            for j in range(m - 1, d - 1, -1):
                c = r[j]
                if c:
                    r[j] = 0
                    for i in range(d):
                        r[j - d + i] -= c * phi[i]
        return [[rows[t][j] - rows[p - 1][j] for j in range(d)]
                for t in range(p - 1)]

    def is_zero(self) -> bool:
        return not any(c for row in self._reduced() for c in row)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = SumValue.integer(self.p, other, 1)
        if not isinstance(other, SumValue):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- numerics ----------------------------------------------------------

    def embed(self) -> complex:
        """Evaluate at zeta_p = e^(2 pi i/p), zeta_m = e^(2 pi i/m).

        Double precision; absolute error is at most mass() * 1e-14.
        """
        zp = [cmath.exp(2j * cmath.pi * t / self.p) for t in range(self.p)]
        zm = [cmath.exp(2j * cmath.pi * j / self.m) for j in range(self.m)]
        acc = 0j
        for t in range(self.p):
            row = self.counts[t]
            for j, c in enumerate(row):
                if c:
                    acc += c * zp[t] * zm[j]
        return acc / self.denom

    def __repr__(self):
        nz = [(t, j, c) for t in range(self.p)
              for j, c in enumerate(self.counts[t]) if c]
        body = " + ".join(f"{c}*z{self.p}^{t}*w{self.m}^{j}" for t, j, c in nz[:6])
        if len(nz) > 6:
            body += " + ..."
        if not nz:
            body = "0"
        d = f"/{self.denom}" if self.denom != 1 else ""
        return f"SumValue({body}){d}"


# ----------------------------------------------------------------------
# CycloRational
# ----------------------------------------------------------------------

class CycloRational:
    """Element of Q(zeta_p) on the basis 1, zeta, ..., zeta^(p-2)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients, got {len(cs)}")
        self.coeffs = cs

    @classmethod
    def from_int(cls, p: int, n) -> "CycloRational":
        return cls(p, (Fraction(n),) + (Fraction(0),) * (p - 2))

    @classmethod
    def zero(cls, p: int) -> "CycloRational":
        return cls.from_int(p, 0)

    @classmethod
    def one(cls, p: int) -> "CycloRational":
        return cls.from_int(p, 1)

    @classmethod
    def zeta(cls, p: int, t: int = 1) -> "CycloRational":
        v = [Fraction(0)] * p
        v[t % p] += 1
        return cls._from_length_p(p, v)

    @classmethod
    def _from_length_p(cls, p: int, v) -> "CycloRational":
        return cls(p, [v[t] - v[p - 1] for t in range(p - 1)])

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloRational):
            if other.p != self.p:
                raise ValueError("conductor mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloRational.from_int(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloRational(self.p, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloRational(self.p, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloRational(self.p, [a * other for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        v = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        v[(i + j) % p] += a * b
        return CycloRational._from_length_p(p, v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloRational(self.p, [a / Fraction(other) for a in self.coeffs])
        return NotImplemented

    def __pow__(self, e: int):
        out = CycloRational.one(self.p)
        base = self
        assert e >= 0
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    __hash__ = None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    # -- Galois action, norm, valuations ------------------------------------

    def galois(self, j: int) -> "CycloRational":
        """Apply zeta -> zeta^j (requires gcd(j, p) = 1)."""
        p = self.p
        if math.gcd(j, p) != 1:
            raise ValueError("Galois index must be prime to p")
        v = [Fraction(0)] * p
        for t, c in enumerate(self.coeffs):
            if c:
                v[(t * j) % p] += c
        return CycloRational._from_length_p(p, v)

    def norm(self) -> Fraction:
        """Field norm to Q: the resultant Res(Phi_p, X) of any integer
        polynomial representative X, computed as the product of the p-1
        Galois conjugates."""
        out = CycloRational.one(self.p)
        for j in range(1, self.p):
            out = out * self.galois(j)
        if not out.is_rational():
            raise AssertionError("norm escaped Q (bug)")
        return out.rational_value()

    def ord_pi(self):
        """Valuation at the unique prime above p, normalized ord_pi(pi) = 1
        for pi = zeta_p - 1.  Returns math.inf for 0.  A Taylor shift
        (zeta^i = (1 + pi)^i) writes d*x, d the lcm of the denominators, as
        sum_j d_j pi^j, j < p-1, whose terms have valuations
        (p-1) v_p(d_j) + j, distinct mod p-1: the least one is ord_pi(d*x).
        """
        if self.is_zero():
            return math.inf
        p = self.p
        d = math.lcm(*(c.denominator for c in self.coeffs))
        ds = [int(c * d) for c in self.coeffs]
        for k in range(p - 2):
            for j in range(p - 3, k - 1, -1):
                ds[j] += ds[j + 1]
        best = min((p - 1) * _vp(dj, p) + j for j, dj in enumerate(ds) if dj)
        return best - (p - 1) * _vp(d, p)

    def ord_q(self, q: int):
        """q-adic valuation, q = p^a: ord_pi / ((p-1) a).  inf for 0."""
        p = self.p
        a = 0
        qq = q
        while qq % p == 0:
            qq //= p
            a += 1
        if qq != 1 or a == 0:
            raise ValueError(f"{q} is not a power of the conductor {p}")
        o = self.ord_pi()
        if o is math.inf:
            return math.inf
        return Fraction(o, (p - 1) * a)

    def embed(self) -> complex:
        return sum(complex(c) * cmath.exp(2j * cmath.pi * t / self.p)
                   for t, c in enumerate(self.coeffs))

    def __repr__(self):
        terms = [f"{c}" if t == 0 else f"{c}*z^{t}"
                 for t, c in enumerate(self.coeffs) if c]
        return f"CycloRational(p={self.p}, {' + '.join(terms) or '0'})"


# ----------------------------------------------------------------------
# conversions
# ----------------------------------------------------------------------

def reduce_mod_phi(v: SumValue) -> CycloRational:
    """Canonical image of a conductor-1 SumValue in Q(zeta_p).

    Uses zeta^(p-1) = -1 - zeta - ... - zeta^(p-2); integer inputs with
    denominator 1 give integer outputs.
    """
    if v.m != 1:
        raise ValueError(f"value has multiplicative conductor {v.m}, expected 1")
    p = v.p
    top = v.counts[p - 1][0]
    return CycloRational(
        p, [Fraction(v.counts[t][0] - top, v.denom) for t in range(p - 1)])


def embed_complex(v) -> complex:
    """Complex embedding of a SumValue or CycloRational.

    Error bound: mass * 1e-14 for SumValue histograms.
    """
    if isinstance(v, (SumValue, CycloRational)):
        return v.embed()
    return complex(v)
