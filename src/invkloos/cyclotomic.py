"""Exact arithmetic for character-sum values and their valuations.

Two representations:

* SumValue: an element of (1/d) Z[zeta_p, zeta_m] stored as one (p, m)
  int64 array that the value owns; entry (t, j) counts zeta_p^t zeta_m^j.
  This is the natural output of an enumeration kernel (d = 1) and of the
  Gauss-sum closed form (d = q(q-1)).  A step that could leave int64
  checks its bound in Python ints and raises OverflowError.  Equality
  reduces mod Phi_p (minus the last row) and mod Phi_m (times R_m, whose
  row j is y^j mod Phi_m(y)); since gcd(p, m) = 1 the reduced grid
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

def _amax(C: np.ndarray) -> int:
    """max |C| as a Python int (exact at -2^63)."""
    return max(int(C.max()), -int(C.min()))


def _fits(bound: int, what: str) -> None:
    if bound >= 2 ** 63:
        raise OverflowError(f"{what}: entries up to {bound} overflow int64")


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
        self.counts = (np.zeros((p, m), dtype=np.int64) if counts is None
                       else np.array(counts, dtype=np.int64))
        if self.counts.shape != (p, m):
            raise ValueError(f"counts of shape {self.counts.shape}, expected {(p, m)}")
        self.denom = denom

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, p: int, m: int = 1) -> "SumValue":
        return cls(p, m)

    @classmethod
    def integer(cls, p: int, n: int, m: int = 1) -> "SumValue":
        return cls.unit(p, m, coeff=n)

    @classmethod
    def unit(cls, p: int, m: int, t: int = 0, j: int = 0, coeff: int = 1) -> "SumValue":
        _fits(abs(coeff), "coefficient")
        v = cls(p, m)
        v.counts[t % p, j % m] = coeff
        return v

    @classmethod
    def from_hist(cls, p: int, hist, m: int = 1, denom: int = 1) -> "SumValue":
        """From a (p, m) histogram, or a length-p one when m = 1 (copied)."""
        arr = np.asarray(hist)
        return cls(p, m, arr[:, None] if arr.ndim == 1 else arr, denom)

    # -- structure -------------------------------------------------------

    def mass(self) -> int:
        return sum(map(abs, self.counts.ravel().tolist()))

    def entries(self) -> list[tuple[int, int, int]]:
        """The nonzero cells (t, j, count), row-major, as Python ints."""
        ts, js = np.nonzero(self.counts)
        return list(zip(ts.tolist(), js.tolist(), self.counts[ts, js].tolist()))

    def promote(self, new_m: int) -> "SumValue":
        """Reinterpret with conductor new_m (requires m | new_m)."""
        if new_m % self.m:
            raise ValueError(f"cannot promote conductor {self.m} to {new_m}")
        if new_m == self.m:
            return self
        out = np.zeros((self.p, new_m), dtype=np.int64)
        out[:, ::new_m // self.m] = self.counts
        return SumValue(self.p, new_m, out, self.denom)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "SumValue":
        if isinstance(other, int):
            other = SumValue.integer(self.p, other)
        if self.p != other.p:
            raise ValueError("additive conductor mismatch")
        m = math.lcm(self.m, other.m)
        d = math.lcm(self.denom, other.denom)
        sa, sb = d // self.denom, d // other.denom
        _fits(_amax(self.counts) * sa + _amax(other.counts) * sb, "sum")
        return SumValue(self.p, m, self.promote(m).counts * sa
                        + other.promote(m).counts * sb, d)

    __radd__ = __add__

    def __neg__(self) -> "SumValue":
        return self.scale(-1)

    def __sub__(self, other) -> "SumValue":
        return self + (-other)

    def __rsub__(self, other) -> "SumValue":
        return (-self) + other

    def scale(self, c: int) -> "SumValue":
        _fits(_amax(self.counts) * abs(c), "scale")
        return SumValue(self.p, self.m, self.counts * c, self.denom)

    def shift(self, dt: int = 0, dj: int = 0) -> "SumValue":
        """Multiply by the unit zeta_p^dt zeta_m^dj (index rotation)."""
        return SumValue(self.p, self.m, np.roll(self.counts, (dt, dj), axis=(0, 1)),
                        self.denom)

    def conjugate(self) -> "SumValue":
        """Complex conjugation: negate both root-of-unity axes."""
        return SumValue(self.p, self.m,
                        np.roll(self.counts[::-1, ::-1], (1, 1), axis=(0, 1)),
                        self.denom)

    # -- canonical form and equality --------------------------------------

    def is_zero(self) -> bool:
        """Reduce mod Phi_p (minus the last row), then mod Phi_m (@ R_m)."""
        R, grow = _phi_powers(self.m)
        C = self.counts
        _fits(2 * _amax(C) * grow, "reduction")
        return not ((C[:-1] - C[-1]) @ R).any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, SumValue)):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- numerics ----------------------------------------------------------

    def embed(self) -> complex:
        """Evaluate at zeta_p = e^(2 pi i/p), zeta_m = e^(2 pi i/m).

        Double precision; absolute error is at most mass() * 1e-14.
        """
        zp, zm = _roots(self.p), _roots(self.m)
        acc = 0j
        for t, j, c in self.entries():
            acc += c * zp[t] * zm[j]
        return acc / self.denom

    def __repr__(self):
        nz = self.entries()
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
    col = v.counts[:, 0].tolist()
    return CycloRational(v.p, [Fraction(c - col[-1], v.denom) for c in col[:-1]])


def embed_complex(v) -> complex:
    """Complex embedding of a SumValue or CycloRational.

    Error bound: mass * 1e-14 for SumValue histograms.
    """
    if isinstance(v, (SumValue, CycloRational)):
        return v.embed()
    return complex(v)
