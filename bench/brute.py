"""Reference arithmetic for the benchmark's output checks.

Nothing here imports invkloos.  Sums are evaluated by brute force over
the prime field Z/p with Python integers, the benchmark's own smallest
primitive root and complex exponentials; valuations in Q(zeta_p) use the
pi-adic basis 1, pi, ..., pi^(p-2) with pi = zeta - 1 instead of the
field norm the program uses.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np


def primitive_root(p: int) -> int:
    """The smallest generator of (Z/p)^*."""
    m = p - 1
    factors = [d for d in range(2, m + 1)
               if m % d == 0 and all(d % e for e in range(2, d))]
    for g in range(1, p):
        if all(pow(g, m // r, p) != 1 for r in factors):
            return g
    raise ValueError(f"{p} is not prime")


def discrete_logs(p: int) -> dict[int, int]:
    """x -> e with g^e = x for the smallest primitive root g."""
    g, x, out = primitive_root(p), 1, {}
    for e in range(p - 1):
        out[x] = e
        x = x * g % p
    return out


def _root(num: int, den: int) -> complex:
    return cmath.exp(2j * cmath.pi * (num % den) / den)


def kloosterman(p: int, n: int, b: int, chi: tuple[int, ...] | None = None
                ) -> complex:
    """S_n(chi, b) over F_p by enumeration.

    The sum runs over x_1 ... x_{n+1} = b with every x_i nonzero and
    s = x_1 + ... + x_{n+1} nonzero, of chi_1(x_1) ... chi_{n+1}(x_{n+1})
    psi(1/s), where psi(y) = e^(2 pi i y/p) and chi_j(x) = e^(2 pi i j
    ind(x)/(p-1)) against the smallest primitive root.
    """
    js = chi if chi is not None else (0,) * (n + 1)
    logs = discrete_logs(p)
    total = 0j
    for xs in product(range(1, p), repeat=n):
        last = b * pow(math.prod(xs), -1, p) % p
        s = (sum(xs) + last) % p
        if s:
            phase = sum(j * logs[x] for j, x in zip(js, xs + (last,)))
            total += _root(phase, p - 1) * _root(pow(s, -1, p), p)
    return total


def gauss_sum(p: int, j: int) -> complex:
    """G(chi_j) = sum over x != 0 of chi_j(x) psi(x)."""
    logs = discrete_logs(p)
    return sum(_root(j * logs[x], p - 1) * _root(x, p) for x in range(1, p))


def embed(p: int, coeffs) -> complex:
    """sum c_t zeta^t for rational c_t on the basis 1, zeta, ..., zeta^(p-2)."""
    return sum(float(c) * _root(t, p) for t, c in enumerate(coeffs) if c)


def _vp(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def ord_pi(p: int, coeffs) -> float | int:
    """Valuation of sum c_t zeta^t at pi = zeta - 1, normalized v(pi) = 1.

    zeta^t = (1 + pi)^t = sum_j C(t, j) pi^j gives the pi-adic coordinates
    d_j; as v(d_j pi^j) = (p-1) v_p(d_j) + j are distinct mod p-1, the
    valuation is their minimum.  math.inf for 0.
    """
    cs = [Fraction(c) for c in coeffs]
    best = math.inf
    for j in range(len(cs)):
        d = sum(c * math.comb(t, j) for t, c in enumerate(cs) if t >= j and c)
        if d:
            best = min(best, (p - 1) * _vp(d, p) + j)
    return best


def newton_slopes(points: list[tuple[int, Fraction]]) -> list[Fraction]:
    """Slopes, with horizontal multiplicity, of the lower convex hull."""
    hull: list[tuple[int, Fraction]] = []
    for x, y in sorted(points):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (x - x0) >= (y - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x, y))
    out: list[Fraction] = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        out += [Fraction(y1 - y0, x1 - x0)] * (x1 - x0)
    return out


def hodge_slopes(n: int) -> list[Fraction]:
    """The Hodge polygon's slopes {0, 1, 1, ..., n-1, n-1, n}."""
    return [Fraction(0)] + [Fraction(i) for i in range(1, n) for _ in "ab"] \
        + [Fraction(n)]


def on_or_above(slopes, hodge) -> bool:
    """Polygon of slopes lies on or above hodge's, with the same endpoint."""
    if len(slopes) != len(hodge):
        return False
    a = b = Fraction(0)
    for s, h in zip(sorted(slopes), sorted(hodge)):
        a, b = a + s, b + h
        if a < b:
            return False
    return a == b


def reciprocal_root_sizes(coeffs: list[complex]) -> list[float]:
    """|alpha_i| for P(T) = sum c_k T^k = prod (1 - alpha_i T)."""
    return sorted(float(abs(1 / r)) for r in np.roots(coeffs[::-1]))


def s1_from_p(n: int, q: int, c1: complex) -> complex:
    """S_{1,n}(b) implied by the coefficient c1 of T in P(T).

    The root power sums (-1)^n S*_k of S*_k = q^k S_{k,n} + (q^k-1)^n are
    1 + q^k + sum beta_i^k with beta_i = q alpha_i, and sum alpha_i = -c1.
    """
    star = (-1) ** n * (1 + q - q * c1)
    return (star - (q - 1) ** n) / q
