"""L-function of the untwisted inverted Kloosterman sums.

The generating function exp(sum_k S_k T^k / k) of the sums over the
extension tower F_{q^k} is rational; its interesting part is a degree-2n
polynomial P(T) = prod (1 - alpha_i T).  Reconstruction path
(lfunction_pipeline, for one b or a whole family of b at once), run once
per F_p^*-class of b (expsum.b_class) on its representative:

  1. read the tower: one expsum.tower_sums call per k in 1..2n and per
     held-out k (the largest k is priced, by table cap and rounding
     bound, before any sum is computed or cache read);
  2. power sums S*_k = q^k S_{k,n}(b) + (q^k - 1)^n, exact in Z[zeta_p];
  3. sign-normalize to root power sums P_k = (-1)^n S*_k and subtract the
     two known trivial reciprocal roots 1 and q;
  4. Newton identities give the elementary symmetric functions of the
     remaining 2n roots beta_i, hence prod (1 - beta_i T);
  5. rescale T -> T/q (alpha_i = beta_i / q) and assert integrality.

b = rep c^(n+1) then has P_b = sigma_{1/c}(P_rep) (galois), the same
Newton polygon (one prime lies above p) and the complex roots of its own
coefficients.  _CLASSES keeps each representative's LFactorization and
held-out predictions for the process: O(n) elements of Q(zeta_p).  The
q-adic Newton polygon of P and the complex magnitudes of its reciprocal
roots implement the slope / weight checks; the held-out power sums of
every b (bucket moves of its representative's) validate the assembled
rational function end to end.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Integral

import numpy as np

from .cyclotomic import CycloRational, reduce_mod_phi
from .errors import DegenerateError, VerificationError
from .expsum import _drop_class, b_class, check_tower, tower_sums
from .gf import FieldTable, prime_factors

ROOT_RESIDUAL_TOL = 1e-6    # complex_weights: largest residual at a root, relative


@dataclass
class LFactorization:
    """Factorization data for the L-function of S_{k,n}(b).

    L^sign = prod_{(e, m) in trivial_part} (1 - q^e T)^m * P(T)
    with sign = (-1)^(n+1); P has constant term 1 and degree 2n.
    """
    n: int
    q: int
    p: int
    b: int | None
    sign: int
    P_coeffs: tuple[CycloRational, ...]
    np_points: tuple[tuple[int, Fraction], ...]
    slopes: tuple[Fraction, ...]
    coefficients_rational: bool
    trivial_part: tuple[tuple[int, int], ...]
    complex_roots: tuple[complex, ...]


@dataclass
class HeldoutResult:
    """A held-out k that matched: lfunction_pipeline raises on a mismatch."""
    k: int
    match: bool


def newton_to_elementary(ps: list[CycloRational]) -> list[CycloRational]:
    """Elementary symmetric functions from power sums.

    e_k = (1/k) sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i, e_0 = 1, exact.
    """
    if not ps:
        return []
    p = ps[0].p
    es = [CycloRational.one(p)]
    for k in range(1, len(ps) + 1):
        acc = CycloRational.zero(p)
        for i in range(1, k + 1):
            term = es[k - i] * ps[i - 1]
            acc = acc + term if i % 2 == 1 else acc - term
        es.append(acc / k)
    return es[1:]


def elementary_to_power(es: list[CycloRational], K: int) -> list[CycloRational]:
    """Power sums p_1..p_K of the roots with elementary symmetric es:
    p_k = sum_{i=1..min(k,d)} (-1)^(i-1) e_i p_{k-i}, with p_0 read as k."""
    ps: list[CycloRational] = []
    for k in range(1, K + 1):
        ps.append(sum((es[i - 1] * (ps[k - i - 1] if i < k else k) * (-1) ** (i - 1)
                       for i in range(1, min(k, len(es)) + 1)), CycloRational.zero(es[0].p)))
    return ps


def lower_hull(points: list[tuple[int, Fraction]]
               ) -> list[tuple[int, Fraction]]:
    """Lower convex hull of points with distinct integer abscissae."""
    pts = sorted(points)
    hull: list[tuple[int, Fraction]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # pop if hull[-1] lies on or above segment hull[-2] -> pt
            if (y1 - y0) * (pt[0] - x0) >= (pt[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


@dataclass
class NewtonPolygon:
    points: tuple[tuple[int, Fraction], ...]
    vertices: tuple[tuple[int, Fraction], ...]
    slopes: tuple[Fraction, ...]


def newton_polygon(coeffs, q: int) -> NewtonPolygon:
    """q-adic Newton polygon of sum a_k T^k with a_0 = 1.

    Lower convex hull of (k, ord_q a_k), zero coefficients skipped; the
    slope multiset carries horizontal-length multiplicities.  Rational
    coefficients are read as elements of Q(zeta_p), p the prime of q.
    """
    pts = []
    p = prime_factors(q)[0]
    for k, c in enumerate(coeffs):
        c = c if isinstance(c, CycloRational) else CycloRational.from_int(p, c)
        o = c.ord_q(q)
        if o is not math.inf:
            pts.append((k, o))
    if not pts or pts[0] != (0, Fraction(0)):
        raise ValueError("constant term must be 1 (ord 0 at index 0)")
    hull = lower_hull(pts)
    slopes: list[Fraction] = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        s = Fraction(y1 - y0, x1 - x0)
        slopes.extend([s] * (x1 - x0))
    return NewtonPolygon(tuple(pts), tuple(hull), tuple(slopes))


def strip_trivial_roots(star: list[CycloRational], n: int, q: int, *,
                        b: int | None = None) -> LFactorization:
    """Remove the trivial reciprocal roots 1 and q and solve for P(T).

    star must cover k = 1..2n.  Root power sums are P_k = (-1)^n S*_k;
    after subtracting 1^k + q^k the Newton identities yield the degree-2n
    polynomial in the beta_i, and T -> T/q rescales to the alpha_i.
    Raises when any rescaled coefficient fails to be integral (a sign
    convention or precision bug, never data).  The trivial factor list is
    (1-T)^(n+1) and the alternating binomial tower of (1 - q^(j-1) T) for
    j = 2..n, as exponents of q with signed multiplicities in L^sign.
    """
    if len(star) < 2 * n:
        raise ValueError(f"need power sums for k = 1..{2 * n}")
    p = star[0].p
    sgn = (-1) ** n
    bk = [sgn * star[k - 1] - 1 - q ** k for k in range(1, 2 * n + 1)]
    es = newton_to_elementary(bk)
    coeffs = [CycloRational.one(p)]
    for k in range(1, 2 * n + 1):
        c = es[k - 1] * ((-1) ** k)          # coefficient of T^k in prod(1 - beta T)
        a = c / (q ** k)                     # alpha_i = beta_i / q
        if not a.is_integral():
            raise VerificationError(
                f"coefficient of T^{k} is not integral: {a!r} "
                "(sign convention or reconstruction bug)")
        coeffs.append(a)
    npg = newton_polygon(coeffs, q)
    trivial = [(0, n + 1)] + [(j - 1, math.comb(n, j) * (-1) ** (j - 1))
                              for j in range(2, n + 1)]
    return LFactorization(
        n=n, q=q, p=p, b=b, sign=(-1) ** (n + 1),
        P_coeffs=tuple(coeffs), np_points=npg.points, slopes=npg.slopes,
        coefficients_rational=all(c.is_rational() for c in coeffs),
        trivial_part=tuple(trivial), complex_roots=tuple(complex_weights(coeffs)))


def complex_weights(coeffs) -> list[complex]:
    """The complex reciprocal roots alpha_i of P(T) = sum_k coeffs[k] T^k.

    Root finding at double precision on the embedded polynomial; degrees
    here are at most 12 so the companion-matrix roots are reliable, but an
    evaluation residual is still checked.
    """
    emb = [complex(c.embed()) if isinstance(c, CycloRational) else complex(c)
           for c in coeffs]
    deg = len(emb) - 1
    if deg > 12:
        raise ValueError("degree above the double-precision comfort zone (12)")
    if deg == 0:
        return []
    roots = np.roots(emb[::-1])
    scale = max(abs(c) for c in emb)
    for r in roots:
        res = abs(sum(c * r ** k for k, c in enumerate(emb)))
        if res > ROOT_RESIDUAL_TOL * scale * max(1.0, abs(r)) ** deg:
            raise ArithmeticError(
                f"ill-conditioned root cluster: residual {res:.2e} at {r}")
    return [1 / r for r in roots]


def predicted_power_sum(lf: LFactorization, ks: Sequence[int]) -> list[CycloRational]:
    """S_k implied by the assembled rational function for every k >= 1 in
    ks, exactly, from one elementary_to_power pass up to max(ks).

    From -T d/dT log: S_k = -sign (sum_r m_r q^(e_r k) + sum_i alpha_i^k),
    with the alpha power sums taken from P's coefficients by Newton's
    identities.
    """
    es = [lf.P_coeffs[i] * ((-1) ** i) for i in range(1, len(lf.P_coeffs))]
    psums = elementary_to_power(es, max(ks, default=0))
    return [(psums[k - 1] + sum(m * lf.q ** (e * k) for e, m in lf.trivial_part))
            * (-lf.sign) for k in ks]


def alpha_hodge_slopes(n: int) -> list[Fraction]:
    """The ordinary-case slope multiset {0, 1, 1, ..., n-1, n-1, n}."""
    out = [Fraction(0)]
    for i in range(1, n):
        out.extend([Fraction(i), Fraction(i)])
    out.append(Fraction(n))
    return out


#: per F_p^*-class of b, keyed (p, a, n, rep): (LFactorization, {k: S_k})
_CLASSES: dict[tuple[int, int, int, int],
               tuple[LFactorization, dict[int, CycloRational]]] = {}


def lfunction_pipeline(F: FieldTable, n: int, b: int | Sequence[int], *,
                       heldout: Sequence[int] = ()):
    """tower sums -> strip trivial roots -> weights -> held-out check.

    b is one unit, giving (LFactorization, [HeldoutResult]), or a sequence
    of units, giving a list of those pairs in its order.  Held-out k below
    1 are refused, the cost of the largest k, held-out ones included, is
    checked before any sum is computed (expsum.check_tower), and p | n+1
    is refused: the facet determinants +-(n+1) vanish mod p, the Laurent
    polynomial degenerates and the degree-2n shape of P no longer holds;
    all three before any cache is read.  Each held-out sum of each b must
    equal sigma_{1/c} of its class's prediction exactly in Z[zeta_p], or
    the call raises and the class is dropped from both caches.
    """
    if any(k < 1 for k in heldout):
        raise ValueError(f"held-out k must be >= 1, got {heldout}")
    check_tower(F, max([2 * n, *heldout]), n)
    if (n + 1) % F.p == 0:
        raise DegenerateError(
            f"p = {F.p} divides n+1 = {n + 1}: the reduction to a "
            "nondegenerate toric sum fails and the L-function degree "
            "claims do not apply")
    one = isinstance(b, Integral)
    bs = [b] if one else list(b)
    cls = [b_class(F, n, bi) for bi in bs]
    classes = {rep: _CLASSES.get((F.p, F.a, n, rep)) for rep, _ in cls}
    cold = [rep for rep, entry in classes.items() if entry is None]
    # rows: the cold representatives, then at a held-out k every b
    sums = {k: [reduce_mod_phi(v) for v in tower_sums(F, k, n, cold + bs * (k in heldout))]
            for k in sorted({*range(1, 2 * n + 1), *heldout})}
    for i, rep in enumerate(cold):
        star = [F.q ** k * sums[k][i] + (F.q ** k - 1) ** n for k in range(1, 2 * n + 1)]
        classes[rep] = (strip_trivial_roots(star, n, F.q, b=rep), {})
    for rep, (lf, preds) in classes.items():
        new = [k for k in dict.fromkeys(heldout) if k not in preds]
        classes[rep] = (lf, {**preds, **dict(zip(new, predicted_power_sum(lf, new)))})
    out = []
    for i, (bi, (rep, c)) in enumerate(zip(bs, cls)):
        lf, preds = classes[rep]
        j = pow(c, -1, F.p)
        if c != 1:
            coeffs = tuple(x.galois(j) for x in lf.P_coeffs)
            lf = replace(lf, b=bi, P_coeffs=coeffs,
                         complex_roots=tuple(complex_weights(coeffs)))
        for k in heldout:
            predicted, observed = preds[k].galois(j), sums[k][len(cold) + i]
            if predicted != observed:
                _CLASSES.pop((F.p, F.a, n, rep), None)
                _drop_class(F, n, rep)
                raise VerificationError(
                    f"held-out power sum mismatch at k={k}: "
                    f"predicted {predicted!r}, computed {observed!r}")
        out.append((lf, [HeldoutResult(k, True) for k in heldout]))
    _CLASSES.update(((F.p, F.a, n, rep), entry) for rep, entry in classes.items())
    return out[0] if one else out
