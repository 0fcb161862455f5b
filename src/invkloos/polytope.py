"""Lattice polytope engine: Newton polyhedra, facet functionals, the
weight (gauge) function, weight counts and Hodge numbers, the Hodge
polygon, normalized volume, diagonal non-degeneracy, and the
Stickelberger-style ordinariness test on solution groups.

All functionals and weights are exact rationals; no floating point
enters this module.  Facets are enumerated by exhaustive hyperplane
search over dim-subsets of the candidate points (acceptable at the
supported sizes: dimension <= 6, at most 64 points); the same search
gives the coordinate projections that the weight counts walk through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import BudgetExceeded
from .expsum import LaurentPoly

DIM_CAP = 6
POINT_CAP = 64
BOX_CAP = 10 ** 8
WEIGHT_CAP = 10 ** 6
_CHUNK = 1 << 18
DET_CAP = 10 ** 6


# ----------------------------------------------------------------------
# exact integer/rational linear algebra (small sizes)
# ----------------------------------------------------------------------

def det_int(rows: list[list[int]] | tuple) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    assert all(len(r) == n for r in a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def frac_rank(rows) -> int:
    """Rank over Q of integer rows by fraction-free (Bareiss) elimination:
    every entry stays a minor of the input, so each division is exact."""
    m = [list(r) for r in rows]
    rank, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            m[i] = [(top[c] * x - f * y) // prev for x, y in zip(m[i], top)]
        prev, rank = top[c], rank + 1
    return rank


# ----------------------------------------------------------------------
# polytope construction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Facet:
    """Supporting hyperplane normal . x = rhs with all points on the <= side.

    (normal, rhs) is jointly primitive; rhs > 0 means the facet misses the
    origin and carries the gauge functional normal/rhs (value 1 on the
    facet), rhs = 0 means the facet contains the origin.
    """
    normal: tuple[int, ...]
    rhs: int
    vertex_idx: tuple[int, ...]

    def functional(self) -> tuple[Fraction, ...]:
        assert self.rhs > 0, "facets through the origin carry no functional"
        return tuple(Fraction(c, self.rhs) for c in self.normal)

    def simplicial(self, dim: int) -> bool:
        return len(self.vertex_idx) == dim

    def __str__(self):
        terms = "+".join(f"{c}*x{i + 1}" for i, c in enumerate(self.normal) if c)
        return f"{terms}={self.rhs}"


@dataclass(frozen=True)
class PolytopeData:
    dim: int
    vertices: tuple[tuple[int, ...], ...]
    gauge_facets: tuple[Facet, ...]
    origin_facets: tuple[Facet, ...]
    D: int
    contains_origin: bool


def _hyperplane_from(points: list[tuple[int, ...]], subset) -> tuple | None:
    """Primitive (normal, rhs) of the hyperplane through a dim-subset, or
    None when the subset is affinely dependent.  Cofactor expansion of the
    (dim x dim+1) homogeneous system keeps everything in integers."""
    n = len(points[0])
    a = [list(points[i]) + [1] for i in subset]
    vec = []
    for j in range(n + 1):
        minor = [row[:j] + row[j + 1:] for row in a]
        vec.append((-1) ** j * det_int(minor))
    if all(v == 0 for v in vec):
        return None
    normal, rhs = vec[:n], -vec[n]
    g = math.gcd(*vec)
    return tuple(v // g for v in normal), rhs // g


def build_polytope(src: LaurentPoly | list | tuple, *,
                   dim_cap: int = DIM_CAP,
                   point_cap: int = POINT_CAP) -> PolytopeData:
    """Facets and vertices of a full-dimensional lattice polytope.

    A LaurentPoly is turned into its Newton polyhedron (convex hull of the
    origin and the exponent vectors); an explicit point list is taken
    as-is.  Raises when the hull is not full-dimensional, reporting the
    affine-hull dimension.  The caps bound the C(points, dim) hyperplane
    search; callers with few points may raise them.
    """
    if isinstance(src, LaurentPoly):
        pts = {(0,) * src.n_vars} | {tuple(e) for e in src.exponents()}
    else:
        pts = {tuple(int(x) for x in v) for v in src}
    points = sorted(pts)
    n = len(points[0])
    if any(len(v) != n for v in points):
        raise ValueError("points of mixed dimension")
    if n > dim_cap:
        raise BudgetExceeded(f"dimension {n} over the cap {dim_cap}")
    if len(points) > point_cap:
        raise BudgetExceeded(f"{len(points)} points over the cap {point_cap}")

    base = points[0]
    aff_rank = frac_rank([[v[i] - base[i] for i in range(n)] for v in points[1:]])
    if aff_rank < n:
        raise ValueError(
            f"polytope is not full-dimensional: affine hull has dimension {aff_rank}")

    facets: dict[tuple, tuple] = {}
    for subset in combinations(range(len(points)), n):
        hp = _hyperplane_from(points, subset)
        if hp is None:
            continue
        normal, rhs = hp
        vals = [sum(c * x for c, x in zip(normal, v)) for v in points]
        if all(val <= rhs for val in vals):
            pass
        elif all(val >= rhs for val in vals):
            normal = tuple(-c for c in normal)
            rhs = -rhs
            vals = [-v for v in vals]
        else:
            continue
        key = (normal, rhs)
        if key not in facets:
            on = tuple(i for i, val in enumerate(vals) if val == rhs)
            facets[key] = on

    contains_origin = all(rhs >= 0 for (_, rhs) in facets)

    # vertices: points whose tight facet normals span the whole space
    vert_ids = []
    for i, v in enumerate(points):
        normals = [list(nrm) for (nrm, rhs), on in facets.items() if i in on]
        if normals and frac_rank(normals) == n:
            vert_ids.append(i)
    vertices = tuple(points[i] for i in vert_ids)
    reindex = {old: new for new, old in enumerate(vert_ids)}

    gauge, through = [], []
    for (normal, rhs), on in sorted(facets.items()):
        fac = Facet(normal, rhs,
                    tuple(reindex[i] for i in on if i in reindex))
        (gauge if rhs > 0 else through).append(fac)

    D = math.lcm(*(c.denominator for fac in gauge for c in fac.functional()))
    return PolytopeData(n, vertices, tuple(gauge), tuple(through), D,
                        contains_origin)


def weight(P: PolytopeData, u) -> Fraction | float:
    """Gauge of u: least c >= 0 with u in c * polytope; inf outside the cone.

    Requires the origin in the polytope.  Membership in the cone means all
    origin-side constraints hold; inside it the gauge is the max of the
    facet functionals (clamped at 0)."""
    if not P.contains_origin:
        raise ValueError("weight needs the origin inside the polytope")
    u = tuple(u)
    for fac in P.origin_facets:
        if sum(c * x for c, x in zip(fac.normal, u)) > 0:
            return math.inf
    w = Fraction(0)
    for fac in P.gauge_facets:
        val = Fraction(sum(c * x for c, x in zip(fac.normal, u)), fac.rhs)
        if val > w:
            w = val
    return w


# ----------------------------------------------------------------------
# the specific (n+2)-dimensional polyhedron of the inverted sum
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IkPolytope:
    n: int
    polytope: PolytopeData
    vertices: tuple[tuple[int, ...], ...]   # V_0 .. V_{n+3}
    M1: tuple[tuple[int, ...], ...]         # columns V_1..V_{n+2}
    M2: tuple[tuple[int, ...], ...]         # columns V_1..V_{n+1}, V_{n+3}
    det1: int
    det2: int


def ik_vertices(n: int) -> list[tuple[int, ...]]:
    nv = n + 2
    verts = [tuple([0] * nv)]
    for i in range(n):
        e = [0] * nv
        e[i] = 1
        e[n] = 1
        e[n + 1] = 1
        verts.append(tuple(e))
    verts.append(tuple([-1] * n + [1, 1]))
    e = [0] * nv
    e[n] = 1
    verts.append(tuple(e))
    e = [0] * nv
    e[n + 1] = 1
    verts.append(tuple(e))
    return verts


def ik_polytope(n: int) -> IkPolytope:
    """The Newton polyhedron of the (n+2)-variable rewrite, with the two
    vertex matrices of its origin-missing facets x_{n+1} = 1 and
    x_{n+2} = 1.  Asserts the facet split of the vertices."""
    if not 1 <= n <= 8:
        raise ValueError("n must be in 1..8")
    verts = ik_vertices(n)
    # only n+4 candidate points, so the hyperplane search stays tiny even
    # above the generic dimension cap
    P = build_polytope(verts, dim_cap=10)
    nv = n + 2

    def unit_normal(i):
        e = [0] * nv
        e[i] = 1
        return tuple(e)

    by_normal = {fac.normal: fac for fac in P.gauge_facets}
    if set(by_normal) != {unit_normal(n), unit_normal(n + 1)}:
        raise AssertionError("unexpected facet structure")
    vmap = {v: i for i, v in enumerate(P.vertices)}
    f1 = by_normal[unit_normal(n)]
    f2 = by_normal[unit_normal(n + 1)]
    want1 = {vmap[v] for v in verts[1:n + 3]}
    want2 = {vmap[v] for v in verts[1:n + 2] + [verts[n + 3]]}
    assert set(f1.vertex_idx) == want1 and set(f2.vertex_idx) == want2, \
        "facet/vertex split mismatch"

    cols1 = verts[1:n + 3]
    cols2 = verts[1:n + 2] + [verts[n + 3]]
    m1 = tuple(tuple(col[i] for col in cols1) for i in range(nv))
    m2 = tuple(tuple(col[i] for col in cols2) for i in range(nv))
    return IkPolytope(n, P, tuple(verts), m1, m2, det_int(m1), det_int(m2))


# ----------------------------------------------------------------------
# weight counts, Hodge numbers, Hodge polygon
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HodgeData:
    D: int
    W: tuple[int, ...]                       # W[k] = #{u : w(u) = k/D}
    H: tuple[int, ...]                       # Hodge numbers
    hodge_polygon: tuple[tuple[int, Fraction], ...]
    normalized_volume: int | None            # dim! Vol = sum of Hodge numbers


def _expand(X, lo, cnt):
    """Rows (x, t), t in [lo, lo + cnt) per prefix x, _CHUNK rows at most."""
    ends = np.cumsum(cnt)
    for start in range(0, ends[-1], _CHUNK):
        r = np.arange(start, min(start + _CHUNK, ends[-1]), dtype=np.int64)
        idx = np.searchsorted(ends, r, side="right")
        yield np.column_stack([X[idx], lo[idx] + r - (ends[idx] - cnt[idx])])


def hodge_data(P: PolytopeData, k_max: int | None = None) -> HodgeData:
    """Lattice-point weights up to c = k_max/D and the derived Hodge data.

    The points of weight <= c are the lattice points of c * polytope, as
    the origin is in it.  Level j of the walk holds those of its projection
    onto the first j coordinates; a prefix's fibre in the next coordinate
    is one integer interval.  The k_max + 1 counts and the bounding box,
    which bounds every level, are priced first.  Hodge numbers are the
    alternating-binomial transform of W; their total over k <= dim*D is
    the normalized volume.
    """
    if not P.contains_origin:
        raise ValueError("weights need the origin inside the polytope")
    if not P.gauge_facets:
        raise ValueError("polytope has no origin-missing facet")
    n, D = P.dim, P.D
    k_max = n * D if k_max is None else k_max
    if k_max < 0:
        raise ValueError(f"k_max = {k_max} is negative")
    if k_max + 1 > WEIGHT_CAP:
        raise BudgetExceeded(f"{k_max + 1} weight counts, over the cap "
                             f"{WEIGHT_CAP}", estimate=k_max + 1)
    scale = Fraction(k_max, D)
    lo = [math.floor(min(scale * v[i] for v in P.vertices)) for i in range(n)]
    hi = [math.ceil(max(scale * v[i] for v in P.vertices)) for i in range(n)]
    total = math.prod(h - l + 1 for l, h in zip(lo, hi))
    if total > BOX_CAP:
        raise BudgetExceeded(
            f"bounding box has {total} lattice points, over the cap {BOX_CAP}",
            estimate=total)

    # c * projection_j = {x : D * normal . x <= k_max * rhs} over its facets
    hulls = [build_polytope([v[:j] for v in P.vertices] + [(0,) * j],
                            dim_cap=n, point_cap=len(P.vertices) + 1)
             for j in range(1, n)]
    levels = [Q.gauge_facets + Q.origin_facets for Q in hulls + [P]]
    big = max(map(abs, lo + hi))
    if max(D * sum(map(abs, f.normal)) * big + k_max * f.rhs
           for fs in levels for f in fs) >= 1 << 62:
        raise BudgetExceeded("facet values would overflow int64")
    levels = [(D * np.array([f.normal for f in fs], dtype=np.int64),
               k_max * np.array([f.rhs for f in fs], dtype=np.int64))
              for fs in levels]
    # D clears every functional denominator, so D * functional is integral
    gauge = [[D * c for c in fac.functional()] for fac in P.gauge_facets]
    assert all(x.denominator == 1 for row in gauge for x in row)
    gauge = np.array(gauge, dtype=np.int64)
    W = np.zeros(k_max + 1, dtype=np.int64)

    def walk(X):
        if X.shape[1] == n:
            W[:] += np.bincount(np.maximum((X @ gauge.T).max(axis=1), 0),
                                minlength=k_max + 1)
            return
        A, b = levels[X.shape[1]]
        num, a = b - X @ A[:, :-1].T, A[:, -1]    # a * t <= num, per facet
        t_lo = (-(-num[:, a < 0] // a[a < 0])).max(axis=1)
        t_hi = (num[:, a > 0] // a[a > 0]).min(axis=1)
        for piece in _expand(X, t_lo, np.maximum(t_hi - t_lo + 1, 0)):
            walk(piece)

    walk(np.zeros((1, 0), dtype=np.int64))
    assert W[0] == 1, "weight-0 set must be exactly the origin"

    H = np.zeros_like(W)
    for i in range(min(n, k_max // D) + 1):
        H[i * D:] += (-1) ** i * math.comb(n, i) * W[: k_max + 1 - i * D]
    H = H.tolist()
    assert all(h >= 0 for h in H), \
        "negative Hodge number (enumeration bug: the weight semigroup " \
        "ring is Cohen-Macaulay, so the numerator must be nonnegative)"

    polygon = [(0, Fraction(0))]
    x = y = 0
    for m, h in enumerate(H):
        if h:
            x, y = x + h, y + m * h
            polygon.append((x, Fraction(y, D)))
    nvol = sum(H[: n * D + 1]) if k_max >= n * D else None
    return HodgeData(D, tuple(W.tolist()), tuple(H), tuple(polygon), nvol)


# ----------------------------------------------------------------------
# diagonal theory: non-degeneracy and ordinariness
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionGroup:
    """Solutions of M r = 0 (mod 1) with r in [0,1)^n.

    An abelian group of order N = |det M| under coordinatewise addition
    mod 1, kept as the numerators N r; elements: the r, sorted, as Fractions."""
    matrix: tuple[tuple[int, ...], ...]
    numerators: tuple[tuple[int, ...], ...]
    N: int
    p: int

    @property
    def elements(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(a, self.N) for a in x) for x in sorted(self.numerators))


def diagonal_nondegenerate(M, p: int) -> bool:
    """Coefficient-free non-degeneracy of a diagonal polynomial: the
    vertex-matrix determinant must be prime to p."""
    d = det_int(M)
    if d == 0:
        raise ValueError("vertex matrix is singular")
    return math.gcd(abs(d), p) == 1


def ordinary_test(M, p: int) -> tuple[SolutionGroup, bool]:
    """Stickelberger stability test on the solution group of M.

    S = {r in [0,1)^n : M r integral} is {x/N : x in (Z/N)^n, M x = 0 mod N},
    N = |det M|: the numerators are generated by the columns of
    sign(det M) adj(M) = N M^-1 and closed by a breadth-first search.  x has
    order N / gcd(N, x_1, ..., x_n); returns True iff the coordinate sum is
    stable under r -> {p r}, i.e. sum x_i = sum (p x_i mod N), on the
    elements of order prime to p.
    """
    d = det_int(M)
    if d == 0:
        raise ValueError("vertex matrix is singular")
    if abs(d) > DET_CAP:
        raise BudgetExceeded(f"|det| = {abs(d)} over the cap {DET_CAP}")
    n, N = len(M), abs(d)

    def cofactor(i: int, j: int) -> int:
        minor = [[x for c, x in enumerate(row) if c != j]
                 for r, row in enumerate(M) if r != i]
        return (-1) ** (i + j) * det_int(minor) if n > 1 else 1

    # column i of adj(M) holds the cofactors of row i of M
    gens = [tuple(d // N * cofactor(i, j) % N for j in range(n)) for i in range(n)]
    seen = {(0,) * n}
    queue = list(seen)
    for x in queue:                 # appended to while read: breadth first
        for g in gens:
            y = tuple((a + b) % N for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                queue.append(y)
    assert len(seen) == N, "solution group order != |det|"
    stable = all(sum(x) == sum(p * a % N for a in x) for x in seen
                 if math.gcd(N // math.gcd(N, *x), p) == 1)
    return SolutionGroup(tuple(tuple(row) for row in M), tuple(queue), N, p), stable


@dataclass(frozen=True)
class FacetVerdict:
    facet: Facet
    det: int
    nondegenerate: bool
    ordinary: bool
    group_order: int


@dataclass(frozen=True)
class FacialOrdinaryReport:
    facets: tuple[FacetVerdict, ...]
    ordinary: bool


def facial_ordinary(f: LaurentPoly, p: int) -> FacialOrdinaryReport:
    """Ordinariness of f by facet decomposition (diagonal facets only).

    Every origin-missing facet of the Newton polyhedron must be simplicial
    with the f-terms on it exactly its vertices; then each facet's vertex
    matrix feeds the solution-group stability test and the combined
    verdict is the conjunction.
    """
    P = build_polytope(f)
    n = P.dim
    exps = [tuple(e) for e in f.exponents()]
    verdicts = []
    for fac in P.gauge_facets:
        on_face = [e for e in exps
                   if sum(c * x for c, x in zip(fac.normal, e)) == fac.rhs]
        face_verts = [P.vertices[i] for i in fac.vertex_idx]
        if not fac.simplicial(n) or sorted(on_face) != sorted(face_verts):
            raise ValueError(
                f"facet {fac} is not a diagonal restriction "
                f"({len(face_verts)} vertices, {len(on_face)} terms, dim {n})")
        cols = on_face
        m = [[col[i] for col in cols] for i in range(n)]
        group, stable = ordinary_test(m, p)
        verdicts.append(FacetVerdict(fac, det_int(m),
                                     diagonal_nondegenerate(m, p), stable,
                                     group.N))
    return FacialOrdinaryReport(tuple(verdicts), all(v.ordinary for v in verdicts))
