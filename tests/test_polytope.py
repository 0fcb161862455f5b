import hashlib
import math
from fractions import Fraction
from itertools import accumulate, combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from invkloos import polytope, suites
from invkloos.errors import BudgetExceeded
from invkloos.expsum import LaurentPoly, ik_laurent
from invkloos.gf import build_field
from invkloos.polytope import (build_polytope, det_int, diagonal_nondegenerate,
                               facial_ordinary, hodge_data, ik_polytope,
                               ik_vertices, ordinary_test, weight)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_standard_simplex():
    for n in (1, 2, 3):
        pts = [tuple([0] * n)] + [tuple(1 if j == i else 0 for j in range(n))
                                  for i in range(n)]
        P = build_polytope(pts)
        assert P.D == 1
        assert len(P.gauge_facets) == 1
        fac = P.gauge_facets[0]
        assert fac.normal == tuple([1] * n) and fac.rhs == 1
        assert len(P.origin_facets) == n
        assert set(P.vertices) == set(pts)


def test_segment_d_equals_vertex_coordinate():
    P = build_polytope([(0,), (2,)])
    assert P.D == 2
    assert P.gauge_facets[0].functional() == (Fraction(1, 2),)


def test_redundant_points_discarded():
    P = build_polytope([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)])
    assert set(P.vertices) == {(0, 0), (2, 0), (0, 2)}


def test_not_full_dimensional_reports_dim():
    with pytest.raises(ValueError, match="dimension 1"):
        build_polytope([(0, 0), (1, 1), (2, 2)])


def test_newton_polyhedron_origin_handling():
    # classical Kloosterman direction: the origin is interior, not a vertex
    f = LaurentPoly(2, ((1, (1, 0)), (1, (0, 1)), (2, (-1, -1))))
    P = build_polytope(f)
    assert P.contains_origin
    assert (0, 0) not in P.vertices and not P.origin_facets
    # but it is a vertex whenever it is extreme
    g = LaurentPoly(2, ((1, (1, 0)), (1, (0, 1))))
    Q = build_polytope(g)
    assert (0, 0) in Q.vertices


def test_polytope_without_origin_detected():
    P = build_polytope([(1, 0), (2, 0), (1, 1)])
    assert not P.contains_origin
    with pytest.raises(ValueError):
        weight(P, (1, 0))


# ----------------------------------------------------------------------
# the specific (n+2)-dimensional polyhedron
# ----------------------------------------------------------------------

def test_ik_vertex_count_matches_figure():
    assert len(ik_vertices(1)) == 5          # V_0..V_4 in R^3
    ik = ik_polytope(1)
    assert len(ik.polytope.vertices) == 5
    assert len(ik.polytope.gauge_facets) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_ik_determinants_and_denominator(n):
    # n = 8 exercises the relaxed dimension cap of the tiny vertex set
    ik = ik_polytope(n)
    assert ik.det1 == -(n + 1)
    assert ik.det2 == n + 1
    assert ik.polytope.D == 1


def test_ik_facets_are_the_last_two_coordinates():
    ik = ik_polytope(2)
    normals = {f.normal for f in ik.polytope.gauge_facets}
    assert normals == {(0, 0, 1, 0), (0, 0, 0, 1)}


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------

def test_weight_examples():
    ik = ik_polytope(2)
    P = ik.polytope
    assert weight(P, (0, 0, 0, 0)) == 0
    for v in ik.vertices[1:]:
        assert weight(P, v) == 1
    for k in range(5):
        assert weight(P, (0, 0, k, k)) == k
    assert weight(P, (0, 0, -1, 0)) == math.inf


def test_weight_in_lattice_over_D():
    P = build_polytope([(0, 0), (2, 0), (0, 3)])
    D = P.D
    for u in product(range(-2, 7), repeat=2):
        w = weight(P, u)
        if w is not math.inf:
            assert (w * D).denominator == 1


@given(st.integers(1, 3), st.data())
def test_gauge_subadditive_and_homogeneous(n, data):
    ik = ik_polytope(n)
    P = ik.polytope
    dim = n + 2

    def cone_point():
        # random nonnegative combination of vertices, rounded to lattice
        u = [0] * dim
        for v in ik.vertices[1:]:
            c = data.draw(st.integers(0, 2))
            u = [a + c * b for a, b in zip(u, v)]
        return tuple(u)

    u, v = cone_point(), cone_point()
    wu, wv = weight(P, u), weight(P, v)
    assert wu is not math.inf and wv is not math.inf
    assert weight(P, tuple(a + b for a, b in zip(u, v))) <= wu + wv
    c = data.draw(st.integers(0, 3))
    assert weight(P, tuple(c * a for a in u)) == c * wu


# ----------------------------------------------------------------------
# weight counts and Hodge numbers
# ----------------------------------------------------------------------

def test_unimodular_simplex_hodge():
    P = build_polytope([(0, 0), (1, 0), (0, 1)])
    hd = hodge_data(P, 4)
    # W(k) = #{u >= 0 : u1+u2 = k} = k+1; H = (1, 0, 0, ...)
    assert hd.W == (1, 2, 3, 4, 5)
    assert hd.H[:3] == (1, 0, 0)
    assert hd.normalized_volume == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ik_hodge_numbers(n):
    ik = ik_polytope(n)
    hd = hodge_data(ik.polytope)
    assert hd.H[: n + 2] == tuple([1] + [2] * n + [1])
    assert all(h == 0 for h in hd.H[n + 2:])
    assert hd.normalized_volume == 2 * n + 2
    assert sum(hd.H) == 2 * n + 2


def test_hodge_polygon_vertices():
    hd = hodge_data(ik_polytope(1).polytope)
    # slopes 0,1,1,2,2,3 with lengths H = (1,2,1): breaks at x = 1, 3, 4
    assert hd.hodge_polygon[0] == (0, Fraction(0))
    assert (1, Fraction(0)) in hd.hodge_polygon
    assert (3, Fraction(2)) in hd.hodge_polygon
    assert (4, Fraction(4)) in hd.hodge_polygon


def _box_oracle(P, k_max):
    """W, H and the Hodge polygon from every point of the bounding box of
    (k_max/D) * P: D * weight as the cleared max of the gauge functionals,
    kept when the point is in the cone and D * weight <= k_max."""
    n, D = P.dim, P.D
    lo = [math.floor(min(Fraction(k_max * v[i], D) for v in P.vertices))
          for i in range(n)]
    hi = [math.ceil(max(Fraction(k_max * v[i], D) for v in P.vertices))
          for i in range(n)]
    gauge = np.array([[int(D * c) for c in f.functional()]
                      for f in P.gauge_facets], dtype=np.int64)
    cone = np.array([f.normal for f in P.origin_facets],
                    dtype=np.int64).reshape(-1, n)
    W = np.zeros(k_max + 1, dtype=np.int64)
    for x0 in range(lo[0], hi[0] + 1):          # one slab at a time
        axes = [[x0]] + [range(l, h + 1) for l, h in zip(lo[1:], hi[1:])]
        u = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)
        wD = np.maximum((u @ gauge.T).max(axis=1), 0)
        ok = (wD <= k_max) & (u @ cone.T <= 0).all(axis=1)
        W += np.bincount(wD[ok], minlength=k_max + 1)
    W = W.tolist()
    H = [sum((-1) ** i * math.comb(n, i) * W[k - i * D]
             for i in range(n + 1) if k >= i * D) for k in range(k_max + 1)]
    polygon = [(0, Fraction(0))]
    for x, y in zip(accumulate(H), accumulate(m * h for m, h in enumerate(H))):
        if (x, Fraction(y, D)) != polygon[-1]:
            polygon.append((x, Fraction(y, D)))
    return tuple(W), tuple(H), tuple(polygon)


# (vertices, origin on the boundary); D > 1 throughout, dims 2-4
_NON_IK = [
    ([(0, 0), (2, 0), (0, 3)], True),
    ([(-3, -1), (-3, 0), (0, -2), (2, 0)], True),
    ([(-3, -3, 3), (-2, -3, 0), (0, -3, 1), (0, 2, 0), (2, -3, -2)], False),
    ([(-3, 0, 0), (-1, -2, 3), (0, 0, 0), (0, 0, 2), (1, 0, 2)], True),
    ([(-1, -1, 3, -2), (0, 0, 0, 0), (0, 2, -1, 0), (1, -1, -3, -3),
      (1, 3, -3, 0), (1, 3, -3, 2)], True),
    # D = 97240, so the default k_max is 291720 entries long
    ([(0, 0, 0), (2, 1, 0), (-1, 3, 1), (0, -1, 2), (1, 1, -3), (-2, -1, -1)],
     False),
]
_HUGE_D = [(-2, -3, -1, 0), (-1, 2, -1, 3), (0, 0, 0, 0), (1, -3, 3, 0),
           (2, 3, 2, 2), (3, -2, 0, 1), (3, -2, 2, -3)]
_OVERFLOW = [(-51, -55, -50, 35), (-42, 15, -47, -19), (-19, -45, 42, 51),
             (0, 0, 0, 0), (4, 3, -44, 33), (15, 39, 2, 14), (49, 57, 56, 49)]


# D = 1, so k_max = n*D (the default) and (n+2)*D + 2 (thm33)
@pytest.mark.parametrize("n,k_max", [(n, k) for n in (1, 2, 3, 4)
                                     for k in (n, n + 4)])
def test_walk_matches_the_box_scan_on_ik(n, k_max):
    P = ik_polytope(n).polytope
    hd = hodge_data(P, k_max)
    assert (hd.W, hd.H, hd.hodge_polygon) == _box_oracle(P, k_max)


@pytest.mark.parametrize("verts,on_boundary", _NON_IK)
def test_walk_matches_the_box_scan_off_ik(verts, on_boundary):
    P = build_polytope(verts)
    assert P.D > 1 and P.contains_origin
    assert bool(P.origin_facets) == on_boundary
    for k_max in (None, P.D + 1):
        hd = hodge_data(P, k_max)
        assert (hd.W, hd.H, hd.hodge_polygon) == \
            _box_oracle(P, P.dim * P.D if k_max is None else k_max)


@pytest.mark.parametrize("chunk", [1, 7])
def test_walk_pieces_stay_within_the_chunk(monkeypatch, chunk):
    cases = [(ik_polytope(2).polytope, 6), (build_polytope(_NON_IK[4][0]), 9)]
    want = [hodge_data(P, k) for P, k in cases]
    sizes = []
    expand = polytope._expand

    def spy(*args):
        for piece in expand(*args):
            sizes.append(len(piece))
            yield piece

    monkeypatch.setattr(polytope, "_CHUNK", chunk)
    monkeypatch.setattr(polytope, "_expand", spy)
    assert [hodge_data(P, k) for P, k in cases] == want
    assert max(sizes) == chunk


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached before the refusal")


def test_weight_and_overflow_refusals_come_first(monkeypatch):
    # every refusal comes before any array exists; all but the overflow
    # check, which reads the projection facets, before any hull is looked up
    polytope._hull.cache_clear()
    ik = ik_polytope(3).polytope
    huge, wide = build_polytope(_HUGE_D), build_polytope(_OVERFLOW)
    assert huge.D == 226759569
    hull, looked_up = polytope._hull, []
    size = hull.cache_info().currsize
    monkeypatch.setattr(polytope, "_hull",
                        lambda pts: looked_up.append(pts) or hull(pts))
    monkeypatch.setattr(polytope, "np", _NoNumpy())
    with pytest.raises(BudgetExceeded, match="weight counts"):
        hodge_data(huge)                        # k_max = 4 * D
    assert not looked_up and hull.cache_info().currsize == size
    with pytest.raises(BudgetExceeded, match="overflow int64"):
        hodge_data(wide, 1)
    assert len(looked_up) == wide.dim - 1      # its projections, hulled once
    with pytest.raises(ValueError, match="negative"):
        hodge_data(ik, -1)
    assert len(looked_up) == wide.dim - 1
    assert hull.cache_info().currsize == size + wide.dim - 1


def test_walk_cap_refuses_before_the_level_is_built(monkeypatch):
    # ik_polytope(3) at k_max = 7 walks levels of 15, 85, 295, 736 and
    # 2528 points; a cap of 1000 admits the first three
    P = ik_polytope(3).polytope
    built, expand = [], polytope._expand
    monkeypatch.setattr(polytope, "_expand", lambda *args: (
        built.append(piece) or piece for piece in expand(*args)))
    monkeypatch.setattr(polytope, "WALK_CAP", 1000)
    with pytest.raises(BudgetExceeded, match="visits 1131 points by level 4") as ei:
        hodge_data(P, 7)
    assert ei.value.estimate == 1131
    assert [len(piece) for piece in built] == [15, 85, 295]
    monkeypatch.setattr(polytope, "WALK_CAP", 3659)   # every level, exactly
    assert hodge_data(P, 7).W == _box_oracle(P, 7)[0]


def test_seven_dimensions_are_hulled():
    # 9 points in dimension 7: 36 subsets, refused by a dimension cap of 6
    # before the search was priced by its subsets
    e = [tuple(int(i == j) for j in range(7)) for i in range(7)]
    P = build_polytope([(0,) * 7, *e, (-1,) * 7])
    assert (P.D, len(P.vertices), len(P.gauge_facets)) == (1, 8, 8)
    assert hodge_data(P).H == (1,) * 8


def test_each_hull_is_built_once_per_process(monkeypatch):
    polytope._hull.cache_clear()
    ik_polytope.cache_clear()
    hull, looked_up = polytope._hull, []
    monkeypatch.setattr(polytope, "_hull",
                        lambda pts: looked_up.append(pts) or hull(pts))
    suites.suite_prop31()
    suites.suite_thm33()
    # ik_polytope(n) and its n + 1 projection hulls for n = 1..4 in each
    # suite: 36 hull requests (all built before the cache) of 12 distinct
    # point sets, as the projections of different n coincide.  ik_polytope
    # is cached too, so its 4 hulls are asked for once.
    assert len(looked_up) == 32 and len(set(looked_up)) == 12
    assert hull.cache_info().misses == hull.cache_info().currsize == 12
    assert ik_polytope(3) is ik_polytope(3)
    assert hodge_data(ik_polytope(3).polytope) == hodge_data(ik_polytope(3).polytope)
    assert hull.cache_info().misses == 12


# sha256 of repr([(W, H, hodge_polygon, normalized_volume), ...]), recorded
# while the walk was a recursion priced by the bounding box of the dilate
def test_hodge_bytes_are_pinned():
    cases = []
    for n in (1, 2, 3, 4):
        P = ik_polytope(n).polytope
        cases += [hodge_data(P), hodge_data(P, (n + 2) * P.D + 2)]
    for verts, _ in _NON_IK:
        P = build_polytope(verts)
        cases += [hodge_data(P), hodge_data(P, P.D + 1)]
    got = repr([(h.W, h.H, h.hodge_polygon, h.normalized_volume) for h in cases])
    assert hashlib.sha256(got.encode()).hexdigest() == \
        "ebe940f8de06ddf19ecf5ad9825804d750a20a1751a007d1f0110454f3e8e56a"


# sha256 of repr((vertices, gauge_facets, origin_facets, D)), recorded while
# each facet hyperplane was a cofactor expansion of dim + 1 minors
_HULL_DIGESTS = [
    (_NON_IK[0][0], "199d9a405c8883befd989009eaa31f01483c9aaf28640a3aac693afc08553bda"),
    (_NON_IK[1][0], "ec56f33a09eb66ec0420a38ff43013f021c46cc07825897c54b1829891432251"),
    (_NON_IK[2][0], "bbbd27140e79ec7cd815585abdc33f0de246bbfab5043e6695946ff9d561a381"),
    (_NON_IK[3][0], "8a911b4fc8da6bc33117c3dce492fc002b88de6f2a6f565bead81bdc1d2a22b1"),
    (_NON_IK[4][0], "9e3b054acb3043cc5b0dfdd4e24927e8d1dc63a0e9d88108e9f057dfa1e70664"),
    (_NON_IK[5][0], "593fb31388f0cbd776e327519499d9cb9a21f385c8b3b8b3ec496ff506aa5b58"),
    (_HUGE_D, "b429a9834dd0a28f975c02464cd1fc23c2ddd1a34ca964c495c04e9ba8196c56"),
    (_OVERFLOW, "7c9d4b8754862b4bd155a6f82a6f13a3967b84d0eb6b7e2169cc193208cef38c"),
    (1, "ddf282cdb29dfe0efcf2b111f12930a9e24a81d5b6d881bf4b230bef40295c38"),
    (2, "42b6f865a592e8fa8033e7393f8bf4407bed05b65e8e3b56787a205454644bb5"),
    (3, "6e76b38118d4cb535235e611c70cfb994816161013895eb4d2a852290d9d9928"),
    (4, "7411eb0e07cd9403ca2d912cb42895dd4fd7017c6f404fbaafe4a8e7e5c3efb7"),
    (5, "0f664809db03826b9ae3945ba25357f44fe00ae6252ac5ea591edea50d3c0da6"),
    (6, "e5cd59313771fad784da6e35c224cea82438205cbb92d30d77ec9d36e3f0eda9"),
    (7, "569d1d1661743778b5c4b170ba4d953bf1f640dac275b1bc03dd7733c9bd96ef"),
    (8, "0e7388bdf95ce133091b41b4032cea9b19eb3937dfd701adc1bda48b715b22e4"),
]


@pytest.mark.parametrize("src, digest", _HULL_DIGESTS, ids=[
    *(f"non_ik{i}" for i in range(6)), "huge_d", "overflow",
    *(f"ik{n}" for n in range(1, 9))])
def test_hull_bytes_are_pinned(src, digest):
    P = ik_polytope(src).polytope if isinstance(src, int) else build_polytope(src)
    got = repr((P.vertices, P.gauge_facets, P.origin_facets, P.D))
    assert hashlib.sha256(got.encode()).hexdigest() == digest


def test_empty_inputs():
    # refused by name before any indexing; a 0 x 0 determinant is 1
    with pytest.raises(ValueError, match="at least one point, got none"):
        build_polytope([])
    assert det_int([]) == 1


def invert_matrix(rows) -> list[list[Fraction]]:
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(i == j) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [r[n:] for r in m]


def _left_inverse(cols):
    """Integer A and d > 0 with A V = d I, V the matrix whose columns are
    cols (linearly independent): d times (V^T V)^-1 V^T, solved exactly."""
    gram = [[sum(a * b for a, b in zip(c1, c2)) for c2 in cols] for c1 in cols]
    inv = invert_matrix(gram)
    left = [[sum(inv[r][j] * cols[j][i] for j in range(len(cols)))
             for i in range(len(cols[0]))] for r in range(len(cols))]
    d = math.lcm(*(x.denominator for row in left for x in row))
    return np.array([[int(x * d) for x in row] for row in left],
                    dtype=np.int64), d


@pytest.mark.parametrize("n", [1, 2, 3])
def test_facial_inclusion_exclusion_of_weight_counts(n):
    # W_Delta = W_Delta1 + W_Delta2 - W_intersection, all four enumerated
    # independently (the intersection simplex by its exact left inverse)
    ik = ik_polytope(n)
    verts = ik.vertices
    kmax = n + 2
    hd = hodge_data(ik.polytope, kmax)
    d1 = hodge_data(build_polytope([verts[0]] + list(verts[1: n + 3])), kmax)
    d2 = hodge_data(build_polytope(
        [verts[0]] + list(verts[1: n + 2]) + [verts[n + 3]]), kmax)
    inter_cols = list(verts[1: n + 2])
    lo = [min(0, *(v[i] for v in inter_cols)) * kmax for i in range(n + 2)]
    hi = [max(0, *(v[i] for v in inter_cols)) * kmax for i in range(n + 2)]
    axes = [range(l, h + 1) for l, h in zip(lo, hi)]
    u = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n + 2)
    A, d = _left_inverse(inter_cols)
    lam = u @ A.T                               # d * lambda, u = V lambda
    in_span = (lam @ np.array(inter_cols) == d * u).all(axis=1)
    wd = lam.sum(axis=1) * ik.polytope.D        # d * D * weight
    ok = in_span & (lam >= 0).all(axis=1) & (wd <= kmax * d)
    assert (wd[ok] % d == 0).all()
    w3 = np.bincount(wd[ok] // d, minlength=kmax + 1)
    for k in range(kmax + 1):
        assert hd.W[k] == d1.W[k] + d2.W[k] - w3[k]


# ----------------------------------------------------------------------
# diagonal theory
# ----------------------------------------------------------------------

def _fraction_rank(rows):
    """Rank over Q by Gauss-Jordan elimination in Fractions: the oracle for
    polytope.frac_rank's fraction-free elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@given(st.integers(1, 7), st.data())
def test_frac_rank_matches_fraction_elimination(cols, data):
    row = st.lists(st.integers(-4, 4), min_size=cols, max_size=cols)
    rows = data.draw(st.lists(row, min_size=1, max_size=7))
    # integer combinations of the drawn rows make deficient ranks common
    for w in data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(rows),
                                         max_size=len(rows)), max_size=4)):
        rows.append([sum(c * r[j] for c, r in zip(w, rows)) for j in range(cols)])
    assert polytope.frac_rank(rows) == _fraction_rank(rows)


def _fraction_det(rows):
    """Determinant by Gaussian elimination in Fractions (1 when 0 x 0)."""
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def _cofactor_hyperplane(points, subset):
    """The cofactor expansion that polytope._hyperplane_from replaced: the
    oracle for its one-elimination kernel.  Same contract, up to sign."""
    a = [list(points[i]) + [1] for i in subset]
    vec = [(-1) ** j * int(_fraction_det([r[:j] + r[j + 1:] for r in a]))
           for j in range(len(a) + 1)]
    if not any(vec):
        return None
    g = math.gcd(*vec)
    return tuple(v // g for v in vec[:-1]), -vec[-1] // g


@given(st.integers(1, 6), st.data())
def test_hyperplane_kernel_matches_cofactor_expansion(dim, data):
    point = st.tuples(*[st.integers(-4, 4)] * dim)
    points = tuple(data.draw(st.lists(point, min_size=dim, max_size=dim + 3)))
    for subset in combinations(range(len(points)), dim):
        got = polytope._hyperplane_from(points, subset)
        want = _cofactor_hyperplane(points, subset)
        if want is None or got is None:
            assert got == want
        else:
            negated = (tuple(-c for c in want[0]), -want[1])
            assert got in (want, negated)
    square = [list(v) for v in points[:dim]]
    assert det_int(square) == _fraction_det(square)


def test_hyperplane_kernel_examples():
    pts = ((0, 0), (2, 0), (0, 3), (1, 1), (2, 2), (1, 1))
    assert polytope._hyperplane_from(pts, (0, 3)) in (((1, -1), 0), ((-1, 1), 0))
    assert polytope._hyperplane_from(pts, (1, 2)) in (((3, 2), 6), ((-3, -2), -6))
    assert polytope._hyperplane_from(pts, (3, 5)) is None      # a repeated point
    line = ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    assert polytope._hyperplane_from(line, (0, 1, 2)) is None
    # the free column need not be the last: x_2 = 0 leaves column 2 free
    assert polytope._hyperplane_from(((1, 0), (2, 0)), (0, 1)) in \
        (((0, 1), 0), ((0, -1), 0))


def test_frac_rank_examples():
    assert polytope.frac_rank([]) == 0
    assert polytope.frac_rank([[0, 0], [0, 0]]) == 0
    assert polytope.frac_rank([[2, 4, 6], [1, 2, 3], [0, 0, 5]]) == 2
    assert polytope.frac_rank([[0, 3], [5, 0], [7, 7]]) == 2
    big = 10 ** 30
    assert polytope.frac_rank([[big, big + 1], [3 * big, 3 * big + 3]]) == 1
    assert polytope.frac_rank([[big, 1], [1, 0]]) == 2


def test_det_int_and_hnf():
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[2, 0], [0, 3]]) == 6
    assert det_int([[1, 1], [2, 2]]) == 0


def test_diagonal_nondegenerate_examples():
    ik = ik_polytope(1)
    assert not diagonal_nondegenerate(ik.M1, 2)      # 2 | det = -2
    assert diagonal_nondegenerate(ik.M1, 3)
    ident = [[1, 0], [0, 1]]
    for p in (2, 3, 5, 7):
        assert diagonal_nondegenerate(ident, p)
    with pytest.raises(ValueError, match="singular"):
        diagonal_nondegenerate([[1, 1], [1, 1]], 3)


def test_solution_group_order_equals_det():
    for n in (1, 2, 3, 4):
        ik = ik_polytope(n)
        for m, d in [(ik.M1, ik.det1), (ik.M2, ik.det2)]:
            group, _ = ordinary_test(m, 7)
            assert len(group.elements) == abs(d)


def test_solution_group_weight_one_element():
    for n in (1, 2, 3):
        ik = ik_polytope(n)
        group, _ = ordinary_test(ik.M1, 7)
        want = tuple([Fraction(1, n + 1)] * (n + 1) + [Fraction(0)])
        assert want in group.elements


def test_solution_group_closed_under_addition():
    group, _ = ordinary_test(ik_polytope(3).M1, 7)
    elems = set(group.elements)
    for r in elems:
        for s in elems:
            assert tuple((a + b) % 1 for a, b in zip(r, s)) in elems


def test_ordinary_iff_p_congruent_1():
    ik = ik_polytope(2)
    _, s7 = ordinary_test(ik.M1, 7)
    _, s5 = ordinary_test(ik.M1, 5)
    assert s7 and not s5
    # identity matrix: trivial group, ordinary for every p
    for p in (2, 3, 5):
        group, stable = ordinary_test([[1, 0], [0, 1]], p)
        assert stable and group.elements == ((Fraction(0), Fraction(0)),)


@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)),
       st.sampled_from([2, 3, 5, 7]))
def test_solution_group_matches_brute_force(m, p):
    # every z in [0, N)^n with M z = 0 (mod N), over N, and the stability
    # verdict from the definition on those r of order prime to p
    N = abs(det_int(m))
    assume(0 < N and N ** len(m) <= 20000)
    want = sorted(tuple(Fraction(x, N) for x in z)
                  for z in product(range(N), repeat=len(m))
                  if all(sum(a * x for a, x in zip(row, z)) % N == 0 for row in m))
    group, stable = ordinary_test(m, p)
    assert list(group.elements) == want
    assert stable == all(sum(r) == sum(p * x % 1 for x in r) for r in want
                         if math.lcm(*(x.denominator for x in r)) % p)


def test_segment_group():
    group, stable = ordinary_test([[2]], 3)
    assert group.elements == ((Fraction(0),), (Fraction(1, 2),))
    assert stable   # {3 * 1/2} = 1/2, norm preserved


def test_facial_ordinary_matches_congruence():
    for n in (1, 2, 3):
        for p in (2, 3, 5, 7, 11, 13):
            if (n + 1) % p == 0:
                continue
            F = build_field(p, 1)
            rep = facial_ordinary(ik_laurent(F, n, 1), p)
            assert rep.ordinary == (p % (n + 1) == 1)
            assert len(rep.facets) == 2


def test_facial_ordinary_builds_no_fractions(monkeypatch):
    # the verdict and the group order come from the integer numerators; the
    # sorted Fraction elements are built only when read
    def unread(self):
        raise AssertionError("SolutionGroup.elements read on the verdict path")
    monkeypatch.setattr(polytope.SolutionGroup, "elements", property(unread))
    for n, p in [(1, 3), (2, 7), (2, 5), (3, 5)]:
        rep = facial_ordinary(ik_laurent(build_field(p, 1), n, 1), p)
        assert rep.ordinary == (p % (n + 1) == 1)
        assert [v.group_order for v in rep.facets] == [abs(v.det) for v in rep.facets]


def test_facial_ordinary_single_variable():
    for p in (2, 3, 5):
        F = build_field(p, 1)
        f = LaurentPoly(1, ((1, (1,)),))
        rep = facial_ordinary(f, p)
        assert rep.ordinary


def test_facial_ordinary_rejects_nondiagonal():
    F = build_field(5, 1)
    f = LaurentPoly(2, ((1, (1, 0)), (1, (1, 1)), (1, (1, 2))))
    with pytest.raises(ValueError, match="diagonal"):
        facial_ordinary(f, 5)

