import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from invkloos import cli, expsum, lfun, suites
from invkloos.cli import lfactorization_to_json
from invkloos.cyclotomic import CycloRational, embed_complex, reduce_mod_phi
from invkloos.errors import BudgetExceeded, DegenerateError, VerificationError
from invkloos.expsum import tower_sums
from invkloos.gf import build_field
from invkloos.lfun import (HeldoutResult, alpha_hodge_slopes, complex_weights,
                           elementary_to_power, lfunction_pipeline, lower_hull,
                           newton_polygon, newton_to_elementary,
                           predicted_power_sum, strip_trivial_roots)


def C(p, n):
    return CycloRational.from_int(p, n)


def star_sums(F, n, b, K):
    """S*_k = q^k S_{k,n}(b) + (q^k - 1)^n for k = 1..K, from the tower."""
    return [F.q ** k * reduce_mod_phi(tower_sums(F, k, n, [b])[0])
            + (F.q ** k - 1) ** n for k in range(1, K + 1)]


# ----------------------------------------------------------------------
# Newton identities
# ----------------------------------------------------------------------

def test_newton_identities_examples():
    es = newton_to_elementary([C(3, 5), C(3, 13)])
    assert [e.rational_value() for e in es] == [5, 6]          # roots 2, 3
    es = newton_to_elementary([C(3, 2), C(3, 2)])
    assert [e.rational_value() for e in es] == [2, 1]          # double root 1
    es = newton_to_elementary([C(3, 0), C(3, 0), C(3, 0)])
    assert all(e.is_zero() for e in es)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5))
def test_newton_roundtrip_against_brute_force(roots):
    p = 7
    d = len(roots)
    psums = [C(p, sum(r ** k for r in roots)) for k in range(1, d + 1)]
    es = newton_to_elementary(psums)
    # brute-force elementary symmetric functions
    from itertools import combinations
    for k in range(1, d + 1):
        want = sum(math.prod(c) for c in combinations(roots, k))
        assert es[k - 1] == C(p, want)
    back = elementary_to_power(es, d + 3)
    for k in range(1, d + 4):
        assert back[k - 1] == C(p, sum(r ** k for r in roots))


# ----------------------------------------------------------------------
# power sums
# ----------------------------------------------------------------------

def test_power_sums_first_value_q3():
    F = build_field(3, 1)
    star = star_sums(F, 1, 1, 1)
    # q S_{1,1}(1) + (q-1)^n = 3*(-1) + 2
    assert star[0] == C(3, -1)


def test_power_sums_refuses_degenerate_characteristic(monkeypatch):
    # p | n+1 is refused before any tower sum is read
    reads = []
    real = expsum.tower_sums
    monkeypatch.setattr("invkloos.lfun.tower_sums",
                        lambda *a, **kw: reads.append(a) or real(*a, **kw))
    with pytest.raises(DegenerateError, match="divides n\\+1"):
        lfunction_pipeline(build_field(3, 1), 2, 1)
    with pytest.raises(DegenerateError):
        lfunction_pipeline(build_field(2, 1), 1, [1])
    assert reads == []


def test_over_cap_table_refused_before_any_enumeration(monkeypatch):
    # F_{3^17} and F_{8209^2} are over the table cap while their points are
    # within the point cap: the refusal must come before any smaller k
    # enumerates, also when (p, n) = (3, 1) already has both classes cached
    F = build_field(3, 1)
    lfunction_pipeline(F, 1, [1, 2], heldout=[3])
    assert len(lfun._CLASSES) == 2
    kernel_calls = []
    for name in ("kloosterman_sum", "_inverted_hist", "_sum_one_counts",
                 "_pair_counts"):
        real = getattr(expsum, name)
        monkeypatch.setattr(expsum, name, lambda *a, _real=real, **kw:
                            kernel_calls.append(a) or _real(*a, **kw))
    with pytest.raises(BudgetExceeded, match="table cap") as ei:
        lfunction_pipeline(F, 1, 1, heldout=[13, 17])
    assert ei.value.estimate == 3 ** 17
    with pytest.raises(BudgetExceeded, match="table cap"):
        lfunction_pipeline(build_field(8209, 1), 1, 1)
    assert kernel_calls == []


def test_power_sum_growth_bound():
    # |S*_k - (-1)^n (q^k + 1)| <= 2n q^((n+2)k/2)
    for q, n, kmax in [(3, 1, 4), (5, 2, 2)]:
        F = build_field(q, 1)
        star = star_sums(F, n, 1, kmax)
        for k, s in enumerate(star, start=1):
            lhs = abs(embed_complex(s) - (-1) ** n * (q ** k + 1))
            assert lhs <= 2 * n * q ** ((n + 2) * k / 2) + 1e-6


# ----------------------------------------------------------------------
# stripping the trivial roots
# ----------------------------------------------------------------------

def test_strip_n1_q3():
    F = build_field(3, 1)
    star = star_sums(F, 1, 1, 2)
    lf = strip_trivial_roots(star, 1, 3, b=1)
    assert len(lf.P_coeffs) == 3
    assert lf.P_coeffs[0] == CycloRational.one(3)
    assert lf.P_coeffs[2].ord_q(3) == 1
    assert lf.slopes == (Fraction(0), Fraction(1))
    assert lf.coefficients_rational


def test_slope_sum_equals_leading_valuation():
    # Newton polygon endpoint: the slope multiset sums to ord_q(a_2n)
    for n, p, b in [(1, 3, 1), (1, 7, 3), (2, 5, 2)]:
        F = build_field(p, 1)
        lf = strip_trivial_roots(star_sums(F, n, b, 2 * n), n, p)
        assert sum(lf.slopes) == lf.P_coeffs[2 * n].ord_q(p)


def test_ordinary_n1_q7():
    # p = 7 is 1 mod (n+1) for n = 1, so the polygon must touch its bound
    F = build_field(7, 1)
    for b in (1, 5):
        lf, _ = lfunction_pipeline(F, 1, b)
        assert sorted(lf.slopes) == alpha_hodge_slopes(1)


def test_alpha_beta_roundtrip():
    # multiplying the alpha-roots by q must reproduce the beta power sums
    F = build_field(5, 1)
    star = star_sums(F, 1, 2, 2)
    lf = strip_trivial_roots(star, 1, 5)
    n, q = 1, 5
    es_beta = [lf.P_coeffs[k] * ((-1) ** k) * q ** k for k in range(1, 2 * n + 1)]
    psums = elementary_to_power(es_beta, 2 * n)
    for k in range(1, 2 * n + 1):
        want = (-1) ** n * star[k - 1] - 1 - q ** k
        assert psums[k - 1] == want


def test_strip_rejects_wrong_sign_convention():
    F = build_field(3, 1)
    star = star_sums(F, 1, 1, 2)
    bad = [s * (-1) for s in star]   # flips the parity branch
    with pytest.raises(VerificationError, match="not integral"):
        strip_trivial_roots(bad, 1, 3)


def test_assemble_trivial_parts():
    # strip_trivial_roots returns the trivial factor and the complex roots too
    F = build_field(3, 1)
    lf = strip_trivial_roots(star_sums(F, 1, 1, 2), 1, 3)
    assert lf.trivial_part == ((0, 2),)            # (1-T)^2 only
    assert lf.complex_roots == tuple(complex_weights(lf.P_coeffs))
    lf5 = strip_trivial_roots(star_sums(build_field(5, 1), 2, 1, 4), 2, 5)
    assert lf5.trivial_part == ((0, 3), (1, -1))   # (1-T)^3 (1-qT)^(-1)
    lf_n3, _ = lfunction_pipeline(build_field(5, 1), 3, 1)
    assert lf_n3.trivial_part == ((0, 4), (1, -3), (2, 1))
    assert len(lf_n3.complex_roots) == 6


# ----------------------------------------------------------------------
# polygons, weights
# ----------------------------------------------------------------------

def test_newton_polygon_examples():
    # coefficient ord pattern [0, 0, 1] gives slopes {0, 1}
    coeffs = [C(3, 1), C(3, 1), C(3, 3)]
    npg = newton_polygon(coeffs, 3)
    assert npg.slopes == (Fraction(0), Fraction(1))
    assert npg.vertices == ((0, Fraction(0)), (1, Fraction(0)), (2, Fraction(1)))


def test_newton_polygon_skips_zero_coefficients():
    coeffs = [C(3, 1), CycloRational.zero(3), C(3, 9)]
    npg = newton_polygon(coeffs, 3)
    assert npg.slopes == (Fraction(1), Fraction(1))
    assert len(npg.points) == 2


def test_newton_polygon_needs_unit_constant():
    with pytest.raises(ValueError):
        newton_polygon([C(3, 3), C(3, 1)], 3)
    with pytest.raises(ValueError):
        newton_polygon([3, 1], 3)


def test_newton_polygon_reads_rational_coefficients():
    # a rational coefficient is its element of Q(zeta_p), not its own ord
    assert newton_polygon([1, 3, 9], 3).slopes == (Fraction(1), Fraction(1))
    assert newton_polygon([1, Fraction(1, 3)], 3).slopes == (Fraction(-1),)
    assert newton_polygon([1, 5, 0, 125], 25).slopes == \
        (Fraction(1, 2),) * 3
    cyclo = [C(5, 1), CycloRational(5, (5, 0, -5, 0)), C(5, 0), C(5, 25)]
    mixed = [1, cyclo[1], 0, Fraction(25)]
    assert newton_polygon(mixed, 5) == newton_polygon(cyclo, 5)


def test_lower_hull():
    pts = [(0, Fraction(0)), (1, Fraction(2)), (2, Fraction(1)),
           (3, Fraction(5))]
    hull = lower_hull(pts)
    assert hull == [(0, Fraction(0)), (2, Fraction(1)), (3, Fraction(5))]


def test_complex_weights_examples():
    F = build_field(3, 1)
    lf = strip_trivial_roots(star_sums(F, 1, 1, 2), 1, 3)
    roots = complex_weights(lf.P_coeffs)
    assert len(roots) == 2
    assert all(abs(m - 3 ** 0.5) < 1e-6 for m in sorted(abs(a) for a in roots))
    assert complex_weights([CycloRational.one(3)]) == []


def test_alpha_hodge_slopes():
    assert alpha_hodge_slopes(1) == [0, 1]
    assert alpha_hodge_slopes(2) == [0, 1, 1, 2]
    assert alpha_hodge_slopes(3) == [0, 1, 1, 2, 2, 3]


# ----------------------------------------------------------------------
# the full pipeline and the held-out check
# ----------------------------------------------------------------------

def test_pipeline_n1_q5_all_b():
    F = build_field(5, 1)
    for b in range(1, 5):
        lf, res = lfunction_pipeline(F, 1, b, heldout=[3, 4])
        assert sorted(lf.slopes) == alpha_hodge_slopes(1)
        assert all(r.match for r in res)
        assert all(abs(abs(r) - 5 ** 0.5) < 1e-5 for r in lf.complex_roots)


def test_pipeline_even_branch_n2_q5():
    # q=5, n=2 exercises the even sign branch cheaply (non-ordinary slopes)
    F = build_field(5, 1)
    lf, res = lfunction_pipeline(F, 2, 1, heldout=[5])
    assert len(lf.P_coeffs) == 5
    assert all(r.match for r in res)
    hp = alpha_hodge_slopes(2)
    acc_np = acc_hp = Fraction(0)
    for s_np, s_hp in zip(sorted(lf.slopes), hp):
        acc_np += s_np
        acc_hp += s_hp
        assert acc_np >= acc_hp
    assert sum(lf.slopes) == sum(hp)        # equal polygon endpoints
    assert sorted(lf.slopes) != hp          # and strictly above somewhere


def test_pipeline_n3_q5_ordinary_with_heldout_k7(monkeypatch):
    # p = 5 = 1 mod 4: the ordinary slopes {0,1,1,2,2,3} for every b; n >= 2
    # goes through the Gauss-sum transform and never enumerates
    kernel_calls = []
    for name in ("kloosterman_sum", "_inverted_hist"):
        real = getattr(expsum, name)
        monkeypatch.setattr(expsum, name, lambda *a, _real=real, **kw:
                            kernel_calls.append(a) or _real(*a, **kw))
    F = build_field(5, 1)
    for b in range(1, 5):
        lf, res = lfunction_pipeline(F, 3, b, heldout=[7])
        assert sorted(lf.slopes) == alpha_hodge_slopes(3)
        assert [(r.k, r.match) for r in res] == [(7, True)]
        assert all(abs(abs(r) - 5 ** 1.5) < 1e-5 * 5 ** 1.5
                   for r in lf.complex_roots)
    assert kernel_calls == []


def test_heldout_on_training_range_is_consistent():
    F = build_field(3, 1)
    _, res = lfunction_pipeline(F, 1, 2, heldout=[1, 2])
    assert [(r.k, r.match) for r in res] == [(1, True), (2, True)]


def test_predicted_power_sum_matches_known_value():
    F = build_field(3, 1)
    lf, _ = lfunction_pipeline(F, 1, 1)
    assert predicted_power_sum(lf, [1]) == [C(3, -1)]
    # one pass serves held-out k in any order, each as its own pass would
    sums = [reduce_mod_phi(tower_sums(F, k, 1, [1])[0]) for k in (5, 1, 3)]
    assert predicted_power_sum(lf, [5, 1, 3]) == sums == \
        [predicted_power_sum(lf, [k])[0] for k in (5, 1, 3)]


@pytest.mark.parametrize("bad", [{1, 2, 3, 4}, {2}])
def test_thm1_weights_fail_when_a_pipeline_raised(monkeypatch, bad):
    # a b whose pipeline raised has no roots to check, so the weights case
    # of its (n, p) cannot pass, whether every b raised or only one
    real = suites.lfunction_pipeline

    def pipeline(F, n, bs, **kw):
        if (n, F.p) == (1, 5) and bad & set(bs):
            raise VerificationError("raised for the test")
        return real(F, n, bs, **kw)

    monkeypatch.setattr(suites, "lfunction_pipeline", pipeline)
    rep = suites.suite_thm1(grid=((1, 5),))
    status = {c.name: c.status for c in rep.cases}
    assert status["weights n=1 p=5 (all b)"] == "fail"
    assert status["slopes n=1 p=5 (all b)"] == "fail"
    assert rep.verdict == "fail"


def test_thm1_nonordinary_raise_fails_its_case(monkeypatch):
    # a raise in the non-ordinary contrast fails that case, not the report
    real = suites.lfunction_pipeline

    def pipeline(F, n, bs, **kw):
        if F.p == 5:
            raise VerificationError("raised for the test")
        return real(F, n, bs, **kw)

    monkeypatch.setattr(suites, "THM1_GRID", ((1, 3),))
    monkeypatch.setattr(suites, "lfunction_pipeline", pipeline)
    rep = suites.suite_thm1()
    status = {c.name: c.status for c in rep.cases}
    assert status["nonordinary n=2 p=5"] == "fail"
    assert status["slopes n=1 p=3 (all b)"] == "pass"
    assert rep.verdict == "fail"


@pytest.mark.parametrize("n,p", [(1, 5), (2, 7)])
def test_thm1_reads_each_tower_sum_once(monkeypatch, n, p):
    # every b of (n, p) shares one count array per k = 1..2n and held-out
    # k, where one pipeline call per b built (p - 1) x 5 at (2, 7); n = 1
    # counts pairs and enumerates nothing; only class representatives are
    # served
    builds, enumerated = [], []
    for name in ("_pair_counts", "_sum_one_counts"):
        real = getattr(expsum, name)
        monkeypatch.setattr(expsum, name, lambda E, *a, _real=real, _name=name:
                            builds.append((_name, E.q, *a)) or _real(E, *a))
    for name in ("kloosterman_sum", "_inverted_hist"):
        real = getattr(expsum, name)
        monkeypatch.setattr(expsum, name, lambda *a, _real=real, **kw:
                            enumerated.append(a) or _real(*a, **kw))
    served = []

    class Served(dict):                     # one store per served histogram
        def __setitem__(self, key, hist):
            served.append(key[2])
            super().__setitem__(key, hist)
    monkeypatch.setattr(expsum, "_TOWER", Served())
    rep = suites.suite_thm1(grid=((n, p),))
    assert rep.verdict == "pass"
    ks = sorted({*range(1, 2 * n + 1), *suites.HELDOUT[(n, p)]})
    assert builds == ([("_pair_counts", p ** k) for k in ks] if n == 1 else
                      [("_sum_one_counts", p ** k, n) for k in ks])
    assert enumerated == []
    # the p - 1 values of b fall into gcd(n+1, p-1) classes, one serve each
    assert served == [k for k in ks for _ in range(math.gcd(n + 1, p - 1))]


@pytest.mark.parametrize("p,n", [(7, 1), (7, 2), (13, 2)])
def test_per_b_pipeline_builds_one_count_array_per_k(monkeypatch, p, n):
    # the first b serves every class at each k, so the later calls, one per
    # b and each of a class not yet reconstructed, build nothing
    builds = []
    for name in ("_pair_counts", "_sum_one_counts"):
        real = getattr(expsum, name)
        monkeypatch.setattr(expsum, name, lambda E, *a, _real=real:
                            builds.append(E.q) or _real(E, *a))
    F = build_field(p, 1)
    ks = range(1, 2 * n + 2)
    for b in range(1, p):
        lfunction_pipeline(F, n, b, heldout=(2 * n + 1,))
    assert builds == [p ** k for k in ks]
    h = math.gcd(n + 1, p - 1)
    assert sorted(expsum._TOWER) == sorted((p, 1, k, n, int(r)) for k in ks
                                           for r in F.exp[:h])
    for k in (1, 2):
        for b, v in zip(range(1, p), tower_sums(F, k, n, range(1, p)), strict=True):
            assert v.tolist() == expsum.kloosterman_sum(F, k, n, b)[:, 0].tolist()
    assert len(builds) == len(ks)


@pytest.mark.parametrize("n,p", [(1, 5), (2, 7), (3, 5)])
def test_pipeline_family_equals_per_b_calls(n, p):
    F = build_field(p, 1)
    ks = suites.HELDOUT[(n, p)]
    family = lfunction_pipeline(F, n, range(1, p), heldout=ks)
    assert [lfactorization_to_json(*pair) for pair in family] == \
        [lfactorization_to_json(*lfunction_pipeline(F, n, b, heldout=ks))
         for b in range(1, p)]


@pytest.mark.parametrize("target", ["predicted_power_sum", "tower_sums"])
def test_heldout_mismatch_caches_nothing_and_raises_again(monkeypatch, target):
    # a wrong prediction, or a wrong held-out sum, fails every call: the
    # failing class keeps no reconstruction and no served histogram
    real = getattr(lfun, target)

    def wrong(*a, **kw):
        out = real(*a, **kw)
        if target == "predicted_power_sum":
            return [x + 1 for x in out]
        if a[1] == 3:                                       # the k = 3 sums
            out[:, 0] += 1
        return out
    monkeypatch.setattr(lfun, target, wrong)
    F = build_field(5, 1)
    for _ in range(2):
        with pytest.raises(VerificationError, match="k=3"):
            lfunction_pipeline(F, 1, range(1, 5), heldout=[3])
        assert lfun._CLASSES == {}
        assert not [key for key in expsum._TOWER if key[4] == 1]   # b = 1's class
    monkeypatch.undo()
    warm = lfunction_pipeline(F, 1, range(1, 5), heldout=[3])
    lfun._CLASSES.clear()
    expsum._TOWER.clear()
    assert [lfactorization_to_json(*pair) for pair in warm] == \
        [lfactorization_to_json(*pair)
         for pair in lfunction_pipeline(F, 1, range(1, 5), heldout=[3])]


def _lfun_json(capsys, p, a, n, b, ks):
    assert cli.main(["lfun", "--p", str(p), "--a", str(a), "--n", str(n),
                     "--b", str(b), "--heldout", ks, "--out", "json"]) == 0
    return capsys.readouterr().out


# sigma_c and sigma_{1/c} differ by sigma_{c^2}, which fixes every sum when
# c^2 is a root of unity of order dividing 2 gcd(n+1, p-1): at (1, 5), (2, 7),
# (3, 5) and q = 9 every c does, so (1, 7) and (2, 13) tell the two apart
@pytest.mark.parametrize("p,a,n,ks", [(5, 1, 1, "3,4"), (7, 1, 2, "5"),
                                      (5, 1, 3, "7"), (3, 2, 1, "3,4"),
                                      (7, 1, 1, "3"), (13, 1, 2, "")])
def test_lfun_json_is_the_same_cold_warm_and_in_any_order(capsys, direct_serve,
                                                         p, a, n, ks):
    F = build_field(p, a)
    bs, heldout = range(1, F.q), [int(k) for k in ks.split(",") if k]

    def cold_caches():
        lfun._CLASSES.clear()
        expsum._TOWER.clear()
    # the per-b oracle: sums served for b itself, P rebuilt from them alone
    oracle = []
    for b in bs:
        sums = {k: reduce_mod_phi(direct_serve(F, k, n, b))
                for k in [*range(1, 2 * n + 1), *heldout]}
        lf = strip_trivial_roots([F.q ** k * sums[k] + (F.q ** k - 1) ** n
                                  for k in range(1, 2 * n + 1)], n, F.q, b=b)
        assert predicted_power_sum(lf, heldout) == [sums[k] for k in heldout]
        oracle.append(json.dumps(lfactorization_to_json(
            lf, [HeldoutResult(k, True) for k in heldout]), sort_keys=True) + "\n")
    cold = []
    for b in bs:
        cold_caches()
        cold.append(_lfun_json(capsys, p, a, n, b, ks))
    cold_caches()
    forward = [_lfun_json(capsys, p, a, n, b, ks) for b in bs]
    cold_caches()
    backward = [_lfun_json(capsys, p, a, n, b, ks) for b in reversed(bs)][::-1]
    cold_caches()
    family = [json.dumps(lfactorization_to_json(*pair), sort_keys=True) + "\n"
              for pair in lfunction_pipeline(F, n, bs, heldout=heldout)]
    assert cold == forward == backward == family == oracle
