"""Acceptance criteria, one test per criterion, each at its stated
tolerance.  Run with -v for one pass/fail line per criterion (add -s to
see the summary prints as they complete).
"""

import time
from fractions import Fraction

import pytest

from invkloos import expsum
from invkloos.errors import BudgetExceeded
from invkloos.gf import build_field
from invkloos.lfun import alpha_hodge_slopes, lfunction_pipeline
from invkloos.polytope import facial_ordinary
from invkloos.expsum import ik_laurent
from invkloos.suites import (suite_cor1, suite_identities, suite_prop31,
                             suite_thm0, suite_thm2, suite_thm33)

_PIPELINES: dict[tuple[int, int, int], object] = {}
_TIMINGS: dict[tuple[int, int], float] = {}


def _pipeline(n, p, b):
    key = (n, p, b)
    if key not in _PIPELINES:
        t0 = time.perf_counter()
        lf, _ = lfunction_pipeline(build_field(p, 1), n, b)
        _TIMINGS[(n, p)] = _TIMINGS.get((n, p), 0.0) + time.perf_counter() - t0
        _PIPELINES[key] = lf
    return _PIPELINES[key]


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)


def _assert_suite(rep, num: str, runtime_cap: float | None = None,
                  elapsed: float | None = None) -> None:
    bad = [c.name for c in rep.cases if c.status == "fail"]
    ok = rep.verdict == "pass" and (runtime_cap is None
                                    or elapsed <= runtime_cap)
    _report(num, ok, f"{len(rep.cases)} cases, failures: {bad or 'none'}"
            + (f", {elapsed:.1f}s (cap {runtime_cap:.0f}s)"
               if runtime_cap else ""))
    assert not bad, f"failing cases: {bad}"
    if runtime_cap is not None:
        assert elapsed <= runtime_cap


def test_criterion_01_elementary_bound_exhaustive():
    t0 = time.perf_counter()
    rep = suite_thm0(ps=(3, 5, 7), ns=(1, 2))
    _assert_suite(rep, "1", runtime_cap=60.0,
                  elapsed=time.perf_counter() - t0)


def test_criterion_02_toric_bound_exhaustive():
    t0 = time.perf_counter()
    rep = suite_thm2(ps=(3, 5, 7), ns=(1, 2))
    skips = [c.name for c in rep.cases if c.status == "skip"]
    assert skips == ["q=3 n=2"]     # exactly the p | n+1 cell is excluded
    _assert_suite(rep, "2", runtime_cap=60.0,
                  elapsed=time.perf_counter() - t0)


GRID3 = ((1, 3), (1, 5), (2, 7), (2, 13))


def test_criterion_03_ordinary_slopes_every_b():
    ok = True
    for n, p in GRID3:
        expected = sorted(alpha_hodge_slopes(n))
        for b in range(1, p):
            lf = _pipeline(n, p, b)
            assert len(lf.P_coeffs) == 2 * n + 1
            assert all(c.is_integral() for c in lf.P_coeffs)
            if sorted(lf.slopes) != expected:
                ok = False
    # stated runtimes: (1, .) < 1 s, (2,7) < 1 min, (2,13) < 30 min
    assert _TIMINGS[(1, 3)] < 1.0 and _TIMINGS[(1, 5)] < 1.0
    assert _TIMINGS[(2, 7)] < 60.0
    assert _TIMINGS[(2, 13)] < 1800.0
    _report("3", ok, f"slopes exact on {GRID3}, all b; "
            f"(2,13) took {_TIMINGS[(2, 13)]:.0f}s")
    assert ok


def test_criterion_04_complex_weights_every_b():
    worst = 0.0
    for n, p in GRID3:
        for b in range(1, p):
            lf = _pipeline(n, p, b)
            assert len(lf.complex_roots) == 2 * n
            for r in lf.complex_roots:
                worst = max(worst, abs(abs(r) - p ** (n / 2)) / p ** (n / 2))
    _report("4", worst <= 1e-5, f"max relative weight deviation {worst:.2e}")
    assert worst <= 1e-5


def test_criterion_05_nonordinary_contrast():
    n, p = 2, 5
    hp = _sorted_partials(alpha_hodge_slopes(n))
    ok = True
    for b in range(1, p):
        lf = _pipeline(n, p, b)
        np_ps = _sorted_partials(lf.slopes)
        above = all(a >= h for a, h in zip(np_ps, hp))
        endpoints = len(np_ps) == len(hp) and np_ps[-1] == hp[-1]
        differs = np_ps != hp
        ok = ok and above and endpoints and differs
    _report("5", ok, f"(2,5) polygon strictly above the ordinary one, "
            f"equal endpoints; slopes {sorted(_pipeline(2, 5, 1).slopes)}")
    assert ok


def _sorted_partials(slopes):
    out, acc = [], Fraction(0)
    for s in sorted(slopes):
        acc += s
        out.append(acc)
    return out


def test_criterion_06_tower_bound():
    rep = suite_cor1(grid=((1, 3), (1, 5), (2, 7)))
    _assert_suite(rep, "6")


def test_criterion_07_exact_identities():
    rep = suite_identities(ps=(3, 5, 7), ns=(1, 2))
    skipped = [c.name for c in rep.cases if c.status == "skip"]
    # only oversized toric enumerations may be skipped, never the algebra
    assert all(name.startswith("(b)") for name in skipped)
    ran_b = [c for c in rep.cases
             if c.name.startswith("(b)") and c.status == "pass"]
    assert len(ran_b) >= 6
    _assert_suite(rep, "7")


def test_criterion_08_heldout_power_sums():
    t0 = time.perf_counter()
    spec = {(1, 3): [3, 4], (1, 5): [3, 4], (2, 7): [5]}
    ok = True
    for (n, p), ks in spec.items():
        family = lfunction_pipeline(build_field(p, 1), n, range(1, p), heldout=ks)
        ok = ok and all(r.match for _, results in family for r in results)
    elapsed = time.perf_counter() - t0
    _report("8", ok and elapsed < 600,
            f"exact matches on {spec}, {elapsed:.0f}s (cap 600s)")
    assert ok and elapsed < 600


def test_criterion_09_polytope_suite():
    t0 = time.perf_counter()
    rep1 = suite_prop31(ns=(1, 2, 3, 4))
    rep2 = suite_thm33(ns=(1, 2, 3, 4))
    elapsed = time.perf_counter() - t0
    bad = [c.name for c in rep1.cases + rep2.cases if c.status == "fail"]
    ok = not bad and elapsed < 60
    _report("9", ok, f"D/dets/volume/Hodge/generating identity, "
            f"{elapsed:.1f}s (cap 60s)")
    assert ok, bad


def test_criterion_10_ordinariness_table():
    ok = True
    rows = 0
    for n in (1, 2, 3):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
            if (n + 1) % p == 0:
                continue
            F = build_field(p, 1)
            verdict = facial_ordinary(ik_laurent(F, n, 1), p).ordinary
            if verdict != (p % (n + 1) == 1):
                ok = False
            rows += 1
    _report("10", ok, f"{rows} (n,p) rows match the congruence exactly")
    assert ok


def test_out_of_scope_refuses_gracefully_on_budget(monkeypatch):
    # n=3, p=5 is in scope through the Gauss-sum transform; beyond it, an
    # n >= 2 case over the rounding bound or the table cap, an n = 1 case
    # over the table cap, and a direct enumeration over the point cap
    # must all be refused before any kernel runs
    kernel_calls = []
    for name in ("kloosterman_sum", "_inverted_hist", "_sum_one_counts",
                 "_pair_counts"):
        real = getattr(expsum, name)
        monkeypatch.setattr(expsum, name, lambda *a, _name=name, _real=real, **kw:
                            kernel_calls.append(_name) or _real(*a, **kw))
    F = build_field(5, 1)
    with pytest.raises(BudgetExceeded, match="rounding bound"):
        lfunction_pipeline(build_field(3, 1), 3, 1, heldout=[16])   # F_{3^16}, in the cap
    with pytest.raises(BudgetExceeded, match="table cap"):
        lfunction_pipeline(F, 3, 1, heldout=[12])
    with pytest.raises(BudgetExceeded, match="table cap") as ei:
        lfunction_pipeline(build_field(7, 1), 1, 1, heldout=[12])
    assert ei.value.estimate == 7 ** 12
    assert kernel_calls == []
    with pytest.raises(BudgetExceeded) as ei:
        expsum.kloosterman_sum(F, 6, 3, 1)
    assert ei.value.estimate > expsum.POINT_CAP
    assert kernel_calls == ["kloosterman_sum"]       # the entry, and no kernel
    _report("out-of-scope", True,
            f"enumeration of n=3 p=5 k=6 refused at {ei.value.estimate:.1e} "
            "points; transform beyond its bound and the table cap refused")
