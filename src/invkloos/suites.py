"""Verification suites mapping the package's quantitative claims to
machine-checkable cases.

Each suite returns a VerifyReport whose cases carry the checked
inequality or equality with both sides evaluated.  Reports are
deterministic: given identical flags the JSON rendering is byte
identical across runs (wall times appear only in the human table).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cyclotomic import embed_counts, reduce_counts
from .errors import VerificationError
from .expsum import (e_sum, gauss_formula_parts, ik_laurent, kloosterman_sums,
                     tn_transform, toric_sum, tower_sums)
from .gf import build_field
from .lfun import alpha_hodge_slopes, lfunction_pipeline
from .polytope import (diagonal_nondegenerate, facial_ordinary, hodge_data,
                       ik_polytope)

TOL = 1e-6                  # slack on the float side of the bound suites
WEIGHT_REL_TOL = 1e-5       # thm1: max relative deviation of |alpha_i| from q^(n/2)
HELDOUT = {(1, 3): [3, 4], (1, 5): [3, 4], (2, 7): [5], (3, 5): [7]}   # thm1
THM1_GRID = ((1, 3), (1, 5), (2, 7), (2, 13), (3, 5))    # thm1 default (n, p)
NONORDINARY = ((2, 5),)     # thm1 default: (n, p) with slopes above Hodge
TORIC_GRID = ((1, 3), (1, 5), (2, 7), (2, 13))           # identities (b): (n, p)
TORIC_CAP = 10 ** 7         # identities (b): skip cells over this many points
ND_PRIMES = (2, 3, 5, 7, 11, 13)    # prop31: primes of the non-degeneracy test


@dataclass
class CaseResult:
    name: str
    status: str                 # pass / fail / skip
    lhs: str = ""
    rhs: str = ""
    detail: str = ""
    seconds: float = 0.0


@dataclass
class VerifyReport:
    suite: str
    claim: str
    grid: dict
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.cases) else "pass"

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "claim": self.claim,
            "grid": self.grid,
            "cases": [
                {"name": c.name, "status": c.status, "lhs": c.lhs,
                 "rhs": c.rhs, "detail": c.detail}
                for c in self.cases
            ],
            "verdict": self.verdict,
        }

    def to_table(self) -> str:
        lines = [f"suite {self.suite}: {self.claim}",
                 f"grid: {self.grid}"]
        for c in self.cases:
            lines.append(
                f"  [{c.status.upper():4s}] {c.name:42s} "
                f"lhs={c.lhs} rhs={c.rhs} {c.detail} ({c.seconds:.2f}s)")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["suite,case,status,lhs,rhs,detail"]
        for c in self.cases:
            rows.append(f"{self.suite},{c.name},{c.status},{c.lhs},{c.rhs},"
                        f"\"{c.detail}\"")
        return "\n".join(rows)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _timed_case(cases: list[CaseResult], name: str, t0: float, ok: bool,
                lhs, rhs, detail: str = "") -> None:
    cases.append(CaseResult(name, "pass" if ok else "fail", _fmt(lhs),
                            _fmt(rhs), detail, time.perf_counter() - t0))


def _char_tuples(q: int, n: int) -> np.ndarray:
    """Every (n+1)-tuple of characters of F_q as (C, n+1) indices, in
    lexicographic order."""
    return np.indices((q - 1,) * (n + 1)).reshape(n + 1, -1).T


def twisted_errors(F, n: int, b: int, main: float) -> tuple[np.ndarray, np.ndarray]:
    """|S_n(chi, b) + main chi_1(b)| over F_q for the tuples chi of equal
    characters and |S_n(chi, b)| for the others, every tuple in the order of
    _char_tuples, from one kloosterman_sums stack and one embedding; with
    the mask of the equal tuples."""
    J = _char_tuples(F.q, n)
    s = embed_counts(kloosterman_sums(F, 1, n, b, J))
    equal = (J == J[:, :1]).all(axis=1)
    M, db = F.q - 1, int(F.dlog[b])             # chi_j(b) = e^(2 pi i j db/M)
    s[equal] += main * np.exp(2j * np.pi * (J[equal, 0] * db % M) / M)
    return np.abs(s), equal


# ----------------------------------------------------------------------
# bound suites
# ----------------------------------------------------------------------

def suite_thm0(ps=(3, 5, 7), ns=(1, 2)) -> VerifyReport:
    rep = VerifyReport(
        "thm0",
        "elementary bound: |S_n + (q-1)^n/q chi_1(b)| <= q^((n+1)/2) for "
        "equal characters, |S_n| <= q^((n+1)/2) otherwise",
        {"q": list(ps), "n": list(ns), "tol": TOL})
    for p in ps:
        F = build_field(p, 1)
        q = p
        for n in ns:
            t0 = time.perf_counter()
            bound = q ** ((n + 1) / 2)
            worst = 0.0
            count = 0
            for b in range(1, q):
                err, _ = twisted_errors(F, n, b, (q - 1) ** n / q)
                worst = max(worst, float(err.max()))
                count += len(err)
            _timed_case(rep.cases, f"q={q} n={n} ({count} cases)", t0,
                        worst <= bound + TOL, worst, bound, "max |lhs|")
    return rep


def suite_thm2(ps=(3, 5, 7), ns=(1, 2)) -> VerifyReport:
    rep = VerifyReport(
        "thm2",
        "toric bound for gcd(p, n+1) = 1: "
        "|S_n + ((q-1)^n - (-1)^n)/q chi_1(b)| <= (2n+1) q^(n/2) for equal "
        "characters, |S_n| <= 2(n+1) q^(n/2) otherwise",
        {"q": list(ps), "n": list(ns), "tol": TOL})
    for p in ps:
        F = build_field(p, 1)
        q = p
        for n in ns:
            name = f"q={q} n={n}"
            if (n + 1) % p == 0:
                rep.cases.append(CaseResult(
                    name, "skip", detail=f"p={p} divides n+1={n + 1}"))
                continue
            t0 = time.perf_counter()
            worst_eq = worst_ne = 0.0
            count = 0
            for b in range(1, q):
                err, equal = twisted_errors(F, n, b, ((q - 1) ** n - (-1) ** n) / q)
                worst_eq = max(worst_eq, float(err[equal].max()))
                worst_ne = max(worst_ne, float(err[~equal].max(initial=0.0)))
                count += len(err)
            b_eq = (2 * n + 1) * q ** (n / 2)
            b_ne = 2 * (n + 1) * q ** (n / 2)
            ok = worst_eq <= b_eq + TOL and worst_ne <= b_ne + TOL
            _timed_case(rep.cases, f"{name} ({count} cases)", t0, ok,
                        f"{worst_eq:.9g}/{worst_ne:.9g}",
                        f"{b_eq:.9g}/{b_ne:.9g}", "max equal / max unequal")
    return rep


def suite_cor1(grid=((1, 3), (1, 5), (2, 7))) -> VerifyReport:
    rep = VerifyReport(
        "cor1",
        "untwisted tower bound: "
        "|S_{k,n}(b) + ((q^k-1)^n - (-1)^n (q^k+1))/q^k| <= 2n q^(nk/2)",
        {"grid": [list(g) for g in grid], "k": "1..2n", "tol": TOL})
    for n, p in grid:
        F = build_field(p, 1)
        q = p
        for k in range(1, 2 * n + 1):
            t0 = time.perf_counter()
            main = ((q ** k - 1) ** n - (-1) ** n * (q ** k + 1)) / q ** k
            worst = np.abs(embed_counts(tower_sums(F, k, n, range(1, q))[..., None])
                           + main).max()
            bound = 2 * n * q ** (n * k / 2)
            _timed_case(rep.cases, f"n={n} q={q} k={k}", t0,
                        worst <= bound + TOL, worst, bound, "max |lhs|")
    return rep


# ----------------------------------------------------------------------
# L-function suite
# ----------------------------------------------------------------------

def _sorted_partial_sums(slopes) -> list[Fraction]:
    out, acc = [], Fraction(0)
    for s in sorted(slopes):
        acc += s
        out.append(acc)
    return out


def suite_thm1(grid=None, *, bs: tuple[int, ...] | None = None) -> VerifyReport:
    ordinary_table = grid is None   # the default grid adds NONORDINARY and the table
    grid, nonordinary = (THM1_GRID, NONORDINARY) if ordinary_table else (grid, ())
    rep = VerifyReport(
        "thm1",
        "degree-2n nontrivial factor with integral coefficients, reciprocal "
        "roots of modulus q^(n/2), ordinary slope sequence "
        "{0,1,1,...,n-1,n-1,n} exactly when p = 1 mod n+1; held-out power "
        "sums must match their recomputed values exactly",
        {"grid": [list(g) for g in grid],
         "nonordinary": [list(g) for g in nonordinary],
         "heldout": {f"{k[0]},{k[1]}": v for k, v in HELDOUT.items()},
         "ordinary_table": ordinary_table})

    def family(n, p, heldout=()):
        """(lf, held-out results) for every b, from one tower pass, or None
        when the pipeline raised: then no b has roots or slopes to check."""
        try:
            return lfunction_pipeline(build_field(p, 1), n,
                                      bs if bs is not None else range(1, p),
                                      heldout=heldout)
        except VerificationError:
            return None

    for n, p in grid:
        expected = alpha_hodge_slopes(n)
        ks = HELDOUT.get((n, p), [])
        t0 = time.perf_counter()
        pairs = family(n, p, ks)
        slope_ok = pairs is not None and all(sorted(lf.slopes) == sorted(expected)
                                             for lf, _ in pairs)
        held_ok = pairs is not None         # a held-out mismatch raises in the pipeline
        worst_rel = math.inf if pairs is None else max(
            (abs(abs(r) - p ** (n / 2)) / p ** (n / 2)
             for lf, _ in pairs for r in lf.complex_roots), default=0.0)
        elapsed = time.perf_counter() - t0
        rep.cases.append(CaseResult(
            f"slopes n={n} p={p} (all b)", "pass" if slope_ok else "fail",
            "exact", "{" + ",".join(str(s) for s in expected) + "}",
            "degree and integrality asserted upstream", elapsed))
        rep.cases.append(CaseResult(
            f"weights n={n} p={p} (all b)",
            "pass" if worst_rel <= WEIGHT_REL_TOL else "fail",
            _fmt(worst_rel), _fmt(WEIGHT_REL_TOL), "max relative deviation"))
        if ks:
            rep.cases.append(CaseResult(
                f"heldout n={n} p={p} k={ks}", "pass" if held_ok else "fail",
                "match", "match", "exact in Z[zeta_p]"))

    for n, p in nonordinary:
        hp = _sorted_partial_sums(alpha_hodge_slopes(n))
        t0 = time.perf_counter()
        pairs = family(n, p)
        ok = pairs is not None
        for lf, _ in pairs or ():
            np_ps = _sorted_partial_sums(lf.slopes)
            above = all(a >= h for a, h in zip(np_ps, hp))
            endpoints = len(np_ps) == len(hp) and np_ps[-1] == hp[-1]
            ok = ok and above and endpoints and np_ps != hp
        seen = ("{" + ",".join(str(s) for s in sorted(pairs[0][0].slopes)) + "}"
                if pairs else "")
        _timed_case(rep.cases, f"nonordinary n={n} p={p}", t0, ok, seen,
                    "strictly above, same endpoints", "observed slopes")

    if ordinary_table:
        t0 = time.perf_counter()
        ok = True
        checked = 0
        for n in (1, 2, 3):
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
                if (n + 1) % p == 0:
                    continue
                F = build_field(p, 1)
                verdict = facial_ordinary(ik_laurent(F, n, 1), p).ordinary
                if verdict != (p % (n + 1) == 1):
                    ok = False
                checked += 1
        _timed_case(rep.cases, "ordinariness table n<=3, p<30", t0, ok,
                    f"{checked} (n,p) pairs", "verdict == (p = 1 mod n+1)")
    return rep


# ----------------------------------------------------------------------
# polytope suites
# ----------------------------------------------------------------------

def suite_prop31(ns=(1, 2, 3, 4)) -> VerifyReport:
    rep = VerifyReport(
        "prop31",
        "denominator 1, facet determinants -(n+1) and n+1, normalized "
        "volume 2n+2, diagonal non-degeneracy exactly when gcd(p, n+1) = 1",
        {"n": list(ns), "primes": list(ND_PRIMES)})
    for n in ns:
        t0 = time.perf_counter()
        ik = ik_polytope(n)
        hd = hodge_data(ik.polytope)
        ok = (ik.polytope.D == 1 and ik.det1 == -(n + 1) and ik.det2 == n + 1
              and hd.normalized_volume == 2 * n + 2
              and len(ik.polytope.gauge_facets) == 2)
        _timed_case(rep.cases, f"n={n} D/dets/nvol", t0, ok,
                    f"D={ik.polytope.D} dets=({ik.det1},{ik.det2}) "
                    f"nvol={hd.normalized_volume}",
                    f"D=1 dets=({-(n + 1)},{n + 1}) nvol={2 * n + 2}")
        t0 = time.perf_counter()
        nd_ok = all(diagonal_nondegenerate(ik.M1, p) == ((n + 1) % p != 0)
                    and diagonal_nondegenerate(ik.M2, p) == ((n + 1) % p != 0)
                    for p in ND_PRIMES)
        _timed_case(rep.cases, f"n={n} non-degeneracy iff p∤(n+1)", t0, nd_ok,
                    "checked", f"primes {list(ND_PRIMES)}")
    return rep


def _w_series_expected(n: int, kmax: int) -> list[int]:
    """Coefficients of (1 + 2x + ... + 2x^n + x^(n+1)) / (1-x)^(n+2)."""
    pattern = [1] + [2] * n + [1]
    out = []
    for k in range(kmax + 1):
        out.append(sum(pattern[j] * math.comb(n + 1 + k - j, n + 1)
                       for j in range(min(k, n + 1) + 1)))
    return out


def suite_thm33(ns=(1, 2, 3, 4)) -> VerifyReport:
    rep = VerifyReport(
        "thm33",
        "Hodge numbers {1,2,...,2,1} (n+2 of them), vanishing beyond, and "
        "the weight-count generating identity "
        "sum W x^k = (1+2x+...+2x^n+x^(n+1))/(1-x)^(n+2)",
        {"n": list(ns)})
    for n in ns:
        t0 = time.perf_counter()
        ik = ik_polytope(n)
        kmax = (n + 2) * ik.polytope.D + 2
        hd = hodge_data(ik.polytope, kmax)
        want = tuple([1] + [2] * n + [1])
        hodge_ok = hd.H[: n + 2] == want and all(h == 0 for h in hd.H[n + 2:])
        _timed_case(rep.cases, f"n={n} Hodge numbers", t0, hodge_ok,
                    str(hd.H[: n + 3]), str(want + (0,)),
                    f"and H(k)=0 up to k={kmax}")
        t0 = time.perf_counter()
        w_ok = list(hd.W) == _w_series_expected(n, kmax)
        _timed_case(rep.cases, f"n={n} weight generating identity", t0, w_ok,
                    str(list(hd.W[: n + 2])),
                    str(_w_series_expected(n, n + 1)),
                    f"all degrees up to {kmax}")
        t0 = time.perf_counter()
        sum_ok = sum(hd.H) == 2 * n + 2
        _timed_case(rep.cases, f"n={n} sum H = (n+2)! Vol", t0, sum_ok,
                    sum(hd.H), 2 * n + 2)
    return rep


# ----------------------------------------------------------------------
# exact identity suite
# ----------------------------------------------------------------------

def suite_identities(ps=(3, 5, 7), ns=(1, 2)) -> VerifyReport:
    rep = VerifyReport(
        "identities",
        "exact algebra: (a) q S_n = -(q-1)^n chi_1(b) + chi_1(b) E_n (equal "
        "characters) and q S_n = chi_{n+1}(b) E_n otherwise; (b) toric "
        "S*_k = q^k S_{k,n} + (q^k-1)^n; (c) parameter transform "
        "T_n(chi,b) = chi_1...chi_{n+1}(b) S_n(chi, b^-(n+1)); (d) the "
        "Gauss-formula oracle agrees with enumeration",
        {"q": list(ps), "n": list(ns), "grid3": [list(g) for g in TORIC_GRID],
         "toric_cap": TORIC_CAP})

    # (a) the auxiliary-sum rewrite, exact: q S_n - chi_{n+1}(b) E_n + [equal]
    # (q-1)^n chi_1(b) reduced once per (q, n, b); both stacks have m = q-1
    for p in ps:
        F = build_field(p, 1)
        q, M = p, p - 1
        for n in ns:
            t0 = time.perf_counter()
            ok = True
            count = 0
            J = _char_tuples(q, n)
            equal = (J == J[:, :1]).all(axis=1)
            for b in range(1, q):
                shift = J[:, n] * int(F.dlog[b]) % M     # j_1 = j_{n+1} if equal
                rhs = np.take_along_axis(e_sum(F, n, b, J),
                                         (np.arange(M) - shift[:, None])[:, None] % M,
                                         axis=2)
                rhs[equal, 0, shift[equal]] -= (q - 1) ** n
                ok = ok and not reduce_counts(
                    q * kloosterman_sums(F, 1, n, b, J) - rhs).any()
                count += len(J)
            _timed_case(rep.cases, f"(a) rewrite q={q} n={n}", t0, ok,
                        "exact", "exact", f"{count} cases")

    # (b) S*_k = q^k S_{k,n}(b) + (q^k-1)^n exactly: the toric enumeration
    # against the tower route (pair counts at n = 1, the transform at n >= 2),
    # which shares no enumeration code with it; one tower_sums call per cell
    for n, p in TORIC_GRID:
        F = build_field(p, 1)
        q = p
        for k in range(1, 2 * n + 1):
            name = f"(b) toric relation n={n} q={q} k={k}"
            pts = (q ** k - 1) ** (n + 2)
            if pts > TORIC_CAP:
                rep.cases.append(CaseResult(
                    name, "skip",
                    detail=f"toric enumeration {pts} points over cap {TORIC_CAP}"))
                continue
            t0 = time.perf_counter()
            diff = np.stack([toric_sum(F, k, ik_laurent(F, n, b))[0, :, 0]
                             for b in range(1, q)]) - q ** k * tower_sums(F, k, n, range(1, q))
            diff[:, 0] -= (q ** k - 1) ** n
            ok = not reduce_counts(diff[..., None]).any()
            _timed_case(rep.cases, name, t0, ok, "exact", "exact", "all b")

    # (c) the transform identity (asserted internally, exactly)
    for p in ps:
        F = build_field(p, 1)
        for n in ns:
            t0 = time.perf_counter()
            count = 0
            J = _char_tuples(p, n)
            for b in range(1, p):
                tn_transform(F, n, b, J)      # raises on a mismatch
                count += len(J)
            _timed_case(rep.cases, f"(c) transform q={p} n={n}", t0, True,
                        "exact", "exact", f"{count} cases")

    # (d) q M S_n = M main + rest exactly, reduced once per (q, n, b) (the oracle
    # refuses M^(n+4) >= 2^63, so int64 holds it); |S_2| = |rest| / (q M)
    for p in ps:
        F = build_field(p, 1)
        q, M = p, p - 1
        for n in ns:
            t0 = time.perf_counter()
            ok, worst_s2 = True, 0.0
            J = _char_tuples(q, n)
            for b, (main, rest) in zip(range(1, q),
                                       gauss_formula_parts(F, 1, n, range(1, q), J)):
                ok = ok and not reduce_counts(
                    q * M * kloosterman_sums(F, 1, n, b, J) - M * main - rest).any()
                worst_s2 = max(worst_s2, float(np.abs(embed_counts(rest)).max()) / (q * M))
            ok = ok and worst_s2 <= q ** ((n + 1) / 2) + 1e-9
            _timed_case(rep.cases, f"(d) oracle q={q} n={n}", t0, ok,
                        "exact", "exact",
                        f"max |S_2|={worst_s2:.6g} <= {q ** ((n + 1) / 2):.6g}")
    return rep


SUITES = {
    "thm0": suite_thm0,
    "thm2": suite_thm2,
    "cor1": suite_cor1,
    "thm1": suite_thm1,
    "prop31": suite_prop31,
    "thm33": suite_thm33,
    "identities": suite_identities,
}
