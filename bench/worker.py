"""One round of a benchmark workload, in a fresh single-threaded process.

run.py starts this once per round:

    python3 bench/worker.py --workload W --seed N --launched T [--trace] [--setup-only]

T is the parent's time.monotonic() just before the start, so setup_s
covers interpreter start, importing invkloos (with numpy) and input
generation.  run.py pins the BLAS/OpenMP thread counts to 1.  The round
calls the public invkloos functions with threads=1, times them, then
checks every item against brute force and the properties the method
must have.  The last stdout line is a JSON object describing the round.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import random
import re
import resource
import sys
import time
from fractions import Fraction

import brute

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("lfun-tower", "lfun-primes", "verify-sweep")

# lfun-tower cells: (p, n, how many b to draw from 1..p-1, held-out k);
# the tall p=3 tower comes first, so first_result_s is mostly tables
TOWER = (
    (3, 1, 2, tuple(range(3, 12))),   # q^k up to 3^11 = 177147
    (5, 1, 2, tuple(range(3, 8))),    # up to 5^7 = 78125
    (7, 1, 3, tuple(range(3, 7))),    # up to 7^6 = 117649
    (5, 2, 3, (5,)),                  # k = 5 enumerates (5^5-1)^2 = 9.8e6 points
    (7, 2, 4, ()),                    # k = 4 enumerates (7^4-1)^2 = 5.8e6 points
)
# lfun-primes: n = 1, largest prime first so the first item is substantial
PRIMES = (53, 47, 43, 41, 37, 31, 29, 23, 19, 17, 13, 11)
PRIMES_B = 6
PRIMES_HELDOUT = (3,)
# verify-sweep: the suites at their default grids, as the suites state them
SUITE_GRIDS = {
    "thm0": {"q": [3, 5, 7], "n": [1, 2]},
    "thm2": {"q": [3, 5, 7], "n": [1, 2]},
    "identities": {"q": [3, 5, 7], "n": [1, 2],
                   "grid3": [[1, 3], [1, 5], [2, 7], [2, 13]],
                   "toric_cap": 10 ** 7},
    "thm33": {"n": [1, 2, 3, 4]},
    "prop31": {"n": [1, 2, 3, 4], "primes": [2, 3, 5, 7, 11, 13]},
}
TWISTED_SAMPLE = 8   # twisted sums checked against brute force per sweep suite


def make_items(workload: str, seed: int) -> list[dict]:
    """The round's inputs; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lfun-tower":
        return [{"p": p, "n": n, "b": b, "heldout": ks}
                for p, n, count, ks in TOWER
                for b in sorted(rng.sample(range(1, p), count))]
    if workload == "lfun-primes":
        return [{"p": p, "n": 1, "b": b, "heldout": PRIMES_HELDOUT}
                for p in PRIMES
                for b in sorted(rng.sample(range(1, p), PRIMES_B))]
    items = []
    for name, grid in SUITE_GRIDS.items():
        sample = []
        if "q" in grid:
            while len(sample) < TWISTED_SAMPLE:
                p, n = rng.choice(grid["q"]), rng.choice(grid["n"])
                chi = tuple(rng.randrange(p - 1) for _ in range(n + 1))
                if any(chi):
                    sample.append((p, n, rng.randrange(1, p), chi))
        items.append({"suite": name, "sample": sample})
    return items


def label(item: dict) -> str:
    if "suite" in item:
        return f"suite {item['suite']}"
    return f"p={item['p']} n={item['n']} b={item['b']}"


def _single_threaded(fn) -> dict:
    return {"threads": 1} if "threads" in inspect.signature(fn).parameters else {}


def run_item(item: dict, gf, lfun, suites):
    if "suite" in item:
        fn = getattr(suites, "suite_" + item["suite"])
        return fn(**_single_threaded(fn))
    F = gf.build_field(item["p"], 1)
    fn = lfun.lfunction_pipeline
    return fn(F, item["n"], item["b"], heldout=list(item["heldout"]),
              **_single_threaded(fn))


def check_lfun(item: dict, result) -> list[str]:
    p, n, b, ks = item["p"], item["n"], item["b"], item["heldout"]
    q = p
    lf, held = result
    coeffs = [[Fraction(c) for c in x.coeffs] for x in lf.P_coeffs]
    if len(coeffs) != 2 * n + 1 or coeffs[0] != [1] + [0] * (p - 2):
        return [f"P has {len(coeffs)} coefficients or a constant term other than 1"]
    if any(c.denominator != 1 for x in coeffs for c in x):
        return ["P is not integral"]
    errs = []
    points = [(k, Fraction(v, p - 1)) for k, x in enumerate(coeffs)
              if (v := brute.ord_pi(p, x)) != math.inf]
    slopes = brute.newton_slopes(points)
    hodge = brute.hodge_slopes(n)
    if sorted(lf.slopes) != slopes:
        errs.append(f"slopes {sorted(lf.slopes)} != pi-adic recomputation {slopes}")
    if not brute.on_or_above(slopes, hodge):
        errs.append(f"slopes {slopes} below the Hodge polygon or off its endpoint")
    if p % (n + 1) == 1 and slopes != hodge:
        errs.append(f"p = 1 mod n+1 but slopes {slopes} != Hodge {hodge}")
    emb = [brute.embed(p, x) for x in coeffs]
    sizes = brute.reciprocal_root_sizes(emb)
    weight = q ** (n / 2)
    if len(sizes) != 2 * n or any(abs(s / weight - 1) > 1e-6 for s in sizes):
        errs.append(f"|alpha| {sizes} != q^(n/2) = {weight}")
    s1, implied = brute.kloosterman(p, n, b), brute.s1_from_p(n, q, emb[1])
    if abs(s1 - implied) > 1e-6:
        errs.append(f"brute-force S_1 {s1} != {implied} implied by P")
    if [r.k for r in held] != list(ks) or not all(r.match for r in held):
        errs.append(f"held-out k {list(ks)} not all matched")
    return errs


def expected_cases(name: str, grid: dict) -> tuple[int, list[int]]:
    """Non-skipped case count, and the (b, chi) counts (q-1)^(n+2) of the
    cases that report one, in report order."""
    if name in ("thm33", "prop31"):
        return {"thm33": 3, "prop31": 2}[name] * len(grid["n"]), []
    sweep = [(q - 1) ** (n + 2) for q in grid["q"] for n in grid["n"]
             if name != "thm2" or (n + 1) % q]
    if name != "identities":
        return len(sweep), sweep
    toric = sum(1 for n, q in grid["grid3"] for k in range(1, 2 * n + 1)
                if (q ** k - 1) ** (n + 2) <= grid["toric_cap"])
    return 3 * len(sweep) + toric, sweep + sweep    # (a) (b) (c) (d); (a), (c) count


def check_suite(item: dict, rep, gf, expsum, cyclotomic) -> list[str]:
    name = item["suite"]
    grid = SUITE_GRIDS[name]
    errs = [f"grid {k} = {rep.grid.get(k)} != {v}"
            for k, v in grid.items() if rep.grid.get(k) != v]
    bad = [c.name for c in rep.cases if c.status not in ("pass", "skip")]
    if bad or rep.verdict != "pass":
        errs.append(f"verdict {rep.verdict}, failing cases {bad}")
    ran = [c for c in rep.cases if c.status != "skip"]
    want_cases, want_counts = expected_cases(name, grid)
    counts = [int(m.group(1)) for c in ran
              if (m := re.search(r"(\d+) cases", f"{c.name} {c.detail}"))]
    if len(ran) != want_cases or counts != want_counts:
        errs.append(f"{len(ran)} cases with counts {counts}, expected "
                    f"{want_cases} with {want_counts}")
    kernel = expsum.kloosterman_sum
    for p, n, b, chi in item["sample"]:
        got = cyclotomic.embed_complex(kernel(
            gf.build_field(p, 1), 1, n, b, expsum.CharacterTuple(chi),
            **_single_threaded(kernel)))
        want = brute.kloosterman(p, n, b, chi)
        if abs(got - want) > 1e-9:
            errs.append(f"S_{n}(chi={chi}, b={b}) over F_{p}: {got} != brute {want}")
    return errs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import invkloos
    from invkloos import cyclotomic, expsum, gf, lfun, suites
    if not os.path.abspath(invkloos.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported invkloos from {invkloos.__file__}, not {SRC}")
    items = make_items(args.workload, args.seed)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(invkloos)
    record = {"setup_s": time.monotonic() - args.launched}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    results, first = [], None
    t0 = time.perf_counter()
    for item in items:
        try:
            results.append(run_item(item, gf, lfun, suites))
        except Exception as exc:  # an item that raises counts as failed
            results.append(exc)
        if first is None:
            first = time.perf_counter() - t0
    record.update(wall_s=time.perf_counter() - t0, first_result_s=first,
                  peak_rss_mib=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        tracer.recording = False
        record["layers"] = tracer.metrics()
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))

    failed = wrong = 0
    errors = []
    for item, res in zip(items, results):
        if isinstance(res, Exception):
            failed += 1
            errors.append(f"{label(item)}: raised {res!r}")
            continue
        try:
            errs = (check_suite(item, res, gf, expsum, cyclotomic) if "suite" in item
                    else check_lfun(item, res))
        except Exception as exc:  # malformed output fails the item's checks
            errs = [f"check raised {exc!r}"]
        if errs:
            failed += 1
            wrong += 1
            errors += [f"{label(item)}: {e}" for e in errs]
    record.update(items=len(items), failed=failed, wrong=wrong, errors=errors[:20])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
