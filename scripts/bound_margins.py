#!/usr/bin/env python3
"""Measure how tight the square-root-cancellation bounds are, including
the characteristics dividing n+1 where no bound is proved and the best
exponent is open.  Emits plot-ready CSV: one row per (q, n, equal/mixed)
cell with the observed maximum |error term| and its ratio to q^(n/2).

Usage: python scripts/bound_margins.py [--q 3,5,7,9] [--n 1,2] [--csv out.csv]
"""

import argparse
import csv
import sys

from invkloos.gf import build_field, is_prime
from invkloos.suites import twisted_errors


def field_for(q: int):
    for p in range(2, q + 1):
        if is_prime(p):
            a = 0
            qq = q
            while qq % p == 0:
                qq //= p
                a += 1
            if qq == 1:
                return build_field(p, a)
    raise ValueError(f"{q} is not a prime power")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", default="3,4,5,7,8,9")
    ap.add_argument("--n", default="1,2")
    ap.add_argument("--csv", help="write rows here")
    args = ap.parse_args()

    rows = []
    for q in (int(x) for x in args.q.split(",")):
        F = field_for(q)
        for n in (int(x) for x in args.n.split(",")):
            worst = {"equal": 0.0, "mixed": 0.0}
            for b in range(1, q):
                # thm0's error terms: the main term (q-1)^n/q chi_1(b) off
                # the equal-character sums, all tuples from one stack
                err, equal = twisted_errors(F, n, b, (q - 1) ** n / q)
                worst["equal"] = max(worst["equal"], float(err[equal].max()))
                worst["mixed"] = max(worst["mixed"], float(err[~equal].max(initial=0.0)))
            for kind, val in worst.items():
                if val == 0.0 and kind == "mixed" and q == 2:
                    continue
                rows.append({
                    "q": q, "n": n, "p_divides_n1": (n + 1) % F.p == 0,
                    "kind": kind, "max_error": f"{val:.6f}",
                    "ratio_to_qn2": f"{val / q ** (n / 2):.6f}",
                })
                print(f"q={q} n={n} {kind}: max |error| = {val:.4f} "
                      f"= {val / q ** (n / 2):.3f} * q^(n/2)"
                      f"{'  [p | n+1, no proved bound]' if rows[-1]['p_divides_n1'] else ''}")
    if args.csv and rows:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
