#!/usr/bin/env python3
"""Survey the q-adic slope sequences of the nontrivial L-factor on small
grids, including the non-ordinary characteristics where no closed form is
known.  The ordinary congruence p = 1 mod (n+1) predicts
{0,1,1,...,n-1,n-1,n}; everything else is observational data.  A cell
the library refuses (table cap, rounding bound) is
reported with the library's message and skipped.

Usage: python scripts/slope_survey.py [--n 1,2] [--pmax 23] [--csv out.csv]
"""

import argparse
import csv
import sys

from invkloos.gf import build_field, is_prime
from invkloos.lfun import alpha_hodge_slopes, lfunction_pipeline
from invkloos.errors import BudgetExceeded


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", default="1,2")
    ap.add_argument("--pmax", type=int, default=23)
    ap.add_argument("--csv", help="also write rows to this file")
    args = ap.parse_args()

    rows = []
    for n in (int(x) for x in args.n.split(",")):
        hp = alpha_hodge_slopes(n)
        for p in range(2, args.pmax + 1):
            if not is_prime(p) or (n + 1) % p == 0:
                continue
            try:
                pairs = lfunction_pipeline(build_field(p, 1), n, range(1, p))
            except BudgetExceeded as exc:
                print(f"n={n} p={p}: refused: {exc}")
                continue
            seen = {}
            for lf, _ in pairs:
                seen.setdefault(tuple(sorted(lf.slopes)), []).append(lf.b)
            for slopes, bs in seen.items():
                ordinary = list(slopes) == hp
                congruent = p % (n + 1) == 1
                rows.append({
                    "n": n, "p": p, "b": ",".join(map(str, bs)),
                    "slopes": " ".join(str(s) for s in slopes),
                    "ordinary": ordinary,
                    "p_congruent_1": congruent,
                })
                print(f"n={n} p={p} b∈[{rows[-1]['b']}]: "
                      f"slopes {{{rows[-1]['slopes']}}}"
                      f"{'  (ordinary)' if ordinary else ''}")
                if ordinary != congruent:
                    print("  ** ordinariness disagrees with the congruence — "
                          "please report this input", file=sys.stderr)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
