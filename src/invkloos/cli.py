"""Command-line surface: compute sums, L-functions and polytope data, or
run the verification suites, with table/JSON/CSV output.

Exit codes: 0 pass (or pure computation), 1 assertion failure, 2 usage or
parse error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from .cyclotomic import embed_complex, reduce_mod_phi
from .errors import BudgetExceeded, DegenerateError, ParseError, VerificationError
from .expsum import LaurentPoly, gauss_sum, kloosterman_sum, tn_transform, toric_sum
from .gf import FieldTable, build_field, field_maps
from .lfun import lfunction_pipeline
from .polytope import build_polytope, hodge_data, ik_polytope
from .suites import SUITES, VerifyReport

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


# ----------------------------------------------------------------------
# Laurent polynomial input
# ----------------------------------------------------------------------

_TERM_FACTOR = re.compile(r"^(?:(\d+)|x(\d+)(?:\^(-?\d+))?)$")


def parse_laurent_text(text: str, field: FieldTable) -> LaurentPoly:
    """Parse the grammar `c*x1^e1*...*xn^en` joined by + or -.

    Exponents may be negative; coefficients are integers reduced into the
    prime subfield.  Duplicate exponent vectors are merged in the field
    and zero terms dropped; an empty (identically zero) polynomial is
    rejected.
    """
    src = text.strip()
    if not src:
        raise ParseError("empty polynomial at offset 0")
    chunks: list[tuple[int, int, str]] = []   # (sign, offset, body)
    sign, start = 1, 0
    i = 0
    if src[0] in "+-":
        sign = -1 if src[0] == "-" else 1
        start = i = 1

    def _is_exponent_sign(pos: int) -> bool:
        k = pos - 1
        while k >= 0 and src[k] == " ":
            k -= 1
        return k >= 0 and src[k] == "^"

    while i <= len(src):
        if i == len(src) or (src[i] in "+-" and not _is_exponent_sign(i)):
            body = src[start:i].strip()
            if not body:
                raise ParseError(f"missing term at offset {start}")
            chunks.append((sign, start, body))
            if i < len(src):
                sign = -1 if src[i] == "-" else 1
                start = i + 1
        i += 1

    nv = 0                                    # highest variable index seen
    raw_terms = []
    for sgn, off, body in chunks:
        coeff = 1
        exps: dict[int, int] = {}
        for factor in body.split("*"):
            factor = factor.strip()
            m = _TERM_FACTOR.match(factor)
            if not m:
                raise ParseError(f"cannot parse factor {factor!r} at offset {off}")
            if m.group(1) is not None:
                coeff = coeff * int(m.group(1)) % field.p
            else:
                v = int(m.group(2))
                if v < 1:
                    raise ParseError(f"variable index must be >= 1 at offset {off}")
                e = int(m.group(3)) if m.group(3) else 1
                exps[v - 1] = exps.get(v - 1, 0) + e
                nv = max(nv, v)
        c = coeff % field.p
        if sgn < 0:
            c = field.neg(c)
        raw_terms.append((c, exps))
    if nv == 0:
        raise ParseError("polynomial has no variables")
    merged: dict[tuple[int, ...], int] = {}
    for c, exps in raw_terms:
        key = tuple(exps.get(i, 0) for i in range(nv))
        merged[key] = field.add(merged.get(key, 0), c)
    terms = tuple((c, e) for e, c in sorted(merged.items()) if c != 0)
    if not terms:
        raise ParseError("polynomial is identically zero after cancellation")
    return LaurentPoly(nv, terms)


def parse_laurent_json(obj: dict) -> tuple[FieldTable, LaurentPoly]:
    """The shared JSON format:
    {"p":7,"a":1,"vars":3,"terms":[{"c":1,"e":[1,0,0]}, ...]}
    with c an integer encoding of a field element."""
    try:
        p, a, nv = int(obj["p"]), int(obj.get("a", 1)), int(obj["vars"])
        raw = [(int(t["c"]), tuple(int(x) for x in t["e"]))
               for t in obj["terms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed polynomial JSON: {exc}") from exc
    field = build_field(p, a)
    merged: dict[tuple[int, ...], int] = {}
    for c, e in raw:
        if len(e) != nv:
            raise ParseError(f"exponent vector {e} has length != {nv}")
        if not 0 <= c < field.q:
            raise ParseError(f"coefficient {c} is not reducible into F_{p}^{a}")
        merged[e] = field.add(merged.get(e, 0), c)
    terms = tuple((c, e) for e, c in sorted(merged.items()) if c != 0)
    if not terms:
        raise ParseError("polynomial is identically zero after cancellation")
    return field, LaurentPoly(nv, terms)


def parse_laurent(spec: str, field: FieldTable | None = None
                  ) -> tuple[FieldTable, LaurentPoly]:
    """Dispatch: path to a JSON file, inline JSON, or the text grammar."""
    text = spec
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}")
        return parse_laurent_json(obj)
    if field is None:
        raise ParseError("text polynomials need --p/--a to fix the field")
    return field, parse_laurent_text(stripped, field)


def laurent_to_json(field: FieldTable, f: LaurentPoly) -> dict:
    return {"p": field.p, "a": field.a, "vars": f.n_vars,
            "terms": [{"c": c, "e": list(e)} for c, e in f.terms]}


# ----------------------------------------------------------------------
# JSON encodings (published schemas below)
# ----------------------------------------------------------------------

def _frac_pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def sumvalue_to_json(row) -> dict:
    """The "sum" object of one (p, m) count row: its nonzero cells
    [t, j, count] row-major, and its complex embedding."""
    ts, js = row.nonzero()
    z = embed_complex(row)
    return {
        "p": row.shape[0], "m": row.shape[1], "denom": 1,
        "entries": [list(e) for e in zip(ts.tolist(), js.tolist(), row[ts, js].tolist())],
        "complex": [z.real, z.imag],
    }


def _sum_text(obj: dict) -> str:
    """A "sum" object as the tables print it: its first six cells."""
    body = " + ".join(f"{c}*z{obj['p']}^{t}*w{obj['m']}^{j}" for t, j, c in obj["entries"][:6])
    if len(obj["entries"]) > 6:
        body += " + ..."
    return f"SumValue({body or '0'})"


def lfactorization_to_json(lf, heldout_results) -> dict:
    out = {
        "n": lf.n, "p": lf.p, "a": round(math.log(lf.q, lf.p)), "b": lf.b,
        "q": lf.q, "sign": lf.sign,
        "trivial": [[e, m] for e, m in lf.trivial_part],
        "coefficients_rational": lf.coefficients_rational,
        "newton_polygon": [[k, o.numerator, o.denominator]
                           for k, o in lf.np_points],
        "slopes": _group_slopes(lf.slopes),
        "complex_magnitudes": sorted(abs(r) for r in lf.complex_roots),
        "heldout": [{"k": h.k, "match": h.match} for h in heldout_results],
    }
    if lf.coefficients_rational:
        out["P"] = [_frac_pair(c.rational_value()) for c in lf.P_coeffs]
    else:
        out["P"] = None
        out["P_cyclotomic"] = [[_frac_pair(x) for x in c.coeffs]
                               for c in lf.P_coeffs]
    return out


def _group_slopes(slopes) -> list[list[int]]:
    out = []
    for s in sorted(set(slopes)):
        out.append([s.numerator, s.denominator, list(slopes).count(s)])
    return out


def hodge_to_json(hd) -> dict:
    return {"D": hd.D, "W": list(hd.W), "H": list(hd.H),
            "polygon": [[x, y.numerator, y.denominator]
                        for x, y in hd.hodge_polygon],
            "nvol": hd.normalized_volume}


#: jsonschema-style published schemas for --out json payloads
SCHEMAS = {
    "lfun": {
        "type": "object",
        "required": ["n", "p", "b", "q", "sign", "trivial", "P",
                     "coefficients_rational", "newton_polygon", "slopes",
                     "complex_magnitudes", "heldout"],
        "properties": {
            "n": {"type": "integer"}, "p": {"type": "integer"},
            "a": {"type": "integer"}, "b": {"type": "integer"},
            "q": {"type": "integer"}, "sign": {"enum": [1, -1]},
            "trivial": {"type": "array", "items": {
                "type": "array", "items": {"type": "integer"},
                "minItems": 2, "maxItems": 2}},
            "P": {"type": ["array", "null"], "items": {
                "type": "array", "items": {"type": "integer"},
                "minItems": 2, "maxItems": 2}},
            "P_cyclotomic": {"type": "array"},
            "coefficients_rational": {"type": "boolean"},
            "newton_polygon": {"type": "array", "items": {
                "type": "array", "items": {"type": "integer"},
                "minItems": 3, "maxItems": 3}},
            "slopes": {"type": "array", "items": {
                "type": "array", "items": {"type": "integer"},
                "minItems": 3, "maxItems": 3}},
            "complex_magnitudes": {"type": "array",
                                   "items": {"type": "number"}},
            "heldout": {"type": "array", "items": {
                "type": "object",
                "required": ["k", "match"],
                "properties": {"k": {"type": "integer"},
                               "match": {"type": "boolean"}}}},
        },
    },
    "polytope": {
        "type": "object",
        "required": ["D", "W", "H", "polygon", "nvol"],
        "properties": {
            "D": {"type": "integer"},
            "W": {"type": "array", "items": {"type": "integer"}},
            "H": {"type": "array", "items": {"type": "integer"}},
            "polygon": {"type": "array", "items": {
                "type": "array", "items": {"type": "integer"},
                "minItems": 3, "maxItems": 3}},
            "nvol": {"type": ["integer", "null"]},
        },
    },
    "verify": {
        "type": "object",
        "required": ["suite", "claim", "grid", "cases", "verdict"],
        "properties": {
            "suite": {"type": "string"},
            "claim": {"type": "string"},
            "grid": {"type": "object"},
            "cases": {"type": "array", "items": {
                "type": "object",
                "required": ["name", "status", "lhs", "rhs", "detail"],
                "properties": {"name": {"type": "string"},
                               "status": {"enum": ["pass", "fail", "skip"]},
                               "lhs": {"type": "string"},
                               "rhs": {"type": "string"},
                               "detail": {"type": "string"}}}},
            "verdict": {"enum": ["pass", "fail"]},
        },
    },
    "sum": {
        "type": "object",
        "required": ["p", "m", "denom", "entries", "complex"],
        "properties": {
            "p": {"type": "integer"}, "m": {"type": "integer"},
            "denom": {"type": "integer"},
            "entries": {"type": "array", "items": {
                "type": "array", "items": {"type": "integer"},
                "minItems": 3, "maxItems": 3}},
            "complex": {"type": "array", "items": {"type": "number"},
                        "minItems": 2, "maxItems": 2},
        },
    },
}


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _parse_chi(spec: str, q: int, expected: int) -> tuple[int, ...]:
    """The comma list of character indices, each reduced mod q - 1."""
    try:
        idx = tuple(int(x) % (q - 1) for x in spec.split(","))
    except ValueError:
        raise ParseError(f"cannot parse character indices {spec!r}")
    if len(idx) != expected:
        raise ParseError(f"need {expected} character indices, got {len(idx)}")
    return idx


def _field_header(F: FieldTable) -> str:
    return (f"F_{F.p}^{F.a} (q={F.q}), modulus {F.modulus_str()}, "
            f"generator g={F.g}")


def cmd_field(args) -> int:
    F = build_field(args.p, args.a)
    info = {"p": F.p, "a": F.a, "q": F.q, "modulus": list(F.modulus),
            "generator": F.g}
    if args.k != 1:                         # field_maps refuses k < 1
        maps = field_maps(F, args.k)
        info["extension"] = {"k": args.k, "q_ext": maps.ext.q,
                             "modulus": list(maps.ext.modulus),
                             "generator": maps.ext.g,
                             "embed_g": int(maps.embed_tab[F.g])}
    if args.out == "json":
        print(json.dumps(info, sort_keys=True))
    else:
        print(_field_header(F))
        if "extension" in info:
            e = info["extension"]
            print(f"extension k={e['k']}: q^k={e['q_ext']}, generator "
                  f"{e['generator']}, g embeds to {e['embed_g']}")
    return EXIT_PASS


def cmd_gauss(args) -> int:
    F = build_field(args.p, args.a)
    obj = sumvalue_to_json(gauss_sum(F, args.j))
    if args.out == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        z = complex(*obj["complex"])
        print(f"{_field_header(F)}  G(chi_{args.j}) = {_sum_text(obj)}")
        print(f"complex: {z:.6f}  |G| = {abs(z):.6f}")
    return EXIT_PASS


def cmd_sum(args) -> int:
    if args.tn and args.k != 1:
        raise ValueError("sum --tn works over F_q only; --k does not apply")
    F = build_field(args.p, args.a)
    chi = _parse_chi(args.chi, F.q, args.n + 1) if args.chi else None
    if args.tn:
        v = tn_transform(F, args.n, args.b, None if chi is None else [chi])[0]
    else:
        v = kloosterman_sum(F, args.k, args.n, args.b, chi)
    obj = sumvalue_to_json(v)
    if args.out == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        kind = "T" if args.tn else "S"
        print(f"{_field_header(F)}  chi={chi or 'untwisted'}")
        print(f"{kind}_{args.n}(b={args.b}, k={args.k}) = {_sum_text(obj)}")
        if obj["m"] == 1:
            print(f"in Z[zeta_{F.p}]: {reduce_mod_phi(v[:, 0])!r}")
        print(f"complex: {complex(*obj['complex']):.6f}")
    return EXIT_PASS


def cmd_toric(args) -> int:
    base = build_field(args.p, args.a) if args.p else None
    F, f = parse_laurent(args.poly, base)
    chi = _parse_chi(args.chi, F.q, f.n_vars) if args.chi else None
    obj = sumvalue_to_json(toric_sum(F, args.k, f, None if chi is None else [chi])[0])
    if args.out == "json":
        print(json.dumps({"poly": laurent_to_json(F, f), "value": obj}, sort_keys=True))
    else:
        print(f"{_field_header(F)}  k={args.k}  terms={len(f.terms)}")
        print(f"S*_k = {_sum_text(obj)}")
        print(f"complex: {complex(*obj['complex']):.6f}")
    return EXIT_PASS


def cmd_lfun(args) -> int:
    F = build_field(args.p, args.a)
    heldout = [int(x) for x in args.heldout.split(",")] if args.heldout else []
    lf, results = lfunction_pipeline(F, args.n, args.b, heldout=heldout)
    obj = lfactorization_to_json(lf, results)
    if args.out == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(f"{_field_header(F)}  n={args.n} b={args.b}")
        print(f"trivial reciprocal roots (exponent of q, multiplicity in "
              f"L^{lf.sign:+d}): {lf.trivial_part}")
        print(f"P coefficients rational: {lf.coefficients_rational}")
        for k, c in enumerate(lf.P_coeffs):
            print(f"  a_{k} = {c!r}")
        print(f"newton polygon points: {[(k, str(o)) for k, o in lf.np_points]}")
        print(f"slopes: {[str(s) for s in lf.slopes]}")
        print(f"|alpha_i|: {[f'{abs(r):.6f}' for r in lf.complex_roots]}")
        for h in results:
            print(f"heldout k={h.k}: match={h.match}")
    return EXIT_PASS


def cmd_polytope(args) -> int:
    if args.n is not None:
        P = ik_polytope(args.n).polytope
    elif args.vertices:
        try:
            with open(args.vertices) as fh:
                pts = [tuple(map(int, v)) for v in json.load(fh)["vertices"]]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"vertices file {args.vertices}: {exc!r}") from exc
        P = build_polytope(pts)
    elif args.poly is not None:
        base = build_field(args.p, args.a) if args.p else None
        _, f = parse_laurent(args.poly, base)
        P = build_polytope(f)
    else:
        raise ValueError("polytope needs one of --n, --poly or --vertices")
    hd = hodge_data(P, args.kmax)
    obj = hodge_to_json(hd)
    if args.out == "json":
        print(json.dumps(obj, sort_keys=True))
    elif args.out == "csv":
        print("\n".join(["x,y_num,y_den"] + [f"{x},{yn},{yd}"
                                             for x, yn, yd in obj["polygon"]]))
    else:
        print(f"dim {P.dim}, {len(P.vertices)} vertices, "
              f"{len(P.gauge_facets)} origin-missing facets, D={P.D}")
        for fac in P.gauge_facets:
            print(f"  facet {fac}")
        print(f"W = {list(hd.W)}")
        print(f"H = {list(hd.H)}")
        print(f"normalized volume = {hd.normalized_volume}")
    return EXIT_PASS


def cmd_verify(args) -> int:
    fn = SUITES[args.suite]
    pair = args.suite in ("cor1", "thm1")           # read --p and --n as pairs
    reads = {"thm1": "pnb", "prop31": "n", "thm33": "n"}.get(args.suite, "pn")
    ints = {f: tuple(int(x) for x in getattr(args, f).split(","))
            for f in "pnb" if getattr(args, f)}
    unread = [f"--{f}" for f in ints if f not in reads]
    if unread or (pair and len(ints.get("p", ())) != len(ints.get("n", ()))):
        print(f"error: verify {args.suite} does not read "
              f"{' '.join(unread) or '--p and --n of different lengths'}", file=sys.stderr)
        return EXIT_USAGE
    if any(n < 1 for n in ints.get("n", ())):
        raise ValueError(f"--n must be >= 1, got {args.n}")
    kwargs = {}
    if pair and args.p:
        kwargs["grid"] = tuple(zip(ints["n"], ints["p"]))
    elif not pair:
        kwargs.update({f + "s": v for f, v in ints.items()})
    if "b" in ints:
        kwargs["bs"] = ints["b"]
    rep: VerifyReport = fn(**kwargs)
    if args.out == "json":
        print(json.dumps(rep.to_json_obj(), sort_keys=True))
    elif args.out == "csv":
        print(rep.to_csv())
    else:
        print(rep.to_table())
    return EXIT_PASS if rep.verdict == "pass" else EXIT_FAIL


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_out(sp, *extra):
    sp.add_argument("--out", choices=("json", *extra, "table"), default="table")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="invkloos",
        description="Exact inverted Kloosterman sums, L-functions, Newton "
                    "and Hodge polygons over finite fields.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("field", help="build a field and print its tables' summary")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--k", type=int, default=1, help="also build F_{q^k}")
    _add_out(sp)
    sp.set_defaults(fn=cmd_field)

    sp = sub.add_parser("gauss", help="Gauss sum G(chi_j)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--j", type=int, required=True, help="character index")
    _add_out(sp)
    sp.set_defaults(fn=cmd_gauss)

    sp = sub.add_parser("sum", help="inverted Kloosterman sum S_n (or T_n)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--k", type=int, default=1, help="extension degree")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--chi", help="comma list of n+1 character indices")
    sp.add_argument("--tn", action="store_true",
                    help="compute the product-locus-1 transform (k=1) instead")
    _add_out(sp)
    sp.set_defaults(fn=cmd_sum)

    sp = sub.add_parser("toric", help="twisted toric sum of a Laurent polynomial")
    sp.add_argument("--poly", required=True,
                    help="JSON file, inline JSON, or text like 'x1+2*x2^-1'")
    sp.add_argument("--p", type=int, help="field (for text polynomials)")
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--chi", help="comma list of per-variable indices")
    _add_out(sp)
    sp.set_defaults(fn=cmd_toric)

    sp = sub.add_parser("lfun", help="L-function reconstruction and polygons")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--heldout", help="comma list of extra k to cross-check")
    _add_out(sp)
    sp.set_defaults(fn=cmd_lfun)

    sp = sub.add_parser("polytope", help="weights, Hodge numbers, Hodge polygon")
    sp.add_argument("--n", type=int,
                    help="use the built-in (n+2)-dimensional polytope")
    sp.add_argument("--poly", help="Laurent polynomial (its Newton polyhedron)")
    sp.add_argument("--vertices", help="JSON file {\"vertices\": [[...], ...]}")
    sp.add_argument("--p", type=int, help="field for text polynomials")
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--kmax", type=int, help="weight range k (default dim*D)")
    _add_out(sp, "csv")
    sp.set_defaults(fn=cmd_polytope)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--p", help="comma list of primes (not prop31, thm33; "
                    "cor1 and thm1 pair it with --n)")
    sp.add_argument("--n", help="comma list of n values")
    sp.add_argument("--b", help="comma list of b values (thm1 only)")
    _add_out(sp, "csv")
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DegenerateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
