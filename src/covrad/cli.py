"""Command-line front end: code construction, distance/radius analyses, and
the claim-verification suites.

Every command names a code the one way `build_code` parses (`SELECTOR`;
the default Glynn code is 'glynn:'); `covrad code --code S --out FILE`
writes a code-spec file, whose path is itself a selector.

Exit codes: 0 all requested checks pass, 1 any verification case fails,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import dist, ssp, verify
from .code import (LinearCode, export_code_spec, glynn_code, is_mds,
                   min_distance, parse_code_spec, prs_code, rs_code)
from .gf import field_for_size
from .verify import run_verification

LISTING_CHUNK = 1 << 16  # records a chunk of listing text


def _emit(obj, fmt="json"):
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        _emit_table(obj)


def _records_json(cols: dict):
    """`json.dumps(records, indent=2)` of a list of records given as its
    columns, {field: values}, nested one level deep, in chunks of text of
    LISTING_CHUNK records, from fixed text: each record is one template,
    '"%s"' for a string field and '%d' for an int.  So the strings must
    need no escape (`DeepHoleReport` tails and words: digits and commas)."""
    if not next(iter(cols.values()), ()):
        yield "[]"
        return
    item = "    {\n" + ",\n".join(
        f'      "{name}": ' + ('"%s"' if isinstance(vals[0], str) else "%d")
        for name, vals in cols.items()) + "\n    }"
    records, sep = zip(*cols.values()), "[\n"
    while chunk := list(itertools.islice(records, LISTING_CHUNK)):
        yield sep + ",\n".join(map(item.__mod__, chunk))
        sep = ",\n"
    yield "\n  ]"


def _listing_json(obj: dict):
    """`json.dumps(obj, indent=2)` of a report whose dict values are record
    columns (`DeepHoleReport.to_json(records=False)`), in chunks of text:
    those lists from fixed text (`_records_json`), every other value by
    `json.dumps`.  With an indent, json runs its pure-Python encoder,
    several times slower on a large listing than these templates; the
    chunks keep the whole text out of memory."""
    sep = "{\n  "
    for key, value in obj.items():
        yield f"{sep}{json.dumps(key)}: "
        if isinstance(value, dict):
            yield from _records_json(value)
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
        sep = ",\n  "
    yield "\n}"


def _emit_table(obj, indent=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _emit_table(v, indent + "  ")
            else:
                print(f"{indent}{k:<24} {v}")
    elif isinstance(obj, list):
        for item in obj:
            _emit_table(item, indent)
            if isinstance(item, dict):
                print(f"{indent}-")
    else:
        print(f"{indent}{obj}")


SELECTOR = ("rs:q=Q,k=K[,eval=X+Y+...], prs:q=Q,k=K, glynn:[w=W] or a "
            "code-spec file path")


def build_code(selector: str) -> LinearCode:
    """Builtin selector ('rs:q=5,k=2', 'prs:q=7,k=3', 'glynn:w=1') or a
    code-spec file path.  ValueError names a missing or unknown key: rs
    takes q, k and optionally eval; prs q and k; glynn optionally w.  A
    selector that is neither a known kind nor a file gets SELECTOR."""
    if ":" in selector and selector.split(":", 1)[0] in ("rs", "prs", "glynn"):
        kind, argstr = selector.split(":", 1)
        kv = {}
        for part in argstr.split(","):
            if not part:
                continue
            key, eq, val = part.partition("=")
            if not eq and key.strip().isdigit() and "eval" in kv:
                raise ValueError("eval takes '+'-separated points, "
                                 "e.g. eval=1+2+3")
            kv[key.strip()] = val.strip()
        allowed = {"rs": ("q", "k", "eval"), "prs": ("q", "k"),
                   "glynn": ("w",)}[kind]
        for key in kv:
            if key not in allowed:
                raise ValueError(f"unknown key {key!r} in {kind} selector; "
                                 f"allowed: {', '.join(allowed)}")
        for key in () if kind == "glynn" else ("q", "k"):
            if key not in kv:
                raise ValueError(f"missing key {key!r} in {kind} selector")
        if kind == "glynn":
            w = int(kv["w"]) if "w" in kv else None
            return glynn_code(field_for_size(9), w)
        ctx = field_for_size(int(kv["q"]))
        k = int(kv["k"])
        if kind == "rs":
            ev = None
            if "eval" in kv:
                ev = tuple(int(x) for x in kv["eval"].split("+"))
            return rs_code(ctx, k, ev)
        return prs_code(ctx, k)
    try:
        with open(selector, encoding="utf-8") as fh:
            return parse_code_spec(fh.read(), label=selector)
    except FileNotFoundError:
        raise ValueError(f"{selector!r} is neither a code selector nor a "
                         f"file; a code is {SELECTOR}") from None


def _code_summary(code: LinearCode) -> dict:
    return {
        "label": code.label,
        "field": code.ctx.descriptor(),
        "n": code.n,
        "k": code.k,
        "generator": [",".join(str(v) for v in row) for row in code.G],
    }


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_code(args) -> int:
    code = build_code(args.code)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(export_code_spec(code))
    _emit(_code_summary(code), args.format)
    return 0


def cmd_analyze(args) -> int:
    code = build_code(args.code)
    if args.what == "radius":
        rep = dist.covering_radius(code, args.algo, args.enum_budget,
                                   args.threads)
        _emit(rep.to_json(), args.format)
    elif args.what == "deep-holes":
        rep = dist.deep_holes(code, algo=args.algo,
                              enum_budget=args.enum_budget,
                              threads=args.threads)
        if args.format == "json":
            sys.stdout.writelines(_listing_json(rep.to_json(records=False)))
            sys.stdout.write("\n")
        else:
            _emit(rep.to_json(), args.format)
    elif args.what == "distance":
        word = tuple(int(t) for t in args.word.split(","))
        if args.algo == "brute":
            d, near = dist.error_distance_brute(code, word, args.enum_budget)
        else:
            d, near = dist.error_distance_mds(code, word)
        _emit({"code": code.label, "word": args.word, "distance": d,
               "nearest": ",".join(str(v) for v in near)}, args.format)
    elif args.what == "min-distance":
        d = min_distance(code, args.enum_budget)
        _emit({"code": code.label, "d": d,
               "mds": d == code.n - code.k + 1}, args.format)
    elif args.what == "mds-check":
        _emit({"code": code.label, "mds": is_mds(code)}, args.format)
    else:  # nested-max
        other = build_code(args.code2)
        m = dist.nested_max_distance(code, other, args.enum_budget)
        _emit({"inner": code.label, "outer": other.label,
               "max_distance": m}, args.format)
    return 0


def cmd_ssp(args) -> int:
    ctx = field_for_size(args.q)
    S = ssp.ssp_solve(ctx, args.k, args.target)
    _emit({"q": args.q, "k": args.k, "target": args.target,
           "subset": sorted(S),
           "valid": ssp.validate_certificate(ctx, S, args.k, args.target)},
          args.format)
    return 0


def cmd_verify(args) -> int:
    qs = tuple(args.q) if args.q else None
    ks = tuple(args.k) if args.k else None
    report = run_verification(args.suite, qs=qs, ks=ks, threads=args.threads)
    if args.format == "csv":
        print("claim_id,q,k,expected,computed,status")
        for c in report["cases"]:
            p = c["params"]
            print(f"{c['claim_id']},{p.get('q', '')},{p.get('k', '')},"
                  f"{c['expected']['value']},{c['computed']},{c['status']}")
    elif args.format == "table":
        for c in report["cases"]:
            line = (f"{c['status']:<20} {c['claim_id']:<26} "
                    f"expected={c['expected']['value']} "
                    f"computed={c['computed']}")
            print(line)
        s = report["summary"]
        print(f"summary: {s['pass']} pass, {s['fail']} fail, "
              f"{s['skipped']} skipped")
    else:
        _emit(report, "json")
    return 1 if report["summary"]["fail"] else 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_enum_budget(p):
    p.add_argument("--enum-budget", type=int, default=dist.DEFAULT_ENUM_BUDGET,
                   help="the most cosets, codewords, words or syndromes an "
                        "engine may enumerate or tabulate")


def _worker_count(text):
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _add_threads(p):
    p.add_argument("--threads", type=_worker_count, default=1,
                   help="worker processes for the representative sweep")


def _add_format(p, *more):
    p.add_argument("--format", choices=("json", "table", *more),
                   default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="covrad",
        description="Exact covering radii, error distances and deep holes "
                    "of Reed-Solomon-type and MDS codes over small "
                    "odd-characteristic fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("code", help="construct a code, print its summary "
                                    "and optionally write its code-spec file")
    p.add_argument("--code", required=True, help=SELECTOR)
    p.add_argument("--out", help="write a code-spec file")
    _add_format(p)
    p.set_defaults(func=cmd_code)

    pa = sub.add_parser("analyze", help="distances, radii, deep holes")
    asub = pa.add_subparsers(dest="what", required=True)
    p = asub.add_parser("radius")
    p.add_argument("--code", required=True, help=SELECTOR)
    p.add_argument("--algo", choices=("auto", "syndrome", "sweep", "brute"),
                   default="auto")
    _add_enum_budget(p)
    _add_threads(p)
    _add_format(p)
    p.set_defaults(func=cmd_analyze)
    p = asub.add_parser("deep-holes")
    p.add_argument("--code", required=True, help=SELECTOR)
    p.add_argument("--algo", choices=("auto", "sweep", "syndrome"),
                   default="auto")
    _add_enum_budget(p)
    _add_threads(p)
    _add_format(p)
    p.set_defaults(func=cmd_analyze)
    p = asub.add_parser("distance")
    p.add_argument("--code", required=True, help=SELECTOR)
    p.add_argument("--word", required=True)
    p.add_argument("--algo", choices=("mds", "brute"), default="mds")
    _add_enum_budget(p)
    _add_format(p)
    p.set_defaults(func=cmd_analyze)
    for name in ("min-distance", "mds-check"):
        p = asub.add_parser(name)
        p.add_argument("--code", required=True, help=SELECTOR)
        if name == "min-distance":
            _add_enum_budget(p)
        _add_format(p)
        p.set_defaults(func=cmd_analyze)
    p = asub.add_parser("nested-max")
    p.add_argument("--code", required=True, help="inner code C1: " + SELECTOR)
    p.add_argument("--code2", required=True, help="outer code C2 containing C1")
    _add_enum_budget(p)
    _add_format(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ssp", help="k-subset-sum certificate over F_q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_ssp)

    p = sub.add_parser("verify", help="re-derive the named claims")
    p.add_argument("suite", choices=["all"] + sorted(verify.SUITES))
    p.add_argument("--q", type=int, action="append",
                   help="field sizes to run instead of each suite's default "
                        "sizes (repeatable)")
    p.add_argument("--k", type=int, action="append",
                   help="keep only the cases of these dimensions; cases "
                        "without a dimension are kept (repeatable)")
    _add_threads(p)
    _add_format(p, "csv")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
