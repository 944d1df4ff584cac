"""Command line front end.

One subcommand per pipeline; text or JSON reports.  Exit codes: 0 when a
value is proven or a check passes, 1 on usage errors, 2 when only bounds
or an Unknown verdict are available, 3 on internal assertion failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import __version__
from .errors import FinspaceError, InvalidParameter, MismatchedSpaces
from .space import (
    FiniteSpace,
    OrderMap,
    bits,
    khalimsky_circle,
    khalimsky_interval,
    product,
    read_space,
    write_space,
)
from .homotopy import DEFAULT_BUDGET, core, homotopic
from .circles import CircleMap, degree, parse_circle_map, recognize_circle
from .complexes import (
    cycle_complex,
    export_complex,
    format_complex,
    format_hasse_dot,
    order_complex,
)
from .invariants import (
    cat,
    parse_cover,
    tc,
    tc_via_colorings,
    torus,
    enumerate_simple_colorings,
)
from .witness import verify_bundle

BUDGET_ENV = "FINSPACE_BUDGET"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUNDS = 2
EXIT_INTERNAL = 3


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        val = int(raw)
    except ValueError:
        raise _Usage(f"{BUDGET_ENV} must be an integer")
    if val <= 0:
        raise _Usage(f"{BUDGET_ENV} must be positive")
    return val


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        print(json.dumps({"schema": 1, **payload}, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_space(args) -> FiniteSpace:
    if args.circle is not None:
        if args.square:
            # the shared torus, which cat then finds without a second build
            return torus(khalimsky_circle(args.circle)).P
        X = khalimsky_circle(args.circle).space
    elif args.interval is not None:
        k, l = args.interval
        X = khalimsky_interval(k, l).space
    elif args.file is not None:
        with open(args.file) as fh:
            X = read_space(fh.read())
    else:
        # export-complex also takes --cycle, which it handles before here
        cycle = ", --cycle" if "cycle" in vars(args) else ""
        raise _Usage(f"give one of --circle, --interval, --file{cycle}")
    return product(X, X) if args.square else X


def _read_circle_map(spec_text: str) -> CircleMap:
    if os.path.exists(spec_text):
        with open(spec_text) as fh:
            spec_text = fh.read()
    return parse_circle_map(spec_text.strip())


def _order_maps(args):
    """The circle maps ``args.f`` and ``args.g``, of the same sizes, and the
    two order maps that they are between one pair of circles."""
    f = _read_circle_map(args.f)
    g = _read_circle_map(args.g)
    if f.m != g.m or f.n != g.n:
        raise _Usage("maps must share domain and target sizes")
    src = khalimsky_circle(f.m).space
    tgt = khalimsky_circle(f.n).space
    return f, g, OrderMap(src, tgt, list(f.table)), OrderMap(src, tgt, list(g.table))


def _space_sources(p):
    """The space options of ``p``; returns the group of exclusive sources."""
    source = p.add_mutually_exclusive_group()
    source.add_argument("--circle", type=int, help="digital circle of half-size N")
    source.add_argument(
        "--interval", type=int, nargs=2, metavar=("K", "L"), help="line interval [K, L]"
    )
    source.add_argument("--file", help="space file")
    p.add_argument("--square", action="store_true", help="take the product with itself")
    return source


def _common(p, budget=False):
    p.add_argument("--format", choices=["text", "json"], default="text")
    if budget:
        p.add_argument("--budget", type=int, default=None, help="search budget")


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: parsing,
    also an invalid command line, leaves it as it was, so ``main`` reads
    each command line with the same one."""
    top = _Parser(prog="finspace", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="build and describe a space")
    _space_sources(p)
    p.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT")
    p.add_argument("--out", help="write the space file here")
    _common(p)

    p = sub.add_parser("core", help="beat-point core of a space")
    _space_sources(p)
    _common(p)

    p = sub.add_parser("homotopic", help="decide homotopy of two circle maps")
    p.add_argument("f", help="circlemap line or file")
    p.add_argument("g", help="circlemap line or file")
    _common(p, budget=True)

    p = sub.add_parser("degree", help="winding degree of a circle map")
    p.add_argument("f", help="circlemap line or file")
    _common(p)

    p = sub.add_parser("classify", help="homotopy of circle maps by degree")
    p.add_argument("f")
    p.add_argument("g")
    _common(p)

    p = sub.add_parser("cat", help="LS-category")
    _space_sources(p)
    p.add_argument("--limit", type=int)
    p.add_argument("--witness", help="cover file giving an upper bound")
    p.add_argument("--force", action="store_true")
    _common(p, budget=True)

    p = sub.add_parser("tc", help="topological complexity of a digital circle")
    p.add_argument("--circle", type=int, required=True)
    p.add_argument(
        "--via-colorings",
        action="store_true",
        help="refute two pieces through simple colorings plus the line lemma",
    )
    p.add_argument("--limit", type=int)
    p.add_argument("--witness", help="cover file giving an upper bound")
    p.add_argument("--force", action="store_true")
    _common(p, budget=True)

    p = sub.add_parser("colorings", help="simple colorings of the square grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--no-symmetry", action="store_true")
    _common(p)

    p = sub.add_parser("verify-witness", help="check the explicit two-piece witness")
    p.add_argument("--k", type=int, required=True)
    _common(p, budget=True)

    p = sub.add_parser("export-complex", help="order complex as an .asc file")
    _space_sources(p).add_argument(
        "--cycle", type=int, help="use the N-cycle graph instead"
    )
    p.add_argument("--out", help="output path (stdout otherwise)")
    _common(p)

    p = sub.add_parser(
        "reproduce", help="recompute the headline values and compare"
    )
    _common(p, budget=True)

    return top


def _budget_of(args) -> int:
    if args.budget is not None:
        if args.budget <= 0:
            raise _Usage("--budget must be positive")
        return args.budget
    return _default_budget()


def _cmd_space(args):
    if args.dot and args.format == "json":
        raise _Usage("--dot prints DOT text, not --format json")
    X = _load_space(args)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(write_space(X, "X"))
    lines = []
    if args.dot:
        lines.append(format_hasse_dot(X).rstrip("\n"))
    else:
        lines.append(X.describe())
    _emit(
        args,
        {
            "command": "space",
            "points": X.n,
            "maximal": len(list(bits(X.maximal_elements()))),
            "minimal": len(list(bits(X.minimal_elements()))),
        },
        lines,
    )
    return EXIT_OK


def _cmd_core(args):
    X = _load_space(args)
    cd = core(X)
    rec = recognize_circle(cd.space)
    payload = {
        "command": "core",
        "points": X.n,
        "core_points": cd.space.n,
        "removed": len(cd.removals),
        "circle_half_size": rec[0] if rec else None,
    }
    lines = [
        f"core: {cd.space.n} of {X.n} points",
        f"removed beat points: {len(cd.removals)}",
    ]
    if rec:
        lines.append(f"core is a digital circle of half-size {rec[0]}")
    elif cd.space.n == 1:
        lines.append("space is contractible")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_homotopic(args):
    _, _, fo, go = _order_maps(args)
    verdict = homotopic(fo, go, budget=_budget_of(args))
    payload = {
        "command": "homotopic",
        "status": verdict.status,
        "reason": verdict.reason,
        "fence_length": len(verdict.fence) if verdict.fence else None,
    }
    _emit(args, payload, [f"{verdict.status}: {verdict.reason}"])
    if verdict.status == "unknown":
        return EXIT_BOUNDS
    return EXIT_OK


def _cmd_degree(args):
    f = _read_circle_map(args.f)
    d = degree(f)
    _emit(args, {"command": "degree", "degree": d}, [str(d)])
    return EXIT_OK


def _cmd_classify(args):
    f, g, fo, go = _order_maps(args)
    same = homotopic(fo, go).is_homotopic
    df, dg = degree(f), degree(g)
    payload = {
        "command": "classify",
        "homotopic": same,
        "degrees": [df, dg],
        "bound": [f.m, f.n],
    }
    _emit(
        args,
        payload,
        [f"{'homotopic' if same else 'not homotopic'} (degrees {df}, {dg}, bound {f.m}/{f.n})"],
    )
    return EXIT_OK


def _result_payload(res):
    out = {
        "value": res.value,
        "lower": res.lower,
        "upper": res.upper,
        "exact": res.exact,
        "notes": res.notes,
    }
    if res.cover is not None:
        out["cover"] = [sorted(bits(p.members)) for p in res.cover.pieces]
        out["certificates"] = [
            {"status": v.status, "reason": v.reason} for v in res.cover.certificates
        ]
    return out


def _exact_search_only(args, route):
    """``--limit`` and ``--force`` tune exact search; ``route`` is the flag
    that chose another route instead, or None."""
    given = [f for f, on in (("--limit", args.limit is not None), ("--force", args.force)) if on]
    if route and given:
        raise _Usage(f"only exact search takes {' and '.join(given)}; {route} does not")


def _cmd_cat(args):
    _exact_search_only(args, "--witness" if args.witness else None)
    budget = _budget_of(args)
    X = _load_space(args)
    if args.witness:
        with open(args.witness) as fh:
            cov = parse_cover(X, fh.read())
        res = cat(X, mode="witness", witness=cov, budget=budget)
    else:
        res = cat(X, limit=args.limit, budget=budget, force=args.force)
    payload = {"command": "cat", **_result_payload(res)}
    _emit(args, payload, [str(res)] + [f"  {n}" for n in res.notes])
    return EXIT_OK if res.exact else EXIT_BOUNDS


def _cmd_tc(args):
    if args.witness and args.via_colorings:
        raise _Usage("--witness and --via-colorings exclude each other")
    _exact_search_only(
        args,
        "--witness" if args.witness else "--via-colorings" if args.via_colorings else None,
    )
    budget = _budget_of(args)
    circle = khalimsky_circle(args.circle)
    if args.witness:
        with open(args.witness) as fh:
            cov = parse_cover(torus(circle).P, fh.read())
        res = tc(circle, mode="witness", witness=cov, budget=budget)
    elif args.via_colorings:
        res = tc_via_colorings(circle, budget)
    else:
        res = tc(circle, limit=args.limit, budget=budget, force=args.force)
    payload = {"command": "tc", "circle": args.circle, **_result_payload(res)}
    head = str(res.value) if res.exact else str(res)
    _emit(args, payload, [head] + [f"  {n}" for n in res.notes])
    return EXIT_OK if res.exact else EXIT_BOUNDS


def _cmd_colorings(args):
    found = enumerate_simple_colorings(
        torus(khalimsky_circle(args.n)), args.colors, symmetry=not args.no_symmetry
    )
    payload = {
        "command": "colorings",
        "n": args.n,
        "colors": args.colors,
        "count": len(found),
        "classes": [c.rows() for c in found],
    }
    lines = [f"{len(found)} simple colorings"]
    for c in found:
        lines.append(c.serialize().rstrip("\n"))
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_verify_witness(args):
    rep = verify_bundle(args.k, _budget_of(args))
    payload = {
        "command": "verify-witness",
        "k": rep.k,
        "m": rep.m,
        "n_C": rep.n_C,
        "passed": rep.passed,
        "checks": [
            {"name": n, "ok": ok, "detail": d} for n, ok, d in rep.checks
        ],
        "notes": rep.notes,
    }
    _emit(args, payload, [rep.render()])
    return EXIT_OK if rep.passed else EXIT_BOUNDS


def _cmd_export_complex(args):
    if args.cycle is not None:
        if args.square:
            raise _Usage("--square takes a space, not --cycle")
        K = cycle_complex(args.cycle)
    else:
        K = order_complex(_load_space(args))
    if args.out:
        export_complex(K, args.out)
        lines = [f"wrote {args.out}"]
    else:
        lines = [format_complex(K).rstrip("\n")]
    _emit(
        args,
        {
            "command": "export-complex",
            "vertices": len(K.vertices),
            "facets": len(K.facets),
            "dim": K.dim(),
        },
        lines,
    )
    return EXIT_OK


def _cmd_reproduce(args):
    budget = _budget_of(args)
    rows = []
    ok = True

    res = tc(khalimsky_circle(2), budget=budget)
    rows.append(("tc, half-size 2", res.value, 3))
    res = tc(khalimsky_circle(3), budget=budget)
    rows.append(("tc, half-size 3", res.value, 2))
    res = tc_via_colorings(khalimsky_circle(4), budget)
    rows.append(("tc, half-size 4", res.value, 2))
    for k in (5, 6, 7):
        rep = verify_bundle(k, budget)
        rows.append((f"tc, half-size {k} (witness)", 1 if rep.passed else None, 1))
    for n in (2, 3):
        res = cat(khalimsky_circle(n).space, budget=budget)
        rows.append((f"cat, circle half-size {n}", res.value, 1))
    res = cat(torus(khalimsky_circle(2)).P, budget=budget)
    rows.append(("cat, torus half-size 2", res.value, 3))
    res = cat(torus(khalimsky_circle(3)).P, budget=budget)
    rows.append(("cat, torus half-size 3", res.value, 2))

    lines = [f"{'quantity':32} {'computed':>8} {'expected':>8}"]
    for name, got, want in rows:
        ok = ok and got == want
        lines.append(f"{name:32} {str(got):>8} {str(want):>8}")
    lines.append("all values match" if ok else "MISMATCH")
    payload = {
        "command": "reproduce",
        "rows": [
            {"name": n, "computed": g, "expected": w} for n, g, w in rows
        ],
        "ok": ok,
    }
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_BOUNDS


_DISPATCH = {
    "space": _cmd_space,
    "core": _cmd_core,
    "homotopic": _cmd_homotopic,
    "degree": _cmd_degree,
    "classify": _cmd_classify,
    "cat": _cmd_cat,
    "tc": _cmd_tc,
    "colorings": _cmd_colorings,
    "verify-witness": _cmd_verify_witness,
    "export-complex": _cmd_export_complex,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "budget"):
            _budget_of(args)
        return _DISPATCH[args.command](args)
    except (_Usage, MismatchedSpaces, InvalidParameter, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, FinspaceError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
