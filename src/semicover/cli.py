"""Command line front end.

Decision subcommands print one JSON object on stdout; graph-producing
subcommands print a graph file.  Human-oriented notes go to stderr.

Exit codes: 0 yes/success, 1 no/counterexample, 2 usage or validation
error, 3 target classified NP-complete, 4 search budget or recursion
depth exhausted, 5 internal check failed (a library self-check, such as
the re-verification of a witness, caught a wrong result).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import build
from .cover import ResourceLimit, witness_json
from .dichotomy import classify, decide_colored
from .disconnected import build_pattern, decide
from .graph import Graph, GraphFormatError, is_connected, parse_graph, serialize_graph
from .stronger import check_stronger

SEMANTICS = ("cover", "lbhom", "surjective", "equitable")
# gen: each graph family's constructor and the names of its parameters
_FAMILIES = {
    "f": (build.build_F, ("SEMIS", "LOOPS")),
    "w": (build.build_W, ("K", "M", "L", "P", "Q")),
    "wd": (build.build_WD, ("M", "L", "M2")),
    "cycle": (build.cycle, ("N",)),
    "path": (build.path, ("N",)),
    "complete": (build.complete, ("N",)),
    "petersen": (build.petersen, ()),
}
BUDGET_HELP = ("exit 4 instead of running exact search on a source (or source "
               "component) with more darts than this; polynomial deciders ignore it")
# the least value each numeric option accepts
_MINIMA = {"budget": 0, "jobs": 1, "max_n": 1}


def _load(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _fail(code: int, msg: str) -> int:
    _emit({"error": msg})
    _note(msg)
    return code


def _cmd_check(args) -> int:
    g = _load(args.g)
    h = _load(args.h)
    if args.semantics == "cover":
        if h.n and not is_connected(h):
            return _fail(2, "cover semantics needs a connected target; "
                            "use lbhom, surjective or equitable instead")
        v = decide_colored(g, h, budget=args.budget)
        out = {"semantics": "cover", "answer": v.answer, "method": v.method}
        if args.witness and v.witness is not None:
            out["witness"] = witness_json(g, h, v.witness)
        _emit(out)
        _note("covers" if v.answer else "does not cover")
        return 0 if v.answer else 1
    dec = decide(g, h, args.semantics, want_witness=args.witness,
                 budget=args.budget)
    out = dec.as_json()
    if args.witness and dec.witness is not None:
        out["witness"] = witness_json(g, h, dec.witness)
    _emit(out)
    _note(f"{args.semantics}: {'yes' if dec.answer else 'no'}")
    return 0 if dec.answer else 1


def _cmd_pattern(args) -> int:
    g = _load(args.g)
    h = _load(args.h)
    pattern, _, _ = build_pattern(g, h, budget=args.budget)
    _emit(pattern.as_json())
    return 0


def _cmd_classify(args) -> int:
    h = _load(args.h)
    c = classify(h)
    _emit({"verdict": c.verdict, "rules": list(c.rules), "pieces": c.pieces})
    _note(c.verdict)
    return 0 if c.polynomial else 3


def _cmd_double_cover(args) -> int:
    g = _load(args.g)
    g2, _ = build.double_cover(g)
    text = serialize_graph(g2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _note(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stronger(args) -> int:
    a = _load(args.a)
    b = _load(args.b)
    report = check_stronger(a, b, args.max_n, jobs=args.jobs)
    out = report.as_json()
    if report.counterexample is not None:
        out["counterexample"] = serialize_graph(report.counterexample)
        if args.emit:
            with open(args.emit, "w", encoding="utf-8") as fh:
                fh.write(serialize_graph(report.counterexample))
            _note(f"wrote counterexample to {args.emit}")
    _emit(out)
    _note("stronger: verified" if report.stronger
          else f"counterexample of order {report.counterexample.n}")
    return 0 if report.stronger else 1


def _parse_items(text: str) -> list[int]:
    try:
        items = [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"bad item list: {text!r}")
    if not items or any(x < 1 for x in items):
        raise ValueError("items must be positive integers")
    return items


def _cmd_gen(args) -> int:
    kind = args.kind
    if args.semi_ends and kind != "path":
        raise ValueError("--semi-ends applies to gen path only")
    if kind == "binpacking":
        if len(args.params) != 2:
            raise ValueError("binpacking needs: ITEMS BINS (e.g. 2,3,2,3 2)")
        xs = _parse_items(args.params[0])
        bins = int(args.params[1])
        if bins < 1:
            raise ValueError("bins must be at least 1")
        g, h = build.gen_binpacking(xs, bins)
        if not (args.out_g and args.out_h):
            raise ValueError("binpacking emits two graphs; pass --out-g and --out-h")
        with open(args.out_g, "w", encoding="utf-8") as fh:
            fh.write(serialize_graph(g))
        with open(args.out_h, "w", encoding="utf-8") as fh:
            fh.write(serialize_graph(h))
        _emit({"g": args.out_g, "h": args.out_h,
               "items": xs, "bins": bins})
        return 0
    make, names = _FAMILIES[kind]
    params = [int(x) for x in args.params]
    if len(params) != len(names):
        raise ValueError(f"gen {kind} needs: {' '.join(names)}" if names
                         else f"gen {kind} takes no parameters")
    g = make(*params, semi_ends=args.semi_ends) if kind == "path" else make(*params)
    text = serialize_graph(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _note(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semicover",
        description="Covering projections of multigraphs with semi-edges.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide whether G covers H")
    c.add_argument("g", metavar="G", help="source graph file")
    c.add_argument("h", metavar="H", help="target graph file")
    c.add_argument("--semantics", choices=SEMANTICS, default="cover")
    c.add_argument("--witness", action="store_true",
                   help="include a covering witness in the output")
    c.add_argument("--budget", type=int, default=None, help=BUDGET_HELP)
    c.set_defaults(func=_cmd_check)

    c = sub.add_parser("pattern", help="covering pattern between components")
    c.add_argument("g", metavar="G")
    c.add_argument("h", metavar="H")
    c.add_argument("--budget", type=int, default=None, help=BUDGET_HELP)
    c.set_defaults(func=_cmd_pattern)

    c = sub.add_parser("classify", help="complexity of covering a target")
    c.add_argument("h", metavar="H")
    c.set_defaults(func=_cmd_classify)

    c = sub.add_parser("double-cover", help="canonical double cover of G")
    c.add_argument("g", metavar="G")
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=_cmd_double_cover)

    c = sub.add_parser("stronger", help="does every simple cover of A cover B")
    c.add_argument("a", metavar="A")
    c.add_argument("b", metavar="B")
    c.add_argument("--max-n", type=int, required=True,
                   help="largest candidate order to enumerate")
    c.add_argument("--jobs", type=int, default=1)
    c.add_argument("--emit", default=None,
                   help="write a counterexample graph to this file")
    c.set_defaults(func=_cmd_stronger)

    c = sub.add_parser("gen", help="generate standard graphs")
    c.add_argument("kind", choices=[*_FAMILIES, "binpacking"])
    c.add_argument("params", nargs="*",
                   help="numeric parameters for the chosen family")
    c.add_argument("-o", "--output", default=None)
    c.add_argument("--semi-ends", action="store_true",
                   help="path only: end vertices get semi-edges")
    c.add_argument("--out-g", default=None, help="binpacking: source file")
    c.add_argument("--out-h", default=None, help="binpacking: target file")
    c.set_defaults(func=_cmd_gen)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, least in _MINIMA.items():
            if getattr(args, name, None) is not None and getattr(args, name) < least:
                raise ValueError(f"--{name.replace('_', '-')} must be at least {least}")
        return args.func(args)
    except GraphFormatError as e:
        return _fail(2, f"graph format error: {e}")
    except ResourceLimit as e:
        return _fail(4, f"resource limit: {e}")
    except RecursionError:
        return _fail(4, "recursion depth exhausted; the input is too large "
                        "for exact search")
    except RuntimeError as e:
        return _fail(5, f"internal check failed: {e}")
    except OSError as e:
        return _fail(2, str(e))
    except ValueError as e:
        return _fail(2, str(e))


if __name__ == "__main__":
    raise SystemExit(main())
