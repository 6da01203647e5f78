"""Command-line front end.

Subcommands:

* ``widths``  -- parameter report (n, rpw, rank, hpd), all in linear time
* ``draw``    -- compute a drawing, print it as JSON
* ``verify``  -- check a drawing JSON against a tree
* ``gen``     -- emit trees from the built-in families
* ``oracle``  -- slow ground-truth cross-checks (rank / nw / equivalence)
* ``render``  -- turn a drawing JSON into ascii art or svg

Trees are accepted as paren text ("(()())"), as tree JSON, as a path to
a file holding either, or as "-" for stdin.  Drawings are JSON only
(inline, file, or stdin).  All JSON output uses sorted keys.

Exit codes: 0 success; 1 a checked property failed (verify said no, or
an oracle run disagreed); 2 bad usage (argparse's errors) or bad input,
which is exactly an ``uptree.InputError``: the library raises it where
it checks its input, and so does this module for files and JSON text; 3
an internal error, reported as "uptree: internal error: ..." after its
traceback; 141 the reader closed stdout early (``uptree ... | head``),
the code a shell gives a filter killed by a closed pipe.

Only ``oracle`` loads :mod:`uptree.oracle`.  It passes on only the
options given, so the library's defaults and caps hold, and past a cap
it exits 2 with the library's message.  ``draw --prune-collinear``
applies ``layout.prune_collinear`` to the drawing of any mode.
"""

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from .layout import (
    _MODES,
    _ordered,
    _write_drawing,
    draw_unordered,
    drawing_from_json,
    layout_stats,
    prune_collinear,
)
from .ranking import rank, rank_witness_to_json
from .tree import (
    InputError,
    _tree_json_chunks,
    _write_chunks,
    gen_complete_binary,
    gen_hpd_family,
    gen_path,
    gen_quintary_family,
    gen_random_tree,
    parse_tree,
    serialize_tree,
    tree_from_json,
)
from .verify import PROPERTIES, check_drawing, extract_rank_witness
from .widths import param_report

__all__ = ["main"]


def _read_source(arg: str) -> str:
    """Resolve a tree/drawing argument to raw text.

    "-" reads stdin; text starting with "(" or "{" is taken inline;
    anything else must be a readable file path.  Text that is not UTF-8
    is bad input.
    """
    stripped = arg.strip()
    if stripped.startswith("(") or stripped.startswith("{"):
        return arg
    try:
        if arg == "-":
            return sys.stdin.read()
        p = Path(arg)
        if p.is_file():
            return p.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {arg!r}: {e}")
    raise InputError(f"{arg!r} is neither inline tree/drawing text nor a file")


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"duplicate key {key!r}")
    return obj


def _load_json(text: str, what: str):
    """json.loads, except that a key repeated in one object is an error:
    keeping only its last value would judge input other than the user's.
    Nesting deeper than the decoder's recursion is bad input too."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as e:  # json.JSONDecodeError is one
        raise InputError(f"bad {what} JSON: {e}")
    except RecursionError:
        raise InputError(f"bad {what} JSON: nested too deeply")


def _load_tree(arg: str):
    text = _read_source(arg).strip()
    if text.startswith("{"):
        return tree_from_json(_load_json(text, "tree"))
    return parse_tree(text)


def _load_drawing(arg: str):
    text = _read_source(arg).strip()
    if not text.startswith("{"):
        raise InputError("a drawing must be a JSON object")
    return drawing_from_json(_load_json(text, "drawing"))


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _cmd_widths(args) -> int:
    t = _load_tree(args.tree)
    out = param_report(t)._asdict()
    out["rank"] = rank(t).root_rank()
    _emit(out)
    return 0


def _cmd_draw(args) -> int:
    t = _load_tree(args.tree)
    if args.mode == "unordered":
        d = draw_unordered(t)
    else:
        # ordered1 ranks once and builds its own drawing, not an ordered3 one first
        d = _ordered(t, None, args.mode == "ordered1")
    if args.prune_collinear:
        d = prune_collinear(d)
    # the text _emit would print, never built whole
    _write_drawing(sys.stdout.write, d, layout_stats(d)._asdict() if args.stats else None)
    return 0


def _cmd_verify(args) -> int:
    t = _load_tree(args.tree)
    d = _load_drawing(args.drawing)
    require = tuple(s.strip() for s in args.require.split(",") if s.strip())
    if not require:
        raise InputError("--require must name at least one property")
    report = check_drawing(t, d, require=require)
    out = report._asdict()
    if args.witness:
        w = extract_rank_witness(t, d, report)
        out["witness"] = None if w is None else rank_witness_to_json(w)
    _emit(out)
    return 0 if report.ok else 1


_FAMILIES = {
    "path": gen_path,
    "binary": gen_complete_binary,
    "quintary": gen_quintary_family,
    "hpd": gen_hpd_family,
}


def _cmd_gen(args) -> int:
    if args.family == "random":
        t = gen_random_tree(args.k, seed=args.seed, max_degree=args.max_degree)
    else:
        t = _FAMILIES[args.family](args.k)
    if args.json:
        # the text _emit would print, never built whole
        _write_chunks(sys.stdout.write, _tree_json_chunks(t))
    else:
        print(serialize_tree(t))
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import equivalence_suite, min_nodes_for_rank, rank_bruteforce

    if args.what == "rank":
        t = _load_tree(args.tree)
        brute = rank_bruteforce(t)
        engine = rank(t).root_rank()
        _emit({"n": t.n, "rank_bruteforce": brute, "rank_engine": engine,
               "agree": brute == engine})
        return 0 if brute == engine else 1
    # options left out are absent (argparse.SUPPRESS): the library's defaults stand
    given = {k: v for k, v in vars(args).items() if k in ("n_max", "max_n", "max_W")}
    if args.what == "nw":
        _emit(min_nodes_for_rank(args.W, **given)._asdict())
        return 0
    # equivalence
    report = equivalence_suite(**given)
    _emit(report)
    return 0 if report["agree"] else 1


def _cmd_render(args) -> int:
    from .render import render_ascii, render_svg  # only `render` draws pictures

    d = _load_drawing(args.drawing)
    text = render_svg(d) if args.format == "svg" else render_ascii(d)
    if args.out is not None:
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            raise InputError(f"cannot write {args.out!r}: {e}")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="uptree",
        description="Minimum-width upward drawings of rooted trees.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("widths", help="print n, rpw, rank, hpd")
    p.add_argument("tree", help="paren text, tree JSON, file path, or - for stdin")
    p.set_defaults(fn=_cmd_widths)

    p = sub.add_parser("draw", help="compute a drawing, print drawing JSON")
    p.add_argument("tree")
    p.add_argument("--mode", choices=_MODES, default="ordered3",
                   help="unordered: width rpw, straight lines; ordered3: width "
                        "rank, <=3 bends; ordered1: width rank, <=1 bend")
    p.add_argument("--prune-collinear", action="store_true",
                   help="drop bend points that lie on a straight segment (any mode)")
    p.add_argument("--stats", action="store_true",
                   help="include width/height/bends in the output")
    p.set_defaults(fn=_cmd_draw)

    p = sub.add_parser("verify", help="check a drawing JSON against a tree")
    p.add_argument("tree")
    p.add_argument("drawing")
    p.add_argument("--require", default="planar,upward",
                   help="comma-separated properties that must hold for exit 0 "
                        f"({', '.join(PROPERTIES)})")
    p.add_argument("--witness", action="store_true",
                   help="also extract a rank witness from the drawing")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gen", help="emit a tree from a built-in family")
    p.add_argument("family", choices=[*_FAMILIES, "random"])
    p.add_argument("k", type=int,
                   help="path: node count; binary: height; quintary/hpd: family "
                        "index; random: node count")
    p.add_argument("--seed", type=int, default=0, help="rng seed for random")
    p.add_argument("--max-degree", type=int, default=None,
                   help="degree cap for random")
    p.add_argument("--json", action="store_true", help="emit tree JSON, not parens")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("oracle", help="slow exhaustive cross-checks")
    osub = p.add_subparsers(dest="what", required=True)

    q = osub.add_parser("rank", help="brute-force the rank, compare with the engine")
    q.add_argument("tree")
    q.set_defaults(fn=_cmd_oracle)

    q = osub.add_parser("nw", help="minimal node count reaching a given rank")
    q.add_argument("W", type=int, help="target rank")
    q.add_argument("--n-max", type=int, default=argparse.SUPPRESS,
                   help="search trees up to this many nodes")
    q.set_defaults(fn=_cmd_oracle)

    q = osub.add_parser("equivalence",
                        help="five witness-existence phrasings on all small trees")
    q.add_argument("--max-n", type=int, default=argparse.SUPPRESS,
                   help="largest tree size to check")
    q.add_argument("--max-w", type=int, dest="max_W", default=argparse.SUPPRESS,
                   help="largest width to test")
    q.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("render", help="drawing JSON -> ascii or svg")
    p.add_argument("drawing")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(fn=_cmd_render)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # A command builds acyclic data and leaves a bounded number of cyclic
    # objects whatever its input (tests/test_cli_gc.py), so the cyclic
    # collector finds nothing worth its time: up to a third of a command at
    # 10^6 nodes.  The caller's setting comes back before main returns.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if collecting:
            gc.enable()


def _run(args) -> int:
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at exit has nowhere left to fail
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except InputError as e:
        print(f"uptree: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        import traceback  # only on this path: it costs every start-up ~2 ms

        traceback.print_exc()
        print(f"uptree: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
