"""Workload corpora, the ops that run them, and known-answer checks.

Every workload is a closed loop with one client: one op at a time, in
one process, no threads.  An op carries one input through the public
calls the CLI makes for it, in the CLI's order, and reads its input file
the way the CLI does.  A round is one pass over the corpus.  The corpus
is made from the seed alone; the library only sees the generated inputs.

Reference values never come from the library.  Family values are the
paper's (path: rpw = rank = 1; complete binary of height h: rpw = rank =
h; quintary(i): rpw = i, rank = 2i - 1; hpd(i >= 2): rpw = 2), and every
tree is also checked against the independent recursions below.

Left out on purpose: ``gen_random_tree(max_degree=...)`` is not used,
because its rejection sampler fails past n of about 50; binary and
quintary inputs cover bounded degree.  The exponential ``oracle`` module
is not benchmarked; it is test-time ground truth, capped by size.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

MODES = ("unordered", "ordered3", "ordered1")
REQUIRE = {
    "unordered": ("planar", "strictly_upward", "straight_line"),
    "ordered3": ("planar", "strictly_upward", "order_preserving"),
    "ordered1": ("planar", "strictly_upward", "order_preserving"),
}
WIDE_REQUIRE = ("planar", "upward", "order_preserving")
MAX_BENDS = {"unordered": 0, "ordered3": 3, "ordered1": 1}


# ------------------------------------------------------------ references


def _corner(ranks) -> bool:
    """A left corner witness exists for these child ranks (the paper's
    one-sided test): right to left from the last child of maximum rank
    W, each child of rank >= w - 1 must have rank exactly w - 1 and then
    lowers w by one."""
    w = max(ranks)
    last = len(ranks) - 1 - ranks[::-1].index(w)
    for r in reversed(ranks[:last]):
        if r >= w:
            return False
        if r == w - 1:
            w -= 1
    return True


def children_of(parent) -> list:
    """Child lists, left to right, of a tree given by preorder parents."""
    children = [[] for _ in parent]
    for v in range(1, len(parent)):
        children[parent[v]].append(v)
    return children


def reference_params(parent) -> dict:
    """rpw, rank and hpd of a tree given by preorder parents, by the recursions."""
    children = children_of(parent)
    n = len(children)
    rpw = [1] * n
    rk = [1] * n
    hpd = [1] * n
    size = [1] * n
    for v in range(n - 1, -1, -1):
        kids = children[v]
        if not kids:
            continue
        rs = [rpw[c] for c in kids]
        m = max(rs)
        rpw[v] = m if rs.count(m) == 1 else m + 1
        ranks = [rk[c] for c in kids]
        bump = not (_corner(ranks) or _corner(ranks[::-1]))
        rk[v] = max(ranks) + bump
        size[v] += sum(size[c] for c in kids)
        heavy = max(kids, key=size.__getitem__)  # leftmost on ties
        hpd[v] = max(hpd[c] + (c != heavy) for c in kids)
    return {"rpw": rpw[0], "rank": rk[0], "hpd": hpd[0]}


def family_values(family: str, k: int) -> dict:
    """Size and, where the paper gives them, the parameter values."""
    if family == "path":
        return {"n": k, "rpw": 1, "rank": 1}
    if family == "binary":
        return {"n": 2**k - 1, "rpw": k, "rank": k}
    if family == "quintary":
        s = 1
        for _ in range(k - 1):
            s = 6 * s + 2
        return {"n": s, "rpw": k, "rank": 2 * k - 1}
    if family == "hpd":
        return {"n": 3 * 2 ** (k - 1) - 2, "rpw": 2}
    return {"n": k}


def depths(parent) -> list:
    d = [0] * len(parent)
    for v in range(1, len(parent)):
        d[v] = d[parent[v]] + 1
    return d


def _sum_depth(parent) -> int:
    return sum(depths(parent))


def _sum_span(parent) -> int:
    return sum(v - parent[v] for v in range(1, len(parent)))


# -------------------------------------------------------------- geometry


def _bends(pts) -> int:
    q = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    return sum(
        (b[0] - a[0]) * (c[1] - b[1]) != (b[1] - a[1]) * (c[0] - b[0])
        for a, b, c in zip(q, q[1:], q[2:])
    )


def geometry(d) -> dict:
    """Width, row span, occupied rows and bends, read off the coordinates."""
    pts = list(d.pos.values())
    for line in d.edges.values():
        pts.extend(line)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return {
        "width": max(xs) - min(xs) + 1,
        "span": max(ys) - min(ys) + 1,
        "rows": len(set(ys)),
        "bends": max((_bends(line) for line in d.edges.values()), default=0),
    }


def segment_counts(d) -> tuple:
    """(segments, wall crossings) of a drawing.

    Wall crossings are computed, not measured: the sum over non-vertical
    segments of the strip walls (distinct x of segment endpoints) each
    one spans, which is the work of the verifier's strip walk.
    """
    segs = []
    for line in d.edges.values():
        q = [p for i, p in enumerate(line) if i == 0 or p != line[i - 1]]
        segs.extend(zip(q, q[1:]))
    walls = sorted({p[0] for s in segs for p in s})
    crossings = 0
    for a, b in segs:
        if a[0] != b[0]:
            lo, hi = sorted((a[0], b[0]))
            crossings += bisect_right(walls, hi) - bisect_left(walls, lo)
    return len(segs), crossings


def layered_drawing(parent) -> dict:
    """Positions of the straight-line layered drawing: x = preorder
    index + 1, y = -depth.

    Planar, strictly upward and order-preserving by construction, and
    as wide as the tree has nodes.
    """
    dep = depths(parent)
    return {v: (v + 1, -dep[v]) for v in range(len(parent))}


def cross_two_leaves(parent, rng) -> Optional[dict]:
    """Positions of a layered drawing with two leaves swapped.

    The leaves are neighbours on one layer, under different parents, so
    after the swap their two edges cross each other and nothing else:
    the drawing is known to be non-planar with exactly one crossing,
    and still upward and order-preserving.  Returns None when the tree
    has no such pair.
    """
    pos = layered_drawing(parent)
    inner = set(parent[1:])
    layers: dict = {}
    for v in range(1, len(parent)):
        layers.setdefault(pos[v][1], []).append(v)
    pairs = [(a, b) for layer in layers.values() for a, b in zip(layer, layer[1:])
             if a not in inner and b not in inner and parent[a] != parent[b]]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    pos[a], pos[b] = pos[b], pos[a]
    return pos


def drawing_json(parent, pos) -> str:
    """Drawing JSON with a straight line for every edge."""
    return json.dumps({
        "mode": "unordered",
        "positions": {str(u): list(p) for u, p in sorted(pos.items())},
        "edges": [{"from": parent[v], "to": v, "points": [list(pos[parent[v]]), list(pos[v])]}
                  for v in range(1, len(parent))],
    })


# ---------------------------------------------------------------- corpus


@dataclass
class TreeInput:
    family: str
    k: int
    fmt: str  # "paren" or "json": how the input file holds the tree
    path: Path
    # preorder parents (-1 for the root): one flat array, so that the
    # corpus adds no objects for the garbage collector to scan
    parent: array
    known: dict
    _refs: Optional[dict] = None

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def label(self) -> str:
        return f"{self.family}({self.k})"

    def refs(self) -> dict:
        if self._refs is None:
            self._refs = reference_params(self.parent)
        return self._refs


@dataclass
class Op:
    tree: TreeInput
    mode: Optional[str] = None
    drawing: Optional[Path] = None  # verify_wide: the foreign drawing file
    bad: bool = False  # verify_wide: the crossed copy

    @property
    def label(self) -> str:
        extra = self.mode or ("crossed" if self.bad else "layered")
        return f"{self.tree.label}/{self.tree.fmt}/{extra}"


@dataclass
class CliCall:
    argv: list
    pipe_to: Optional[list]  # a second command reading argv's stdout
    code: int  # expected exit code of the last command
    expect: Callable  # -> the values the last command's JSON output must hold


@dataclass
class Corpus:
    ops: list
    cli: list
    # the ops on the CLI's input, run once more under tracemalloc
    probe: list


def _strata(rng, lo, hi, k) -> list:
    """k sizes, one near the middle of each of k log-spaced strata of
    [lo, hi], jittered by the seed within 3 % of the stratum width."""
    span = math.log(hi / lo)
    return [round(lo * math.exp(span * (j + rng.uniform(0.47, 0.53)) / k)) for j in range(k)]


# A random tree's cost varies a lot with its shape.  Where a workload's
# cost grows faster than n, the random input is the median, by that
# cost, of five seeded draws, so that every seed carries a typical load.
_TYPICAL = {"draw_bushy": _sum_depth, "verify_wide": _sum_span}

# Sizes keep one round near 1.5 s on a 2-core machine, so that a run of
# 36 s holds about twenty-five rounds and a few hundred ops.  Other tenants
# of a shared machine slow it in spells lasting from a fraction of a
# second to minutes, and only many short ops average them out; bigger
# inputs are left to the scaling ladder.
#
# A round has 15 inputs (verify_wide: 7 pairs of equal cost), so that
# the median and the 90th percentile over the inputs' mean latencies
# fall on one input or on one pair, not between two inputs of different
# cost.  The costliest inputs are family trees, whose shape does not
# change with the seed, so that p90 does not either; in verify_wide the
# random trees are small enough that the median pair is quintary(4).
_SPECS = {
    "params": lambda r: (
        [("random", n) for n in _strata(r, 5000, 30000, 5)]
        + [("quintary", 4), ("quintary", 5), ("quintary", 6)]
        + [("binary", 12), ("binary", 13), ("binary", 14)]
        + [("path", n) for n in _strata(r, 5000, 30000, 4)]
    ),
    "draw_deep": lambda r: (
        [("path", n) for n in _strata(r, 150, 500, 3)]
        + [("hpd", 7), ("hpd", 8)]
    ),
    "draw_bushy": lambda r: (
        [("binary", 8), ("binary", 10), ("quintary", 4)]
        + [("random", n) for n in _strata(r, 300, 700, 2)]
    ),
    "verify_wide": lambda r: (
        [("random", n) for n in _strata(r, 80, 160, 2)]
        + [("binary", 9), ("binary", 10), ("binary", 11), ("quintary", 3), ("quintary", 4)]
    ),
}

_TINY_SPECS = {
    "params": lambda r: [("random", 300), ("quintary", 3), ("binary", 6), ("path", 200)],
    "draw_deep": lambda r: [("path", 40), ("hpd", 4), ("hpd", 5)],
    "draw_bushy": lambda r: [("binary", 4), ("quintary", 3), ("random", 60)],
    "verify_wide": lambda r: [("random", 40), ("binary", 4), ("quintary", 3)],
}

# the fixed input of the CLI timing, one of the corpus trees
_CLI_TREE = {
    "params": ("quintary", 6),
    "draw_deep": ("hpd", 8),
    "draw_bushy": ("binary", 8),
    "verify_wide": ("quintary", 4),
}
_TINY_CLI_TREE = {
    "params": ("quintary", 3),
    "draw_deep": ("hpd", 5),
    "draw_bushy": ("binary", 4),
    "verify_wide": ("quintary", 3),
}

WORKLOADS = tuple(_SPECS)


def parents(t) -> array:
    return array("i", [-1] + [t.parent(v) for v in range(1, t.n)])


def generate(lib, family, k, rng, typical=None):
    """A family member, or a random tree of k nodes drawn with rng."""
    if family == "path":
        return lib.gen_path(k)
    if family == "binary":
        return lib.gen_complete_binary(k)
    if family == "quintary":
        return lib.gen_quintary_family(k)
    if family == "hpd":
        return lib.gen_hpd_family(k)
    if typical is None:
        return lib.gen_random_tree(k, seed=rng.randrange(2**31))
    draws = []
    for _ in range(5):
        t = lib.gen_random_tree(k, seed=rng.randrange(2**31))
        draws.append((typical(parents(t)), len(draws), t))
    return sorted(draws)[2][2]


def build(lib, workload: str, seed: int, workdir: Path, tiny: bool = False) -> Corpus:
    """Generate the workload's corpus from the seed and write its input files."""
    rng = random.Random(f"{workload}:{seed}")
    specs = (_TINY_SPECS if tiny else _SPECS)[workload](rng)
    cli_tree = (_TINY_CLI_TREE if tiny else _CLI_TREE)[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    trees = []
    for i, (family, k) in enumerate(specs):
        t = generate(lib, family, k, rng, _TYPICAL.get(workload))
        fmt = "paren" if i % 2 == 0 else "json"
        path = workdir / f"tree{i}.{'txt' if fmt == 'paren' else 'json'}"
        if fmt == "paren":
            path.write_text(lib.serialize_tree(t))
        else:
            path.write_text(json.dumps(lib.tree_to_json(t)))
        trees.append(TreeInput(family, k, fmt, path, parents(t), family_values(family, k)))

    if workload == "params":
        ops = [Op(t) for t in trees]
    elif workload in ("draw_deep", "draw_bushy"):
        ops = [Op(t, mode=m) for t in trees for m in MODES]
    else:
        ops = []
        for i, t in enumerate(trees):
            good = workdir / f"layered{i}.json"
            good.write_text(drawing_json(t.parent, layered_drawing(t.parent)))
            ops.append(Op(t, drawing=good))
            crossed = cross_two_leaves(t.parent, rng)
            if crossed is None:
                raise RuntimeError(f"{t.label} has no two leaves to cross")
            bad = workdir / f"crossed{i}.json"
            bad.write_text(drawing_json(t.parent, crossed))
            ops.append(Op(t, drawing=bad, bad=True))
    probe = [op for op in ops if (op.tree.family, op.tree.k) == cli_tree]
    rng.shuffle(ops)
    return Corpus(ops=ops, cli=_cli_calls(workload, probe), probe=probe)


def _cli_calls(workload, probe) -> list:
    t = probe[0].tree
    if workload == "params":
        return [CliCall(["widths", str(t.path)], None, 0, lambda: {**t.refs(), **t.known})]
    if workload == "verify_wide":
        return [
            CliCall(["verify", str(op.tree.path), str(op.drawing)], None, 1 if op.bad else 0,
                    lambda bad=op.bad: {"ok": not bad, "planar": not bad})
            for op in probe
        ]
    return [
        CliCall(["draw", str(t.path), "--mode", op.mode],
                ["verify", str(t.path), "-", "--require", ",".join(REQUIRE[op.mode])],
                0, lambda mode=op.mode: {
                    "ok": True, "width": t.refs()["rpw" if mode == "unordered" else "rank"]})
        for op in probe
    ]


# -------------------------------------------------------------------- ops


def _load_tree(lib, tr, tree: TreeInput):
    text = tree.path.read_text().strip()
    if tree.fmt == "json":
        with tr.span("tree.from_json"):
            return lib.tree_from_json(json.loads(text))
    with tr.span("tree.parse"):
        return lib.parse_tree(text)


def run_params(lib, tr, op: Op) -> dict:
    """``uptree widths <file>``: load, rpw, hpd, rank."""
    t = _load_tree(lib, tr, op.tree)
    with tr.span("widths.rpw"):
        rpw = lib.rooted_pathwidth(t)
    with tr.span("widths.hpd"):
        hpd = lib.heavy_path_depth(t)
    with tr.span("rank.rank"):
        ann = lib.rank(t)
    return {"n": t.n, "rpw": rpw.root_value(), "hpd": hpd, "rank": ann.root_rank(),
            "ann": ann}


def run_draw(lib, tr, op: Op, bushy: bool) -> dict:
    """``uptree draw <file> --mode M | uptree verify <file> -`` (plus
    ``--witness`` on ordered3 and ``render --format svg`` when bushy).

    Rank and rpw are called on their own and handed to the layout, which
    would otherwise compute them inside; ordered1 is ``reduce_bends``,
    which ranks the tree again inside its span.
    """
    res: dict = {"drawings": []}
    t = _load_tree(lib, tr, op.tree)
    if op.mode == "unordered":
        with tr.span("widths.rpw"):
            ann = lib.rooted_pathwidth(t)
        with tr.span("layout.unordered"):
            d = lib.draw_unordered(t, ann)
        res["drawings"].append(d)
    else:
        with tr.span("rank.rank"):
            ann = lib.rank(t)
        res["ann"] = ann
        with tr.span("layout.ordered3"):
            d = lib.draw_ordered(t, ann)
        res["drawings"].append(d)
        if op.mode == "ordered1":
            with tr.span("layout.ordered1"):
                d = lib.reduce_bends(d, t)
            res["drawings"].append(d)
    with tr.span("serialize.dump"):
        text = json.dumps(lib.drawing_to_json(d), sort_keys=True, indent=2)

    t2 = _load_tree(lib, tr, op.tree)
    with tr.span("serialize.load"):
        d2 = lib.drawing_from_json(json.loads(text))
    with tr.span("verify.check"):
        rep = lib.check_drawing(t2, d2, require=REQUIRE[op.mode])
    if bushy:
        if op.mode == "ordered3":
            with tr.span("verify.witness"):
                res["witness"] = lib.extract_rank_witness(t2, d2)
        with tr.span("render.svg"):
            res["svg"] = lib.render_svg(d2)
    res.update(n=t.n, text=text, loaded=d2, report=rep)
    return res


def run_verify(lib, tr, op: Op) -> dict:
    """``uptree verify <tree> <drawing>`` on a drawing made outside uptree."""
    t = _load_tree(lib, tr, op.tree)
    text = op.drawing.read_text().strip()
    with tr.span("serialize.load"):
        d = lib.drawing_from_json(json.loads(text))
    with tr.span("verify.check"):
        rep = lib.check_drawing(t, d, require=WIDE_REQUIRE)
    return {"n": t.n, "loaded": d, "report": rep}


RUN = {
    "params": run_params,
    "draw_deep": lambda lib, tr, op: run_draw(lib, tr, op, bushy=False),
    "draw_bushy": lambda lib, tr, op: run_draw(lib, tr, op, bushy=True),
    "verify_wide": run_verify,
}


# ----------------------------------------------------------------- checks


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what} is {got!r}, expected {want!r}")


def _check_params_values(problems, tree: TreeInput, got: dict):
    refs = tree.refs()
    for key in ("rpw", "rank", "hpd"):
        _expect(problems, key, got[key], refs[key])
        if key in tree.known:
            _expect(problems, f"{key} (paper)", got[key], tree.known[key])
    _expect(problems, "n", got["n"], tree.known["n"])
    if not got["rpw"] <= got["rank"] <= 2 * got["rpw"] - 1:
        problems.append(f"rank {got['rank']} outside [rpw, 2 rpw - 1], rpw {got['rpw']}")
    if not got["rpw"] <= got["hpd"]:
        problems.append(f"rpw {got['rpw']} exceeds hpd {got['hpd']}")


def check(workload: str, op: Op, res: dict) -> list:
    """Problems with an op's outputs; an empty list means correct."""
    problems: list = []
    tree = op.tree
    if workload == "params":
        _check_params_values(problems, tree, res)
        return problems
    rep = res["report"]
    if workload == "verify_wide":
        _expect(problems, "verdict", rep.ok, not op.bad)
        _expect(problems, "planar", rep.planar, not op.bad)
        _expect(problems, "upward", rep.upward, True)
        _expect(problems, "order_preserving", rep.order_preserving, True)
        _expect(problems, "width", rep.width, tree.n)
        return problems

    n = tree.n
    _expect(problems, "n", res["n"], tree.known["n"])
    want_width = tree.refs()["rpw" if op.mode == "unordered" else "rank"]
    d, d2 = res["drawings"][-1], res["loaded"]
    g = geometry(d)
    _expect(problems, "width", g["width"], want_width)
    if op.mode == "unordered":
        _expect(problems, "rows", g["rows"], n)
        _expect(problems, "row span", g["span"], n)
        if "rpw" in tree.known:
            _expect(problems, "width (paper)", g["width"], tree.known["rpw"])
    else:
        if op.mode == "ordered3" and g["span"] > 2 * n - 1:
            problems.append(f"row span {g['span']} exceeds 2n - 1 = {2 * n - 1}")
        if "rank" in tree.known:
            _expect(problems, "width (paper)", g["width"], tree.known["rank"])
    if g["bends"] > MAX_BENDS[op.mode]:
        problems.append(f"{g['bends']} bends on an edge, at most {MAX_BENDS[op.mode]} allowed")
    if (d2.mode, d2.pos, d2.edges) != (d.mode, d.pos, d.edges):
        problems.append("drawing JSON does not round-trip")
    _expect(problems, "verdict", rep.ok, True)
    if "witness" in res:
        w = res["witness"]
        if n > 1 and (w is None or w.W != want_width):
            problems.append(f"extracted witness {w!r}, expected one of width {want_width}")
    if "svg" in res:
        svg = res["svg"]
        _expect(problems, "svg nodes", svg.count("<circle"), n)
        _expect(problems, "svg edges", svg.count("<polyline"), n - 1)
    return problems


# ----------------------------------------------------------------- counts


def add_counts(total: dict, op: Op, res: dict) -> None:
    """Add the work counts of one op, read from its outputs, to `total`.

    ``rank.max_chain`` keeps the maximum; the other counts add up.
    """
    out: dict = {}
    ann = res.get("ann")
    if ann is not None:
        parent = op.tree.parent
        top = [0] * len(parent)  # highest child rank
        for v in range(1, len(parent)):
            top[parent[v]] = max(top[parent[v]], ann.rank[v])
        out["rank.bumped_nodes"] = sum(1 for v, r in enumerate(top) if r and ann.rank[v] == r + 1)
        out["rank.right_witness_nodes"] = sum(1 for cw in ann.corner.values() if cw.side == "right")
        out["rank.max_chain"] = max((len(cw.sigma) for cw in ann.corner.values()), default=0)
    drawings = res.get("drawings", [])
    if drawings:
        out["layout.points"] = sum(len(pts) for d in drawings for pts in d.edges.values())
        out["layout.sum_depth"] = len(drawings) * _sum_depth(op.tree.parent)
    if "text" in res:
        out["serialize.bytes"] = len(res["text"].encode())
    if "report" in res:
        segs, walls = segment_counts(res["loaded"])
        out["verify.segments"] = segs
        out["verify.wall_crossings"] = walls
        out["verify.violations"] = len(res["report"].violations) if op.bad else 0
    for key, val in out.items():
        total[key] = max(total.get(key, 0), val) if key == "rank.max_chain" else total.get(key, 0) + val
