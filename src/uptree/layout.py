"""Grid drawings of rooted trees.

Three constructions, all strictly upward and planar:

* ``draw_unordered`` -- straight-line, width = rooted pathwidth, height n.
  Children may be permuted (the size cost of order is avoided by moving
  the rpw-heaviest child flush under its parent).
* ``draw_ordered`` -- order-preserving poly-line of width = rank, at most
  3 bends per edge, height at most 2n-1.  Built from the corner witness
  stored by :func:`uptree.ranking.rank`.
* ``reduce_bends`` -- order-preserving rebuild with at most 1 bend per
  edge and the same width; rows are spread out (exponentially in the
  worst case) to buy the missing bends, so only the *number* of occupied
  rows stays small, not their span.

The constructions emit bends even where a poly-line runs straight, so
that each is uniform; ``prune_collinear`` drops those points from any
drawing.

Coordinates are integer (column, row) pairs with columns starting at 1
and the root on the highest row.  Internally each node is assembled
bottom-up into a frame in its own coordinates (row 0 at the top): its
size, its root column, and for each child a shift of the child's frame
plus the bends of the edge to it.  A subtree is never copied into its
ancestors; one preorder pass adds up the shifts, writes every position
and edge once and flips rows to y-up, so layout runs in time linear in
the output.  An edge's end points are its nodes' position tuples, not
copies of them, and a node with one child takes one step.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import NamedTuple, Optional

from .ranking import RankAnnotation, rank
from .tree import InputError, Tree, _write_chunks
from .widths import RpwAnnotation, rooted_pathwidth

__all__ = [
    "Drawing",
    "LayoutStats",
    "draw_unordered",
    "draw_ordered",
    "reduce_bends",
    "prune_collinear",
    "layout_stats",
    "drawing_to_json",
    "drawing_from_json",
]


# one per construction; drawing_from_json and `uptree draw --mode` take these
_MODES = ("unordered", "ordered3", "ordered1")


class Drawing(NamedTuple):
    """Node positions plus one poly-line per edge.

    ``pos`` maps node id to (x, y); ``edges`` maps (parent, child) to the
    poly-line from the parent's position to the child's, bends included.
    In the drawings built here an edge's first and last points are the
    very tuples ``pos`` holds for its parent and child.
    ``mode`` records which construction produced it: "unordered",
    "ordered3" or "ordered1".
    """

    mode: str
    pos: dict
    edges: dict


class LayoutStats(NamedTuple):
    width: int
    height: int
    max_bends_per_edge: int
    root_corner: str


# A frame is one node's assembly in its own coordinates, row 0 at the top:
# a tuple (width, height, root_col, place).  The node sits alone on row 0
# in column root_col (1 or width); place[i] = (dcol, drow, bends) is the
# shift of child i's frame into this one and a tuple of the interior
# points of the edge to child i, drawn in this frame.  The edge's ends,
# the node's root point and the child's, are not stored.

_ONE_CHILD = ((0, 1, ()),)  # the place of an only child


def _finalize(t: Tree, frames: list, mode: str) -> Drawing:
    """Add up the shifts top-down, writing each position and edge once.

    Preorder ids put every parent before its children, so each position
    is made at its parent, from the parent's own, and each edge reuses
    both.  Rows are flipped to y-up on the way: the root gets the
    maximal y, the total height.
    """
    at = [None] * t.n
    at[t.root] = frames[t.root][2], frames[t.root][1]
    edges = {}
    for v, kids in enumerate(t._children):
        p = at[v]
        _, _, rc, place = frames[v]
        x0, y0 = p[0] - rc, p[1]
        for c, (dc, dr, bends) in zip(kids, place):
            q = at[c] = (x0 + dc + frames[c][2], y0 - dr)
            edges[v, c] = [p, *[(x0 + x, y0 - r) for x, r in bends], q] if bends else [p, q]
    return Drawing(mode=mode, pos=dict(enumerate(at)), edges=edges)


def _chain_frame(frames: list, kids: tuple) -> tuple:
    """The frame of a leaf, or of a node with one child: the child's frame
    one row down and flush left, its root joined to the node's in column
    1 by a straight edge.  Every mode draws these the same way."""
    if not kids:
        return 1, 1, 1, ()
    w, h = frames[kids[0]][:2]
    return w, h + 1, 1, _ONE_CHILD


# ------------------------------------------------------------- unordered


def draw_unordered(t: Tree, ann: Optional[RpwAnnotation] = None) -> Drawing:
    """Straight-line drawing of width rpw(T) and height exactly n.

    Every node gets its own row.  At each node the non-heavy subtrees are
    stacked under the root, shifted one column right, last child on top;
    the rpw-heaviest subtree goes at the bottom, flush with column 1, so
    its width is not paid twice.
    """
    if ann is None:
        ann = rooted_pathwidth(t)
    frames: list = [None] * t.n
    for v in t.bottom_up():
        kids = t.children(v)
        if len(kids) < 2:
            frames[v] = _chain_frame(frames, kids)
            continue
        heavy = ann.heavy_child[v]
        place: list = [None] * len(kids)
        row = 1
        width = 1
        for i in reversed(range(len(kids))):
            if kids[i] != heavy:
                w, h = frames[kids[i]][:2]
                place[i] = (1, row, ())
                width = max(width, w + 1)
                row += h
        w, h = frames[heavy][:2]
        place[kids.index(heavy)] = (0, row, ())
        frames[v] = (max(width, w), row + h, 1, place)
    return _finalize(t, frames, "unordered")


# --------------------------------------------------------------- ordered
#
# The assembler builds a left-witness frame with the root in column 1 and
# width W.  It takes the children's (width, height, root_col) boxes and the
# witness fields it reads, W, Wprime and sigma, and returns (height, place).


def _assemble(boxes, W, Wprime, sigma, one_bend):
    """Left-witness assembly with at most 3 bends per edge on dense rows,
    or with at most 1 bend per edge when `one_bend` is set.

    Both modes walk the same three phases: small and chain children right
    to left, then child 1 flush left, then the chain's subtrees stacked at
    the bottom.  With 3 bends a chain edge leaves on a column-2 staircase
    whose rows it shares with what comes next.  With 1 bend it leaves the
    root with integer slope m and anchors at (w, m*(w-1)) in its ray
    column; placing later content below ``mbig * width`` keeps those long
    straight segments above everything they must clear.  Blocks reached
    by a slanted final segment are pushed down geometrically for the same
    reason.  Heights explode; widths don't.  In the 3-bend mode ``mbig``
    stays 0 and ``slope`` never passes ``cur``, so each row rule below
    gives ``cur + 1``.
    """
    d = len(boxes)
    wof = {i: w for w, i in sigma.items()}  # child index -> chain value
    place: list = [None] * d
    prefix: dict = {}  # chain child index -> the bends before its anchor
    cur = 0  # deepest placed row, bend rows of the staircase included
    deep = 0  # deepest second bend or anchor
    slope = 0  # last used slope; strictly increases right to left
    mbig = 0  # steepest chain-edge slope so far

    for j in range(d, 1, -1):
        if j in wof:
            w = wof[j]
            if one_bend:
                m = max(slope + 1, cur + 1)
                prefix[j] = ((w, m * (w - 1)),)
                slope = mbig = m
                deep = max(deep, m * (w - 1))
            else:
                prefix[j] = ((2, cur + 1),)
                if w > 2:
                    # second bend one row below the first, inside the ray;
                    # that row is shared with whatever comes next
                    prefix[j] += ((w, cur + 2),)
                    deep = max(deep, cur + 2)
                cur += 1
        else:
            r, height, rx = boxes[j - 1]
            slope = max(slope + 1, cur + 1, mbig * r + 1)
            top = slope + 1
            place[j - 1] = (1, top, ((2, slope),))
            cur = top + height - 1

    if 1 in wof:
        prefix[1] = ()
    else:
        r, height, rx = boxes[0]
        top = max(cur + 1, mbig * max(r - 1, 0) + 1)
        # a child with rx > 1 is wider than one column and never starts on
        # row 1, so the bend (1, top - 1) lies below the root
        place[0] = (0, top, () if rx == 1 else ((1, top - 1),))
        cur = top + height - 1

    base = max(cur, deep)
    for w in range(Wprime, W + 1):
        j = sigma[w]
        _, height, rx = boxes[j - 1]
        rc = 1 if j == 1 else w  # the column of j's ray
        bends = prefix[j]
        top = base + 1
        if rx != rc:
            if one_bend and j != 1:
                # the final segment slants across columns 1..w; push the
                # block far enough down that the slant clears everything
                top = (W + 1) * (base + 2)
            elif (bends[-1] if bends else (1, 0)) != (rc, base):  # (1, 0) is the root
                bends += ((rc, base),)
        place[j - 1] = (0, top, bends)
        base = top + height - 1

    return base + 1, place


def _ordered(t: Tree, ann: Optional[RankAnnotation], one_bend: bool) -> Drawing:
    """The ordered3 drawing, or the ordered1 one with `one_bend`, from the
    corner witnesses in `ann` (ranked here if None), children first.

    A right witness runs the left assembler on the mirrored, reversed
    child boxes and the mirrored sigma, and mirrors its output back.  The
    two mirror images of each child cancel, so the child frame is only
    shifted, to column W - width - dcol, and the root lands in column W.
    A node with one child of rank r gets the chain frame: rank gives it
    the left witness {r: 1}, whose assembly that frame is.
    """
    if ann is None:
        ann = rank(t)
    frames: list = [None] * t.n
    for v in t.bottom_up():
        kids = t.children(v)
        if len(kids) < 2:
            frames[v] = _chain_frame(frames, kids)
            continue
        side, W, Wprime, sigma = ann.corner[v]
        boxes = [frames[c][:3] for c in kids]
        if side == "left":
            height, place = _assemble(boxes, W, Wprime, sigma, one_bend)
            frames[v] = (W, height, 1, place)
            continue
        d = len(kids)
        height, place = _assemble(
            [(w, h, w + 1 - rc) for w, h, rc in reversed(boxes)], W, Wprime,
            {w: d + 1 - i for w, i in sigma.items()}, one_bend,
        )
        place = [
            (W - w - dc, dr, tuple([(W + 1 - x, r) for x, r in bends]))
            for (w, _, _), (dc, dr, bends) in zip(boxes, reversed(place))
        ]
        frames[v] = (W, height, W, place)
    return _finalize(t, frames, "ordered1" if one_bend else "ordered3")


def draw_ordered(t: Tree, ann: Optional[RankAnnotation] = None) -> Drawing:
    """Order-preserving drawing of width rank(T), <= 3 bends, height <= 2n-1.

    Each node is assembled from its corner witness: small children hang
    off a column-2 bend in right-to-left order, big children get a
    reserved vertical ray in their chain column and their subtrees are
    stacked at the bottom, flush left.  A right witness mirrors the whole
    assembly, putting the root at the top-right corner.
    """
    return _ordered(t, ann, False)


def reduce_bends(d: Drawing, t: Tree) -> Drawing:
    """Rebuild an ordered3 drawing with at most 1 bend per edge.

    Width and child order are preserved; the dense rows are given up.
    The input drawing fixes what is being improved; the tree is re-ranked
    so the same corner witnesses drive both constructions.
    """
    if d.mode != "ordered3":
        raise ValueError(f"reduce_bends needs an ordered3 drawing, got {d.mode!r}")
    if set(d.pos) != set(t.preorder()):
        raise ValueError("drawing and tree disagree on node ids")
    return _ordered(t, None, True)


# ----------------------------------------------------------------- stats


def _prune(pts):
    """Drop repeated points and interior points that sit on a straight run."""
    pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    if len(pts) < 3:
        return pts
    out = [pts[0]]
    for q, r in zip(pts[1:-1], pts[2:]):
        a = out[-1]
        if (q[0] - a[0]) * (r[1] - q[1]) != (q[1] - a[1]) * (r[0] - q[0]):
            out.append(q)
    out.append(pts[-1])
    return out


def _bend_count(pts) -> int:
    """The true bends of a poly-line: its points once pruned, less the two
    ends.  A line pruned to one point, a zero-length edge, has none."""
    return 0 if len(pts) < 3 else max(len(_prune(pts)), 2) - 2


def prune_collinear(d: Drawing) -> Drawing:
    """The same drawing without repeated points or bends on a straight run."""
    return Drawing(d.mode, dict(d.pos), {k: _prune(pts) for k, pts in d.edges.items()})


def _extent(pos, lines) -> tuple:
    """(min x, max x, min y, max y, number of distinct y) over the
    positions in `pos` and every point of the polylines in `lines`."""
    points = [*pos.values(), *chain.from_iterable(lines)]
    xs = [x for x, _ in points]
    ys = {y for _, y in points}
    return min(xs), max(xs), min(ys), max(ys), len(ys)


def layout_stats(d: Drawing) -> LayoutStats:
    """Width, occupied-row count, true bend count, and where the root sits.

    Height counts distinct occupied rows, not the coordinate span, so it
    stays meaningful for the stretched ordered1 drawings.
    """
    lo, hi, _, _, rows = _extent(d.pos, d.edges.values())
    bends = max(map(_bend_count, d.edges.values()), default=0)
    root = max(d.pos, key=lambda u: d.pos[u][1])
    rx = d.pos[root][0]
    if rx == lo:
        corner = "top-left"
    elif rx == hi:
        corner = "top-right"
    else:
        corner = "interior"
    return LayoutStats(
        width=hi - lo + 1,
        height=rows,
        max_bends_per_edge=bends,
        root_corner=corner,
    )


# ------------------------------------------------------------------ json


def drawing_to_json(d: Drawing) -> dict:
    return {
        "mode": d.mode,
        "positions": {str(u): [x, y] for u, (x, y) in sorted(d.pos.items())},
        "edges": [
            {"from": p, "to": c, "points": [[x, y] for x, y in pts]}
            for (p, c), pts in sorted(d.edges.items())
        ],
    }


def _write_drawing(write, d: Drawing, stats: Optional[dict] = None) -> None:
    """Write the text that ``print(json.dumps(out, sort_keys=True,
    indent=2))`` prints for ``out = drawing_to_json(d)``, with ``stats``
    under "stats" if given.

    Neither that dict nor the whole text is built: ``indent`` sends
    json.dumps to its pure-Python encoder, the largest cost of a big
    drawing.  The text is made one chunk per edge and per node.
    """
    _write_chunks(write, _drawing_chunks(d, stats))


def _drawing_chunks(d: Drawing, stats: Optional[dict]):
    import json  # only the CLI writes drawings; `import uptree` leaves json unloaded

    # keys in json's sorted order, node ids as strings
    yield '{\n  "edges": ['
    sep = "\n"
    for (p, c), pts in sorted(d.edges.items()):
        body = ",\n".join([f"        [\n          {x},\n          {y}\n        ]" for x, y in pts])
        body = f"[\n{body}\n      ]" if body else "[]"
        yield f'{sep}    {{\n      "from": {p},\n      "points": {body},\n      "to": {c}\n    }}'
        sep = ",\n"
    # an empty list or object closes on its key's line, as json.dumps writes it
    yield ("]" if sep == "\n" else "\n  ]") + f',\n  "mode": {json.dumps(d.mode)},\n  "positions": {{'
    sep = "\n"
    for u, (x, y) in sorted(zip(map(str, d.pos), d.pos.values())):
        yield f'{sep}    "{u}": [\n      {x},\n      {y}\n    ]'
        sep = ",\n"
    yield "}" if sep == "\n" else "\n  }"
    if stats is not None:
        yield ',\n  "stats": ' + json.dumps(stats, sort_keys=True, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


# canonical decimal text only: "-0" would alias node 0
_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def _json_int(v):
    # int() would read true, 1.9 and "1" all as 1
    if type(v) is not int:
        raise ValueError(f"{v!r} is not an integer")
    return v


def _json_node(key: str) -> int:
    if not (isinstance(key, str) and _DECIMAL.fullmatch(key)):
        raise ValueError(f"position key {key!r} is not an integer")
    return int(key)


def drawing_from_json(obj) -> Drawing:
    """Inverse of drawing_to_json.

    Coordinates and edge ends must be JSON integers and position keys the
    decimal text of an integer, there must be at least one node, and no
    edge may be listed twice; anything else raises InputError.
    """
    if not isinstance(obj, dict):
        raise InputError("drawing JSON must be an object")
    try:
        mode = obj["mode"]
        # plain ints settle a point or an edge end without a call
        pos = {
            _json_node(u): (x, y) if type(x) is type(y) is int else (_json_int(x), _json_int(y))
            for u, (x, y) in obj["positions"].items()
        }
        edges = {}
        for e in obj["edges"]:
            key = (p if type(p := e["from"]) is int else _json_int(p),
                   c if type(c := e["to"]) is int else _json_int(c))
            if key in edges:
                raise ValueError(f"duplicate edge {key[0]} -> {key[1]}")
            edges[key] = [
                (x, y) if type(x) is type(y) is int else (_json_int(x), _json_int(y))
                for x, y in e["points"]
            ]
        if not pos:
            raise ValueError("a drawing needs at least one node")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed drawing JSON: {exc}") from exc
    if mode not in _MODES:
        raise InputError(f"unknown drawing mode {mode!r}")
    return Drawing(mode=mode, pos=pos, edges=edges)
