"""Independent checking of drawings, and witness extraction from them.

``check_drawing`` re-derives every claimed property of a drawing from its
coordinates alone: planarity, (strict) upwardness, order preservation,
straight-lineness, plus width/height/bend statistics.  All geometry is
exact, so the verdicts carry no epsilon.  It is integer arithmetic: a
segment meets a grid column at an ``int`` whenever that point is a grid
point, departure slopes are compared by cross-multiplication, and only a
crossing that falls between grid points becomes a ``Fraction``.

Planarity is not tested pairwise.  The x-coordinates of the drawing's
points are walls; between two consecutive walls every segment that is not
vertical runs wall to wall, so two segments cross there iff their wall
orders strictly invert.  Touches are judged by one rule: a shared point
must be a segment endpoint of everything meeting it, and if more than one
edge is involved, the point must be the position of a tree node incident
to all of them.  This is the whole legality of tree drawings -- fans at a
parent, chains through a node -- in one place.

The verdict is decided by sorting.  Nodes and bends must be distinct
points.  The segments, split at the walls into (strip, left y, right y)
and sorted once, must hold no inversion (a crossing).  The points where
segments cross interior walls must be distinct and off every node and
bend (so no two segments overlap), and among all these points, sorted,
the two ends of each vertical segment must be neighbours.  A wide drawing,
whose segments cross more interior walls than there are segments (a
straight k-leaf fan crosses about k^2/4), is sorted on its side: swapping
x and y changes no intersection.  Only a drawing that fails goes on to the
walk, which groups every touch by its exact position and names the
violations; the two agree on whether there are any.

``extract_rank_witness`` goes the other way: it reads a valid drawing
and reconstructs the width certificate its geometry implies.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cmp_to_key
from itertools import groupby
from operator import itemgetter, le
from typing import NamedTuple, Optional

from .layout import Drawing, _bend_count, _extent
from .ranking import RankWitness, rank, validate_rank_witness
from .tree import InputError, Tree, _renumbered

__all__ = [
    "DrawingMismatch",
    "VerifyReport",
    "check_drawing",
    "reorder_children_by_drawing",
    "extract_rank_witness",
]

PROPERTIES = ("planar", "upward", "strictly_upward", "order_preserving", "straight_line")


class DrawingMismatch(InputError):
    """The drawing does not structurally describe the given tree."""


class VerifyReport(NamedTuple):
    planar: bool
    upward: bool
    strictly_upward: bool
    order_preserving: bool
    straight_line: bool
    width: int
    height: int
    max_bends: int
    violations: list
    ok: bool


def _structural(t: Tree, d: Drawing):
    """Raise DrawingMismatch unless d is *about* t.

    Returns (pos, lines): positions as plain int tuples and polylines
    deduplicated the same way, so downstream code can hash and compare.
    """
    if set(d.pos) != set(range(t.n)):
        raise DrawingMismatch("drawing and tree disagree on node ids")
    pos = {}
    for u, p in d.pos.items():
        p = tuple(p)
        # a bool is no coordinate
        if len(p) != 2 or not (type(p[0]) is type(p[1]) is int):
            raise DrawingMismatch(f"position of node {u} is not an integer pair")
        pos[u] = p
    want = set(zip(t._parent[1:], range(1, t.n)))
    if set(d.edges) != want:
        missing = want - set(d.edges)
        extra = set(d.edges) - want
        raise DrawingMismatch(f"edge set mismatch (missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})")
    lines = {}
    for key, pts in d.edges.items():
        if len(pts) < 2:
            raise DrawingMismatch(f"edge {key} has fewer than two points")
        clean = []
        for q in pts:
            q = tuple(q)
            if len(q) != 2 or not (type(q[0]) is type(q[1]) is int):
                raise DrawingMismatch(f"edge {key} has a non-integer point")
            if not clean or q != clean[-1]:
                clean.append(q)
        p, c = key
        if clean[0] != pos[p] or clean[-1] != pos[c]:
            raise DrawingMismatch(f"edge {key} does not run from its parent to its child")
        lines[key] = clean
    return pos, lines


def _departures(lines, v, kids) -> list:
    """The first segment of each edge from v to kids as a vector (dx, dy);
    None for an edge that climbs or has no segment."""
    firsts = [lines[v, c][:2] for c in kids]
    return [None if len(f) < 2 or f[1][1] > f[0][1] else (f[1][0] - f[0][0], f[1][1] - f[0][1])
            for f in firsts]


def _clockwise(a, b):
    """-1, 0 or 1 as departure a comes before, with or after b, clockwise.

    Both vectors point into the closed lower half-plane, where the order
    runs from level-left through straight down to level-right and the
    sign of the cross product decides it; only the two level directions
    are opposite, and there left comes first.
    """
    cross = a[0] * b[1] - a[1] * b[0]
    if cross:
        return -1 if cross > 0 else 1
    if a[0] * b[0] + a[1] * b[1] > 0:
        return 0
    return -1 if a[0] < 0 else 1


def _y_at(y1, dy, dx, dist):
    """Exact y of a segment at `dist` columns right of its left end (dx > 0).

    An int on a grid point; a Fraction only between grid points.
    """
    q, r = divmod(dy * dist, dx)
    if not r:
        return y1 + q
    from fractions import Fraction  # loaded only once a crossing falls off the grid

    return Fraction(y1 * dx + dy * dist, dx)


def _planarity(pos, lines, violations):
    """Append the planarity violations of a drawing that sorting rejects.

    Every shared node position is named (and then nothing else), and the
    first overlap in every column.  Then crossings, overlaps and touches
    are named until the whole report, upward and order violations
    included, holds more than 8 violations; the point at hand is finished.
    """
    if not _planar_by_sorting(pos, lines):
        _walk(pos, lines, violations)


def _planar_by_sorting(pos, lines, turned=False):
    """True when sorting proves the drawing planar, False when it finds a fault."""
    vals = lines.values()
    segs = [(a, b) if a < b else (b, a) for pts in vals for a, b in zip(pts, pts[1:])]
    # every node ends an edge once there is one, so the points hold the walls
    walls = sorted({x for pts in vals for x, _ in pts})
    at = {x: i for i, x in enumerate(walls)}
    nv = [(at[a[0]], at[b[0]], a, b) for a, b in segs if a[0] != b[0]]
    if not turned and sum(i2 - i1 for i1, i2, _, _ in nv) > 2 * len(nv):
        # more interior wall crossings than segments: sort it on its side
        return _planar_by_sorting({u: (y, x) for u, (x, y) in pos.items()},
                                  {k: [(y, x) for x, y in pts] for k, pts in lines.items()}, True)
    bends = [p for pts in vals for p in pts[1:-1]]
    vertices = set(pos.values()).union(bends)
    if len(vertices) < len(pos) + len(bends):
        return False  # nodes share a position, or a bend repeats or sits on a node
    strips = [(i1, a[1], b[1]) for i1, _, a, b in nv]  # (strip, y on its left wall, y on its right)
    inner = []  # interior wall crossings
    for j, (i1, i2, (x1, y1), (x2, y2)) in enumerate(nv):
        if i2 > i1 + 1:
            prev = y1
            for k in range(i1 + 1, i2):
                y = _y_at(y1, y2 - y1, x2 - x1, walls[k] - x1)
                inner.append((walls[k], y))
                strips.append((k - 1, prev, y))
                prev = y
            strips[j] = (i2 - 1, prev, y2)
    strips.sort()
    right = [(k, yr) for k, _, yr in strips]
    if not all(map(le, right, right[1:])):
        return False  # a proper crossing
    # two segments overlapping in a strip meet on both its walls, so the
    # check below, or the one on vertices above, sees them too
    points = vertices.union(inner)
    if len(points) < len(vertices) + len(inner):
        return False  # a wall crossing repeats or meets a vertex
    # a vertical's ends are neighbours among all wall points, sorted, unless
    # it overlaps another or a wall point lies strictly inside it.  Each
    # point sorts by one int, x·m + 2y for a vertex and x·m + 2·floor(y) + 1
    # for a wall crossing (which is no vertex), so no Fraction is compared.
    ys = [y for _, y in vertices]
    m = 2 * (max(ys) - min(ys)) + 2
    keys = [x * m + 2 * y for x, y in vertices]
    keys += [x * m + 2 * (y.numerator // y.denominator) + 1 for x, y in inner]
    keys.sort()
    rank = dict(zip(keys, range(len(keys))))
    return {rank[a[0] * m + 2 * a[1]] - rank[b[0] * m + 2 * b[1]]
            for a, b in segs if a[0] == b[0]} <= {-1}


def _walk(pos, lines, violations):
    """Name the planarity violations, exact point by exact point."""
    posmap = {}
    for u in sorted(pos):
        p = pos[u]
        if p in posmap:
            violations.append(f"planar: nodes {posmap[p]} and {u} share position {p}")
        else:
            posmap[p] = u
    if len(posmap) < len(pos):
        return  # coordinates are junk; fine-grained sweep would mislabel

    segs = []  # (key, index)
    vert = {}  # column -> [(ylo, yhi, sid)]
    nv = []  # (left end, right end, sid)
    for key, pts in lines.items():
        for i, (a, b) in enumerate(zip(pts, pts[1:])):
            if a[0] == b[0]:
                vert.setdefault(a[0], []).append((min(a[1], b[1]), max(a[1], b[1]), len(segs)))
            else:
                nv.append((min(a, b), max(a, b), len(segs)))
            segs.append((key, i))

    def name(sid):
        return "edge {} segment {}".format(*segs[sid])

    # vertical / vertical: per column the intervals must be disjoint
    cols = {}  # column -> its intervals, sorted, when none overlap
    for x, ivs in vert.items():
        ivs.sort()
        hi, hid = ivs[0][1:]
        for ylo, yhi, sid in ivs[1:]:
            if ylo < hi:
                violations.append(f"planar: {name(sid)} overlaps {name(hid)} in column {x}")
                break
            if yhi > hi:
                hi, hid = yhi, sid
        else:
            cols[x] = ivs

    walls = sorted({p[0] for a, b, _ in nv for p in (a, b)}.union(vert))

    # every exact point where a segment meets a wall -> [(sid, whether it ends there)]
    groups = {}
    strips = [[] for _ in walls[1:]]
    for (x1, y1), (x2, y2), sid in nv:
        groups.setdefault((x1, y1), []).append((sid, True))
        prev = y1
        for k in range(bisect_left(walls, x1) + 1, bisect_left(walls, x2) + 1):
            y = _y_at(y1, y2 - y1, x2 - x1, walls[k] - x1)
            groups.setdefault((walls[k], y), []).append((sid, walls[k] == x2))
            strips[k - 1].append((prev, y, sid))
            prev = y
    for x, ivs in vert.items():
        for ylo, yhi, sid in ivs:
            groups.setdefault((x, ylo), []).append((sid, True))
            groups.setdefault((x, yhi), []).append((sid, True))

    # proper crossings inside a strip = strict inversion between the walls
    for k, cand in enumerate(strips):
        cand.sort()
        best_r = best_sid = None
        for _, tie in groupby(cand, itemgetter(0)):
            tie = list(tie)
            for _, yr, sid in tie:
                if best_r is not None and yr < best_r:
                    violations.append(f"planar: {name(sid)} crosses {name(best_sid)} "
                                      f"between x={walls[k]} and x={walls[k + 1]}")
                    if len(violations) > 8:
                        return
            _, yr, sid = max(tie, key=itemgetter(1))
            if best_r is None or yr > best_r:
                best_r, best_sid = yr, sid
        for (al, ar, asid), (bl, br, bsid) in zip(cand, cand[1:]):
            if al == bl and ar == br:
                violations.append(f"planar: {name(asid)} and {name(bsid)} are collinear and overlap")
                if len(violations) > 8:
                    return

    # shared points, wall by wall; the sort is stable, so each wall keeps its insertion order
    for p, members in sorted(groups.items(), key=lambda g: g[0][0]):
        x, y = p
        ivs = cols.get(x)
        if ivs:
            # a vertical swallowing the point joins as an interior member (index -1 swallows none)
            ylo, yhi, sid = ivs[bisect_right(ivs, y, key=itemgetter(0)) - 1]
            if ylo < y < yhi:
                members = members + [(sid, False)]
        node = posmap.get(p)
        if node is not None:
            for sid, is_end in members:
                key, i = segs[sid]
                pts = lines[key]
                if not is_end:
                    violations.append(f"planar: node {node} lies inside {name(sid)}")
                elif node not in key:
                    violations.append(f"planar: {name(sid)} touches node {node} at {p}")
                elif not (i == 0 and p == pts[0] or i == len(pts) - 2 and p == pts[-1]):
                    violations.append(f"planar: edge {key} bends at node {node}")
        elif len(members) > 1:
            inner = [sid for sid, is_end in members if not is_end]
            if inner:
                a = members[0][0]
                b = inner[0] if inner[0] != a else members[1][0]
                violations.append(f"planar: {name(a)} touches {name(b)} at x={x}, y={y}")
            else:
                keys = sorted({segs[sid][0] for sid, _ in members})
                if len(keys) > 1:
                    violations.append(f"planar: edges {keys[0]} and {keys[1]} touch "
                                      f"at x={x}, y={y} away from any node")
                elif len(members) != 2:  # a bend ends its two segments; a repeated point ends more
                    violations.append(f"planar: edge {keys[0]} touches itself at x={x}, y={y}")
        if len(violations) > 8:
            return


def check_drawing(t: Tree, d: Drawing, require=("planar", "upward")) -> VerifyReport:
    """Re-derive the drawing's properties from coordinates; judge `require`.

    Structural problems (wrong node set, broken polylines) raise
    DrawingMismatch; everything else is reported, not raised.  ``ok`` is
    the conjunction of the required property flags.
    """
    for prop in require:
        if prop not in PROPERTIES:
            raise InputError(f"unknown property {prop!r}; choose from {PROPERTIES}")
    pos, lines = _structural(t, d)
    violations: list = []

    upward = strictly = True
    for key, pts in lines.items():
        # a line of one point, a zero-length edge, is its own segment: level
        for a, b in zip(pts, pts[1:] or pts):
            if b[1] > a[1]:
                upward = strictly = False
                violations.append(f"upward: edge {key} climbs from {a} to {b}")
                break
            if b[1] == a[1] and strictly:
                strictly = False
                violations.append(f"strictly_upward: edge {key} runs level at y={a[1]}")

    bends = list(map(_bend_count, lines.values()))
    straight = not any(bends)
    if not straight:
        violations.append("straight_line: some edge bends")

    ordered = True
    for v, kids in enumerate(t._children):
        if len(kids) < 2:
            continue
        dirs = _departures(lines, v, kids)
        if None in dirs:
            ordered = False
            c = kids[dirs.index(None)]
            how = "has no direction" if len(lines[v, c]) < 2 else "leaves upward"
            violations.append(f"order_preserving: an edge at node {v} {how}")
            continue
        if max(map(_clockwise, dirs, dirs[1:])) >= 0:
            ordered = False
            violations.append(f"order_preserving: children of node {v} appear out of order")

    before = len(violations)
    _planarity(pos, lines, violations)
    planar = len(violations) == before

    # each node of a tree with n >= 2 ends some line, as _structural checked
    lo, hi, _, _, rows = _extent(pos if t.n == 1 else {}, lines.values())
    flags = {
        "planar": planar,
        "upward": upward,
        "strictly_upward": strictly,
        "order_preserving": ordered,
        "straight_line": straight,
    }
    return VerifyReport(
        **flags,
        width=hi - lo + 1,
        height=rows,
        max_bends=max(bends, default=0),
        violations=violations,
        ok=all(flags[prop] for prop in require),
    )


def reorder_children_by_drawing(t: Tree, d: Drawing):
    """Permute children to match the drawn clockwise order; renumber preorder.

    Returns (tree, drawing) with fresh ids.  The drawing must be upward
    (no edge may leave its parent climbing) and fan directions must be
    distinct; otherwise InputError.
    """
    pos, lines = _structural(t, d)
    order = {}
    for v in range(t.n):
        kids = t.children(v)
        dirs = dict(zip(kids, _departures(lines, v, kids)))
        for c in kids:
            if dirs[c] is None:
                how = "has no direction" if len(lines[v, c]) < 2 else "leaves its parent upward"
                raise InputError(f"edge ({v}, {c}) {how}")
        order[v] = sorted(kids, key=cmp_to_key(lambda a, b: _clockwise(dirs[a], dirs[b])))
        for a, b in zip(order[v], order[v][1:]):
            if _clockwise(dirs[a], dirs[b]) == 0:
                raise InputError(f"coincident edge directions at node {v}")

    t2, trail = _renumbered(t.root, order, t._labels)
    mapping = dict(zip(trail, range(t.n)))
    d2 = Drawing(
        mode=d.mode,
        pos={mapping[u]: p for u, p in d.pos.items()},
        edges={(mapping[p], mapping[c]): list(pts) for (p, c), pts in d.edges.items()},
    )
    return t2, d2


def extract_rank_witness(
    t: Tree, d: Drawing, report: Optional[VerifyReport] = None
) -> Optional[RankWitness]:
    """Read a width certificate for the root off a valid drawing.

    The drawing must be planar, upward, and order-preserving (reorder
    first if it is not).  Children whose drawn region meets the root's
    column are big; the one reaching highest is the vertical child; the
    injective bounds come from how deep each region descends, deepest
    first.  A witness is returned only once ``validate_rank_witness``
    passes it.  None is returned when the drawing fails the precheck, no
    child meets the root's column, or the witness read does not validate.
    The tests find a witness on every drawing of ``draw_ordered`` and
    ``reduce_bends``, and of ``draw_unordered`` after
    ``reorder_children_by_drawing``.  Some other valid drawings give None:
    a small child drawn right of the root's column, in the pocket under a
    big child's edges, is read as left of the vertical child with no
    column to spare, as in ``(()(()))`` drawn straight with the root at
    (1, 2), c1 at (2, 1), c2 at (3, 1) and c2's child at (1, 0).

    ``report`` is the VerifyReport that ``check_drawing`` returned for
    the same `t` and `d`, under any ``require``; given it, the drawing is
    not checked again.
    """
    if report is None:
        report = check_drawing(t, d, ("planar", "upward", "order_preserving"))
    if t.n < 2 or not (report.planar and report.upward and report.order_preserving):
        return None
    x0, y0 = d.pos[t.root]
    W = report.width
    # for n >= 2 every node ends an edge, so the edges hold the smallest x
    X = x0 - min(p[0] for pts in d.edges.values() for p in pts) + 1

    # with preorder ids the i-th root child's subtree runs up to the next root child
    roots = t.children(t.root)
    lo: dict = {}
    hi: dict = {}

    def touch(i, ylo, yhi):
        lo[i] = min(lo.get(i, ylo), ylo)
        hi[i] = max(hi.get(i, yhi), yhi)

    # a node in the root's column ends its parent edge there, so the
    # edges alone find every touch
    for (p, c), pts in d.edges.items():
        i = bisect_right(roots, c)
        for a, b in zip(pts, pts[1:]):
            if a[0] == b[0]:
                # a repeated point is no segment, least of all at the root
                if a[0] == x0 and a[1] != b[1]:
                    # a run down from the root keeps y0 as its top; a
                    # slanted segment does not touch at the root point
                    touch(i, min(a[1], b[1]), max(a[1], b[1]))
            else:
                (x1, y1), (x2, y2) = (a, b) if a[0] < b[0] else (b, a)
                if x1 <= x0 <= x2:
                    y = _y_at(y1, y2 - y1, x2 - x1, x0 - x1)
                    if y != y0:
                        touch(i, y, y)

    big = frozenset(lo)
    if not big:
        return None
    bounds = {i: W - k for k, i in enumerate(sorted(big, key=lo.get))}
    w = RankWitness(W=W, X=X, v=max(big, key=hi.get), big=big, rank_bounds=bounds)
    ranks = rank(t).rank
    child_ranks = [ranks[c] for c in t.children(t.root)]
    if validate_rank_witness(child_ranks, w):
        return None
    return w
