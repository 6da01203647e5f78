"""check_drawing against the exact pairwise oracle, plus mutations,
hand-built pathological drawings, reordering, witness extraction, and
frozen report digests."""

import hashlib
import json
import random
import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomcheck import check as pairwise
from uptree import verify
from uptree.layout import (
    Drawing,
    draw_ordered,
    draw_unordered,
    layout_stats,
    reduce_bends,
)
from uptree.ranking import RankWitness, rank, rank_witness_to_json, validate_rank_witness
from uptree.tree import (
    InputError,
    gen_complete_binary,
    gen_path,
    gen_quintary_family,
    gen_random_tree,
    parse_tree,
)
from uptree.verify import (
    DrawingMismatch,
    check_drawing,
    extract_rank_witness,
    reorder_children_by_drawing,
)
from test_layout import FROZEN_DRAW, frozen_corpus

EXAMPLE = "(()()(()()))"


def bin_s(h):
    return "()" if h == 1 else "(" + bin_s(h - 1) * 2 + ")"


def with_ranks(rs):
    return parse_tree("(" + "".join(bin_s(r) for r in rs) + ")")


def clone(d):
    return Drawing(mode=d.mode, pos=dict(d.pos),
                   edges={k: [tuple(p) for p in v] for k, v in d.edges.items()})


def sorts():
    """Count the calls of the sorting decision; a drawing sorted on its
    side calls it twice."""
    return mock.patch.object(verify, "_planar_by_sorting", wraps=verify._planar_by_sorting)


FIXED = [
    "()", "(())", "(()())", EXAMPLE,
    "((" + bin_s(3) + "())())",
    "(()((" + bin_s(4) + "())" + bin_s(2) + "))",
]


def tree_pool():
    pool = [parse_tree(s) for s in FIXED]
    pool += [gen_path(5), gen_complete_binary(3), gen_quintary_family(2),
             with_ranks([2, 3]), with_ranks([1, 1, 3]), with_ranks([1, 4, 1, 2])]
    for seed in range(12):
        pool.append(gen_random_tree(random.Random(seed).randint(2, 30), seed=seed))
    return pool


# ----------------------------------------------- agreement with the oracle


@pytest.mark.parametrize("mode", ["unordered", "ordered3", "ordered1"])
def test_agrees_with_pairwise_oracle(mode):
    for t in tree_pool():
        if mode == "unordered":
            d = draw_unordered(t)
        elif mode == "ordered3":
            d = draw_ordered(t)
        else:
            d = reduce_bends(draw_ordered(t), t)
        rep = check_drawing(t, d, require=("planar", "upward", "strictly_upward"))
        assert rep.ok, (t.n, mode, rep.violations[:4])
        assert pairwise(t, d, ordered=mode != "unordered") == []
        if mode != "unordered":
            assert rep.order_preserving
        else:
            assert rep.straight_line
        s = layout_stats(d)
        assert (s.width, s.height, s.max_bends_per_edge) == (
            rep.width, rep.height, rep.max_bends)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 10**6),
       mode=st.sampled_from(["unordered", "ordered3", "ordered1"]))
def test_constructions_verify_clean(n, seed, mode):
    t = gen_random_tree(n, seed=seed)
    if mode == "unordered":
        d = draw_unordered(t)
    elif mode == "ordered3":
        d = draw_ordered(t)
    else:
        d = reduce_bends(draw_ordered(t), t)
    rep = check_drawing(
        t, d, require=("planar", "upward", "strictly_upward"))
    assert rep.ok, rep.violations[:4]


def random_downward_drawing(n, width, seed):
    """A strictly downward drawing of a random n-node tree on a narrow grid.

    Positions and up to two bends per edge are random, so nodes collide,
    edges cross, and crossings and touches fall off the grid points.
    """
    rng = random.Random(seed)
    t = gen_random_tree(n, seed=seed)
    pos = {t.root: (rng.randint(1, width), 0)}
    edges = {}
    for v in t.preorder():
        x, y = pos[v]
        for c in t.children(v):
            bends = rng.randint(0, 2)
            yc = y - bends - 1 - rng.randint(0, 1)
            pos[c] = (rng.randint(1, width), yc)
            ys = sorted(rng.sample(range(yc + 1, y), bends), reverse=True)
            edges[(v, c)] = [(x, y)] + [(rng.randint(1, width), yb) for yb in ys] + [pos[c]]
    return t, Drawing(mode="unordered", pos=pos, edges=edges)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 7), width=st.integers(2, 6), seed=st.integers(0, 10**6))
def test_planarity_agrees_with_pairwise_oracle(n, width, seed):
    t, d = random_downward_drawing(n, width, seed)
    rep = check_drawing(t, d, require=("planar",))
    assert rep.strictly_upward
    assert rep.planar == (pairwise(t, d, ordered=False) == []), rep.violations


def near_miss_drawing(t, cols, seed):
    """A strictly downward drawing of t whose edges aim near other nodes.

    Nodes placed at random get distinct columns among `cols`.  Half the
    children instead sit twice as far from their parent as a point one
    unit from another node, or (rarely) as that node itself, so their edge
    passes one unit from it, or through it.  One edge in ten bends once,
    so that crossings fall between grid points.
    """
    rng = random.Random(seed)
    xs = iter(rng.sample(range(cols), t.n))
    pos = {t.root: (next(xs), 0)}
    edges = {}
    for v in t.preorder():
        x, y = pos[v]
        for c in t.children(v):
            p = (next(xs), y - rng.randint(1, 3))
            others = sorted(pos.keys() - {v})
            if others and rng.random() < 0.5:
                u = pos[rng.choice(others)]
                dx, dy = rng.choice([(0, 0)] + [(1, 0), (-1, 0), (0, 1), (0, -1)] * 3)
                q = (2 * (u[0] + dx) - x, 2 * (u[1] + dy) - y)
                if q[1] < y and q not in pos.values():
                    p = q
            pos[c] = p
            pts = [(x, y), p]
            if p[1] < y - 1 and rng.random() < 0.1:
                pts.insert(1, (rng.randint(0, cols), rng.randint(p[1] + 1, y - 1)))
            edges[(v, c)] = pts
    return t, Drawing(mode="unordered", pos=pos, edges=edges)


def star(k):
    return parse_tree("(" + "()" * k + ")")


def wide_oracle_drawing(kind, size, cols, seed):
    """One drawing on `cols` columns, far more than its nodes: a random
    downward drawing of a `size`-node tree, or a near-miss drawing of a
    `size`-node random tree or of a star with `size` + 7 leaves (a
    straight star is wide from about eight leaves on)."""
    if kind == "random":
        return random_downward_drawing(size, cols, seed)
    return near_miss_drawing(star(size + 7) if kind == "star" else gen_random_tree(size, seed=seed), cols, seed)


def assert_planarity_agrees_with_oracle(t, d):
    """check_drawing's planarity verdict against the pairwise oracle;
    returns the verdict and whether sorting turned the drawing on its side."""
    with sorts() as spy:
        rep = check_drawing(t, d, require=("planar",))
    assert rep.strictly_upward
    assert rep.planar == (pairwise(t, d, ordered=False) == []), rep.violations
    return rep, spy.call_count > 1


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["random", "star", "tree"]), size=st.integers(3, 9),
       cols=st.integers(20, 60), seed=st.integers(0, 10**6))
def test_planarity_agrees_with_pairwise_oracle_on_wide_drawings(kind, size, cols, seed):
    assert_planarity_agrees_with_oracle(*wide_oracle_drawing(kind, size, cols, seed))


def test_wide_oracle_drawings_are_mostly_sorted_on_their_side():
    for kind in ("random", "star", "tree"):
        turned = 0
        verdicts = set()
        off_grid = False
        for seed in range(200):
            rng = random.Random(seed)
            t, d = wide_oracle_drawing(kind, rng.randint(3, 9), rng.randint(20, 60), seed)
            rep, side = assert_planarity_agrees_with_oracle(t, d)
            turned += side
            verdicts.add(rep.planar)
            off_grid |= any("/" in v for v in rep.violations)
        assert turned > 100, (kind, turned)
        assert verdicts == {True, False} and off_grid, kind


# ----------------------------------------------------------- mutations


@pytest.fixture
def example_drawing():
    t = parse_tree(EXAMPLE)
    return t, draw_ordered(t)


def test_node_on_node(example_drawing):
    t, base = example_drawing
    m = clone(base)
    victim, other = t.children(t.root)[:2]
    m.pos[victim] = m.pos[other]
    m.edges[(t.root, victim)] = [m.edges[(t.root, victim)][0], m.pos[other]]
    rep = check_drawing(t, m, require=("planar",))
    assert not rep.ok and not rep.planar
    assert pairwise(t, m, ordered=False) != []


def test_climbing_edge_not_upward(example_drawing):
    t, base = example_drawing
    m = clone(base)
    c0 = t.children(t.root)[0]
    m.edges[(t.root, c0)] = [m.edges[(t.root, c0)][0],
                             (m.pos[c0][0], m.pos[c0][1] + 20), m.pos[c0]]
    rep = check_drawing(t, m, require=("upward",))
    assert not rep.upward and not rep.strictly_upward and not rep.ok


@pytest.mark.parametrize("p2,named,raised", [
    ((2, 2), "has no direction", "has no direction"),
    ((3, 3), "leaves upward", "leaves its parent upward"),
], ids=["zero-length", "climbing"])
def test_edge_with_no_departure_is_named(p2, named, raised):
    # the edge to node 2 is one point, or it climbs: either way it has no
    # departure to order, and the message says which
    t = parse_tree("(()())")
    pos = {0: (2, 2), 1: (1, 1), 2: p2}
    d = Drawing(mode="unordered", pos=pos,
                edges={(0, 1): [pos[0], pos[1]], (0, 2): [pos[0], pos[2]]})
    rep = check_drawing(t, d, require=("order_preserving",))
    assert [v for v in rep.violations if v.startswith("order_preserving")] == [
        f"order_preserving: an edge at node 0 {named}"]
    with pytest.raises(InputError, match=rf"^edge \(0, 2\) {raised}$"):
        reorder_children_by_drawing(t, d)


def test_sibling_swap_breaks_order(example_drawing):
    t, base = example_drawing
    m = clone(base)
    a, b = t.children(t.root)[:2]
    m.pos[a], m.pos[b] = m.pos[b], m.pos[a]
    m.edges[(t.root, a)] = [m.edges[(t.root, a)][0], m.pos[a]]
    m.edges[(t.root, b)] = [m.edges[(t.root, b)][0], m.pos[b]]
    rep = check_drawing(t, m, require=("order_preserving",))
    assert not rep.order_preserving and not rep.ok


def test_collinear_overlap(example_drawing):
    t, base = example_drawing
    m = clone(base)
    c0, c1 = t.children(t.root)[:2]
    rootp = m.pos[t.root]
    m.edges[(t.root, c0)] = [rootp, m.pos[c1],
                             (m.pos[c1][0], m.pos[c1][1] - 1), m.pos[c0]]
    rep = check_drawing(t, m, require=("planar",))
    assert not rep.planar
    assert pairwise(t, m, ordered=False) != []


def test_missing_node_raises(example_drawing):
    t, base = example_drawing
    m = clone(base)
    del m.pos[t.n - 1]
    with pytest.raises(DrawingMismatch):
        check_drawing(t, m)


def test_wrong_endpoint_raises(example_drawing):
    t, base = example_drawing
    m = clone(base)
    c0 = t.children(t.root)[0]
    pts = m.edges[(t.root, c0)]
    m.edges[(t.root, c0)] = pts[:-1] + [(pts[-1][0] + 1, pts[-1][1])]
    with pytest.raises(DrawingMismatch):
        check_drawing(t, m)


PAIR = parse_tree("(())")


@pytest.mark.parametrize("pos,edges,message", [
    ({0: (True, 2), 1: (1, 1)}, {(0, 1): [(True, 2), (1, 1)]},
     "position of node 0 is not an integer pair"),
    ({0: (1, 2.0), 1: (1, 1)}, {(0, 1): [(1, 2.0), (1, 1)]},
     "position of node 0 is not an integer pair"),
    ({0: (1, 2), 1: (1, 1, 0)}, {(0, 1): [(1, 2), (1, 1)]},
     "position of node 1 is not an integer pair"),
    ({0: (1, 2), 1: (1, 1)}, {(0, 1): [(1, 2), (1, False), (1, 1)]}, "non-integer point"),
    ({0: (1, 2), 1: (1, 1)}, {(0, 1): [(1, 2), (1.5, 1), (1, 1)]}, "non-integer point"),
    ({0: (1, 2), 1: (1, 1)}, {(0, 1): [(1, 2), (1,), (1, 1)]}, "non-integer point"),
    ({0: (1, 2), 1: (1, 1)}, {(0, 1): [(1, 2), (1, 1, 0), (1, 1)]}, "non-integer point"),
    ({0: [1, 2.5], 1: [1, 1]}, {(0, 1): [[1, 2.5], [1, 1]]},
     "position of node 0 is not an integer pair"),
    ({0: [1, 2], 1: [1, 1]}, {(0, 1): [[1, 2], [True, 1], [1, 1]]}, "non-integer point"),
    ({0: (1, 2), 1: (1, 1)}, {(1, 0): [(1, 1), (1, 2)]},
     "edge set mismatch (missing [(0, 1)], extra [(1, 0)])"),
    ({0: (1, 2), 1: (1, 1)}, {(0, 1): [(1, 2)]}, "edge (0, 1) has fewer than two points"),
], ids=["bool-position", "float-position", "triple-position", "bool-point", "float-point",
        "short-point", "triple-point", "list-float-position", "list-bool-point",
        "edge-set", "one-point-edge"])
def test_non_integer_coordinates_raise(pos, edges, message):
    # a bool is not a coordinate, as in drawing_from_json; the last rows
    # are the structural checks made before any point is read
    with pytest.raises(DrawingMismatch, match=re.escape(message)):
        check_drawing(PAIR, Drawing("unordered", pos, edges))


FORK = parse_tree("(()())")


# reports of drawings in other point forms: _structural reads lists as
# tuples and drops repeated points, so a one-point edge [P, P] runs level
# and has no bend
@pytest.mark.parametrize("t,pos,edges,flags,violations", [
    (PAIR, {0: [1, 2], 1: [1, 1]}, {(0, 1): [[1, 2], [1, 1]]},
     (True, True, True, True, 1, 2, 0), []),
    (FORK, {0: [2, 5], 1: [1, 1], 2: [3, 3]},
     {(0, 1): [[2, 5], [4, 4], [1, 1]], (0, 2): [[2, 5], [3, 3]]},
     (False, True, False, False, 4, 4, 1),
     ["straight_line: some edge bends",
      "order_preserving: children of node 0 appear out of order",
      "planar: node 2 lies inside edge (0, 1) segment 1"]),
    (PAIR, {0: (1, 2), 1: (1, 1)}, {(0, 1): [(1, 2), (1, 2), (1, 1)]},
     (True, True, True, True, 1, 2, 0), []),
    (PAIR, {0: (1, 1), 1: (1, 1)}, {(0, 1): [(1, 1), (1, 1)]},
     (False, False, True, True, 1, 1, 0),
     ["strictly_upward: edge (0, 1) runs level at y=1",
      "planar: nodes 0 and 1 share position (1, 1)"]),
], ids=["list-points", "list-points-through-node", "repeated-first-point", "shared-point-edge"])
def test_point_forms_give_the_same_report(t, pos, edges, flags, violations):
    rep = check_drawing(t, Drawing("unordered", pos, edges), ("planar", "upward", "order_preserving"))
    assert (rep.planar, rep.strictly_upward, rep.order_preserving, rep.straight_line,
            rep.width, rep.height, rep.max_bends) == flags
    assert rep.upward
    assert rep.violations == violations


def test_unknown_require_name_rejected(example_drawing):
    t, base = example_drawing
    with pytest.raises(ValueError):
        check_drawing(t, base, require=("planar", "acyclic"))


# ------------------------------------------- hand-built corner geometries

P3 = gen_path(3)


def p3_drawing(pos, edges):
    return Drawing(mode="ordered3", pos=pos, edges=edges)


def test_straight_vertical_path_chains_legally():
    d = p3_drawing({0: (1, 5), 1: (1, 3), 2: (1, 1)},
                   {(0, 1): [(1, 5), (1, 3)], (1, 2): [(1, 3), (1, 1)]})
    rep = check_drawing(P3, d, require=("planar", "strictly_upward"))
    assert rep.ok, rep.violations


def test_zigzag_through_shared_column():
    d = p3_drawing({0: (1, 5), 1: (1, 3), 2: (1, 1)},
                   {(0, 1): [(1, 5), (2, 4), (1, 3)],
                    (1, 2): [(1, 3), (2, 2), (1, 1)]})
    assert check_drawing(P3, d, require=("planar",)).planar


def test_bend_vertically_above_child():
    d = p3_drawing({0: (1, 5), 1: (2, 2), 2: (1, 1)},
                   {(0, 1): [(1, 5), (1, 2), (2, 2)],
                    (1, 2): [(2, 2), (1, 1)]})
    assert check_drawing(P3, d, require=("planar",)).planar


def test_climbing_polyline_planar_but_not_upward():
    d = p3_drawing({0: (1, 5), 1: (1, 2), 2: (1, 1)},
                   {(0, 1): [(1, 5), (1, 2)],
                    (1, 2): [(1, 2), (3, 4), (1, 1)]})
    rep = check_drawing(P3, d, require=("planar", "upward"))
    assert rep.planar and not rep.upward


def test_polyline_crosses_vertical():
    d = p3_drawing({0: (1, 5), 1: (1, 2), 2: (1, 1)},
                   {(0, 1): [(1, 5), (1, 2)],
                    (1, 2): [(1, 2), (0, 3), (2, 4), (1, 1)]})
    rep = check_drawing(P3, d, require=("planar",))
    assert not rep.planar
    assert pairwise(P3, d, ordered=False) != []


def test_straight_line_crossing_at_rational_point():
    tx = parse_tree("(()(()))")
    dx = Drawing(mode="unordered",
                 pos={0: (2, 5), 1: (1, 1), 2: (3, 3), 3: (1, 2)},
                 edges={(0, 1): [(2, 5), (1, 1)],
                        (0, 2): [(2, 5), (3, 3)],
                        (2, 3): [(3, 3), (1, 2)]})
    rep = check_drawing(tx, dx, require=("planar",))
    assert not rep.planar
    assert any("crosses" in v for v in rep.violations)
    assert pairwise(tx, dx, ordered=False) != []


def test_edge_through_foreign_node():
    t = parse_tree("(()())")
    d = Drawing(mode="unordered",
                pos={0: (2, 5), 1: (1, 1), 2: (3, 3)},
                edges={(0, 1): [(2, 5), (4, 4), (1, 1)],
                       (0, 2): [(2, 5), (3, 3)]})
    # segment (4,4)->(1,1) passes straight through node 2 at (3,3)
    rep = check_drawing(t, d, require=("planar",))
    assert not rep.planar
    assert pairwise(t, d, ordered=False) != []


# -------------------------------------------------- reorder + extraction


def subtree_sizes(t):
    size = [1] * t.n
    for v in t.bottom_up():
        for c in t.children(v):
            size[v] += size[c]
    return size


def test_reorder_matches_drawing_order():
    t = gen_quintary_family(2)
    d = draw_unordered(t)
    t2, d2 = reorder_children_by_drawing(t, d)
    rep = check_drawing(t2, d2, require=("planar", "strictly_upward",
                                         "order_preserving"))
    assert rep.ok, rep.violations[:4]
    assert t2.n == t.n
    # same multiset of root-subtree sizes, possibly permuted
    s1, s2 = subtree_sizes(t), subtree_sizes(t2)
    assert sorted(s2[c] for c in t2.children(t2.root)) == \
        sorted(s1[c] for c in t.children(t.root))


def _shuffled_children(t, rnd):
    """t with every child list shuffled, each node labelled with its id in t."""
    out, stack = [], [0]
    while stack:
        v = stack.pop()
        if v < 0:
            out.append(")")
            continue
        out.append(f"{v}(")
        stack.append(-1)
        stack.extend(reversed(rnd.sample(t.children(v), t.degree(v))))
    return parse_tree("".join(out))


@pytest.mark.parametrize("mode", ["ordered3", "ordered1"])
def test_reorder_undoes_shuffled_children(mode):
    # the drawing fixes the order, so reordering gives back the drawn tree,
    # its drawing and the labels, whatever order the children were listed in
    rnd = random.Random(13)
    for t in tree_pool() + [gen_random_tree(400, seed=s) for s in range(3)]:
        d = draw_ordered(t)
        if mode == "ordered1":
            d = reduce_bends(d, t)
        for _ in range(3):
            ts = _shuffled_children(t, rnd)
            old = [int(ts.label(u)) for u in range(ts.n)]
            ds = Drawing(mode=d.mode, pos={u: d.pos[old[u]] for u in range(ts.n)},
                         edges={(ts.parent(u), u): d.edges[old[ts.parent(u)], old[u]]
                                for u in range(1, ts.n)})
            t2, d2 = reorder_children_by_drawing(ts, ds)
            assert t2 == t
            assert [t2.label(v) for v in range(t.n)] == [str(v) for v in range(t.n)]
            assert d2.pos == d.pos and d2.edges == d.edges


def test_extracted_witness_validates_everywhere():
    for t in tree_pool():
        if t.n < 2:
            continue
        rk = rank(t)
        ranks = [rk.rank[c] for c in t.children(t.root)]
        d = draw_ordered(t)
        w = extract_rank_witness(t, d)
        assert w is not None, t.n
        assert w.W == rk.root_rank()
        assert validate_rank_witness(ranks, w) == []
        d1 = reduce_bends(d, t)
        w1 = extract_rank_witness(t, d1)
        assert w1 is not None and w1.W == rk.root_rank()


def test_extraction_after_reorder():
    for t in tree_pool():
        if t.n < 2:
            continue
        t2, d2 = reorder_children_by_drawing(t, draw_unordered(t))
        w = extract_rank_witness(t2, d2)
        assert w is not None, t.n
        ranks = [rank(t2).rank[c] for c in t2.children(t2.root)]
        assert validate_rank_witness(ranks, w) == []


def test_extraction_frozen_value():
    t = with_ranks([1, 3, 1])
    w = extract_rank_witness(t, draw_ordered(t))
    assert w is not None
    assert (w.W, w.X, w.v) == (3, 1, 1)
    assert w.big == frozenset({1, 2})
    assert w.rank_bounds == {1: 2, 2: 3}


def test_extraction_reads_repeated_and_list_points_alike():
    # a repeated point, the root's above all, adds no segment, and a point
    # given as a list is the same point as the tuple
    for t in tree_pool():
        if t.n < 2:
            continue
        d = draw_ordered(t)
        w = extract_rank_witness(t, d)
        doubled = Drawing(mode=d.mode, pos=dict(d.pos), edges={
            k: [p for p in pts for _ in range(2)] for k, pts in d.edges.items()})
        lists = Drawing(mode=d.mode, pos={u: list(p) for u, p in d.pos.items()},
                        edges={k: [list(p) for p in pts] for k, pts in d.edges.items()})
        assert w is not None
        assert extract_rank_witness(t, doubled) == w
        assert extract_rank_witness(t, lists) == w


@pytest.mark.parametrize("draw", ["unordered", "ordered3", "ordered1"])
@pytest.mark.parametrize("require", [("planar",), ("planar", "upward", "order_preserving")])
def test_extraction_reads_a_given_report(monkeypatch, draw, require):
    # the report check_drawing gave for the same drawing, under any
    # `require`, stands in for a second check
    for t in [parse_tree(s) for s in FIXED] + [gen_random_tree(60, seed=3)]:
        d = FROZEN_DRAW[draw](t)
        report = check_drawing(t, d, require)
        want = extract_rank_witness(t, d)
        calls = []
        for name in ("_structural", "_planarity"):
            monkeypatch.setattr(verify, name, lambda *args, _name=name: calls.append(_name))
        assert extract_rank_witness(t, d, report) == want
        monkeypatch.undo()
        assert calls == []
        if draw != "unordered":
            assert (want is None) == (t.n < 2)


def test_extraction_single_node_is_none():
    t = parse_tree("()")
    assert extract_rank_witness(t, draw_unordered(t)) is None


def test_extraction_none_when_no_subtree_meets_root_column():
    # the only edge leaves the root's column at once and touches it nowhere
    t = parse_tree("(())")
    d = Drawing(mode="unordered", pos={0: (1, 2), 1: (2, 1)},
                edges={(0, 1): [(1, 2), (2, 1)]})
    assert check_drawing(t, d, ("planar", "upward", "order_preserving")).ok
    assert extract_rank_witness(t, d) is None


def test_extraction_none_when_a_small_child_sits_in_a_pocket():
    # a valid drawing of width 3: c1 sits right of the root's column, in the
    # pocket under c2's edge down to its child, so the witness read off it
    # (X = 1, v = c2, big = {c2}) fails R2l and the reading returns None
    t = parse_tree("(()(()))")
    pos = {0: (1, 2), 1: (2, 1), 2: (3, 1), 3: (1, 0)}
    d = Drawing(mode="ordered3", pos=pos,
                edges={(p, c): [pos[p], pos[c]] for p, c in [(0, 1), (0, 2), (2, 3)]})
    report = check_drawing(t, d, ("planar", "strictly_upward", "order_preserving"))
    assert report.ok and report.width == 3
    read = RankWitness(W=3, X=1, v=2, big=frozenset({2}), rank_bounds={2: 3})
    assert [rank(t).rank[c] for c in t.children(0)] == [1, 1]
    assert validate_rank_witness([1, 1], read) == ["R2l: small c_1 has rank 1 > 0"]
    assert extract_rank_witness(t, d, report) is None
    assert extract_rank_witness(t, d) is None


def test_extraction_refuses_broken_drawing(example_drawing):
    t, base = example_drawing
    m = clone(base)
    victim, other = t.children(t.root)[:2]
    m.pos[victim] = m.pos[other]
    m.edges[(t.root, victim)] = [m.edges[(t.root, victim)][0], m.pos[other]]
    assert extract_rank_witness(t, m) is None


# ------------------------------------------------------ frozen reports


def broken_corpus(count=1500):
    """Seeded drawings of random trees, each mutated one to four times.

    A mutation moves a node to a random point near the drawing (its edges
    follow) or inserts a random bend, so the corpus holds every kind of
    violation: climbing and level edges, crossings, overlaps, nodes on
    edges, shared positions and touches off the grid points.
    """
    for k in range(count):
        rng = random.Random(k)
        t = gen_random_tree(rng.randint(2, 12), seed=k)
        mode = ("unordered", "ordered3", "ordered1")[k % 3]
        if mode == "unordered":
            d = draw_unordered(t)
        else:
            d = draw_ordered(t)
            if mode == "ordered1":
                d = reduce_bends(d, t)
        yield t, mutated(t, d, rng, rng.randint(1, 4))


def mutated(t, d, rng, count):
    """A copy of d after `count` mutations: each moves a node to a random
    point near the drawing (its edges follow) or inserts a random bend."""
    pos = dict(d.pos)
    edges = {key: list(pts) for key, pts in d.edges.items()}
    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
    x0, x1, y0, y1 = min(xs) - 1, max(xs) + 1, min(ys) - 1, max(ys) + 1
    for _ in range(count):
        if rng.random() < 0.4:
            u = rng.randrange(t.n)
            p = (rng.randint(x0, x1), rng.randint(y0, y1))
            pos[u] = p
            for key, pts in edges.items():
                if key[0] == u:
                    pts[0] = p
                if key[1] == u:
                    pts[-1] = p
        elif edges:
            pts = edges[rng.choice(sorted(edges))]
            pts.insert(rng.randint(1, len(pts) - 1),
                       (rng.randint(x0, x1), rng.randint(y0, y1)))
    return Drawing(mode=d.mode, pos=pos, edges=edges)


# one phrase of each violation message the corpus must produce
VIOLATION_KINDS = [
    "climbs", "runs level", "leaves upward", "has no direction", "out of order",
    "share position", "in column", "crosses", "collinear and overlap", "lies inside",
    "touches node", "bends at node", "away from any node", "touches itself",
]

# SHA-256 over the JSON of every report (check_drawing on broken_corpus)
# and every witness (extract_rank_witness on the ordered3 drawings of the
# frozen layout corpus).  A verifier refactor must leave them byte-identical.
FROZEN_REPORT_DIGESTS = {
    "reports": "dcdc5779561461bcd57c562ca1fbee88db69ea5f94f028c3dbc711f38d6c9070",
    "witnesses": "c9590d31757e28d57051df2984d6a4f4ec248fe45b67f4c857c2db001b018685",
}


def frozen_outputs(kind):
    if kind == "reports":
        for t, d in broken_corpus():
            yield check_drawing(t, d, require=("planar", "upward", "order_preserving"))._asdict()
    else:
        for t in frozen_corpus():
            w = extract_rank_witness(t, draw_ordered(t))
            yield None if w is None else rank_witness_to_json(w)


@pytest.mark.parametrize("kind", sorted(FROZEN_REPORT_DIGESTS))
def test_frozen_reports(kind):
    h = hashlib.sha256()
    count = 0
    for out in frozen_outputs(kind):
        h.update(json.dumps(out, sort_keys=True).encode())
        count += 1
    assert count == (1500 if kind == "reports" else 2260)
    assert h.hexdigest() == FROZEN_REPORT_DIGESTS[kind]


def test_broken_corpus_has_every_violation():
    seen = set()
    for rep in frozen_outputs("reports"):
        for v in rep["violations"]:
            seen.update(k for k in VIOLATION_KINDS if k in v)
            if "/" in v:
                seen.add("off-grid")
    assert seen == set(VIOLATION_KINDS) | {"off-grid"}


# --------------------------------------- the sorting decision and the walk


def assert_decision_agrees(t, d):
    """The sorting decision is sound (when it certifies a drawing, the
    walk names nothing) and complete (when the walk names nothing, it
    certifies) on every drawing, wide ones included.  Returns it."""
    pos, lines = verify._structural(t, d)
    walked = []
    verify._walk(pos, lines, walked)
    decided = verify._planar_by_sorting(pos, lines)
    assert decided == (walked == []), walked
    return decided


def test_decision_agrees_with_walk_on_broken_corpus():
    with sorts() as spy:
        seen = {assert_decision_agrees(t, d) for t, d in broken_corpus()}
    assert seen == {True, False}
    assert spy.call_count > 1500  # some drawing is wide in x and sorted on its side


def tiny_grid_drawing(n, cols, seed):
    """A drawing of a random n-node tree on `cols` columns and four rows.

    Edges take up to two bends, half of them straight above or below the
    point before, so edges climb and run level, points fall inside
    vertical segments and segments touch between grid points.
    """
    rng = random.Random(seed)
    t = gen_random_tree(n, seed=seed)
    pos = {v: (rng.randint(1, cols), rng.randint(0, 3)) for v in range(n)}
    edges = {}
    for c in range(1, n):
        pts = [pos[t.parent(c)]]
        for _ in range(rng.randint(0, 2)):
            x = pts[-1][0] if rng.random() < 0.5 else rng.randint(1, cols)
            pts.append((x, rng.randint(0, 3)))
        edges[(t.parent(c), c)] = pts + [pos[c]]
    return t, Drawing(mode="unordered", pos=pos, edges=edges)


@settings(max_examples=400, deadline=None)
@given(n=st.integers(2, 5), cols=st.integers(2, 4), seed=st.integers(0, 10**6))
def test_decision_agrees_with_walk_on_tiny_grids(n, cols, seed):
    assert_decision_agrees(*tiny_grid_drawing(n, cols, seed))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(3, 9), cols=st.integers(20, 60), seed=st.integers(0, 10**6))
def test_decision_agrees_with_walk_on_wide_grids(n, cols, seed):
    # four rows and many columns: level segments turn into vertical ones
    assert_decision_agrees(*tiny_grid_drawing(n, cols, seed))


def test_tiny_grids_hold_every_hard_case():
    seen = set()
    decided = set()
    for seed in range(300):
        t, d = tiny_grid_drawing(2 + seed % 4, 2 + seed % 3, seed)
        decided.add(assert_decision_agrees(t, d))
        for v in check_drawing(t, d, ()).violations:
            seen.update(k for k in ("climbs", "runs level", "lies inside", "touches") if k in v)
            if "/" in v:
                seen.add("off-grid")
    assert seen == {"climbs", "runs level", "lies inside", "touches", "off-grid"}
    assert decided >= {True, False}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(20, 120), seed=st.integers(0, 10**6),
       mode=st.sampled_from(["unordered", "ordered3", "ordered1"]), count=st.integers(1, 2))
def test_decision_agrees_with_walk_on_mutated_constructions(n, seed, mode, count):
    t = gen_random_tree(n, seed=seed)
    assert_decision_agrees(t, mutated(t, FROZEN_DRAW[mode](t), random.Random(seed), count))


def grid_reports():
    """The reports of 2300 seeded drawings: small and wide tiny grids, and
    mutated constructions of every mode."""
    req = ("planar", "upward", "order_preserving")
    for s in range(1000):
        yield check_drawing(*tiny_grid_drawing(2 + s % 4, 2 + s % 3, s), req)._asdict()
    for s in range(1000):
        yield check_drawing(*tiny_grid_drawing(3 + s % 7, 20 + s % 41, s), req)._asdict()
    for s in range(300):
        t = gen_random_tree(20 + s % 101, seed=s)
        mode = ("unordered", "ordered3", "ordered1")[s % 3]
        yield check_drawing(t, mutated(t, FROZEN_DRAW[mode](t), random.Random(s), 1 + s % 2), req)._asdict()


# SHA-256 over the JSON of every report of grid_reports; it pins the names
# the walk gives on grids and off them.  A walk refactor leaves it as it is.
FROZEN_GRID_REPORT_DIGEST = "3413c6d271d3135017e4255c56e7f49332decd188e2a86f4878ab0559686abe5"


def test_frozen_grid_reports():
    h = hashlib.sha256()
    count = 0
    for out in grid_reports():
        h.update(json.dumps(out, sort_keys=True).encode())
        count += 1
    assert count == 2300
    assert h.hexdigest() == FROZEN_GRID_REPORT_DIGEST


def test_constructions_never_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("the walk ran on a construction")
    monkeypatch.setattr(verify, "_walk", walk)
    for t in frozen_corpus():
        for mode in ("unordered", "ordered3", "ordered1"):
            assert check_drawing(t, FROZEN_DRAW[mode](t), ("planar",)).ok


def straight_star(k):
    """A k-leaf star drawn straight at width k: the root above the middle
    of its leaves, which stand in order on the row below."""
    t = star(k)
    pos = {0: ((k + 1) // 2, 1)} | {c: (c, 0) for c in range(1, k + 1)}
    return t, Drawing(mode="unordered", pos=pos, edges={(0, c): [pos[0], pos[c]] for c in pos if c})


def layered_random(n):
    """A random n-node tree drawn straight with x = preorder index + 1 and
    y = -depth; every edge runs one row down, and its x-span covers the
    subtrees of its earlier siblings."""
    t = gen_random_tree(n, seed=0)
    pos = {0: (1, 0)}
    for c in range(1, n):
        pos[c] = (c + 1, pos[t.parent(c)][1] - 1)
    return t, Drawing(mode="ordered", pos=pos,
                      edges={(t.parent(c), c): [pos[t.parent(c)], pos[c]] for c in range(1, n)})


@pytest.mark.parametrize("make", [straight_star, layered_random])
def test_wide_drawings_are_decided_quickly_without_the_walk(monkeypatch, make):
    def walk(*args):
        raise AssertionError("the walk ran on a valid drawing")
    monkeypatch.setattr(verify, "_walk", walk)
    t, d = make(10**4)
    with sorts() as spy:
        t0 = time.perf_counter()
        rep = check_drawing(t, d, ("planar", "upward", "order_preserving"))
        secs = time.perf_counter() - t0
    assert rep.ok and spy.call_count == 2  # sorted on its side
    assert secs < 10, secs
