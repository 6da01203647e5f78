"""Layout constructions against the exact pairwise geometry oracle."""

import hashlib
import json
import tracemalloc
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomcheck import check
from uptree.layout import (
    Drawing,
    _write_drawing,
    draw_ordered,
    draw_unordered,
    drawing_from_json,
    drawing_to_json,
    layout_stats,
    prune_collinear,
    reduce_bends,
)
from uptree.oracle import enumerate_trees
from uptree.ranking import rank
from uptree.tree import (
    gen_complete_binary,
    gen_hpd_family,
    gen_path,
    gen_quintary_family,
    gen_random_tree,
    parse_tree,
    serialize_tree,
)
from uptree.verify import check_drawing
from uptree.widths import rooted_pathwidth

EXAMPLE = "(()()(()()))"


def bin_s(h):
    return "()" if h == 1 else "(" + bin_s(h - 1) * 2 + ")"


def with_ranks(rs):
    """Root whose i-th child is a complete binary tree of rank rs[i]."""
    return parse_tree("(" + "".join(bin_s(r) for r in rs) + ")")


def assert_all_modes(t, reduce_too=True):
    """Run every construction on t and hold it to its advertised bounds."""
    n = t.n
    rpw = rooted_pathwidth(t).root_value()
    W = rank(t).root_rank()

    d0 = draw_unordered(t)
    s0 = layout_stats(d0)
    assert check(t, d0, ordered=False) == []
    assert s0.width == rpw
    assert s0.height == n
    assert s0.max_bends_per_edge == 0

    d1 = draw_ordered(t)
    s1 = layout_stats(d1)
    assert check(t, d1, ordered=True) == []
    assert s1.width == W
    assert s1.height <= 2 * n - 1
    assert s1.max_bends_per_edge <= 3
    if n > 1:
        assert s1.root_corner in ("top-left", "top-right")
        assert d1.pos[0][0] in (1, W)

    if reduce_too:
        d2 = reduce_bends(d1, t)
        s2 = layout_stats(d2)
        assert check(t, d2, ordered=True) == []
        assert s2.width == W
        assert s2.max_bends_per_edge <= 1


# ------------------------------------------------------------- families


def test_single_node():
    assert_all_modes(parse_tree("()"))


@pytest.mark.parametrize("k", range(2, 8))
def test_paths(k):
    assert_all_modes(gen_path(k))


@pytest.mark.parametrize("h", range(1, 6))
def test_complete_binary(h):
    assert_all_modes(gen_complete_binary(h))


@pytest.mark.parametrize("i", [1, 2, 3])
def test_quintary(i):
    assert_all_modes(gen_quintary_family(i), reduce_too=i <= 2)


@pytest.mark.parametrize("i", range(2, 6))
def test_hpd_family(i):
    assert_all_modes(gen_hpd_family(i))


# ------------------------------------------------- witness branch cases

# child-rank profiles that force each assembler branch: full left chains,
# mirrors, c_1 big and small, smalls before/between/after chain children,
# and a small scanned right under a dangling chain bend
PROFILES = [
    [2, 3],
    [3, 2],
    [2, 4],
    [3, 1],
    [1, 3],
    [1, 1, 3],
    [3, 1, 1],
    [1, 3, 1],
    [1, 4, 1, 2],
    [2, 1, 4, 1, 2],
]


@pytest.mark.parametrize("rs", PROFILES, ids=lambda rs: "-".join(map(str, rs)))
def test_rank_profiles(rs):
    assert_all_modes(with_ranks(rs))


def test_nested_flips():
    # right-rooted inner frames under left and right outer witnesses,
    # plus a rank-4 right-rooted child landing in the w=4 chain ray
    inner_r = "(" + bin_s(3) + "())"
    assert_all_modes(parse_tree("(" + inner_r + "())"))
    assert_all_modes(parse_tree("(()" + inner_r + ")"))
    t4r = "(" + bin_s(4) + "())"
    assert_all_modes(parse_tree("(" + bin_s(2) + t4r + ")"))
    assert_all_modes(parse_tree("((()" + bin_s(4) + ")" + bin_s(2) + ")"))


def test_stacked_chain_levels():
    lvl1 = "(" + bin_s(2) + bin_s(3) + ")"
    lvl2 = "(" + bin_s(2) + lvl1 + ")"
    assert_all_modes(parse_tree(lvl2))
    assert_all_modes(parse_tree("(" + lvl2 + "())"))


# --------------------------------------------------- frozen expectations


def test_example_ordered_stats():
    d = draw_ordered(parse_tree(EXAMPLE))
    s = layout_stats(d)
    assert (s.width, s.height, s.max_bends_per_edge) == (2, 9, 1)
    assert s.root_corner == "top-right"


def test_quintary_ordered_dimensions():
    d2 = draw_ordered(gen_quintary_family(2))
    assert (layout_stats(d2).width, layout_stats(d2).height) == (3, 13)
    d3 = draw_ordered(gen_quintary_family(3))
    assert (layout_stats(d3).width, layout_stats(d3).height) == (5, 85)


def test_full_chain_uses_three_bends():
    t = with_ranks([2, 4])
    d = draw_ordered(t)
    assert layout_stats(d).max_bends_per_edge == 3
    d1 = reduce_bends(d, t)
    assert layout_stats(d1).max_bends_per_edge <= 1
    assert max(y for _, y in d1.pos.values()) == 57


def test_unordered_beats_ordered_on_quintary():
    # the family's whole point: reordering children saves width
    t = gen_quintary_family(3)
    assert layout_stats(draw_unordered(t)).width == 3
    assert layout_stats(draw_ordered(t)).width == 5


def test_prune_collinear_drops_degenerate_bends():
    t = with_ranks([2, 3])
    d = draw_ordered(t)
    dp = prune_collinear(d)
    counts = {k: len(pts) for k, pts in d.edges.items()}
    pruned = {k: len(pts) for k, pts in dp.edges.items()}
    assert all(pruned[k] <= counts[k] for k in counts)
    assert sum(pruned.values()) < sum(counts.values())
    assert dp.pos == d.pos
    assert check(t, dp, ordered=True) == []


def test_layout_stats_interior_root():
    d = Drawing(mode="unordered", pos={0: (2, 2), 1: (1, 1), 2: (3, 1)},
                edges={(0, 1): [(2, 2), (1, 1)], (0, 2): [(2, 2), (3, 1)]})
    assert layout_stats(d).root_corner == "interior"


@pytest.mark.parametrize("pts", [[(1, 1), (1, 1)], [(1, 1), (1, 1), (1, 1)]],
                         ids=["two-points", "three-points"])
def test_layout_stats_zero_length_edge_has_no_bend(pts):
    d = Drawing(mode="unordered", pos={0: (1, 1), 1: (1, 1)}, edges={(0, 1): pts})
    assert layout_stats(d).max_bends_per_edge == 0


def test_explicit_annotations_accepted():
    t = parse_tree(EXAMPLE)
    assert draw_unordered(t, rooted_pathwidth(t)).pos == draw_unordered(t).pos
    assert draw_ordered(t, rank(t)).pos == draw_ordered(t).pos


# ------------------------------------------------------ frozen drawings

# (n, seed) pairs of the random part of the frozen corpus
FROZEN_RANDOM = [(5 + (k * 53) % 96, 1000 + k) for k in range(200)]

# SHA-256 over the CLI's bytes for every drawing of the frozen corpus, in
# corpus order.  A layout refactor must leave every drawing byte-identical.
FROZEN_DIGESTS = {
    "unordered": "cf605077aabd23c021b8465c0e4d5d95159adc0fc6a39286745678a297e2fe3e",
    "ordered3": "6045a415ff077731fddea83e644b255511ea19c68aec6f42a4161a1e97a2e8da",
    "ordered1": "51a677b2ebd298219197c5b58a1403452b19120642a74cd862a693c43181194b",
    "ordered3_pruned": "586f9375117a31397198165fd3ed96923c85844e7f82b7d5cbd73a7ce8c2c56f",
}

FROZEN_DRAW = {
    "unordered": draw_unordered,
    "ordered3": draw_ordered,
    "ordered1": lambda t: reduce_bends(draw_ordered(t), t),
    "ordered3_pruned": lambda t: prune_collinear(draw_ordered(t)),
}


def frozen_corpus():
    """Every tree with n <= 9, four family members, 200 random trees."""
    for n in range(1, 10):
        yield from enumerate_trees(n)
    yield gen_path(50)
    yield gen_complete_binary(6)
    yield gen_quintary_family(3)
    yield gen_hpd_family(6)
    for n, seed in FROZEN_RANDOM:
        yield gen_random_tree(n, seed=seed)


@pytest.mark.parametrize("mode", sorted(FROZEN_DIGESTS))
def test_frozen_drawings(mode):
    draw = FROZEN_DRAW[mode]
    h = hashlib.sha256()
    count = 0
    for t in frozen_corpus():
        h.update(json.dumps(drawing_to_json(draw(t)), sort_keys=True, indent=2).encode())
        count += 1
    assert count == 2260
    assert h.hexdigest() == FROZEN_DIGESTS[mode]


# The frozen corpus above holds only two trees of rank >= 5, so long big-child
# chains get their own digests: binary(h) has rank h, quintary(i) rank 2i - 1,
# and the random trees reach rank 7.
WIDE_DIGESTS = {
    "ordered3": "dc7d35bbc267882c497d78191dd53c5dab6b1e1bffc109034164fd1efb360e10",
    "ordered1": "1b0f43b5c59ea497533ad45a1ab51618b0c9906726f6eb7ce9c0d4bb49abd556",
}


def test_frozen_wide_chains():
    h = {mode: hashlib.sha256() for mode in WIDE_DIGESTS}
    trees = [gen_quintary_family(i) for i in range(2, 6)]
    trees += [gen_complete_binary(k) for k in range(2, 13)]
    trees += [gen_hpd_family(i) for i in range(2, 12)]
    trees += [gen_random_tree(n, seed=s) for n in (500, 2000, 5000) for s in range(4)]
    for t in trees:
        d3 = draw_ordered(t)
        for mode, d in (("ordered3", d3), ("ordered1", reduce_bends(d3, t))):
            h[mode].update(json.dumps(drawing_to_json(d), sort_keys=True).encode())
    assert {mode: x.hexdigest() for mode, x in h.items()} == WIDE_DIGESTS


@pytest.mark.parametrize("mode", ["unordered", "ordered3", "ordered1"])
def test_edges_share_end_points_with_positions(mode):
    # an edge's first and last points are its nodes' position tuples, not
    # equal copies of them
    for t in chain(frozen_corpus(), [gen_path(500), gen_hpd_family(9)]):
        d = FROZEN_DRAW[mode](t)
        for (p, c), pts in d.edges.items():
            assert pts[0] is d.pos[p] and pts[-1] is d.pos[c], (mode, t, p, c)


def test_ordered_drawing_memory_at_1e5():
    # frames that held whole edges, with ends that copied the positions,
    # took the peak past 90 MiB and the drawing to about 230 bytes a point
    t = gen_random_tree(10**5, seed=0)
    ann = rank(t)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        d = draw_ordered(t, ann)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    points = sum(map(len, d.edges.values()))
    assert (peak - base) / 2**20 < 80
    assert (kept - base) / points < 190


# --------------------------------------------------------------- writer


def written(d, stats=None):
    chunks = []
    _write_drawing(chunks.append, d, stats)
    return "".join(chunks)


def dumped(d, stats=None):
    """What `uptree draw` printed before it had a writer of its own."""
    out = drawing_to_json(d) | ({} if stats is None else {"stats": stats})
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("mode", ["unordered", "ordered3", "ordered1"])
def test_writer_matches_json_dumps_on_frozen_corpus(mode):
    for t in frozen_corpus():
        d = FROZEN_DRAW[mode](t)
        for drawing in (d, prune_collinear(d)):
            stats = layout_stats(drawing)._asdict()
            assert written(drawing) == dumped(drawing)
            assert written(drawing, stats) == dumped(drawing, stats)


# far past 2^63, negative, and small enough to repeat
COORD = st.integers(-(2**70), 2**70) | st.integers(-3, 12)


@st.composite
def any_drawing(draw):
    # more than ten ids put "10" before "2" in json's key order
    ids = draw(st.sets(st.integers(-5, 30), min_size=1, max_size=25))
    pos = {u: (draw(COORD), draw(COORD)) for u in ids}
    keys = draw(st.lists(st.tuples(st.sampled_from(sorted(ids)), st.sampled_from(sorted(ids))),
                         unique=True, max_size=len(ids) + 3))
    edges = {k: draw(st.lists(st.tuples(COORD, COORD), max_size=4)) for k in keys}
    return Drawing(draw(st.sampled_from(["unordered", "ordered3", "ordered1"])), pos, edges)


@settings(max_examples=200, deadline=None)
@example(Drawing("unordered", {0: (1, 1)}, {}))
@example(Drawing("ordered1", {u: (-u, 2**64 + u) for u in range(12)},
                 {(0, u): [(0, 2**64), (-u, 2**64 + u)] for u in range(1, 12)}))
@given(d=any_drawing())
def test_writer_matches_json_dumps(d):
    assert written(d) == dumped(d)
    stats = layout_stats(d)._asdict()
    assert written(d, stats) == dumped(d, stats)


def test_writer_streams():
    # a big drawing goes out in several writes, none of them the whole text
    t = gen_path(5000)
    d = draw_unordered(t)
    chunks = []
    _write_drawing(chunks.append, d)
    assert len(chunks) > 2
    assert "".join(chunks) == dumped(d)
    assert max(map(len, chunks)) < len(dumped(d)) / 2


# ------------------------------------------------------------ deep trees


@pytest.mark.parametrize("t", [gen_path(20000), gen_hpd_family(13)], ids=["path20000", "hpd13"])
def test_deep_trees_all_modes(t):
    # thousands of levels deep: no recursion, no time cliff, bounds intact
    n = t.n
    rpw = rooted_pathwidth(t).root_value()
    W = rank(t).root_rank()

    s0 = layout_stats(draw_unordered(t))
    assert (s0.width, s0.height, s0.max_bends_per_edge) == (rpw, n, 0)

    d1 = draw_ordered(t)
    s1 = layout_stats(d1)
    assert s1.width == W
    assert s1.height <= 2 * n - 1
    assert s1.max_bends_per_edge <= 3
    rep = check_drawing(t, d1, require=("planar", "strictly_upward", "order_preserving"))
    assert rep.ok, rep.violations

    s2 = layout_stats(reduce_bends(d1, t))
    assert s2.width == W
    assert s2.max_bends_per_edge <= 1


# The paper's guarantees at n = 10^5, each drawing checked exactly: width
# rpw (unordered) or rank, height n (unordered) or at most 2n - 1 (ordered3),
# at most 0 / 3 / 1 bends.  About 25 s of the tier-1 run.
GUARANTEE_TREES = {
    "path100000": lambda: gen_path(100_000),
    "hpd16": lambda: gen_hpd_family(16),
    "random100000": lambda: gen_random_tree(100_000, seed=0),
}


@pytest.mark.parametrize("name", sorted(GUARANTEE_TREES))
def test_guarantees_at_1e5(name):
    t = GUARANTEE_TREES[name]()
    n = t.n
    ann = rank(t)
    for mode, d, width, bends in (
        ("unordered", draw_unordered(t), rooted_pathwidth(t).root_value(), 0),
        ("ordered3", draw_ordered(t, ann), ann.root_rank(), 3),
        ("ordered1", reduce_bends(draw_ordered(t, ann), t), ann.root_rank(), 1),
    ):
        rep = check_drawing(t, d, require=("planar", "strictly_upward",
                                           "straight_line" if mode == "unordered"
                                           else "order_preserving"))
        assert rep.ok, (mode, rep.violations)
        assert rep.width == width, mode
        assert rep.max_bends <= bends, mode
        if mode == "unordered":
            assert rep.height == n
        elif mode == "ordered3":
            assert rep.height <= 2 * n - 1


# staircase(k): the root's children are complete binary trees of heights
# 1, 2, ..., k + 1, in order, so n = 2^(k+2) - k - 2 and rank = k + 1; it is
# among the tallest ordered1 drawings of all trees of 5 and of 12 nodes.
# Per k: (n, bit length of the largest ordered1 coordinate, ordered3
# height), frozen when the test was added; a layout change that grows either fails.
STAIRCASE = {
    1: (5, 5, 7), 2: (12, 7, 18), 3: (27, 11, 41), 4: (58, 14, 88),
    5: (121, 18, 183), 6: (248, 22, 374), 7: (503, 27, 757), 8: (1014, 32, 1524),
    9: (2037, 36, 3059), 10: (4084, 41, 6130), 11: (8179, 47, 12273),
    12: (16370, 52, 24560),
}


def test_staircase_coordinates_are_pinned():
    got = {}
    for k in STAIRCASE:
        t = parse_tree("(" + "".join(serialize_tree(gen_complete_binary(h))
                                     for h in range(1, k + 2)) + ")")
        d3 = draw_ordered(t)
        d1 = reduce_bends(d3, t)
        top = max(abs(c) for p in chain(d1.pos.values(), *d1.edges.values()) for c in p)
        got[k] = (t.n, top.bit_length(), layout_stats(d3).height)
    assert got == STAIRCASE


# ------------------------------------------------------------ bad input


def test_reduce_bends_rejects_wrong_mode():
    t = parse_tree("(()())")
    with pytest.raises(ValueError):
        reduce_bends(draw_unordered(t), t)


def test_reduce_bends_rejects_foreign_tree():
    t = parse_tree("(()())")
    d = draw_ordered(t)
    with pytest.raises(ValueError):
        reduce_bends(d, parse_tree("(())"))


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        drawing_from_json({"mode": "ordered3"})
    with pytest.raises(ValueError):
        drawing_from_json({"mode": "cubist", "positions": {}, "edges": []})
    good = drawing_to_json(draw_ordered(parse_tree("(())")))
    bad = dict(good, positions={"0": [1]})
    with pytest.raises(ValueError):
        drawing_from_json(bad)


def test_from_json_rejects_duplicate_edge():
    good = drawing_to_json(draw_unordered(parse_tree("(()())")))
    straight = good["edges"][0]
    bent = dict(straight, points=[straight["points"][0], [2, 2], straight["points"][-1]])
    with pytest.raises(ValueError, match="duplicate edge 0 -> 1"):
        drawing_from_json(dict(good, edges=[bent] + good["edges"]))


def test_from_json_rejects_empty_drawing():
    with pytest.raises(ValueError, match="a drawing needs at least one node"):
        drawing_from_json({"mode": "unordered", "positions": {}, "edges": []})


def _spoil(obj, where, value):
    obj = json.loads(json.dumps(obj))
    if where == "key":
        obj["positions"][value] = obj["positions"].pop("1")
    elif where == "coord":
        obj["positions"]["1"][0] = value
    elif where == "point":
        obj["edges"][0]["points"][-1][1] = value
    else:
        obj["edges"][0][where] = value
    return obj


@pytest.mark.parametrize("where,value", [
    ("coord", 1.9), ("coord", True), ("coord", "1"), ("coord", 1.0),
    ("point", 2.5), ("point", False), ("from", 0.0), ("to", 1.7), ("to", "1"),
    ("key", "01"), ("key", " 1"), ("key", "+1"),
], ids=["coord-float", "coord-true", "coord-string", "coord-float-integral",
        "point-float", "point-false", "from-float", "to-float", "to-string",
        "key-leading-zero", "key-space", "key-plus"])
def test_from_json_rejects_non_integers(where, value):
    # int() would read every one of these as an integer
    good = drawing_to_json(draw_ordered(parse_tree("(())")))
    with pytest.raises(ValueError, match="not an integer"):
        drawing_from_json(_spoil(good, where, value))


@pytest.mark.parametrize("ends,message", [
    ({"from": True}, "True is not an integer"),  # before the missing "to"
    ({"to": 1}, "'from'"),
    ({"from": 0}, "'to'"),
    ({"from": 0, "to": False}, "False is not an integer"),
    ({"from": 0.0, "to": 1.5}, "0.0 is not an integer"),
    ({"from": [0], "to": 1}, "[0] is not an integer"),
])
def test_from_json_edge_end_messages(ends, message):
    obj = {"mode": "unordered", "positions": {"0": [1, 2], "1": [1, 1]},
           "edges": [dict(ends, points=[[1, 2], [1, 1]])]}
    with pytest.raises(ValueError) as err:
        drawing_from_json(obj)
    assert str(err.value) == f"malformed drawing JSON: {message}"


def test_from_json_reads_plain_ints_without_calls(monkeypatch):
    import uptree.layout as layout

    obj = drawing_to_json(draw_ordered(gen_random_tree(300, seed=1)))
    calls = []
    monkeypatch.setattr(layout, "_json_int", lambda v: calls.append(v) or v)
    assert drawing_to_json(drawing_from_json(obj)) == obj
    assert calls == []


# ------------------------------------------------------------ roundtrip


@pytest.mark.parametrize("mode", ["unordered", "ordered3", "ordered1"])
def test_json_roundtrip(mode):
    t = parse_tree(EXAMPLE)
    if mode == "unordered":
        d = draw_unordered(t)
    elif mode == "ordered3":
        d = draw_ordered(t)
    else:
        d = reduce_bends(draw_ordered(t), t)
    back = drawing_from_json(drawing_to_json(d))
    assert back.mode == d.mode
    assert back.pos == d.pos
    assert back.edges == d.edges
    assert isinstance(back, Drawing)


# ------------------------------------------------------------ properties


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 10**6))
def test_random_trees_all_modes(n, seed):
    assert_all_modes(gen_random_tree(n, seed=seed))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 10**6))
def test_random_skinny_trees(n, seed):
    assert_all_modes(gen_random_tree(n, seed=seed, max_degree=3))
