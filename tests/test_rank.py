from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uptree.oracle import validate_corner_witness
from uptree.ranking import (
    CornerWitness,
    RankWitness,
    corner_scan,
    rank,
    rank_witness_to_json,
    validate_rank_witness,
)
from uptree.tree import (
    gen_complete_binary,
    gen_hpd_family,
    gen_path,
    gen_quintary_family,
    gen_random_tree,
    parse_tree,
)
from uptree.widths import heavy_path_depth, rooted_pathwidth

from test_layout import frozen_corpus


def push_to_corner(child_ranks, w: RankWitness) -> RankWitness:
    """Move a valid rank-W-witness's coordinate to X = 1 or X = W.

    Input must be valid and have W >= 2; raises ValueError otherwise.
    If X is already extremal the witness is returned unchanged.  The new
    witness uses at most two big children, picked by where the (unique)
    rank-W child sits relative to the at-most-one rank-(W-1) child.
    """
    problems = validate_rank_witness(child_ranks, w)
    if problems:
        raise ValueError(f"input witness invalid: {problems[0]}")
    if w.W < 2:
        raise ValueError("push_to_corner needs W >= 2")
    if w.X in (1, w.W):
        return w
    d = len(child_ranks)
    W = w.W
    tops = [i for i in range(1, d + 1) if child_ranks[i - 1] == W]
    if not tops:
        # every child fits below W: c_1 big, everything else small
        return RankWitness(W=W, X=1, v=1, big=frozenset({1}), rank_bounds={1: W})
    m = tops[0]
    seconds = [i for i in range(1, d + 1) if child_ranks[i - 1] == W - 1]
    if not seconds or seconds[0] > m:
        big = frozenset({1, m})
        bounds = {m: W} if m == 1 else {1: W - 1, m: W}
        return RankWitness(W=W, X=1, v=1, big=big, rank_bounds=bounds)
    big = frozenset({m, d})
    bounds = {m: W} if m == d else {d: W - 1, m: W}
    return RankWitness(W=W, X=W, v=d, big=big, rank_bounds=bounds)


def test_test_left_examples():
    assert corner_scan([1, 1, 2], 2, "left") is None
    ok = corner_scan([1], 2, "left")
    assert ok == CornerWitness("left", 2, 3, {})
    assert ok.Wprime == ok.W + 1  # the vacuous witness
    ok2 = corner_scan([2, 1, 1], 2, "left")
    assert ok2 == CornerWitness("left", 2, 2, {2: 1})


def test_test_right_examples():
    ok = corner_scan([1, 1, 2], 2, "right")
    assert ok == CornerWitness("right", 2, 2, {2: 3})
    assert corner_scan([2, 1, 1], 2, "right") is None
    assert corner_scan([1, 1], 1, "right") is None
    assert corner_scan([1, 1], 1, "left") is None


def test_test_left_multilevel_sigma():
    # a full descending chain gets assigned all the way down to W' = 1
    res = corner_scan([1, 2, 3], 3, "left")
    assert res == CornerWitness("left", 3, 1, {3: 3, 2: 2, 1: 1})
    # but a second rank-1 child in front blocks the w = 1 slot
    assert corner_scan([1, 1, 2, 3], 3, "left") is None
    res2 = corner_scan([2, 3], 3, "left")
    assert res2 == CornerWitness("left", 3, 2, {2: 1, 3: 2})
    res3 = corner_scan([3, 2], 3, "right")
    assert res3 == CornerWitness("right", 3, 2, {3: 1, 2: 2})


def test_corner_scan_rejects_unknown_side():
    with pytest.raises(ValueError, match="side"):
        corner_scan([1], 1, "up")


def test_single_child_corner_at_w1():
    res = corner_scan([1], 1, "left")
    assert res == CornerWitness("left", 1, 1, {1: 1})
    assert validate_corner_witness([1], res) == []


def test_rank_base_cases():
    assert rank(parse_tree("()")).root_rank() == 1
    assert rank(parse_tree("(()())")).root_rank() == 2
    for k in (1, 2, 3, 10):
        assert rank(gen_path(k)).root_rank() == 1


def test_rank_quintary():
    for i in range(1, 6):
        assert rank(gen_quintary_family(i)).root_rank() == 2 * i - 1


def test_rank_complete_binary():
    for h in range(1, 11):
        assert rank(gen_complete_binary(h)).root_rank() == h


def test_rank_keeps_corner_witnesses():
    t = parse_tree("(()()(()()))")
    ann = rank(t)
    assert ann.root_rank() == 2
    cw = ann.corner[0]
    assert cw.side == "right"  # left test fails on ranks 1,1,2
    assert validate_corner_witness([1, 1, 2], cw) == []
    # every internal node's stored witness validates against child ranks
    for v in range(t.n):
        if t.is_leaf(v):
            assert v not in ann.corner
            continue
        ranks = [ann.rank[c] for c in t.children(v)]
        assert validate_corner_witness(ranks, ann.corner[v]) == []


def test_rank_prefers_left_witness():
    ann = rank(parse_tree("((()())()())"))  # child ranks 2,1,1
    assert ann.corner[0].side == "left"


# SHA-256 over every annotation of the frozen layout corpus: per node rank,
# every corner witness in insertion order, rpw and heavy child per node, and
# hpd.  A rewrite of the annotation passes must leave it unchanged.
FROZEN_ANNOTATIONS = "20c1637ffe5f3dd74bf2816beedd0d94c73ceedb7121cee0cc14326632e69f5d"


def test_frozen_annotations():
    h = hashlib.sha256()
    count = 0
    for t in frozen_corpus():
        n = t.n
        ann = rank(t)
        rpw = rooted_pathwidth(t)
        corners = [
            (v, cw.side, cw.W, cw.Wprime, sorted(cw.sigma.items()))
            for v, cw in ann.corner.items()
        ]
        h.update(json.dumps([
            [ann.rank[v] for v in range(n)],
            corners,
            [rpw.rpw[v] for v in range(n)],
            [rpw.heavy_child[v] for v in range(n)],
            heavy_path_depth(t),
        ]).encode())
        count += 1
    assert count == 2260
    assert h.hexdigest() == FROZEN_ANNOTATIONS


def test_validate_rank_witness_examples():
    assert (
        validate_rank_witness(
            [1], RankWitness(W=1, X=1, v=1, big=frozenset({1}), rank_bounds={1: 1})
        )
        == []
    )
    good = RankWitness(W=2, X=2, v=3, big=frozenset({3}), rank_bounds={3: 2})
    assert validate_rank_witness([1, 1, 2], good) == []
    bad = RankWitness(W=2, X=1, v=1, big=frozenset({1}), rank_bounds={1: 2})
    probs = validate_rank_witness([1, 1, 2], bad)
    assert any(p.startswith("R2r") for p in probs)
    bad2 = RankWitness(W=2, X=1, v=1, big=frozenset({1, 3}), rank_bounds={1: 1, 3: 2})
    probs2 = validate_rank_witness([1, 1, 2], bad2)
    assert probs2  # c_2 squeezed: rank 1 > W - X - r_2 = 0


def test_validate_rank_witness_malformed():
    w = RankWitness(W=2, X=3, v=1, big=frozenset({1}), rank_bounds={1: 1})
    assert any(p.startswith("malformed") for p in validate_rank_witness([1, 1], w))
    w2 = RankWitness(W=2, X=1, v=2, big=frozenset({1}), rank_bounds={1: 1})
    assert any("not big" in p for p in validate_rank_witness([1, 1], w2))
    w3 = RankWitness(W=2, X=1, v=1, big=frozenset({1}), rank_bounds={})
    assert any("rank_bounds" in p for p in validate_rank_witness([1, 1], w3))
    w4 = RankWitness(W=2, X=1, v=1, big=frozenset({1, 2}), rank_bounds={1: 2, 2: 2})
    assert any(p.startswith("R3") for p in validate_rank_witness([1, 1], w4))
    for child_ranks, w, want in [
        ([1], RankWitness(W=0, X=1, v=1, big=frozenset({1}), rank_bounds={1: 1}),
         "malformed: W=0 < 1"),
        ([1], RankWitness(W=1, X=1, v=2, big=frozenset({1}), rank_bounds={1: 1}),
         "malformed: v=2 not in [1, 1]"),
        ([1], RankWitness(W=1, X=1, v=1, big=frozenset({1, 2}), rank_bounds={1: 1, 2: 1}),
         "malformed: big-child index out of range"),
        ([2, 1], RankWitness(W=2, X=1, v=2, big=frozenset({2}), rank_bounds={2: 1}),
         "R2l: small c_1 has rank 2 > 0"),
        ([1], RankWitness(W=2, X=1, v=1, big=frozenset({1}), rank_bounds={1: 3}),
         "R3: rank-bound 3 of c_1 not in 1..2"),
        ([2], RankWitness(W=2, X=1, v=1, big=frozenset({1}), rank_bounds={1: 1}),
         "R3: c_1 has rank 2 > bound 1"),
    ]:
        assert want in validate_rank_witness(child_ranks, w)


def test_validate_corner_witness_examples():
    assert validate_corner_witness([1], CornerWitness("left", 2, 3, {})) == []
    assert validate_corner_witness([2, 1, 1], CornerWitness("left", 2, 2, {2: 1})) == []
    bad = validate_corner_witness([1, 1, 2], CornerWitness("left", 2, 2, {2: 3}))
    assert any(p.startswith("C2") for p in bad)


def test_validate_corner_witness_right_side():
    assert validate_corner_witness([1, 1, 2], CornerWitness("right", 2, 2, {2: 3})) == []
    # rank-2 child sitting right of sigma(2) violates the mirror C2
    bad = validate_corner_witness([2, 1, 2], CornerWitness("right", 2, 2, {2: 1}))
    assert any(p.startswith("C2") for p in bad)
    # multi-level: a trailing rank-1 child must itself be assigned, so the
    # witness stopping at W' = 2 is rejected while the full chain passes
    short = validate_corner_witness([3, 2, 1], CornerWitness("right", 3, 2, {3: 1, 2: 2}))
    assert any(p.startswith("C2") for p in short)
    full = CornerWitness("right", 3, 1, {3: 1, 2: 2, 1: 3})
    assert validate_corner_witness([3, 2, 1], full) == []
    assert corner_scan([3, 2, 1], 3, "right") == full


def test_validate_corner_witness_malformed():
    assert validate_corner_witness([1, 1], CornerWitness("up", 2, 2, {2: 1}))
    assert validate_corner_witness([1, 1], CornerWitness("left", 2, 4, {}))
    assert validate_corner_witness([2, 2], CornerWitness("left", 2, 2, {2: 5}))
    assert validate_corner_witness([2, 1], CornerWitness("left", 2, 1, {2: 1}))  # keys
    assert validate_corner_witness(
        [1, 2, 2], CornerWitness("left", 2, 1, {1: 3, 2: 2})
    )  # not monotone
    assert validate_corner_witness([1], CornerWitness("left", 0, 1, {})) == ["malformed: W=0 < 1"]
    assert validate_corner_witness([1, 1], CornerWitness("left", 2, 2, {2: 1})) == [
        "C1: child c_1 has rank 1, needs 2"]


def test_push_to_corner_already_extremal():
    w = RankWitness(W=2, X=2, v=3, big=frozenset({3}), rank_bounds={3: 2})
    assert push_to_corner([1, 1, 2], w) is w
    w2 = RankWitness(W=2, X=1, v=1, big=frozenset({1}), rank_bounds={1: 1})
    assert push_to_corner([1, 1], w2) is w2


def test_push_to_corner_no_top_child():
    # ranks 1,2,1 with W=3: no rank-3 child; lands at the left corner
    w = RankWitness(W=3, X=2, v=2, big=frozenset({2}), rank_bounds={2: 2})
    assert validate_rank_witness([1, 2, 1], w) == []
    out = push_to_corner([1, 2, 1], w)
    assert (out.X, out.v) == (1, 1)
    assert validate_rank_witness([1, 2, 1], out) == []


def test_push_to_corner_blocker_right():
    # c_m = c_2 rank 3, rank-2 child to its right: left corner
    w = RankWitness(W=3, X=2, v=2, big=frozenset({2, 3}), rank_bounds={2: 3, 3: 2})
    assert validate_rank_witness([1, 3, 2, 1], w) == []
    out = push_to_corner([1, 3, 2, 1], w)
    assert (out.X, out.v) == (1, 1)
    assert out.big == frozenset({1, 2})
    assert validate_rank_witness([1, 3, 2, 1], out) == []


def test_push_to_corner_blocker_left():
    # c_m = c_3 rank 3, rank-2 child to its left: right corner
    w = RankWitness(W=3, X=3, v=4, big=frozenset({3, 4}), rank_bounds={3: 3, 4: 1})
    assert validate_rank_witness([2, 1, 3, 1], w) == []
    out = push_to_corner([2, 1, 3, 1], w)
    assert (out.X, out.v) == (3, 4)
    assert validate_rank_witness([2, 1, 3, 1], out) == []


def test_push_to_corner_rejects_bad_input():
    bad = RankWitness(W=2, X=1, v=1, big=frozenset({1}), rank_bounds={1: 2})
    with pytest.raises(ValueError):
        push_to_corner([1, 1, 2], bad)
    small = RankWitness(W=1, X=1, v=1, big=frozenset({1}), rank_bounds={1: 1})
    with pytest.raises(ValueError):
        push_to_corner([1], small)


def test_rank_witness_to_json():
    rw = RankWitness(W=3, X=3, v=4, big=frozenset({4, 3}), rank_bounds={4: 1, 3: 3})
    assert rank_witness_to_json(rw) == {
        "W": 3, "X": 3, "v": 4, "big": [3, 4], "pi": {"3": 3, "4": 1},
    }
    assert list(rank_witness_to_json(rw)["pi"]) == ["3", "4"]


def test_obs_one_top_child():
    # any node of rank W >= 2 has children of rank <= W, at most one = W
    t = gen_random_tree(300, seed=11)
    ann = rank(t)
    for v in range(t.n):
        if t.is_leaf(v):
            continue
        W = ann.rank[v]
        kid_ranks = [ann.rank[c] for c in t.children(v)]
        assert max(kid_ranks) <= W
        if W >= 2:
            assert sum(1 for r in kid_ranks if r == W) <= 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**64 - 1))
def test_rank_bounds_random(n, seed):
    t = gen_random_tree(n, seed)
    ann = rank(t)
    r = ann.root_rank()
    assert r <= math.floor(math.log2(t.n)) + 1
    assert rooted_pathwidth(t).root_value() <= r


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 120), st.integers(0, 2**64 - 1))
def test_stored_witnesses_validate(n, seed):
    t = gen_random_tree(n, seed)
    ann = rank(t)
    for v in range(t.n):
        if t.is_leaf(v):
            continue
        ranks = [ann.rank[c] for c in t.children(v)]
        cw = ann.corner[v]
        assert cw.W == ann.rank[v]
        assert validate_corner_witness(ranks, cw) == []


def _has_left_corner(ranks):
    # Read right to left from the last child of maximum rank W: a child of
    # rank w - 1 takes the next chain value w - 1, a lower one waits in a
    # gap, and a child of rank >= w leaves no slot.
    w = max(ranks)
    last = max(i for i, r in enumerate(ranks) if r == w)
    for r in reversed(ranks[:last]):
        if r >= w:
            return False
        if r == w - 1:
            w -= 1
    return True


def reference_annotations(t):
    """rank, rpw and heavy child per node, and hpd, straight from the recursions."""
    n = t.n
    rk, rpw, heavy = [1] * n, [1] * n, [None] * n
    size, hpd = [1] * n, [1] * n
    for v in range(n - 1, -1, -1):
        kids = t.children(v)
        if not kids:
            continue
        ranks = [rk[c] for c in kids]
        corner = _has_left_corner(ranks) or _has_left_corner(ranks[::-1])
        rk[v] = max(ranks) + (0 if corner else 1)
        rs = [rpw[c] for c in kids]
        top = max(rs)
        rpw[v] = top if rs.count(top) == 1 else top + 1
        heavy[v] = kids[rs.index(top)]
        size[v] = 1 + sum(size[c] for c in kids)
        big = max(kids, key=lambda c: size[c])  # leftmost on ties
        hpd[v] = max(hpd[c] + (c != big) for c in kids)
    return rk, rpw, heavy, hpd[0]


# (tree, root rpw, root rank, hpd) as the paper's families give them; None
# where no closed form is known.  The hpd family's root has children T_{i-1}
# (rank 2) and a path (rank 1), so it keeps rank 2 at every level.
LARGE_TREES = {
    "path100000": (lambda: gen_path(100_000), 1, 1, 1),
    "hpd16": (lambda: gen_hpd_family(16), 2, 2, 16),
    "quintary7": (lambda: gen_quintary_family(7), 7, 13, None),
    "random100000": (lambda: gen_random_tree(100_000, seed=2024), None, None, None),
}


@pytest.mark.parametrize("name", sorted(LARGE_TREES))
def test_annotations_at_1e5(name):
    make, rpw0, rank0, hpd0 = LARGE_TREES[name]
    t = make()
    ann = rank(t)
    rann = rooted_pathwidth(t)
    hpd = heavy_path_depth(t)
    ref_rank, ref_rpw, ref_heavy, ref_hpd = reference_annotations(t)
    assert ann.rank == ref_rank
    assert rann.rpw == ref_rpw
    assert rann.heavy_child == ref_heavy
    assert hpd == ref_hpd
    for v in range(t.n):
        kids = t.children(v)
        if not kids:
            assert v not in ann.corner
            continue
        cw = ann.corner[v]
        assert cw.W == ref_rank[v]
        assert validate_corner_witness([ref_rank[c] for c in kids], cw) == []
    for got, want in ((rann.root_value(), rpw0), (ann.root_rank(), rank0), (hpd, hpd0)):
        if want is not None:
            assert got == want


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=9),
    st.integers(1, 6),
)
def test_left_success_yields_valid_witness(ranks, W):
    res = corner_scan(ranks, W, "left")
    if res is not None:
        assert validate_corner_witness(ranks, res) == []
    res_r = corner_scan(ranks, W, "right")
    if res_r is not None:
        assert validate_corner_witness(ranks, res_r) == []


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=9),
    st.integers(1, 6),
)
def test_right_scan_mirrors_left_scan(ranks, W):
    # a right witness is a left witness on the reversed child order, with
    # every child index i read as d + 1 - i
    d = len(ranks)
    right = corner_scan(ranks, W, "right")
    left = corner_scan(ranks[::-1], W, "left")
    assert (right is None) == (left is None)
    if left is not None:
        assert right == CornerWitness(
            "right", left.W, left.Wprime, {w: d + 1 - i for w, i in left.sigma.items()}
        )
