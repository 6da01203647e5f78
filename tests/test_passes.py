"""The bottom-up passes against plain recursions, on trees that mix long
one-child chains with branching.

``rooted_pathwidth``, ``heavy_path_depth`` and ``rank`` each take a node
with one child in one step; these trees put such nodes everywhere: at
the root, between branching nodes, and above leaves.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from uptree.oracle import validate_corner_witness
from uptree.ranking import rank
from uptree.tree import gen_random_tree, parse_tree
from uptree.widths import heavy_path_depth, rooted_pathwidth


@st.composite
def chained_tree(draw):
    """A random tree in which each node hangs below a chain of 0-12 extra
    one-child nodes."""
    base = gen_random_tree(draw(st.integers(1, 20)), seed=draw(st.integers(0, 2**32)))
    chain = draw(st.lists(st.sampled_from([0, 0, 1, 3, 12]), min_size=base.n,
                          max_size=base.n))
    out = []
    stack = [(0, False)]
    while stack:
        v, close = stack.pop()
        out.append((")" if close else "(") * (chain[v] + 1))
        if not close:
            stack.append((v, True))
            stack.extend((c, False) for c in reversed(base.children(v)))
    return parse_tree("".join(out))


def ref_rpw(t, v):
    values = []
    for c in t.children(v):
        values.append(ref_rpw(t, c))
    if not values:
        return 1
    best = max(values)
    return best if values.count(best) == 1 else best + 1


def ref_size_hpd(t, v):
    """(size, hpd) of v's subtree."""
    sizes, hpds = [], []
    for c in t.children(v):
        s, h = ref_size_hpd(t, c)
        sizes.append(s)
        hpds.append(h)
    if not sizes:
        return 1, 1
    heavy = sizes.index(max(sizes))  # the leftmost of the largest
    best = hpds[heavy]
    for i, h in enumerate(hpds):
        if i != heavy:
            best = max(best, h + 1)
    return 1 + sum(sizes), best


def left_corner(ranks):
    """Right to left from the last child of the top rank W, every child of
    rank w - 1 or more must have rank exactly w - 1, and then lowers w."""
    w = max(ranks)
    last = len(ranks) - 1 - ranks[::-1].index(w)
    for r in reversed(ranks[:last]):
        if r >= w:
            return False
        if r == w - 1:
            w -= 1
    return True


def ref_rank(t, v):
    ranks = []
    for c in t.children(v):
        ranks.append(ref_rank(t, c))
    if not ranks:
        return 1
    W = max(ranks)
    return W if left_corner(ranks) or left_corner(ranks[::-1]) else W + 1


@settings(max_examples=150, deadline=None)
@given(chained_tree())
def test_passes_match_plain_recursions(t):
    ann = rooted_pathwidth(t)
    assert ann.rpw == [ref_rpw(t, v) for v in range(t.n)]
    for v in range(t.n):
        kids = t.children(v)
        want = None
        for c in kids:  # the leftmost child of the largest rpw
            if want is None or ann.rpw[c] > ann.rpw[want]:
                want = c
        assert ann.heavy_child[v] == want
    assert heavy_path_depth(t) == ref_size_hpd(t, 0)[1]
    ranked = rank(t)
    assert ranked.rank == [ref_rank(t, v) for v in range(t.n)]
    for v in range(t.n):
        if t.children(v):
            cw = ranked.corner[v]
            assert cw.W == ranked.rank[v]
            assert validate_corner_witness([ranked.rank[c] for c in t.children(v)], cw) == []


@settings(max_examples=100, deadline=None)
@given(chained_tree())
def test_rank_shares_one_witness_per_child_rank_tuple(t):
    ann = rank(t)
    by_ranks: dict = {}
    for v in range(t.n):
        if t.children(v):
            ranks = tuple(ann.rank[c] for c in t.children(v))
            by_ranks.setdefault(ranks, set()).add(id(ann.corner[v]))
    assert all(len(ids) == 1 for ids in by_ranks.values())
    assert len({id(cw) for cw in ann.corner.values()}) == len(by_ranks)
    assert list(ann.corner) == [v for v in reversed(range(t.n)) if t.children(v)]
