"""Exponential ground-truth computations for small trees.

Everything here recomputes results from first principles so the fast
implementations elsewhere have something independent to disagree with:

* ``rank_bruteforce`` -- least W admitting a width witness, found by
  enumerating every big/small split, anchor position, and column.
* ``rpw_path_oracle`` -- rpw from its root-to-leaf-path
  characterization, tried over every path.
* ``pathwidth_oracle`` -- unrooted pathwidth by the remove-a-path
  recursion, tried over every path.
* ``validate_corner_witness`` -- the chain and gap conditions (C1, C2)
  of one corner witness, checked against the child ranks.
* ``min_nodes_for_rank`` -- exhaustive search for the smallest tree of a
  given rank.
* ``equivalence_suite`` -- checks that five different phrasings of
  "a width-W witness exists" agree on every small tree.

Memos are keyed on the least that fixes the answer: a rank on the
child-rank tuple, pw on a piece's rooted shape.  The last two walk a
table per size of root child-rank tuples, counted and named, not trees.

The brute-force paths never call the linear-time engines in
:mod:`uptree.ranking` or :mod:`uptree.widths`; the only run-time import of
the rank engine lives inside ``equivalence_suite``, where the scans are
the thing being tested.  Memo tables live for one call of a public
function, so a long-lived process keeps none of them.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .tree import InputError, Tree, parse_tree

if TYPE_CHECKING:
    from .ranking import CornerWitness

__all__ = [
    "NWRecord",
    "enumerate_trees",
    "rank_bruteforce",
    "rpw_path_oracle",
    "pathwidth_oracle",
    "rank_witness_exists_brute",
    "validate_corner_witness",
    "corner_witness_exists_brute",
    "min_nodes_for_rank",
    "equivalence_suite",
]

# Catalan(14) is 2.6 million trees; the size searches stop where enumeration does.
_ENUM_CAP = 15


def _dyck_words(pairs: int) -> Iterator[str]:
    """All balanced paren strings with `pairs` pairs, lexicographic ('(' < ')')."""
    buf: list = []

    def go(opened: int, closed: int):
        if len(buf) == 2 * pairs:
            yield "".join(buf)
            return
        if opened < pairs:
            buf.append("(")
            yield from go(opened + 1, closed)
            buf.pop()
        if closed < opened:
            buf.append(")")
            yield from go(opened, closed + 1)
            buf.pop()

    return go(0, 0)


def enumerate_trees(n: int, max_n: int = _ENUM_CAP) -> Iterator[Tree]:
    """Yield every ordered rooted tree with exactly n nodes.

    Deterministic order: lexicographic in the paren serialization.  There
    are Catalan(n-1) of them, hence the cap.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if n > max_n:
        raise InputError(f"n={n} exceeds enumeration cap {max_n}")
    for word in _dyck_words(n - 1):
        yield parse_tree("(" + word + ")")


def _pi_feasible(big_ranks: Sequence[int], W: int) -> bool:
    # Injective pi: big -> {1..W} with pi >= rank.  Intervals are nested
    # ([r, W]), so greedy top-down assignment is exact: the k-th largest
    # demand must fit in slot W-k.
    for k, r in enumerate(sorted(big_ranks, reverse=True)):
        if r > W - k:
            return False
    return True


def rank_witness_exists_brute(
    child_ranks: Sequence[int], W: int, restrict: Optional[str] = None
) -> bool:
    """Does a width-W witness exist over these child ranks?

    Checks exactly the conditions of ``ranking.validate_rank_witness``, by
    trying every big/small classification (bitmask), every big anchor
    index v, and every column X.  ``restrict`` narrows the search:
    ``"corner_X"`` keeps only X in {1, W}, ``"corner_v"`` only v in
    {1, d}.  Exponential in the number of children -- oracle use only.
    """
    d = len(child_ranks)
    if d < 1 or W < 1:
        raise ValueError("need at least one child and W >= 1")
    if restrict not in (None, "corner_X", "corner_v"):
        raise ValueError(f"unknown restriction {restrict!r}")
    xs = (1, W) if restrict == "corner_X" else tuple(range(1, W + 1))
    for mask in range(1, 1 << d):
        big = [i + 1 for i in range(d) if mask >> i & 1]
        if not _pi_feasible([child_ranks[i - 1] for i in big], W):
            continue
        bigset = frozenset(big)
        # nleft[i] / nright[i]: big children strictly left / right of c_i
        nleft = [0] * (d + 1)
        run = 0
        for i in range(1, d + 1):
            nleft[i] = run
            if i in bigset:
                run += 1
        nright = [run - nleft[i] - (1 if i in bigset else 0) for i in range(d + 1)]
        for v in big:
            if restrict == "corner_v" and v not in (1, d):
                continue
            for X in xs:
                if nleft[v] > X - 1 or nright[v] > W - X:
                    continue
                ok = True
                for i in range(1, d + 1):
                    if i in bigset:
                        continue
                    r = child_ranks[i - 1]
                    if i < v:
                        ok = r <= X - 1 - nleft[i]
                    else:
                        ok = r <= W - X - nright[i]
                    if not ok:
                        break
                if ok:
                    return True
    return False


def validate_corner_witness(child_ranks: Sequence[int], cw: CornerWitness) -> list:
    """Check monotonicity plus C1/C2 (with sentinels); list of violations."""
    out = []
    d = len(child_ranks)
    if cw.side not in ("left", "right"):
        out.append(f"malformed: side {cw.side!r}")
        return out
    if cw.W < 1:
        out.append(f"malformed: W={cw.W} < 1")
        return out
    if not (1 <= cw.Wprime <= cw.W + 1):
        out.append(f"malformed: Wprime={cw.Wprime} not in [1, {cw.W + 1}]")
        return out
    ws = list(range(cw.Wprime, cw.W + 1))
    if set(cw.sigma) != set(ws):
        out.append(f"malformed: sigma keys {sorted(cw.sigma)} != {ws}")
        return out
    if any(not (1 <= cw.sigma[w] <= d) for w in ws):
        out.append("malformed: sigma value out of range")
        return out
    if cw.side == "left":
        # sigma(W') < ... < sigma(W); sentinels 0 on the left, d+1 on the right
        seq = [0] + [cw.sigma[w] for w in ws] + [d + 1]
    else:
        # sigma(W) < ... < sigma(W'), i.e. sigma grows as w falls
        seq = [0] + [cw.sigma[w] for w in reversed(ws)] + [d + 1]
    for a, b in zip(seq, seq[1:]):
        if a >= b:
            out.append(f"malformed: sigma not strictly monotone ({a} !< {b})")
            return out
    for w in ws:
        got = child_ranks[cw.sigma[w] - 1]
        if got != w:
            out.append(f"C1: child c_{cw.sigma[w]} has rank {got}, needs {w}")
    # C2 per gap k: children strictly between seq[k] and seq[k+1] need
    # rank <= gap_bound[k].  Walking seq from the vertical-child side
    # outward, the gap just inside sigma(w) allows w-2, and the outermost
    # gap (beyond sigma(W)) allows W-1.
    if cw.side == "left":
        gap_bound = [w - 2 for w in ws] + [cw.W - 1]
    else:
        gap_bound = [cw.W - 1] + [w - 2 for w in reversed(ws)]
    for k in range(len(seq) - 1):
        for i in range(seq[k] + 1, seq[k + 1]):
            got = child_ranks[i - 1]
            if got > gap_bound[k]:
                out.append(
                    f"C2: child c_{i} has rank {got} > {gap_bound[k]} in gap {k}"
                )
    return out


def corner_witness_exists_brute(child_ranks: Sequence[int], W: int, side: str) -> bool:
    """Does a corner witness exist?  Direct enumeration of every chain.

    Tries every start value W' and every strictly increasing index tuple,
    checking the same chain/gap conditions as ``validate_corner_witness``.
    Left chains carry ascending values W'..W, right chains the same values
    descending.
    """
    d = len(child_ranks)
    if d < 1 or W < 1:
        raise ValueError("need at least one child and W >= 1")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    for wprime in range(1, W + 2):
        vals = list(range(wprime, W + 1))
        if side == "right":
            vals.reverse()
        for idx in itertools.combinations(range(1, d + 1), len(vals)):
            if all(child_ranks[i - 1] == w for i, w in zip(idx, vals)):
                if _gaps_ok(child_ranks, W, wprime, idx, side):
                    return True
    return False


def _gaps_ok(child_ranks, W, wprime, idx, side) -> bool:
    # Children strictly between consecutive chain indices (sentinels 0 and
    # d+1) must sit below the bound of their gap.
    d = len(child_ranks)
    seq = (0,) + tuple(idx) + (d + 1,)
    if side == "left":
        bounds = [w - 2 for w in range(wprime, W + 1)] + [W - 1]
    else:
        bounds = [W - 1] + [w - 2 for w in range(W, wprime - 1, -1)]
    for g in range(len(seq) - 1):
        for i in range(seq[g] + 1, seq[g + 1]):
            if child_ranks[i - 1] > bounds[g]:
                return False
    return True


def _rank_of_ranks(ranks: tuple, memo: dict) -> int:
    # memo maps child-rank tuples to the rank they give (a leaf's is ());
    # each public entry point brings its own, so nothing outlives the call
    got = memo.get(ranks)
    if got is None:
        got = 1
        while ranks and not rank_witness_exists_brute(ranks, got):
            got += 1
            # one past the max child rank always admits a witness (big = {c_1});
            # running past it means the enumeration itself is broken
            assert got <= max(ranks) + 1, "brute witness search ran away"
        memo[ranks] = got
    return got


def rank_bruteforce(t: Tree, max_n: int = 11) -> int:
    """Least W with a width-W witness at every node, 1 for a single node.

    Each node is ranked from its children's ranks alone, memoized on that
    tuple.  The default cap guards against the per-node 2^degree blowup;
    raise it only for trees known to have small degrees.
    """
    if t.n > max_n:
        raise InputError(f"tree has {t.n} nodes, oracle cap is {max_n}")
    memo: dict = {}
    rk = [0] * t.n
    for v in t.bottom_up():
        rk[v] = _rank_of_ranks(tuple(rk[c] for c in t.children(v)), memo)
    return rk[t.root]


def _size_tables(n_max: int) -> Iterator[tuple]:
    """Yield (n, table, by_rank) for n = 1..n_max: ``table`` maps each root
    child-rank tuple of the n-node trees to (how many trees have it, the
    least paren word of one); ``by_rank`` does the same for their ranks."""
    memo: dict = {}
    tables: list = []
    by_ranks: list = []
    for n in range(1, n_max + 1):
        # the root's first child is a tree of t nodes and rank r; the rest
        # are the children of the root of a tree of n - t nodes
        table = {} if n > 1 else {(): (1, "()")}
        for t in range(1, n):
            for r, (c1, w1) in by_ranks[t - 1].items():
                for rest, (c2, w2) in tables[n - t - 1].items():
                    key, word = (r, *rest), f"({w1}{w2[1:-1]})"
                    c, w = table.get(key, (0, word))
                    table[key] = (c + c1 * c2, min(w, word))
        by_rank: dict = {}
        for k, (c, w) in table.items():
            r = _rank_of_ranks(k, memo)
            c0, w0 = by_rank.get(r, (0, w))
            by_rank[r] = (c0 + c, min(w0, w))
        tables.append(table)
        by_ranks.append(by_rank)
        yield n, table, by_rank


def rpw_path_oracle(t: Tree, max_n: int = 16) -> int:
    """Evaluate the root-to-leaf-path characterization of rpw literally.

    A rooted path has value 1; otherwise take the minimum over all
    root-to-leaf paths P of the maximum over subtrees T' hanging off P
    of 1 + rpw_path_oracle(T').  Exponential in principle; memoized on
    child-order-insensitive shapes (the value never depends on child
    order) within the call, capped at max_n nodes.
    """
    if t.n > max_n:
        raise InputError(f"rpw_path_oracle capped at n <= {max_n}, got {t.n}")
    shapes: dict = {}
    for v in t.bottom_up():
        shapes[v] = tuple(sorted(shapes[c] for c in t.children(v)))
    return _rpw_of_shape(shapes[0], {})


def _rpw_of_shape(shape, memo: dict) -> int:
    got = memo.get(shape)
    if got is not None:
        return got
    if not shape:
        val = 1
    else:
        vals = [_rpw_of_shape(s, memo) for s in shape]
        best = None
        for k in range(len(shape)):
            # path descends into child k; its siblings hang off the path
            v = _rpw_of_shape(shape[k], memo)
            for j, w in enumerate(vals):
                if j != k and w + 1 > v:
                    v = w + 1
            if best is None or v < best:
                best = v
        val = best
    memo[shape] = val
    return val


def pathwidth_oracle(t: Tree, max_n: int = 14) -> int:
    """Unrooted pathwidth by the remove-a-path recursion, exhaustively.

    pw = 0 for a single node; otherwise the minimum over all paths P in
    the tree (any two endpoints, possibly equal) of the maximum over
    connected components T' of T - P of 1 + pw(T').  When removing P
    leaves nothing, the maximum is 0, so any tree that *is* a path gets
    pw 1.  Paths and the pieces left around them come from the preorder
    parent array, with no search.  Memoized within the call on each
    piece's shape rooted at its top node; capped at max_n nodes.
    """
    if t.n > max_n:
        raise InputError(f"pathwidth_oracle capped at n <= {max_n}, got {t.n}")
    return _pw_of(frozenset(range(t.n)), t._parent, {})


def _pw_of(comp: frozenset, par, memo: dict) -> int:
    if len(comp) == 1:
        return 0
    # pw depends on the unrooted tree alone, so the piece's shape rooted at
    # its top node, its smallest id, keys the memo; a child's id exceeds its
    # parent's, so the descending sweep shapes each child before its parent
    nodes = sorted(comp)
    kids: dict = {v: [] for v in nodes}
    for v in reversed(nodes):
        key = tuple(sorted(kids.pop(v)))
        if par[v] in kids:
            kids[par[v]].append(key)
    got = memo.get(key)
    if got is not None:
        return got
    best = None
    for ia, a in enumerate(nodes):
        for b in nodes[ia:]:
            path = _tree_path(a, b, par)
            # the path itself occupies one track, so the floor is 1
            worst = 1
            for sub in _components(comp.difference(path), par):
                worst = max(worst, 1 + _pw_of(sub, par, memo))
                if best is not None and worst >= best:
                    break
            if best is None or worst < best:
                best = worst
    memo[key] = best
    return best


def _tree_path(a, b, par):
    # unique a-b path: a preorder id is never an ancestor of a smaller
    # one, so the larger end climbs until the two meet
    path = {a, b}
    while a != b:
        if a < b:
            a, b = b, a
        a = par[a]
        path.add(a)
    return path


def _components(rest: frozenset, par):
    # a parent's id is smaller than its child's, so in sorted order each
    # node joins its parent's piece, or starts one when the parent is gone
    top: dict = {}
    pieces: dict = {}
    for v in sorted(rest):
        top[v] = r = top.get(par[v], v)
        pieces.setdefault(r, []).append(v)
    return map(frozenset, pieces.values())


class NWRecord(NamedTuple):
    """Outcome of a minimal-nodes-for-rank search."""

    W: int
    min_nodes_found: Optional[int]
    search_bound: int


def min_nodes_for_rank(W: int, n_max: int = 12) -> NWRecord:
    """Smallest node count of an ordered tree with rank exactly W.

    Searches the ranks each size n <= n_max reaches; ``min_nodes_found``
    is None when no tree of rank W exists within the bound.  Every found
    value must be >= 2^(W-1); empirically the minima match 2^W - 1, which
    we report but do not assert.
    """
    if W < 1 or W > 4:
        raise InputError("W must be in 1..4 (search space explodes beyond)")
    if n_max < 1 or n_max > _ENUM_CAP:
        raise InputError(f"n_max must be in 1..{_ENUM_CAP}")
    found = next((n for n, _, by_rank in _size_tables(n_max) if W in by_rank), None)
    assert found is None or found >= 2 ** (W - 1), f"rank-{W} tree with {found} nodes"
    return NWRecord(W=W, min_nodes_found=found, search_bound=n_max)


def equivalence_suite(*, max_n: int = 8, max_W: int = 4) -> dict:
    """Cross-check five phrasings of witness existence on every small tree.

    For every ordered tree with 2 <= n <= max_n and every W in 1..max_W,
    both capped at 15, evaluates once per root child-rank tuple:

    * ``witness``        -- some width-W witness exists (brute),
    * ``corner_X``       -- one exists with X in {1, W},
    * ``corner_v``       -- one exists with v in {1, d},
    * ``scan``           -- ``corner_scan`` succeeds on the left or right,
    * ``corner_witness`` -- a left or right corner witness exists (brute).

    All five must agree everywhere.  The counts are of trees and (tree, W)
    pairs; the report lists up to 50 split (child-rank tuple, W), each
    named by its first tree in ``enumerate_trees`` order.  The sweep is
    exhaustive and deterministic.
    """
    if max_n < 1:
        raise InputError("max_n must be >= 1")
    if max_n > _ENUM_CAP:
        raise InputError(f"max_n={max_n} exceeds enumeration cap {_ENUM_CAP}")
    # no tree within the cap has rank above 4; a larger W only costs time
    if not 1 <= max_W <= _ENUM_CAP:
        raise InputError(f"max_W must be in 1..{_ENUM_CAP}")
    # the one deliberate contact with the engine: the scans are the subject
    from .ranking import corner_scan

    trees = 0
    n_disagree = 0
    disagreements: list = []
    # child-rank tuple -> the W at which its votes split, for the tuples met so far
    split_at: dict = {}
    for n, table, _ in _size_tables(max_n):
        if n == 1:
            continue
        for ranks, (count, word) in sorted(table.items(), key=lambda item: item[1][1]):
            trees += count
            if ranks not in split_at:
                split_at[ranks] = []
                for W in range(1, max_W + 1):
                    votes = {
                        "witness": rank_witness_exists_brute(ranks, W),
                        "corner_X": rank_witness_exists_brute(ranks, W, restrict="corner_X"),
                        "corner_v": rank_witness_exists_brute(ranks, W, restrict="corner_v"),
                        "scan": corner_scan(ranks, W, "left") is not None
                        or corner_scan(ranks, W, "right") is not None,
                        "corner_witness": corner_witness_exists_brute(ranks, W, "left")
                        or corner_witness_exists_brute(ranks, W, "right"),
                    }
                    if len(set(votes.values())) > 1:
                        split_at[ranks].append(W)
                        if len(disagreements) < 50:
                            disagreements.append({"n": n, "tree": word, "W": W, **votes})
            n_disagree += count * len(split_at[ranks])
    return {
        "max_n": max_n,
        "max_W": max_W,
        "trees_checked": trees,
        "pairs_checked": trees * max_W,
        "disagreement_count": n_disagree,
        "disagreements": disagreements,
        "agree": n_disagree == 0,
    }
