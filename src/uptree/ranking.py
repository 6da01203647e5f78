"""The rank of an ordered rooted tree, with witnesses.

The rank equals the optimum width of an order-preserving strictly-upward
poly-line drawing.  It is computed bottom-up in linear time: a node whose
children have maximum rank W either admits a corner-W-witness and gets
rank W, or gets rank W + 1 with the vacuous witness.  ``corner_scan``
looks for the witness in one pass over the child ranks and returns it,
or None when there is none; a right witness is a left one on the
mirrored child order.

Two witness kinds appear throughout:

* ``RankWitness`` -- classification of children into big/small, root
  coordinate X, vertical-child index v, and injective rank-bounds on the
  big children (conditions R1l, R1r, R2l, R2r, R3).
* ``CornerWitness`` -- one-sided normal form: a threshold W' and a
  monotone index sequence sigma(W'), ..., sigma(W) picking children of
  exactly those ranks, everything between them being low-rank (C1, C2).

``validate_rank_witness`` checks a rank witness against the child ranks.
The corner-witness check ``validate_corner_witness`` and the exhaustive
searches that tests compare against live in :mod:`uptree.oracle`.

Child indices are 1-based everywhere, matching the c_1..c_d convention.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .tree import Tree

__all__ = [
    "CornerWitness",
    "RankWitness",
    "RankAnnotation",
    "corner_scan",
    "rank",
    "validate_rank_witness",
    "rank_witness_to_json",
]


class CornerWitness(NamedTuple):
    """One-sided witness: sigma maps w in {Wprime..W} to a child index.

    Wprime = W + 1 is the vacuous form (empty sigma, all children of
    rank <= W - 1).  W >= 1: rooted-path nodes carry honest
    corner-1-witnesses rather than being special-cased.
    """

    side: str  # "left" | "right"
    W: int
    Wprime: int
    sigma: dict


class RankWitness(NamedTuple):
    W: int
    X: int
    v: int
    big: frozenset
    rank_bounds: dict


class RankAnnotation(NamedTuple):
    """Per-node rank, and a corner witness for every internal node.

    ``rank`` is a list indexed by preorder id.  ``corner`` is a dict
    keyed by the ids of internal nodes only, in bottom-up order; leaves
    have no entry.  Nodes whose child-rank sequences are equal share one
    ``CornerWitness`` object, so callers must treat witnesses, and their
    ``sigma`` dicts, as read-only.
    """

    rank: list
    corner: dict

    def root_rank(self) -> int:
        return self.rank[0]


def corner_scan(child_ranks: Sequence[int], W: int, side: str) -> Optional[CornerWitness]:
    """A left or right (`side`) corner-W-witness, or None if there is none.

    The scan walks away from the witness's corner: c_d down to c_1 for a
    left witness, c_1 up to c_d for a right one.  A child of rank w - 1
    takes the next chain slot, lower ranks fill the gap before it, and
    anything higher leaves no slot.  With no rank-W child at all the
    loop ends with w = W + 1, the vacuous witness.
    """
    d = len(child_ranks)
    if d < 1:
        raise ValueError("need at least one child rank")
    if W < 1:
        raise ValueError("W must be >= 1")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    sigma: dict = {}
    w = W + 1
    for i in range(d, 0, -1) if side == "left" else range(1, d + 1):
        r = child_ranks[i - 1]
        if r <= w - 2:
            continue
        if r >= w:
            return None
        w -= 1
        sigma[w] = i
    return CornerWitness(side, W, w, sigma)


def rank(t: Tree) -> RankAnnotation:
    """Rank of every subtree plus one corner witness per internal node.

    Bottom-up over preorder ids; each node costs O(degree), so O(n)
    total.  When both one-sided tests succeed the left witness is kept,
    so repeated runs draw identically.  The witness, and with it the
    rank (its W), depends only on the tuple of child ranks, so each
    distinct tuple is scanned once and its witness shared.  A node with
    one child of rank r has rank r, and its tuple is keyed by r alone.
    """
    children = t._children
    rk = [1] * t.n
    corner: dict = {}
    by_ranks: dict = {}
    by_rank: dict = {}  # the one-child tuples (r,), keyed by r
    get = rk.__getitem__
    for v in t.bottom_up():
        kids = children[v]
        if not kids:
            continue
        if len(kids) == 1:
            r = rk[kids[0]]
            cw = by_rank.get(r)
            if cw is None:
                cw = by_rank[r] = corner_scan((r,), r, "left")
            rk[v] = r
            corner[v] = cw
            continue
        ranks = tuple(map(get, kids))
        cw = by_ranks.get(ranks)
        if cw is None:
            W = max(ranks)
            cw = corner_scan(ranks, W, "left")
            if cw is None:
                cw = corner_scan(ranks, W, "right")
            if cw is None:
                # rank W+1: with all ranks <= W the scan returns the vacuous witness
                cw = corner_scan(ranks, W + 1, "left")
            by_ranks[ranks] = cw
        rk[v] = cw.W
        corner[v] = cw
    return RankAnnotation(rank=rk, corner=corner)


def validate_rank_witness(child_ranks: Sequence[int], w: RankWitness) -> list:
    """Check R1l/R1r/R2l/R2r/R3; return a list of violation strings.

    An empty list means the witness is valid for these child ranks.
    Malformed witnesses (coordinate out of range, vertical child not
    big, bad rank-bounds) are reported as violations, not exceptions.
    """
    out = []
    d = len(child_ranks)
    if w.W < 1:
        out.append(f"malformed: W={w.W} < 1")
        return out
    if not (1 <= w.X <= w.W):
        out.append(f"malformed: X={w.X} not in [1, {w.W}]")
    if not (1 <= w.v <= d):
        out.append(f"malformed: v={w.v} not in [1, {d}]")
        return out
    if any(not (1 <= i <= d) for i in w.big):
        out.append("malformed: big-child index out of range")
        return out
    if w.v not in w.big:
        out.append(f"malformed: vertical child c_{w.v} is not big")
    if set(w.rank_bounds) != set(w.big):
        out.append("malformed: rank_bounds keys differ from the big set")
        return out

    big = w.big
    # R1l / R1r: counts of big children on either side of the vertical child
    left_of_v = sum(1 for i in big if i < w.v)
    right_of_v = sum(1 for i in big if i > w.v)
    if left_of_v > w.X - 1:
        out.append(f"R1l: {left_of_v} big children left of c_{w.v}, allowed {w.X - 1}")
    if right_of_v > w.W - w.X:
        out.append(f"R1r: {right_of_v} big children right of c_{w.v}, allowed {w.W - w.X}")
    # R2l / R2r: small children must fit between the big ones
    for i in range(1, d + 1):
        if i in big:
            continue
        r_i = child_ranks[i - 1]
        if i < w.v:
            ell = sum(1 for j in big if j < i)
            if r_i > w.X - 1 - ell:
                out.append(f"R2l: small c_{i} has rank {r_i} > {w.X - 1 - ell}")
        elif i > w.v:
            rr = sum(1 for j in big if j > i)
            if r_i > w.W - w.X - rr:
                out.append(f"R2r: small c_{i} has rank {r_i} > {w.W - w.X - rr}")
    # R3: given rank-bounds must be injective, in range, and dominate
    seen = set()
    for i in sorted(big):
        pi = w.rank_bounds[i]
        if not (isinstance(pi, int) and 1 <= pi <= w.W):
            out.append(f"R3: rank-bound {pi!r} of c_{i} not in 1..{w.W}")
            continue
        if pi in seen:
            out.append(f"R3: rank-bound {pi} used twice")
        seen.add(pi)
        if child_ranks[i - 1] > pi:
            out.append(f"R3: c_{i} has rank {child_ranks[i - 1]} > bound {pi}")
    return out


def rank_witness_to_json(w: RankWitness) -> dict:
    return {
        "W": w.W,
        "X": w.X,
        "v": w.v,
        "big": sorted(w.big),
        "pi": {str(i): b for i, b in sorted(w.rank_bounds.items())},
    }
