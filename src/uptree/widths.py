"""Width parameters of rooted trees, each in linear time:

* rooted pathwidth ``rpw`` -- bottom-up recursion where one child (the
  rpw-heaviest) escapes the +1 increment; equals the optimum width of
  unordered upward drawings.
* heavy-path depth ``hpd`` -- same recursion but the escaping child is
  the size-heaviest one.

The exhaustive oracles for rpw and the unrooted pathwidth ``pw`` are in
:mod:`uptree.oracle`.
"""

from __future__ import annotations

from typing import NamedTuple

from .tree import Tree

__all__ = [
    "RpwAnnotation",
    "ParamReport",
    "rooted_pathwidth",
    "heavy_path_depth",
    "param_report",
]


class RpwAnnotation(NamedTuple):
    """Per-node rooted pathwidth and chosen rpw-heaviest child.

    Both fields are lists indexed by preorder id; ``heavy_child`` is
    ``None`` at leaves.
    """

    rpw: list
    heavy_child: list

    def root_value(self) -> int:
        return self.rpw[0]


class ParamReport(NamedTuple):
    n: int
    rpw: int
    hpd: int


def rooted_pathwidth(t: Tree) -> RpwAnnotation:
    """Compute rpw for every subtree, bottom-up, in linear time.

    A leaf has rpw 1.  An internal node takes M = max over children; if a
    single child attains M the node inherits M (that child is the heavy
    one), otherwise M + 1.  Ties for heavy child break leftmost so that
    repeated runs draw identically.  A node with one child copies its
    child's value.
    """
    children = t._children
    rpw = [1] * t.n
    heavy: list = [None] * t.n
    for v in t.bottom_up():
        kids = children[v]
        if not kids:
            continue
        if len(kids) == 1:
            c = kids[0]
            rpw[v] = rpw[c]
            heavy[v] = c
            continue
        best = 0
        count = 0
        pick = kids[0]
        for c in kids:
            r = rpw[c]
            if r > best:
                best, count, pick = r, 1, c
            elif r == best:
                count += 1
        rpw[v] = best if count == 1 else best + 1
        heavy[v] = pick
    return RpwAnnotation(rpw, heavy)


def heavy_path_depth(t: Tree) -> int:
    """Recursion depth of the heaviest-path decomposition.

    hpd(leaf) = 1; otherwise max over children c of hpd(c) plus 1 unless
    c is the size-heaviest child (leftmost on ties).  A node with one
    child copies its child's value.
    """
    children = t._children
    size = [1] * t.n
    hpd = [1] * t.n
    for v in t.bottom_up():
        kids = children[v]
        if not kids:
            continue
        if len(kids) == 1:
            c = kids[0]
            size[v] = size[c] + 1
            hpd[v] = hpd[c]
            continue
        heaviest = kids[0]
        most = size[heaviest]
        total = 1
        for c in kids:
            s = size[c]
            total += s
            if s > most:
                heaviest, most = c, s
        size[v] = total
        best = hpd[heaviest]
        for c in kids:
            h = hpd[c] + 1
            if h > best and c != heaviest:
                best = h
        hpd[v] = best
    return hpd[0]


def param_report(t: Tree) -> ParamReport:
    """Bundle n, rpw and hpd."""
    return ParamReport(
        n=t.n,
        rpw=rooted_pathwidth(t).root_value(),
        hpd=heavy_path_depth(t),
    )
