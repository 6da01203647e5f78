"""Rooted ordered trees: representation, text format, JSON, and generators.

Trees are immutable after construction.  Node ids are preorder indices
(root = 0), which makes ``reversed(range(n))`` a valid bottom-up order:
every child id is strictly larger than its parent's, so all dynamic
programming over subtrees is a plain loop with no recursion.  That is
load-bearing, not style: some generated families contain paths far deeper
than CPython's default recursion limit.

A tree is two flat tuples: the child rows (one tuple of child ids per
node, every leaf sharing the empty tuple) and the parent array.  One
rule decides which rows make a tree: they number one tree rooted at 0
in preorder, and every child id is a plain ``int``, never a bool, float,
str or int subclass.  ``Tree(...)`` checks it, in the interval pass of
``_preorder_parents``, for every row set not built by construction: a
library caller's, and those of JSON whose ids are already preorder ids
in record order, as ``tree_to_json`` writes it.  ``parse_tree`` builds
preorder rows by construction, slicing each node's children off one
flat list of pending ids when the node closes, with no list per node.
Any other JSON ``tree_from_json`` checks record by record and then
walks, closing nodes as ``parse_tree`` does, with no map from old ids
to new ones.  Both JSON paths give the same tree, and every input that
the first refuses takes the second, so the errors are the same too.
"""

from __future__ import annotations

import random
from array import array
from itertools import chain, islice, repeat
from operator import itemgetter, ne
from typing import Iterable, Optional, Sequence

__all__ = [
    "Tree",
    "InputError",
    "ParseError",
    "parse_tree",
    "serialize_tree",
    "tree_to_json",
    "tree_from_json",
    "gen_complete_binary",
    "gen_path",
    "gen_quintary_family",
    "gen_hpd_family",
    "gen_random_tree",
]


class InputError(ValueError):
    """Bad input where the library checks it: tree text or JSON, drawings,
    the properties asked of a check, and the sizes and ranges that the
    generators, the oracles and the ascii renderer accept.  The CLI exits
    2 on this error and on no other exception from the library."""


class ParseError(InputError):
    """Raised on malformed tree text or JSON; carries a character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class Tree:
    """Rooted ordered tree with preorder node ids.

    Holds ``_children``, a tuple of child-id tuples, ``_parent``, a tuple
    of parent ids (-1 for the root), and ``_labels``.  Builders that make
    preorder rows by construction go through the unchecked ``_raw``.

    Parameters
    ----------
    children : sequence of sequences of int
        ``children[v]`` lists v's children left to right.  The rows must
        number one tree rooted at 0 in preorder, every child id a plain
        ``int`` (the module docstring's rule); anything else raises
        ``ValueError``.
    labels : dict, optional
        Sparse map node-id -> label text, as in tree JSON: a ``str``, or
        ``None`` for no label.  Any other key or value raises
        ``ValueError``.  Ignored by all algorithms.
    """

    __slots__ = ("_children", "_parent", "_labels")

    def __init__(self, children: Sequence[Sequence[int]], labels=None):
        if not children:
            raise ValueError("tree must have at least one node")
        kids = tuple(map(tuple, children))
        parent = _preorder_parents(kids)
        if parent is None:
            raise ValueError("children rows do not number one tree rooted at 0 in preorder")
        labels = {v: lab for v, lab in dict(labels or ()).items() if lab is not None}
        if not all(type(v) is int and 0 <= v < len(kids) and isinstance(lab, str)
                   for v, lab in labels.items()):
            raise ValueError("labels must map node ids to strings or None")
        self._children = kids
        self._parent = tuple(parent)
        self._labels = labels

    @classmethod
    def _raw(cls, rows: tuple, parent: tuple, labels: dict) -> Tree:
        """The tree with child rows ``rows`` and parent array ``parent``,
        taken as is.  Nothing is checked: its two callers, ``parse_tree``
        and ``_renumbered``, build valid rows by construction."""
        t = cls.__new__(cls)
        t._children = rows
        t._parent = parent
        t._labels = labels
        return t

    @property
    def n(self) -> int:
        return len(self._children)

    @property
    def root(self) -> int:
        return 0

    def children(self, v: int) -> tuple:
        return self._children[v]

    def parent(self, v: int) -> Optional[int]:
        p = self._parent[v]
        return None if p < 0 else p

    def degree(self, v: int) -> int:
        return len(self._children[v])

    def is_leaf(self, v: int) -> bool:
        return not self._children[v]

    def label(self, v: int) -> Optional[str]:
        return self._labels.get(v)

    def preorder(self) -> range:
        return range(self.n)

    def bottom_up(self) -> Iterable[int]:
        """Node ids in an order where every child precedes its parent."""
        return reversed(range(self.n))

    def __eq__(self, other):
        # Structural equality; labels are presentation only.
        if not isinstance(other, Tree):
            return NotImplemented
        return self._children == other._children

    def __hash__(self):
        return hash(self._children)

    def __repr__(self):
        return f"Tree(n={self.n}, {serialize_tree(self)!r})"


def parse_tree(text: str) -> Tree:
    """Parse canonical parenthesis text into a Tree.

    Grammar: ``node := label? '(' node* ')'`` where a label is a maximal
    run of non-parenthesis, non-whitespace characters placed immediately
    before its '('.  Whitespace between nodes is ignored.

    Raises
    ------
    ParseError
        On empty input, unbalanced parentheses, or trailing garbage,
        with the character offset of the problem.
    """
    parent: list[int] = []
    labels: dict[int, str] = {}
    # every '(' of a tree opens a node; a leaf keeps the shared ()
    rows: list[tuple] = [()] * text.count("(")
    pending: list[int] = []  # the children read so far of all open nodes, flat
    starts: list[int] = []  # per open node, innermost last: where its children start
    top = -1  # the innermost open node; -1 before the root opens and after it closes
    label_at = -1  # where the label being read starts, or -1
    for i, ch in enumerate(text):
        if ch == "(":
            if label_at >= 0:
                labels[len(parent)] = text[label_at:i]
                label_at = -1
            elif top < 0 and parent:
                raise ParseError("trailing garbage after tree", i)
            parent.append(top)
            top = len(parent) - 1
            pending.append(top)
            starts.append(len(pending))
        elif ch == ")":
            if label_at >= 0:
                raise ParseError("expected '(' after label", i)
            if top < 0:
                raise ParseError("trailing garbage after tree" if parent else "unbalanced ')'", i)
            k = len(pending) - starts.pop()  # top's children, the last k pending
            if k:
                if k == 1:
                    rows[top] = (pending.pop(),)
                else:
                    rows[top] = tuple(pending[-k:])
                    del pending[-k:]
            top = parent[top]
        elif ch.isspace():
            if label_at >= 0:
                raise ParseError("expected '(' after label", i)
        elif label_at < 0:
            if top < 0 and parent:
                raise ParseError("trailing garbage after tree", i)
            label_at = i
    if label_at >= 0:
        raise ParseError("expected '(' after label", len(text))
    if top >= 0:
        raise ParseError("unbalanced '(': input ended with open nodes", len(text))
    if not parent:
        raise ParseError("empty input", 0)
    return Tree._raw(tuple(rows), tuple(parent), labels)


def serialize_tree(t: Tree) -> str:
    """Canonical label-free parenthesis form; inverse of parse_tree on structures.

    In preorder, node v's "(" is followed by depth[v] - depth[v + 1] + 1
    closing parens (depth[n] = 0), the depths kept in a compact ``array``.
    """
    par = t._parent
    depth = array("l", [0]) * (len(par) + 1)
    for v in range(1, len(par)):
        depth[v] = depth[par[v]] + 1
    return "".join("(" + ")" * (a - b + 1) for a, b in zip(depth, islice(depth, 1, None)))


def tree_to_json(t: Tree) -> dict:
    nodes = []
    for v in range(t.n):
        rec: dict = {"id": v, "children": list(t.children(v))}
        lab = t.label(v)
        if lab is not None:
            rec["label"] = lab
        nodes.append(rec)
    return {"root": t.root, "nodes": nodes}


def _write_chunks(write, chunks) -> None:
    """Write the text of the iterable ``chunks`` 1024 chunks at a time, so
    that an unbuffered stdout is not written once per chunk."""
    while batch := list(islice(chunks, 1024)):
        write("".join(batch))


def _tree_json_chunks(t: Tree):
    """The text that ``print(json.dumps(tree_to_json(t), sort_keys=True,
    indent=2))`` prints, one chunk per node, made without that dict:
    ``indent`` sends json.dumps to its pure-Python encoder."""
    import json  # only the CLI writes tree JSON; `import uptree` leaves json unloaded

    # keys in json's sorted order; an empty list closes on its key's line
    labels = t._labels
    sep = '{\n  "nodes": [\n'
    for v, cs in enumerate(t._children):
        kids = "[\n        " + ",\n        ".join(map(str, cs)) + "\n      ]" if cs else "[]"
        lab = f',\n      "label": {json.dumps(labels[v])}' if v in labels else ""
        yield f'{sep}    {{\n      "children": {kids},\n      "id": {v}{lab}\n    }}'
        sep = ",\n"
    yield '\n  ],\n  "root": 0\n}\n'


def tree_from_json(obj) -> Tree:
    """Build a Tree from {"root": id, "nodes": [{"id", "children", "label"?}]}.

    Node ids may be arbitrary integers; the result is renumbered to
    canonical preorder ids.  Ids that are not Python ints (booleans,
    floats and int subclasses included), duplicate ids, several parents,
    unreachable nodes and a label that is neither a string nor null raise
    ParseError.
    """
    if not isinstance(obj, dict) or "root" not in obj or "nodes" not in obj:
        raise ParseError("tree JSON must have 'root' and 'nodes'", 0)
    raw = obj["nodes"]
    if not isinstance(raw, list) or not raw:
        raise ParseError("'nodes' must be a non-empty list", 0)
    t = _from_preorder_ids(obj["root"], raw)
    if t is not None:
        return t
    kids = {}
    labels_raw = {}
    for rec in raw:
        if not isinstance(rec, dict) or "id" not in rec:
            raise ParseError("each node needs an 'id'", 0)
        nid = rec["id"]
        # JSON true and 1.0 compare equal to 1; neither may stand for 1
        if type(nid) is not int:
            raise ParseError(f"node id {nid!r} is not an integer", 0)
        if nid in kids:
            raise ParseError(f"duplicate node id {nid}", 0)
        cs = rec.get("children", [])
        if not isinstance(cs, list):
            raise ParseError(f"children of {nid} must be a list", 0)
        for c in cs:
            if type(c) is not int:
                raise ParseError(f"child id {c!r} under {nid} is not an integer", 0)
        kids[nid] = cs
        label = rec.get("label")
        if label is not None:
            if not isinstance(label, str):
                raise ParseError(f"label of node {nid} is not a string or null", 0)
            labels_raw[nid] = label
    root = obj["root"]
    if type(root) is not int:
        raise ParseError(f"root {root!r} is not an integer", 0)
    if root not in kids:
        raise ParseError(f"root {root!r} is not among the nodes", 0)
    seen_child = set()
    for v, cs in kids.items():
        for c in cs:
            if c not in kids:
                raise ParseError(f"unknown child id {c} under {v}", 0)
            if c in seen_child or c == root:
                raise ParseError(f"node {c} has more than one parent", 0)
            seen_child.add(c)
    return _renumbered(root, kids, labels_raw)[0]


def _preorder_parents(rows) -> Optional[list]:
    """The parent array (-1 for the root) of the child rows ``rows`` when
    they keep the module docstring's rule, and None otherwise.

    Past a bulk type check, one pass runs from the last node up, in which
    node v's first child must be v + 1 and each later child must start one
    past the end of its left sibling's subtree.  The subtree of v is then
    the interval v..end[v], and end[0] == n - 1 proves every node reached
    exactly once, from a parent with a smaller id.
    """
    n = len(rows)
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        return None
    parent = [-1] * n
    # end[v] once v's row is read, and None for a leaf, which ends at itself:
    # end holds only child ids of the rows, so it makes no int per node
    end = [None] * n
    try:
        for v in range(n - 1, -1, -1):
            cs = rows[v]
            if cs:
                nxt = v + 1
                for c in cs:
                    if c != nxt:
                        return None
                    parent[c] = v
                    last = end[c] or c
                    nxt = last + 1
                end[v] = last
        return parent if (end[0] or 0) == n - 1 else None
    except IndexError:  # a child id n, one past the last node
        return None


def _from_preorder_ids(root, raw: list) -> Optional[Tree]:
    """The tree of the node records ``raw`` when their ids are already
    preorder ids in record order, as ``tree_to_json`` writes them, and None
    for any other input: ``tree_from_json`` then decides it record by
    record, and raises its errors.  The record types are checked in bulk;
    the rows and labels are checked by ``Tree(...)``, whose ``ValueError``
    gives None.
    """
    if type(root) is not int or root != 0 or set(map(type, raw)) != {dict}:
        return None
    try:
        ids = list(map(itemgetter("id"), raw))
        kids = list(map(itemgetter("children"), raw))
    except KeyError:
        return None
    if (set(map(type, ids)) != {int} or any(map(ne, ids, range(len(raw))))
            or set(map(type, kids)) != {list}):
        return None
    del ids  # not held while the tree's rows are built
    labels = {v: lab for v, lab in enumerate(map(dict.get, raw, repeat("label")))
              if lab is not None}
    try:
        return Tree(kids, labels)
    except ValueError:
        return None


def _renumbered(root, kids, labels: dict) -> tuple:
    """(tree, order): the tree under ``root`` with preorder ids, and the
    old ids in that order.  ``kids[v]`` lists v's children left to right,
    and ``labels`` is keyed by the old ids.

    Every child is known and has one parent, and the root is no child.
    The walk numbers the nodes as it reaches them and, as ``parse_tree``
    does, slices each node's row off one flat list of the new ids of the
    children reached so far when the node closes: no map from old ids to
    new ones.
    """
    rows: list = [()] * len(kids)
    order = []
    parent: list[int] = []
    new_labels = {}
    pending: list[int] = []  # the new ids of the children reached so far of all open nodes
    starts: list[int] = []  # per open node, innermost last: where its children start
    top = -1  # the innermost open node's new id
    stack = [root]  # the ids still to reach; None closes the innermost open node
    while stack:
        v = stack.pop()
        if v is None:
            k = len(pending) - starts.pop()
            if k == 1:
                rows[top] = (pending.pop(),)
            else:
                rows[top] = tuple(pending[-k:])
                del pending[-k:]
            top = parent[top]
            continue
        i = len(parent)
        order.append(v)
        parent.append(top)
        pending.append(i)
        if v in labels:
            new_labels[i] = labels[v]
        cs = kids[v]
        if cs:
            top = i
            starts.append(len(pending))
            stack.append(None)
            stack.extend(reversed(cs))
    if len(parent) != len(kids):
        raise ParseError("tree JSON is not connected", 0)
    return Tree._raw(tuple(rows), tuple(parent), new_labels), order


def gen_path(k: int) -> Tree:
    """Rooted path of k nodes, 1 <= k <= 2**20."""
    if k < 1:
        raise InputError("k must be >= 1")
    if k > 2**20:
        raise InputError("k must be <= 2**20")
    return parse_tree("(" * k + ")" * k)


def gen_complete_binary(h: int) -> Tree:
    """Complete binary tree of height h (a single node has height 1); n = 2^h - 1.

    1 <= h <= 20: binary(20) has about 10^6 nodes.
    """
    if h < 1:
        raise InputError("h must be >= 1")
    if h > 20:
        raise InputError("h must be <= 20")
    t = "()"
    for _ in range(h - 1):
        t = f"({t}{t})"
    return parse_tree(t)


def gen_quintary_family(i: int) -> Tree:
    """Level-i member of the degree-5 family.

    T_1 is a single node; T_i has five children
    [T_{i-1}, T_{i-1}, X, T_{i-1}, T_{i-1}] where X itself has two
    T_{i-1} children.  Sizes follow |T_i| = 6|T_{i-1}| + 2.

    1 <= i <= 8: quintary(8) has 391910 nodes.
    """
    if not (1 <= i <= 8):
        raise InputError("i must be in 1..8")
    t = "()"
    for _ in range(i - 1):
        t = f"({t}{t}({t}{t}){t}{t})"
    return parse_tree(t)


def gen_hpd_family(i: int) -> Tree:
    """Level-i member of the long-right-path family.

    T_1 is a single node; T_i has a left subtree T_{i-1} and a right
    subtree that is a rooted path of |T_{i-1}| + 1 nodes, so
    |T_i| = 2|T_{i-1}| + 2 = (3/2)*2^i - 2.
    """
    if not (1 <= i <= 20):
        raise InputError("i must be in 1..20")
    t = "()"
    for _ in range(i - 1):
        k = len(t) // 2 + 1
        t = "(" + t + "(" * k + ")" * k + ")"
    return parse_tree(t)


_REJECTION_ATTEMPTS = 10000


def gen_random_tree(n: int, seed: int, max_degree: Optional[int] = None) -> Tree:
    """Uniformly random ordered rooted tree with n nodes, 1 <= n <= 2**20.

    Uses the cycle-lemma construction: shuffle n '(' and n-1 ')',
    rotate to the unique cyclic shift with all prefix sums positive, and
    close it with one more ')'; the result is the paren text of a
    uniform random tree.  Deterministic per (n, seed, max_degree).
    With max_degree set, rejection-samples up to a bounded number of
    attempts.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if n > 2**20:
        raise InputError("n must be <= 2**20")
    if max_degree is not None and max_degree < 1:
        raise InputError("max_degree must be >= 1")
    rng = random.Random(seed)
    attempts = _REJECTION_ATTEMPTS if max_degree is not None else 1
    for _ in range(attempts):
        t = _random_tree_once(n, rng)
        if max_degree is None or max(len(t.children(v)) for v in range(n)) <= max_degree:
            return t
    raise ValueError(
        f"could not generate a tree with n={n}, max_degree={max_degree} "
        f"after {attempts} attempts"
    )


def _random_tree_once(n: int, rng) -> Tree:
    steps = ["("] * n + [")"] * (n - 1)
    rng.shuffle(steps)
    # Cut just after the last minimum of the prefix sums; the rotation
    # starting there has all prefix sums positive (cycle lemma).
    total = 0
    best = 1  # sums start at 0, first prefix is at most 1, so any real min wins
    cut = 0
    for k, step in enumerate(steps):
        total += 1 if step == "(" else -1
        if total <= best:
            best = total
            cut = k + 1
    # the rotation opens the root first; one more ')' closes it
    return parse_tree("".join(steps[cut:] + steps[:cut]) + ")")
