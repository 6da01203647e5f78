"""Reference tree loaders: the two-pass ``parse_tree`` and ``tree_from_json``.

A plain copy of the loaders as they stood before they were rewritten to
build the tree in one preorder pass, plus the rule that came in with the
rewrite: a JSON label is a string or null.  Each one checks its input, builds
child lists and hands them to the validating ``Tree(children, labels)``,
which walks the whole tree again.  Slow on purpose; kept out of the
package so the tests have something independent to compare the fast
loaders against: equal trees and labels, or the same exception class,
message and offset.
"""

from uptree.tree import ParseError, Tree


def parse_tree(text: str) -> Tree:
    children: list[list[int]] = []
    labels: dict[int, str] = {}
    stack: list[int] = []
    i = 0
    end = len(text)
    root_closed = False
    while i < end:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if root_closed:
            raise ParseError("trailing garbage after tree", i)
        if ch == ")":
            if not stack:
                raise ParseError("unbalanced ')'", i)
            stack.pop()
            if not stack:
                root_closed = True
            i += 1
            continue
        label = None
        if ch != "(":
            j = i
            while j < end and text[j] not in "()" and not text[j].isspace():
                j += 1
            label = text[i:j]
            if j >= end or text[j] != "(":
                raise ParseError("expected '(' after label", j)
            i = j
        nid = len(children)
        children.append([])
        if label is not None:
            labels[nid] = label
        if stack:
            children[stack[-1]].append(nid)
        stack.append(nid)
        i += 1
    if stack:
        raise ParseError("unbalanced '(': input ended with open nodes", end)
    if not children:
        raise ParseError("empty input", 0)
    return Tree(children, labels)


def _is_json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def tree_from_json(obj) -> Tree:
    if not isinstance(obj, dict) or "root" not in obj or "nodes" not in obj:
        raise ParseError("tree JSON must have 'root' and 'nodes'", 0)
    raw = obj["nodes"]
    if not isinstance(raw, list) or not raw:
        raise ParseError("'nodes' must be a non-empty list", 0)
    kids = {}
    labels_raw = {}
    for rec in raw:
        if not isinstance(rec, dict) or "id" not in rec:
            raise ParseError("each node needs an 'id'", 0)
        nid = rec["id"]
        if not _is_json_int(nid):
            raise ParseError(f"node id {nid!r} is not an integer", 0)
        if nid in kids:
            raise ParseError(f"duplicate node id {nid}", 0)
        cs = rec.get("children", [])
        if not isinstance(cs, list):
            raise ParseError(f"children of {nid} must be a list", 0)
        for c in cs:
            if not _is_json_int(c):
                raise ParseError(f"child id {c!r} under {nid} is not an integer", 0)
        kids[nid] = cs
        label = rec.get("label")
        if label is not None:
            if not isinstance(label, str):
                raise ParseError(f"label of node {nid} is not a string or null", 0)
            labels_raw[nid] = label
    root = obj["root"]
    if not _is_json_int(root):
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
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(kids[v]))
    if len(order) != len(kids):
        raise ParseError("tree JSON is not connected", 0)
    newid = {v: i for i, v in enumerate(order)}
    children = [[newid[c] for c in kids[v]] for v in order]
    labels = {newid[v]: s for v, s in labels_raw.items()}
    return Tree(children, labels)
