"""Independent reference implementations used to cross-check the package.

Nothing here reuses solver internals: the point is a second route to the
same answers (different table recurrence shape, different enumeration
style), so a shared bug would have to be invented twice.
"""

import sys
from collections import deque
from itertools import combinations_with_replacement, product

from treelabel import (
    CostFunction,
    CostTable,
    EmptyTree,
    Labeling,
    LeafLabeling,
    NewickSyntaxError,
    Tree,
    TupleLeafLabeling,
    build_tree,
    eval_total,
    parse_newick,
    postorder,
    preorder,
    theta,
)
from treelabel.newick import _leaf_int

INF = float("inf")


# ------------------------------------------------------------------ #
# exhaustive binary topology enumeration                              #
# ------------------------------------------------------------------ #

def binary_shapes(n_leaves):
    """All ordered binary bracketings with n leaves, as nested tuples."""
    if n_leaves == 1:
        yield "leaf"
        return
    for left_size in range(1, n_leaves):
        for left in binary_shapes(left_size):
            for right in binary_shapes(n_leaves - left_size):
                yield (left, right)


def shape_to_newick(shape, labels):
    """Render a shape with the given leaf labels (consumed left to right)."""
    it = iter(labels)

    def render(node):
        if node == "leaf":
            return str(next(it))
        return "(" + ",".join(render(child) for child in node) + ")"

    return render(shape) + ";"


def doc_from_shape(shape, labels):
    return parse_newick(shape_to_newick(shape, labels))


# ------------------------------------------------------------------ #
# two-term binary DP (reference for the general recurrence)           #
# ------------------------------------------------------------------ #

def binary_dp_rows(t: Tree, l: LeafLabeling, c: CostFunction):
    """Cost table via the explicit two-child recurrence.

    S_a(i) = min_j[theta(|i-j|) + S_left(j)] + min_k[theta(|i-k|) + S_right(k)],
    computed with per-child minimum vectors rather than an accumulating
    sum over children.
    """
    g_min, m = l.g_min, l.m
    rows = {}
    for v in postorder(t):
        if t.is_leaf(v):
            rows[v] = tuple(
                0 if g_min + i == l.labels[v] else INF for i in range(m)
            )
            continue
        left, right = t.children[v]

        def best_for(row):
            return [
                min(
                    theta(c, abs(i - j)) + row[j]
                    for j in range(m)
                    if row[j] != INF
                )
                for i in range(m)
            ]

        left_min = best_for(rows[left])
        right_min = best_for(rows[right])
        rows[v] = tuple(left_min[i] + right_min[i] for i in range(m))
    return rows


# ------------------------------------------------------------------ #
# pairwise interval merge (reference for the median rule, binary)     #
# ------------------------------------------------------------------ #

def reference_merge_intervals(a, b):
    """Parent interval of two child intervals: intersection, else the gap."""
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    if lo <= hi:
        return lo, hi
    if a[1] < b[0]:
        return a[1], b[0]
    return b[1], a[0]


def reference_binary_intervals(t: Tree, l: LeafLabeling):
    """Per-node intervals of a binary tree by the pairwise merge."""
    intervals = {}
    for v in postorder(t):
        if t.is_leaf(v):
            intervals[v] = (l.labels[v], l.labels[v])
            continue
        left, right = t.children[v]
        intervals[v] = reference_merge_intervals(intervals[left], intervals[right])
    return [intervals[v] for v in range(t.node_count)]


# ------------------------------------------------------------------ #
# triple-loop DP (reference for the windowed scan in treelabel.dp)    #
# ------------------------------------------------------------------ #

def scan_dp_up(t: Tree, l: LeafLabeling, c: CostFunction) -> CostTable:
    """Cost table by an explicit loop over every (i, j) pair, leaf rows included."""
    g_min, m = l.g_min, l.m
    th = [theta(c, d) for d in range(m)]
    rows = [None] * t.node_count
    for v in postorder(t):
        if t.is_leaf(v):
            row = [INF] * m
            row[l.labels[v] - g_min] = 0
            rows[v] = tuple(row)
            continue
        acc = [0] * m
        for child in t.children[v]:
            crow = rows[child]
            for i in range(m):
                best = INF
                for j in range(m):
                    # skip infinite entries: int + inf overflows for huge ints
                    if crow[j] != INF:
                        best = min(best, th[abs(i - j)] + crow[j])
                acc[i] += best
        rows[v] = tuple(acc)
    return CostTable(g_min=l.g_min, g_max=l.g_max, rows=tuple(rows))


def scan_dp_down(t: Tree, ct: CostTable, c: CostFunction, tie="lowest") -> Labeling:
    """Top-down reconstruction by an explicit loop over every candidate j."""
    g_min, m = ct.g_min, ct.m
    th = [theta(c, d) for d in range(m)]
    pick_last = tie == "highest"
    root_row = ct.rows[t.root]
    root_min = min(root_row)
    best_root = [i for i in range(m) if root_row[i] == root_min]
    values = [None] * t.node_count
    values[t.root] = g_min + (best_root[-1] if pick_last else best_root[0])
    for v in preorder(t):
        if v == t.root:
            continue
        i = values[t.parents[v]] - g_min
        row = ct.rows[v]
        best, best_j = INF, None
        for j in range(m):
            if row[j] == INF:
                continue
            val = th[abs(i - j)] + row[j]
            if val < best or (pick_last and val == best):
                best, best_j = val, j
        values[v] = g_min + best_j
    return Labeling(values=values, total_cost=eval_total(t, c, values))


# ------------------------------------------------------------------ #
# recursive mini-oracle (independent of the package's product scan)   #
# ------------------------------------------------------------------ #

def recursive_minimum(t: Tree, l: LeafLabeling, c: CostFunction):
    """(min cost, set of optimal root labels) by recursive enumeration."""
    internal = [v for v in range(t.node_count) if not t.is_leaf(v)]
    best = [INF]
    root_labels = set()

    def recurse(idx, values):
        if idx == len(internal):
            cost = eval_total(t, c, values)
            if cost < best[0]:
                best[0] = cost
                root_labels.clear()
            if cost == best[0]:
                root_labels.add(values[t.root])
            return
        for label in range(l.g_min, l.g_max + 1):
            values[internal[idx]] = label
            recurse(idx + 1, values)

    recurse(0, dict(l.labels))
    return best[0], sorted(root_labels)


# ------------------------------------------------------------------ #
# constrained k-tuple brute force (test fixture, deliberately slow)   #
# ------------------------------------------------------------------ #

def tuple_brute_force_cost(t: Tree, k, leaf_tuples, c: CostFunction):
    """Exact optimum over NONDECREASING k-tuples on the internal nodes."""
    flat = [x for tup in leaf_tuples.values() for x in tup]
    lo, hi = min(flat), max(flat)
    internal = [v for v in range(t.node_count) if not t.is_leaf(v)]
    candidates = list(combinations_with_replacement(range(lo, hi + 1), k))
    edges = list(t.edges())

    best = INF
    values = dict(leaf_tuples)
    for assignment in product(candidates, repeat=len(internal)):
        for v, tup in zip(internal, assignment):
            values[v] = tup
        cost = 0
        for parent, child in edges:
            a, b = values[parent], values[child]
            for x, y in zip(a, b):
                cost += theta(c, abs(x - y))
        if cost < best:
            best = cost
    return best


# ------------------------------------------------------------------ #
# character-level Newick reader (reference for newick._parse_tree)    #
# ------------------------------------------------------------------ #

_NAME_END = set("():,;")


def _parse_structure(text: str):
    """Parse Newick text into nested ("leaf", name) / ("internal", children).

    Iterative (explicit stack), so nesting depth is unbounded. Branch
    lengths and internal names are consumed and dropped here.
    """
    s = text
    n = len(s)
    i = 0

    def skip_ws(j: int) -> int:
        while j < n and s[j].isspace():
            j += 1
        return j

    def read_name(j: int):
        k = j
        while k < n and s[k] not in _NAME_END and not s[k].isspace():
            k += 1
        return s[j:k], k

    def skip_length(j: int) -> int:
        # after ':', a number token; content is discarded
        j = skip_ws(j)
        token, k = read_name(j)
        if not token:
            raise NewickSyntaxError(f"missing branch length after ':' at position {j}")
        return k

    stack = []
    current = None  # most recently completed element, awaiting ',' ')' or ';'

    while True:
        i = skip_ws(i)
        if i >= n:
            raise NewickSyntaxError("missing ';' terminator")
        c = s[i]

        if c == "(":
            if current is not None:
                raise NewickSyntaxError(f"unexpected '(' at position {i}")
            stack.append([])
            i += 1

        elif c == ",":
            if not stack:
                raise NewickSyntaxError(f"',' outside parentheses at position {i}")
            stack[-1].append(current if current is not None else ("leaf", ""))
            current = None
            i += 1

        elif c == ")":
            if not stack:
                raise NewickSyntaxError(f"unbalanced ')' at position {i}")
            children = stack.pop()
            children.append(current if current is not None else ("leaf", ""))
            i += 1
            _, i = read_name(i)  # internal node name: ignored
            i = skip_ws(i)
            if i < n and s[i] == ":":
                i = skip_length(i + 1)
            current = ("internal", children)

        elif c == ";":
            if stack:
                raise NewickSyntaxError("unbalanced '(': missing ')'")
            if current is None:
                raise EmptyTree("no tree before ';'")
            i = skip_ws(i + 1)
            if i < n:
                raise NewickSyntaxError(f"unexpected text after ';' at position {i}")
            return current

        elif c == ":":
            # branch length on an unnamed leaf; keep the empty name so the
            # integer check reports it instead of a bare syntax error
            if current is not None:
                raise NewickSyntaxError(f"unexpected ':' at position {i}")
            current = ("leaf", "")
            i = skip_length(i + 1)

        else:
            if current is not None:
                raise NewickSyntaxError(f"unexpected token at position {i}")
            name, i = read_name(i)
            i = skip_ws(i)
            if i < n and s[i] == ":":
                i = skip_length(i + 1)
            current = ("leaf", name)


def _number_nodes(root_elem):
    """Breadth-first node numbering; returns (parent_of, leaf_flags, leaf_names)."""
    parent_of = []
    leaf_flags = []
    leaf_names = {}
    queue = deque([(root_elem, None)])
    while queue:
        elem, parent = queue.popleft()
        idx = len(parent_of)
        parent_of.append(parent)
        if elem[0] == "leaf":
            leaf_flags.append(True)
            leaf_names[idx] = elem[1]
        else:
            leaf_flags.append(False)
            for child in elem[1]:
                queue.append((child, idx))
    return parent_of, leaf_flags, leaf_names


def reference_parse(text: str, tuples: bool = False):
    """(tree, leaf labeling) of one Newick string, by the character-level reader.

    Same contract as parse_newick (tuples=False) and parse_newick_tuples
    (tuples=True): equal results, or an exception of the same class.
    """
    if not text.strip():
        raise EmptyTree("blank input")
    parent_of, leaf_flags, leaf_names = _number_nodes(_parse_structure(text))
    tree = build_tree(parent_of)
    # the reader knows its leaves from the text; the tree derives them from
    # the parent array, and the two must agree
    flagged = tuple(v for v, leaf in enumerate(leaf_flags) if leaf)
    if flagged != tree.leaves():
        raise AssertionError(f"reader leaves {flagged} != tree leaves {tree.leaves()}")
    if not tuples:
        labels = {v: _leaf_int(name) for v, name in leaf_names.items()}
        return tree, LeafLabeling.for_tree(tree, labels)
    labels = {
        v: tuple(_leaf_int(p, f"tuple component of leaf {name!r}") for p in name.split("|"))
        for v, name in leaf_names.items()
    }
    return tree, TupleLeafLabeling.for_tree(tree, labels)


# ------------------------------------------------------------------ #
# op-stack Newick printer (reference for newick._render)              #
# ------------------------------------------------------------------ #

def reference_render(tree: Tree, name_of) -> str:
    """Newick text of ``tree``, ``name_of(v)`` giving the text of node v.

    A stack of tagged ("node" | "text") operations: a node op expands into
    its own '(' and, pushed in reverse, its children, the ',' between them
    and its closing ')' plus name. Iterative, so depth is unbounded.
    """
    pieces = []
    stack = [("node", tree.root)]
    while stack:
        op, arg = stack.pop()
        if op == "text":
            pieces.append(arg)
            continue
        v = arg
        if tree.is_leaf(v):
            pieces.append(name_of(v))
            continue
        pieces.append("(")
        stack.append(("text", name_of(v)))
        stack.append(("text", ")"))
        kids = tree.children[v]
        for idx in range(len(kids) - 1, -1, -1):
            stack.append(("node", kids[idx]))
            if idx > 0:
                stack.append(("text", ","))
    pieces.append(";")
    return "".join(pieces)


# ------------------------------------------------------------------ #
# misc                                                                #
# ------------------------------------------------------------------ #

def count_calls(monkeypatch, function, refuse=False):
    """Count calls to ``function`` through every treelabel module binding it.

    Modules bind solver phases by from-import, so the function is replaced
    wherever it is bound. Returns a list that grows by one per call. With
    ``refuse`` a call is counted and then fails with AssertionError instead
    of running, for a call that must not happen and might not finish.
    """
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        if refuse:
            raise AssertionError(f"unexpected call to {function.__name__}")
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "treelabel" or name.startswith("treelabel."):
            if getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, counting)
    return calls


def random_strict_table(rng, length):
    """Strictly increasing cost table starting at 0."""
    values = [0]
    for _ in range(length - 1):
        values.append(values[-1] + rng.randint(1, 5))
    return CostFunction.from_table(values)


def random_instance(rng, n_nodes, lo, hi, max_arity=4):
    """Random tree of arity 1..max_arity (unary chains included) with
    leaf labels in [lo, hi].

    Nodes attach one by one to a random earlier node that has fewer than
    max_arity children; nodes left childless are the leaves. n_nodes=1 is
    the single-node tree.
    """
    parent_of = [None]
    child_count = [0]
    for v in range(1, n_nodes):
        p = rng.choice([u for u in range(v) if child_count[u] < max_arity])
        parent_of.append(p)
        child_count[p] += 1
        child_count.append(0)
    t = build_tree(parent_of)
    labels = {v: rng.randint(lo, hi) for v in t.leaves()}
    return t, LeafLabeling.for_tree(t, labels)


def star_tree(n_leaves):
    """Root with n leaf children."""
    return build_tree([None] + [0] * n_leaves)


def extract_subtree(t: Tree, l: LeafLabeling, v):
    """The subproblem on v's subtree: (tree, leaf labeling, new root id)."""
    old_ids = [v]
    i = 0
    while i < len(old_ids):
        old_ids.extend(t.children[old_ids[i]])
        i += 1
    new_id = {old: new for new, old in enumerate(old_ids)}
    parent_of = [None] + [new_id[t.parents[old]] for old in old_ids[1:]]
    sub = build_tree(parent_of)
    labels = {new_id[old]: l.labels[old] for old in old_ids if t.is_leaf(old)}
    return sub, LeafLabeling.for_tree(sub, labels), new_id[v]


def renumber(t: Tree, l: LeafLabeling, rng):
    """The same instance under random node ids: (tree, leaves, new id by old).

    Children are stored in id order, so the new ids reorder every node's
    children.
    """
    new_id = list(range(t.node_count))
    rng.shuffle(new_id)
    parent_of = [None] * t.node_count
    for v, p in enumerate(t.parents):
        parent_of[new_id[v]] = None if p is None else new_id[p]
    moved = build_tree(parent_of)
    moved_leaves = LeafLabeling.for_tree(moved, {new_id[v]: x for v, x in l.labels.items()})
    return moved, moved_leaves, new_id


def reroot(t: Tree, r) -> Tree:
    """The same unrooted tree rooted at internal node ``r``.

    The parent pointers on the path from ``r`` to the old root are
    reversed; node ids, edges and leaves stay as they are. An old root
    with one child would become a leaf, so it is refused.
    """
    if t.is_leaf(r):
        raise ValueError(f"node {r} is a leaf")
    if len(t.children[t.root]) == 1:
        raise ValueError("the old root has one child and would become a leaf")
    parent_of = list(t.parents)
    below, v = None, r
    while v is not None:
        parent_of[v], below, v = below, v, t.parents[v]
    return build_tree(parent_of)
