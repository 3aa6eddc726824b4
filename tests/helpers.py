"""Independent reference implementations used to cross-check the package.

Nothing here reuses solver internals: the point is a second route to the
same answers (different table recurrence shape, different enumeration
style), so a shared bug would have to be invented twice.
"""

import sys
from itertools import combinations_with_replacement, product

from treelabel import (
    CostFunction,
    CostTable,
    Labeling,
    LeafLabeling,
    Tree,
    build_tree,
    eval_total,
    parse_newick,
    postorder,
    preorder,
    theta,
)

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
    values = {t.root: g_min + (best_root[-1] if pick_last else best_root[0])}
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
# misc                                                                #
# ------------------------------------------------------------------ #

def count_calls(monkeypatch, function):
    """Count calls to ``function`` through every treelabel module binding it.

    Modules bind solver phases by from-import, so the function is replaced
    wherever it is bound. Returns a list that grows by one per call.
    """
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
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


def star_tree(n_leaves):
    """Root with n leaf children."""
    return build_tree([None] + [0] * n_leaves, [False] + [True] * n_leaves)


def extract_subtree(t: Tree, l: LeafLabeling, v):
    """The subproblem on v's subtree: (tree, leaf labeling, new root id)."""
    old_ids = [v]
    i = 0
    while i < len(old_ids):
        old_ids.extend(t.children[old_ids[i]])
        i += 1
    new_id = {old: new for new, old in enumerate(old_ids)}
    parent_of = [None] + [new_id[t.parents[old]] for old in old_ids[1:]]
    flags = [t.is_leaf(old) for old in old_ids]
    sub = build_tree(parent_of, flags)
    labels = {new_id[old]: l.labels[old] for old in old_ids if t.is_leaf(old)}
    return sub, LeafLabeling.for_tree(sub, labels), new_id[v]
