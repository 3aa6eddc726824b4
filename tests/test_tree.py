import random
from collections import deque

import pytest

from treelabel import (
    CycleDetected,
    MultipleRoots,
    NoRoot,
    UnreachableNode,
    build_tree,
    is_binary,
    postorder,
    preorder,
    random_topology,
)

N = None  # absent parent marker, for readability


def single_node():
    return build_tree([N])


def cherry():
    return build_tree([N, 0, 0])


def five_node():
    # root 0, internal 1 with leaves 3 and 4, leaf 2
    return build_tree([N, 0, 0, 1, 1])


class TestBuildTree:
    def test_single_node(self):
        t = single_node()
        assert t.node_count == 1
        assert t.leaf_count == 1
        assert t.leaves() == (0,)
        assert t.root == 0
        assert t.is_leaf(0)

    def test_cherry(self):
        t = cherry()
        assert t.root == 0
        assert t.children[0] == (1, 2)
        assert t.leaves() == (1, 2)

    def test_five_node(self):
        t = five_node()
        assert t.children[0] == (1, 2)
        assert t.children[1] == (3, 4)
        assert t.parents[3] == 1

    def test_children_sorted_ascending(self):
        # the highest id can be internal: leaves are the nodes nobody names
        t = build_tree([2, 2, N])
        assert t.children[2] == (0, 1)
        assert t.leaves() == (0, 1)
        assert t.root == 2
        assert not t.is_leaf(2)

    def test_self_loop_is_cycle(self):
        with pytest.raises(CycleDetected):
            build_tree([0, N])

    def test_two_cycle_off_root(self):
        with pytest.raises(CycleDetected):
            build_tree([N, 2, 1])

    def test_cycle_with_subtree_beside_valid_root_subtree(self):
        # root 0 has leaf 1; nodes 2 and 3 are each other's parent and 4
        # hangs below them, so the walk from the root misses three nodes
        with pytest.raises(CycleDetected):
            build_tree([N, 0, 3, 2, 2])

    def test_no_root(self):
        with pytest.raises(NoRoot):
            build_tree([1, 0])

    def test_empty_input(self):
        with pytest.raises(NoRoot):
            build_tree([])

    def test_multiple_roots(self):
        with pytest.raises(MultipleRoots):
            build_tree([N, N, 0])

    def test_parent_out_of_range(self):
        with pytest.raises(UnreachableNode):
            build_tree([N, 5])

    def test_single_child_chain_is_legal(self):
        # in a unary chain only the bottom node is a leaf
        t = build_tree([N, 0, 1])
        assert t.leaves() == (2,)
        assert t.leaf_count == 1
        assert [t.is_leaf(v) for v in range(3)] == [False, False, True]
        assert not is_binary(t)
        assert postorder(t) == [2, 1, 0]


class TestTraversals:
    @pytest.mark.parametrize(
        "make,expected",
        [
            (single_node, [0]),
            (cherry, [1, 2, 0]),
            (five_node, [3, 4, 1, 2, 0]),
        ],
    )
    def test_postorder(self, make, expected):
        assert postorder(make()) == expected

    @pytest.mark.parametrize(
        "make,expected",
        [
            (single_node, [0]),
            (cherry, [0, 1, 2]),
            (five_node, [0, 1, 3, 4, 2]),
        ],
    )
    def test_preorder(self, make, expected):
        assert preorder(make()) == expected

    def test_permutation_and_ordering_properties(self):
        rng = random.Random(20240811)
        for _ in range(60):
            n = rng.randint(1, 40)
            arity = "binary" if rng.random() < 0.5 else rng.randint(2, 5)
            t = random_topology(n, rng, arity=arity)
            post = postorder(t)
            pre = preorder(t)
            assert sorted(post) == list(range(t.node_count))
            assert sorted(pre) == list(range(t.node_count))
            post_pos = {v: i for i, v in enumerate(post)}
            pre_pos = {v: i for i, v in enumerate(pre)}
            for v in range(t.node_count):
                p = t.parents[v]
                if p is not None:
                    assert post_pos[p] > post_pos[v]
                    assert pre_pos[p] < pre_pos[v]

    def test_deep_tree_no_recursion_limit(self):
        # caterpillar far deeper than Python's default recursion limit:
        # internal 2k has leaf 2k+1 and internal 2k+2; the last node is a leaf
        depth = 5000
        total = 2 * depth + 1
        parent_of = [N] * total
        for level in range(depth):
            internal = 2 * level
            parent_of[internal + 1] = internal
            parent_of[internal + 2] = internal
        t = build_tree(parent_of)
        assert is_binary(t)
        assert len(postorder(t)) == total
        assert len(preorder(t)) == total


def _breadth_first(t):
    order, queue = [], deque([t.root])
    while queue:
        v = queue.popleft()
        order.append(v)
        queue.extend(t.children[v])
    return order


class TestOrder:
    def test_small_trees(self):
        assert single_node().order == (0,)
        assert cherry().order == (0, 1, 2)
        assert five_node().order == (0, 1, 2, 3, 4)

    def test_parent_ids_above_child_ids(self):
        t = build_tree([2, 2, N])
        assert t.order == (2, 0, 1)
        t = build_tree([3, 3, 4, 4, N])
        assert t.order == (4, 2, 3, 0, 1)

    def test_breadth_first_and_parents_first_under_relabeling(self):
        rng = random.Random(4711)
        for _ in range(60):
            base = random_topology(rng.randint(1, 30), rng, arity=rng.choice(["binary", 4]))
            ids = list(range(base.node_count))
            rng.shuffle(ids)  # node v becomes ids[v]
            parent_of = [None] * base.node_count
            for v in range(base.node_count):
                p = base.parents[v]
                parent_of[ids[v]] = None if p is None else ids[p]
            t = build_tree(parent_of)
            named = set(parent_of)
            assert t.leaves() == tuple(v for v in range(t.node_count) if v not in named)
            assert t.root == t.order[0] == parent_of.index(None)
            assert list(t.order) == _breadth_first(t)
            position = {v: i for i, v in enumerate(t.order)}
            for v in range(t.node_count):
                if t.parents[v] is not None:
                    assert position[t.parents[v]] < position[v]


class TestIsBinary:
    def test_cherry_true(self):
        assert is_binary(cherry())

    def test_three_leaf_star_false(self):
        t = build_tree([N, 0, 0, 0])
        assert not is_binary(t)

    def test_single_node_vacuously_true(self):
        assert is_binary(single_node())
