"""treelabel: minimum-cost integer labeling of leaf-labeled rooted trees.

Given a rooted tree whose leaves carry integer labels and a strictly
increasing edge-cost function theta, assign integers to the internal
nodes minimizing the sum of theta(|label difference|) over all edges.

Three solvers, cross-checkable against each other:

  - TreeLabeler / solve_dp: dynamic programming over the leaf-label
    range, any tree arity, any theta. O(N * m^2), a direct scan.
  - solve_interval: interval propagation, linear time, for Manhattan
    cost on binary trees.
  - brute_force_min: exhaustive enumeration, the testing ground truth.

k-tuple labelings (nondecreasing integer tuples per node) are handled by
per-coordinate decomposition in solve_ktuple.
"""

from .costs import (
    CostFunction,
    Labeling,
    LeafLabeling,
    eval_total,
    theta,
)
from .dp import CostTable, dp_down, dp_up, min_total, solve_dp
from .errors import (
    BudgetExceeded,
    CycleDetected,
    DifferenceOutOfRange,
    EmptyTree,
    InternalNodeWithoutChildren,
    LeafWithChildren,
    MissingNodeLabel,
    MultipleRoots,
    NewickSyntaxError,
    NonIntegerLeafName,
    NoRoot,
    NotBinaryTree,
    TreeLabelError,
    TupleDecompositionNotMonotone,
    TupleLengthMismatch,
    TupleNotMonotone,
    UnreachableNode,
    UnsupportedAlgorithm,
)
from .estimator import TreeLabeler
from .generate import random_document, random_topology
from .intervals import (
    IntervalAssignment,
    bottom_up_intervals,
    merge_intervals,
    solve_interval,
    top_down_labels,
)
from .newick import (
    LabeledTreeDocument,
    TupleTreeDocument,
    document_to_newick,
    parse_newick,
    parse_newick_tuples,
    serialize_labeled,
    serialize_tuple_labeled,
)
from .oracle import (
    OptimumSet,
    brute_force_min,
    enumerate_optimal,
    optimal_label_sets,
)
from .solve import choose_algorithm, solve_scalar
from .tree import Tree, build_tree, is_binary, postorder, preorder
from .tuples import TupleLabeling, TupleLeafLabeling, solve_ktuple, tuple_cost

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CostFunction",
    "CostTable",
    "CycleDetected",
    "DifferenceOutOfRange",
    "EmptyTree",
    "InternalNodeWithoutChildren",
    "IntervalAssignment",
    "LabeledTreeDocument",
    "Labeling",
    "LeafLabeling",
    "LeafWithChildren",
    "MissingNodeLabel",
    "MultipleRoots",
    "NewickSyntaxError",
    "NoRoot",
    "NonIntegerLeafName",
    "NotBinaryTree",
    "OptimumSet",
    "Tree",
    "TreeLabelError",
    "TreeLabeler",
    "TupleDecompositionNotMonotone",
    "TupleLabeling",
    "TupleLeafLabeling",
    "TupleLengthMismatch",
    "TupleNotMonotone",
    "TupleTreeDocument",
    "UnreachableNode",
    "UnsupportedAlgorithm",
    "bottom_up_intervals",
    "brute_force_min",
    "build_tree",
    "choose_algorithm",
    "document_to_newick",
    "dp_down",
    "dp_up",
    "enumerate_optimal",
    "eval_total",
    "is_binary",
    "merge_intervals",
    "min_total",
    "optimal_label_sets",
    "parse_newick",
    "parse_newick_tuples",
    "postorder",
    "preorder",
    "random_document",
    "random_topology",
    "serialize_labeled",
    "serialize_tuple_labeled",
    "solve_dp",
    "solve_interval",
    "solve_ktuple",
    "solve_scalar",
    "theta",
    "top_down_labels",
    "tuple_cost",
]
