"""treelabel: minimum-cost integer labeling of leaf-labeled rooted trees.

Given a rooted tree whose leaves carry integer labels and a strictly
increasing edge-cost function theta, assign integers to the internal
nodes minimizing the sum of theta(|label difference|) over all edges.

Five solvers, cross-checkable against each other, all reached through
solve_scalar(t, l, c, algorithm) (TreeLabeler sits on top of it):

  - "dp" (dp_up, dp_down): dynamic programming over the leaf-label
    range, any tree arity, any theta. O(N * m^2), a direct scan.
  - "convex" (convex_up, convex_down): the same cost table in O(N * m)
    by slope merge, and dp's labels in O(N log m) by binary search for
    each node's label, for a convex theta (increments that never
    decrease).
  - "interval" (bottom_up_intervals, top_down_labels): interval
    propagation by the median rule, O(N log d) for maximum arity d, for
    Manhattan cost on any tree.
  - "median" (median_down): after bottom_up_intervals, dp's labels under
    dp's tie rules, for Manhattan cost on any tree.
  - "oracle" (brute_force_min): exhaustive enumeration, the testing
    ground truth.

k-tuple labelings (nondecreasing integer tuples per node) are handled by
per-coordinate decomposition in solve_ktuple. Every solver, the k-tuple
one included, returns its answer as one record, Labeling: the value of
each node id and the total cost.
"""

from .costs import (
    CostFunction,
    Labeling,
    LeafLabeling,
    TupleLeafLabeling,
    eval_total,
    theta,
    tuple_cost,
)
from .dp import CostTable, convex_down, convex_up, dp_down, dp_up, min_total
from .errors import (
    BudgetExceeded,
    CycleDetected,
    DifferenceOutOfRange,
    EmptyTree,
    MissingNodeLabel,
    MultipleRoots,
    NewickSyntaxError,
    NonIntegerLeafName,
    NoRoot,
    TreeLabelError,
    TupleDecompositionNotMonotone,
    TupleLengthMismatch,
    TupleNotMonotone,
    UnreachableNode,
    UnsupportedAlgorithm,
)
from .estimator import TreeLabeler
from .generate import random_document, random_topology
from .intervals import bottom_up_intervals, median_down, top_down_labels
from .newick import (
    LabeledTreeDocument,
    TupleTreeDocument,
    document_to_newick,
    parse_newick,
    parse_newick_tuples,
    serialize_labeled,
    serialize_tuple_labeled,
)
from .oracle import OptimumSet, brute_force_min, optimal_label_sets
from .solve import choose_algorithm, solve_scalar
from .tree import Tree, build_tree, is_binary, postorder, preorder
from .tuples import solve_ktuple

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CostFunction",
    "CostTable",
    "CycleDetected",
    "DifferenceOutOfRange",
    "EmptyTree",
    "LabeledTreeDocument",
    "Labeling",
    "LeafLabeling",
    "MissingNodeLabel",
    "MultipleRoots",
    "NewickSyntaxError",
    "NoRoot",
    "NonIntegerLeafName",
    "OptimumSet",
    "Tree",
    "TreeLabelError",
    "TreeLabeler",
    "TupleDecompositionNotMonotone",
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
    "convex_down",
    "convex_up",
    "document_to_newick",
    "dp_down",
    "dp_up",
    "eval_total",
    "is_binary",
    "median_down",
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
    "solve_ktuple",
    "solve_scalar",
    "theta",
    "top_down_labels",
    "tuple_cost",
]
