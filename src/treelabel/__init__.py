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
one included, returns its answer as one record, Labeling: a list of the
labels by node id and the total cost.

The package loads lazily: importing it loads no submodule, and each
public name (or submodule, such as treelabel.dp) imports its defining
submodule on first use, so a command or script compiles and runs only
the modules it reaches.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule with the public names it defines
_EXPORTS = {
    "costs": (
        "CostFunction", "Labeling", "LeafLabeling", "TupleLeafLabeling",
        "eval_total", "theta", "tuple_cost",
    ),
    "dp": ("CostTable", "convex_down", "convex_up", "dp_down", "dp_up", "min_total"),
    "errors": (
        "BudgetExceeded", "CycleDetected", "DifferenceOutOfRange", "EmptyTree",
        "MissingNodeLabel", "MultipleRoots", "NewickSyntaxError", "NonIntegerLeafName",
        "NoRoot", "TreeLabelError", "TupleDecompositionNotMonotone",
        "TupleLengthMismatch", "TupleNotMonotone", "UnreachableNode",
        "UnsupportedAlgorithm",
    ),
    "estimator": ("TreeLabeler",),
    "generate": ("random_document", "random_topology"),
    "intervals": ("bottom_up_intervals", "median_down", "top_down_labels"),
    "newick": (
        "LabeledTreeDocument", "TupleTreeDocument", "document_to_newick", "parse_newick",
        "parse_newick_tuples", "serialize_labeled", "serialize_tuple_labeled",
    ),
    "oracle": ("OptimumSet", "brute_force_min", "optimal_label_sets"),
    "solve": ("choose_algorithm", "solve_scalar"),
    "tree": ("Tree", "build_tree", "is_binary", "postorder", "preorder"),
    "tuples": ("solve_ktuple",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Nothing is cached here: a name is read from its module on every
    # access, so a rebinding there (a test's patch, a tracer's wrapper)
    # shows through the package and is gone from it once undone.
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
