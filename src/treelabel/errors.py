"""Exception hierarchy for treelabel.

Every error raised on purpose by this package derives from TreeLabelError,
so callers (and the CLI) can catch one base class. The class name doubles
as the machine-readable error code in CLI diagnostics ("error:<code>:..."),
and its ``exit_code`` is the CLI's exit status: 1 for a parse or
validation failure, 2 for a solver precondition failure.
"""


class TreeLabelError(Exception):
    """Base class for all treelabel errors."""

    exit_code = 1


# --- tree construction -------------------------------------------------- #

class NoRoot(TreeLabelError):
    """No node without a parent was given."""


class MultipleRoots(TreeLabelError):
    """More than one node without a parent was given."""


class CycleDetected(TreeLabelError):
    """A parent chain loops back on itself."""


class UnreachableNode(TreeLabelError):
    """A node cannot reach the root (e.g. its parent index is out of range)."""


# --- Newick I/O ---------------------------------------------------------- #

class NewickSyntaxError(TreeLabelError):
    """Malformed Newick text (unbalanced parens, missing ';', stray tokens)."""


class NonIntegerLeafName(TreeLabelError):
    """A leaf name could not be read as a decimal integer."""


class EmptyTree(TreeLabelError):
    """The Newick input contains no tree."""


class MissingNodeLabel(TreeLabelError):
    """A full labeling does not assign a value to some node."""


# --- cost model ---------------------------------------------------------- #

class DifferenceOutOfRange(TreeLabelError):
    """A custom cost table was indexed past its last entry."""


# --- solvers ------------------------------------------------------------- #

class UnsupportedAlgorithm(TreeLabelError):
    """The requested algorithm/cost/tie combination is not available."""

    exit_code = 2


class BudgetExceeded(TreeLabelError):
    """The brute-force search space exceeds the evaluation budget."""

    exit_code = 2


# the oracle's evaluation budget unless TREELABEL_BUDGET sets another; it
# lives beside its error so that the CLI's help names it without loading
# the oracle
DEFAULT_BUDGET = 10_000_000


# --- k-tuple labelings ---------------------------------------------------- #

class TupleNotMonotone(TreeLabelError):
    """A k-tuple label has a decreasing component pair."""


class TupleLengthMismatch(TreeLabelError):
    """Leaf tuples do not all have the same number of components."""


class TupleDecompositionNotMonotone(TreeLabelError):
    """Per-coordinate solving produced a decreasing tuple at some node.

    Carries enough context to reproduce the instance; the solver never
    repairs such a result silently.
    """

    exit_code = 2

    def __init__(self, message, node=None, coordinate=None, reproducer=None):
        super().__init__(message)
        self.node = node
        self.coordinate = coordinate
        self.reproducer = reproducer
