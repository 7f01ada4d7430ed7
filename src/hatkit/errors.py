"""Exception hierarchy shared by all hatkit modules."""


class HatkitError(Exception):
    """Base class for all errors raised by hatkit."""


# -- permutation / group errors ------------------------------------------------

class DegreeMismatchError(HatkitError):
    """Permutations of different degrees were combined."""


class BadPermutationError(HatkitError):
    """An image list is not a bijection on 0..n-1."""


# -- graph errors --------------------------------------------------------------

class LoopEdgeError(HatkitError):
    """Edge list contains a loop (u, u)."""


class DuplicateEdgeError(HatkitError):
    """Edge list contains a repeated edge."""


class DisconnectedError(HatkitError):
    """Operation requires a connected graph."""


class NotAutomorphismError(HatkitError):
    """A supposed generator does not preserve the edge set."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"generator {index} is not an automorphism")


class NotVertexTransitiveError(HatkitError):
    pass


class NotEdgeTransitiveError(HatkitError):
    pass


class ArcTransitiveError(HatkitError):
    """The pair (graph, group) is arc-transitive, hence not half-arc-transitive."""


# -- construction errors -------------------------------------------------------

class InvalidParamsError(HatkitError):
    """Family parameters violate a defining constraint."""


class NotInverseClosedError(HatkitError):
    pass


class ContainsZeroError(HatkitError):
    pass


class NoSolutionError(HatkitError):
    """No parameter set matches the given invariants."""


# -- alternating-structure errors ----------------------------------------------

class UnequalCycleLengthsError(HatkitError):
    """Alternating cycles of differing lengths: the orientation is not induced
    by any half-arc-transitive group action."""


class AlternatingStructureError(HatkitError):
    """The orientation violates a structural assumption (e.g. a vertex repeats
    on a single alternating cycle)."""


class NotCyclePreservingError(HatkitError):
    """Permutation does not fix every alternating cycle setwise."""


class PreconditionFailedError(HatkitError):
    """An operation's stated precondition does not hold for this input."""


class WellDefinednessFailureError(HatkitError):
    """The two labels of some vertex disagree; signals a bug, since the
    underlying construction is proved to be well defined."""


# -- quotient errors -----------------------------------------------------------

class TooFewCyclesError(HatkitError):
    """The alternating-cycle graph needs at least three cycles."""


class BlocksNotInvariantError(HatkitError):
    """A generator does not permute the given blocks."""


class InconsistentError(HatkitError):
    """Observed kernel structure contradicts the classification table."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"inconsistent with classification: {witness}")


# -- search / IO errors --------------------------------------------------------

class SearchBudgetExceededError(HatkitError):
    """Backtracking search exceeded its node budget."""


class ParseError(HatkitError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
