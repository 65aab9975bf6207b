"""Exception types shared across the package."""


class BsfanError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BsfanError, ValueError):
    """Malformed serialized input (bad JSON shape, bad rational, duplicate key)."""


class ValidationError(BsfanError, ValueError):
    """Structurally invalid value (negative entry where forbidden, non-monotone
    codimension sequence, nonpositive order weight, ...)."""


class EvaluatorRangeError(BsfanError):
    """An explicit-window evaluator was queried outside its declared range.

    ``twists`` lists the twists j that were needed but undeclared; each was
    needed at every index q = 0..``dimension``, so the message is as long
    as the list of twists, whatever the dimension.
    """

    def __init__(self, twists, dimension):
        self.twists = sorted(twists)
        self.dimension = dimension
        super().__init__(f"evaluator queried outside declared range at "
                         f"twists {self.twists}, q = 0..{dimension}")


class NotInCone(BsfanError):
    """A greedy decomposition got stuck: the input is not in the cone.

    Carries the pieces extracted so far plus what blocked the next step:
    either a strand with no compatible trim (``blocking_strand``) or an
    entry the one-variable split cannot place (``blocking_entry``).  Each
    attribute name is its key in the failure certificate, and they are set
    in the certificate's key order.
    """

    def __init__(self, message, partial_pieces=(), blocking_strand=None,
                 blocking_entry=None):
        self.partial_pieces = list(partial_pieces)
        self.blocking_strand = blocking_strand
        self.blocking_entry = blocking_entry
        super().__init__(message)


class MonadViolation(BsfanError):
    """The monad splitting produced an inconsistent central column, so the
    input table cannot come from a free monad.  The column is ``e_column``,
    as is its key in the failure certificate."""

    def __init__(self, message, e_column=None):
        self.e_column = e_column
        super().__init__(message)
