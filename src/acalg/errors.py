"""Exception hierarchy for the engine.

Every domain failure raises a subclass of :class:`EngineError` so the CLI can
map engine errors to exit code 1 uniformly.  Syntax errors from the expression
parser carry source positions and are mapped to exit code 2.
"""


class EngineError(Exception):
    """Base class for all domain errors raised by the engine."""


class NonHomogeneousOperand(EngineError):
    """An operation required a homogeneous element but got mixed degrees."""


class NotInSubalgebra(EngineError):
    """An element was expected to lie in the word subalgebra B but does not."""

    def __init__(self, offending):
        self.offending = tuple(offending)
        names = ", ".join(str(m) for m in self.offending)
        super().__init__(f"element has terms outside B: {names}")


class InvalidDegree(EngineError):
    """A degree argument was outside the operation's admissible range."""


class OutOfDomain(EngineError):
    """A derivation was applied to something outside its defining domain."""


class NotADifferential(EngineError):
    """Cohomology was requested for an element a with [a, a] != 0."""


class NotWellDefined(EngineError):
    """An induced map failed to preserve kernels or images."""


class InternalInconsistency(EngineError):
    """Two independent computations of the same fact disagreed."""


class DegeneratePoint(EngineError):
    """A parameter point where the requested construction degenerates."""


class UnverifiedRep(EngineError):
    """Multi-word action requested on a representation that fails relations."""


class IdealNotKilled(EngineError):
    """A quotient construction requires the ideal to act by zero."""


class LabelClash(EngineError):
    """Two representation summands share a vector label."""


class RepFormatError(EngineError):
    """A representation file violates the JSON schema."""


class NumberTooLong(EngineError):
    """A result holds a number with more digits than Python writes as text."""


class ExprSyntaxError(EngineError):
    """Syntax error in an operator expression, with source position."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")
