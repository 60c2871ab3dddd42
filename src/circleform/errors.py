"""Exception types shared across the package."""


class CircleFormError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(CircleFormError):
    """Inputs disagree on shape: mismatched lengths, wrong robot count, bad JSON layout."""


class ClassificationError(CircleFormError):
    """A classification operation was applied to a configuration outside its domain."""


class SymmetricConfigurationError(CircleFormError):
    """The configuration is rotationally symmetric, so the deterministic rule cannot
    break the tie.  Callers surface this as the Unsolvable verdict."""

    def __init__(self, fold: int):
        super().__init__(f"configuration has {fold}-fold rotational symmetry; unsolvable")
        self.fold = fold


class PreconditionError(CircleFormError):
    """A documented precondition of an operation was violated by the caller."""


class EmptyIntervalError(CircleFormError):
    """An open interval selection was requested with lo >= hi."""


class PatternError(CircleFormError):
    """The target pattern is rejected at ingestion (bad sum, non-positive entry,
    or a shape this rule set cannot finish)."""


class InvariantViolationError(CircleFormError):
    """An internal invariant that should hold by construction was observed broken."""


class GenerationError(CircleFormError):
    """Instance generation gave up after too many rejected samples."""


class TraceParseError(CircleFormError):
    """A trace file could not be parsed.  Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
