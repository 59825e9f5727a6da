"""Exception types shared across the package."""


class GradedAlgError(Exception):
    """Base class for all errors raised by gradedalg."""


class InvalidDescriptor(GradedAlgError):
    """A group/ring/module descriptor is malformed (bad modulus, non-prime p, ...)."""


class _AxiomFailure(GradedAlgError):
    """A proposed object violates one of its axioms; carries the failed axiom
    name and a witnessing tuple.  Each subclass names its object as ``what``."""

    def __init__(self, axiom, witness=None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{self.what} invalid: {axiom} (witness: {witness!r})")


class GradingInvalid(_AxiomFailure):
    """A proposed grading violates one of its axioms."""

    what = "grading"


class PreconditionViolation(GradedAlgError):
    """An operation was called outside its stated domain."""


class TooLarge(GradedAlgError):
    """A carrier exceeds the configured size cap for exhaustive work."""


class HomInvalid(_AxiomFailure):
    """A proposed module map is not an additive, linear, degree-preserving hom."""

    what = "hom"


class InvalidDenominators(GradedAlgError):
    """A localization set is not multiplicative, not homogeneous, or misses 1."""


class StructureParseError(GradedAlgError):
    """A structure-description file is malformed; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownProposition(GradedAlgError):
    """An unrecognized proposition id was requested."""
