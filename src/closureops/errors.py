"""Exception hierarchy for closure-operator construction and checking.

Every error raised by this package derives from :class:`ClosureError`, so callers
can catch one type at the boundary.  Errors that carry mathematical witnesses
(an offending pair, a missing closed set, a failed validation report) expose them
as attributes for programmatic use; the message always names them too.
"""

from __future__ import annotations

__all__ = [
    "ClosureError",
    "GroundSetTooLarge",
    "GroundSetMismatch",
    "ForeignMask",
    "MissingEntry",
    "InvalidClosureTable",
    "MissingTopBottom",
    "NotIntersectionClosed",
    "NotClosed",
    "InvalidOrderRelation",
    "NotAChain",
    "BadEndpoints",
    "WitnessVerificationFailed",
    "AxiomsViolated",
    "DoesNotRespect",
    "SchemaError",
]


class ClosureError(Exception):
    """Base class for all errors raised by this package."""


class GroundSetTooLarge(ClosureError):
    """A ground set exceeds the supported size."""


class GroundSetMismatch(ClosureError):
    """Two values built over different ground sets were combined."""


class ForeignMask(ClosureError):
    """A subset refers to elements outside the ground set it claims to live in."""


class MissingEntry(ClosureError):
    """An operator table lacks an image for some subset."""


class InvalidClosureTable(ClosureError):
    """An operator table failed closure-axiom validation.

    Attributes:
        report: the full :class:`~closureops.core.ValidationReport`.
    """

    def __init__(self, report) -> None:
        self.report = report
        super().__init__(
            "table is not a closure operator: " + "; ".join(report.summary())
        )


class MissingTopBottom(ClosureError):
    """A closed-set family is missing the empty set or the ground set."""


class NotIntersectionClosed(ClosureError):
    """A set family is not closed under pairwise intersection.

    Attributes:
        witness: an offending pair (A, B) whose intersection is missing.
    """

    def __init__(self, a, b) -> None:
        self.witness = (a, b)
        super().__init__(
            f"family is not intersection-closed: {a.label()} ∩ {b.label()} is missing"
        )


class NotClosed(ClosureError):
    """A lattice operation was applied to a set outside the topology."""


class InvalidOrderRelation(ClosureError):
    """A relation handed to the poset constructor violates the order axioms."""


class NotAChain(ClosureError):
    """A purported chain is not strictly increasing under inclusion."""


class BadEndpoints(ClosureError):
    """A chain does not start at the empty set or does not end at the ground set."""


class WitnessVerificationFailed(ClosureError):
    """An internally constructed witness failed verification.

    This signals an implementation bug, never a user error.
    """


class AxiomsViolated(ClosureError):
    """A menu preference violates the flexibility or ordinal-submodularity axiom.

    Attributes:
        report: the full :class:`~closureops.menus.AxiomReport`.
    """

    def __init__(self, report) -> None:
        self.report = report
        super().__init__(
            "preference violates the menu axioms: " + "; ".join(report.summary())
        )


class DoesNotRespect(ClosureError):
    """A menu preference is not measurable with respect to a closure operator.

    Attributes:
        witness: a menu A with U(A) != U(f(A)).
    """

    def __init__(self, witness) -> None:
        self.witness = witness
        super().__init__(
            f"preference does not respect the operator: U({witness.label()}) differs "
            f"from the utility of its closure"
        )


class SchemaError(ClosureError):
    """A JSON document does not match the expected wire format."""
