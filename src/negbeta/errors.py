"""Exception hierarchy shared by all negbeta modules.

Every error carries a machine-readable ``reason`` slug so the CLI can emit
structured error envelopes and map failures onto stable exit codes.
"""

from __future__ import annotations

# CLI exit codes: domain errors, undecidable-at-precision, inconclusive search.
EXIT_DOMAIN_ERROR = 2
EXIT_UNDECIDABLE = 3
EXIT_INCONCLUSIVE = 4


class NegBetaError(Exception):
    """Base class; ``reason`` is a stable machine-readable slug."""

    reason = "error"
    exit_code = EXIT_DOMAIN_ERROR

    def payload(self) -> dict:
        return {"reason": self.reason, "message": str(self)}


class MalformedPermutationError(NegBetaError):
    reason = "malformed-permutation"


class UndefinedLandmarksError(NegBetaError):
    reason = "undefined-landmarks"


class VariantUndefinedError(NegBetaError):
    reason = "variant-undefined"


class MalformedWordError(NegBetaError):
    reason = "malformed-word"


class MalformedBaseError(NegBetaError):
    reason = "malformed-base"


class UndefinedDerivedWordError(NegBetaError):
    reason = "undefined-derived-word"


class SupNotFixedError(NegBetaError):
    reason = "sup-not-fixed"


class PatternUndefinedError(NegBetaError):
    reason = "pattern-undefined"


class DegenerateExpansionError(NegBetaError):
    reason = "degenerate-expansion"


class ResourceLimitError(NegBetaError):
    reason = "resource-limit"


class InvariantError(NegBetaError):
    """A mathematical invariant of the construction failed to hold."""

    reason = "invariant-violated"


class UndecidableAtPrecisionError(NegBetaError):
    """Raised when interval refinement hits its budget undecided, as a floor
    still straddling an integer (carried for diagnostics) or a Perron test."""

    reason = "undecidable-at-precision"
    exit_code = EXIT_UNDECIDABLE

    def __init__(self, message: str, straddled: int | None = None):
        super().__init__(message)
        self.straddled = straddled

    def payload(self) -> dict:
        out = super().payload()
        out["straddled"] = self.straddled
        return out


class SearchInconclusiveError(NegBetaError):
    reason = "search-inconclusive"
    exit_code = EXIT_INCONCLUSIVE


class ConstructionFailedError(NegBetaError):
    """The permutation the inverse construction built does not map back to
    its word.

    Never raised silently: that one candidate permutation travels along for
    diagnosis.
    """

    reason = "construction-failed"

    def __init__(self, message: str, candidates: tuple = ()):
        super().__init__(message)
        self.candidates = candidates

    def payload(self) -> dict:
        out = super().payload()
        out["candidates"] = [str(c) for c in self.candidates]
        return out
