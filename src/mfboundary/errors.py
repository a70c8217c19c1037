"""Exception types shared across the package.

Every error raised on bad user input or an unmet precondition derives from
MFBoundaryError, so callers (and the CLI) can catch one base class.  The
``kind`` attribute is a stable machine-readable name.
"""


class MFBoundaryError(Exception):
    kind = "Error"

    def payload(self) -> dict:
        return {"error": self.kind, "message": str(self)}


# -- arrangement layer ------------------------------------------------------

class IdenticalLines(MFBoundaryError):
    kind = "IdenticalLines"


class InvalidSize(MFBoundaryError):
    kind = "InvalidSize"


class InvalidIncidence(MFBoundaryError):
    kind = "InvalidIncidence"


# -- string computation -----------------------------------------------------

class NoSolution(MFBoundaryError):
    """The congruence defining a string graph has no admissible solution.

    Cannot occur for coprime input; surfaced defensively."""
    kind = "NoSolution"


# -- generic input problems -------------------------------------------------

class InvalidInput(MFBoundaryError):
    kind = "InvalidInput"


# -- pipeline ---------------------------------------------------------------

class NonIntegralEuler(MFBoundaryError):
    kind = "NonIntegralEuler"


class UnsupportedLoop(MFBoundaryError):
    kind = "UnsupportedLoop"


# -- graph / calculus -------------------------------------------------------

class UnknownVertex(MFBoundaryError):
    kind = "UnknownVertex"


class NotBlowdownable(MFBoundaryError):
    kind = "NotBlowdownable"


class NotAbsorbable(MFBoundaryError):
    kind = "NotAbsorbable"


class NotSplittable(MFBoundaryError):
    kind = "NotSplittable"


class NotApplicable(MFBoundaryError):
    kind = "NotApplicable"


# -- homology ---------------------------------------------------------------

class NonSimpleGraph(MFBoundaryError):
    kind = "NonSimpleGraph"


class MissingEuler(MFBoundaryError):
    kind = "MissingEuler"


# -- internal ---------------------------------------------------------------

class InternalError(MFBoundaryError):
    """An invariant the algorithms guarantee did not hold: a bug, not bad
    input.  Raised explicitly so the check survives ``python -O``."""
    kind = "InternalError"
