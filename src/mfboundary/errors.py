"""Exception types shared across the package.

Every error raised on bad user input or an unmet precondition derives from
MFBoundaryError, so callers (and the CLI) can catch one base class.  The
``kind`` attribute is a stable machine-readable name.  Beside the types,
reject_unknown_keys is the one rule every JSON reader applies to the keys
of an object it reads, and file_error turns an OSError met on a path into
one of the package's errors.
"""


class MFBoundaryError(Exception):
    kind = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__

    def payload(self) -> dict:
        return {"error": self.kind, "message": str(self)}


# -- arrangement layer ------------------------------------------------------

class IdenticalLines(MFBoundaryError): pass
class InvalidSize(MFBoundaryError): pass
class InvalidIncidence(MFBoundaryError): pass


# -- string computation -----------------------------------------------------

class NoSolution(MFBoundaryError):
    """The congruence defining a string graph has no admissible solution.

    Cannot occur for coprime input; surfaced defensively."""


# -- generic input problems -------------------------------------------------

class InvalidInput(MFBoundaryError): pass


def reject_unknown_keys(obj: dict, known: tuple[str, ...], what: str) -> None:
    """Raise naming the keys of obj outside ``known``: a misspelt key would
    otherwise be read as a missing one."""
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise InvalidInput(f"unknown {what} keys {unknown}")


# -- files ------------------------------------------------------------------

class FileError(MFBoundaryError): pass  # a path that cannot be read or written
class FileNotFound(FileError): pass


def file_error(exc: OSError) -> FileError:
    """The package's error for an OSError met on a path, its message kept."""
    return (FileNotFound if isinstance(exc, FileNotFoundError) else FileError)(str(exc))


# -- pipeline ---------------------------------------------------------------

class NonIntegralEuler(MFBoundaryError): pass
class UnsupportedLoop(MFBoundaryError): pass


# -- graph / calculus -------------------------------------------------------

class UnknownVertex(MFBoundaryError): pass
class NotBlowdownable(MFBoundaryError): pass
class NotAbsorbable(MFBoundaryError): pass
class NotSplittable(MFBoundaryError): pass
class NotApplicable(MFBoundaryError): pass


# -- homology ---------------------------------------------------------------

class NonSimpleGraph(MFBoundaryError): pass
class MissingEuler(MFBoundaryError): pass


# -- internal ---------------------------------------------------------------

class InternalError(MFBoundaryError):
    """An invariant the algorithms guarantee did not hold: a bug, not bad
    input.  Raised explicitly so the check survives ``python -O``."""
