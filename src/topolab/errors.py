"""Exception types shared across the library."""


class TopolabError(Exception):
    """Base class for all library errors."""


class ValidationError(TopolabError):
    """An input value violates a construction axiom; the message names it."""


class DslError(ValidationError):
    """A space document failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResourceCapError(TopolabError):
    """A computation would exceed a configured resource cap.

    The message names the `Caps` field, the value that was hit, and the
    TOPOLAB_CAP setting that lifts it; `need` is the smallest value that
    would do, when it is known.
    """

    def __init__(self, what: str, cap: str, limit: int, need: int | None = None):
        setting = f"{cap}={need}" if need is not None else f"{cap}=N with N > {limit}"
        super().__init__(f"{what} exceeds {cap} {limit}; "
                         f"TOPOLAB_CAP={setting} lifts it")


class ContractViolation(TopolabError):
    """A verified mathematical contract failed; this signals a real violation,
    not bad input."""


class UnsupportedSpaceError(TopolabError):
    """A symbolic operation was asked for a (space, operation) combination
    outside the closed world of supported descriptors."""
