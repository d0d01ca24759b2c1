"""Exception hierarchy shared by all busfactor modules."""


class BusFactorError(Exception):
    """Base class for all domain errors raised by this package."""


# --- repository ingestion ---

class NotARepository(BusFactorError):
    """The given path has no git metadata."""


class GitInvocationFailure(BusFactorError):
    """A git subprocess failed; carries the captured diagnostics."""

    def __init__(self, command: str, returncode: int, stderr: str = ""):
        self.command = command
        self.returncode = returncode
        self.stderr = stderr.strip()
        detail = f"git exited {returncode}: {command}"
        if self.stderr:
            detail += f" ({self.stderr.splitlines()[0]})"
        super().__init__(detail)


class EmptyRepository(BusFactorError):
    """The repository has no commits on the current branch."""


class UnknownRevision(BusFactorError):
    """The requested revision does not resolve."""


class UnsupportedCommit(BusFactorError):
    """A commit's author has neither name nor email, or its author date
    lies outside years 1-9999: a record cannot hold it."""


class InvalidGlob(BusFactorError):
    """An exclusion pattern failed to parse."""


# --- cache ---

class SchemaMismatch(BusFactorError):
    """Cache was written with an incompatible schema version."""


class CorruptCache(BusFactorError):
    """Cache failed its checksum or format checks."""


class IoFailure(BusFactorError):
    """Underlying filesystem error while reading or writing a cache."""


# --- identity ---

class EmptyAuthorSet(BusFactorError):
    """Identity resolution was asked to partition an empty author set."""


class UnknownAuthor(BusFactorError):
    """Lookup of an author that was not present during resolution."""


# --- engines ---

class EmptyScope(BusFactorError):
    """No change records remain after scope/time/exclusion filtering."""


class ZeroDevelopers(BusFactorError):
    """No developer carries a positive contribution in the scope."""


class EmptySnapshot(BusFactorError):
    """A blame snapshot with no files was handed to the RIG engine."""


class EmptySpan(BusFactorError):
    """A trend was requested over an empty year span."""


class UnsupportedFormat(BusFactorError):
    """An unknown output format name was requested."""
