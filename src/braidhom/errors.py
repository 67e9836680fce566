"""Exception types shared across the library."""


class BraidhomError(Exception):
    """Base class for every error raised by this package."""


class AlphabetMismatchError(BraidhomError):
    """A letter references a generator outside the active alphabet."""


class PresentationParseError(BraidhomError):
    """Malformed presentation text.  Carries the one-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class PreconditionError(BraidhomError):
    """An operation received input that fails its validation contract."""


class OutOfScopeError(BraidhomError):
    """The requested space or parameter range is outside the supported cases."""


class OutOfRangeError(BraidhomError):
    """A numeric parameter is outside the range a formula is stated for."""


class InputError(BraidhomError):
    """Malformed user input: CLI arguments, JSON payloads, file contents."""
