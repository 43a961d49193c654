class TreelabError(Exception):
    """Base class for all errors raised by treelab."""


class ParseError(TreelabError):
    """Bad text input (trees, terms, formulas, data files); carries a position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class AlphabetMismatchError(TreelabError):
    """An operation was given values over incompatible ranked alphabets."""


class CapExceededError(TreelabError):
    """A construction grew past its explicit size cap; distinct from a negative verdict.
    ``stage`` names the construction, ``reached`` the size it reached and ``cap`` the cap."""

    def __init__(self, message: str, stage=None, reached=None, cap=None):
        super().__init__(message)
        self.stage, self.reached, self.cap = stage, reached, cap


class IncompatiblePartitionError(TreelabError):
    """A partition used as a congruence is not compatible with the operations."""
