"""Shared exception types, and the one shape check of P^(n|m)."""


class SuperprojError(Exception):
    """Base class for all errors raised by this package."""


class ContextError(SuperprojError):
    """Operands live in different variable contexts, or a variable is unknown."""


class ParityError(SuperprojError):
    """A homogeneous (even or odd) element was required."""


class DomainError(SuperprojError):
    """Input outside the mathematical domain of the operation."""


class InvariantError(SuperprojError):
    """A computed result broke an identity it must satisfy (an engine fault)."""


class ParseError(SuperprojError):
    """Syntax error in the expression grammar, with a byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def check_pnm(n: int, m: int) -> None:
    """The shape check of P^(n|m), said once for every entry point."""
    if n < 1 or m < 0:
        raise DomainError("need n >= 1 and m >= 0")
