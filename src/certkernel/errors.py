"""Exception types shared across the kernel, frontends and oracle."""

from __future__ import annotations


class CertKernelError(Exception):
    """Base class for every error this package raises deliberately."""


class SortError(CertKernelError):
    """A term node was built from children of the wrong sorts."""


class ParseError(CertKernelError):
    """Malformed input text. Carries a 1-based line and column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line:
            return f"line {self.line}, col {self.col}: {self.message}"
        return self.message


class UnsupportedError(ParseError):
    """Input uses a feature outside the supported fragment."""


class ForwardReferenceError(ParseError):
    """A certificate step references a clause id not yet defined."""


class UnboundNameError(CertKernelError):
    """A nested proof references a lemma name that is not bound."""


class ResourceError(CertKernelError):
    """An oracle enumeration would exceed its configured budget."""


class IncompleteModelError(CertKernelError):
    """A model does not cover a symbol the evaluator needs."""

    def __init__(self, symbol: str):
        super().__init__(f"model does not cover symbol: {symbol}")
        self.symbol = symbol
