"""The package's two error types, one per CLI exit code."""


class DomainError(ValueError):
    """A value a flag, a config entry or a function does not take (exit 1)."""


class ParseError(ValueError):
    """Input data that cannot be read; the message says where (exit 2)."""
