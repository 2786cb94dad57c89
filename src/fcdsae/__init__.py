"""Fuel-cell HFR health classification: sparse auto-encoder training in float64
and a bit-exact fixed-point inference engine suitable as a hardware golden model."""

__all__ = ["DomainError", "ParseError"]
__version__ = "0.1.0"


class DomainError(ValueError):
    """A value a flag, a config entry or a function does not take (exit 1)."""


class ParseError(ValueError):
    """Input data that cannot be read; the message says where (exit 2)."""
