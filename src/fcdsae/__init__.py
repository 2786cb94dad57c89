"""Fuel-cell HFR health classification: sparse auto-encoder training in float64
and a bit-exact fixed-point inference engine suitable as a hardware golden model."""

from fcdsae.errors import DomainError, ParseError

__all__ = ["DomainError", "ParseError"]
__version__ = "0.1.0"
