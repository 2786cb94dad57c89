"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shapes do not match the network or data layout."""


class DomainError(ValueError):
    """Scalar argument outside its mathematical domain."""


class ParseError(ValueError):
    """Malformed CSV or model file; message carries the location."""


class FrameError(ValueError):
    """Malformed frames: ragged, wrong width, non-integer or out-of-range."""
