"""Error types shared across the package."""


class EmptySetError(ValueError):
    """An operation that needs at least one token got an empty set."""


class SignatureMismatchError(ValueError):
    """Two signatures of different length were compared."""


class SketchMismatchError(ValueError):
    """Two sketches of different word count were compared."""


class EmptyBucketError(ValueError):
    """A bucket operation got zero members."""


class CapacityExceededError(ValueError):
    """A generator was asked for more token slots than the frequency caps allow."""


class TokenOverflowError(ValueError):
    """A token id does not fit in 32 bits."""


class ParseError(ValueError):
    """A dataset file line could not be parsed."""
