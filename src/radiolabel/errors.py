"""Exception types shared across the package."""


class RadioLabelError(ValueError):
    """Base class for all errors raised by this package."""


class IndexOutOfRangeError(RadioLabelError):
    """A vertex, column, or block index is outside its valid range."""


class SelfLoopError(RadioLabelError):
    """An edge joins a vertex to itself."""


class DisconnectedError(RadioLabelError):
    """The graph is not connected; labeling operations require connectivity."""


class SizeLimitExceededError(RadioLabelError):
    """A constructed product would exceed the configured vertex cap."""


class ArityMismatchError(RadioLabelError):
    """Two coordinate tuples have different lengths."""


class InvalidParameterError(RadioLabelError):
    """A numeric parameter is outside its documented domain."""


class ParameterOutOfRangeError(InvalidParameterError):
    """A construction parameter violates the range the method is defined for."""


class KOutOfRangeError(InvalidParameterError):
    """The level k of a k-radio check is not in [1, diam]."""


class IncompleteLabelingError(RadioLabelError):
    """A labeling does not assign a positive label to every vertex."""


class TooLargeError(RadioLabelError):
    """The graph has more vertices than the distance cache holds."""
