"""Exception hierarchy shared across the package."""


class CbrnError(Exception):
    """Base class for every error raised by this package."""


class DegeneratePattern(CbrnError):
    """Pattern has no dark pixel (or no positive component) and cannot be normalized."""


class DimensionMismatch(CbrnError):
    """Vector or bitmap dimensions disagree with what the operation expects."""


class PbmFormatError(CbrnError):
    """File is not a well-formed plain PBM bitmap."""


class CatalogError(CbrnError):
    """Attribute catalog violates the line format or index layout."""


class DuplicateEntry(CatalogError):
    """Catalog defines the same (group, index) or (group, label) twice."""


class EmptyLabel(CbrnError):
    """Label text is empty."""


class LabelTooLong(CbrnError):
    """Label does not fit in the fixed symbol capacity."""


class UnknownBall(CbrnError):
    """Referenced Cue Ball id does not exist in the system."""


class NeuronIndexError(CbrnError):
    """Cue neuron index is out of range for its ball."""


class IntraBallLink(CbrnError):
    """Cross links may only connect neurons in different Cue Balls."""


class NoRecognition(CbrnError):
    """No cue neuron fired for the presented pattern."""


class NoAssociation(CbrnError):
    """No trained cross link fired in the target ball."""


class NonFiniteWeight(CbrnError):
    """A learning step overflowed and would store an inf or nan weight."""


class ModelFormatError(CbrnError):
    """Model file is malformed or truncated."""


class UnsupportedVersion(ModelFormatError):
    """Model file magic is not the supported format tag."""
