"""Exception hierarchy shared across the package.

An error's class sets the CLI's exit code: argparse's refusals and any
`UsageError` exit 2; any other `CbrnError`, an `OSError` or a `MemoryError`
exits 3.  A new class gets its code from the base it derives from.
"""


class CbrnError(Exception):
    """Base class for every error raised by this package."""


class DegeneratePattern(CbrnError):
    """Pattern has no dark pixel (or no positive component), so it has no unit-energy vector (or bitmap)."""


class DimensionMismatch(CbrnError):
    """Vector or bitmap dimensions disagree with what the operation expects."""


class PbmFormatError(CbrnError):
    """File is not a well-formed plain PBM bitmap."""


class CatalogError(CbrnError):
    """Attribute catalog violates the line format or index layout."""


class DuplicateEntry(CatalogError):
    """Catalog defines the same (group, index) or (group, label) twice."""


class UsageError(CbrnError):
    """The request names something the program cannot act on; the CLI exits 2."""


class EmptyLabel(UsageError):
    """Label text is empty."""


class LabelTooLong(UsageError):
    """Label does not fit in the fixed symbol capacity."""


class UnencodableLabel(UsageError):
    """Label holds a lone surrogate (as from a byte of argv that is not UTF-8), which has no UTF-8 form."""


class UnknownBall(UsageError):
    """Referenced Cue Ball id does not exist in the system."""


class NeuronIndexError(UsageError):
    """Cue neuron index is out of range for its ball."""


class IntraBallLink(UsageError):
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
