"""Attribute-wise associative memory over QR-coded label patterns.

Labels from an attribute catalog are rendered as fixed-size QR bitmaps,
stored by one-shot delta-rule learning between Cue Balls and a Recall Net,
and cross-linked between balls so that presenting one attribute's pattern
recalls the linked patterns of other attributes.

Importing the package loads only `cbrn.errors`.  Every public name is
resolved when it is first read (PEP 562): `cbrn.MemorySystem` imports
`cbrn.memory` then, and `from cbrn import encode_label` imports `cbrn.qr`
and `cbrn.galois`.  The package keeps no copy of a resolved name, so it
always gives the home module's current object.  `_EXPORTS` is the one
table of names, and `__all__` and `dir(cbrn)` come from it.
"""

import importlib

from . import errors  # noqa: F401  (loaded with the package: the exceptions every caller catches)

__version__ = "0.1.0"

# home module: the public names it gives the package
_EXPORTS = {
    "errors": "CatalogError CbrnError DegeneratePattern DimensionMismatch DuplicateEntry EmptyLabel"
              " IntraBallLink LabelTooLong ModelFormatError NeuronIndexError NoAssociation NoRecognition"
              " NonFiniteWeight PbmFormatError UnencodableLabel UnknownBall UnsupportedVersion UsageError",
    "galois": "rs_encode syndromes",
    "memory": "AssociationResult Ball CueResponse MemorySystem SystemConfig UpdateReport",
    "patterns": "AttributeCatalog AttributeGroup BinaryPattern default_catalog load_catalog load_pbm"
                " normalize parse_catalog save_pbm to_pattern",
    "qr": "QrMatrix encode_label random_pattern render",
    "store": "dumps load loads save",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
