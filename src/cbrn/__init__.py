"""Attribute-wise associative memory over QR-coded label patterns.

Labels from an attribute catalog are rendered as fixed-size QR bitmaps,
stored by one-shot delta-rule learning between Cue Balls and a Recall Net,
and cross-linked between balls so that presenting one attribute's pattern
recalls the linked patterns of other attributes.
"""

from .errors import (
    CatalogError,
    CbrnError,
    DegeneratePattern,
    DimensionMismatch,
    DuplicateEntry,
    EmptyLabel,
    IntraBallLink,
    LabelTooLong,
    ModelFormatError,
    NeuronIndexError,
    NoAssociation,
    NoRecognition,
    NonFiniteWeight,
    PbmFormatError,
    UnknownBall,
    UnsupportedVersion,
)
from .galois import rs_encode, syndromes
from .memory import (
    AssociationResult,
    Ball,
    CueResponse,
    MemorySystem,
    SystemConfig,
    UpdateReport,
)
from .patterns import (
    AttributeCatalog,
    AttributeGroup,
    BinaryPattern,
    default_catalog,
    load_catalog,
    load_pbm,
    normalize,
    parse_catalog,
    save_pbm,
    to_pattern,
)
from .qr import QrMatrix, encode_label, random_pattern, render
from .store import load, loads, save, dumps

__version__ = "0.1.0"

__all__ = [
    "AssociationResult",
    "AttributeCatalog",
    "AttributeGroup",
    "Ball",
    "BinaryPattern",
    "CatalogError",
    "CbrnError",
    "CueResponse",
    "DegeneratePattern",
    "DimensionMismatch",
    "DuplicateEntry",
    "EmptyLabel",
    "IntraBallLink",
    "LabelTooLong",
    "MemorySystem",
    "ModelFormatError",
    "NeuronIndexError",
    "NoAssociation",
    "NoRecognition",
    "NonFiniteWeight",
    "PbmFormatError",
    "QrMatrix",
    "SystemConfig",
    "UnknownBall",
    "UnsupportedVersion",
    "UpdateReport",
    "default_catalog",
    "dumps",
    "encode_label",
    "load",
    "load_catalog",
    "load_pbm",
    "loads",
    "normalize",
    "parse_catalog",
    "random_pattern",
    "render",
    "rs_encode",
    "save",
    "save_pbm",
    "syndromes",
    "to_pattern",
]
