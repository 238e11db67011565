"""Decode test symbols with readers that share no code with `cbrn`.

The benchmark's version-3-L reader, `bench/qrread.py`, has its own GF(256)
arithmetic, format words and placement, and decodes every symbol; OpenCV's
detector decodes them too when `cv2` can be imported.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cbrn import qr
from test_qr import ALL_LABELS

try:
    import cv2
except ImportError:
    cv2 = None

# loaded by its path, so the test needs no `bench` on sys.path
_spec = importlib.util.spec_from_file_location("bench_qrread", Path(__file__).parents[1] / "bench" / "qrread.py")
qrread = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(qrread)

SCALE = 8


def decode(matrix) -> str:
    """The label every reader finds in the rendered symbol; the readers must agree."""
    pattern = qr.render(matrix, SCALE)
    text, mask = qrread.read_bitmap(pattern.bits, SCALE)
    assert mask == matrix.mask
    if cv2 is not None:
        image = ((1 - pattern.bits) * 255).astype(np.uint8)
        image = np.pad(image, 4 * SCALE, constant_values=255)  # quiet zone for the detector
        assert cv2.QRCodeDetector().detectAndDecode(image)[0] == text
    return text


@pytest.mark.parametrize("label", ALL_LABELS)
def test_reader_decodes_label(label):
    assert decode(qr.encode_label(label)) == label


@pytest.mark.parametrize("mask", range(8))
def test_reader_decodes_every_mask(mask):
    assert decode(qr.encode_label("red", mask=mask)) == "red"


def test_reader_decodes_full_capacity():
    label = "x" * 53
    assert decode(qr.encode_label(label)) == label
