import struct

import numpy as np
import pytest


@pytest.fixture
def write_idx():
    """A writer of an ``IdxDataset`` to an IDX image/label file pair, pixels
    re-quantized to bytes, so a load/write/load cycle is bit-exact."""

    def write(ds, images_path, labels_path):
        pixels = np.round(ds.images.T * 255.0).astype(np.uint8)
        with open(images_path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, ds.N, 28, 28))
            fh.write(pixels.tobytes())
        with open(labels_path, "wb") as fh:
            fh.write(struct.pack(">II", 0x801, ds.N))
            fh.write(ds.digit_labels.astype(np.uint8).tobytes())

    return write
