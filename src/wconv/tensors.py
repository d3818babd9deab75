"""Dense float64 tensors and the WCT1 binary format.

Arrays are plain numpy ndarrays in row-major (batch, channel, row, col)
layout, rank capped at 4.  The WCT1 file layout is: 4-byte magic ``WCT1``,
one u8 rank, ``rank`` little-endian u32 extents, then the payload as
little-endian IEEE-754 float64 values.  No padding, no checksum.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, ShapeError

MAGIC = b"WCT1"
MAX_RANK = 4


def as_tensor(data) -> np.ndarray:
    """Coerce to a float64 array of rank 1..4 with finite entries."""
    arr = np.asarray(data, dtype=np.float64)
    if not 1 <= arr.ndim <= MAX_RANK:
        raise ShapeError(f"rank {arr.ndim} unsupported, expected 1..{MAX_RANK}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite")
    return arr


def tensor_encode(tensor) -> bytes:
    """The WCT1 bytes of a tensor."""
    arr = as_tensor(tensor)
    header = MAGIC + struct.pack("<B", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def tensor_decode(blob: bytes) -> np.ndarray:
    """The float64 array that WCT1 bytes hold; round-trips bit-exactly."""
    if len(blob) < 5 or blob[:4] != MAGIC:
        raise FormatError("bad magic, not a WCT1 file")
    rank = blob[4]
    if not 1 <= rank <= MAX_RANK:
        raise FormatError(f"rank {rank} outside supported range 1..{MAX_RANK}")
    header_len = 5 + 4 * rank
    if len(blob) < header_len:
        raise FormatError("truncated header")
    dims = struct.unpack(f"<{rank}I", blob[5:header_len])
    count = 1
    for d in dims:
        count *= d
    if len(blob) != header_len + 8 * count:
        raise FormatError(
            f"payload size mismatch: header declares {count} values, "
            f"file holds {(len(blob) - header_len) // 8}"
        )
    data = np.frombuffer(blob, dtype="<f8", offset=header_len)
    data = data.astype(np.float64).reshape(dims)
    if not np.all(np.isfinite(data)):
        raise FormatError("payload contains non-finite values")
    return data


def tensor_write(tensor, path) -> None:
    """Write a tensor to ``path`` in the WCT1 format."""
    blob = tensor_encode(tensor)
    with open(path, "wb") as fh:
        fh.write(blob)


def tensor_read(path) -> np.ndarray:
    """Read a WCT1 file back into a float64 array; round-trips bit-exactly."""
    with open(path, "rb") as fh:
        return tensor_decode(fh.read())
