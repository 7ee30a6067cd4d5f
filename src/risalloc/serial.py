"""Named-array codec shared by datasets and checkpoints.

Per array: u16 name length + UTF-8 name, u8 kind (0 real / 1 complex),
u8 ndim, u64 dims, then the raw values as little-endian 64-bit floats,
complex entries interleaved (real, imag). Round-trips are bit-exact.
Decoding rejects an array holding NaN or infinity, which a CRC written over
the bad values would not catch.
"""

from __future__ import annotations

import struct

import numpy as np

KIND_REAL = 0
KIND_COMPLEX = 1


def encode_named_arrays(arrays: dict) -> bytes:
    chunks = [struct.pack("<I", len(arrays))]
    for name, value in arrays.items():
        nb = name.encode("utf-8")
        arr = np.asarray(value)
        if np.iscomplexobj(arr):
            kind, data = KIND_COMPLEX, np.ascontiguousarray(arr, dtype="<c16").tobytes()
        else:
            kind, data = KIND_REAL, np.ascontiguousarray(arr, dtype="<f8").tobytes()
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<BB", kind, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(data)
    return b"".join(chunks)


def decode_named_arrays(payload: bytes) -> dict:
    mv = memoryview(payload)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(mv):
            raise ValueError("array block ends mid-record")
        out = mv[pos:pos + n]
        pos += n
        return out

    (count,) = struct.unpack("<I", take(4))
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        kind, ndim = struct.unpack("<BB", take(2))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        if kind == KIND_REAL:
            dtype, item = "<f8", 8
        elif kind == KIND_COMPLEX:
            dtype, item = "<c16", 16
        else:
            raise ValueError(f"unknown array kind {kind}")
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(take(size * item), dtype=dtype)
        if not np.isfinite(arr).all():
            raise ValueError(f"array {name!r} holds non-finite values")
        arrays[name] = arr.reshape(shape).copy()
    if pos != len(mv):
        raise ValueError("trailing bytes after the last array")
    return arrays


def misfits(arrays: dict, layout: dict) -> list:
    """Sorted names of the arrays missing from, extra to or not fitting
    ``layout``, which maps each name to (shape, is_complex); a None
    dimension takes any length."""
    def fits(name):
        (shape, is_complex), arr = layout[name], arrays[name]
        return (arr.ndim == len(shape) and np.iscomplexobj(arr) == is_complex
                and all(want in (None, got) for want, got in zip(shape, arr.shape)))
    return sorted(n for n in layout.keys() | arrays.keys()
                  if n not in layout or n not in arrays or not fits(n))
