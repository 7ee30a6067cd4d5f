"""Named-array codec shared by datasets and checkpoints.

A block is a u32 array count, then per array: u16 name length + UTF-8 name,
u8 kind (0 real / 1 complex), u8 ndim, u64 dims, then the raw values as
little-endian 64-bit floats on any host, complex entries interleaved (real,
imag). Round-trips are bit-exact.

``write_named_arrays`` and ``read_named_arrays`` are the one route, for
checkpoints and dataset records alike: they stream a block through a binary
file one array at a time with a running CRC-32, so a block's CRC is computed
once on write and once on read, and no more than one array's bytes are held
beyond what the caller keeps. Reading rejects an array holding NaN or
infinity, which a CRC written over the bad values would not catch.

``replacing`` is how both kinds of file reach the disk: written whole
beside their target and only then renamed over it, so a write that fails
leaves no part of a file behind and whatever was there as it was.
"""

from __future__ import annotations

import contextlib
import math
import os
import secrets
import struct
import zlib

import numpy as np

KIND_REAL = 0
KIND_COMPLEX = 1
_WIRE = {KIND_REAL: np.dtype("<f8"), KIND_COMPLEX: np.dtype("<c16")}
_DRAIN_CHUNK = 1 << 20


def write_named_arrays(f, arrays: dict) -> tuple:
    """Write ``arrays`` as one block to binary file ``f``, converting one
    array at a time to its little-endian wire type; returns the CRC-32 and
    the byte count of what was written."""
    crc = size = 0

    def put(data):
        nonlocal crc, size
        f.write(data)
        crc = zlib.crc32(data, crc)
        size += memoryview(data).nbytes

    put(struct.pack("<I", len(arrays)))
    for name, value in arrays.items():
        nb = name.encode("utf-8")
        arr = np.asarray(value)
        kind = KIND_COMPLEX if np.iscomplexobj(arr) else KIND_REAL
        put(struct.pack(f"<H{len(nb)}sBB{arr.ndim}Q", len(nb), nb, kind, arr.ndim, *arr.shape))
        put(np.ascontiguousarray(arr, dtype=_WIRE[kind]))
    return crc, size


def read_named_arrays(f, size: int, dest=None) -> tuple:
    """Read a block of ``size`` bytes, as ``write_named_arrays`` writes one,
    from binary file ``f``; returns (arrays by name, CRC-32, error).

    ``dest(name, shape, dtype)`` may return a C-contiguous array of that
    shape for an array's values to be read straight into; otherwise, or when
    it returns None, the values go into a new array. No array is allocated
    beyond the bytes left in the block. The error is the ValueError the
    block earns (a cut or unknown record, bytes after the last array, NaN or
    infinity), or None. It is returned, not raised, after every one of the
    ``size`` bytes has been read into the CRC, so a caller can check the
    checksum before it reports anything that depends on the values.
    """
    left, crc = size, 0

    def take_into(buf):  # buf: a one-dimensional byte buffer
        nonlocal left, crc
        if len(buf) > left:
            raise ValueError("array block ends mid-record")
        got = f.readinto(buf)
        crc = zlib.crc32(buf[:got], crc)
        left -= got
        if got != len(buf):
            raise ValueError("array block ends mid-record")

    def take(n):
        buf = bytearray(n)
        take_into(buf)
        return buf

    arrays, error = {}, None
    try:
        (count,) = struct.unpack("<I", take(4))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2))
            name = take(name_len).decode("utf-8")
            kind, ndim = struct.unpack("<BB", take(2))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
            if kind not in _WIRE:
                raise ValueError(f"unknown array kind {kind}")
            dtype = _WIRE[kind]
            if math.prod(shape) * dtype.itemsize > left:
                raise ValueError("array block ends mid-record")
            out = dest(name, shape, dtype) if dest else None
            direct = out is not None and out.dtype == dtype and out.flags.c_contiguous
            wire = out if direct else np.empty(shape, dtype)
            take_into(wire.reshape(-1).view(np.uint8))
            if not np.isfinite(wire).all():
                raise ValueError(f"array {name!r} holds non-finite values")
            if out is not None and not direct:  # e.g. a host whose floats are big-endian
                out[...] = wire
            arrays[name] = out if out is not None else wire
        if left:
            raise ValueError("trailing bytes after the last array")
    except ValueError as exc:
        error = exc
    while left:
        chunk = f.read(min(left, _DRAIN_CHUNK))
        if not chunk:
            break
        crc = zlib.crc32(chunk, crc)
        left -= len(chunk)
    return arrays, crc, error


@contextlib.contextmanager
def replacing(path):
    """A new binary file beside ``path``, to be written in its place: it is
    renamed over ``path`` when the block ends and removed if the block
    raises. Its random name is created exclusively, so no other file is
    overwritten, with the permissions the umask gives a new file."""
    tmp = f"{os.fspath(path)}.{secrets.token_hex(8)}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


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
