"""Named parameter store with a bit-exact binary serialization.

Format (`NDG1`, little-endian):

    magic 'NDG1' | u32 entry count | entries...
    entry: u16 name length | name utf-8 | u8 dtype code | u8 rank
           | u32 extent per rank | raw element bytes ('<f4' or '<f8')

A store reads back only what it writes: the names, dtypes, shapes and
order are its own, so every byte but the element bytes is known before
the blob is read.  Reads are safe to share across threads; writes
(training updates) are exclusive.  Optimizer state lives next to the
parameters at runtime but is not serialized.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .errors import FormatError
from .tensor import Tensor

MAGIC = b"NDG1"

DTYPES = (np.dtype("<f4"), np.dtype("<f8"))  # indexed by dtype code


def _entry_head(name: str, arr: np.ndarray) -> bytes:
    """Everything an entry holds before its element bytes."""
    raw = name.encode("utf-8")
    return (struct.pack("<H", len(raw)) + raw
            + struct.pack(f"<BB{arr.ndim}I", DTYPES.index(arr.dtype), arr.ndim, *arr.shape))


class ParamStore:
    """Ordered mapping of unique names to parameter tensors."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._params[name] = tensor
        return tensor

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC + struct.pack("<I", len(self._params)))
        for name, tensor in self._params.items():
            arr = tensor.data
            out += _entry_head(name, arr)
            out += np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
        return bytes(out)

    def load_bytes(self, blob: bytes) -> None:
        """Overwrite parameter values in place from `blob`, which must be
        exactly what `to_bytes` writes for this store's names, dtypes and
        shapes in its order; only the element bytes are read.

        Every entry is checked before any parameter is rebound, so a
        refused load leaves the store as it was.
        """
        stream = io.BytesIO(blob)

        def take(n: int, what: str) -> bytes:
            chunk = stream.read(n)
            if len(chunk) != n:
                raise FormatError(f"parameter store truncated in {what}")
            return chunk

        head = MAGIC + struct.pack("<I", len(self._params))
        if take(len(head), "its header") != head:
            raise FormatError(f"parameter store header mismatch: expected magic {MAGIC!r} "
                              f"and {len(self._params)} entries")
        arrays = []
        for i, (name, tensor) in enumerate(self._params.items()):
            arr = tensor.data
            head = _entry_head(name, arr)
            if take(len(head), f"entry {i}") != head:
                raise FormatError(f"parameter entry {i} mismatch: expected name {name!r}, "
                                  f"dtype {arr.dtype} and shape {arr.shape}")
            raw = take(arr.nbytes, f"parameter {name!r}")
            arrays.append(np.frombuffer(raw, arr.dtype.newbyteorder("<")).reshape(arr.shape).copy())
        trailing = len(blob) - stream.tell()
        if trailing:
            raise FormatError(f"{trailing} trailing bytes after parameter store")
        for tensor, arr in zip(self._params.values(), arrays):
            tensor.data = arr
