"""Named parameter store with a bit-exact binary serialization.

Format (`NDG1`, little-endian):

    magic 'NDG1' | u32 entry count | entries...
    entry: u16 name length | name utf-8 | u8 dtype code | u8 rank
           | u32 extent per rank | raw element bytes ('<f4' or '<f8')

Reads are safe to share across threads; writes (training updates) are
exclusive.  Optimizer state lives next to the parameters at runtime but
is not serialized.
"""

from __future__ import annotations

import math
import struct
from typing import Iterator

import numpy as np

from .errors import FormatError
from .tensor import Tensor

MAGIC = b"NDG1"

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class ParamStore:
    """Ordered mapping of unique names to parameter tensors."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC)
        out += struct.pack("<I", len(self._params))
        for name, tensor in self._params.items():
            raw = name.encode("utf-8")
            arr = tensor.data
            code = _DTYPE_CODES.get(arr.dtype)
            if code is None:
                raise FormatError(f"parameter {name!r} has unsupported dtype {arr.dtype}")
            out += struct.pack("<H", len(raw))
            out += raw
            out += struct.pack("<BB", code, arr.ndim)
            out += struct.pack(f"<{arr.ndim}I", *arr.shape)
            out += np.ascontiguousarray(arr, dtype=_CODE_DTYPES[code]).tobytes()
        return bytes(out)

    def load_bytes(self, blob: bytes) -> None:
        """Overwrite parameter values in place from a serialized store.

        Names, shapes and dtypes must match this store's layout exactly.
        """
        entries = dict(parse_entries(blob))
        if set(entries) != set(self._params):
            missing = set(self._params) - set(entries)
            extra = set(entries) - set(self._params)
            raise FormatError(
                f"parameter name mismatch (missing={sorted(missing)}, extra={sorted(extra)})"
            )
        for name, tensor in self._params.items():
            arr = entries[name]
            if arr.shape != tensor.data.shape:
                raise FormatError(
                    f"parameter {name!r}: stored shape {arr.shape} != expected {tensor.data.shape}"
                )
            tensor.data = arr.astype(tensor.data.dtype, copy=False)
            if arr.dtype != tensor.data.dtype:
                raise FormatError(
                    f"parameter {name!r}: stored dtype {arr.dtype} != expected {tensor.data.dtype}"
                )


def parse_entries(blob: bytes) -> list[tuple[str, np.ndarray]]:
    """Decode an NDG1 blob into (name, array) pairs."""
    if blob[:4] != MAGIC:
        raise FormatError(f"bad parameter store magic {blob[:4]!r}")
    try:
        return _parse_entries(blob)
    except struct.error:
        raise FormatError("parameter store truncated") from None
    except UnicodeDecodeError:
        raise FormatError("parameter name is not UTF-8") from None


def _parse_entries(blob: bytes) -> list[tuple[str, np.ndarray]]:
    pos = 4
    (count,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    entries: list[tuple[str, np.ndarray]] = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        name = blob[pos : pos + name_len].decode("utf-8")
        pos += name_len
        code, rank = struct.unpack_from("<BB", blob, pos)
        pos += 2
        if code not in _CODE_DTYPES:
            raise FormatError(f"parameter {name!r}: unknown dtype code {code}")
        shape = struct.unpack_from(f"<{rank}I", blob, pos)
        pos += 4 * rank
        dtype = _CODE_DTYPES[code]
        nbytes = math.prod(shape) * dtype.itemsize
        raw = blob[pos : pos + nbytes]
        if len(raw) != nbytes:
            raise FormatError(f"parameter {name!r}: truncated payload")
        pos += nbytes
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        entries.append((name, arr))
    if pos != len(blob):
        raise FormatError(f"{len(blob) - pos} trailing bytes after parameter store")
    return entries
