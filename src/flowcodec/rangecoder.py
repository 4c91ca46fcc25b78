"""Byte-oriented range coder and integer frequency tables.

The coder keeps a 64-bit low (33 significant bits ahead of the carry),
a 32-bit range, and a pending-byte pipeline that resolves carries into
already-buffered output (the cache plus a run of 0xFF placeholders).
Every span is a part of exactly 2^16, so the range never drops below
the total between renormalizations.

A whole slice of symbols, each under its own table, goes through
`encode_symbols` / `decode_symbols`: numpy gathers every span and
escape flag of the slice up front, and one tight loop with locals only
codes them (the decoder bisects each symbol's table starts for its
slot).  `RangeEncoder` and `RangeDecoder` are per-symbol front ends for
callers that code one symbol at a time; the encoder collects symbols
and runs `encode_symbols` at `finish()`.

Tables map a contiguous integer symbol range [k_min, k_max] plus one
escape slot to integer frequencies, stored as uint16 cumulative starts:
every in-range symbol keeps at least one count so anything that occurs
is codable, and the escape slot is always the last count,
[TOTAL - 1, TOTAL).  An escape is followed in the stream by the raw
signed 32-bit symbol value, as two uniform 16-bit halves (high first).

Tables are immutable once built and may be shared by any number of
threads; one coder state per stream, single-threaded per stream.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, NumericError

TOTAL_BITS = 16
TOTAL = 1 << TOTAL_BITS
TOP = 1 << 24
MASK32 = 0xFFFFFFFF
ESCAPE_CUM = TOTAL - 1  # start of every table's escape slot

MAX_SYMBOLS = 1 << 15  # table width guard; wider ranges go through escapes
RAW_MIN, RAW_MAX = -(1 << 31), (1 << 31) - 1  # escaped symbols must fit 32 bits


class FrequencyTable:
    """Integer frequencies over [k_min, k_max] plus a trailing escape slot.

    `starts[i]` is the cumulative count before slot i; the escape slot is
    the last one and starts at TOTAL - 1.
    """

    __slots__ = ("k_min", "starts")

    def __init__(self, k_min: int, freqs: np.ndarray):
        freqs = np.asarray(freqs)
        if int(freqs.sum()) != TOTAL:
            raise NumericError(f"frequencies sum to {int(freqs.sum())}, need {TOTAL}")
        if freqs[-1] != 1 or freqs.min() < 1:
            raise NumericError("every frequency must be at least one and the escape exactly one")
        self.k_min = int(k_min)
        starts = np.zeros(len(freqs), dtype=np.uint16)
        np.cumsum(freqs[:-1], out=starts[1:], dtype=np.uint16)
        self.starts = array("H", starts.tobytes())

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.starts) - 2

    @property
    def escape_index(self) -> int:
        return len(self.starts) - 1

    @property
    def cum(self) -> np.ndarray:
        """Cumulative counts, one per slot plus the closing TOTAL."""
        out = np.empty(len(self.starts) + 1, dtype=np.uint32)
        out[:-1] = self.starts
        out[-1] = TOTAL
        return out

    @property
    def freqs(self) -> np.ndarray:
        return np.diff(self.cum)

    def index_of(self, k: int) -> int:
        """Table slot of symbol k; the escape slot if out of range."""
        if self.k_min <= k <= self.k_max:
            return k - self.k_min
        return self.escape_index

    def span(self, index: int) -> tuple[int, int]:
        c0 = self.starts[index]
        return c0, (TOTAL if index == self.escape_index else self.starts[index + 1]) - c0


def build_freq_table(probs: np.ndarray, k_min: int) -> FrequencyTable:
    """Quantize positive bin probabilities to integer counts totalling 2^16.

    One count goes to the escape slot first; every in-range symbol gets a
    one-count floor; the remaining mass is distributed by largest
    remainder, ties resolved to the lower index first.  Deterministic for
    identical float inputs.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.size
    if n == 0:
        raise NumericError("cannot build a table over zero symbols")
    if n > MAX_SYMBOLS:
        raise NumericError(f"table of {n} symbols exceeds the {MAX_SYMBOLS} guard")
    if np.any(probs <= 0) or not np.all(np.isfinite(probs)):
        raise NumericError("probabilities must be positive and finite")

    budget = TOTAL - 1 - n  # escape count and per-symbol floors reserved
    p = probs / probs.sum()
    ideal = p * budget
    base = np.floor(ideal)
    deficit = budget - int(base.sum())
    counts = base.astype(np.uint32) + 1
    if deficit:
        order = np.argsort(-(ideal - base), kind="stable")
        counts[order[:deficit]] += 1
    freqs = np.empty(n + 1, dtype=np.uint32)
    freqs[:n] = counts
    freqs[n] = 1
    return FrequencyTable(k_min, freqs)


def _shift_low(low: int, cache: int, pending: int, out: bytearray) -> tuple[int, int, int]:
    """Move the top byte of low out, resolving a carry into pending bytes."""
    if low < 0xFF000000 or low > MASK32:
        carry = low >> 32
        out.append((cache + carry) & 0xFF)
        if pending:
            out += bytes(((0xFF + carry) & 0xFF,)) * pending
        return (low << 8) & MASK32, (low >> 24) & 0xFF, 0
    return (low << 8) & MASK32, cache, pending + 1


def _encode_spans(cums: Iterable[int], freqs: Iterable[int]) -> bytes:
    """Range-code the spans [cum, cum + freq) of TOTAL in order and flush."""
    low, rng, cache, pending = 0, MASK32, 0, 0
    out = bytearray()
    for cum, freq in zip(cums, freqs):
        r = rng >> TOTAL_BITS
        low += r * cum
        rng = r * freq
        while rng < TOP:
            low, cache, pending = _shift_low(low, cache, pending, out)
            rng <<= 8
    for _ in range(5):
        low, cache, pending = _shift_low(low, cache, pending, out)
    return bytes(out)


def _decode_slots(data: bytes, tables: Sequence[Sequence[int]], table_of: Iterable[int],
                  context: str) -> tuple[array, list[int]]:
    """Decode one symbol per entry of `table_of` under the table whose
    starts are tables[entry]; returns the slot of every symbol and, in
    stream order, the raw value that follows each escape slot."""
    if len(data) < 5:
        raise FormatError(f"truncated {context}: range coder ran out of bytes")
    code, pos, rng = int.from_bytes(data[1:5], "big"), 5, MASK32  # byte 0: initial cache
    slots = array("H")
    raws: list[int] = []
    try:
        for u in table_of:
            starts = tables[u]
            r = rng >> TOTAL_BITS
            i = bisect_right(starts, code // r) - 1
            c0 = starts[i]
            code -= c0 * r
            rng = r if c0 == ESCAPE_CUM else r * (starts[i + 1] - c0)
            while rng < TOP:
                code = (code << 8) | data[pos]
                pos += 1
                rng <<= 8
            slots.append(i)
            if c0 == ESCAPE_CUM:
                v = 0
                for _ in range(2):
                    r = rng >> TOTAL_BITS
                    half = min(code // r, TOTAL - 1)
                    code -= half * r
                    rng = r
                    while rng < TOP:
                        code = (code << 8) | data[pos]
                        pos += 1
                        rng <<= 8
                    v = (v << TOTAL_BITS) | half
                raws.append(v - ((v >> 31) << 32))
    except IndexError:
        raise FormatError(f"truncated {context}: range coder ran out of bytes") from None
    return slots, raws


def encode_symbols(symbols: np.ndarray, table_of: np.ndarray,
                   tables: Sequence[FrequencyTable]) -> bytes:
    """Range-code symbols[i] under tables[table_of[i]], in order, and flush."""
    sizes = np.array([len(t.starts) for t in tables], dtype=np.int64)
    base = np.concatenate(([0], np.cumsum(sizes)))[table_of]
    starts = np.frombuffer(b"".join(t.starts for t in tables) + bytes(2), dtype=np.uint16)
    last = sizes[table_of] - 1  # escape slot
    slot = symbols - np.array([t.k_min for t in tables], dtype=np.int64)[table_of]
    escape = (slot < 0) | (slot >= last)
    slot = np.where(escape, last, slot) + base
    cums = starts[slot].astype(np.int64)
    freqs = np.where(escape, 1, starts[slot + 1] - cums)
    if escape.any():
        raw = symbols[escape]
        if raw.min() < RAW_MIN or raw.max() > RAW_MAX:
            raise NumericError(f"escaped symbols span [{raw.min()}, {raw.max()}], "
                               "beyond 32 bits")
        # each escape slot is followed by the raw value's two 16-bit halves
        at = np.arange(len(symbols)) + 2 * (np.cumsum(escape) - escape)
        spans = np.ones((2, len(symbols) + 2 * len(raw)), dtype=np.int64)
        spans[0, at], spans[1, at] = cums, freqs
        raw = raw & MASK32
        spans[0, at[escape] + 1] = raw >> TOTAL_BITS
        spans[0, at[escape] + 2] = raw & (TOTAL - 1)
        cums, freqs = spans
    return _encode_spans(memoryview(cums.astype(np.uint16)), memoryview(freqs.astype(np.uint16)))


def decode_symbols(data: bytes, table_of: np.ndarray, tables: Sequence[FrequencyTable],
                   context: str) -> np.ndarray:
    """Mirror of `encode_symbols`: one int64 symbol per entry of table_of."""
    slots, raws = _decode_slots(data, [t.starts for t in tables],
                                memoryview(table_of.astype(np.int64)), context)
    slot = np.frombuffer(slots, dtype=np.uint16).astype(np.int64)
    escape = slot == np.array([t.escape_index for t in tables], dtype=np.int64)[table_of]
    out = np.array([t.k_min for t in tables], dtype=np.int64)[table_of] + slot
    out[escape] = raws
    return out


class RangeEncoder:
    """Per-symbol front end of `encode_symbols`: collects symbols and codes
    them at `finish()`, which returns the bytes."""

    def __init__(self) -> None:
        self._symbols: list[int] = []
        self._table_of: list[int] = []
        self._tables: dict[int, tuple[int, FrequencyTable]] = {}  # id -> (index, table)
        self._payload: bytes | None = None

    def encode_symbol(self, table: FrequencyTable, k: int) -> None:
        """Code symbol k under the table, escaping out-of-range values."""
        if self._payload is not None:
            raise RuntimeError("encoder already finished")
        self._symbols.append(k)
        self._table_of.append(self._tables.setdefault(id(table), (len(self._tables), table))[0])

    def finish(self) -> bytes:
        if self._payload is None:
            self._payload = encode_symbols(np.array(self._symbols, dtype=np.int64),
                                           np.array(self._table_of, dtype=np.int64),
                                           [table for _, table in self._tables.values()])
        return self._payload


class RangeDecoder:
    """Per-symbol mirror of the encoder over a byte payload; raises on
    truncation."""

    def __init__(self, data: bytes, context: str = "payload") -> None:
        self.data = data
        self.pos = 0
        self.context = context
        self.range = MASK32
        self._next_byte()  # the encoder's initial cache byte
        self.code = 0
        for _ in range(4):
            self.code = (self.code << 8) | self._next_byte()

    def _next_byte(self) -> int:
        if self.pos >= len(self.data):
            raise FormatError(f"truncated {self.context}: range coder ran out of bytes")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def _advance(self, r: int, cum: int, freq: int) -> None:
        self.code -= cum * r
        self.range = r * freq
        while self.range < TOP:
            self.code = (self.code << 8) | self._next_byte()
            self.range <<= 8

    def decode_symbol(self, table: FrequencyTable) -> int:
        r = self.range >> TOTAL_BITS
        index = bisect_right(table.starts, self.code // r) - 1
        self._advance(r, *table.span(index))
        if index != table.escape_index:
            return table.k_min + index
        v = 0
        for _ in range(2):
            r = self.range >> TOTAL_BITS
            half = min(self.code // r, TOTAL - 1)
            self._advance(r, half, 1)
            v = (v << TOTAL_BITS) | half
        return v - ((v >> 31) << 32)
