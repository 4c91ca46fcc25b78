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
slot).  `RangeEncoder` / `RangeDecoder` feed that one path a symbol at
a time.  A payload that pushes the decoder's code value out of its
interval, which only the escape slot can do, is corrupt.

Tables map a contiguous integer symbol range from k_min plus one
escape slot to integer frequencies, stored as uint16 cumulative starts:
every in-range symbol keeps at least one count so anything that occurs
is codable, and the escape slot is always the last count,
[TOTAL - 1, TOTAL).  An escape is followed in the stream by the raw
signed 32-bit symbol value, as two uniform 16-bit halves (high first).
`build_freq_tables` quantizes many probability rows in one vectorized
pass, each row to the table it would get alone; `build_freq_table` is
its one-row case.  A section's code ends exactly where its bytes end,
so bytes after it make the section corrupt.

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
    """Integer frequencies over symbols from k_min plus a trailing escape slot.

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


def build_freq_table(probs: np.ndarray, k_min: int) -> FrequencyTable:
    """The one-row case of `build_freq_tables`."""
    return build_freq_tables([probs], [k_min])[0]


def build_freq_tables(rows: Sequence[np.ndarray], k_mins: Sequence[int]) -> list[FrequencyTable]:
    """Quantize rows of positive bin probabilities to integer counts
    totalling 2^16 each, row i over the symbols from k_mins[i].

    Per row, one count goes to the escape slot first; every in-range
    symbol gets a one-count floor; the remaining mass is distributed by
    largest remainder, ties resolved to the lower index first.  All rows
    go through one vectorized pass, and each row's table equals the one
    it gets alone: its sum is taken over its own slice (numpy's pairwise
    sum groups by length, so a padded or concatenated sum can differ in
    the last bit), and the winners of a row are the remainders above its
    deficit-th largest, then the lowest-indexed ties.  Deterministic for
    identical float inputs.
    """
    rows = [np.asarray(row, dtype=np.float64).reshape(-1) for row in rows]
    widths = np.array([row.size for row in rows], dtype=np.int64)
    if widths.min() == 0:
        raise NumericError("cannot build a table over zero symbols")
    if widths.max() > MAX_SYMBOLS:
        raise NumericError(f"table of {widths.max()} symbols exceeds the {MAX_SYMBOLS} guard")
    probs = np.concatenate(rows)
    if np.any(probs <= 0) or not np.all(np.isfinite(probs)):
        raise NumericError("probabilities must be positive and finite")

    n, longest = len(rows), int(widths.max())
    first = np.cumsum(widths) - widths
    row = np.repeat(np.arange(n), widths)
    budget = TOTAL - 1 - widths  # escape count and per-symbol floors reserved
    ideal = probs / np.array([r.sum() for r in rows])[row] * budget[row]
    base = np.floor(ideal)
    remainder = ideal - base
    deficit = budget - np.add.reduceat(base, first).astype(np.int64)
    # each row's remainders sorted after -1 padding and before a closing 2,
    # which is the cut of a row without deficit
    ranked = np.full((n, longest + 1), -1.0)
    ranked[:, -1] = 2.0
    ranked[row, np.arange(probs.size) - first[row]] = remainder
    ranked.sort(axis=1)
    cut = ranked[np.arange(n), longest - deficit]
    above = remainder > cut[row]
    tie = remainder == cut[row]
    ties_before = np.cumsum(tie) - tie
    ties_before -= ties_before[first][row]
    wins = above | (tie & (ties_before < (deficit - np.add.reduceat(above, first))[row]))
    freqs = np.ones(probs.size + n, dtype=np.uint32)  # the escape slot closes each row
    freqs[np.arange(probs.size) + row] = base.astype(np.uint32) + 1 + wins
    ends = np.cumsum(widths + 1)
    return [FrequencyTable(k_min, freqs[end - width - 1 : end])
            for k_min, width, end in zip(k_mins, widths.tolist(), ends.tolist())]


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
                  context: str, state: tuple[int, int, int] | None = None
                  ) -> tuple[array, list[int], tuple[int, int, int]]:
    """Decode one symbol per entry of `table_of` under the table whose
    starts are tables[entry], from the start of data or from a `state`
    this function returned; returns the slot of every symbol, in stream
    order the raw value that follows each escape slot, and the state."""
    if state is None:
        if len(data) < 5:
            raise FormatError(f"truncated {context}: range coder ran out of bytes")
        state = int.from_bytes(data[1:5], "big"), 5, MASK32  # byte 0: initial cache
    code, pos, rng = state
    slots = array("H")
    raws: list[int] = []
    try:
        for u in table_of:
            starts = tables[u]
            r = rng >> TOTAL_BITS
            i = bisect_right(starts, code // r) - 1
            slots.append(i)
            c0 = starts[i]
            code -= c0 * r
            if c0 != ESCAPE_CUM:
                rng = r * (starts[i + 1] - c0)
                while rng < TOP:
                    code = (code << 8) | data[pos]
                    pos += 1
                    rng <<= 8
                continue
            # one-count spans: the rest of the escape slot (quotient 0), then
            # the raw value's two 16-bit halves (quotients below TOTAL); only
            # here can a payload push code out of [0, rng)
            v = 0
            for limit in (1, TOTAL, TOTAL):
                half = code // r
                if half >= limit:
                    raise FormatError(f"corrupt {context}: range coder value left its interval")
                code -= half * r
                rng = r
                while rng < TOP:
                    code = (code << 8) | data[pos]
                    pos += 1
                    rng <<= 8
                v = (v << TOTAL_BITS) | half
                r = rng >> TOTAL_BITS
            raws.append(v - ((v >> 31) << 32))
    except IndexError:
        raise FormatError(f"truncated {context}: range coder ran out of bytes") from None
    return slots, raws, (code, pos, rng)


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
    slots, raws, (_, pos, _) = _decode_slots(data, [t.starts for t in tables],
                                             memoryview(table_of.astype(np.int64)), context)
    if pos != len(data):  # the encoder's flush ends exactly where the decoder stops reading
        raise FormatError(f"{context}: {len(data) - pos} bytes after the end of the code")
    slot = np.frombuffer(slots, dtype=np.uint16).astype(np.int64)
    escape = slot == np.array([len(t.starts) - 1 for t in tables], dtype=np.int64)[table_of]
    out = np.array([t.k_min for t in tables], dtype=np.int64)[table_of] + slot
    out[escape] = raws
    return out


class RangeEncoder:
    """Symbol-at-a-time front end of `encode_symbols`: collects symbols
    and codes them at `finish()`, which returns the bytes."""

    def __init__(self) -> None:
        self._symbols: list[int] = []
        self._tables: list[FrequencyTable] = []

    def encode_symbol(self, table: FrequencyTable, k: int) -> None:
        self._symbols.append(k)
        self._tables.append(table)

    def finish(self) -> bytes:
        return encode_symbols(np.array(self._symbols, dtype=np.int64),
                              np.arange(len(self._tables)), self._tables)


class RangeDecoder:
    """Symbol-at-a-time front end of `decode_symbols`: each call resumes
    the one decoder loop where the previous call left it."""

    def __init__(self, data: bytes, context: str = "payload") -> None:
        self.data, self.context, self._state = data, context, None

    def decode_symbol(self, table: FrequencyTable) -> int:
        (slot,), raws, self._state = _decode_slots(self.data, [table.starts], (0,),
                                                   self.context, self._state)
        return raws[0] if raws else table.k_min + slot
