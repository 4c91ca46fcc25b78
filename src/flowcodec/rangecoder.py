"""Byte-oriented range coder and integer frequency tables.

The coder keeps a 64-bit low (33 significant bits ahead of the carry),
a 32-bit range, and a pending-byte pipeline that resolves carries into
already-buffered output (the cache plus a run of 0xFF placeholders).
Frequencies always sum to exactly 2^16, so the range never drops below
the table total between renormalizations.

Symbols are coded either under a `FrequencyTable` (`encode_symbol` /
`decode_symbol`) or from a caller-computed cumulative span: the encoder
takes (cum, freq) directly, and the decoder exposes the matching
`decode_target` / `advance` pair, so a model whose CDF is evaluated on
demand never has to materialize a table.

Tables map a contiguous integer symbol range [k_min, k_max] plus one
escape slot to integer frequencies: every in-range symbol keeps at
least one count so anything that occurs is codable; the escape slot is
reserved one count before quantization and is followed in the stream by
the raw 32-bit symbol value (`encode_raw` / `decode_raw`).

One coder state per stream, single-threaded per stream.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, NumericError

TOTAL_BITS = 16
TOTAL = 1 << TOTAL_BITS
TOP = 1 << 24
MASK32 = 0xFFFFFFFF

MAX_SYMBOLS = 1 << 15  # table width guard; wider ranges go through escapes


class FrequencyTable:
    """Integer frequencies over [k_min, k_max] plus a trailing escape slot."""

    __slots__ = ("k_min", "k_max", "freqs", "cum")

    def __init__(self, k_min: int, freqs: np.ndarray):
        self.k_min = int(k_min)
        self.k_max = int(k_min) + len(freqs) - 2
        self.freqs = freqs
        self.cum = np.zeros(len(freqs) + 1, dtype=np.uint32)
        np.cumsum(freqs, out=self.cum[1:])
        if int(self.cum[-1]) != TOTAL:
            raise NumericError(f"frequencies sum to {int(self.cum[-1])}, need {TOTAL}")

    @property
    def n_symbols(self) -> int:
        return len(self.freqs) - 1

    @property
    def escape_index(self) -> int:
        return len(self.freqs) - 1

    def index_of(self, k: int) -> int:
        """Table slot of symbol k; the escape slot if out of range."""
        if self.k_min <= k <= self.k_max:
            return k - self.k_min
        return self.escape_index

    def span(self, index: int) -> tuple[int, int]:
        return int(self.cum[index]), int(self.freqs[index])


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


class RangeEncoder:
    """Carry-resolving renormalizing encoder; `finish()` returns the bytes."""

    def __init__(self) -> None:
        self.low = 0
        self.range = MASK32
        self.cache = 0
        self.pending = 0
        self.out = bytearray()
        self._open = True

    def _shift_low(self) -> None:
        if self.low < 0xFF000000 or self.low > MASK32:
            carry = self.low >> 32
            self.out.append((self.cache + carry) & 0xFF)
            filler = (0xFF + carry) & 0xFF
            for _ in range(self.pending):
                self.out.append(filler)
            self.pending = 0
            self.cache = (self.low >> 24) & 0xFF
        else:
            self.pending += 1
        self.low = (self.low << 8) & MASK32

    def encode(self, cum: int, freq: int, total: int = TOTAL) -> None:
        if not self._open:
            raise RuntimeError("encoder already finished")
        r = self.range // total
        self.low += r * cum
        self.range = r * freq
        while self.range < TOP:
            self._shift_low()
            self.range = (self.range << 8) & MASK32

    def encode_symbol(self, table: FrequencyTable, k: int) -> None:
        """Code symbol k under the table, escaping out-of-range values."""
        index = table.index_of(k)
        cum, freq = table.span(index)
        self.encode(cum, freq)
        if index == table.escape_index:
            self.encode_raw(k)

    def encode_raw(self, k: int) -> None:
        """The raw signed 32-bit value that follows a coded escape slot."""
        for b in struct.pack("<i", int(k)):
            self.encode(b, 1, 256)

    def finish(self) -> bytes:
        if self._open:
            for _ in range(5):
                self._shift_low()
            self._open = False
        return bytes(self.out)


class RangeDecoder:
    """Mirror of the encoder over a byte payload; raises on truncation."""

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

    def decode_target(self, total: int = TOTAL) -> int:
        """Cumulative count in [0, total) that the next symbol's span
        covers; follow with `advance` over that span."""
        self._r = self.range // total
        return min(self.code // self._r, total - 1)

    def advance(self, cum: int, freq: int) -> None:
        """Consume the span [cum, cum + freq) found for the last target."""
        self.code -= cum * self._r
        self.range = self._r * freq
        while self.range < TOP:
            self.code = (self.code << 8) | self._next_byte()
            self.range = (self.range << 8) & MASK32

    def decode_symbol(self, table: FrequencyTable) -> int:
        dc = self.decode_target()
        index = int(np.searchsorted(table.cum, dc, side="right")) - 1
        cum, freq = table.span(index)
        self.advance(cum, freq)
        if index == table.escape_index:
            return self.decode_raw()
        return table.k_min + index

    def decode_raw(self) -> int:
        """Mirror of `RangeEncoder.encode_raw`."""
        raw = bytearray()
        for _ in range(4):
            b = self.decode_target(256)
            self.advance(b, 1)
            raw.append(b)
        return struct.unpack("<i", raw)[0]
