"""Range coder: exact round trips, near-entropy lengths, table quantization."""

import numpy as np
import pytest
from helpers import cum, freqs, largest_remainder_freqs

from flowcodec.errors import FormatError, NumericError
from flowcodec.rangecoder import (
    TOTAL,
    RangeDecoder,
    RangeEncoder,
    _decode_slots,
    build_freq_table,
    build_freq_tables,
    decode_symbols,
    encode_symbols,
)


class TestFrequencyTable:
    def test_half_half_declared_tie_rule(self):
        # budget 65533 after escape and two floors; remainders tie, lower
        # index takes the spare count first
        table = build_freq_table(np.array([0.5, 0.5]), k_min=0)
        assert freqs(table).tolist() == [32768, 32767, 1]
        assert int(cum(table)[-1]) == TOTAL

    def test_tiny_probability_floored_to_one(self):
        table = build_freq_table(np.array([1.0, 1e-12]), k_min=-1)
        assert freqs(table)[1] == 1
        assert int(freqs(table).sum()) == TOTAL

    def test_every_in_range_frequency_positive(self):
        rng = np.random.default_rng(50)
        probs = np.clip(rng.exponential(size=500) ** 4, 1e-12, None)
        table = build_freq_table(probs, k_min=10)
        assert np.all(freqs(table) >= 1)
        assert int(freqs(table).sum()) == TOTAL

    def test_deterministic(self):
        rng = np.random.default_rng(51)
        probs = rng.exponential(size=64)
        a = build_freq_table(probs, 0)
        b = build_freq_table(probs.copy(), 0)
        assert np.array_equal(freqs(a), freqs(b))

    def test_escape_index_for_out_of_range(self):
        table = build_freq_table(np.array([0.7, 0.3]), k_min=5)
        symbols = [5, 6, 4, 99]
        payload, decoded = roundtrip([table] * 4, symbols)
        assert decoded == symbols
        slots, raws, _ = _decode_slots(payload, [table.starts], [0] * 4, "test")
        assert slots.tolist() == [0, 1, 2, 2]  # 4 and 99 take the escape slot
        assert raws == [4, 99]

    def test_rejects_bad_inputs(self):
        with pytest.raises(NumericError):
            build_freq_table(np.array([]), 0)
        with pytest.raises(NumericError):
            build_freq_table(np.array([0.5, 0.0]), 0)
        with pytest.raises(NumericError):
            build_freq_table(np.ones(1 << 16), 0)


    def test_batched_build_equals_per_row_builds(self):
        """One batched build gives every row the table it gets alone, and
        the oracle's counts: random rows with ties, rows at the
        probability floor but one, uniform rows and width 1."""
        rng = np.random.default_rng(99)
        for _ in range(40):
            rows = []
            for _ in range(int(rng.integers(1, 30))):
                width = int(rng.choice([1, 2, rng.integers(1, 60), rng.integers(1, 3000)]))
                kind = int(rng.integers(0, 4))
                if kind == 0:
                    row = rng.exponential(size=width) + 1e-12
                elif kind == 1:  # ties
                    row = rng.integers(1, 4, size=width).astype(np.float64)
                elif kind == 2:  # floor mass but one
                    row = np.full(width, 1e-12)
                    row[rng.integers(0, width)] = 1.0
                else:
                    row = np.full(width, 1.0 / width)
                rows.append(row)
            k_mins = rng.integers(-100, 100, size=len(rows)).tolist()
            for row, k_min, table in zip(rows, k_mins, build_freq_tables(rows, k_mins)):
                alone = build_freq_table(row, k_min)
                assert table.k_min == alone.k_min == k_min
                assert table.starts == alone.starts
                assert np.array_equal(freqs(table), largest_remainder_freqs(row))


def roundtrip(tables, symbols):
    """Code symbols[i] under tables[i] with encode_symbols / decode_symbols."""
    distinct = list({id(t): t for t in tables}.values())
    index = {id(t): i for i, t in enumerate(distinct)}
    table_of = np.array([index[id(t)] for t in tables], dtype=np.int64)
    payload = encode_symbols(np.array(symbols, dtype=np.int64), table_of, distinct)
    decoded = decode_symbols(payload, table_of, distinct, "test")
    return payload, decoded.tolist()


class TestRoundTrip:
    def test_empty_stream(self):
        payload, decoded = roundtrip([], [])
        assert decoded == []
        assert len(payload) == 5

    def test_short_payload_names_the_context(self):
        table = build_freq_table(np.array([0.9, 0.1]), 0)
        for n in range(5):
            for table_of in (np.zeros(0, dtype=np.int64), np.zeros(3, dtype=np.int64)):
                with pytest.raises(FormatError, match="section z1"):
                    decode_symbols(bytes(n), table_of, [table], "section z1")

    def test_symbol_at_a_time_front_ends(self):
        """RangeEncoder / RangeDecoder feed the one coder path: same bytes
        as encode_symbols, same symbols back, escapes included."""
        rng = np.random.default_rng(58)
        tables = [build_freq_table(rng.exponential(size=8) + 1e-3, -4) for _ in range(3)]
        picks = rng.integers(0, 3, size=300)
        outlier = np.where(rng.random(300) < 0.1, 1000, 0)  # escapes
        symbols = (rng.integers(-4, 4, size=300) + outlier).tolist()
        enc = RangeEncoder()
        for u, k in zip(picks, symbols):
            enc.encode_symbol(tables[u], k)
        payload = enc.finish()
        assert payload == roundtrip([tables[u] for u in picks], symbols)[0]
        dec = RangeDecoder(payload, "test")
        assert [dec.decode_symbol(tables[u]) for u in picks] == symbols

    def test_single_symbol(self):
        table = build_freq_table(np.array([0.9, 0.1]), 0)
        _, decoded = roundtrip([table], [1])
        assert decoded == [1]

    def test_1000_random_table_symbol_sequences(self):
        """Coder exactness: decode(encode(s)) == s for random tables."""
        rng = np.random.default_rng(52)
        for trial in range(1000):
            n = int(rng.integers(2, 40))
            probs = np.clip(rng.exponential(size=n), 1e-9, None)
            k_min = int(rng.integers(-50, 50))
            table = build_freq_table(probs, k_min)
            length = int(rng.integers(1, 30))
            symbols = (k_min + rng.choice(n, size=length, p=probs / probs.sum())).tolist()
            tables = [table] * length
            _, decoded = roundtrip(tables, symbols)
            assert decoded == symbols, f"trial {trial}"

    def test_mixed_tables_in_one_stream(self):
        rng = np.random.default_rng(53)
        tables, symbols = [], []
        for _ in range(200):
            n = int(rng.integers(2, 20))
            table = build_freq_table(rng.exponential(size=n) + 1e-6, int(rng.integers(-5, 5)))
            tables.append(table)
            symbols.append(table.k_min + int(rng.integers(0, n)))
        _, decoded = roundtrip(tables, symbols)
        assert decoded == symbols

    def test_escape_roundtrip(self):
        table = build_freq_table(np.array([0.6, 0.4]), 0)
        symbols = [0, 123456, 1, -987654, 0]
        _, decoded = roundtrip([table] * 5, symbols)
        assert decoded == symbols

    def test_extreme_skew(self):
        table = build_freq_table(np.array([1.0, 1e-12]), 0)
        symbols = [0] * 5000 + [1] + [0] * 10
        _, decoded = roundtrip([table] * len(symbols), symbols)
        assert decoded == symbols

    def test_carry_propagation_stress(self):
        # near-uniform two-symbol streams exercise the 0xFF pending path
        rng = np.random.default_rng(54)
        table = build_freq_table(np.array([0.5, 0.5]), 0)
        for _ in range(50):
            symbols = rng.integers(0, 2, size=300).tolist()
            _, decoded = roundtrip([table] * 300, symbols)
            assert decoded == symbols

    def test_truncated_payload_raises(self):
        table = build_freq_table(np.full(16, 1 / 16), 0)
        rng = np.random.default_rng(55)
        symbols = rng.integers(0, 16, size=500)
        table_of = np.zeros(500, dtype=np.int64)
        payload = encode_symbols(symbols, table_of, [table])
        with pytest.raises(FormatError, match="level z1"):
            decode_symbols(payload[: len(payload) // 2], table_of, [table], "level z1")

    def test_hostile_payload_is_corrupt_not_slow(self):
        """All-0xFF bytes put the code value beyond its interval through the
        escape slot; the decoder refuses at once instead of growing the
        code value by 16 bits a symbol until the bytes run out."""
        table = build_freq_table(np.full(16, 1 / 16), 0)
        table_of = np.zeros(1 << 15, dtype=np.int64)
        with pytest.raises(FormatError, match="corrupt section z2") as info:
            decode_symbols(b"\xff" * (1 << 16), table_of, [table], "section z2")
        assert "ran out" not in str(info.value)

class TestEfficiency:
    def test_within_one_percent_of_shannon(self):
        """Coded length of 1e4 i.i.d. draws within 1% + 64 bits of entropy."""
        rng = np.random.default_rng(56)
        probs = rng.exponential(size=100) + 1e-3
        probs /= probs.sum()
        table = build_freq_table(probs, 0)
        symbols = rng.choice(100, size=10000, p=probs)
        table_of = np.zeros(10000, dtype=np.int64)
        payload = encode_symbols(symbols, table_of, [table])
        coded_bits = 8 * len(payload)
        ideal_bits = float(-np.log2(probs[symbols]).sum())
        assert coded_bits <= ideal_bits * 1.01 + 64
        # and decoding still round-trips
        assert decode_symbols(payload, table_of, [table], "eff").tolist() == symbols.tolist()

    def test_skewed_distribution_efficiency(self):
        rng = np.random.default_rng(57)
        probs = np.array([0.90, 0.07, 0.02, 0.005, 0.005])
        table = build_freq_table(probs, 0)
        symbols = rng.choice(5, size=10000, p=probs)
        coded_bits = 8 * len(encode_symbols(symbols, np.zeros(10000, dtype=np.int64), [table]))
        ideal_bits = float(-np.log2(probs[symbols]).sum())
        assert coded_bits <= ideal_bits * 1.01 + 64
