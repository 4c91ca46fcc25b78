"""Parameter store: naming rules and bit-exact serialization."""

import numpy as np
import pytest

from flowcodec.errors import FormatError
from flowcodec.params import ParamStore, parse_entries
from flowcodec.tensor import Tensor


def build_store(dtype=np.float64) -> ParamStore:
    rng = np.random.default_rng(20)
    store = ParamStore()
    store.add("a.kernel", Tensor(rng.normal(size=(4, 3, 3, 3)).astype(dtype), requires_grad=True))
    store.add("a.bias", Tensor(rng.normal(size=4).astype(dtype), requires_grad=True))
    store.add("b.scalar", Tensor(np.array(0.25, dtype=dtype), requires_grad=True))
    return store


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_exact(self, dtype):
        store = build_store(dtype)
        blob = store.to_bytes()
        other = build_store(dtype)
        for t in other.tensors():
            t.data = np.zeros_like(t.data)
        other.load_bytes(blob)
        loaded = dict(other.items())
        for name, t in store.items():
            assert t.data.dtype == loaded[name].data.dtype
            assert np.array_equal(
                t.data.view(np.uint8) if t.data.ndim else t.data,
                loaded[name].data.view(np.uint8) if t.data.ndim else loaded[name].data,
            )
        # serialize again: byte-for-byte identical
        assert other.to_bytes() == blob

    def test_order_preserved(self):
        store = build_store()
        assert [n for n, _ in parse_entries(store.to_bytes())] == [n for n, _ in store.items()]


class TestValidation:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", Tensor(np.zeros(2)))

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            parse_entries(b"XXXX" + b"\x00" * 8)

    def test_truncated_payload(self):
        blob = build_store().to_bytes()
        with pytest.raises(FormatError):
            parse_entries(blob[:-3])

    @pytest.mark.parametrize("cut", [5, 9, 12, 20])
    def test_short_blob(self, cut):
        """A blob cut inside the entry count, a name length, a dtype code
        or a shape is a format error, not struct.error."""
        with pytest.raises(FormatError, match="truncated"):
            parse_entries(build_store().to_bytes()[:cut])

    def test_non_utf8_name(self):
        blob = bytearray(build_store().to_bytes())
        blob[4 + 4 + 2] = 0xFF  # first byte of the first name
        with pytest.raises(FormatError, match="UTF-8"):
            parse_entries(bytes(blob))

    def test_huge_shape_is_truncation(self):
        """Extents whose product is 2^64 are refused as a short payload,
        not wrapped into a byte count of zero."""
        store = ParamStore()
        store.add("w", Tensor(np.zeros((2, 2, 2, 2))))
        blob = bytearray(store.to_bytes())
        shape_at = 4 + 4 + 2 + 1 + 2
        blob[shape_at : shape_at + 16] = b"\x00\x00\x01\x00" * 4
        with pytest.raises(FormatError, match="truncated"):
            parse_entries(bytes(blob))

    def test_name_mismatch(self):
        store = build_store()
        other = ParamStore()
        other.add("different", Tensor(np.zeros(2)))
        with pytest.raises(FormatError, match="mismatch"):
            other.load_bytes(store.to_bytes())

    def test_shape_mismatch(self):
        store = ParamStore()
        store.add("w", Tensor(np.zeros(2)))
        other = ParamStore()
        other.add("w", Tensor(np.zeros(3)))
        with pytest.raises(FormatError, match="shape"):
            other.load_bytes(store.to_bytes())
