"""Parameter store: naming rules and bit-exact serialization."""

import numpy as np
import pytest
from helpers import named_params

from flowcodec.errors import FormatError
from flowcodec.params import ParamStore
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
        loaded = dict(named_params(other))
        for name, t in named_params(store):
            assert t.data.dtype == loaded[name].data.dtype
            assert np.array_equal(
                t.data.view(np.uint8) if t.data.ndim else t.data,
                loaded[name].data.view(np.uint8) if t.data.ndim else loaded[name].data,
            )
        # serialize again: byte-for-byte identical
        assert other.to_bytes() == blob

    def test_order_preserved(self):
        """Entries are written in the order they were added, and a store
        holding the same entries in another order refuses the blob."""
        blob = build_store().to_bytes()
        assert blob.index(b"a.kernel") < blob.index(b"a.bias") < blob.index(b"b.scalar")
        reordered = ParamStore()
        for name, tensor in reversed(named_params(build_store())):
            reordered.add(name, tensor)
        with pytest.raises(FormatError, match="entry 0 mismatch"):
            reordered.load_bytes(blob)


class TestValidation:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", Tensor(np.zeros(2)))

    def test_bad_magic(self):
        blob = build_store().to_bytes()
        with pytest.raises(FormatError, match="magic"):
            build_store().load_bytes(b"XXXX" + blob[4:])

    def test_truncated_payload(self):
        blob = build_store().to_bytes()
        with pytest.raises(FormatError, match="truncated in parameter 'b.scalar'"):
            build_store().load_bytes(blob[:-3])

    def test_trailing_bytes(self):
        with pytest.raises(FormatError, match="2 trailing bytes"):
            build_store().load_bytes(build_store().to_bytes() + b"xx")

    @pytest.mark.parametrize("cut", [5, 9, 12, 20])
    def test_short_blob(self, cut):
        """A blob cut inside the entry count, a name length, a dtype code
        or a shape is a format error, not struct.error."""
        with pytest.raises(FormatError, match="truncated"):
            build_store().load_bytes(build_store().to_bytes()[:cut])

    def test_non_utf8_name(self):
        blob = bytearray(build_store().to_bytes())
        blob[4 + 4 + 2] = 0xFF  # first byte of the first name
        with pytest.raises(FormatError, match="entry 0 mismatch: expected name 'a.kernel'"):
            build_store().load_bytes(bytes(blob))

    def test_huge_shape_is_truncation(self):
        """Extents whose product is 2^64 are refused as another shape,
        never turned into a byte count."""
        store = ParamStore()
        store.add("w", Tensor(np.zeros((2, 2, 2, 2))))
        blob = bytearray(store.to_bytes())
        shape_at = 4 + 4 + 2 + 1 + 2
        blob[shape_at : shape_at + 16] = b"\x00\x00\x01\x00" * 4
        with pytest.raises(FormatError, match=r"shape \(2, 2, 2, 2\)"):
            store.load_bytes(bytes(blob))

    def test_name_mismatch(self):
        store = build_store()
        other = ParamStore()
        other.add("different", Tensor(np.zeros(2)))
        with pytest.raises(FormatError, match="header mismatch: expected magic b'NDG1' and 1"):
            other.load_bytes(store.to_bytes())
        renamed = ParamStore()
        for name, tensor in named_params(build_store()):
            renamed.add(name.replace("a.bias", "a.offset"), tensor)
        with pytest.raises(FormatError, match="entry 1 mismatch: expected name 'a.offset'"):
            renamed.load_bytes(store.to_bytes())

    def test_shape_mismatch(self):
        store = ParamStore()
        store.add("w", Tensor(np.zeros(2)))
        other = ParamStore()
        other.add("w", Tensor(np.zeros(3)))
        with pytest.raises(FormatError, match=r"entry 0 mismatch: .* shape \(3,\)"):
            other.load_bytes(store.to_bytes())
