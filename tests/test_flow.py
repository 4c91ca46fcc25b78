"""Flow model: bijectivity, channel bookkeeping, conditioning, model files."""

import hashlib
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from helpers import named_params, perturb_model

import flowcodec.tensor as T
from flowcodec.entropy import PRIOR_DEPTH, PRIOR_INIT_SCALE, PRIOR_WIDTH
from flowcodec.errors import FormatError
from flowcodec.flow import (
    DecoderChain, FlowConfig, FlowLevel, FlowModel, LatentSet, latent_shapes,
)
from flowcodec.params import ParamStore
from flowcodec.tensor import Tensor
from flowcodec.training import AdaMax


def desk_model(seed=7, dtype="float64", in_channels=3) -> FlowModel:
    return FlowModel(FlowConfig(in_channels=in_channels, steps=2, blocks=1,
                                hidden=16, seed=seed, dtype=dtype))


@pytest.fixture(scope="module")
def model():
    m = desk_model()
    perturb_model(m, np.random.default_rng(70), scale=0.1)
    return m


class TestChannelBookkeeping:
    def test_latent_shapes_for_24px_rgb(self):
        m = desk_model()
        shapes = latent_shapes(m.config.in_channels, 24, 24)
        assert shapes == LatentSet(z2=(6, 12, 12), z1=(12, 6, 6), z0=(48, 3, 3))

    def test_forward_shapes_match(self, model):
        x = Tensor(np.random.default_rng(71).normal(size=(2, 3, 24, 24)))
        zs, hs = model.forward(x)
        assert [z.shape[1:] for z in zs] == [(6, 12, 12), (12, 6, 6), (48, 3, 3)]
        assert [h.shape[1:] for h in hs] == [(6, 12, 12), (12, 6, 6)]

    def test_element_conservation(self, model):
        x = Tensor(np.random.default_rng(72).normal(size=(1, 3, 16, 32)))
        zs, _ = model.forward(x)
        latents = LatentSet(*(z.data for z in zs))
        assert sum(z.size for z in latents) == x.size

    def test_indivisible_extents_rejected(self, model):
        with pytest.raises(ValueError, match="divisible"):
            model.forward(Tensor(np.zeros((1, 3, 20, 24))))

    def test_channel_mismatch_rejected(self, model):
        with pytest.raises(ValueError, match="expected"):
            model.forward(Tensor(np.zeros((1, 4, 24, 24))))


def base_level(seed: int, in_ch: int, steps: int, blocks: int = 1, hidden: int = 8):
    """A base `FlowLevel` (no factor-out) on 4 * in_ch squeezed channels,
    its parameter store and the generator that drew it."""
    store, rng = ParamStore(), np.random.default_rng(seed)
    level = FlowLevel(store, "l", in_ch, steps, blocks, hidden, True, rng, rng, np.float64)
    return level, store, rng


def randomize(store: ParamStore, rng: np.random.Generator, scale: float) -> None:
    for t in store.tensors():
        t.data = rng.normal(size=t.data.shape) * scale


class TestCoupling:
    """The coupling steps inside one `FlowLevel`."""

    def test_zero_init_is_identity(self):
        """With every t zero, a level only squeezes and reorders."""
        level, _, rng = base_level(73, 1, 2)
        x = rng.normal(size=(2, 1, 8, 8))
        z, h = level.forward(Tensor(x))
        assert h is None
        assert np.array_equal(z.data, T._squeeze_np(x)[:, level.order])

    def test_stub_conditioner_forced_by_formula(self):
        level, _, _ = base_level(74, 1, 1)
        a, b, restore, _ = level.couplings[0]
        seen = []

        def stub(xa):
            seen.append(xa.data.reshape(-1).copy())
            return Tensor(np.full((1, 2, 1, 1), 0.5))

        level.couplings[0] = (a, b, restore, stub)
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        u = T._squeeze_np(x).reshape(4)
        z = level.forward(Tensor(x))[0]
        expected = u.copy()
        expected[b] += 0.5
        assert np.array_equal(z.data.reshape(4), expected[level.order])
        assert np.array_equal(level.inverse(z, None).data, x)
        assert all(np.array_equal(xa, u[a]) for xa in seen) and len(seen) == 2

    def test_roundtrip_random_weights(self):
        # at scale 0.5 the second step's latents reach 1e8 and the round trip
        # is only as exact as their float64 ulp; at 0.2 they stay near 1e3
        level, store, rng = base_level(75, 2, 2, blocks=2, hidden=16)
        randomize(store, rng, 0.2)
        x = rng.normal(size=(2, 2, 16, 16))
        back = level.inverse(level.forward(Tensor(x))[0], None).data
        assert np.max(np.abs(back - x)) < 1e-10

    def test_kept_half_passes_through_exactly(self):
        level, store, rng = base_level(76, 2, 1)
        randomize(store, rng, 1.0)
        x = rng.normal(size=(1, 2, 8, 8))
        u = T._squeeze_np(x)
        v = level.forward(Tensor(x))[0].data[:, level.inv_order]
        a, b, _, _ = level.couplings[0]
        assert np.array_equal(v[:, a], u[:, a])
        assert not np.array_equal(v[:, b], u[:, b])


class TestBijectivity:
    def test_roundtrip_float64(self, model):
        rng = np.random.default_rng(77)
        x = rng.uniform(0, 255, size=(2, 3, 16, 16))
        zs, _ = model.forward(Tensor(x))
        back = model.inverse(zs).data
        assert np.max(np.abs(back - x)) < 1e-8

    def test_roundtrip_float32(self):
        # perturbation scale keeps latents near pixel scale (trained regime);
        # float32 rounding then stays within the 1e-4 contract
        m = desk_model(dtype="float32")
        perturb_model(m, np.random.default_rng(78), scale=0.01)
        x = np.random.default_rng(79).uniform(0, 255, size=(2, 3, 16, 16)).astype(np.float32)
        zs, _ = m.forward(Tensor(x))
        back = m.inverse(zs).data
        assert np.max(np.abs(back - x)) < 1e-4

    def test_zero_init_latents_are_squeezed_permuted_input(self):
        m = desk_model()
        rng = np.random.default_rng(80)
        x = rng.normal(size=(1, 3, 8, 8))
        zs, _ = m.forward(Tensor(x))

        # reference composition: squeeze and permute only (couplings are zero),
        # with each step's permutation and partition drawn again from the seed
        struct_rng = np.random.default_rng(np.random.SeedSequence(m.config.seed).spawn(2)[0])
        feed = x
        for i, level in enumerate(m.levels):
            a = T._squeeze_np(feed)
            for _ in range(m.config.steps):
                a = a[:, struct_rng.permutation(a.shape[1])]
                struct_rng.permutation(a.shape[1])  # the coupling's partition
            ref = a[:, : level.emit]
            feed = a[:, level.emit :]
            assert np.array_equal(zs[i].data, ref)

    def test_zero_latents_zero_image(self):
        m = desk_model()
        shapes = latent_shapes(m.config.in_channels, 16, 16)
        zs = [Tensor(np.zeros((1,) + s)) for s in shapes]
        assert np.array_equal(m.inverse(zs).data, np.zeros((1, 3, 16, 16)))

    def test_volume_preserving_jacobian(self):
        """|det J| of the full map is 1 (finite-difference Jacobian oracle)."""
        m = FlowModel(FlowConfig(in_channels=1, steps=1, blocks=1, hidden=4, seed=3))
        perturb_model(m, np.random.default_rng(81), scale=0.2)
        x0 = np.random.default_rng(82).normal(size=(1, 1, 8, 8))

        def fwd(v):
            zs, _ = m.forward(Tensor(v.reshape(1, 1, 8, 8)))
            return np.concatenate([z.data.reshape(-1) for z in zs])

        n = x0.size
        jac = np.zeros((n, n))
        h = 1e-6
        flat = x0.reshape(-1)
        for i in range(n):
            up, down = flat.copy(), flat.copy()
            up[i] += h
            down[i] -= h
            jac[:, i] = (fwd(up) - fwd(down)) / (2 * h)
        _, logdet = np.linalg.slogdet(jac)
        assert abs(logdet) < 1e-6


class TestConditioning:
    def test_zero_init_gives_standard_conditionals(self):
        m = desk_model()
        h = Tensor(np.random.default_rng(83).normal(size=(1, 6, 4, 4)))
        mu, sigma = m.conditioning_params(0, h)
        assert np.array_equal(mu.data, np.zeros((1, 6, 4, 4)))
        assert np.array_equal(sigma.data, np.ones((1, 6, 4, 4)))

    def test_sigma_positive_and_clamped(self, model):
        h = Tensor(np.random.default_rng(84).normal(size=(1, 6, 4, 4)) * 1e4)
        _, sigma = model.conditioning_params(0, h)
        assert np.all(sigma.data > 0)
        assert np.all(sigma.data <= np.exp(7.0))

    def test_deterministic(self, model):
        h = Tensor(np.random.default_rng(85).normal(size=(1, 12, 4, 4)))
        mu1, s1 = model.conditioning_params(1, h)
        mu2, s2 = model.conditioning_params(1, h)
        assert np.array_equal(mu1.data, mu2.data)
        assert np.array_equal(s1.data, s2.data)

    def test_base_level_has_no_conditioning(self, model):
        with pytest.raises(ValueError, match="base"):
            m = model.conditioning_params(2, Tensor(np.zeros((1, 48, 2, 2))))


class TestReconstructFeatures:
    """Features the decoder chain rebuilds from latents."""

    def test_matches_forward_features_on_unquantized_latents(self, model):
        x = Tensor(np.random.default_rng(86).uniform(0, 255, size=(1, 3, 16, 16)))
        zs, hs = model.forward(x)
        chain = DecoderChain.start(model, zs.z0.data)
        for level in (1, 0):
            assert np.max(np.abs(chain.features.data - hs[level].data)) < 1e-8
            chain = chain.invert(zs[level].data)

    def test_bit_identical_across_calls(self, model):
        zs = [np.random.default_rng(87).normal(size=(1,) + s)
              for s in latent_shapes(model.config.in_channels, 16, 16)]
        a = DecoderChain.start(model, zs[2]).invert(zs[1]).features.data
        b = DecoderChain.start(model, zs[2]).invert(zs[1]).features.data
        assert np.array_equal(a, b)

    def test_sensitive_to_base_latent_change(self, model):
        zs = [np.random.default_rng(88).normal(size=(1,) + s)
              for s in latent_shapes(model.config.in_channels, 16, 16)]
        h1 = DecoderChain.start(model, zs[2]).features.data
        zs[2] = zs[2].copy()
        zs[2][0, 0, 0, 0] += 1.0
        h1b = DecoderChain.start(model, zs[2]).features.data
        assert not np.array_equal(h1, h1b)

    def test_branches_from_one_chain_equal_fresh_chains(self, model):
        rng = np.random.default_rng(89)
        shapes = latent_shapes(model.config.in_channels, 16, 16)
        z2, z1, z0 = (rng.normal(size=(1,) + s) for s in shapes)
        z1b, z2b = z1 + 0.5, z2 - 0.5
        base = DecoderChain.start(model, z0)
        level, features = base.level, base.features.data.copy()
        a = base.invert(z1).invert(z2)
        b = base.invert(z1b).invert(z2b)
        assert base.level == level and np.array_equal(base.features.data, features)
        assert np.array_equal(
            a.features.data, DecoderChain.start(model, z0).invert(z1).invert(z2).features.data)
        assert np.array_equal(
            b.features.data, DecoderChain.start(model, z0).invert(z1b).invert(z2b).features.data)
        assert not np.array_equal(a.features.data, b.features.data)

    def test_inverse_is_the_chain_walk(self, model):
        rng = np.random.default_rng(90)
        shapes = latent_shapes(model.config.in_channels, 16, 16)
        zs = LatentSet(*(rng.normal(size=(1,) + s) for s in shapes))
        walked = DecoderChain.start(model, zs.z0).invert(zs.z1).invert(zs.z2).features.data
        assert np.array_equal(model.inverse(zs).data, walked)
        assert np.array_equal(model.inverse(list(zs)).data, walked)
        with pytest.raises(ValueError):
            model.inverse(list(zs)[:2])


    @pytest.mark.parametrize("extra", [1, -1])
    def test_latent_with_wrong_channel_count_rejected(self, model, extra):
        """A z1 with one channel too many or too few is refused, not cut
        to fit or padded."""
        z2, z1, z0 = (np.zeros((1,) + s) for s in latent_shapes(model.config.in_channels, 16, 16))
        z1 = np.zeros((1, z1.shape[1] + extra) + z1.shape[2:])
        with pytest.raises(ValueError, match="channels"):
            model.inverse(LatentSet(z2, z1, z0))
        with pytest.raises(ValueError, match="channels"):
            DecoderChain.start(model, z0).invert(z1)


class TestModelFile:
    def test_save_load_bit_exact(self, model, tmp_path):
        path = tmp_path / "m.nfc"
        model.save(path)
        again = FlowModel.load(path)
        assert again.to_bytes() == model.to_bytes()
        assert again.model_id == model.model_id
        loaded = dict(named_params(again.params))
        for name, t in named_params(model.params):
            assert np.array_equal(t.data, loaded[name].data)

    def test_structure_rebuilt_from_seed(self, model, tmp_path):
        path = tmp_path / "m.nfc"
        model.save(path)
        again = FlowModel.load(path)
        for l1, l2 in zip(model.levels, again.levels):
            assert np.array_equal(l1.order, l2.order)
            for (a1, b1, _, _), (a2, b2, _, _) in zip(l1.couplings, l2.couplings):
                assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_permutations_are_bijections(self, model):
        for level in model.levels:
            every = np.arange(level.channels)
            assert np.array_equal(level.order[level.inv_order], every)
            for a, b, restore, _ in level.couplings:
                assert np.array_equal(np.sort(np.concatenate([a, b])), every)
                assert np.array_equal(np.concatenate([a, b])[restore], every)

    def test_tampered_file_rejected(self, model, tmp_path):
        path = tmp_path / "m.nfc"
        model.save(path)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF
        with pytest.raises(FormatError, match="hash"):
            FlowModel.from_bytes(bytes(raw))

    def test_unknown_dtype_code_rejected(self, model):
        """A dtype code outside the parameter store's table is a format
        error even when the content hash is recomputed."""
        body = bytearray(model.to_bytes()[:-32])
        body[5] = 7  # after magic and version
        with pytest.raises(FormatError, match="dtype code 7"):
            FlowModel.from_bytes(bytes(body) + hashlib.sha256(body).digest())

    @staticmethod
    def resealed(model, offset, fmt, value) -> bytes:
        """The model file with one header field rewritten and its SHA-256
        recomputed."""
        body = bytearray(model.to_bytes()[:-32])
        struct.pack_into(fmt, body, offset, value)
        return bytes(body) + hashlib.sha256(body).digest()

    @pytest.mark.parametrize("offset,fmt,field", [
        (11, "<H", "in_channels"), (7, "<B", "steps"), (8, "<B", "blocks"),
        (9, "<H", "hidden"), (22, "<B", "prior depth"),
    ])
    def test_zero_architecture_field_rejected(self, model, offset, fmt, field):
        with pytest.raises(FormatError, match="bad model header"):
            FlowModel.from_bytes(self.resealed(model, offset, fmt, 0))

    def test_prior_fields_hold_the_fixed_shape(self, model):
        assert struct.unpack_from("<BBd", model.to_bytes(), 21) == (
            PRIOR_WIDTH, PRIOR_DEPTH, PRIOR_INIT_SCALE)

    @pytest.mark.parametrize("offset,fmt,value", [
        (21, "<B", 2), (22, "<B", 5), (23, "<d", 0.0), (23, "<d", -64.0),
        (23, "<d", float("nan")), (23, "<d", float("inf")),
    ])
    def test_other_prior_shape_rejected(self, model, monkeypatch, offset, fmt, value):
        """The prior's shape is fixed: a header naming another (a scale of 0
        once divided by zero, a negative one turned complex) is refused
        before anything is built."""
        built = []
        monkeypatch.setattr(FlowModel, "__init__",
                            lambda self, config: built.append(config))
        with pytest.raises(FormatError, match="bad model header: prior"):
            FlowModel.from_bytes(self.resealed(model, offset, fmt, value))
        assert built == []

    def test_oversized_architecture_refused_before_building(self, model, monkeypatch):
        """hidden=65535 would need hundreds of GB; the blob's byte count
        refuses it before any parameter is allocated."""
        built = []
        monkeypatch.setattr(FlowModel, "__init__",
                            lambda self, config: built.append(config))
        with pytest.raises(FormatError, match="cannot hold"):
            FlowModel.from_bytes(self.resealed(model, 9, "<H", 65535))
        assert built == []

    def test_non_utf8_parameter_name_rejected(self, model):
        body = bytearray(model.to_bytes()[:-32])
        body[39 + 4 + 4 + 2] = 0xFF  # first byte of the first parameter name
        with pytest.raises(FormatError, match="entry 0 mismatch: expected name"):
            FlowModel.from_bytes(bytes(body) + hashlib.sha256(body).digest())

    @staticmethod
    def reblobbed(model, pick) -> bytes:
        """The model file with its parameter entries replaced by
        `pick(entries)`, each entry as `to_bytes` writes it, and the entry
        count, blob length and SHA-256 recomputed."""
        entries = []
        for name, tensor in named_params(model.params):
            single = ParamStore()
            single.add(name, tensor)
            entries.append(single.to_bytes()[8:])  # after magic and entry count
        entries = pick(entries)
        blob = b"NDG1" + struct.pack("<I", len(entries)) + b"".join(entries)
        body = model.to_bytes()[:39 - 8] + struct.pack("<Q", len(blob)) + blob
        return body + hashlib.sha256(body).digest()

    @pytest.mark.parametrize("pick", [lambda e: e[::-1], lambda e: e[:1] + e],
                             ids=["reversed", "first-duplicated"])
    def test_blob_that_to_bytes_never_writes_rejected(self, model, pick):
        """Entries out of order or repeated are refused behind a valid hash,
        so every file that loads writes itself back and its id is its hash."""
        assert self.reblobbed(model, lambda e: e) == model.to_bytes()
        with pytest.raises(FormatError, match="mismatch"):
            FlowModel.from_bytes(self.reblobbed(model, pick))

    def test_desk_model_id_is_its_file_hash(self):
        path = Path(__file__).parent.parent / "perfbench" / "model" / "desk.nfc"
        assert FlowModel.load(path).model_id == hashlib.sha256(path.read_bytes()).digest()[:16]

    def test_short_header_rejected(self, model):
        body = model.to_bytes()[:5]  # magic and version
        with pytest.raises(FormatError, match="truncated"):
            FlowModel.from_bytes(body + hashlib.sha256(body).digest())

    @pytest.mark.parametrize("config", [
        FlowConfig(), FlowConfig(in_channels=1, steps=3, blocks=2, hidden=5),
        FlowConfig(in_channels=4, steps=1, blocks=3, hidden=7),
    ])
    def test_param_count_matches_the_built_model(self, config):
        model = FlowModel(config)
        assert config.param_count() == sum(t.size for t in model.params.tensors())

    @pytest.mark.parametrize("field,limit", [
        ("steps", 255), ("blocks", 255), ("in_channels", 65535), ("hidden", 65535),
    ])
    def test_config_bounded_by_the_header_fields(self, field, limit):
        """Every architecture field fits its model-header field, so a model
        that builds also saves."""
        FlowConfig(**{field: limit}).validate()
        with pytest.raises(ValueError, match=field):
            FlowConfig(**{field: limit + 1}).validate()

    @pytest.mark.parametrize("field,value,match", [
        ("seed", 2 ** 64, "64 bits"), ("seed", -1, "64 bits"), ("dtype", "float16", "float16"),
    ])
    def test_config_seed_and_dtype_checked(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            FlowConfig(**{field: value}).validate()

    def test_failed_save_writes_nothing(self, model, tmp_path, monkeypatch):
        def unpackable():
            raise struct.error("argument out of range")

        monkeypatch.setattr(model, "to_bytes", unpackable)
        path = tmp_path / "m.nfc"
        with pytest.raises(struct.error):
            model.save(path)
        assert not path.exists()

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError, match="magic"):
            FlowModel.from_bytes(b"ZZZZ" + b"\x00" * 64)

    def test_same_seed_same_id(self):
        assert desk_model(seed=5).model_id == desk_model(seed=5).model_id
        assert desk_model(seed=5).model_id != desk_model(seed=6).model_id

    def test_float32_roundtrip(self, tmp_path):
        m = desk_model(dtype="float32")
        path = tmp_path / "m32.nfc"
        m.save(path)
        again = FlowModel.load(path)
        assert again.dtype == np.float32
        assert again.to_bytes() == m.to_bytes()


def content_id(model: FlowModel) -> bytes:
    return hashlib.sha256(model.to_bytes()).digest()[:16]


class TestModelId:
    """The id is cached with the parameter arrays it hashed and follows
    the parameters when training or loading rebinds them."""

    def test_cached_until_a_parameter_is_rebound(self, monkeypatch):
        model = desk_model(seed=8)
        first = model.model_id
        hashed = []
        monkeypatch.setattr(FlowModel, "to_bytes",
                            lambda self: hashed.append(1) or b"not hashed")
        assert model.model_id == first and not hashed
        tensor = model.params.tensors()[0]
        tensor.data = tensor.data + 1.0
        assert model.model_id == hashlib.sha256(b"not hashed").digest()[:16]
        assert hashed == [1]

    def test_follows_an_optimizer_step_and_a_load(self):
        model = desk_model(seed=8)
        perturb_model(model, np.random.default_rng(72), scale=0.1)
        start = model.model_id
        opt = AdaMax(model.params.tensors(), lr=1e-2)
        zs, _ = model.forward(Tensor(np.random.default_rng(73).uniform(0, 255, (1, 3, 8, 8))))
        T.add(T.add(T.reduce_sum(T.mul(zs[0], zs[0])), T.reduce_sum(T.mul(zs[1], zs[1]))),
              T.reduce_sum(T.mul(zs[2], zs[2]))).backward()
        opt.step()
        stepped = model.model_id
        assert stepped == content_id(model) != start
        model.params.load_bytes(desk_model(seed=9).params.to_bytes())
        assert model.model_id == content_id(model) not in (start, stepped)

    def test_refused_load_leaves_every_parameter(self):
        model = desk_model(seed=8)
        start = model.model_id
        before = [t.data for t in model.params.tensors()]
        assert len(before) == 75
        with pytest.raises(FormatError, match="dtype"):
            model.params.load_bytes(desk_model(seed=9, dtype="float32").params.to_bytes())
        after = [t.data for t in model.params.tensors()]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert model.model_id == start

    def test_in_place_write_after_the_id_raises(self):
        model = desk_model(seed=8)
        model.model_id
        for tensor in model.params.tensors():
            with pytest.raises(ValueError, match="read-only"):
                tensor.data[...] = 0.0
        assert model.model_id == content_id(model)

    def test_threads_read_the_sequential_id(self):
        """Four threads (more than the cores) race to take the id of each of
        five fresh models, switching as often as the interpreter allows."""
        expected = desk_model(seed=8).model_id
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                model = desk_model(seed=8)
                barrier = threading.Barrier(4)
                ids = []

                def read():
                    barrier.wait(timeout=60)
                    ids.append(model.model_id)

                threads = [threading.Thread(target=read) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert ids == [expected] * 4
                assert model.model_id == expected
        finally:
            sys.setswitchinterval(interval)
