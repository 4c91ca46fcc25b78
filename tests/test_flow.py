"""Flow model: bijectivity, channel bookkeeping, conditioning, model files."""

import hashlib
import struct

import numpy as np
import pytest
from helpers import latents_from_levels, perturb_model, total_elements

import flowcodec.tensor as T
from flowcodec.errors import FormatError
from flowcodec.flow import AdditiveCoupling, DecoderChain, FlowConfig, FlowModel
from flowcodec.params import ParamStore
from flowcodec.tensor import Tensor


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
        shapes = m.latent_shapes(24, 24)
        assert shapes == [(6, 12, 12), (12, 6, 6), (48, 3, 3)]

    def test_forward_shapes_match(self, model):
        x = Tensor(np.random.default_rng(71).normal(size=(2, 3, 24, 24)))
        zs, hs = model.forward(x)
        assert [z.shape[1:] for z in zs] == [(6, 12, 12), (12, 6, 6), (48, 3, 3)]
        assert [h.shape[1:] for h in hs] == [(6, 12, 12), (12, 6, 6)]

    def test_element_conservation(self, model):
        x = Tensor(np.random.default_rng(72).normal(size=(1, 3, 16, 32)))
        zs, _ = model.forward(x)
        latents = latents_from_levels([z.data for z in zs])
        assert total_elements(latents) == x.size

    def test_indivisible_extents_rejected(self, model):
        with pytest.raises(ValueError, match="divisible"):
            model.forward(Tensor(np.zeros((1, 3, 20, 24))))

    def test_channel_mismatch_rejected(self, model):
        with pytest.raises(ValueError, match="expected"):
            model.forward(Tensor(np.zeros((1, 4, 24, 24))))


class TestCoupling:
    def test_zero_init_is_identity(self):
        store = ParamStore()
        rng = np.random.default_rng(73)
        coupling = AdditiveCoupling(store, "c", 4, np.array([2, 0, 3, 1]), 1, 8, rng, np.float64)
        u = Tensor(rng.normal(size=(2, 4, 4, 4)))
        assert np.array_equal(coupling.forward(u).data, u.data)

    def test_stub_conditioner_forced_by_formula(self):
        store = ParamStore()
        rng = np.random.default_rng(74)
        coupling = AdditiveCoupling(store, "c", 2, np.array([0, 1]), 1, 4, rng, np.float64)
        coupling.t = lambda x: Tensor(np.full((1, 1, 1, 1), 0.5))
        out = coupling.forward(Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1, 1)))
        assert np.array_equal(out.data.reshape(2), [1.0, 2.5])
        back = coupling.inverse(out)
        assert np.array_equal(back.data.reshape(2), [1.0, 2.0])

    def test_roundtrip_random_weights(self):
        store = ParamStore()
        rng = np.random.default_rng(75)
        coupling = AdditiveCoupling(store, "c", 8, rng.permutation(8), 2, 16, rng, np.float64)
        for t in store.tensors():
            t.data = rng.normal(size=t.data.shape) * 0.5
        u = rng.normal(size=(2, 8, 8, 8))
        back = coupling.inverse(coupling.forward(Tensor(u))).data
        assert np.max(np.abs(back - u)) < 1e-10

    def test_kept_half_passes_through_exactly(self):
        store = ParamStore()
        rng = np.random.default_rng(76)
        coupling = AdditiveCoupling(store, "c", 6, rng.permutation(6), 1, 8, rng, np.float64)
        for t in store.tensors():
            t.data = rng.normal(size=t.data.shape)
        u = rng.normal(size=(1, 6, 4, 4))
        v = coupling.forward(Tensor(u)).data
        assert np.array_equal(v[:, coupling.idx_a], u[:, coupling.idx_a])


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

        # reference composition: squeeze and permute only (couplings are zero)
        feed = x
        for i, level in enumerate(m.levels):
            a = T._squeeze_np(feed)
            for perm in level.perms:
                a = a[:, perm]
            if level.factor is None:
                ref = a
            else:
                ref = a[:, : level.factor.emit]
                feed = a[:, level.factor.emit :]
            assert np.array_equal(zs[i].data, ref)

    def test_zero_latents_zero_image(self):
        m = desk_model()
        shapes = m.latent_shapes(16, 16)
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
        chain = DecoderChain(model, zs[2].data)
        for level in (1, 0):
            assert np.max(np.abs(chain.features.data - hs[level].data)) < 1e-8
            chain.invert(zs[level].data)

    def test_bit_identical_across_calls(self, model):
        zs = [np.random.default_rng(87).normal(size=(1,) + s)
              for s in model.latent_shapes(16, 16)]
        a = DecoderChain(model, zs[2]).invert(zs[1]).data
        b = DecoderChain(model, zs[2]).invert(zs[1]).data
        assert np.array_equal(a, b)

    def test_sensitive_to_base_latent_change(self, model):
        zs = [np.random.default_rng(88).normal(size=(1,) + s)
              for s in model.latent_shapes(16, 16)]
        h1 = DecoderChain(model, zs[2]).features.data
        zs[2] = zs[2].copy()
        zs[2][0, 0, 0, 0] += 1.0
        h1b = DecoderChain(model, zs[2]).features.data
        assert not np.array_equal(h1, h1b)


class TestModelFile:
    def test_save_load_bit_exact(self, model, tmp_path):
        path = tmp_path / "m.nfc"
        model.save(path)
        again = FlowModel.load(path)
        assert again.to_bytes() == model.to_bytes()
        assert again.model_id == model.model_id
        for name, t in model.params.items():
            assert np.array_equal(t.data, again.params[name].data)

    def test_structure_rebuilt_from_seed(self, model, tmp_path):
        path = tmp_path / "m.nfc"
        model.save(path)
        again = FlowModel.load(path)
        for l1, l2 in zip(model.levels, again.levels):
            for p1, p2 in zip(l1.perms, l2.perms):
                assert np.array_equal(p1, p2)
            for c1, c2 in zip(l1.couplings, l2.couplings):
                assert np.array_equal(c1.idx_a, c2.idx_a)

    def test_permutations_are_bijections(self, model):
        for level in model.levels:
            for perm, inv in zip(level.perms, level.inv_perms):
                assert np.array_equal(perm[inv], np.arange(perm.size))

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
        with pytest.raises(FormatError, match="UTF-8"):
            FlowModel.from_bytes(bytes(body) + hashlib.sha256(body).digest())

    def test_short_header_rejected(self, model):
        body = model.to_bytes()[:5]  # magic and version
        with pytest.raises(FormatError, match="truncated"):
            FlowModel.from_bytes(body + hashlib.sha256(body).digest())

    @pytest.mark.parametrize("config", [
        FlowConfig(), FlowConfig(in_channels=1, steps=3, blocks=2, hidden=5),
        FlowConfig(in_channels=4, steps=1, blocks=3, hidden=7, prior_width=2, prior_depth=5),
    ])
    def test_param_count_matches_the_built_model(self, config):
        model = FlowModel(config)
        assert config.param_count() == sum(t.size for t in model.params.tensors())

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
