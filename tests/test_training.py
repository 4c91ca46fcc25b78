"""Trainer: optimizers vs hand-stepped oracles, losses, metrics, tuning."""

import hashlib
import threading
import time

import numpy as np
import pytest
from helpers import gradcheck, named_params, perturb_model

import flowcodec.tensor as T
import flowcodec.training as training
from flowcodec.codec import encode_image
from flowcodec.entropy import (
    BASE_STEP_INDICES, QuantSpec, grid_step, logistic_bin_prob, mean_symbol,
)
from flowcodec.errors import NumericError
from flowcodec.flow import DecoderChain, FlowConfig, FlowLevel, FlowModel
from flowcodec.tensor import Tensor
from flowcodec.training import (
    Adam,
    AdaMax,
    TrainConfig,
    bpp,
    finetune_deltas,
    nll_loss,
    psnr,
    rd_loss,
    rd_terms,
    sample_batch,
    train,
)


def tiny_model(seed=21, **kw) -> FlowModel:
    cfg = dict(in_channels=1, steps=1, blocks=1, hidden=8, seed=seed)
    cfg.update(kw)
    return FlowModel(FlowConfig(**cfg))


def tiny_corpus(rng, n=6, size=16, channels=1):
    out = []
    for _ in range(n):
        base = rng.uniform(40, 215)
        img = base + rng.normal(0, 20, size=(channels, size, size))
        out.append(np.clip(img, 0, 255))
    return out


class TestTrainConfig:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("lambda_rd = 12.5\nsteps=7\nseed = 3  # comment\n\n")
        cfg = TrainConfig.from_file(path)
        assert cfg.lambda_rd == 12.5 and cfg.steps == 7 and cfg.seed == 3
        assert cfg.lr == 1e-3 and cfg.eps == 1e-7 and cfg.delta_train == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learning_rate=1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            TrainConfig.from_file(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("lr=0.5\nsteps=3\nlr=0.001\n")
        with pytest.raises(ValueError, match=r"twice\.cfg:3: repeated config key 'lr'"):
            TrainConfig.from_file(path)

    def test_line_without_equals_names_path_and_line(self, tmp_path):
        path = tmp_path / "bare.cfg"
        path.write_text("# comment\nsteps=3\nlambda_rd 5\n")
        with pytest.raises(ValueError, match=r"bare\.cfg:3: expected key=value, got 'lambda_rd 5'"):
            TrainConfig.from_file(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0).validate()

    @pytest.mark.parametrize("field,value", [
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", float("nan")),
        ("eps", 0.0), ("eps", float("nan")), ("lr", float("nan")), ("lr", -1e-3),
        ("delta_train", float("nan")), ("delta_train", 0.0),
        ("pixel_scale", 0.0), ("pixel_scale", float("nan")),
        ("lambda_rd", float("nan")), ("lambda_rd", -1.0),
        ("dequant_amplitude", -0.5), ("dequant_amplitude", float("nan")),
        ("warmup_steps", -1),
    ])
    def test_refuses_values_that_break_training(self, field, value):
        """Values that crash the optimizer (beta1 = 1 divides by zero, eps =
        0 divides by a zero norm), log a psnr of -inf (pixel_scale = 0) or
        slip past a comparison (NaN) are refused, naming the field."""
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("patch", [12, 4, 0, -8])
    def test_patch_must_be_a_multiple_of_8(self, patch):
        """The transform halves each extent three times; a patch of 12
        would otherwise fail in the first forward pass, after train()
        opened its metrics file."""
        with pytest.raises(ValueError, match="patch must be a positive multiple of 8"):
            TrainConfig(patch=patch).validate()


class TestAdaMax:
    def test_hand_stepped_oracle(self):
        """Three steps with constant gradient, mirrored by explicit updates."""
        p = Tensor(np.array(1.0), requires_grad=True)
        opt = AdaMax([p], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-7)
        theta, m, u = 1.0, 0.0, 0.0
        for t in range(1, 4):
            p.zero_grad()
            T.mul(p, 1.0).backward()  # gradient exactly 1
            opt.step()
            m = 0.9 * m + 0.1 * 1.0
            u = max(0.999 * u, 1.0)
            theta -= (1e-3 / (1 - 0.9 ** t)) * m / (u + 1e-7)
            assert p.item() == pytest.approx(theta, rel=1e-12)
        # first update is -lr * (0.1/0.1) / (1 + eps), i.e. almost exactly -lr
        assert abs((1.0 - 1e-3 / (1 + 1e-7)) - _first_step_value()) < 1e-15

    def test_zero_gradient_leaves_parameter(self):
        p = Tensor(np.array(2.5), requires_grad=True)
        opt = AdaMax([p])
        opt.step()  # no backward: gradient is exactly zero
        assert p.item() == 2.5

    def test_same_seed_identical_runs(self):
        def run():
            rng = np.random.default_rng(100)
            p = Tensor(np.ones(4), requires_grad=True)
            opt = AdaMax([p], lr=0.01)
            for _ in range(20):
                p.zero_grad()
                w = Tensor(rng.normal(size=4))
                T.reduce_sum(T.mul(T.mul(p, w), p)).backward()
                opt.step()
            return p.data.copy()

        assert np.array_equal(run(), run())


def _first_step_value():
    p = Tensor(np.array(1.0), requires_grad=True)
    opt = AdaMax([p], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-7)
    T.mul(p, 1.0).backward()
    opt.step()
    return p.item()


class TestAdam:
    def test_hand_stepped_oracle(self):
        p = Tensor(np.array(0.5), requires_grad=True)
        opt = Adam([p], lr=0.1)
        theta, m, v = 0.5, 0.0, 0.0
        for t in range(1, 4):
            p.zero_grad()
            T.mul(p, 2.0).backward()  # gradient exactly 2
            opt.step()
            m = 0.9 * m + 0.1 * 2.0
            v = 0.999 * v + 0.001 * 4.0
            theta -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert p.item() == pytest.approx(theta, rel=1e-12)


class TestMetrics:
    def test_psnr_identical_capped(self):
        x = np.full((3, 4, 4), 7.0)
        assert psnr(x, x.copy()) == 99.0

    def test_psnr_unit_mse(self):
        x = np.zeros((1, 10, 10))
        y = np.ones((1, 10, 10))
        assert psnr(x, y) == pytest.approx(48.13080361, abs=1e-6)

    def test_psnr_full_swing(self):
        x = np.zeros((1, 4, 4))
        y = np.full((1, 4, 4), 255.0)
        assert psnr(x, y) == 0.0

    def test_psnr_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            psnr(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))

    def test_bpp(self):
        assert bpp(100, 10, 10) == 8.0
        assert bpp(0, 5, 5) == 0.0


class TestSampleBatch:
    def test_shape_and_determinism(self):
        rng1 = np.random.default_rng(101)
        corpus = tiny_corpus(np.random.default_rng(0), n=4, size=24)
        a = sample_batch(corpus, rng1, 5, 16)
        b = sample_batch(corpus, np.random.default_rng(101), 5, 16)
        assert a.shape == (5, 1, 16, 16)
        assert np.array_equal(a, b)


class TestNllLoss:
    def test_zero_init_matches_direct_bin_evaluation(self):
        """At identity initialization the loss equals the bits of the
        dequantized, permuted pixels under the initialized models."""
        model = tiny_model()
        cfg = TrainConfig(batch_size=2, seed=5)
        rng = np.random.default_rng(cfg.seed)
        batch = sample_batch(tiny_corpus(np.random.default_rng(1)), rng, 2, 16)

        rng_oracle = np.random.default_rng(cfg.seed)
        batch_o = sample_batch(tiny_corpus(np.random.default_rng(1)), rng_oracle, 2, 16)
        loss = nll_loss(model, batch, cfg, rng).item()

        xi = rng_oracle.uniform(0, 1, size=batch_o.shape)
        zs, _ = model.forward(Tensor(batch_o + xi))
        from flowcodec.entropy import channels_first
        p0 = model.prior.bin_prob(channels_first(zs[2]),
                                  np.full(model.base_channels, 1.0)).data
        expected = (
            -np.log2(p0).sum()
            - np.log2(logistic_bin_prob(zs[1].data, 0.0, 1.0, 1.0)).sum()
            - np.log2(logistic_bin_prob(zs[0].data, 0.0, 1.0, 1.0)).sum()
        ) / 2.0
        assert np.isfinite(loss)
        assert loss == pytest.approx(expected, rel=1e-10)

    def test_coarser_dequantization_does_not_help(self):
        """Monte Carlo: doubling the dequantization amplitude never lowers
        the expected loss at fixed (identity-initialized) parameters."""
        model = tiny_model()
        corpus = tiny_corpus(np.random.default_rng(2))
        batch = sample_batch(corpus, np.random.default_rng(3), 4, 16)
        losses = {}
        for a in (1.0, 2.0):
            cfg = TrainConfig(batch_size=4, dequant_amplitude=a)
            vals = [nll_loss(model, batch, cfg, np.random.default_rng(s)).item()
                    for s in range(30)]
            losses[a] = np.mean(vals)
        spread = np.abs(losses[1.0]) * 1e-3
        assert losses[2.0] >= losses[1.0] - spread


class TestRdLoss:
    def test_lambda_zero_is_pure_rate(self):
        model = tiny_model()
        perturb_model(model, np.random.default_rng(102), 0.01)
        cfg = TrainConfig(batch_size=2, lambda_rd=0.0)
        batch = sample_batch(tiny_corpus(np.random.default_rng(4)), np.random.default_rng(5), 2, 16)

        loss, parts = rd_loss(model, batch, cfg, np.random.default_rng(6))
        assert loss.item() == pytest.approx(parts["rate"], rel=1e-12)

        model.params.zero_grads()
        loss2, _ = rd_loss(model, batch, cfg, np.random.default_rng(6))
        loss2.backward()
        grads_full = {n: t.grad_array().copy() for n, t in named_params(model.params)}

        model.params.zero_grads()
        draws = np.random.default_rng(6)
        from flowcodec.quantize import draw_noise, universal_quantize
        d = {lv: draw_noise(draws, cfg.delta_train) for lv in (2, 1, 0)}
        rate, _, _ = rd_terms(model, batch, cfg,
                              lambda z, delta, lv: universal_quantize(z, delta, d[lv]),
                              mean_symbol)
        rate.backward()
        for name, t in named_params(model.params):
            assert np.array_equal(grads_full[name], t.grad_array()), name

    def test_float32_model_sees_the_float64_batch(self):
        """A float32 model and its float64 twin (the same parameter values)
        give the same distortions: the batch reaches the transform in
        float64 for both.  Rates are not compared, since the prior's
        softplus runs at the parameters' precision."""
        from flowcodec.quantize import round_to_grid

        single = tiny_model(dtype="float32")
        perturb_model(single, np.random.default_rng(102), 0.01)
        double = tiny_model(dtype="float64")
        for (_, t32), (_, t64) in zip(named_params(single.params), named_params(double.params)):
            t64.data = t32.data.astype(np.float64)
        cfg = TrainConfig(batch_size=2)
        batch = sample_batch(tiny_corpus(np.random.default_rng(4)), np.random.default_rng(5), 2, 16)
        terms = [rd_terms(m, batch, cfg, lambda z, delta, lv: round_to_grid(z, delta), mean_symbol)
                 for m in (single, double)]
        assert terms[0][1].item() == terms[1][1].item()  # err_full
        assert terms[0][2].item() == terms[1][2].item()  # err_sampled

    def test_full_reconstruction_shares_the_chain_level_2_inverse(self, monkeypatch):
        model = tiny_model()
        perturb_model(model, np.random.default_rng(105), 0.01)
        cfg = TrainConfig(batch_size=1)
        batch = sample_batch(tiny_corpus(np.random.default_rng(11)), np.random.default_rng(12), 1, 16)
        levels = []
        inverse = FlowLevel.inverse

        def counted(level, z, h):
            levels.append(model.levels.index(level))
            return inverse(level, z, h)

        monkeypatch.setattr(FlowLevel, "inverse", counted)
        rd_terms(model, batch, cfg, lambda z, delta, lv: z, mean_symbol)
        assert sorted(levels) == [0, 0, 1, 1, 2]

    def test_vanishing_step_gives_zero_distortion(self):
        model = tiny_model()
        perturb_model(model, np.random.default_rng(103), 0.01)
        cfg = TrainConfig(batch_size=1, delta_train=1e-6)
        batch = sample_batch(tiny_corpus(np.random.default_rng(7)), np.random.default_rng(8), 1, 16)
        loss, parts = rd_loss(model, batch, cfg, np.random.default_rng(9))
        assert parts["mse_full"] < 1e-9
        assert loss.item() == pytest.approx(parts["rate"] + cfg.lambda_rd * parts["distortion"])

    def test_smooth_variant_gradcheck(self):
        """End-to-end gradient fidelity on a small model.

        The two rounding substitutions are replaced by fixed smooth
        offsets (their straight-through contract is checked separately),
        and the model/input sit at a point where finite differences are
        valid: decisive relu states, probabilities off the clip floor.
        """
        from helpers import condition_for_gradcheck, fd_floor

        model = tiny_model(seed=23, hidden=4)
        condition_for_gradcheck(model, np.random.default_rng(104))
        cfg = TrainConfig(batch_size=1, lambda_rd=3.0, delta_train=1.0)
        batch = np.random.default_rng(10).uniform(-0.5, 0.5, size=(1, 1, 16, 16))
        offsets = {}

        def quantize_fn(z, delta, level):
            if level not in offsets:
                r = np.random.default_rng(200 + level)
                offsets[level] = Tensor(r.uniform(-delta / 4, delta / 4, size=z.shape))
            return T.add(z, offsets[level])

        def substitute_fn(mu, delta):
            return T.add(mu, 0.1)

        def build():
            rate, err_full, err_sampled = rd_terms(model, batch, cfg, quantize_fn, substitute_fn)
            return T.add(rate, T.mul(T.add(err_full, err_sampled), cfg.lambda_rd))

        params = model.params.tensors()
        h = 1e-5
        floor = fd_floor(build().item(), h, tol=1e-3)
        err = gradcheck(build, params, h=h, floor=floor)
        assert err < 1e-3


class TestTrainLoop:
    def test_loss_decreases_and_is_deterministic(self, tmp_path):
        corpus = tiny_corpus(np.random.default_rng(12), n=8)
        cfg = TrainConfig(batch_size=2, steps=25, lambda_rd=0.02, seed=13, patch=16)

        def run():
            model = tiny_model(seed=24)
            history = train(model, corpus, cfg,
                            metrics_path=tmp_path / "metrics.csv")
            return model, history

        model1, hist1 = run()
        model2, hist2 = run()
        assert model1.model_id == model2.model_id
        assert [h["loss"] for h in hist1] == [h["loss"] for h in hist2]
        start = np.mean([h["loss"] for h in hist1[:5]])
        end = np.mean([h["loss"] for h in hist1[-5:]])
        assert end < start

        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,nll,rate,distortion,psnr"
        assert len(lines) == cfg.steps + 1
        assert "," in lines[1] and "nan" not in lines[1]

    def test_nll_metric_is_sampled_on_an_unchanged_stream(self, tmp_path, monkeypatch):
        corpus = tiny_corpus(np.random.default_rng(16), n=4)
        cfg = TrainConfig(batch_size=2, steps=12, lambda_rd=0.02, seed=17, patch=16)

        def run(path=None):
            model = tiny_model(seed=26)
            history = train(model, corpus, cfg, metrics_path=path)
            return model.to_bytes(), history

        default_bytes, default = run(tmp_path / "metrics.csv")
        sampled = [s for s, row in enumerate(default) if np.isfinite(row["nll"])]
        assert sampled == [s for s in range(cfg.steps) if s % training.NLL_EVERY == 0]
        lines = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] == "nan" for line in lines] == [
            s not in sampled for s in range(cfg.steps)]

        monkeypatch.setattr(training, "NLL_EVERY", 1)
        every_bytes, every = run()
        assert all(np.isfinite(row["nll"]) for row in every)
        keys = ("loss", "rate", "distortion", "psnr")
        assert [[row[k] for k in keys] for row in every] == [
            [row[k] for k in keys] for row in default]
        assert every_bytes == default_bytes

    def test_warmup_then_rd(self):
        corpus = tiny_corpus(np.random.default_rng(14), n=4)
        cfg = TrainConfig(batch_size=2, steps=6, warmup_steps=3, lambda_rd=0.02,
                          seed=15, patch=16)
        model = tiny_model(seed=25)
        history = train(model, corpus, cfg)
        assert np.isnan(history[0]["distortion"])
        assert np.isfinite(history[-1]["distortion"])

    def test_golden_rows_and_model_bytes(self, tmp_path):
        """A warm-up step (nll_loss), rd steps with nan nll rows, and a last
        step where NLL_EVERY divides: the SHA-256 of the metric rows plus
        the trained model's bytes pins the tape's arithmetic bit for bit,
        as the golden streams pin the coder's."""
        corpus = tiny_corpus(np.random.default_rng(18), n=4)
        cfg = TrainConfig(batch_size=2, steps=11, warmup_steps=1, lambda_rd=0.02,
                          seed=19, patch=8)
        model = tiny_model(seed=27)
        path = tmp_path / "metrics.csv"
        history = train(model, corpus, cfg, metrics_path=path)
        assert [np.isfinite(row["nll"]) for row in history] == [True] + [False] * 9 + [True]
        digest = hashlib.sha256(path.read_bytes() + model.to_bytes()).hexdigest()
        assert digest == "c162392f9928f44ae0c62f7c69d94598aaab0f15ac7d9b376212e54532ca945d"

    def test_overflowing_rate_weight_stops_at_step_0(self, tmp_path):
        """At lambda_rd = 1e308 the weighted distortion overflows in the
        first loss; training raises before any update and the metrics file
        holds only its header."""
        model = tiny_model(seed=24)
        raw = model.to_bytes()
        cfg = TrainConfig(batch_size=2, steps=3, lambda_rd=1e308, seed=13, patch=16)
        metrics = tmp_path / "metrics.csv"
        with pytest.raises(NumericError, match="non-finite at step 0"):
            train(model, tiny_corpus(np.random.default_rng(12), n=4), cfg, metrics_path=metrics)
        assert model.to_bytes() == raw
        assert metrics.read_text() == "step,nll,rate,distortion,psnr\n"


def nan_pixel(img):
    img = img.copy()
    img[0, 3, 5] = np.nan
    return img


class TestCorpusCheck:
    """train() and finetune_deltas() refuse a bad corpus before any work,
    naming the first bad image."""

    @pytest.mark.parametrize("channels,bad,match", [
        (3, lambda img: np.full((1, 16, 16), 7.0), "shape"),  # would broadcast to 3
        (1, lambda img: np.zeros((3, 16, 16)), "shape"),
        (1, nan_pixel, "non-finite"),
        (1, lambda img: img[:, :12, :], "smaller than 16x16"),
        (1, lambda img: img[0], "shape"),
    ], ids=["1-in-3-channels", "3-in-1-channel", "nan", "below-patch", "2-d"])
    def test_train_refuses_before_the_first_step(self, tmp_path, channels, bad, match):
        corpus = tiny_corpus(np.random.default_rng(30), n=3, channels=channels)
        corpus[1] = bad(corpus[1])
        model = tiny_model(seed=31, in_channels=channels)
        before = model.to_bytes()
        cfg = TrainConfig(batch_size=8, steps=2, lambda_rd=0.02, seed=32, patch=16)
        metrics = tmp_path / "metrics.csv"
        with pytest.raises(ValueError, match=f"corpus image 1 .*{match}"):
            train(model, corpus, cfg, metrics_path=metrics)
        assert not metrics.exists()
        assert model.to_bytes() == before

    def test_wider_image_first_is_refused_too(self):
        corpus = [np.zeros((1, 16, 16)), np.zeros((3, 16, 16))]
        with pytest.raises(ValueError, match="corpus image 0 "):
            train(tiny_model(seed=33, in_channels=3), corpus,
                  TrainConfig(batch_size=2, steps=1, patch=16))

    def test_train_refuses_an_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            train(tiny_model(seed=34), [], TrainConfig(batch_size=2, steps=1, patch=16))

    def test_finetune_refuses_a_nan_image(self):
        images = tiny_corpus(np.random.default_rng(35), n=2)
        images[1] = nan_pixel(images[1])
        with pytest.raises(ValueError, match="corpus image 1 contains non-finite"):
            finetune_deltas(tiny_model(seed=36), images, lam=1.0, steps=2)


class TestTrainingBesideCoding:
    def test_encode_in_another_thread_leaves_the_tape_intact(self):
        """Encodes of another model run in a second thread throughout one
        training step, and at least one whole encode (inference without a
        tape) runs between the step's forward pass and its backward pass;
        the step's parameters equal those of the same step run alone."""
        coder = tiny_model(seed=23)
        perturb_model(coder, np.random.default_rng(110), 0.01)
        image = tiny_corpus(np.random.default_rng(111), n=1)[0]
        spec = QuantSpec.uniform(1.0, coder.base_channels)
        cfg = TrainConfig(batch_size=2)
        batch = sample_batch(tiny_corpus(np.random.default_rng(4)), np.random.default_rng(5), 2, 16)
        encodes = []

        def step(between=lambda: None):
            model = tiny_model()
            perturb_model(model, np.random.default_rng(102), 0.01)
            opt = AdaMax(model.params.tensors())
            model.params.zero_grads()
            loss, _ = rd_loss(model, batch, cfg, np.random.default_rng(6))
            between()
            loss.backward()
            opt.step()
            return [t.data for t in model.params.tensors()]

        def one_more_encode():
            seen, deadline = len(encodes), time.monotonic() + 60
            while len(encodes) <= seen and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(encodes) > seen

        alone = step()
        stop = threading.Event()

        def encode_loop():
            while not stop.is_set():
                encodes.append(encode_image(coder, image, spec))

        worker = threading.Thread(target=encode_loop)
        worker.start()
        try:
            one_more_encode()
            beside = step(one_more_encode)
        finally:
            stop.set()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert all(blob == encodes[0] for blob in encodes)
        assert all(np.array_equal(a, b) for a, b in zip(alone, beside))


class TestConditioningDivergence:
    def test_forward_vs_reconstructed_conditionals_measured(self):
        """The rate term conditions on forward features; coding conditions
        on features rebuilt from quantized latents.  The gap is a bounded
        quantization effect, not an error; measure it explicitly."""
        model = tiny_model(seed=28)
        perturb_model(model, np.random.default_rng(106), 0.01)
        batch = sample_batch(tiny_corpus(np.random.default_rng(17)), np.random.default_rng(18), 1, 16)
        from flowcodec.quantize import round_to_grid
        from flowcodec.tensor import no_grad

        with no_grad():
            zs, hs = model.forward(Tensor(batch))
            mu_fwd, _ = model.conditioning_params(1, hs[1])
            z0_hat = round_to_grid(zs[2].data, 1.0)
            mu_rec, _ = DecoderChain.start(model, z0_hat).conditionals()

        gap = float(np.mean(np.abs(mu_fwd.data - mu_rec.data)))
        spread = float(np.std(mu_fwd.data)) + 1e-9
        print(f"mean |mu_fwd - mu_rec| = {gap:.4f} (mu spread {spread:.4f})")
        assert gap < max(1.0, spread)  # same order as one quantization step


class TestFinetuneDeltas:
    def test_returns_positive_spec_responsive_to_lambda(self):
        model = tiny_model(seed=26)
        perturb_model(model, np.random.default_rng(105), 0.01)
        images = tiny_corpus(np.random.default_rng(16), n=2, size=16)
        coarse = finetune_deltas(model, images, lam=0.01, steps=40)
        fine = finetune_deltas(model, images, lam=1e4, steps=40)
        assert coarse.delta2 > fine.delta2
        assert coarse.delta1 > fine.delta1
        assert np.all(coarse.delta0 >= fine.delta0 * 0.999)

    def test_steps_tuned_past_the_grid_take_its_end(self):
        """At so small a rate weight the base step is tuned past 2^(127/16),
        the largest a header carries: the result takes that step instead
        of being refused."""
        model = tiny_model(seed=26)
        perturb_model(model, np.random.default_rng(105), 0.01)
        images = tiny_corpus(np.random.default_rng(16), n=2, size=16)
        spec = finetune_deltas(model, images, lam=1e-3, steps=60)
        assert np.all(spec.delta0 == grid_step(BASE_STEP_INDICES[1]))
        assert spec.delta2 > spec.delta0[0]

    def test_leaves_the_callers_model_unchanged(self):
        """Tuning reads a frozen copy: the caller's parameters stay on the
        tape without a gradient, and its bytes and id do not change."""
        model = tiny_model(seed=26)
        perturb_model(model, np.random.default_rng(105), 0.01)
        raw, model_id = model.to_bytes(), model.model_id
        images = tiny_corpus(np.random.default_rng(16), n=2, size=16)
        finetune_deltas(model, images, lam=1.0, steps=3)
        for name, t in named_params(model.params):
            assert t.grad is None and t.requires_grad, name
        assert model.to_bytes() == raw
        assert model.model_id == model_id

    def test_one_pass_raises_on_a_non_finite_loss(self, monkeypatch):
        """At lambda = 1e308 the weighted distortion overflows within the
        first steps.  Tuning builds one optimizer, at TUNING_LR, and raises
        NumericError: no second pass runs at a lower rate."""
        rates = []

        def spy(params, lr):
            rates.append(lr)
            return Adam(params, lr)
        monkeypatch.setattr(training, "Adam", spy)
        model = tiny_model(seed=26)
        perturb_model(model, np.random.default_rng(105), 0.01)
        images = tiny_corpus(np.random.default_rng(16), n=2, size=16)
        with pytest.raises(NumericError, match="step tuning diverged: non-finite loss"):
            finetune_deltas(model, images, lam=1e308, steps=10)
        assert rates == [training.TUNING_LR]

    def test_rejects_bad_arguments(self):
        model = tiny_model(seed=27)
        for lam in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                finetune_deltas(model, [np.zeros((1, 16, 16))], lam=lam)
        with pytest.raises(ValueError, match="empty"):
            finetune_deltas(model, [], lam=1.0)

    def test_refuses_negative_steps_before_copying(self, monkeypatch):
        model = tiny_model(seed=27)
        images = tiny_corpus(np.random.default_rng(16), n=1, size=16)
        monkeypatch.setattr(FlowModel, "from_bytes",
                            classmethod(lambda cls, raw: pytest.fail("copied the model")))
        with pytest.raises(ValueError, match="steps must be >= 0"):
            finetune_deltas(model, images, lam=1.0, steps=-3)
