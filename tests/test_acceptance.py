"""Acceptance criteria, one test per criterion at its stated tolerance.

The desk-scale setup (100-image corpus, 500-step training) comes from
the session fixture; a pass/fail line per criterion is printed in the
terminal summary.  Stated runtime budgets are printed for reference.
"""

import time

import numpy as np
import pytest
from helpers import (
    condition_for_gradcheck,
    decode_conditional,
    detached_round,
    encode_conditional,
    fd_floor,
    gradcheck,
    make_desk_corpus,
    num_elements,
    perturb_model,
    reference_conditionals,
    skip_boundary_sigma,
)

import flowcodec.codec as C
import flowcodec.tensor as T
from flowcodec.codec import decode_image, decode_latents, encode_image, truncate_bitstream
from flowcodec.entropy import (
    QuantSpec,
    channels_first,
    bits as entropy_bits,
    logistic_bin_prob,
    mean_symbol,
)
from flowcodec.flow import FlowConfig, FlowModel
from flowcodec.quantize import round_to_grid, universal_quantize
from flowcodec.rangecoder import build_freq_table, decode_symbols, encode_symbols
from flowcodec.tensor import Tensor, no_grad
from flowcodec.training import TrainConfig, bpp, finetune_deltas, psnr, rd_terms, train


def timed(label: str, start: float, budget: str) -> None:
    print(f"\n[{label}] {time.time() - start:.1f}s elapsed (budget {budget})")


def test_criterion_1_bijectivity():
    """200 random images per dtype through desk models (L=3, K=2, C=16):
    max |inverse(forward(x)) - x| < 1e-4 at 32-bit, < 1e-8 at 64-bit."""
    start = time.time()
    shapes = [8, 16, 24, 32]
    for dtype, bound in (("float32", 1e-4), ("float64", 1e-8)):
        fresh = FlowModel(FlowConfig(in_channels=3, steps=2, blocks=1, hidden=16,
                                     seed=31, dtype=dtype))
        active = FlowModel(FlowConfig(in_channels=3, steps=2, blocks=1, hidden=16,
                                      seed=32, dtype=dtype))
        perturb_model(active, np.random.default_rng(33), scale=0.01)
        rng = np.random.default_rng(34)
        worst = 0.0
        for i in range(200):
            model = fresh if i % 2 == 0 else active
            side = int(rng.choice(shapes))
            x = rng.uniform(0, 255, size=(1, 3, side, side)).astype(model.dtype)
            zs, _ = model.forward(Tensor(x))
            back = model.inverse(zs).data
            worst = max(worst, float(np.max(np.abs(back - x))))
        print(f"  {dtype}: worst roundtrip error {worst:.3e} (bound {bound:.0e})")
        assert worst < bound
    timed("criterion 1", start, "< 1 min")


def test_criterion_2_gradient_fidelity():
    """RD-loss gradients vs central differences on a K=1, C=8 model over
    8x8 inputs; max relative error < 1e-3 at 64-bit.

    The two rounding sites enter as fixed smooth offsets so the finite
    differences are valid; the straight-through contract of the rounding
    itself is asserted against the detached-round construction below.
    The model point is conditioned (decisive relu states, probabilities
    away from the clip floor) for the same reason.
    """
    start = time.time()
    model = FlowModel(FlowConfig(in_channels=1, steps=1, blocks=1, hidden=8, seed=35))
    condition_for_gradcheck(model, np.random.default_rng(36))
    cfg = TrainConfig(batch_size=1, lambda_rd=3.0, delta_train=1.0)
    batch = np.random.default_rng(37).uniform(-0.5, 0.5, size=(1, 1, 8, 8))
    offsets = {}

    def quantize_fn(z, delta, level):
        if level not in offsets:
            r = np.random.default_rng(210 + level)
            offsets[level] = Tensor(r.uniform(-delta / 4, delta / 4, size=z.shape))
        return T.add(z, offsets[level])

    def substitute_fn(mu, delta):
        return T.add(mu, 0.1)

    def build():
        rate, err_full, err_sampled = rd_terms(model, batch, cfg, quantize_fn, substitute_fn)
        return T.add(rate, T.mul(T.add(err_full, err_sampled), cfg.lambda_rd))

    h = 1e-5
    floor = fd_floor(build().item(), h, tol=1e-3)
    err = gradcheck(build, model.params.tensors(), h=h, floor=floor)
    print(f"  max relative gradient error {err:.3e} over "
          f"{num_elements(model.params)} parameters")
    assert err < 1e-3

    # straight-through contract: STE round and the detached-round form
    # produce identical values and identical gradients
    rng = np.random.default_rng(38)
    zdata = rng.normal(scale=3.0, size=128)
    w = rng.normal(size=128)
    za = Tensor(zdata.copy(), requires_grad=True)
    qa = universal_quantize(za, 0.5, 0.2)
    T.reduce_sum(T.mul(T.mul(qa, qa), w)).backward()
    zb = Tensor(zdata.copy(), requires_grad=True)
    qb = T.sub(T.mul(detached_round(T.div(T.add(zb, 0.2), 0.5)), 0.5), 0.2)
    T.reduce_sum(T.mul(T.mul(qb, qb), w)).backward()
    assert np.array_equal(qa.data, qb.data)
    assert np.array_equal(za.grad, zb.grad)
    timed("criterion 2", start, "< 5 min")


def test_criterion_3_coder_exactness_and_efficiency(desk_setup):
    """1000 random table/symbol round-trips are exact; coded length stays
    within 1% + 64 bits of the Shannon bound per section."""
    start = time.time()
    rng = np.random.default_rng(39)
    for trial in range(1000):
        n = int(rng.integers(2, 64))
        probs = np.clip(rng.exponential(size=n), 1e-9, None)
        k_min = int(rng.integers(-1000, 1000))
        table = build_freq_table(probs, k_min)
        length = int(rng.integers(1, 24))
        symbols = (k_min + rng.choice(n, size=length, p=probs / probs.sum())).tolist()
        table_of = np.zeros(length, dtype=np.int64)
        payload = encode_symbols(np.array(symbols, dtype=np.int64), table_of, [table])
        assert decode_symbols(payload, table_of, [table], "acc").tolist() == symbols, trial

    for n, size in ((100, 10000), (5, 10000), (500, 20000)):
        probs = rng.exponential(size=n) + 1e-4
        probs /= probs.sum()
        table = build_freq_table(probs, 0)
        symbols = rng.choice(n, size=size, p=probs)
        coded_bits = 8 * len(encode_symbols(symbols, np.zeros(size, dtype=np.int64), [table]))
        shannon = float(-np.log2(probs[symbols]).sum())
        print(f"  {n}-symbol stream: coded {coded_bits} vs Shannon {shannon:.0f} "
              f"({coded_bits / shannon - 1:+.2%})")
        assert coded_bits <= shannon * 1.01 + 64

    # trained-model sections: payload <= ideal*1.01 + 64 per section, and
    # the conditional sections also stay above ideal (the base section may
    # undershoot: its table is conditioned on header-declared ranges)
    model = desk_setup.model
    img = desk_setup.held_out[1]
    for step in (1.0, 0.25):
        spec = QuantSpec.uniform(step, model.base_channels)
        blob = encode_image(model, img, spec, p_thresh=1.0)
        info = C.inspect_bitstream(blob)
        with no_grad():
            zs, _ = model.forward(Tensor(img[None].astype(np.float64)))
        z0 = round_to_grid(zs[2].data, spec.delta0[None, :, None, None])
        z1 = round_to_grid(zs[1].data, spec.delta1)
        z2 = round_to_grid(zs[0].data, spec.delta2)
        mu1, s1 = reference_conditionals(model, 1, [None, None, z0])
        mu2, s2 = reference_conditionals(model, 0, [None, z1, z0])
        with no_grad():
            ideal0 = float(entropy_bits(
                model.prior.bin_prob(channels_first(Tensor(z0)), spec.delta0)
            ).data.sum())
        ideal1 = float(-np.log2(logistic_bin_prob(z1, mu1, s1, spec.delta1)).sum())
        ideal2 = float(-np.log2(logistic_bin_prob(z2, mu2, s2, spec.delta2)).sum())
        actual0 = 8 * info["section_bytes"]["z0"]
        actual1 = 8 * info["section_bytes"]["z1"]
        actual2 = 8 * (info["section_bytes"]["z2a"] + info["section_bytes"]["z2b"])
        assert actual0 <= ideal0 * 1.01 + 64
        assert ideal1 - 64 <= actual1 <= ideal1 * 1.01 + 64
        assert ideal2 - 64 <= actual2 <= ideal2 * 1.01 + 2 * 64  # two coder flushes
    timed("criterion 3", start, "< 1 min")


def test_criterion_4_reencoding_idempotence(desk_setup):
    """On 10 desk images, 17 successive re-encodings produce byte-identical
    bitstreams and exactly constant PSNR and bpp."""
    start = time.time()
    model = desk_setup.model
    spec = QuantSpec.uniform(0.5, model.base_channels)
    for idx, img in enumerate(desk_setup.held_out):
        stream = encode_image(model, img, spec)
        reference = None
        qualities = []
        for iteration in range(1, 18):
            decoded = decode_image(model, stream)
            stream = encode_image(model, decoded, spec)
            if reference is None:
                reference = stream
            else:
                assert stream == reference, f"image {idx}, iteration {iteration}"
            qualities.append(psnr(img, decoded))
        assert len(set(qualities)) == 1, f"image {idx}: psnr drifted {qualities}"
        assert len(stream) == len(reference)
    timed("criterion 4", start, "< 5 min")


def test_criterion_5_quality_range(desk_setup):
    """Sweeping the step over {4,...,2^-6} yields monotonically increasing
    PSNR and bpp (0.05 dB / 0.01 bpp noise tolerance), reaching at least
    45 dB at the finest step on held-out images."""
    start = time.time()
    model = desk_setup.model
    steps = [4.0, 2.0, 1.0, 0.5, 0.25, 2.0 ** -4, 2.0 ** -6]
    quality, rate = [], []
    for step in steps:
        spec = QuantSpec.uniform(step, model.base_channels)
        ps, bs = [], []
        for img in desk_setup.held_out:
            blob = encode_image(model, img, spec)
            ps.append(psnr(img, decode_image(model, blob)))
            bs.append(bpp(len(blob), img.shape[1], img.shape[2]))
        quality.append(float(np.mean(ps)))
        rate.append(float(np.mean(bs)))
        print(f"  step {step:8.5f}: {quality[-1]:6.2f} dB at {rate[-1]:7.3f} bpp")
    for i in range(len(steps) - 1):
        assert quality[i + 1] > quality[i] - 0.05
        assert rate[i + 1] > rate[i] - 0.01
    assert quality[-1] >= 45.0
    timed("criterion 5", start, "< 10 min")


def test_criterion_6_progressive_reconstruction(desk_setup):
    """PSNR strictly ordered over decode modes 1 < 2 < 2.5 < 3 on every
    held-out image; the 2.5 bpp lies strictly between levels 2 and 3."""
    start = time.time()
    model = desk_setup.model
    spec = QuantSpec.uniform(0.5, model.base_channels)
    for idx, img in enumerate(desk_setup.held_out):
        full = encode_image(model, img, spec, levels=3.0)
        qualities, rates = [], []
        for level in (1.0, 2.0, 2.5, 3.0):
            part = truncate_bitstream(full, level)
            qualities.append(psnr(img, decode_image(model, part)))
            rates.append(bpp(len(part), img.shape[1], img.shape[2]))
        assert qualities[0] < qualities[1] < qualities[2] < qualities[3], \
            f"image {idx}: {qualities}"
        assert rates[1] < rates[2] < rates[3], f"image {idx}: {rates}"
    timed("criterion 6", start, "< 5 min")


def test_criterion_7_threshold_skip_agreement(desk_setup):
    """Encoder and decoder skip decisions agree exactly for scales
    straddling delta/(2 ln 19); decoded latents equal the encoder's
    effective latents bitwise on the trained model."""
    start = time.time()
    # adversarial straddle around the boundary
    rng = np.random.default_rng(40)
    for delta in (1.0, 0.25):
        boundary = skip_boundary_sigma(delta, 0.9)
        eps = np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9, -1e-5, 1e-5, -0.01, 0.01])
        sigma = boundary * (1.0 + np.tile(eps, 40))
        n = sigma.size
        mu = np.where(rng.random(n) < 0.5, 0.0, rng.normal(0, 2, n))
        values = round_to_grid(rng.normal(0, 2, n), delta)
        skip = C._skip_mask(mu, sigma, delta, 0.9)
        payload, effective, coded = encode_conditional(values, mu, sigma, delta, 0.9)
        out, decoded = decode_conditional(payload, mu, sigma, delta, 0.9, "straddle")
        assert decoded == coded == int((~skip).sum())
        assert np.array_equal(out, effective.reshape(-1))

    # full streams on the trained model: decoded latents match the
    # encoder's decoder simulation exactly
    model = desk_setup.model
    for step in (1.0, 0.25):
        spec = QuantSpec.uniform(step, model.base_channels)
        img = desk_setup.held_out[2]
        blob = encode_image(model, img, spec)
        latents, header = decode_latents(model, blob)
        with no_grad():
            zs, _ = model.forward(Tensor(img[None].astype(np.float64)))
        z0 = round_to_grid(zs[2].data, spec.delta0[None, :, None, None])
        assert np.array_equal(latents.z0, z0)
        mu1, s1 = reference_conditionals(model, 1, [None, None, z0])
        skip1 = C._skip_mask(mu1, s1, spec.delta1, header.p_thresh)
        z1 = np.where(skip1, mean_symbol(mu1, spec.delta1),
                      round_to_grid(zs[1].data, spec.delta1))
        assert np.array_equal(latents.z1, z1)
        mu2, s2 = reference_conditionals(model, 0, [None, z1, z0])
        skip2 = C._skip_mask(mu2, s2, spec.delta2, header.p_thresh)
        z2 = np.where(skip2, mean_symbol(mu2, spec.delta2),
                      round_to_grid(zs[0].data, spec.delta2))
        assert np.array_equal(latents.z2, z2)
    timed("criterion 7", start, "< 1 min")


def test_criterion_8_step_tuning_rd_curve(desk_setup):
    """The lambda sweep over the stated range produces a Pareto-consistent
    RD curve with >= 4 distinct operating points from one trained model
    (0.01 bpp / 0.05 dB measurement tolerance)."""
    start = time.time()
    model = desk_setup.model
    calibration = desk_setup.held_out[:3]
    evaluation = desk_setup.held_out[3:8]
    points = []
    for lam in (1.0, 1e2, 1e4, 1e6):
        spec = finetune_deltas(model, calibration, lam, steps=60)
        rates, qualities = [], []
        for img in evaluation:
            blob = encode_image(model, img, spec)
            rates.append(bpp(len(blob), img.shape[1], img.shape[2]))
            qualities.append(psnr(img, decode_image(model, blob)))
        points.append((lam, float(np.mean(rates)), float(np.mean(qualities))))
        print(f"  lambda {lam:8.0g}: {points[-1][1]:7.3f} bpp, {points[-1][2]:6.2f} dB")

    rates = [p[1] for p in points]
    qualities = [p[2] for p in points]
    # distinct operating points
    assert all(rates[i + 1] - rates[i] > 0.01 for i in range(len(points) - 1))
    # Pareto consistency: higher rate never buys lower quality (tolerance)
    assert all(qualities[i + 1] > qualities[i] - 0.05 for i in range(len(points) - 1))
    assert len(points) >= 4
    timed("criterion 8", start, "< 15 min")


def test_criterion_9_training_smoke(desk_setup):
    """RD loss drops by at least 20% over the 500-step desk training and
    the loop is deterministic under a fixed seed."""
    start = time.time()
    history = desk_setup.history
    first = float(np.mean([h["loss"] for h in history[:10]]))
    last = float(np.mean([h["loss"] for h in history[-10:]]))
    drop = (first - last) / first
    print(f"  loss {first:.0f} -> {last:.0f} ({drop:.1%} decrease over "
          f"{len(history)} steps)")
    assert drop >= 0.20

    def short_run():
        model = FlowModel(FlowConfig(in_channels=3, steps=2, blocks=1,
                                     hidden=16, seed=42))
        cfg = TrainConfig(lambda_rd=1.0, steps=100, batch_size=8, patch=32, seed=7)
        hist = train(model, desk_setup.corpus, cfg)
        return model.model_id, [h["loss"] for h in hist]

    id_a, losses_a = short_run()
    id_b, losses_b = short_run()
    assert id_a == id_b
    assert losses_a == losses_b
    timed("criterion 9", start, "< 15 min")


def test_supplementary_sampling_path_consistency(desk_setup):
    """The training-side sampling reconstruction agrees with the 1-level
    decode when the input's latents are already on the coding grid."""
    model = desk_setup.model
    spec = QuantSpec.uniform(1.0, model.base_channels)
    img = desk_setup.held_out[4]
    blob = encode_image(model, img, spec, levels=3.0)
    x3 = decode_image(model, blob)  # latents of x3 sit on the grid

    # the trainer's sequential sampling path, evaluated like rd_terms does
    with no_grad():
        zs, _ = model.forward(Tensor(x3[None].astype(np.float64)))
        z0 = Tensor(round_to_grid(zs[2].data, spec.delta0[None, :, None, None]))
        h1_hat = model.levels[2].inverse(z0, None)
        mu1, _ = model.conditioning_params(1, h1_hat)
        z1_tilde = Tensor(mean_symbol(mu1.data, spec.delta1))
        h2_hat = model.levels[1].inverse(z1_tilde, h1_hat)
        mu2, _ = model.conditioning_params(0, h2_hat)
        z2_tilde = Tensor(mean_symbol(mu2.data, spec.delta2))
        x_tilde = model.levels[0].inverse(z2_tilde, h2_hat).data[0]

    blob1 = encode_image(model, x3, spec, levels=1.0)
    x_dec = decode_image(model, blob1, levels=1.0)
    assert np.max(np.abs(x_tilde - x_dec)) < 1e-6


def test_supplementary_encode_decode_quality_example(desk_setup):
    """A 24x24 card codes to at least 40 dB at step 2^-4 on the desk model."""
    model = desk_setup.model
    img = make_desk_corpus(np.random.default_rng(41), 1, 24)[0]
    spec = QuantSpec.uniform(2.0 ** -4, model.base_channels)
    blob = encode_image(model, img, spec, levels=3.0)
    quality = psnr(img, decode_image(model, blob))
    print(f"  24x24 card at step 2^-4: {quality:.2f} dB")
    assert quality >= 40.0
