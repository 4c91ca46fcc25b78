"""Codec: round trips, skip agreement, container rules, progressive modes."""

import hashlib
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
import zlib
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    cum,
    decode_conditional,
    encode_conditional,
    freqs,
    make_desk_corpus,
    perturb_model,
    reference_conditionals,
    skip_boundary_sigma,
    table_from_counts,
)

import flowcodec.codec as C
from flowcodec.codec import (
    decode_image,
    decode_latents,
    encode_image,
    inspect_bitstream,
    truncate_bitstream,
)
from flowcodec.entropy import FactorizedPrior, QuantSpec, logistic_bin_prob, mean_symbol
from flowcodec.errors import FormatError, ModelMismatchError, NumericError
from flowcodec.flow import FlowConfig, FlowLevel, FlowModel, LatentSet, latent_shapes, pad
from flowcodec.quantize import round_to_grid
from flowcodec.rangecoder import TOTAL
from flowcodec.tensor import Tensor, no_grad


@pytest.fixture(scope="module")
def model():
    m = FlowModel(FlowConfig(in_channels=3, steps=2, blocks=1, hidden=16, seed=11))
    perturb_model(m, np.random.default_rng(90), scale=0.01)
    return m


@pytest.fixture(scope="module")
def image():
    rng = np.random.default_rng(91)
    yy, xx = np.mgrid[0:32, 0:32]
    base = 96 + 64 * np.sin(yy / 5.0) + 48 * np.cos(xx / 7.0)
    img = np.stack([base, np.roll(base, 3, axis=1), base.T]) + rng.normal(0, 4, (3, 32, 32))
    return np.clip(img, 0, 255)


def spec_for(model, step=1.0):
    return QuantSpec.uniform(step, model.base_channels)


class TestPadding:
    def test_multiple_preserved(self):
        img = np.arange(3 * 8 * 8, dtype=np.float64).reshape(3, 8, 8)
        assert pad(img) is img

    def test_pads_to_next_multiple(self):
        img = np.ones((3, 9, 14))
        out = pad(img)
        assert out.shape == (3, 16, 16)

    def test_tiny_image(self):
        img = np.random.default_rng(92).normal(size=(1, 2, 3))
        out = pad(img)
        assert out.shape == (1, 8, 8)
        assert np.array_equal(out[:, :2, :3], img)


class TestRoundTrip:
    def test_latents_bitwise_roundtrip(self, model, image):
        """Decoded latents equal the encoder's effective latents exactly."""
        spec = spec_for(model, 1.0)
        blob = encode_image(model, image, spec)
        latents, header = decode_latents(model, blob)

        padded = pad(image)
        with no_grad():
            zs, _ = model.forward(Tensor(padded[None].astype(np.float64)))
        z0_expected = round_to_grid(zs[2].data, spec.delta0[None, :, None, None])
        assert np.array_equal(latents.z0, z0_expected)

        # z1: coded elements match the grid, skipped ones match the mean symbol
        mu1, sig1 = reference_conditionals(model, 1, [None, None, z0_expected])
        skip1 = C._skip_mask(mu1, sig1, spec.delta1, header.p_thresh)
        z1_expected = np.where(skip1, mean_symbol(mu1, spec.delta1),
                               round_to_grid(zs[1].data, spec.delta1))
        assert np.array_equal(latents.z1, z1_expected)

        mu2, sig2 = reference_conditionals(model, 0, [None, z1_expected, z0_expected])
        skip2 = C._skip_mask(mu2, sig2, spec.delta2, header.p_thresh)
        z2_expected = np.where(skip2, mean_symbol(mu2, spec.delta2),
                               round_to_grid(zs[0].data, spec.delta2))
        assert np.array_equal(latents.z2, z2_expected)

    def test_latent_sets_agree_by_name(self, model, image):
        """forward, latent_shapes, QuantSpec and decode_latents name the same
        latents, for the 3-channel test model and a 1-channel one: each
        forward field has the shape of the `flow.latent_shapes` field of its
        name (from which the decoder sizes its latents), and with nothing
        skipped each decoded field is that forward field rounded at the
        step of its name."""
        gray = FlowModel(FlowConfig(in_channels=1, steps=2, blocks=1, hidden=16, seed=12))
        perturb_model(gray, np.random.default_rng(92), scale=0.01)
        for m, img in ((model, image), (gray, image[:1])):
            spec = QuantSpec(0.5, 2.0, np.linspace(0.25, 1.0, m.base_channels))
            padded = pad(img)
            with no_grad():
                zs, _ = m.forward(Tensor(padded[None]))
            shapes = latent_shapes(m.config.in_channels, padded.shape[1], padded.shape[2])
            latents, _ = decode_latents(m, encode_image(m, img, spec, p_thresh=1.0))
            steps = LatentSet(z2=spec.delta2, z1=spec.delta1, z0=spec.delta0[None, :, None, None])
            for name in LatentSet._fields:
                z = getattr(zs, name).data
                assert z.shape == (1,) + getattr(shapes, name)
                assert np.array_equal(getattr(latents, name),
                                      round_to_grid(z, getattr(steps, name)))

    def test_each_level_inverted_once(self, model, image, monkeypatch):
        """The encoder stops after coding z2, and the decoder finishes the
        image from the features it rebuilt, so no level is inverted twice."""
        calls = Counter()
        inverse = FlowLevel.inverse

        def counted(level, z, h):
            calls[model.levels.index(level)] += 1
            return inverse(level, z, h)

        monkeypatch.setattr(FlowLevel, "inverse", counted)
        blob = encode_image(model, image, spec_for(model, 1.0), levels=3.0)
        assert calls == {2: 1, 1: 1}
        calls.clear()
        decode_image(model, blob)
        assert calls == {2: 1, 1: 1, 0: 1}

    def test_one_coder_call_per_section(self, model, image, monkeypatch):
        """A level-3 encode and its decode code each of the four sections
        with one encode_symbols / decode_symbols call, looked up as module
        globals of flowcodec.codec, the names a tracer hooks.  With warm
        caches neither side evaluates the prior or builds a table per
        channel: z0's tables come from one batched build."""
        spec = spec_for(model, 1.0)
        encode_image(model, image, spec)  # warms the cell tables and prior blocks it needs
        calls = Counter()
        for name in ("encode_symbols", "decode_symbols", "build_freq_table", "build_freq_tables"):
            def counted(*args, _name=name, _original=getattr(C, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(C, name, counted)
        bin_prob = FactorizedPrior.bin_prob

        def counted_prior(*args):
            calls["bin_prob"] += 1
            return bin_prob(*args)

        monkeypatch.setattr(FactorizedPrior, "bin_prob", counted_prior)
        blob = encode_image(model, image, spec, levels=3.0)
        assert calls == {"encode_symbols": 4, "build_freq_tables": 1}
        calls.clear()
        decode_image(model, blob)
        assert calls == {"decode_symbols": 4, "build_freq_tables": 1}

    def test_decode_deterministic(self, model, image):
        blob = encode_image(model, image, spec_for(model, 0.5))
        a = decode_image(model, blob)
        b = decode_image(model, blob)
        assert np.array_equal(a, b)

    def test_extents_restored(self, model):
        rng = np.random.default_rng(93)
        img = np.clip(rng.normal(128, 40, size=(3, 21, 29)), 0, 255)
        blob = encode_image(model, img, spec_for(model, 1.0))
        out = decode_image(model, blob)
        assert out.shape == img.shape

    def test_reencode_idempotent_bytes(self, model, image):
        """Compressing the decode reproduces the identical bitstream."""
        spec = spec_for(model, 0.5)
        blob1 = encode_image(model, image, spec)
        x1 = decode_image(model, blob1)
        blob2 = encode_image(model, x1, spec)
        assert blob2 == blob1
        x2 = decode_image(model, blob2)
        assert np.array_equal(x1, x2)

    def test_finer_steps_improve_quality_and_size(self, model, image):
        # p_thresh 1 codes every element, isolating pure grid error; mean
        # substitution accuracy is a trained-model property
        coarse = encode_image(model, image, spec_for(model, 2.0), p_thresh=1.0)
        fine = encode_image(model, image, spec_for(model, 0.25), p_thresh=1.0)
        assert len(fine) > len(coarse)
        err_coarse = np.max(np.abs(decode_image(model, coarse) - image))
        err_fine = np.max(np.abs(decode_image(model, fine) - image))
        assert err_fine < err_coarse


class TestSkipDecisions:
    def test_all_skipped_when_sigma_below_boundary(self, model, image):
        """Huge steps put every conditional below the skip boundary (the
        scale clamp caps sigma at e^7 < delta/(2 ln 19)): the conditional
        payloads are nothing but the coder flush."""
        spec = QuantSpec(1e4, 1e4, np.full(model.base_channels, 1.0))
        blob = encode_image(model, image, spec)
        info = inspect_bitstream(blob)
        assert info["section_bytes"]["z1"] == 5  # flush-only stream
        assert info["section_bytes"]["z2a"] == 5
        assert info["section_bytes"]["z2b"] == 5
        decode_image(model, blob)  # still decodable

    def test_p_thresh_one_codes_everything(self, model, image):
        spec = spec_for(model, 1.0)
        blob_all = encode_image(model, image, spec, p_thresh=1.0)
        blob_default = encode_image(model, image, spec)
        assert len(blob_all) >= len(blob_default)
        out = decode_image(model, blob_all)
        assert out.shape == image.shape

    def test_adversarial_sigma_straddles_boundary(self):
        """Encoder and decoder skip decisions agree for scales straddling
        the threshold boundary, and symbols round-trip bitwise."""
        rng = np.random.default_rng(94)
        delta, p = 1.0, 0.9
        boundary = skip_boundary_sigma(delta, p)
        eps = np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9, -1e-4, 1e-4])
        sigma = boundary * (1.0 + np.tile(eps, 30))
        n = sigma.size
        mu = np.where(rng.random(n) < 0.5, 0.0, rng.normal(0, 3, n))
        values = round_to_grid(rng.normal(0, 2, n), delta)

        skip_enc = C._skip_mask(mu, sigma, delta, p)
        payload, effective, coded = encode_conditional(values, mu, sigma, delta, p)
        out, decoded_count = decode_conditional(payload, mu, sigma, delta, p, "adversarial")
        assert decoded_count == coded == int((~skip_enc).sum())
        assert np.array_equal(out, effective.reshape(-1))
        assert np.array_equal(out[~skip_enc], values[~skip_enc])
        assert np.array_equal(out[skip_enc], mean_symbol(mu, delta)[skip_enc])

    def test_escape_path_roundtrip(self):
        # an outlier far outside the table span goes through the escape slot
        mu = np.zeros((1, 1, 1, 3))
        sigma = np.full((1, 1, 1, 3), 0.4)
        values = np.array([0.0, 500.0, -1.0]).reshape(1, 1, 1, 3)
        payload, effective, coded = encode_conditional(values, mu, sigma, 1.0, 0.9)
        out, _ = decode_conditional(payload, mu, sigma, 1.0, 0.9, "esc")
        assert coded == 3
        assert np.array_equal(out, values.reshape(-1))


class TestGridTables:
    """Conditional tables on the (offset, scale) grid over sigma/delta in
    [1e-3, 1e4] and |mu/delta| up to 1e6, including the 8191-symbol
    half-width cap."""

    @staticmethod
    def cases():
        """(mu/delta, sigma/delta, delta) triples: fixed extremes, then a sweep."""
        rng = np.random.default_rng(95)
        out = [(0.0, 1e-3, 1.0), (0.5, 1e4, 1.0), (-1e6, 1e4, 1.0), (1e6, 1e-3, 1.0),
               (2.5, 1365.0, 0.5), (-7.25, 1400.0, 0.25), (3e5, 250.0, 1e-3)]
        for _ in range(60):
            m = float(rng.uniform(-1, 1) * 10.0 ** rng.uniform(0, 6))
            out.append((m, float(10.0 ** rng.uniform(-3, 4)), float(10.0 ** rng.uniform(-3, 1))))
        return out

    @staticmethod
    def table_for(m, r, delta):
        # p_thresh 1 codes every element
        s = C._conditional_section(np.array([m * delta]), np.array([r * delta]), delta, 1.0,
                                   0, 1, np.zeros(1))
        assert s.center[0] == round(m) and s.sign[0] == (-1 if m < round(m) else 1)
        return s.tables[s.table_of[0]]

    def test_starts_total_and_floors(self):
        for m, r, delta in self.cases():
            table = self.table_for(m, r, delta)
            assert len(table.starts) <= 2 * 8191 + 2
            counts = cum(table)
            assert counts[0] == 0 and counts[-1] == TOTAL, (m, r, delta)
            assert freqs(table).min() >= 1, (m, r, delta)

    def test_random_symbols_roundtrip_with_escapes(self):
        rng = np.random.default_rng(96)
        cases = np.array(self.cases())
        n, delta = 400, 0.5
        m, r, _ = cases[rng.integers(0, len(cases), n)].T
        offset = np.round(rng.logistic(size=n) * r)
        outlier = rng.random(n) < 0.1  # beyond any window: escapes
        offset[outlier] = rng.choice([-1, 1], outlier.sum()) * rng.integers(9000, 10**6, outlier.sum())
        values = (np.round(m) + offset) * delta
        shape = (1, 1, 1, n)
        mu, sigma = (m * delta).reshape(shape), (r * delta).reshape(shape)
        payload, effective, coded = encode_conditional(values.reshape(shape), mu, sigma,
                                                       delta, 1.0)
        out, decoded_count = decode_conditional(payload, mu, sigma, delta, 1.0, "sweep")
        assert decoded_count == coded == n
        assert np.array_equal(out, values)

    def test_cell_tables_do_not_depend_on_the_cache(self, monkeypatch):
        """A cell built with the cache cleared, or in another order, equals
        the cached table."""
        cached = {id(t): t for m, r, delta in self.cases()
                  for t in [self.table_for(m, r, delta)]}
        keys = {key: table for key, table in C._CELLS.items() if id(table) in cached}
        assert len(keys) == len(cached)
        monkeypatch.setattr(C, "_CELLS", {})
        for key in sorted(keys, reverse=True):
            fresh = C._cell_table(key)
            assert fresh.k_min == keys[key].k_min
            assert fresh.starts == keys[key].starts

    def test_extreme_cells_keep_the_one_count_floor(self):
        """Where the logistic mass underflows to the probability floor,
        build_freq_table still gives every slot at least one count."""
        top = len(C._SCALES) - 1
        m_lo, m_hi = C._OFFSET_M[0], C._OFFSET_M[top]
        for a, b in ((0, 0), (0, m_lo), (top, 0), (top, m_hi)):
            table = C._cell_table(a * C._OFFSET_SLOTS + int(b))
            assert freqs(table).min() >= 1
            assert freqs(table)[-1] == 1
        with pytest.raises(NumericError, match="at least one"):
            table_from_counts(0, [TOTAL - 1, 0, 1])

    def test_grid_bounds(self):
        """Neighbouring scales are at most 1.15x apart, and the cache with
        every cell built stays under 2 MB of table starts."""
        assert np.max(C._SCALES[1:] / C._SCALES[:-1]) <= 1.15
        assert C._window(C._SCALES[-1]) == 8191
        worst = sum((2 * C._window(s) + 2) * 2 * (int(m) + 1)
                    for s, m in zip(C._SCALES, C._OFFSET_M))
        assert worst <= 2_000_000

    def test_threads_share_the_cache(self, model, image, monkeypatch):
        """Encodes and decodes in 4 threads over one shared model, starting
        from empty cell and prior-block caches, give the bytes and decodes
        of sequential runs; a cap of four prior blocks makes the threads
        evict each other's blocks as they go."""
        jobs = [(img, step) for img in (image, image[:, :16, :24]) for step in (0.25, 1.0, 4.0)]

        def run(job):
            img, step = job
            blob = encode_image(model, img, spec_for(model, step))
            return blob, decode_image(model, blob)

        monkeypatch.setattr(C, "_CELLS", {})
        monkeypatch.setattr(C, "_BLOCKS", {})
        expected = [run(job) for job in jobs]
        monkeypatch.setattr(C, "_CELLS", {})
        monkeypatch.setattr(C, "_BLOCKS", {})
        monkeypatch.setattr(C, "_BLOCK_CAP", 4 * model.base_channels * C._BLOCK * 8)
        results, errors = {}, []

        def worker(offset):
            try:
                for i in range(len(jobs)):
                    j = (i + offset) % len(jobs)
                    results[offset, j] = run(jobs[j])
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 4 * len(jobs)
        for (_, j), (blob, out) in results.items():
            assert blob == expected[j][0]
            assert np.array_equal(out, expected[j][1])
        assert sum(block.nbytes for block in C._BLOCKS.values()) <= C._BLOCK_CAP


class TestPriorBlocks:
    """z0's bin masses come from canonical blocks of the prior, cached per
    (model id, delta0, block); tables and bytes never depend on what the
    cache held."""

    JOBS = [(crop, step) for crop in (None, (16, 24)) for step in (0.25, 1.0, 4.0)]

    @staticmethod
    def encode(model, image, job):
        crop, step = job
        img = image if crop is None else image[:, : crop[0], : crop[1]]
        return encode_image(model, img, spec_for(model, step))

    def test_cold_and_warm_caches_give_the_same_bytes(self, model, image, monkeypatch):
        """Encodes from an empty block cache, and in two orders of images
        and steps over a warming one, give identical bytes; a decode from
        an empty cache equals the warm decode."""
        cold = []
        for job in self.JOBS:
            monkeypatch.setattr(C, "_BLOCKS", {})
            cold.append(self.encode(model, image, job))
        for order in (self.JOBS, self.JOBS[::-1]):
            monkeypatch.setattr(C, "_BLOCKS", {})
            warm = {job: self.encode(model, image, job) for job in order}
            assert [warm[job] for job in self.JOBS] == cold
        for blob in cold:
            warm_out = decode_image(model, blob)
            monkeypatch.setattr(C, "_BLOCKS", {})
            assert np.array_equal(decode_image(model, blob), warm_out)

    def test_cache_stays_within_its_cap(self, model, image, monkeypatch):
        """Decoding streams with 100 distinct delta0 vectors keeps the
        cached blocks within the byte cap, evicting the oldest first."""
        rng = np.random.default_rng(97)
        steps = [rng.uniform(0.25, 0.5, model.base_channels) for _ in range(100)]
        blobs = [encode_image(model, image[:, :16, :16], QuantSpec(1.0, 1.0, delta0))
                 for delta0 in steps]
        monkeypatch.setattr(C, "_BLOCKS", {})
        for blob in blobs:
            decode_image(model, blob)
            assert sum(block.nbytes for block in C._BLOCKS.values()) <= C._BLOCK_CAP
        cached = {key[1] for key in C._BLOCKS}
        first, last = (QuantSpec(1.0, 1.0, steps[i]).delta0.tobytes() for i in (0, -1))
        assert last in cached and first not in cached


class TestProgressive:
    def test_level1_stream_has_only_base_section(self, model, image):
        blob = encode_image(model, image, spec_for(model, 1.0), levels=1.0)
        info = inspect_bitstream(blob)
        assert info["levels"] == 1.0
        assert info["section_bytes"]["z0"] > 0
        assert info["section_bytes"]["z1"] == 0
        assert info["section_bytes"]["z2a"] == 0
        assert info["section_bytes"]["z2b"] == 0

    def test_lower_levels_smaller_files(self, model, image):
        spec = spec_for(model, 0.5)
        sizes = [len(encode_image(model, image, spec, levels=lv))
                 for lv in (1.0, 2.0, 2.5, 3.0)]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == 4

    def test_truncation_matches_direct_encode(self, model, image):
        spec = spec_for(model, 0.5)
        full = encode_image(model, image, spec, levels=3.0)
        for lv in (1.0, 2.0, 2.5):
            direct = encode_image(model, image, spec, levels=lv)
            assert truncate_bitstream(full, lv) == direct

    def test_truncate_idempotent(self, model, image):
        full = encode_image(model, image, spec_for(model, 0.5))
        t = truncate_bitstream(full, 2.0)
        assert truncate_bitstream(t, 2.0) == t

    def test_truncate_to_1_then_decode_equals_1_level_decode(self, model, image):
        full = encode_image(model, image, spec_for(model, 0.5))
        a = decode_image(model, truncate_bitstream(full, 1.0), levels=1.0)
        b = decode_image(model, full, levels=1.0)
        assert np.array_equal(a, b)

    def test_cannot_raise_level(self, model, image):
        blob = encode_image(model, image, spec_for(model, 1.0), levels=2.0)
        with pytest.raises(FormatError, match="holds"):
            decode_image(model, blob, levels=3.0)
        with pytest.raises(FormatError, match="truncate"):
            truncate_bitstream(blob, 3.0)

    def test_partial_decode_between_whole_levels(self, model, image):
        spec = spec_for(model, 0.25)
        full = encode_image(model, image, spec, levels=3.0)
        outs = {lv: decode_image(model, full, levels=lv) for lv in (2.0, 2.5, 3.0)}
        e2 = np.mean((outs[2.0] - image) ** 2)
        e25 = np.mean((outs[2.5] - image) ** 2)
        e3 = np.mean((outs[3.0] - image) ** 2)
        assert e3 < e25 < e2


class TestBaseRanges:
    def test_symbols_beyond_16_bits_refused(self, model, image):
        """At a base step of 2^-8 the pixel-scale base latents of the test
        model reach symbols past 32767, which a header cannot carry."""
        spec = QuantSpec(1.0, 1.0, np.full(model.base_channels, 2.0 ** -8))
        with pytest.raises(NumericError, match=r"base channel \d+ symbols \[-?\d+, \d+\] "
                                               "exceed the 16-bit header range"):
            encode_image(model, image, spec)

    def test_range_wider_than_a_table_refused(self):
        """A channel spanning [-20000, 20000] fits 16 bits but not one
        table; the first such channel is named."""
        z0 = np.zeros((1, 4, 2, 2))
        z0[0, 2, 0, :] = (-20000.0, 20000.0)
        z0[0, 3, 0, :] = (-30000.0, 30000.0)
        with pytest.raises(NumericError, match=f"base channel 2 spans 40001 symbols "
                                               f"\\(> {C.MAX_SYMBOLS}\\)"):
            C._base_ranges(z0, QuantSpec.uniform(1.0, 4))

    def test_ranges_match_a_per_channel_loop(self):
        """Each channel's (min, max) symbol at its own step, as a loop over
        the channels finds them."""
        rng = np.random.default_rng(97)
        z0 = rng.normal(0, 40, size=(1, 16, 3, 5))
        spec = QuantSpec(1.0, 1.0, rng.uniform(0.1, 8.0, 16))
        z0 = round_to_grid(z0, spec.delta0[None, :, None, None])
        want = [(int(np.round(z / d).min()), int(np.round(z / d).max()))
                for z, d in zip(z0[0], spec.delta0)]
        assert C._base_ranges(z0, spec) == want


class TestContainer:
    def test_inspect_fields(self, model, image):
        spec = spec_for(model, 1.0)
        blob = encode_image(model, image, spec, levels=3.0)
        info = inspect_bitstream(blob)
        assert info["levels"] == 3.0
        assert info["original_size"] == (32, 32)
        assert info["padded_size"] == (32, 32)
        assert info["channels"] == 3
        assert info["p_thresh"] == 0.9
        assert len(info["delta0"]) == model.base_channels
        assert info["total_bytes"] == len(blob)
        # derived, not stored: the extents rounded up to 8, and half of z2's
        # 6 x (h/2) x (w/2) elements at the padded extents, rounded up
        for (h, w), padded, partial in (((1, 1), (8, 8), 48), ((5, 7), (8, 8), 48),
                                        ((13, 21), (16, 24), 288)):
            info = inspect_bitstream(encode_image(model, image[:, :h, :w], spec))
            assert info["original_size"] == (h, w)
            assert info["padded_size"] == padded
            assert info["partial_count"] == partial

    @pytest.mark.parametrize("spec,size", [
        (QuantSpec.uniform(1.0, 48), 256),
        (QuantSpec(3.0, 0.7, np.geomspace(0.3, 6.0, 48)), 248),
    ], ids=["uniform", "non-uniform"])
    def test_golden_header_sizes(self, model, image, spec, size):
        """A 3-channel header is 112 bytes plus the varints of the base
        ranges, the same at every level mask, and inspect_bitstream's
        header and section bytes add up to the stream."""
        blob = encode_image(model, image, spec)
        for levels in C.LEVEL_MASKS:
            cut = truncate_bitstream(blob, levels)
            direct = encode_image(model, image, spec, levels=levels)
            for stream in (cut, direct):
                info = inspect_bitstream(stream)
                assert C._parse_header(stream)[1] == info["header_bytes"] == size
                assert info["total_bytes"] == size + sum(info["section_bytes"].values())

    def test_header_crc_detects_corruption(self, model, image):
        blob = bytearray(encode_image(model, image, spec_for(model, 1.0)))
        blob[30] ^= 0x01
        with pytest.raises((FormatError, ModelMismatchError)):
            inspect_bitstream(bytes(blob))
            decode_image(model, bytes(blob))

    def test_truncated_payload_names_section(self, model, image):
        blob = encode_image(model, image, spec_for(model, 1.0))
        with pytest.raises(FormatError, match="section"):
            decode_image(model, blob[:-10])

    def test_wrong_model_rejected(self, model, image):
        blob = encode_image(model, image, spec_for(model, 1.0))
        other = FlowModel(FlowConfig(in_channels=3, steps=2, blocks=1, hidden=16, seed=99))
        with pytest.raises(ModelMismatchError, match="produced by model"):
            decode_image(other, blob)

    def test_wrong_channel_image_rejected(self, model):
        with pytest.raises(ModelMismatchError, match="channel"):
            encode_image(model, np.zeros((1, 16, 16)), spec_for(model, 1.0))

    def test_header_cut_short_anywhere(self, model, image):
        blob = encode_image(model, image, spec_for(model, 1.0))
        _, start = C._parse_header(blob)
        for cut in range(start):
            with pytest.raises(FormatError):
                inspect_bitstream(blob[:cut])

    @pytest.mark.parametrize("edit,match", [
        ("overlong", "overlong varint"),
        ("cut off", "truncated inside the header|CRC mismatch|more than 3 bytes"),
        ("lo below 16 bits", "symbol range"),
        ("wider than MAX_SYMBOLS", "symbol range"),
    ], ids=["overlong", "cut off", "lo below 16 bits", "wider than MAX_SYMBOLS"])
    def test_bad_base_range_varints_rejected(self, model, image, edit, match):
        """The base ranges are canonical zigzag varints of 16-bit bounds
        at most MAX_SYMBOLS apart: an overlong varint, a varint whose last
        byte runs on past the header, a lo below -32768 and a range one
        symbol too wide are format errors even when the header CRC is
        recomputed.  A varint that runs on into the CRC misreads it, or
        what follows."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        if edit in ("overlong", "cut off"):
            fixed = C._HEADER.size + C._header_tail(model.base_channels).size
            varints = bytearray(blob[fixed : start - 4])
            varints[-1] |= 0x80  # the last hi's final byte says another follows
            if edit == "overlong":  # and it does: a needless zero byte
                varints.append(0)
            head = blob[:fixed] + bytes(varints)
            if edit == "cut off":
                with pytest.raises(FormatError, match="truncated inside the header"):
                    inspect_bitstream(head)
            edited = head + struct.pack("<I", zlib.crc32(head)) + blob[start:]
        else:
            header.base_ranges[0] = ((-32769, -32769) if edit == "lo below 16 bits"
                                     else (-16384, -16384 + C.MAX_SYMBOLS))
            edited = C._pack_header(header) + blob[start:]
        with pytest.raises(FormatError, match=match):
            inspect_bitstream(edited)
        with pytest.raises(FormatError, match=match):
            decode_image(model, edited)

    @pytest.mark.parametrize("field,value", [
        ("delta2", 641), ("delta2", -641), ("delta1", 32767), ("delta1", -32768),
        ("p_thresh", float("nan")), ("p_thresh", 0.0), ("p_thresh", 1.5), ("p_thresh", -0.1),
    ])
    def test_bad_header_values_rejected(self, model, image, field, value):
        """delta2 and delta1 grid indices outside [-640, 640] and thresholds
        outside (0, 1] are format errors even when the header CRC is
        recomputed.  Every delta0 byte is a valid index."""
        blob = bytearray(encode_image(model, image, spec_for(model, 1.0)))
        _, start = C._parse_header(bytes(blob))
        p_thresh_at = struct.calcsize("<4sB16sIIH")
        delta2_at = p_thresh_at + struct.calcsize("<dB")
        offset = {"p_thresh": p_thresh_at, "delta2": delta2_at, "delta1": delta2_at + 2}[field]
        struct.pack_into("<d" if field == "p_thresh" else "<h", blob, offset, value)
        struct.pack_into("<I", blob, start - 4, zlib.crc32(bytes(blob[: start - 4])))
        with pytest.raises(FormatError):
            inspect_bitstream(bytes(blob))
        with pytest.raises(FormatError):
            decode_image(model, bytes(blob))

    @pytest.mark.parametrize("step,match", [
        (1e-300, "bad header steps"), (5e-324, "bad header steps"), (2.0 ** -40, "section z1"),
    ], ids=["1e-300", "5e-324", "2^-40"])
    def test_uncodable_step_is_a_format_error(self, model, image, step, match):
        """A CRC-valid header carrying the grid index of a step no encoder
        can code with fails to decode with FormatError, not an arithmetic
        error.  The indices of 1e-300 and 5e-324 fit 16 bits but lie off
        the grid; the grid's finest delta1, 2^-40, is on it but leaves
        section z1 undecodable."""
        blob = bytearray(encode_image(model, image, spec_for(model, 1.0)))
        _, start = C._parse_header(bytes(blob))
        struct.pack_into("<h", blob, struct.calcsize("<4sB16sIIHdBh"),
                         round(16 * np.log2(step)))
        struct.pack_into("<I", blob, start - 4, zlib.crc32(bytes(blob[: start - 4])))
        with np.errstate(over="ignore"), pytest.raises(FormatError, match=match):
            decode_image(model, bytes(blob))

    def test_base_step_the_prior_cannot_take_is_a_format_error(self, model, image):
        """A stream whose base steps leave the decoding model's prior without
        finite masses fails to decode with FormatError naming z0.  Every
        header step lies within 2^-8 to 2^(127/16), so the prior is
        sabotaged instead: a NaN weight, behind a header naming that model."""
        other = FlowModel.from_bytes(model.to_bytes())
        other.prior.matrices[1].data[0, 0, 0] = np.nan
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        header.model_id = other.model_id
        with np.errstate(all="ignore"), pytest.raises(FormatError, match="section z0"):
            decode_image(other, C._pack_header(header) + blob[start:])

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_old_versions_rejected(self, model, image, version):
        blob = bytearray(encode_image(model, image, spec_for(model, 1.0)))
        blob[4] = version
        with pytest.raises(FormatError, match=f"version {version}"):
            inspect_bitstream(bytes(blob))
        with pytest.raises(FormatError, match=f"version {version}"):
            truncate_bitstream(bytes(blob), 1.0)
        with pytest.raises(FormatError, match=f"version {version}"):
            decode_image(model, bytes(blob))

    def test_zero_image_channels_rejected(self, model, image):
        """A CRC-valid header of 0 image channels, so no base steps and no
        base ranges, is refused by the model-free tools as well as the
        decoder."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        spec = header.spec
        empty = C._pack_header(replace(header, channels=0, base_ranges=[],
                                       spec=QuantSpec(spec.delta2, spec.delta1, [])))
        assert len(empty) == C._HEADER.size + struct.calcsize("<4I") + 4
        for read in (inspect_bitstream, lambda b: truncate_bitstream(b, 1.0),
                     lambda b: decode_image(model, b)):
            with pytest.raises(FormatError, match="0 image channels"):
                read(empty + blob[start:])

    @pytest.mark.parametrize("levels", [0.0, 1.5, 4.0, float("nan")])
    def test_bad_level_mask_rejected(self, model, image, levels, monkeypatch):
        """Every entry point refuses a level mask outside LEVEL_MASKS with
        one message, before it reads the stream or runs the transform."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        message = re.escape(f"levels must be one of {list(C.LEVEL_MASKS)}, got {levels}")
        with pytest.raises(ValueError, match=message):
            truncate_bitstream(b"", levels)
        with pytest.raises(ValueError, match=message):
            decode_image(model, b"", levels)
        with pytest.raises(ValueError, match=message):
            decode_latents(model, blob, levels)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran before the level check")

        monkeypatch.setattr(model, "forward", no_forward)
        with pytest.raises(ValueError, match=message):
            encode_image(model, image, spec_for(model, 1.0), levels=levels)

    @pytest.mark.parametrize("p_thresh", [0.0, 1.5, float("nan")])
    def test_encoder_rejects_bad_threshold(self, model, image, p_thresh):
        with pytest.raises(ValueError, match="p_thresh"):
            encode_image(model, image, spec_for(model, 1.0), p_thresh=p_thresh)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_encoder_rejects_non_finite_image(self, model, image, value):
        """Refused before the transform runs, not as a header-range error."""
        bad = np.array(image, dtype=np.float64)
        bad[0, 2, 3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                encode_image(model, bad, spec_for(model, 1.0))

    @pytest.mark.parametrize("shape", [(3, 0, 8), (3, 8, 0)])
    def test_encoder_rejects_zero_extent_image(self, model, shape):
        """Refused before the transform runs, with the shape in the message."""
        with pytest.raises(ValueError, match=re.escape(f"image of shape {shape} has no pixels")):
            encode_image(model, np.zeros(shape), spec_for(model, 1.0))

    @pytest.mark.parametrize("field,value,match", [
        ("channels", 1, "image channels"),
        ("orig_h", 0, "original height"),
        ("orig_w", 0, "original width"),
        ("base_ranges", "reversed", "symbol range"),
        ("base_ranges", "too wide", "symbol range"),
    ])
    def test_header_fields_checked(self, model, image, field, value, match):
        """Header fields that are out of range or disagree with the model are
        format errors even when the header CRC is recomputed.  A width of 0
        is out of range; any positive width is a legal extent, since the
        padded extents follow from the original ones."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        if field == "channels":  # a consistent 1-channel header: 16 base steps and ranges
            spec = header.spec
            header = replace(header, channels=1,
                             spec=QuantSpec(spec.delta2, spec.delta1, spec.delta0[:16]),
                             base_ranges=header.base_ranges[:16])
        elif field == "base_ranges":  # first channel's range reversed or widest
            lo, hi = header.base_ranges[0]
            first = (hi + 1, lo) if value == "reversed" else (-32768, 32767)
            header = replace(header, base_ranges=[first] + header.base_ranges[1:])
        else:
            header = replace(header, **{field: value})
        with pytest.raises(FormatError, match=match):
            decode_image(model, C._pack_header(header) + blob[start:])

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            inspect_bitstream(b"JUNKJUNKJUNKJUNK" * 8)

    def test_pixel_limit(self, model, image, monkeypatch):
        """A header of 2^16 x 2^16 original pixels (CRC recomputed) is refused
        before any latent is allocated, and the encoder refuses to write a
        stream past the limit.  The limit is 2048 x 2048 padded pixels: the
        parser takes that header and refuses one 8 columns wider."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        big = C._pack_header(replace(header, orig_h=1 << 16, orig_w=1 << 16)) + blob[start:]
        with pytest.raises(FormatError, match="pixel limit"):
            inspect_bitstream(big)
        edge = C._pack_header(replace(header, orig_h=2048, orig_w=2048)) + blob[start:]
        assert inspect_bitstream(edge)["padded_size"] == (2048, 2048)
        wider = C._pack_header(replace(header, orig_h=2048, orig_w=2056)) + blob[start:]
        with pytest.raises(FormatError, match="2048x2056 exceed the 4194304-pixel limit"):
            inspect_bitstream(wider)
        with pytest.raises(FormatError, match="pixel limit"):
            decode_image(model, big)
        monkeypatch.setattr(C, "MAX_PIXELS", 32 * 24)
        with pytest.raises(ValueError, match="pixel limit"):
            encode_image(model, image, spec_for(model, 1.0))
        with pytest.raises(FormatError, match="pixel limit"):
            inspect_bitstream(blob)

    def test_hostile_section_is_corrupt(self, model, image):
        """A z2b section of 100,000 0xFF bytes, with its length and the
        header CRC consistent, is refused as corrupt instead of decoding
        into garbage while the coder's code value grows each symbol."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        sections = C._split_sections(blob, header, start)
        sections["z2b"] = b"\xff" * 100_000
        header.section_lengths["z2b"] = len(sections["z2b"])
        hostile = C._pack_header(header) + b"".join(sections.values())
        with pytest.raises(FormatError, match="corrupt section z2"):
            decode_image(model, hostile)

    @pytest.mark.parametrize("name", ["z0", "z1"])
    def test_unread_section_bytes_rejected(self, model, image, name):
        """800 junk bytes after the code of a section, with the section
        length and the header CRC consistent, are refused: the decoder
        reads every byte of a valid section."""
        blob = encode_image(model, image, spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        sections = C._split_sections(blob, header, start)
        sections[name] += bytes(np.random.default_rng(96).integers(0, 256, 800, dtype=np.uint8))
        header.section_lengths[name] = len(sections[name])
        padded = C._pack_header(header) + b"".join(sections.values())
        with pytest.raises(FormatError, match=f"section {name}: 800 bytes after the end"):
            decode_image(model, padded)

    @pytest.mark.parametrize("levels", [1.0, 2.0, 2.5])
    def test_bytes_in_undeclared_sections_rejected(self, model, image, levels):
        """A full stream whose header declares fewer sections (CRC
        recomputed) still carries the later sections' bytes; every entry
        point refuses it rather than reading a prefix of it."""
        blob = encode_image(model, image[:, :16, :16], spec_for(model, 1.0))
        header, start = C._parse_header(blob)
        cut = C._pack_header(replace(header, level_mask=levels)) + blob[start:]
        dropped = C._SECTION_NAMES[C.LEVEL_MASKS.index(levels) + 1]
        match = f"section {re.escape(C._SECTION_LABELS[dropped])} holds \\d+ bytes, beyond the"
        for call in (inspect_bitstream, lambda b: decode_image(model, b),
                     lambda b: truncate_bitstream(b, 1.0)):
            with pytest.raises(FormatError, match=match):
                call(cut)

    def test_trailing_bytes_rejected(self, model, image):
        blob = encode_image(model, image[:, :16, :16], spec_for(model, 1.0)) + b"xx"
        with pytest.raises(FormatError, match="2 trailing bytes"):
            decode_image(model, blob)
        with pytest.raises(FormatError, match="trailing"):
            inspect_bitstream(blob)
        with pytest.raises(FormatError, match="trailing"):
            truncate_bitstream(blob, 2.0)


DESK_MODEL = Path(__file__).parent.parent / "perfbench" / "model" / "desk.nfc"


@pytest.fixture(scope="module")
def desk_model():
    """The committed benchmark model: hidden 16, 2 steps, 3 channels."""
    return FlowModel.load(DESK_MODEL)


def openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is OpenBLAS built to pick its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


class TestMachineIndependence:
    @pytest.mark.skipif(not openblas_dynamic_arch(),
                        reason="needs OpenBLAS built with DYNAMIC_ARCH")
    def test_decode_under_another_blas_kernel(self, desk_model, tmp_path):
        """Streams of the desk model decode to the same latents under
        OpenBLAS's Nehalem kernel as under the kernel it picks here: the
        conditioning nets' rounding may differ, the coded symbols may not."""
        images = make_desk_corpus(np.random.default_rng(180), 2, 64)
        blobs = [encode_image(desk_model, img, spec_for(desk_model, step))
                 for img in images for step in (0.25, 4.0)]
        for i, blob in enumerate(blobs):
            (tmp_path / f"{i}.nfb").write_bytes(blob)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from pathlib import Path\n"
            "from flowcodec.codec import decode_latents\n"
            "from flowcodec.flow import FlowModel\n"
            "model = FlowModel.load(sys.argv[1])\n"
            "out = {}\n"
            "for i in range(int(sys.argv[3])):\n"
            "    latents, _ = decode_latents(model, (Path(sys.argv[2]) / f'{i}.nfb').read_bytes())\n"
            "    out.update({f'{i}_{k}': v for k, v in enumerate(latents)})\n"
            "np.savez(Path(sys.argv[2]) / 'latents.npz', **out)\n"
        )
        src = Path(C.__file__).parent.parent
        env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", script, str(DESK_MODEL), str(tmp_path),
                        str(len(blobs))], env=env, check=True, timeout=300)
        with np.load(tmp_path / "latents.npz") as nehalem:
            for i, blob in enumerate(blobs):
                latents, _ = decode_latents(desk_model, blob)
                for k, z in enumerate(latents):
                    assert np.array_equal(nehalem[f"{i}_{k}"], z), (i, k)


class TestGoldenStreams:
    """The committed desk model codes one seeded 64x64 desk image to these
    exact bytes: a change to the transform, the conditionals or the coder
    that moves one bit of a payload fails here, and so does a change to
    the header.  The payload digests, of the bytes after the header, date
    from bitstream version 5, whose header of 652 bytes coded the same
    payloads."""

    @pytest.mark.parametrize("step,header_digest,payload_digest", [
        (0.25, "2d044a5f7a34146cdb115f02b17b21d7a47885087eb2ffde2e382afbf050666a",
         "65e46d152d89f05a967d1ba710d89a084a2dd0b2dd6e90bc18b9f99b4b9ecd99"),
        (1.0, "338ef916499345f33b33a0934b65e42ce3951ec1b21ddeb36b388da1265caf0a",
         "31fcefa7100544f107308634989df9f2adc33ceb95d3f8e14fdd9a808c18c086"),
        (4.0, "985a4eb9918e7745c306e79e1e47bc0b48c28f28943e4363b8f89c77fd06d808",
         "0cb661efd49812b560fcaf7126b482d9054489c072b80f5ac21d0b200e729d87"),
    ], ids=["0.25", "1.0", "4.0"])
    def test_desk_model_stream_bytes(self, desk_model, step, header_digest, payload_digest):
        image = make_desk_corpus(np.random.default_rng(182), 1, 64)[0]
        blob = encode_image(desk_model, image, spec_for(desk_model, step))
        _, start = C._parse_header(blob)
        assert hashlib.sha256(blob[:start]).hexdigest() == header_digest
        assert hashlib.sha256(blob[start:]).hexdigest() == payload_digest

class TestMemoryBound:
    def test_coding_peak_within_the_declared_bound(self, desk_model):
        """encode_image and decode_image each peak, as tracemalloc sees
        numpy's allocations, within the 320 bytes per padded pixel that
        codec.py's docstring declares."""
        bound = 320
        image = make_desk_corpus(np.random.default_rng(181), 1, 256)[0]
        spec = spec_for(desk_model, 1.0)
        decode_image(desk_model, encode_image(desk_model, image[:, :8, :8], spec))
        peaks = []
        tracemalloc.start()
        try:
            blob = encode_image(desk_model, image, spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            decode_image(desk_model, blob)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) <= bound * 256 * 256, [p / 256**2 for p in peaks]
