"""The benchmark's three workloads and the loop that runs them.

Every workload is a closed loop with one caller: each operation (one
encode, one decode, one training step) finishes before the next starts.
A workload repeats whole cycles over its seeded input set until the run
time is spent, so every cycle does the same work.  Output checks and
quality measurements run between operations, off the timed path.

Why each workload:

* codec-ladder -- the paper's "one model, many qualities" use: the fixed
  desk model encodes and fully decodes five 64x64 images at steps 0.25, 1
  and 4.  Almost all of the time goes into per-element frequency tables and
  range coding (tables of ~23 symbols at step 4 up to ~400 at step
  0.25), so this workload shows coder work.  Five images, not one: a
  single image's coding time moved by ~8% from seed to seed, which added
  to the machine's own drift between runs.
* codec-preview -- the progressive/thumbnail path at 256x256: encode at
  level mask 1 and decode.  Runnable by hand but not in BENCHMARK.json:
  with three workloads the benchmark's time budget allowed runs of only
  30 s, and at 30 s the machine's speed swings spread codec-ladder's
  timings beyond their bound.  Only z0 is entropy-coded, under per-channel
  tables built once; z1 and z2 are mean-substituted through the
  conditioning chain.  So no per-element tables are built: the flow
  transform with conv2d forward at batch 1 is the largest layer, and
  range coding of z0 the next.
* train -- `train()` on a fresh desk model with the acceptance recipe
  (batch 8 x 32x32 patches, lambda 1) for a fixed number of steps:
  conv2d with gradients at batch 8, `Tensor.backward`, AdaMax and the
  per-step nll metric, and no codec code.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import flowcodec as fc
from desk import desk_images
from reference import Reference

MODEL_PATH = Path(__file__).resolve().parent / "model" / "desk.nfc"
DESK_ARCH = dict(in_channels=3, steps=2, blocks=1, hidden=16, seed=42)


@dataclass
class Recorder:
    """What the operations of a run did and cost."""

    attempted: int = 0
    failed: int = 0
    # seconds of each completed request and of its operations, by kind
    # (request; encode and decode, or train_step), then by input: the
    # index of the image, or 0 for every training step
    times: defaultdict = field(default_factory=lambda: defaultdict(lambda: defaultdict(list)))
    pixels: dict = field(default_factory=dict)        # source pixels per request, by input
    bpp: list[float] = field(default_factory=list)    # first cycle only
    psnr: list[float] = field(default_factory=list)   # first cycle only
    section_bytes: Counter = field(default_factory=Counter)  # first cycle only
    # sampled after each request, off the timed path, when set
    reference: Reference | None = None

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc()

    def record(self, key: int, pixels: int, **seconds: float) -> None:
        self.pixels[key] = pixels
        for kind, value in seconds.items():
            self.times[kind][key].append(value)
        if self.reference is not None:
            self.reference.keep_up()

    def samples(self, kind: str = "request") -> list[float]:
        return [t for by_input in self.times[kind].values() for t in by_input]

    def kpx_s(self, kind: str = "request") -> float:
        """Source pixels of the input set over the sum of each input's
        median time.  Every input counts once however often it ran, and a
        stretch of the run slowed by other processes moves a median less
        than a mean."""
        by_input = self.times[kind]
        seconds = sum(statistics.median(by_input[key]) for key in by_input)
        return sum(self.pixels[key] for key in by_input) / 1e3 / seconds

    def ms_p50(self, kind: str = "request") -> float:
        """Median over the inputs of each input's median time."""
        by_input = self.times[kind]
        return statistics.median(statistics.median(t) for t in by_input.values()) * 1e3

    @property
    def busy_s(self) -> float:
        """Time inside the timed requests."""
        return sum(self.samples())


def load_model() -> fc.FlowModel:
    """The committed desk model, refused unless its SHA-256 matches."""
    expected = MODEL_PATH.with_suffix(".nfc.sha256").read_text().split()[0]
    digest = hashlib.sha256(MODEL_PATH.read_bytes()).hexdigest()
    if digest != expected:
        raise SystemExit(f"{MODEL_PATH.name}: sha256 {digest} does not match {expected}")
    return fc.FlowModel.load(MODEL_PATH)


# -- codec workloads -------------------------------------------------------------------


def setup_codec(seed: int, size: int, images: int, steps: tuple, levels: float):
    model = load_model()
    state = SimpleNamespace(
        model=model,
        images=desk_images(np.random.default_rng(seed), images, size),
        specs=[fc.QuantSpec.uniform(step, model.base_channels) for step in steps],
        levels=levels,
    )
    # the smallest image the transform takes runs every code path once
    warm = state.images[0][:, :8, :8]
    fc.decode_image(model, fc.encode_image(model, warm, state.specs[-1], levels=levels))
    return state


def codec_cycle(state, rec: Recorder, first: bool, pause, deadline=None) -> None:
    """Each image is one request: at each step, encode, then decode.
    Stops between images once `deadline` has passed."""
    for index, image in enumerate(state.images):
        if deadline is not None and time.perf_counter() > deadline:
            return
        _, h, w = image.shape
        encode_s = decode_s = 0.0
        for spec in state.specs:
            seconds = code_once(state, rec, image, spec, first, first and index == 0, pause)
            if seconds is None:
                break
            encode_s += seconds[0]
            decode_s += seconds[1]
        else:
            rec.record(index, h * w * len(state.specs), request=encode_s + decode_s,
                       encode=encode_s, decode=decode_s)


def code_once(state, rec: Recorder, image, spec, first: bool, idempotence: bool, pause):
    """(encode, decode) seconds of one image at one step, or None if an
    operation or a check failed."""
    model = state.model
    rec.attempted += 2
    try:
        t0 = time.perf_counter()
        blob = fc.encode_image(model, image, spec, levels=state.levels)
        t1 = time.perf_counter()
    except Exception:
        rec.fail(f"encode at step {spec.delta1}", 2)
        return None
    try:
        out = fc.decode_image(model, blob)
        t2 = time.perf_counter()
    except Exception:
        rec.fail(f"decode at step {spec.delta1}")
        return None
    with pause():
        if out.shape != image.shape or not np.all(np.isfinite(out)):
            rec.failed += 1
            print(f"decode check failed: shape {out.shape}, step {spec.delta1}", file=sys.stderr)
            return None
        if idempotence and fc.encode_image(model, out, spec, levels=state.levels) != blob:
            rec.failed += 1
            print(f"re-encoding changed the bitstream at step {spec.delta1}", file=sys.stderr)
            return None
        if first:
            _, h, w = image.shape
            rec.bpp.append(fc.bpp(len(blob), h, w))
            rec.psnr.append(fc.psnr(out, image))
            rec.section_bytes.update(fc.inspect_bitstream(blob)["section_bytes"])
    return t1 - t0, t2 - t1


# -- training workload -----------------------------------------------------------------


@contextlib.contextmanager
def step_clock():
    """Start times of the training steps, taken where `train()` calls
    `training.sample_batch`.  Empty if that name is gone."""
    import flowcodec.training as training

    marks: list[float] = []
    original = getattr(training, "sample_batch", None)
    if original is None:
        yield marks
        return

    def clocked(*args, **kwargs):
        marks.append(time.perf_counter())
        return original(*args, **kwargs)

    training.sample_batch = clocked
    try:
        yield marks
    finally:
        training.sample_batch = original


def setup_train(seed: int, corpus: int, size: int, recipe: dict):
    state = SimpleNamespace(
        corpus=desk_images(np.random.default_rng(seed), corpus, size),
        recipe=recipe,
    )
    warm = fc.TrainConfig(**dict(recipe, steps=1))
    fc.train(fc.FlowModel(fc.FlowConfig(**DESK_ARCH)), state.corpus, warm)
    return state


def train_cycle(state, rec: Recorder, first: bool, pause, deadline=None) -> None:
    """One `train()` call on a fresh model; each step is one request.
    The call always runs whole, so `deadline` is not used."""
    cfg = fc.TrainConfig(**state.recipe)
    model = fc.FlowModel(fc.FlowConfig(**DESK_ARCH))
    rec.attempted += cfg.steps
    with step_clock() as marks:
        start = time.perf_counter()
        try:
            history = fc.train(model, state.corpus, cfg)
        except Exception:
            rec.fail("train()", cfg.steps)
            return
        end = time.perf_counter()
    with pause():
        losses = np.array([row["loss"] for row in history])
        if len(history) != cfg.steps or not np.all(np.isfinite(losses)):
            rec.failed += cfg.steps
            print(f"training check failed: {len(history)} rows, losses {losses}", file=sys.stderr)
            return
        if first:
            area = cfg.patch * cfg.patch
            rec.bpp.extend(row["rate"] / area for row in history)
            rec.psnr.extend(row["psnr"] for row in history)
    if len(marks) == cfg.steps:
        steps_s = np.diff(marks + [end]).tolist()
    else:  # no step boundaries: every step gets the mean
        steps_s = [(end - start) / cfg.steps] * cfg.steps
    for seconds in steps_s:
        rec.record(0, cfg.batch_size * cfg.patch * cfg.patch, request=seconds, train_step=seconds)


@dataclass
class Workload:
    setup: object
    cycle: object
    full: dict
    smoke: dict


LADDER_STEPS = (0.25, 1.0, 4.0)
TRAIN_RECIPE = dict(lambda_rd=1.0, batch_size=8, patch=32, seed=7)

WORKLOADS = {
    "codec-ladder": Workload(
        setup_codec, codec_cycle,
        full=dict(size=64, images=5, steps=LADDER_STEPS, levels=3.0),
        smoke=dict(size=16, images=1, steps=LADDER_STEPS, levels=3.0),
    ),
    "codec-preview": Workload(
        setup_codec, codec_cycle,
        full=dict(size=256, images=12, steps=(1.0,), levels=1.0),
        smoke=dict(size=32, images=1, steps=(1.0,), levels=1.0),
    ),
    "train": Workload(
        setup_train, train_cycle,
        full=dict(corpus=100, size=32, recipe=dict(TRAIN_RECIPE, steps=8)),
        smoke=dict(corpus=4, size=16, recipe=dict(TRAIN_RECIPE, steps=2, batch_size=2, patch=8)),
    ),
}
