"""Train the fixed desk model that the codec workloads load.

    python3 perfbench/train_model.py

Runs the acceptance suite's desk recipe once (architecture K=2,
hidden=16, model seed 42; 500 steps of batch 8 x 32^2 patches at
lambda 1, train seed 7; 100-image corpus from seed 1000) and writes
perfbench/model/desk.nfc plus its SHA-256.  Takes a few minutes on two
cores.  The committed file is never retrained: the codec workloads keep
their inputs when training code changes later.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from desk import desk_images  # noqa: E402
from flowcodec import FlowConfig, FlowModel, TrainConfig, train  # noqa: E402
from workloads import DESK_ARCH, MODEL_PATH  # noqa: E402

DESK_TRAIN = dict(lambda_rd=1.0, steps=500, batch_size=8, patch=32, seed=7)
CORPUS_SEED = 1000


def main() -> None:
    start = time.perf_counter()
    corpus = desk_images(np.random.default_rng(CORPUS_SEED), 100, 32)
    model = FlowModel(FlowConfig(**DESK_ARCH))
    history = train(model, corpus, TrainConfig(**DESK_TRAIN))
    raw = model.to_bytes()
    MODEL_PATH.parent.mkdir(exist_ok=True)
    MODEL_PATH.write_bytes(raw)
    digest = hashlib.sha256(raw).hexdigest()
    MODEL_PATH.with_suffix(".nfc.sha256").write_text(f"{digest}  {MODEL_PATH.name}\n")
    print(f"wrote {MODEL_PATH} ({len(raw)} bytes, sha256 {digest}) in "
          f"{time.perf_counter() - start:.0f} s; final loss {history[-1]['loss']:.3f}")


if __name__ == "__main__":
    main()
