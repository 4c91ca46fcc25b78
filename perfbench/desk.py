"""Seeded desk-style synthetic RGB images at any size.

Each image is a per-channel base colour with a linear tilt, one to three
soft blobs, an optional flat block and mild Gaussian noise, clipped to
[0, 255].  For a given generator state this draws the same values as the
acceptance suite's desk corpus, so the committed model and the suite's
desk fixture train on identical data.
"""

from __future__ import annotations

import numpy as np


def desk_images(rng: np.random.Generator, n: int, size: int) -> list[np.ndarray]:
    """`n` float64 (3, size, size) images drawn from `rng`; size >= 9."""
    yy, xx = np.mgrid[0:size, 0:size] / size
    images = []
    for _ in range(n):
        base = rng.uniform(40, 200, size=3)
        tilt = rng.uniform(-60, 60, size=(3, 2))
        img = base[:, None, None] + tilt[:, 0, None, None] * yy + tilt[:, 1, None, None] * xx
        for _ in range(int(rng.integers(1, 4))):
            cy, cx = rng.uniform(0.15, 0.85, size=2)
            radius = rng.uniform(0.08, 0.3)
            blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * radius**2)))
            img = img + rng.uniform(-70, 70, size=(3, 1, 1)) * blob
        if rng.random() < 0.5:
            top, left = rng.integers(0, size - 8, size=2)
            hgt, wid = rng.integers(4, 12, size=2)
            img[:, top : top + hgt, left : left + wid] += rng.uniform(-50, 50, size=(3, 1, 1))
        img = img + rng.normal(0, 2.0, size=img.shape)
        images.append(np.clip(img, 0, 255))
    return images
