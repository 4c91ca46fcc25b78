"""Image file handling: 8-bit binary PPM always, PNG read when Pillow
is available.

Images move through the codec as float64 (channels, height, width)
arrays on the [0, 255] scale; writing rounds ties-to-even and clips.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import FormatError

# Netpbm lets a '#' comment, to the end of its line, stand between header tokens
_SEP = rb"(?:\s|#[^\n\r]*[\n\r])+"
_PPM_HEADER = re.compile(rb"^P6" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)\s")


def read_image(path) -> np.ndarray:
    """Load an RGB image as float64 (3, H, W) in [0, 255]."""
    path = str(path)
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"P6":
        return read_ppm(path)
    if head == b"\x89P":
        return _read_png(path)
    raise FormatError(f"{path}: unsupported image format (need P6 PPM or PNG)")


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    match = _PPM_HEADER.match(raw)
    if not match:
        raise FormatError(f"{path}: not a binary (P6) PPM file")
    width, height, maxval = (int(match.group(i)) for i in (1, 2, 3))
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit PPM supported, maxval={maxval}")
    needed = width * height * 3
    if len(raw) - match.end() < needed:
        raise FormatError(f"{path}: truncated PPM pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=needed, offset=match.end())
    return pixels.reshape(height, width, 3).transpose(2, 0, 1).astype(np.float64)


def write_ppm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise FormatError(f"PPM writer needs (3, H, W) data, got {image.shape}")
    _, h, w = image.shape
    data = np.clip(np.round(image), 0, 255).astype(np.uint8)
    with open(str(path), "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(data.transpose(1, 2, 0).tobytes())


def _read_png(path) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as exc:
        raise FormatError(
            f"{path}: PNG support needs Pillow (pip install flowcodec[png])"
        ) from exc
    with Image.open(path) as img:
        rgb = img.convert("RGB")
        arr = np.asarray(rgb, dtype=np.float64)
    return arr.transpose(2, 0, 1)
