"""Image I/O: PPM round trips and format validation."""

import numpy as np
import pytest

from flowcodec.errors import FormatError
from flowcodec.imageio import read_image, read_ppm, write_ppm


class TestPpm:
    def test_roundtrip_exact_for_integers(self, tmp_path):
        rng = np.random.default_rng(120)
        img = rng.integers(0, 256, size=(3, 10, 14)).astype(np.float64)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (3, 10, 14)
        assert np.array_equal(back, img)

    def test_write_rounds_and_clips(self, tmp_path):
        img = np.array([[[-5.0, 0.4]], [[255.6, 254.5]], [[127.5, 128.5]]])
        path = tmp_path / "clip.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert np.array_equal(back[:, 0], np.array([[0.0, 0.0], [255.0, 254.0], [128.0, 128.0]]))

    def test_read_dispatches_on_magic(self, tmp_path):
        img = np.full((3, 4, 4), 9.0)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_image(path), img)

    def test_header_comments_are_skipped(self, tmp_path):
        pixels = bytes(range(6))
        plain, commented = tmp_path / "plain.ppm", tmp_path / "commented.ppm"
        plain.write_bytes(b"P6\n2 1\n255\n" + pixels)
        commented.write_bytes(b"P6\n# CREATOR: GIMP PNM Filter Version 1.1\n2 # width\n"
                              b"# height next\r1\n255\n" + pixels)
        assert np.array_equal(read_image(commented), read_ppm(plain))
        assert np.array_equal(read_ppm(plain)[:, 0, 1], [3.0, 4.0, 5.0])

    def test_rejects_ascii_ppm(self, tmp_path):
        path = tmp_path / "p3.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(FormatError, match="P6"):
            read_image(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n\x00\x01")
        with pytest.raises(FormatError, match="truncated"):
            read_ppm(path)

    def test_rejects_16bit(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="8-bit"):
            read_ppm(path)

    @pytest.mark.parametrize("raw", [b"P6\n2 x\n255\n" + bytes(6), b"P6\n2 1\n",
                                     b"P6 -2 1 255\n" + bytes(6)],
                             ids=["letter-height", "no-maxval", "negative-width"])
    def test_rejects_malformed_p6_header(self, tmp_path, raw):
        path = tmp_path / "bad.ppm"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="not a binary"):
            read_image(path)

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"GARBAGE")
        with pytest.raises(FormatError, match="unsupported"):
            read_image(path)

    def test_writer_needs_rgb(self, tmp_path):
        with pytest.raises(FormatError, match="3, H, W"):
            write_ppm(tmp_path / "g.ppm", np.zeros((1, 4, 4)))


class TestPng:
    def test_png_read_when_pillow_present(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        rng = np.random.default_rng(121)
        arr = rng.integers(0, 256, size=(6, 5, 3)).astype("uint8")
        path = tmp_path / "img.png"
        PIL.fromarray(arr).save(path)
        img = read_image(path)
        assert img.shape == (3, 6, 5)
        assert np.array_equal(img, arr.transpose(2, 0, 1).astype(np.float64))
