"""Command-line surface: file plumbing, exit codes, CSV contracts."""

import hashlib
import struct

import numpy as np
import pytest
from helpers import make_desk_corpus

import flowcodec.cli as cli
from flowcodec.cli import main
from flowcodec.flow import FlowModel
from flowcodec.imageio import read_ppm, write_ppm


@pytest.fixture()
def test_card(tmp_path):
    img = make_desk_corpus(np.random.default_rng(888), 1, 24)[0]
    path = tmp_path / "card.ppm"
    write_ppm(path, img)
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestEncodeDecode:
    def test_roundtrip_via_files(self, quick_model_path, test_card, tmp_path, capsys):
        bs = tmp_path / "card.nfb"
        out = tmp_path / "card_out.ppm"
        assert run("encode", "--model", quick_model_path, "--input", test_card,
                   "--deltas", "1.0", "--out", bs, "--verify") == 0
        text = capsys.readouterr().out
        assert "bpp" in text and "verify psnr" in text
        assert run("decode", "--model", quick_model_path, "--bitstream", bs,
                   "--out", out) == 0
        decoded = read_ppm(out)
        assert decoded.shape == read_ppm(test_card).shape

    def test_inputs_never_mutated(self, quick_model_path, test_card, tmp_path):
        before = test_card.read_bytes()
        model_before = quick_model_path.read_bytes()
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", tmp_path / "o.nfb")
        assert test_card.read_bytes() == before
        assert quick_model_path.read_bytes() == model_before

    def test_level1_smaller_than_level3(self, quick_model_path, test_card, tmp_path):
        small, full = tmp_path / "s.nfb", tmp_path / "f.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--levels", "1", "--out", small)
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--levels", "3", "--out", full)
        assert small.stat().st_size < full.stat().st_size

    def test_missing_model_nonzero_exit_no_output(self, test_card, tmp_path, capsys):
        out = tmp_path / "never.nfb"
        code = run("encode", "--model", tmp_path / "missing.nfc",
                   "--input", test_card, "--deltas", "1.0", "--out", out)
        assert code == 2
        assert not out.exists()
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [("encode", "--model"), ("encode", "--input"),
                                              ("decode", "--model"), ("decode", "--bitstream"),
                                              ("inspect", "--bitstream")])
    def test_directory_path_exit_2(self, quick_model_path, test_card, tmp_path, capsys,
                                   command, flag):
        """A directory where a file belongs is a usage error with a
        one-line message, not a traceback."""
        bs = tmp_path / "card.nfb"
        assert run("encode", "--model", quick_model_path, "--input", test_card,
                   "--deltas", "1.0", "--out", bs) == 0
        capsys.readouterr()
        argv = {
            "encode": {"--model": quick_model_path, "--input": test_card, "--deltas": "1.0",
                       "--out": tmp_path / "o.nfb"},
            "decode": {"--model": quick_model_path, "--bitstream": bs,
                       "--out": tmp_path / "o.ppm"},
            "inspect": {"--bitstream": bs},
        }[command]
        argv[flag] = tmp_path
        assert run(command, *(a for pair in argv.items() for a in pair)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "o.nfb").exists() and not (tmp_path / "o.ppm").exists()

    def test_bad_deltas_argument(self, quick_model_path, test_card, tmp_path):
        assert run("encode", "--model", quick_model_path, "--input", test_card,
                   "--deltas", "nonsense", "--out", tmp_path / "x.nfb") == 2

    def test_step_file_roundtrip(self, quick_model_path, test_card, tmp_path):
        model = FlowModel.load(quick_model_path)
        from flowcodec.entropy import QuantSpec
        spec = QuantSpec.uniform(0.5, model.base_channels)
        deltas = tmp_path / "steps.txt"
        deltas.write_text("\n".join(spec.to_lines()) + "\n")
        assert run("encode", "--model", quick_model_path, "--input", test_card,
                   "--deltas", deltas, "--out", tmp_path / "y.nfb") == 0

    def test_step_file_for_another_model_exit_4(self, quick_model_path, test_card,
                                                tmp_path, capsys):
        model = FlowModel.load(quick_model_path)
        from flowcodec.entropy import QuantSpec
        spec = QuantSpec.uniform(0.5, model.base_channels + 1)
        deltas = tmp_path / "steps.txt"
        deltas.write_text("\n".join(spec.to_lines()) + "\n")
        out = tmp_path / "y.nfb"
        assert run("encode", "--model", quick_model_path, "--input", test_card,
                   "--deltas", deltas, "--out", out) == 4
        assert "base channels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["-1", "0", "nan"])
    def test_non_positive_step_exit_2(self, quick_model_path, test_card, tmp_path, step):
        out = tmp_path / "z.nfb"
        assert run("encode", "--model", quick_model_path, "--input", test_card,
                   "--deltas", step, "--out", out) == 2
        assert not out.exists()

    def test_wrong_model_decode_exit_4(self, quick_model_path, test_card, tmp_path):
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", bs)
        from flowcodec.flow import FlowConfig
        other = tmp_path / "other.nfc"
        FlowModel(FlowConfig(in_channels=3, steps=2, blocks=1, hidden=16, seed=12345)).save(other)
        assert run("decode", "--model", other, "--bitstream", bs,
                   "--out", tmp_path / "o.ppm") == 4

    def test_base_symbols_beyond_16_bits_exit_5(self, quick_model_path, test_card, tmp_path,
                                                 capsys):
        """At a base step of 2^-8, pixel-scale base latents leave the
        header's 16-bit symbol range."""
        out = tmp_path / "never.nfb"
        assert run("encode", "--model", quick_model_path, "--input", test_card,
                   "--deltas", 2.0 ** -8, "--out", out) == 5
        assert not out.exists()
        assert "exceed the 16-bit header range" in capsys.readouterr().err

    def test_model_of_another_prior_scale_exit_3(self, quick_model_path, test_card, tmp_path):
        """A prior init scale of 0 behind a recomputed content hash."""
        body = bytearray(quick_model_path.read_bytes()[:-32])
        struct.pack_into("<d", body, 23, 0.0)
        bad = tmp_path / "bad.nfc"
        bad.write_bytes(bytes(body) + hashlib.sha256(body).digest())
        out = tmp_path / "never.nfb"
        assert run("encode", "--model", bad, "--input", test_card,
                   "--deltas", "1.0", "--out", out) == 3
        assert not out.exists()

    def test_corrupt_bitstream_exit_3(self, quick_model_path, test_card, tmp_path):
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", bs)
        raw = bytearray(bs.read_bytes())
        raw[40] ^= 0xFF
        bs.write_bytes(bytes(raw))
        assert run("decode", "--model", quick_model_path, "--bitstream", bs,
                   "--out", tmp_path / "o.ppm") == 3


    def test_hostile_section_exit_3(self, quick_model_path, test_card, tmp_path):
        """A consistent header over a z2b section of 0xFF bytes."""
        import flowcodec.codec as C
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", bs)
        blob = bs.read_bytes()
        header, start = C._parse_header(blob)
        sections = C._split_sections(blob, header, start)
        sections["z2b"] = b"\xff" * 100_000
        header.section_lengths["z2b"] = len(sections["z2b"])
        bs.write_bytes(C._pack_header(header) + b"".join(sections.values()))
        assert run("inspect", "--bitstream", bs) == 0  # the container is well formed
        assert run("decode", "--model", quick_model_path, "--bitstream", bs,
                   "--out", tmp_path / "o.ppm") == 3
        assert not (tmp_path / "o.ppm").exists()


    def test_unread_section_bytes_exit_3(self, quick_model_path, test_card, tmp_path):
        """800 junk bytes after the code of z0, length and CRC consistent."""
        import flowcodec.codec as C
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", bs)
        blob = bs.read_bytes()
        header, start = C._parse_header(blob)
        sections = C._split_sections(blob, header, start)
        sections["z0"] += bytes(800)
        header.section_lengths["z0"] = len(sections["z0"])
        bs.write_bytes(C._pack_header(header) + b"".join(sections.values()))
        assert run("inspect", "--bitstream", bs) == 0
        assert run("decode", "--model", quick_model_path, "--bitstream", bs,
                   "--out", tmp_path / "o.ppm") == 3
        assert not (tmp_path / "o.ppm").exists()


class TestInspectTruncate:
    def test_inspect_full_stream(self, quick_model_path, test_card, tmp_path, capsys):
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--levels", "3", "--out", bs)
        capsys.readouterr()
        assert run("inspect", "--bitstream", bs) == 0
        text = capsys.readouterr().out
        assert "levels: 3.0" in text
        assert "partial_fraction: 0.5" in text
        for name in ("z0", "z1", "z2a", "z2b"):
            assert f"section {name}:" in text

    def test_inspect_prints_header_bytes_and_snapped_steps(self, quick_model_path, test_card,
                                                           tmp_path, capsys):
        """`--deltas 0.3` codes at the grid step 2^(-28/16); inspect prints
        the header's size, which with the sections makes up the stream."""
        from flowcodec.codec import inspect_bitstream
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "0.3", "--out", bs)
        capsys.readouterr()
        assert run("inspect", "--bitstream", bs) == 0
        text = capsys.readouterr().out
        info = inspect_bitstream(bs.read_bytes())
        assert f"header: {info['header_bytes']} bytes" in text
        assert info["header_bytes"] + sum(info["section_bytes"].values()) == info["total_bytes"]
        assert f"delta1: {2.0 ** (-28 / 16)!r}" in text

    @pytest.mark.parametrize("version", [1, 5])
    def test_old_version_exit_3(self, quick_model_path, test_card, tmp_path, version):
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", bs)
        blob = bytearray(bs.read_bytes())
        blob[4] = version
        bs.write_bytes(bytes(blob))
        assert run("inspect", "--bitstream", bs) == 3
        assert run("truncate", "--bitstream", bs, "--levels", "1", "--out", tmp_path / "t") == 3
        assert run("decode", "--model", quick_model_path, "--bitstream", bs,
                   "--out", tmp_path / "o.ppm") == 3

    def test_undeclared_section_bytes_exit_3(self, quick_model_path, test_card, tmp_path):
        """A full stream whose header declares one section, CRC recomputed."""
        from dataclasses import replace

        import flowcodec.codec as C
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", bs)
        blob = bs.read_bytes()
        header, start = C._parse_header(blob)
        bs.write_bytes(C._pack_header(replace(header, level_mask=1.0)) + blob[start:])
        assert run("inspect", "--bitstream", bs) == 3
        assert run("truncate", "--bitstream", bs, "--levels", "1", "--out", tmp_path / "t") == 3
        assert run("decode", "--model", quick_model_path, "--bitstream", bs,
                   "--out", tmp_path / "o.ppm") == 3
        assert not (tmp_path / "o.ppm").exists()

    def test_truncate_then_decode(self, quick_model_path, test_card, tmp_path):
        bs, cut = tmp_path / "c.nfb", tmp_path / "cut.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", bs)
        assert run("truncate", "--bitstream", bs, "--levels", "2.5", "--out", cut) == 0
        assert cut.stat().st_size < bs.stat().st_size
        assert run("decode", "--model", quick_model_path, "--bitstream", cut,
                   "--out", tmp_path / "o.ppm") == 0

    def test_header_model_mismatch_exit_3(self, quick_model_path, test_card, tmp_path):
        """A header declaring one base channel fewer than the model has,
        with a valid CRC, is a format error."""
        from dataclasses import replace

        import flowcodec.codec as C
        from flowcodec.entropy import QuantSpec
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", bs)
        blob = bs.read_bytes()
        header, start = C._parse_header(blob)
        spec = header.spec
        header = replace(header, spec=QuantSpec(spec.delta2, spec.delta1, spec.delta0[:-1]),
                         base_ranges=header.base_ranges[:-1])
        bs.write_bytes(C._pack_header(header) + blob[start:])
        assert run("decode", "--model", quick_model_path, "--bitstream", bs,
                   "--out", tmp_path / "o.ppm") == 3
        assert not (tmp_path / "o.ppm").exists()

    def test_inspect_header_prefix_exit_3(self, quick_model_path, test_card, tmp_path):
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", bs)
        bs.write_bytes(bs.read_bytes()[:30])
        assert run("inspect", "--bitstream", bs) == 3

    def test_trailing_bytes_exit_3(self, quick_model_path, test_card, tmp_path):
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", bs)
        bs.write_bytes(bs.read_bytes() + b"xx")
        assert run("decode", "--model", quick_model_path, "--bitstream", bs,
                   "--out", tmp_path / "o.ppm") == 3
        assert run("inspect", "--bitstream", bs) == 3

    def test_truncate_bad_level(self, quick_model_path, test_card, tmp_path):
        bs = tmp_path / "c.nfb"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--levels", "2", "--out", bs)
        assert run("truncate", "--bitstream", bs, "--levels", "3",
                   "--out", tmp_path / "никогда.nfb") == 3

    def test_level_outside_the_masks_exit_2(self, quick_model_path, test_card, tmp_path,
                                             capsys):
        """encode, decode and truncate refuse a level mask outside 1, 2, 2.5
        and 3 with the codec's one message, and write nothing."""
        bs, out = tmp_path / "c.nfb", tmp_path / "out"
        run("encode", "--model", quick_model_path, "--input", test_card,
            "--deltas", "1.0", "--out", bs)
        capsys.readouterr()
        for argv in (("encode", "--model", quick_model_path, "--input", test_card,
                      "--deltas", "1.0", "--levels", "1.5"),
                     ("decode", "--model", quick_model_path, "--bitstream", bs, "--levels", "4"),
                     ("truncate", "--bitstream", bs, "--levels", "0")):
            assert run(*argv, "--out", out) == 2
            assert "levels must be one of [1.0, 2.0, 2.5, 3.0]" in capsys.readouterr().err
            assert not out.exists()


class TestTrain:
    def test_train_writes_model_and_metrics(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "m.nfc"
        metrics = tmp_path / "metrics.csv"
        code = run("train", "--corpus", corpus_dir, "--out", out,
                   "--steps", 4, "--lambda", "0.1", "--seed", 3,
                   "--hidden", 8, "--patch", 16, "--batch-size", 2,
                   "--metrics", metrics)
        assert code == 0
        assert FlowModel.load(out).config.seed == 3
        lines = metrics.read_text().splitlines()
        assert lines[0] == "step,nll,rate,distortion,psnr"
        assert len(lines) == 5

    def test_same_seed_same_hash(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a.nfc", tmp_path / "b.nfc"
        for out in (a, b):
            assert run("train", "--corpus", corpus_dir, "--out", out,
                       "--steps", 3, "--seed", 9, "--hidden", 8,
                       "--patch", 16, "--batch-size", 2) == 0
        assert FlowModel.load(a).model_id == FlowModel.load(b).model_id

    def test_env_seed_override(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("NFC_SEED", "314")
        out = tmp_path / "m.nfc"
        run("train", "--corpus", corpus_dir, "--out", out, "--steps", 2,
            "--hidden", 8, "--patch", 16, "--batch-size", 2)
        assert FlowModel.load(out).config.seed == 314

    def test_config_file(self, corpus_dir, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps=2\nlambda_rd=0.5\nbatch_size=2\npatch=16\nseed=4\n")
        out = tmp_path / "m.nfc"
        assert run("train", "--corpus", corpus_dir, "--out", out,
                   "--config", cfg, "--hidden", 8) == 0

    def test_zero_steps_writes_the_untrained_model(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "m.nfc"
        assert run("train", "--corpus", corpus_dir, "--out", out, "--steps", 0,
                   "--hidden", 8, "--patch", 16, "--seed", 5) == 0
        assert FlowModel.load(out).config.seed == 5
        assert "trained 0 steps; model id" in capsys.readouterr().out

    def test_architecture_beyond_the_model_header_exit_2(self, corpus_dir, tmp_path):
        """256 couplings per level do not fit the model file's header, so
        training is refused before it starts and no file is written."""
        out = tmp_path / "m.nfc"
        assert run("train", "--corpus", corpus_dir, "--out", out, "--steps", 1,
                   "--flow-steps", 256, "--hidden", 1) == 2
        assert not out.exists()

    def test_empty_corpus_exit_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("train", "--corpus", empty, "--out", tmp_path / "m.nfc",
                   "--steps", 1) == 2

    def test_config_that_breaks_the_optimizer_exit_2(self, corpus_dir, tmp_path):
        """beta1 = 1 divides by zero in the first AdaMax step; it is refused
        before the metrics file opens, and no model is written."""
        cfg = tmp_path / "train.cfg"
        cfg.write_text("beta1=1\nsteps=2\nbatch_size=2\npatch=16\n")
        out, metrics = tmp_path / "m.nfc", tmp_path / "metrics.csv"
        assert run("train", "--corpus", corpus_dir, "--out", out, "--config", cfg,
                   "--hidden", 8, "--metrics", metrics) == 2
        assert not out.exists() and not metrics.exists()


class TestFinetuneAndSweep:
    def test_finetune_writes_step_file(self, quick_model_path, corpus_dir, tmp_path):
        out = tmp_path / "steps.txt"
        assert run("finetune", "--model", quick_model_path, "--corpus", corpus_dir,
                   "--lambda", "10", "--steps", 5, "--out", out) == 0
        from flowcodec.entropy import QuantSpec
        spec = QuantSpec.from_lines(out.read_text().splitlines())
        assert spec.delta2 > 0

    def test_rd_sweep_csv(self, quick_model_path, corpus_dir, tmp_path, capsys):
        csv = tmp_path / "rd.csv"
        code = run("rd-sweep", "--model", quick_model_path, "--corpus", corpus_dir,
                   "--lambdas", "1,100", "--steps", 5, "--csv", csv)
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "lambda,bpp,psnr,delta2,delta1,delta0"
        assert len(lines) == 3
        for line in lines[1:]:
            assert ";" in line.split(",")[5]

    def test_rd_sweep_single_image_matches_direct(self, quick_model_path, tmp_path):
        directory = tmp_path / "one"
        directory.mkdir()
        write_ppm(directory / "only.ppm",
                  make_desk_corpus(np.random.default_rng(999), 1, 16)[0])
        img = read_ppm(directory / "only.ppm")  # 8-bit values, as the CLI sees them
        csv = tmp_path / "rd.csv"
        assert run("rd-sweep", "--model", quick_model_path, "--corpus", directory,
                   "--lambdas", "50", "--steps", 5, "--csv", csv) == 0
        row = csv.read_text().splitlines()[1].split(",")

        from flowcodec.codec import decode_image, encode_image
        from flowcodec.training import bpp, finetune_deltas, psnr
        model = FlowModel.load(quick_model_path)
        spec = finetune_deltas(model, [img], 50.0, steps=5)
        blob = encode_image(model, img, spec)
        assert float(row[1]) == pytest.approx(bpp(len(blob), 16, 16), abs=1e-9)
        assert float(row[2]) == pytest.approx(psnr(img, decode_image(model, blob)), abs=1e-9)

    def test_rd_sweep_empty_corpus_exit_2(self, quick_model_path, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run("rd-sweep", "--model", quick_model_path, "--corpus", empty,
                   "--lambdas", "1", "--csv", tmp_path / "rd.csv") == 2

    def test_negative_steps_exit_2_and_write_nothing(self, quick_model_path, corpus_dir,
                                                     tmp_path):
        out, csv = tmp_path / "steps.txt", tmp_path / "rd.csv"
        assert run("finetune", "--model", quick_model_path, "--corpus", corpus_dir,
                   "--lambda", "10", "--steps", -1, "--out", out) == 2
        assert run("rd-sweep", "--model", quick_model_path, "--corpus", corpus_dir,
                   "--lambdas", "1", "--steps", -1, "--csv", csv) == 2
        assert not out.exists() and not csv.exists()

    @pytest.mark.parametrize("count", [0, -1])
    def test_rd_sweep_calibration_count_below_one_exit_2(self, quick_model_path, corpus_dir,
                                                        tmp_path, monkeypatch, count):
        monkeypatch.setattr(cli, "finetune_deltas", lambda *a, **k: pytest.fail("tuned"))
        csv = tmp_path / "rd.csv"
        assert run("rd-sweep", "--model", quick_model_path, "--corpus", corpus_dir,
                   "--lambdas", "1", "--calibration-images", count, "--csv", csv) == 2
        assert not csv.exists()


class TestReencodeLoop:
    def test_constant_rows_and_identical_streams(self, quick_model_path, test_card,
                                                 tmp_path, capsys):
        csv = tmp_path / "loop.csv"
        code = run("reencode-loop", "--model", quick_model_path, "--input", test_card,
                   "--deltas", "1.0", "--iters", 3, "--csv", csv)
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "iteration,bpp,psnr"
        assert len(lines) == 5
        rates = {line.split(",")[1] for line in lines[1:]}
        assert len(rates) == 1  # bpp exactly constant
        psnrs = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(psnrs) - min(psnrs) < 1e-9

    def test_single_iteration_two_rows(self, quick_model_path, test_card, tmp_path):
        csv = tmp_path / "loop1.csv"
        assert run("reencode-loop", "--model", quick_model_path, "--input", test_card,
                   "--deltas", "1.0", "--iters", 1, "--csv", csv) == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[1] == lines[2].split(",")[1]

    def test_negative_iters_exit_2(self, quick_model_path, test_card, tmp_path):
        csv = tmp_path / "loop.csv"
        assert run("reencode-loop", "--model", quick_model_path, "--input", test_card,
                   "--deltas", "1.0", "--iters", -1, "--csv", csv) == 2
        assert not csv.exists()

    def test_one_decode_per_stream(self, quick_model_path, test_card, tmp_path,
                                   monkeypatch):
        """Each of the iters + 1 streams is decoded once: its decode gives
        that row's psnr and the next iteration's input."""
        real_decode = cli.decode_image
        calls = {"n": 0}

        def counted(*args, **kwargs):
            calls["n"] += 1
            return real_decode(*args, **kwargs)

        monkeypatch.setattr(cli, "decode_image", counted)
        assert run("reencode-loop", "--model", quick_model_path, "--input", test_card,
                   "--deltas", "1.0", "--iters", 5, "--csv", tmp_path / "x.csv") == 0
        assert calls["n"] == 5 + 1

    def test_corrupted_intermediate_aborts_with_iteration(self, quick_model_path,
                                                          test_card, tmp_path,
                                                          monkeypatch, capsys):
        real_encode = cli.encode_image
        calls = {"n": 0}

        def flaky_encode(*args, **kwargs):
            calls["n"] += 1
            blob = real_encode(*args, **kwargs)
            if calls["n"] == 3:  # corrupt the second re-encode before it hits disk
                raw = bytearray(blob)
                raw[25] ^= 0xFF
                return bytes(raw)
            return blob

        monkeypatch.setattr(cli, "encode_image", flaky_encode)
        code = run("reencode-loop", "--model", quick_model_path, "--input", test_card,
                   "--deltas", "1.0", "--iters", 3, "--csv", tmp_path / "x.csv",
                   "--keep-dir", tmp_path / "keep")
        assert code == 3
        assert "iteration 2" in capsys.readouterr().err
