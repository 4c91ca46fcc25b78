"""Command-line surface.

Subcommands: train, finetune, encode, decode, truncate, rd-sweep,
reencode-loop, inspect.  Every command validates file magics before
doing work and never mutates its input files; the four that run long
(train, finetune, rd-sweep, reencode-loop) refuse an output path they
could not write before they start.  CSV output always starts
with a header row and uses dot decimals regardless of locale.

Exit codes: 0 success, 2 usage (an unreadable path too), 3 malformed
file, 4 model mismatch, 5 numeric failure.  Commands return nothing:
`main` returns 0 after one, and a failure's code comes only from its
exception type, through `EXIT_CODES`; commands raise the library's own
types.  The NFC_SEED environment variable overrides config seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .codec import (
    P_THRESH_DEFAULT,
    decode_image,
    encode_image,
    inspect_bitstream,
    truncate_bitstream,
)
from .entropy import QuantSpec
from .errors import FormatError, ModelMismatchError, NumericError
from .flow import FlowConfig, FlowModel
from .imageio import read_image, write_ppm
from .training import TrainConfig, bpp, finetune_deltas, psnr, train

EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_MODEL = 4
EXIT_NUMERIC = 5

# The first entry an exception is an instance of gives its exit code.
# OSError covers a missing file, a directory and no permission.
EXIT_CODES = ((OSError, EXIT_USAGE), (FormatError, EXIT_FORMAT),
              (ModelMismatchError, EXIT_MODEL), (NumericError, EXIT_NUMERIC),
              (ValueError, EXIT_USAGE))


def _load_deltas(arg: str, model: FlowModel) -> QuantSpec:
    """Step argument: a step file path or an inline scalar for all levels."""
    if os.path.exists(arg):
        return QuantSpec.from_lines(Path(arg).read_text().splitlines())
    try:
        value = float(arg)
    except ValueError:
        raise ValueError(f"steps argument {arg!r} is neither a file nor a number") from None
    return QuantSpec.uniform(value, model.base_channels)


def _check_writable(path: str) -> None:
    """Raise the OSError that writing `path` would raise (a directory, a
    missing parent, no permission) before a command does its work, and
    leave no file behind."""
    existed = os.path.exists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _corpus_images(directory: str) -> list[np.ndarray]:
    exts = (".ppm", ".png")
    paths = sorted(
        p for p in Path(directory).iterdir() if p.suffix.lower() in exts
    ) if os.path.isdir(directory) else []
    if not paths:
        raise ValueError(f"no corpus images (.ppm/.png) found in {directory!r}")
    return [read_image(p) for p in paths]


# -- commands --------------------------------------------------------------------


def cmd_train(args) -> None:
    _check_writable(args.out)
    cfg = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    for name in ("steps", "lambda_rd", "seed", "patch", "batch_size"):
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    cfg.seed = int(os.environ.get("NFC_SEED") or cfg.seed)
    corpus = _corpus_images(args.corpus)
    model = FlowModel(FlowConfig(
        in_channels=corpus[0].shape[0], steps=args.flow_steps, blocks=args.blocks,
        hidden=args.hidden, seed=cfg.seed,
    ))
    history = train(model, corpus, cfg, metrics_path=args.metrics)
    model.save(args.out)
    final = f"; final loss {history[-1]['loss']:.2f}" if history else ""
    print(f"trained {cfg.steps} steps{final}; model id {model.model_id.hex()}")
    print(f"wrote {args.out}")


def cmd_finetune(args) -> None:
    _check_writable(args.out)
    model = FlowModel.load(args.model)
    images = _corpus_images(args.corpus)
    spec = finetune_deltas(model, images, args.lambda_rd, steps=args.steps)
    Path(args.out).write_text("\n".join(spec.to_lines()) + "\n")
    print(f"wrote {args.out} (delta2={spec.delta2:.6g}, delta1={spec.delta1:.6g})")


def cmd_encode(args) -> None:
    model = FlowModel.load(args.model)
    image = read_image(args.input)
    spec = _load_deltas(args.deltas, model)
    blob = encode_image(model, image, spec, levels=float(args.levels), p_thresh=args.p_thresh)
    Path(args.out).write_bytes(blob)
    rate = bpp(len(blob), image.shape[1], image.shape[2])
    print(f"wrote {args.out}: {len(blob)} bytes, {rate:.4f} bpp")
    if args.verify:
        out = decode_image(model, blob)
        print(f"verify psnr: {psnr(image, out):.2f} dB")


def cmd_decode(args) -> None:
    model = FlowModel.load(args.model)
    blob = Path(args.bitstream).read_bytes()
    out = decode_image(model, blob, levels=float(args.levels) if args.levels else None)
    write_ppm(args.out, out)
    print(f"wrote {args.out} ({out.shape[2]}x{out.shape[1]})")


def cmd_truncate(args) -> None:
    blob = Path(args.bitstream).read_bytes()
    target = float(args.levels)
    Path(args.out).write_bytes(truncate_bitstream(blob, target))
    print(f"wrote {args.out} (levels={target})")


def cmd_inspect(args) -> None:
    info = inspect_bitstream(Path(args.bitstream).read_bytes())
    for key in ("model_id", "original_size", "padded_size", "channels",
                "levels", "partial_fraction", "p_thresh", "delta2", "delta1"):
        print(f"{key}: {info[key]}")
    print(f"delta0: {', '.join(f'{v:.6g}' for v in info['delta0'])}")
    print(f"header: {info['header_bytes']} bytes")
    for name, size in info["section_bytes"].items():
        print(f"section {name}: {size} bytes")
    print(f"total: {info['total_bytes']} bytes")


def cmd_reencode_loop(args) -> None:
    if args.iters < 0:
        raise ValueError(f"--iters must be >= 0, got {args.iters}")
    _check_writable(args.csv)
    model = FlowModel.load(args.model)
    image = read_image(args.input)
    spec = _load_deltas(args.deltas, model)
    keep_dir = Path(args.keep_dir) if args.keep_dir else None
    if keep_dir:
        keep_dir.mkdir(parents=True, exist_ok=True)

    h, w = image.shape[1], image.shape[2]
    blob = encode_image(model, image, spec)
    decoded = decode_image(model, blob)
    rows = [(0, bpp(len(blob), h, w), psnr(image, decoded))]
    for iteration in range(1, args.iters + 1):
        blob = encode_image(model, decoded, spec)
        if keep_dir:
            path = keep_dir / f"iter{iteration:03d}.nfb"
            path.write_bytes(blob)
            blob = path.read_bytes()
            try:
                inspect_bitstream(blob)
            except FormatError as exc:
                raise FormatError(
                    f"intermediate bitstream corrupt at iteration {iteration}: {exc}"
                ) from exc
        if iteration == 1:
            reference = blob  # every later re-encode must match the first
        elif blob != reference:
            raise NumericError(f"re-encoded bitstream diverged at iteration {iteration}")
        decoded = decode_image(model, blob)
        rows.append((iteration, bpp(len(blob), h, w), psnr(image, decoded)))

    with open(args.csv, "w") as fh:
        fh.write("iteration,bpp,psnr\n")
        for it, rate, quality in rows:
            fh.write(f"{it},{rate!r},{quality!r}\n")
    print(f"wrote {args.csv}: {len(rows)} rows, bpp {rows[0][1]:.4f}, "
          f"psnr spread {max(r[2] for r in rows) - min(r[2] for r in rows):.2e} dB")


def cmd_rd_sweep(args) -> None:
    if args.calibration_images < 1:
        raise ValueError(f"--calibration-images must be >= 1, got {args.calibration_images}")
    _check_writable(args.csv)
    model = FlowModel.load(args.model)
    corpus = _corpus_images(args.corpus)
    lambdas = [float(token) for token in args.lambdas.split(",") if token.strip()]
    if not lambdas:
        raise ValueError("no lambda values given")

    rows = []
    for lam in lambdas:
        spec = finetune_deltas(model, corpus[: args.calibration_images], lam,
                               steps=args.steps)
        rates, qualities = [], []
        for img in corpus:
            blob = encode_image(model, img, spec)
            rates.append(bpp(len(blob), img.shape[1], img.shape[2]))
            qualities.append(psnr(img, decode_image(model, blob)))
        rows.append((lam, float(np.mean(rates)), float(np.mean(qualities)), spec))
        print(f"lambda={lam:g}: bpp={rows[-1][1]:.4f} psnr={rows[-1][2]:.2f}")

    with open(args.csv, "w") as fh:
        fh.write("lambda,bpp,psnr,delta2,delta1,delta0\n")
        for lam, rate, quality, spec in rows:
            d0 = ";".join(repr(float(v)) for v in spec.delta0)
            fh.write(f"{lam!r},{rate!r},{quality!r},{spec.delta2!r},{spec.delta1!r},{d0}\n")
    print(f"wrote {args.csv}")


# -- argument plumbing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcodec",
        description="Lossy image codec with a bijective multi-level transform",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a corpus directory")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key=value training config file")
    p.add_argument("--metrics", help="CSV path for per-step metrics")
    p.add_argument("--steps", type=int)
    p.add_argument("--lambda", dest="lambda_rd", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--patch", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--flow-steps", type=int, default=2, help="couplings per level")
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--hidden", type=int, default=16)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("finetune", help="tune quantization steps for one lambda")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lambda", dest="lambda_rd", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=120)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("encode", help="compress an image")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--deltas", required=True,
                   help="step file or inline scalar; each step snaps to the nearest 2^(k/16)")
    p.add_argument("--levels", default="3")
    p.add_argument("--out", required=True)
    p.add_argument("--p-thresh", type=float, default=P_THRESH_DEFAULT)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="decompress a bitstream to PPM")
    p.add_argument("--model", required=True)
    p.add_argument("--bitstream", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--levels")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("truncate", help="drop trailing quality levels")
    p.add_argument("--bitstream", required=True)
    p.add_argument("--levels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_truncate)

    p = sub.add_parser("inspect", help="print bitstream header fields")
    p.add_argument("--bitstream", required=True)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("reencode-loop", help="iterate decode/encode and log quality")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--deltas", required=True)
    p.add_argument("--iters", type=int, default=17)
    p.add_argument("--csv", required=True)
    p.add_argument("--keep-dir", help="write intermediate bitstreams here")
    p.set_defaults(fn=cmd_reencode_loop)

    p = sub.add_parser("rd-sweep", help="tune steps per lambda and measure RD points")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lambdas", required=True, help="comma-separated values")
    p.add_argument("--csv", required=True)
    p.add_argument("--steps", type=int, default=120)
    p.add_argument("--calibration-images", type=int, default=3)
    p.set_defaults(fn=cmd_rd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
