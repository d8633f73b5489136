"""Command line front end.

Subcommands:

    cost         per-stage FLOPs and peak logit bytes of the model's layer specs
    dataset      render a procedural multi-view dataset to a file
    train        fit a model on a dataset, log progress, save a checkpoint
    render       decode one view from a checkpoint to PPM (+ 16-bit PGM depth)
    verify-ckpt  checkpoint byte-stability and name audit

Speed is measured by the benchmark, ``perfbench/run.py``, not by a subcommand.

Exit codes: 0 success, 1 a check failed, 2 bad arguments or config,
3 numeric failure (non-finite loss).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import tempfile

import numpy as np

from . import checkpoint as ckpt
from . import costmodel as cm
from . import datasynth as ds
from . import model as M
from . import tensor as T

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# image output
# ---------------------------------------------------------------------------

def write_ppm(path, rgb):
    """[3, h, w] floats in [0, 1] -> binary P6, rounded half up."""
    arr = np.clip(np.asarray(rgb, dtype=np.float64), 0.0, 1.0)
    data = np.floor(arr * 255.0 + 0.5).astype(np.uint8).transpose(1, 2, 0)
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def write_pgm16(path, depth):
    """[h, w] depth in scene units -> big-endian 16-bit P5 in millimeters.

    Millimeter 0 is reserved for pixels without depth (non-finite input);
    valid values clip into [1, 65535].
    """
    d = np.asarray(depth, dtype=np.float64)
    valid = np.isfinite(d)
    mm = np.zeros(d.shape, dtype=np.uint16)
    mm[valid] = np.clip(np.floor(d[valid] * 1000.0 + 0.5), 1, 65535).astype(np.uint16)
    h, w = mm.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode())
        fh.write(mm.astype(">u2").tobytes())


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def split_scenes(scenes):
    """Last tenth of the dataset (at least one scene) is held out."""
    n_held = max(1, len(scenes) // 10)
    return scenes[:-n_held], scenes[-n_held:]


def run_training(dataset_path, decoder, steps, lr, log_every, **cfg_overrides):
    """Train on a dataset file; returns (model, held-out metrics, CSV log rows)."""
    if steps < 0:
        raise ValueError(f"--steps must be at least 0, got {steps}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"--lr must be a finite number above 0, got {lr}")
    if log_every < 1:
        raise ValueError(f"--log-every must be at least 1, got {log_every}")
    header, scenes = ds.load_dataset(dataset_path)
    if len(scenes) < 2:
        raise ValueError(f"{dataset_path}: {len(scenes)} scene(s); training needs at "
                         f"least 2, one of them held out")
    train_scenes, held = split_scenes(scenes)
    cfg = M.ModelConfig(height=header["h"], width=header["w"], **cfg_overrides)
    model = M.LightFieldModel(cfg, decoder)
    opt = M.Adam(model.named_parameters(), lr=lr)
    rows = ["step,loss,psnr"]
    window = []
    # a diverging run ends in the NumericError of the first check that sees
    # a non-finite value, named with where it happened, not in numpy warnings
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for step in range(1, steps + 1):
                where = f"step {step}"
                views = train_scenes[(step - 1) % len(train_scenes)]
                window.append(M.train_step(model, views, opt))
                if step % log_every == 0:
                    loss = sum(m["loss"] for m in window) / len(window)
                    snr = sum(m["psnr"] for m in window) / len(window)
                    rows.append(f"{step},{loss:.6f},{snr:.3f}")
                    window = []
            where = f"held-out evaluation after step {steps}"
            held_metrics = M.evaluate(model, held)
    except T.NumericError as exc:
        raise T.NumericError(f"{where}: {exc}") from None
    return model, held_metrics, rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _sweep_values(sweep, text):
    """The --values items: HxW pairs for --sweep resolution, integers otherwise."""
    values = []
    for item in text.split(","):
        try:
            if sweep == "resolution":
                h, w = item.split("x")
                values.append((int(h), int(w)))
            else:
                values.append(int(item))
        except ValueError:
            want = "an HxW pair of integers" if sweep == "resolution" else "an integer"
            raise ValueError(f"--values item {item!r} is not {want}") from None
    return values


COST_STAGES = ("encoder_conv", "encoder_attn", "decoder_attn", "decoder_cnn")
COST_CSV_HEADER = ("decoder,views,h,w,k,heads,d_k,n_q_dec,n_kv_dec,encoder_conv_flops,"
                   "encoder_attn_flops,decoder_attn_flops,decoder_cnn_flops,"
                   "decoder_peak_logit_bytes")


def price_model(cfg, decoder, n_views):
    """(decoder queries, n_kv, FLOPs per stage, decoder peak logit bytes) of one
    encode of ``n_views`` views and one decode, from the model's layer specs."""
    model = M.LightFieldModel(cfg, decoder)
    n_kv = n_views * cfg.tokens_per_view()
    dec_spec = model.decoder.layer_spec(n_kv)
    stages = M.stage_flops(model.encoder.layer_spec(n_views), dec_spec)
    products = [layer for layer in dec_spec if isinstance(layer, cm.AttnProductCost)]
    # softmax_rows is handed one float64 [n_q, n_kv] logit matrix per head
    peak = max(8 * p.n_q * p.n_kv for p in products)
    return products[0].n_q, n_kv, stages, peak


def cmd_cost(args):
    if args.csv != "-":
        _check_output_paths(("--csv", args.csv))
    if args.views < 1:
        raise ValueError(f"--views must be at least 1, got {args.views}")
    base = dict(_model_overrides(args), height=args.height, width=args.width)
    points = [{}]
    if args.sweep:
        if not args.values:
            raise ValueError(f"--sweep {args.sweep} needs --values")
        values = _sweep_values(args.sweep, args.values)
        points = ([{"height": h, "width": w} for h, w in values] if args.sweep == "resolution"
                  else [{args.sweep: v} for v in values])
    rows = []
    for point in points:
        cfg = M.ModelConfig(**{**base, **point})
        try:
            rows.append((cfg, *price_model(cfg, args.decoder, args.views)))
        except MemoryError as exc:
            field = cfg.largest_field()
            raise ValueError(f"the model does not fit in memory; {_flag(field.name)} "
                             f"{getattr(cfg, field.name)} is the furthest above its default "
                             f"{field.default} ({exc})") from exc

    if args.csv:
        lines = [COST_CSV_HEADER] + [
            f"{args.decoder},{args.views},{cfg.height},{cfg.width},{cfg.k},{cfg.heads},"
            f"{cfg.d_k},{n_q},{n_kv},"
            + ",".join(repr(stages.get(s, 0.0)) for s in COST_STAGES) + f",{peak}"
            for cfg, n_q, n_kv, stages, peak in rows]
        text = "\n".join(lines) + "\n"
        if args.csv == "-":
            sys.stdout.write(text)
        else:
            with open(args.csv, "w", newline="") as fh:
                fh.write(text)
            print(f"wrote {args.csv}")
        return EXIT_OK

    for cfg, n_q, n_kv, stages, peak in rows:
        gflop = "  ".join(f"{s}={stages.get(s, 0.0) / 1e9:.3f}" for s in COST_STAGES)
        print(f"{args.decoder:<8} {cfg.height}x{cfg.width} k={cfg.k:<3} queries={n_q:<8} "
              f"kv={n_kv:<7} GFLOP {gflop}  peak logit={peak / 2 ** 30:.4f} GiB")
    return EXIT_OK


def cmd_dataset(args):
    _check_output_paths(("--out", args.out))
    for flag, value in (("--scenes", args.scenes), ("--height", args.height),
                        ("--width", args.width)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    ds.make_dataset(args.out, args.scenes, args.height, args.width, args.seed)
    size = os.path.getsize(args.out)
    expect = ds.predicted_file_size(args.scenes, args.height, args.width, args.seed)
    if size != expect:
        print(f"size mismatch: {size} != predicted {expect}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"wrote {args.out}: {args.scenes} scenes at {args.height}x{args.width}, "
          f"{size} bytes")
    return EXIT_OK


def _check_output_paths(*flag_paths):
    """Refuse, by flag name, an output path that is a directory or lies in a
    missing one: it must fail before the work, not after it. ``None`` paths
    are skipped."""
    for flag, path in flag_paths:
        if path and os.path.isdir(path):
            raise ValueError(f"{flag} {path} is a directory")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"{flag} {path}: its directory does not exist")


def cmd_train(args):
    _check_output_paths(("--log", args.log), ("--checkpoint", args.checkpoint))
    model, held, rows = run_training(args.dataset, args.decoder, args.steps, args.lr,
                                     args.log_every, **_model_overrides(args))
    for row in rows[1:]:
        print(row)
    print(f"held-out: psnr {held['psnr']:.2f} dB, loss {held['loss']:.4f}")
    if args.log:
        with open(args.log, "w", newline="") as fh:
            fh.write("\n".join(rows) + "\n")
    if args.checkpoint:
        ckpt.save_checkpoint(args.checkpoint, model, step=args.steps)
        print(f"checkpoint: {args.checkpoint}")
    return EXIT_OK


def cmd_render(args):
    _check_output_paths(("--out-rgb", args.out_rgb), ("--out-depth", args.out_depth))
    model, meta = ckpt.load_checkpoint(args.checkpoint)
    header, scenes = ds.load_dataset(args.dataset)
    if not 0 <= args.scene < len(scenes):
        raise ValueError(f"--scene {args.scene} out of range (0..{len(scenes) - 1})")
    views = scenes[args.scene]
    if not 0 <= args.view < len(views):
        raise ValueError(f"--view {args.view} out of range (0..{len(views) - 1})")
    chosen = views[args.view]

    if args.target:
        rgb, depth = chosen.image, chosen.depth
    else:
        cfg = model.cfg
        if (cfg.height, cfg.width) != (header["h"], header["w"]):
            raise ValueError(f"{args.checkpoint} holds a {cfg.height}x{cfg.width} model, "
                             f"but {args.dataset} holds {header['h']}x{header['w']} views")
        inputs, _ = M.scene_to_views(views)
        with T.no_grad():
            z = model.encode(inputs)
            out = model.decode(z, chosen.intrinsics, chosen.pose)
            rgb_t, logd = M.split_output(out)
        rgb = rgb_t.data
        depth = np.exp(logd.data)
        print(f"psnr vs ground truth: {M.psnr(rgb, chosen.image):.2f} dB")

    write_ppm(args.out_rgb, rgb)
    if args.out_depth:
        write_pgm16(args.out_depth, depth)
    print(f"wrote {args.out_rgb}" + (f" and {args.out_depth}" if args.out_depth else ""))
    return EXIT_OK


def cmd_verify_ckpt(args):
    model, meta = ckpt.load_checkpoint(args.checkpoint)
    n_params = sum(p.data.size for _, p in model.named_parameters())
    with tempfile.NamedTemporaryFile(suffix=".rpck", delete=False) as tmp:
        scratch = tmp.name
    try:
        stable = ckpt.roundtrip_stable(args.checkpoint, scratch)
    finally:
        os.unlink(scratch)
    print(f"decoder={meta['decoder']} step={meta['step']} params={n_params}")
    if not stable:
        print("save/load round trip is NOT byte-stable", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print("round trip byte-stable")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _model_fields():
    """The ModelConfig fields that model flags set; height and width come from
    the dataset (train) or their own flags (cost)."""
    return [f.name for f in dataclasses.fields(M.ModelConfig) if f.name not in ("height", "width")]


def _flag(field):
    """The command-line flag that sets a model field."""
    return "--" + field.removeprefix("n_").replace("_", "-")


def _add_model_flags(p):
    """One flag per model field. A flag left out stays absent from the parsed
    arguments, so ModelConfig holds the only copy of each default."""
    for field in _model_fields():
        p.add_argument(_flag(field), dest=field, type=int, default=argparse.SUPPRESS)


def _model_overrides(args):
    """The model fields that flags set, for ModelConfig."""
    return {field: getattr(args, field) for field in _model_fields() if field in args}


def build_parser():
    parser = argparse.ArgumentParser(prog="raypatch",
                                     description="patch-ray light field toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cost", help="FLOPs per stage and peak logit bytes of a model")
    p.add_argument("--decoder", choices=sorted(M.DECODERS), default="raypatch")
    p.add_argument("--height", type=int, default=960)
    p.add_argument("--width", type=int, default=1280)
    p.add_argument("--views", type=int, default=1, help="encoder input views")
    _add_model_flags(p)
    p.add_argument("--sweep", choices=["resolution", "k", "heads", "d_k"])
    p.add_argument("--values", help="comma list; HxW pairs for --sweep resolution")
    p.add_argument("--csv", help="write CSV here ('-' for stdout)")
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("dataset", help="render a procedural dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=200)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_dataset)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--decoder", choices=sorted(M.DECODERS), default="raypatch")
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--lr", type=float, default=3e-4)
    p.add_argument("--log-every", type=int, default=50)
    p.add_argument("--log", help="write the training CSV here")
    p.add_argument("--checkpoint", help="write the final model here")
    _add_model_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("render", help="decode one view from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--scene", type=int, default=0)
    p.add_argument("--view", type=int, default=1)
    p.add_argument("--out-rgb", required=True)
    p.add_argument("--out-depth")
    p.add_argument("--target", action="store_true",
                   help="write the ground-truth view instead of the prediction")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("verify-ckpt", help="checkpoint integrity check")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_verify_ckpt)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except T.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a config too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
