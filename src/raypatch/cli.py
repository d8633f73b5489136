"""Command line front end.

Subcommands:

    cost         analytic attention FLOPs and peak memory, tables or CSV
    dataset      render a procedural multi-view dataset to a file
    train        fit a model on a dataset, log progress, save a checkpoint
    render       decode one view from a checkpoint to PPM (+ 16-bit PGM depth)
    gradcheck    run the finite-difference gradient battery
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
from .blocks import AttnBlock, FeedForward, MhaConfig, MultiHeadAttention
from .geometry import GridError

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
# gradient battery (the gradcheck subcommand and the acceptance run share it)
# ---------------------------------------------------------------------------

OP_TOL = 1e-5
MODEL_TOL = 1e-4


def _op_cases(rng):
    """(name, f, leaf) triples where f(leaf) is a scalar through one op."""
    w = T.Tensor(rng.standard_normal((6, 4)))
    bias = T.Tensor(rng.standard_normal(4))
    conv_w = T.Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.3)
    gamma = T.Tensor(rng.uniform(0.5, 1.5, 8))
    beta = T.Tensor(rng.standard_normal(8))
    in_gamma, in_beta = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
    idx = rng.permutation(24)[:7]
    # probes turn row-normalized outputs into informative scalars; every one
    # must be drawn up front or finite differencing sees a moving target
    probe_sm = T.Tensor(rng.standard_normal((4, 5)))
    probe_ln = T.Tensor(rng.standard_normal((3, 8)))
    probe_in = T.Tensor(rng.standard_normal((2, 4, 4)))
    # rows added later draw from a child generator, so every older row keeps
    # the inputs that rng's stream gave it
    late = rng.spawn(1)[0]
    probe_mm = T.Tensor(late.standard_normal((5, 4)))

    return [
        ("matmul", lambda x: T.sum_all(T.matmul(x, w)),
         T.Tensor(rng.standard_normal((5, 6)))),
        ("matmul_scaled", lambda x: T.sum_all(T.mul(T.matmul(x, w, scale=0.4), probe_mm)),
         T.Tensor(late.standard_normal((5, 6)))),
        ("linear", lambda x: T.sum_all(T.linear(x, w, bias)),
         T.Tensor(rng.standard_normal((3, 6)))),
        ("softmax", lambda x: T.sum_all(T.mul(T.softmax_rows(x), probe_sm)),
         T.Tensor(rng.standard_normal((4, 5)))),
        ("layer_norm", lambda x: T.sum_all(T.mul(T.layer_norm(x, gamma, beta),
                                                 probe_ln)),
         T.Tensor(rng.standard_normal((3, 8)))),
        ("conv2d_s1", lambda x: T.sum_all(T.conv2d(x, conv_w)),
         T.Tensor(rng.standard_normal((2, 5, 6)))),
        ("conv2d_s2", lambda x: T.sum_all(T.conv2d(x, conv_w, stride=2)),
         T.Tensor(rng.standard_normal((2, 6, 6)))),
        ("instance_norm", lambda x: T.sum_all(T.mul(
            T.instance_norm(x, in_gamma, in_beta), probe_in)),
         T.Tensor(rng.standard_normal((2, 4, 4)))),
        ("leaky_relu", lambda x: T.sum_all(T.leaky_relu(x)),
         T.Tensor(rng.standard_normal(40) + 0.05)),
        ("absolute", lambda x: T.sum_all(T.absolute(x)),
         T.Tensor(rng.standard_normal(12) + 0.3)),
        ("take", lambda x: T.sum_all(T.take(x, idx)),
         T.Tensor(rng.standard_normal((4, 6)))),
        ("bilinear2x", lambda x: T.sum_all(T.upsample_bilinear2x(x)),
         T.Tensor(rng.standard_normal((2, 3, 4)))),
        ("nearest2x", lambda x: T.sum_all(T.upsample_nearest2x(x)),
         T.Tensor(rng.standard_normal((2, 3, 4)))),
    ]


def _block_cases(rng):
    cfg = MhaConfig(d_model=8, heads=2, d_k=4, d_v=4)
    mha = MultiHeadAttention(cfg, rng)
    block = AttnBlock(cfg, rng)
    ff = FeedForward(rng, 8)
    kv = T.Tensor(rng.standard_normal((6, 8)))
    probe = T.Tensor(rng.standard_normal((5, 8)))

    return [
        ("mha_cross", lambda x: T.sum_all(T.mul(mha(x, kv), probe)),
         T.Tensor(rng.standard_normal((5, 8)))),
        ("attn_block_self", lambda x: T.sum_all(T.mul(block(x), probe)),
         T.Tensor(rng.standard_normal((5, 8)))),
        ("attn_block_cross", lambda x: T.sum_all(T.mul(block(x, kv), probe)),
         T.Tensor(rng.standard_normal((5, 8)))),
        ("feed_forward", lambda x: T.sum_all(T.mul(ff(x), probe)),
         T.Tensor(rng.standard_normal((5, 8)))),
    ]


def _model_cases(rng, seed):
    cfg = M.ModelConfig(height=8, width=8, k=2, d_model=16, heads=2, d_k=8, d_v=8,
                        n_freq_origin=2, n_freq_dir=2, feature_channels=8,
                        downsamplings=2, seed=seed)
    views = ds.render_scene_views(ds.generate_scene(seed), 8, 8)
    target = views[1]

    cases = []
    for kind in ("raypatch", "pixel"):
        model = M.LightFieldModel(cfg, kind)
        named = dict(model.named_parameters())

        def loss_given(image, model=model):
            z = model.encode([(image, views[0].intrinsics, views[0].pose)])
            out = model.decode(z, target.intrinsics, target.pose)
            total, _ = M.loss_total(out, target.image, target.depth)
            return total

        def loss_fixed(_leaf, loss_given=loss_given):
            # the leaf under test lives inside the model; the input stays put
            return loss_given(views[0].image)

        cases.append((f"{kind}_input_image", loss_given,
                      T.parameter(views[0].image.astype(np.float64))))
        cases.append((f"{kind}_embed_bias", loss_fixed, named["dec.embed.b"]))
        head = "dec.final.b" if kind == "raypatch" else "dec.head2.b"
        cases.append((f"{kind}_head_bias", loss_fixed, named[head]))
        cases.append((f"{kind}_ln_gamma", loss_fixed, named["enc.block0.ln1.gamma"]))
    return cases


def gradcheck_battery(seed):
    """All gradient comparisons for one seed: (category, name, rel_err, tol) rows."""
    rng = np.random.default_rng(seed)
    rows = []
    for name, f, leaf in _op_cases(rng):
        rows.append(("op", name, T.grad_check(f, leaf, step=1e-5), OP_TOL))
    for name, f, leaf in _block_cases(rng):
        rows.append(("block", name, T.grad_check(f, leaf, step=1e-5), MODEL_TOL))
    for name, f, leaf in _model_cases(rng, seed):
        rows.append(("model", name, T.grad_check(f, leaf, step=1e-5), MODEL_TOL))
    return rows


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
    for step in range(1, steps + 1):
        views = train_scenes[(step - 1) % len(train_scenes)]
        window.append(M.train_step(model, views, opt))
        if step % log_every == 0:
            loss = sum(m["loss"] for m in window) / len(window)
            snr = sum(m["psnr"] for m in window) / len(window)
            rows.append(f"{step},{loss:.6f},{snr:.3f}")
            window = []
    held_metrics = M.evaluate(model, held)
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


def cmd_cost(args):
    cfg = cm.CostConfig(family=args.family, height=args.height, width=args.width,
                        n_views=args.views, k=args.k, heads=args.heads, d_k=args.d_k,
                        n_latent=args.latents, downsamplings=args.downsamplings,
                        bytes_per_element=args.bytes_per_element)
    if args.sweep:
        if not args.values:
            raise ValueError(f"--sweep {args.sweep} needs --values")
        reports = cm.sweep(cfg, args.sweep, _sweep_values(args.sweep, args.values))
    else:
        reports = [cm.make_report(cfg)]

    if args.csv:
        text = cm.reports_to_csv(reports)
        if args.csv == "-":
            sys.stdout.write(text)
        else:
            with open(args.csv, "w", newline="") as fh:
                fh.write(text)
            print(f"wrote {args.csv}")
        return EXIT_OK

    for r in reports:
        gib = r.peak_bytes / 2 ** 30
        print(f"{r.family:<12} {r.height}x{r.width} k={r.k:<3} "
              f"queries={r.n_q_dec:<8} kv={r.n_kv_dec:<7} "
              f"dec_attn={r.attn_flops_dec / 1e9:10.3f} GFLOP  "
              f"peak={gib:10.4f} GiB")
    return EXIT_OK


def cmd_dataset(args):
    _check_output_paths(("--out", args.out))
    for flag, value in (("--scenes", args.scenes), ("--height", args.height),
                        ("--width", args.width)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
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
    overrides = {field: getattr(args, field) for field in _model_fields() if field in args}
    model, held, rows = run_training(args.dataset, args.decoder, args.steps, args.lr,
                                     args.log_every, **overrides)
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


def cmd_gradcheck(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    worst = {}
    failed = []
    for seed in range(args.seed, args.seed + args.seeds):
        for cat, name, err, tol in gradcheck_battery(seed):
            key = (cat, name)
            worst[key] = max(worst.get(key, 0.0), err)
            if err > tol:
                failed.append((seed, cat, name, err, tol))
    for (cat, name), err in sorted(worst.items()):
        tol = OP_TOL if cat == "op" else MODEL_TOL
        status = "ok" if err <= tol else "FAIL"
        print(f"{status:<5} {cat:<6} {name:<22} worst rel err {err:.3e} (tol {tol:.0e})")
    if failed:
        print(f"{len(failed)} gradient checks failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"all gradients agree over {args.seeds} seed(s)")
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
    """The ModelConfig fields that train flags set; the dataset sets height and width."""
    return [f.name for f in dataclasses.fields(M.ModelConfig) if f.name not in ("height", "width")]


def build_parser():
    parser = argparse.ArgumentParser(prog="raypatch",
                                     description="patch-ray light field toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cost", help="analytic attention cost model")
    p.add_argument("--family", default="srt", choices=sorted(cm.FAMILIES))
    p.add_argument("--height", type=int, default=960)
    p.add_argument("--width", type=int, default=1280)
    p.add_argument("--views", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--d-k", type=int, default=64)
    p.add_argument("--latents", type=int, default=2048)
    p.add_argument("--downsamplings", type=int, default=3)
    p.add_argument("--bytes-per-element", type=int, default=4)
    p.add_argument("--sweep", choices=["resolution", "k", "heads", "d_k", "n_latent"])
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
    for field in _model_fields():  # a flag left out stays absent: ModelConfig has the default
        p.add_argument("--" + field.removeprefix("n_").replace("_", "-"), dest=field, type=int,
                       default=argparse.SUPPRESS)
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

    p = sub.add_parser("gradcheck", help="finite-difference gradient battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds to sweep")
    p.set_defaults(fn=cmd_gradcheck)

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
    except (cm.CostConfigError, M.ModelConfigError, GridError, T.DimensionError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
