"""Command line front end.

Subcommands:

    cost         analytic attention FLOPs and peak memory, tables or CSV
    dataset      render a procedural multi-view dataset to a file
    train        fit a model on a dataset, log progress, save a checkpoint
    render       decode one view from a checkpoint to PPM (+ 16-bit PGM depth)
    gradcheck    run the finite-difference gradient battery
    bench        wall-clock decoder comparison on synthetic latents
    verify-ckpt  checkpoint byte-stability and name audit

Exit codes: 0 success, 1 a check failed, 2 bad arguments or config,
3 numeric failure (non-finite loss). ``RAYPATCH_SEED`` provides the default
seed everywhere a --seed flag exists.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

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


def default_seed():
    return int(os.environ.get("RAYPATCH_SEED", "0"))


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
    bn = T.BatchNormState(2)
    bn_gamma, bn_beta = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
    idx = rng.permutation(24)[:7]
    # probes turn row-normalized outputs into informative scalars; every one
    # must be drawn up front or finite differencing sees a moving target
    probe_sm = T.Tensor(rng.standard_normal((4, 5)))
    probe_ln = T.Tensor(rng.standard_normal((3, 8)))
    probe_bn = T.Tensor(rng.standard_normal((2, 4, 4)))

    return [
        ("matmul", lambda x: T.sum_all(T.matmul(x, w)),
         T.Tensor(rng.standard_normal((5, 6)))),
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
        ("batch_norm", lambda x: T.sum_all(T.mul(
            T.batch_norm(x, bn_gamma, bn_beta, bn, True), probe_bn)),
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
    target = next(v for v in views if v.role == 1)

    cases = []
    for kind in ("raypatch", "pixel"):
        model = M.LightFieldModel(cfg, kind)
        named = dict(model.named_parameters())

        def loss_given(image, model=model):
            z = model.encode([(image, views[0].intrinsics, views[0].pose)],
                             training=True)
            out = model.decode(z, target.intrinsics, target.pose, training=True)
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
# decoder wall-clock bench
# ---------------------------------------------------------------------------

# saturation regime: few queries against a tall latent set, so the shared
# K/V projections dominate and halving the query count again buys little
BENCH_DEFAULTS = dict(height=128, width=128, d_model=1536, heads=1, d_k=1024,
                      d_v=1024, n_kv=16384, chunk=2048, repeats=2,
                      feature_channels=128)


def run_bench(height, width, ks, d_model, heads, d_k, d_v, n_kv, chunk, repeats, seed,
              feature_channels):
    """Time decoder-only forwards on synthetic latents.

    Returns {"arms": [per-arm dicts], "speedups": {k: t_pixel / t_k}}. Arms run
    cheapest first so the first timed arm also warms the BLAS caches.
    """
    rng = np.random.default_rng(seed)
    z = T.Tensor(rng.standard_normal((n_kv, d_model)))
    intr = ds.rig_intrinsics(height, width)
    pose = ds.rig_pose(0.0)

    arms = [("raypatch", k) for k in sorted(ks, reverse=True)] + [("pixel", 1)]
    results = []
    for kind, k in arms:
        cfg = M.ModelConfig(height=height, width=width, k=k, d_model=d_model,
                            heads=heads, d_k=d_k, d_v=d_v,
                            feature_channels=feature_channels, seed=seed)
        dec = M.DECODERS[kind](cfg, np.random.default_rng(seed + 1))
        kw = {"chunk": chunk} if kind == "pixel" else {}
        best = float("inf")
        for _ in range(repeats):
            T.tape_clear()
            t0 = time.perf_counter()
            with T.no_grad():
                dec(z, intr, pose, False, **kw)
            best = min(best, time.perf_counter() - t0)
        gflop = cm.full_model_flops(dec.layer_spec(n_kv)) / 1e9
        n_q = (height // k) * (width // k)
        results.append(dict(decoder=kind, k=k, n_q=n_q, seconds=best, gflop=gflop))
    t_pixel = results[-1]["seconds"]
    speedups = {r["k"]: t_pixel / r["seconds"] for r in results if r["decoder"] == "raypatch"}
    return {"arms": results, "speedups": speedups}


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def split_scenes(scenes):
    """Last tenth of the dataset (at least one scene) is held out."""
    n_held = max(1, len(scenes) // 10)
    return scenes[:-n_held], scenes[-n_held:]


def run_training(dataset_path, decoder, steps, lr, log_every=50, **cfg_overrides):
    """Train on a dataset file; returns (model, held-out metrics, CSV log rows)."""
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

def cmd_cost(args):
    cfg = cm.CostConfig(family=args.family, height=args.height, width=args.width,
                        n_views=args.views, k=args.k, heads=args.heads, d_k=args.d_k,
                        n_latent=args.latents, downsamplings=args.downsamplings,
                        bytes_per_element=args.bytes_per_element)
    if args.sweep:
        if not args.values:
            raise ValueError(f"--sweep {args.sweep} needs --values")
        if args.sweep == "resolution":
            values = [tuple(int(p) for p in v.split("x")) for v in args.values.split(",")]
        else:
            values = [int(v) for v in args.values.split(",")]
        reports = cm.sweep(cfg, args.sweep, values)
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
    ds.make_dataset(args.out, args.scenes, args.height, args.width, args.seed)
    size = os.path.getsize(args.out)
    expect = ds.predicted_file_size(args.scenes, args.height, args.width, args.seed)
    if size != expect:
        print(f"size mismatch: {size} != predicted {expect}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"wrote {args.out}: {args.scenes} scenes at {args.height}x{args.width}, "
          f"{size} bytes")
    return EXIT_OK


def cmd_train(args):
    overrides = dict(k=args.k, d_model=args.d_model, heads=args.heads, d_k=args.d_k,
                     d_v=args.d_v, feature_channels=args.feature_channels,
                     downsamplings=args.downsamplings, enc_blocks=args.enc_blocks,
                     dec_blocks=args.dec_blocks, n_freq_origin=args.freq_origin,
                     n_freq_dir=args.freq_dir, seed=args.seed)
    model, held, rows = run_training(args.dataset, args.decoder, args.steps, args.lr,
                                     log_every=args.log_every, **overrides)
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
    model, meta = ckpt.load_checkpoint(args.checkpoint)
    _, scenes = ds.load_dataset(args.dataset)
    if not 0 <= args.scene < len(scenes):
        raise ValueError(f"--scene {args.scene} out of range (0..{len(scenes) - 1})")
    views = scenes[args.scene]
    if not 0 <= args.view < len(views):
        raise ValueError(f"--view {args.view} out of range (0..{len(views) - 1})")
    chosen = views[args.view]

    if args.target:
        rgb, depth = chosen.image, chosen.depth
    else:
        inputs, _ = M.scene_to_views(views)
        with T.no_grad():
            z = model.encode(inputs, training=False)
            out = model.decode(z, chosen.intrinsics, chosen.pose, training=False)
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


def cmd_bench(args):
    ks = [int(v) for v in args.ks.split(",")]
    out = run_bench(args.height, args.width, ks, args.d_model, args.heads, args.d_k,
                    args.d_v, args.n_kv, args.chunk, args.repeats, args.seed,
                    args.feature_channels)
    for arm in out["arms"]:
        rate = arm["gflop"] / arm["seconds"]
        print(f"{arm['decoder']:<9} k={arm['k']:<3} queries={arm['n_q']:<6} "
              f"{arm['seconds']:8.3f} s  {arm['gflop']:9.2f} GFLOP  {rate:6.1f} GFLOP/s")
    for k, s in sorted(out["speedups"].items()):
        print(f"speedup vs pixel decoding at k={k}: {s:.2f}x")
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

def _add_model_flags(p):
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--d-k", type=int, default=32)
    p.add_argument("--d-v", type=int, default=32)
    p.add_argument("--feature-channels", type=int, default=32)
    p.add_argument("--downsamplings", type=int, default=2)
    p.add_argument("--enc-blocks", type=int, default=2)
    p.add_argument("--dec-blocks", type=int, default=2)
    p.add_argument("--freq-origin", type=int, default=10)
    p.add_argument("--freq-dir", type=int, default=10)


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
    p.add_argument("--seed", type=int, default=default_seed())
    p.set_defaults(fn=cmd_dataset)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--decoder", choices=sorted(M.DECODERS), default="raypatch")
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--lr", type=float, default=3e-4)
    p.add_argument("--log-every", type=int, default=50)
    p.add_argument("--log", help="write the training CSV here")
    p.add_argument("--checkpoint", help="write the final model here")
    p.add_argument("--seed", type=int, default=default_seed())
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

    p = sub.add_parser("gradcheck", help="finite-difference gradient battery")
    p.add_argument("--seed", type=int, default=default_seed())
    p.add_argument("--seeds", type=int, default=1, help="number of seeds to sweep")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("bench", help="wall-clock decoder comparison")
    p.add_argument("--height", type=int, default=BENCH_DEFAULTS["height"])
    p.add_argument("--width", type=int, default=BENCH_DEFAULTS["width"])
    p.add_argument("--ks", default="8,16", help="comma list of patch sizes")
    p.add_argument("--d-model", type=int, default=BENCH_DEFAULTS["d_model"])
    p.add_argument("--heads", type=int, default=BENCH_DEFAULTS["heads"])
    p.add_argument("--d-k", type=int, default=BENCH_DEFAULTS["d_k"])
    p.add_argument("--d-v", type=int, default=BENCH_DEFAULTS["d_v"])
    p.add_argument("--n-kv", type=int, default=BENCH_DEFAULTS["n_kv"])
    p.add_argument("--chunk", type=int, default=BENCH_DEFAULTS["chunk"])
    p.add_argument("--repeats", type=int, default=BENCH_DEFAULTS["repeats"])
    p.add_argument("--feature-channels", type=int,
                   default=BENCH_DEFAULTS["feature_channels"])
    p.add_argument("--seed", type=int, default=default_seed())
    p.set_defaults(fn=cmd_bench)

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
