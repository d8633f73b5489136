"""CLI behavior: image writers, exit codes, end-to-end command flows."""

import argparse
import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from raypatch import binfile
from raypatch import checkpoint as ckpt
from raypatch import cli
from raypatch import datasynth as ds
from raypatch import model as M


class TestImageWriters:
    def test_ppm_layout_and_rounding(self, tmp_path):
        rgb = np.zeros((3, 1, 2))
        rgb[:, 0, 0] = [0.0, 0.5, 1.0]
        rgb[:, 0, 1] = [2.0, -1.0, 1.0 / 255.0 * 0.49]
        path = tmp_path / "img.ppm"
        cli.write_ppm(path, rgb)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n2 1\n255\n")
        # pixel 0: 0, round(127.5+0.5)=128, 255; pixel 1 clamps then rounds
        assert raw[len(b"P6\n2 1\n255\n"):] == bytes([0, 128, 255, 255, 0, 0])

    def test_pgm16_depth_encoding(self, tmp_path):
        depth = np.array([[1.0, np.nan], [0.0001, 70.0]])
        path = tmp_path / "d.pgm"
        cli.write_pgm16(path, depth)
        raw = path.read_bytes()
        header = b"P5\n2 2\n65535\n"
        assert raw.startswith(header)
        vals = np.frombuffer(raw[len(header):], dtype=">u2").reshape(2, 2)
        assert vals[0, 0] == 1000       # 1 m -> 1000 mm
        assert vals[0, 1] == 0          # no depth
        assert vals[1, 0] == 1          # sub-mm clips up, 0 stays reserved
        assert vals[1, 1] == 65535      # clips at the format ceiling


class TestCostCommand:
    def test_table_output(self, capsys):
        assert cli.main(["cost", "--decoder", "pixel", "--heads", "8", "--d-k", "64",
                         "--d-v", "64", "--downsamplings", "3"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("pixel    960x1280 k=4   queries=1228800  kv=19200 ")
        assert "decoder_cnn=0.000" in out
        assert "peak logit=175.7812 GiB" in out  # 8 bytes * 1228800 * 19200

    def test_csv_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        argv = ["cost", "--views", "5", "--sweep", "resolution", "--values", "64x64,96x128",
                "--csv"]
        assert cli.main(argv + [str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert cli.main(argv + ["-"]) == cli.EXIT_OK
        assert path.read_text() == capsys.readouterr().out
        assert [line.split(",")[:4] for line in path.read_text().splitlines()[1:]] == [
            ["raypatch", "5", "64", "64"], ["raypatch", "5", "96", "128"]]

    def test_unknown_decoder_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cost", "--decoder", "nerf"])
        assert exc.value.code == cli.EXIT_BAD_ARGS

    def test_seed_variable_in_the_environment_is_not_read(self, monkeypatch, capsys):
        monkeypatch.setenv("RAYPATCH_SEED", "abc")
        assert cli.main(["cost"]) == cli.EXIT_OK


class TestPipeline:
    @pytest.fixture(scope="class")
    @staticmethod
    def dataset(tmp_path_factory):
        path = tmp_path_factory.mktemp("data") / "toy.rpds"
        assert cli.main(["dataset", "--out", str(path), "--scenes", "11",
                         "--height", "16", "--width", "16", "--seed", "3"]) == cli.EXIT_OK
        return path

    def _train_args(self, dataset, out_ckpt, steps, log=None):
        args = ["train", "--dataset", str(dataset), "--decoder", "raypatch",
                "--k", "2", "--steps", str(steps), "--lr", "1e-3",
                "--d-model", "32", "--d-k", "16", "--d-v", "16",
                "--feature-channels", "16", "--freq-origin", "4",
                "--freq-dir", "4", "--seed", "5",
                "--checkpoint", str(out_ckpt)]
        if log:
            args += ["--log", str(log)]
        return args

    def test_zero_step_checkpoint_equals_init(self, dataset, tmp_path, capsys):
        out = tmp_path / "init.rpck"
        assert cli.main(self._train_args(dataset, out, steps=0)) == cli.EXIT_OK
        loaded, meta = ckpt.load_checkpoint(out)
        assert meta["step"] == 0
        fresh = M.LightFieldModel(loaded.cfg, "raypatch")
        for (_, a), (_, b) in zip(fresh.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(a.data.astype(np.float32), b.data)

    def test_training_run_is_reproducible(self, dataset, tmp_path, capsys):
        outs, logs = [], []
        for tag in ("a", "b"):
            out, log = tmp_path / f"{tag}.rpck", tmp_path / f"{tag}.csv"
            assert cli.main(self._train_args(dataset, out, steps=30,
                                             log=log)) == cli.EXIT_OK
            outs.append(out.read_bytes())
            logs.append(log.read_text())
        assert outs[0] == outs[1]
        assert logs[0] == logs[1]
        assert logs[0].startswith("step,loss,psnr\n")

    def test_render_and_verify(self, dataset, tmp_path, capsys):
        out = tmp_path / "m.rpck"
        assert cli.main(self._train_args(dataset, out, steps=20)) == cli.EXIT_OK
        rgb, pgm = tmp_path / "v.ppm", tmp_path / "v.pgm"
        assert cli.main(["render", "--checkpoint", str(out), "--dataset",
                         str(dataset), "--scene", "1", "--view", "2",
                         "--out-rgb", str(rgb), "--out-depth", str(pgm)]) == cli.EXIT_OK
        assert rgb.read_bytes().startswith(b"P6\n16 16\n255\n")
        assert pgm.read_bytes().startswith(b"P5\n16 16\n65535\n")
        assert "psnr vs ground truth" in capsys.readouterr().out
        assert cli.main(["verify-ckpt", "--checkpoint", str(out)]) == cli.EXIT_OK

    def test_render_target_mode_writes_ground_truth(self, dataset, tmp_path, capsys):
        out = tmp_path / "m.rpck"
        assert cli.main(self._train_args(dataset, out, steps=0)) == cli.EXIT_OK
        rgb = tmp_path / "gt.ppm"
        assert cli.main(["render", "--checkpoint", str(out), "--dataset",
                         str(dataset), "--scene", "0", "--view", "1",
                         "--out-rgb", str(rgb), "--target"]) == cli.EXIT_OK
        _, scenes = ds.load_dataset(dataset)
        img = scenes[0][1].image.astype(np.float64)  # the writer rounds in f64
        expect = np.floor(np.clip(img, 0, 1) * 255.0 + 0.5)
        raw = rgb.read_bytes()
        got = np.frombuffer(raw[len(b"P6\n16 16\n255\n"):], dtype=np.uint8)
        np.testing.assert_array_equal(
            got.reshape(16, 16, 3).transpose(2, 0, 1), expect.astype(np.uint8))

    def test_render_bad_scene_index_exits_2(self, dataset, tmp_path, capsys):
        out = tmp_path / "m.rpck"
        assert cli.main(self._train_args(dataset, out, steps=0)) == cli.EXIT_OK
        code = cli.main(["render", "--checkpoint", str(out), "--dataset",
                         str(dataset), "--scene", "99", "--out-rgb",
                         str(tmp_path / "x.ppm")])
        assert code == cli.EXIT_BAD_ARGS


@pytest.mark.parametrize("steps,where", [(3, "step 2"), (1, "held-out evaluation after step 1")])
def test_train_numeric_failure_names_the_step_on_one_line(tmp_path, capsys, steps, where):
    # lr 1e300 makes the first step's update overflow the next forward
    data = tmp_path / "d.rpds"
    ds.make_dataset(data, n_scenes=3, height=16, width=16, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code = cli.main(["train", "--dataset", str(data), "--steps", str(steps), "--lr", "1e300"])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == f"numeric failure: {where}: softmax_rows: non-finite input\n"


def test_train_names_the_step_of_a_gradient_that_is_not_finite(tmp_path, capsys, monkeypatch):
    data = tmp_path / "d.rpds"
    ds.make_dataset(data, n_scenes=3, height=16, width=16, seed=0)
    step, calls = M.Adam.step, []

    def step_with_inf_on_the_second_call(opt):
        calls.append(opt.t)
        if len(calls) == 2:
            opt.params[0][1].grad.flat[0] = np.inf
        return step(opt)

    monkeypatch.setattr(M.Adam, "step", step_with_inf_on_the_second_call)
    code = cli.main(["train", "--dataset", str(data), "--steps", "3"])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric failure: step 2: the gradient norm is not finite\n"


def test_readme_table_lists_exactly_the_subcommands():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("## Subcommands", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([\w-]+)` +\|", table, flags=re.MULTILINE)
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)


RUN_FLAGS = {"train": {"dataset", "decoder", "steps", "lr", "log_every", "log", "checkpoint"},
             "cost": {"decoder", "height", "width", "views", "sweep", "values", "csv"}}


@pytest.mark.parametrize("command", sorted(RUN_FLAGS))
def test_model_flags_are_the_config_fields_without_defaults(command):
    """ModelConfig holds the only copy of each model default: every field but
    height and width (train: the dataset's; cost: their own flags) has a flag
    of that dest, which stays absent unless given."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    model_flags = [a for a in sub.choices[command]._actions
                   if a.dest not in RUN_FLAGS[command] | {"help"}]
    fields = {f.name for f in dataclasses.fields(M.ModelConfig)} - {"height", "width"}
    assert sorted(a.dest for a in model_flags) == sorted(fields)
    assert [a.dest for a in model_flags if a.default is not argparse.SUPPRESS] == []


class TestBadInvocations:
    """Bad arguments and bad files: exit 2, an ``error:`` line, no traceback."""

    @pytest.fixture(scope="class")
    @staticmethod
    def files(tmp_path_factory):
        d = tmp_path_factory.mktemp("bad")
        paths = {"ds": d / "ok.rpds", "one": d / "one.rpds", "none": d / "none.rpds",
                 "cut_ds": d / "cut.rpds", "ck": d / "ok.rpck", "cut_ck": d / "cut.rpck"}
        for name, n in (("ds", 2), ("one", 1), ("none", 0)):
            ds.make_dataset(paths[name], n_scenes=n, height=8, width=8, seed=0)
        paths["cut_ds"].write_bytes(paths["ds"].read_bytes()[:-100])
        paths["ds16"] = d / "ds16.rpds"
        ds.make_dataset(paths["ds16"], n_scenes=1, height=16, width=16, seed=0)
        # one bad value in one view of the 2-scene file, placed through the view record
        raw = paths["ds"].read_bytes()
        record = ds.view_record(8, 8)
        head = len(raw) - 2 * ds.RIG_VIEWS * record.itemsize
        for name, view, field, at, value in (("nan_rotation", 4, "rotation", 0, math.nan),
                                             ("inf_pixel", 2, "image", 10, math.inf),
                                             ("zero_fx", 3, "intrinsics", 0, 0.0),
                                             ("nan_cx", 0, "intrinsics", 2, math.nan),
                                             ("zero_depth", 1, "depth", 0, 0.0)):
            paths[name] = d / f"{name}.rpds"
            bad = bytearray(raw)
            np.frombuffer(bad, record, offset=head)[field][view].flat[at] = value
            paths[name].write_bytes(bytes(bad))
        # headers that describe a body far past the 2-scene body behind them, and
        # one of no scenes (and no body) whose views pass numpy's 2 GiB record limit
        for name, edit in (("huge_views_ds", {"h": 2 ** 20, "w": 2 ** 20}),
                           ("huge_count_ds", {"n_scenes": 2 ** 62}),
                           ("huge_empty_ds", {"h": 2 ** 20, "w": 2 ** 20, "n_scenes": 0})):
            paths[name] = d / f"{name}.rpds"
            with open(paths["ds"], "rb") as src, open(paths[name], "wb") as dst:
                header = binfile.read_header(src, paths["ds"], ds.MAGIC, ds.VERSION)
                binfile.write_header(dst, ds.MAGIC, ds.VERSION, dict(header, **edit))
                if edit.get("n_scenes") != 0:
                    dst.write(src.read())
        cfg = M.ModelConfig(height=8, width=8, k=2, d_model=16, heads=2, d_k=8, d_v=8,
                            n_freq_origin=2, n_freq_dir=2, feature_channels=8)
        ckpt.save_checkpoint(paths["ck"], M.LightFieldModel(cfg, "raypatch"))
        # no model with these metas can be built or saved, so rewrite the meta
        # of a valid checkpoint
        # big_ck: 1 PiB of conv weights, past the address space
        for name, step, config in (("neg_ck", -1, {}), ("h0_ck", 0, {"height": 0}),
                                   ("heads0_ck", 0, {"heads": 0}),
                                   ("big_ck", 0, {"d_model": 2 ** 40})):
            paths[name] = d / f"{name}.rpck"
            with open(paths["ck"], "rb") as src, open(paths[name], "wb") as dst:
                meta = binfile.read_header(src, paths["ck"], ckpt.MAGIC, ckpt.VERSION)
                meta = dict(meta, step=step, config=dict(meta["config"], **config))
                binfile.write_header(dst, ckpt.MAGIC, ckpt.VERSION, meta)
                dst.write(src.read())
        # the same body behind the header of an older format version
        paths["v3_ck"] = d / "v3.rpck"
        with open(paths["ck"], "rb") as src, open(paths["v3_ck"], "wb") as dst:
            meta = binfile.read_header(src, paths["ck"], ckpt.MAGIC, ckpt.VERSION)
            binfile.write_header(dst, ckpt.MAGIC, 3, meta)
            dst.write(src.read())
        paths["cut_ck"].write_bytes(paths["ck"].read_bytes()[:-100])
        paths["long_ck"] = d / "long.rpck"
        paths["long_ck"].write_bytes(paths["ck"].read_bytes() + b"\0")
        # a NaN in the first value of one parameter entry, found through the
        # meta's entries
        paths["nan_ck"] = d / "nan.rpck"
        with open(paths["ck"], "rb") as src:
            meta = binfile.read_header(src, paths["ck"], ckpt.MAGIC, ckpt.VERSION)
            at = src.tell()
        names = [name for name, _ in meta["entries"]]
        at += 4 * sum(math.prod(shape) for _, shape in
                      meta["entries"][:names.index("dec.body0.gamma")])
        raw = bytearray(paths["ck"].read_bytes())
        np.frombuffer(raw, "<f4", count=1, offset=at)[0] = math.nan
        paths["nan_ck"].write_bytes(bytes(raw))
        return paths

    TRAIN = ["train", "--steps", "1", "--k", "2", "--d-model", "16", "--d-k", "8",
             "--d-v", "8", "--feature-channels", "8", "--freq-origin", "2",
             "--freq-dir", "2", "--dataset"]
    RENDER = ["render", "--out-rgb", "{x}", "--checkpoint"]

    # argv with {placeholders} for the fixture files, and what the error line names
    CASES = {
        "cost_sweep_without_values": (["cost", "--sweep", "k"], "--values"),
        "cost_negative_heads": (["cost", "--heads", "-1", "--csv", "-"], "heads"),
        "cost_zero_heads": (["cost", "--heads", "0"], "heads"),
        "cost_negative_d_k": (["cost", "--d-k", "-5"], "d_k"),
        "cost_zero_views": (["cost", "--views", "0"], "--views must be at least 1, got 0"),
        # 4.3 PiB of conv weights: past the address space, so it fails before touching memory
        "cost_d_model_beyond_memory": (["cost", "--d-model", "1099511627776"],
                                       "the model does not fit in memory; --d-model "
                                       "1099511627776 is the furthest above its default 64"),
        # 1 PiB of attention weights: past the address space too
        "cost_sweep_d_k_beyond_memory": (["cost", "--sweep", "d_k", "--values", "8,1099511627776"],
                                         "--d-k 1099511627776 is the furthest above its default"),
        "cost_k_not_a_power_of_two": (["cost", "--height", "96", "--width", "96", "--k", "3"],
                                      "patch size must be a power of two, got 3"),
        "cost_sweep_zero_heads": (["cost", "--sweep", "heads", "--values", "0"], "heads"),
        "cost_resolution_without_x": (["cost", "--sweep", "resolution", "--values", "64x64,32"],
                                      "--values item '32' is not an HxW pair"),
        "cost_resolution_with_two_x": (["cost", "--sweep", "resolution", "--values", "32x32x2"],
                                       "--values item '32x32x2' is not an HxW pair"),
        "cost_k_not_a_number": (["cost", "--sweep", "k", "--values", "2,a"],
                                "--values item 'a' is not an integer"),
        "cost_csv_dir_missing": (["cost", "--csv", "{x}.d/c.csv"],
                                 "--csv {x}.d/c.csv: its directory does not exist"),
        "cost_csv_is_a_directory": (["cost", "--csv", "{dir}"], "--csv {dir} is a directory"),
        "dataset_negative_scenes": (["dataset", "--out", "{x}", "--scenes", "-1"],
                                    "--scenes must be at least 1, got -1"),
        "dataset_zero_scenes": (["dataset", "--out", "{x}", "--scenes", "0"],
                                "--scenes must be at least 1, got 0"),
        "dataset_negative_height": (["dataset", "--out", "{x}", "--height", "-4"],
                                    "--height must be at least 1, got -4"),
        "dataset_zero_width": (["dataset", "--out", "{x}", "--width", "0"],
                               "--width must be at least 1, got 0"),
        "dataset_negative_seed": (["dataset", "--out", "{x}", "--seed", "-5"],
                                  "--seed must be at least 0, got -5"),
        # a record field past numpy's 2 GiB limit, refused before the file is opened
        "dataset_huge_views": (["dataset", "--out", "{x}", "--height", "70000",
                                "--width", "70000"],
                               "{x}: 70000x70000 views do not fit a numpy record"),
        "dataset_huge_width": (["dataset", "--out", "{x}", "--height", "1",
                                "--width", "600000000"],
                               "{x}: 1x600000000 views do not fit a numpy record"),
        "dataset_out_dir_missing": (["dataset", "--out", "{x}.d/x.rpds", "--scenes", "2",
                                     "--height", "8", "--width", "8"],
                                    "--out {x}.d/x.rpds: its directory does not exist"),
        "dataset_out_is_a_directory": (["dataset", "--out", "{dir}", "--scenes", "2",
                                        "--height", "8", "--width", "8"],
                                       "--out {dir} is a directory"),
        "train_log_every_0": (TRAIN + ["{ds}", "--log-every", "0"], "--log-every"),
        "train_one_scene": (TRAIN + ["{one}"], "{one}"),
        "train_no_scene": (TRAIN + ["{none}"], "{none}"),
        "train_cut_dataset": (TRAIN + ["{cut_ds}"], "{cut_ds}"),
        "train_huge_views": (TRAIN + ["{huge_views_ds}"], "{huge_views_ds}: "),
        "train_huge_scene_count": (TRAIN + ["{huge_count_ds}"], "{huge_count_ds}: "),
        "train_huge_views_no_scenes": (TRAIN + ["{huge_empty_ds}"], "{huge_empty_ds}: "),
        "render_huge_views": (RENDER + ["{ck}", "--dataset", "{huge_views_ds}"],
                              "{huge_views_ds}: "),
        "train_missing_dataset": (TRAIN + ["{ds}.gone"], "{ds}.gone"),
        "train_nan_rotation": (TRAIN + ["{nan_rotation}"],
                               "{nan_rotation}: scene 1 view 1: rotation holds a non-finite"),
        "train_inf_pixel": (TRAIN + ["{inf_pixel}"],
                            "{inf_pixel}: scene 0 view 2: image holds a non-finite"),
        "train_zero_focal_length": (TRAIN + ["{zero_fx}"],
                                    "{zero_fx}: scene 1 view 0: focal length fx=0.0"),
        "train_nan_cx": (TRAIN + ["{nan_cx}"],
                         "{nan_cx}: scene 0 view 0: intrinsics hold a non-finite value"),
        "train_zero_depth": (TRAIN + ["{zero_depth}"],
                             "{zero_depth}: scene 0 view 1: depth holds a value at or below 0"),
        "train_no_downsampling": (TRAIN + ["{ds}", "--downsamplings", "0"], "downsamplings"),
        "train_no_feature_channels": (TRAIN + ["{ds}", "--feature-channels", "0"],
                                      "feature_channels"),
        "train_no_ray_frequencies": (TRAIN + ["{ds}", "--freq-origin", "0", "--freq-dir", "0"],
                                     "n_freq_origin + n_freq_dir"),
        "train_negative_freq_origin": (TRAIN + ["{ds}", "--freq-origin", "-1"],
                                       "n_freq_origin"),
        "train_negative_enc_blocks": (TRAIN + ["{ds}", "--enc-blocks", "-1"], "enc_blocks"),
        "train_no_dec_blocks": (TRAIN + ["{ds}", "--dec-blocks", "0"], "dec_blocks"),
        "train_negative_steps": (TRAIN + ["{ds}", "--steps", "-1"], "--steps"),
        "train_negative_seed": (TRAIN + ["{ds}", "--seed", "-1"], "seed must be at least 0"),
        "train_negative_lr": (TRAIN + ["{ds}", "--lr", "-1"], "--lr"),
        "train_zero_lr": (TRAIN + ["{ds}", "--lr", "0"], "--lr"),
        "train_nan_lr": (TRAIN + ["{ds}", "--lr", "nan"], "--lr"),
        "train_inf_lr": (TRAIN + ["{ds}", "--lr", "inf"], "--lr"),
        # {x}.d is a directory that does not exist
        "train_log_dir_missing": (TRAIN + ["{ds}", "--log", "{x}.d/log.csv"],
                                  "--log {x}.d/log.csv: its directory does not exist"),
        "train_checkpoint_dir_missing": (TRAIN + ["{ds}", "--checkpoint", "{x}.d/m.rpck"],
                                         "--checkpoint {x}.d/m.rpck: its directory does not"),
        "train_checkpoint_is_a_directory": (TRAIN + ["{ds}", "--checkpoint", "{dir}"],
                                            "--checkpoint {dir} is a directory"),
        "render_rgb_dir_missing": (["render", "--out-rgb", "{x}.d/a.ppm", "--checkpoint", "{ck}",
                                    "--dataset", "{ds}"],
                                   "--out-rgb {x}.d/a.ppm: its directory does not exist"),
        "render_depth_dir_missing": (RENDER + ["{ck}", "--dataset", "{ds}",
                                               "--out-depth", "{x}.d/d.pgm"],
                                     "--out-depth {x}.d/d.pgm: its directory does not exist"),
        "render_rgb_is_a_directory": (["render", "--out-rgb", "{dir}", "--checkpoint", "{ck}",
                                       "--dataset", "{ds}"],
                                      "--out-rgb {dir} is a directory"),
        "render_scene_out_of_range": (RENDER + ["{ck}", "--dataset", "{ds}", "--scene", "9"],
                                      "--scene"),
        "render_view_out_of_range": (RENDER + ["{ck}", "--dataset", "{ds}", "--view", "3"],
                                     "--view"),
        "render_cut_checkpoint": (RENDER + ["{cut_ck}", "--dataset", "{ds}"], "{cut_ck}"),
        "render_cut_dataset": (RENDER + ["{ck}", "--dataset", "{cut_ds}"], "{cut_ds}"),
        "verify_cut_checkpoint": (["verify-ckpt", "--checkpoint", "{cut_ck}"], "{cut_ck}"),
        "verify_dataset_as_checkpoint": (["verify-ckpt", "--checkpoint", "{ds}"], "{ds}"),
        "verify_negative_step": (["verify-ckpt", "--checkpoint", "{neg_ck}"], "{neg_ck}"),
        "render_negative_step": (RENDER + ["{neg_ck}", "--dataset", "{ds}"], "{neg_ck}"),
        "verify_version_3": (["verify-ckpt", "--checkpoint", "{v3_ck}"],
                             "{v3_ck}: not an RPCK file of version 7"),
        "render_version_3": (RENDER + ["{v3_ck}", "--dataset", "{ds}"],
                             "{v3_ck}: not an RPCK file of version 7"),
        "verify_appended_bytes": (["verify-ckpt", "--checkpoint", "{long_ck}"],
                                  "{long_ck}: "),
        "render_appended_bytes": (RENDER + ["{long_ck}", "--dataset", "{ds}"], "{long_ck}: "),
        "verify_zero_height": (["verify-ckpt", "--checkpoint", "{h0_ck}"],
                               "{h0_ck}: height must be at least 1"),
        "verify_zero_heads": (["verify-ckpt", "--checkpoint", "{heads0_ck}"],
                              "{heads0_ck}: heads must be at least 1"),
        "verify_too_large_to_allocate": (["verify-ckpt", "--checkpoint", "{big_ck}"],
                                         "{big_ck}: the model does not fit in memory; config "
                                         "'d_model' = 1099511627776"),
        "render_too_large_to_allocate": (RENDER + ["{big_ck}", "--dataset", "{ds}"],
                                         "{big_ck}: the model does not fit in memory; config "
                                         "'d_model' = 1099511627776"),
        "verify_nan_weight": (["verify-ckpt", "--checkpoint", "{nan_ck}"],
                              "{nan_ck}: entry 'dec.body0.gamma' holds a non-finite"),
        "render_zero_height": (RENDER + ["{h0_ck}", "--dataset", "{ds}"],
                               "{h0_ck}: height must be at least 1"),
        "render_nan_weight": (RENDER + ["{nan_ck}", "--dataset", "{ds}"],
                              "{nan_ck}: entry 'dec.body0.gamma' holds a non-finite"),
        "render_size_mismatch": (RENDER + ["{ck}", "--dataset", "{ds16}"],
                                 "{ck} holds a 8x8 model, but {ds16} holds 16x16 views"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_error_line(self, files, tmp_path, capsys, case):
        argv, names = self.CASES[case]
        subst = {name: str(path) for name, path in files.items()}
        subst["x"] = str(tmp_path / "x.ppm")
        subst["dir"] = str(tmp_path)
        argv = [a.format(**subst) for a in argv]
        assert cli.main(argv) == cli.EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert lines and names.format(**subst) in lines[0], err

    @pytest.mark.parametrize("flag", ["--scenes", "--height", "--width"])
    def test_dataset_size_below_1_writes_nothing(self, tmp_path, flag):
        out = tmp_path / "x.rpds"
        assert cli.main(["dataset", "--out", str(out), flag, "0"]) == cli.EXIT_BAD_ARGS
        assert not out.exists()

    @pytest.mark.parametrize("case", ["dataset_negative_seed", "dataset_huge_views",
                                      "dataset_huge_width"])
    def test_dataset_refusal_writes_nothing(self, tmp_path, case):
        out = tmp_path / "x.ppm"
        assert cli.main([a.format(x=out) for a in self.CASES[case][0]]) == cli.EXIT_BAD_ARGS
        assert not out.exists()

    def test_render_with_a_bad_depth_path_writes_no_image(self, files, tmp_path, capsys):
        rgb = tmp_path / "a.ppm"
        argv = ["render", "--out-rgb", str(rgb), "--out-depth", str(tmp_path / "d/d.pgm"),
                "--checkpoint", str(files["ck"]), "--dataset", str(files["ds"])]
        assert cli.main(argv) == cli.EXIT_BAD_ARGS
        assert not rgb.exists()
        assert "psnr" not in capsys.readouterr().out  # nothing was decoded

    def test_train_checks_output_directories_before_the_dataset(self, tmp_path, capsys):
        argv = self.TRAIN + [str(tmp_path / "gone.rpds"), "--checkpoint", str(tmp_path / "d/m.rpck")]
        assert cli.main(argv) == cli.EXIT_BAD_ARGS
        assert "error: --checkpoint" in capsys.readouterr().err
