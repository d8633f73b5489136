"""CLI behavior: image writers, exit codes, end-to-end command flows."""

import numpy as np
import pytest

from raypatch import checkpoint as ckpt
from raypatch import cli
from raypatch import datasynth as ds
from raypatch import model as M
from raypatch.costmodel import CSV_HEADER


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
        assert cli.main(["cost", "--family", "define", "--height", "960",
                         "--width", "1280", "--views", "5"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "75.0000 GiB" in out

    def test_csv_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code = cli.main(["cost", "--family", "rp-define", "--height", "960",
                         "--width", "1280", "--views", "5", "--sweep", "k",
                         "--values", "1,8,16", "--csv", str(path)])
        assert code == cli.EXIT_OK
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert lines[3].endswith("314572800.0")  # k=16 peak bytes, full precision

    def test_unknown_family_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cost", "--family", "nerf"])
        assert exc.value.code == cli.EXIT_BAD_ARGS

    def test_bad_k_exits_2(self, capsys):
        code = cli.main(["cost", "--family", "rp-srt", "--height", "96",
                         "--width", "96", "--k", "3"])
        assert code == cli.EXIT_BAD_ARGS


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

    def test_seed_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RAYPATCH_SEED", "3")
        p_env = tmp_path / "env.rpds"
        assert cli.main(["dataset", "--out", str(p_env), "--scenes", "2",
                         "--height", "8", "--width", "8"]) == cli.EXIT_OK
        p_flag = tmp_path / "flag.rpds"
        assert cli.main(["dataset", "--out", str(p_flag), "--scenes", "2",
                         "--height", "8", "--width", "8", "--seed", "3"]) == cli.EXIT_OK
        assert p_env.read_bytes() == p_flag.read_bytes()


class TestGradcheckCommand:
    def test_passes_and_prints_table(self, capsys):
        assert cli.main(["gradcheck", "--seed", "11"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "all gradients agree" in out
        assert "matmul" in out and "raypatch_input_image" in out


class TestBenchCommand:
    def test_tiny_bench_runs(self, capsys):
        code = cli.main(["bench", "--height", "16", "--width", "16",
                         "--ks", "2,4", "--d-model", "32", "--heads", "1",
                         "--d-k", "16", "--d-v", "16", "--n-kv", "64",
                         "--chunk", "128", "--repeats", "1",
                         "--feature-channels", "16", "--seed", "0"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "speedup vs pixel decoding at k=4" in out


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
        cfg = M.ModelConfig(height=8, width=8, k=2, d_model=16, heads=2, d_k=8, d_v=8,
                            n_freq_origin=2, n_freq_dir=2, feature_channels=8)
        ckpt.save_checkpoint(paths["ck"], M.LightFieldModel(cfg, "raypatch"))
        paths["cut_ck"].write_bytes(paths["ck"].read_bytes()[:-100])
        return paths

    TRAIN = ["train", "--steps", "1", "--k", "2", "--d-model", "16", "--d-k", "8",
             "--d-v", "8", "--feature-channels", "8", "--freq-origin", "2",
             "--freq-dir", "2", "--dataset"]
    RENDER = ["render", "--out-rgb", "{x}", "--checkpoint"]

    # argv with {placeholders} for the fixture files, and what the error line names
    CASES = {
        "cost_sweep_without_values": (["cost", "--sweep", "k"], "--values"),
        "dataset_negative_scenes": (["dataset", "--out", "{x}", "--scenes", "-1"],
                                    "'n_scenes' is -1"),
        "train_log_every_0": (TRAIN + ["{ds}", "--log-every", "0"], "--log-every"),
        "train_one_scene": (TRAIN + ["{one}"], "{one}"),
        "train_no_scene": (TRAIN + ["{none}"], "{none}"),
        "train_cut_dataset": (TRAIN + ["{cut_ds}"], "{cut_ds}"),
        "train_missing_dataset": (TRAIN + ["{ds}.gone"], "{ds}.gone"),
        "render_scene_out_of_range": (RENDER + ["{ck}", "--dataset", "{ds}", "--scene", "9"],
                                      "--scene"),
        "render_view_out_of_range": (RENDER + ["{ck}", "--dataset", "{ds}", "--view", "3"],
                                     "--view"),
        "render_cut_checkpoint": (RENDER + ["{cut_ck}", "--dataset", "{ds}"], "{cut_ck}"),
        "render_cut_dataset": (RENDER + ["{ck}", "--dataset", "{cut_ds}"], "{cut_ds}"),
        "verify_cut_checkpoint": (["verify-ckpt", "--checkpoint", "{cut_ck}"], "{cut_ck}"),
        "verify_dataset_as_checkpoint": (["verify-ckpt", "--checkpoint", "{ds}"], "{ds}"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_error_line(self, files, tmp_path, capsys, case):
        argv, names = self.CASES[case]
        subst = {name: str(path) for name, path in files.items()}
        subst["x"] = str(tmp_path / "x.ppm")
        argv = [a.format(**subst) for a in argv]
        assert cli.main(argv) == cli.EXIT_BAD_ARGS
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert lines and names.format(**subst) in lines[0], err
