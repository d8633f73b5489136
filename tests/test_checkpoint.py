"""Checkpoint wire format: fidelity, byte stability, tamper rejection."""

import json
import struct

import numpy as np
import pytest

from raypatch import checkpoint as ckpt
from raypatch import model as M


def small_cfg(seed=0):
    return M.ModelConfig(height=8, width=8, k=2, d_model=16, heads=2, d_k=8, d_v=8,
                         n_freq_origin=2, n_freq_dir=2, feature_channels=8, seed=seed)


def test_save_load_restores_state(tmp_path):
    m = M.LightFieldModel(small_cfg(seed=4), "raypatch")
    # make the state non-trivial before snapshotting
    for _, p in m.named_parameters():
        p.data += 0.125
    path = tmp_path / "m.rpck"
    ckpt.save_checkpoint(path, m, step=77)
    loaded, meta = ckpt.load_checkpoint(path)

    assert meta["step"] == 77
    assert meta["decoder"] == "raypatch"
    assert loaded.cfg == m.cfg
    for (na, pa), (nb, pb) in zip(m.named_parameters(), loaded.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data.astype(np.float32), pb.data)
    for (na, ba), (nb, bb) in zip(m.named_buffers(), loaded.named_buffers()):
        assert na == nb
        np.testing.assert_array_equal(ba.astype(np.float32), bb)


@pytest.mark.parametrize("kind", ["raypatch", "pixel"])
def test_roundtrip_byte_stable(tmp_path, kind):
    m = M.LightFieldModel(small_cfg(seed=1), kind)
    path = tmp_path / "m.rpck"
    ckpt.save_checkpoint(path, m, step=3)
    assert ckpt.roundtrip_stable(path, tmp_path / "again.rpck")


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.rpck"
    path.write_bytes(b"JUNK" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        ckpt.load_checkpoint(path)


def test_rejects_wrong_version(tmp_path):
    m = M.LightFieldModel(small_cfg(), "raypatch")
    path = tmp_path / "m.rpck"
    ckpt.save_checkpoint(path, m)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        ckpt.load_checkpoint(path)


def test_rejects_truncated_file(tmp_path):
    m = M.LightFieldModel(small_cfg(), "raypatch")
    path = tmp_path / "m.rpck"
    ckpt.save_checkpoint(path, m)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 40])
    with pytest.raises(ValueError):
        ckpt.load_checkpoint(path)


def test_checkpoints_with_same_seed_are_identical(tmp_path):
    p1, p2 = tmp_path / "a.rpck", tmp_path / "b.rpck"
    ckpt.save_checkpoint(p1, M.LightFieldModel(small_cfg(seed=9), "pixel"))
    ckpt.save_checkpoint(p2, M.LightFieldModel(small_cfg(seed=9), "pixel"))
    assert p1.read_bytes() == p2.read_bytes()


def _with_meta(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with its meta JSON passed through ``edit``."""
    raw = src.read_bytes()
    (json_len,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16:16 + json_len])
    edit(meta)
    blob = json.dumps(meta).encode()
    dst.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + json_len:])


@pytest.mark.parametrize("edit,key", [
    (lambda m: m["config"].update(colour=3), "colour"),
    (lambda m: m["config"].pop("d_model"), "d_model"),
    (lambda m: m["config"].update(heads="two"), "heads"),
    (lambda m: m.update(step=2.5), "step"),
    (lambda m: m.update(decoder="nerf"), "nerf"),
    (lambda m: m.pop("decoder"), "decoder"),
    (lambda m: m["config"].update(k=3), "power of two"),
], ids=["unknown_key", "missing_key", "bad_value", "float_step", "unknown_decoder",
        "no_decoder", "inconsistent_config"])
def test_rejects_bad_meta_naming_path_and_key(tmp_path, edit, key):
    good, bad = tmp_path / "good.rpck", tmp_path / "bad.rpck"
    ckpt.save_checkpoint(good, M.LightFieldModel(small_cfg(), "raypatch"), step=2)
    _with_meta(good, bad, edit)
    with pytest.raises(ValueError) as exc:
        ckpt.load_checkpoint(bad)
    assert str(bad) in str(exc.value) and key in str(exc.value)
