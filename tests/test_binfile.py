"""The shared file container: header round trip, and cut files fail by name."""

import io
import math
import struct

import pytest

from raypatch import binfile
from raypatch import checkpoint as ckpt
from raypatch import datasynth as ds
from raypatch import model as M


def test_header_round_trip_and_size(tmp_path):
    header = {"b": [1, 2], "a": "x"}
    buf = io.BytesIO()
    size = binfile.write_header(buf, b"TEST", 7, header)
    raw = buf.getvalue()
    assert len(raw) == size
    assert raw[:16] == b"TEST" + struct.pack("<IQ", 7, len(raw) - 16)
    assert raw[16:] == b'{"a":"x","b":[1,2]}'  # sorted keys, no spaces
    path = tmp_path / "h.bin"
    path.write_bytes(raw)
    with open(path, "rb") as fh:
        assert binfile.read_header(fh, path, b"TEST", 7) == header


@pytest.mark.parametrize("blob,match", [(b"[1, 2]", "not a JSON object"),
                                        (b"{oops", "not valid JSON"),
                                        (b"\xff\xfe", "not valid JSON")],
                         ids=["list", "bad_json", "bad_utf8"])
def test_bad_header_json_names_the_path(tmp_path, blob, match):
    path = tmp_path / "h.bin"
    path.write_bytes(b"TEST" + struct.pack("<IQ", 1, len(blob)) + blob)
    with open(path, "rb") as fh, pytest.raises(ValueError, match=match) as exc:
        binfile.read_header(fh, path, b"TEST", 1)
    assert str(path) in str(exc.value)


def _tiny_dataset(path):
    ds.make_dataset(path, n_scenes=2, height=8, width=8, seed=1)
    header = binfile.write_header(io.BytesIO(), ds.MAGIC, ds.VERSION,
                                  {"h": 8, "n_scenes": 2, "seed": 1, "w": 8})
    return ds.load_dataset, header + (path.stat().st_size - header) // 6  # 2 scenes x 3 views


def _tiny_checkpoint(path):
    cfg = M.ModelConfig(height=8, width=8, k=2, d_model=16, heads=2, d_k=8, d_v=8,
                        n_freq_origin=2, n_freq_dir=2, feature_channels=8,
                        enc_blocks=1, dec_blocks=1)
    ckpt.save_checkpoint(path, M.LightFieldModel(cfg, "raypatch"), step=5)
    raw = path.read_bytes()
    (json_len,) = struct.unpack("<Q", raw[8:16])
    at = 16 + json_len + 4  # past the header and the entry count
    (name_len,) = struct.unpack("<I", raw[at:at + 4])
    at += 4 + name_len
    (rank,) = struct.unpack("<I", raw[at:at + 4])
    shape = struct.unpack(f"<{rank}Q", raw[at + 4:at + 4 + 8 * rank])
    return ckpt.load_checkpoint, at + 4 + 8 * rank + 4 * math.prod(shape)


@pytest.mark.parametrize("make", [_tiny_dataset, _tiny_checkpoint], ids=["rpds", "rpck"])
def test_every_cut_raises_value_error_naming_the_path(tmp_path, make):
    """Cut at every byte through the first view/entry, then at a stride."""
    whole = tmp_path / "whole.bin"
    load, first_end = make(whole)
    raw = whole.read_bytes()
    assert 0 < first_end < len(raw)
    load(whole)  # the uncut file loads

    cut = tmp_path / "cut.bin"
    offsets = list(range(first_end + 1)) + list(range(first_end + 1, len(raw), 61))
    for n in offsets:
        cut.write_bytes(raw[:n])
        with pytest.raises(ValueError) as exc:
            load(cut)
        assert str(cut) in str(exc.value), (n, str(exc.value))
