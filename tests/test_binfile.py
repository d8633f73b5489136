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
    with open(path, "rb") as fh:
        binfile.read_header(fh, path, ds.MAGIC, ds.VERSION)
        return ds.load_dataset, fh.tell() + ds.view_record(8, 8).itemsize


def _tiny_checkpoint(path):
    cfg = M.ModelConfig(height=8, width=8, k=2, d_model=16, heads=2, d_k=8, d_v=8,
                        n_freq_origin=2, n_freq_dir=2, feature_channels=8,
                        enc_blocks=1, dec_blocks=1)
    ckpt.save_checkpoint(path, M.LightFieldModel(cfg, "raypatch"), step=5)
    with open(path, "rb") as fh:
        meta = binfile.read_header(fh, path, ckpt.MAGIC, ckpt.VERSION)
        _, shape = meta["entries"][0]
        return ckpt.load_checkpoint, fh.tell() + 4 * math.prod(shape)


@pytest.mark.parametrize("make", [_tiny_dataset, _tiny_checkpoint], ids=["rpds", "rpck"])
def test_every_cut_raises_value_error_naming_the_path(tmp_path, make):
    """Cut at every byte through the first view/entry, then at a stride; and
    append 1 and 61 bytes to the whole file."""
    whole = tmp_path / "whole.bin"
    load, first_end = make(whole)
    raw = whole.read_bytes()
    assert 0 < first_end < len(raw)
    load(whole)  # the uncut file loads

    bad = tmp_path / "bad.bin"
    cuts = [raw[:n] for n in range(first_end + 1)]
    cuts += [raw[:n] for n in range(first_end + 1, len(raw), 61)]
    for n, body in enumerate(cuts + [raw + b"\0", raw + bytes(range(61))]):
        bad.write_bytes(body)
        with pytest.raises(ValueError) as exc:
            load(bad)
        assert str(bad) in str(exc.value), (n, len(body), str(exc.value))
