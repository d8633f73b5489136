"""Model snapshots on disk.

Layout (magic RPCK, integers little-endian):

    "RPCK" | u32 version | u64 json_len | meta JSON (sorted keys)
    u32 n_entries
    per entry: u32 name_len | name utf8 | u32 rank | u64 dim... | f32 payload

The container (magic, version, JSON header) is ``binfile``'s. The meta JSON
carries the full model config, the decoder kind and the training step
count, enough to rebuild the model object before filling in weights.
Entries cover trainable parameters and batch-norm running statistics;
optimizer state is deliberately not persisted. Values are stored as f32,
which makes save -> load -> save byte-stable.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np

from . import tensor as T
from .binfile import read_exact, read_header, write_header
from .model import DECODERS, LightFieldModel, ModelConfig, ModelConfigError

MAGIC = b"RPCK"
VERSION = 1


def _named_state(model):
    return list(model.named_parameters()) + [
        (name, buf) for name, buf in model.named_buffers()]


def save_checkpoint(path, model, step=0):
    entries = _named_state(model)
    meta = {
        "config": dataclasses.asdict(model.cfg),
        "decoder": model.decoder_kind,
        "step": int(step),
    }
    with open(path, "wb") as fh:
        write_header(fh, MAGIC, VERSION, meta)
        fh.write(struct.pack("<I", len(entries)))
        for name, value in entries:
            # parameters are Tensors, batch-norm buffers bare arrays
            data = value.data if isinstance(value, T.Tensor) else value
            arr = np.asarray(data, dtype="<f4")
            encoded = name.encode()
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def _check_meta(meta, path):
    """Reject meta that would not rebuild a model, naming the offending key."""
    config = meta.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"{path}: meta has no 'config' object")
    fields = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
    odd = sorted(set(config) ^ set(fields))
    if odd:
        raise ValueError(f"{path}: config key {odd[0]!r} is "
                         f"{'unknown' if odd[0] in config else 'missing'}")
    for key, kind in fields.items():  # kind: the annotation, as a string
        allowed = (int, float) if kind == "float" else (int,)
        if type(config[key]) not in allowed:
            raise ValueError(f"{path}: config {key!r} has a bad value {config[key]!r}")
    if meta.get("decoder") not in list(DECODERS):  # a list: no hashing of bad values
        raise ValueError(f"{path}: unknown decoder {meta.get('decoder')!r}")
    if type(meta.get("step")) is not int:
        raise ValueError(f"{path}: 'step' is not an integer: {meta.get('step')!r}")


def load_checkpoint(path):
    """Rebuild the model a checkpoint describes: (model, meta dict)."""
    with open(path, "rb") as fh:
        meta = read_header(fh, path, MAGIC, VERSION)
        _check_meta(meta, path)
        (n_entries,) = struct.unpack("<I", read_exact(fh, 4, path))
        stored = {}
        for _ in range(n_entries):
            (nlen,) = struct.unpack("<I", read_exact(fh, 4, path))
            name = read_exact(fh, nlen, path).decode()
            (rank,) = struct.unpack("<I", read_exact(fh, 4, path))
            shape = struct.unpack(f"<{rank}Q", read_exact(fh, 8 * rank, path))
            stored[name] = np.frombuffer(read_exact(fh, 4 * math.prod(shape), path),
                                         dtype="<f4").reshape(shape)

    try:
        cfg = ModelConfig(**meta["config"])
    except ModelConfigError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    model = LightFieldModel(cfg, meta["decoder"])
    expected = dict(_named_state(model))
    if set(stored) != set(expected):
        missing = set(expected) - set(stored)
        surplus = set(stored) - set(expected)
        raise ValueError(f"{path}: state names do not match the rebuilt model "
                         f"(missing {sorted(missing)}, surplus {sorted(surplus)})")
    for name, value in _named_state(model):
        arr = stored[name].astype(np.float64)
        target = value.data if isinstance(value, T.Tensor) else value
        if target.shape != arr.shape:
            raise ValueError(f"{path}: {name} has shape {arr.shape}, "
                             f"model wants {target.shape}")
        target[...] = arr
    return model, meta


def roundtrip_stable(path, scratch_path):
    """save(load(path)) must reproduce the file bit for bit."""
    model, meta = load_checkpoint(path)
    save_checkpoint(scratch_path, model, step=meta["step"])
    with open(path, "rb") as a, open(scratch_path, "rb") as b:
        return a.read() == b.read()
