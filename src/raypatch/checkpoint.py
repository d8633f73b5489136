"""Model snapshots on disk.

Layout (magic RPCK): ``binfile``'s container with the meta JSON

    {"config": {...}, "decoder": ..., "entries": [[name, shape], ...], "step": ...}

and a body of each entry's values in that order, f32 little-endian, C order.

``config`` carries every ``ModelConfig`` field (all integers); with the
decoder kind it rebuilds the model before the weights are read, and the
rebuilt model's (name, shape) list must equal ``entries``. The output layout
and the scene radius are constants of the code, not stored. Entries are the
trainable parameters only: the model holds no other state, and optimizer
state is deliberately not persisted. Values are stored as f32, which makes
save -> load -> save byte-stable, and must be finite.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .binfile import check_body, read_header, write_header
from .model import DECODERS, LightFieldModel, ModelConfig, ModelConfigError

MAGIC = b"RPCK"
# 2: one fused Q, K and V projection per attention block
# 3: no out_channels or scene_radius in the config meta: both are code constants
# 4: parameters only: the conv blocks' norm keeps no running statistics
# 5: conv weights tap-major [c_out, 3, 3, c_in]; no conv-block or key biases
# 6: names and shapes in the meta's "entries"; the body is only the values
# 7: the encoder's first conv weight reads its input channels in the order
#    image, direction, origin (6 read image, origin, direction; same shape)
VERSION = 7


def _entries(model):
    return [[name, list(param.shape)] for name, param in model.named_parameters()]


def save_checkpoint(path, model, step=0):
    if type(step) is not int or step < 0:  # what load_checkpoint accepts
        raise ValueError(f"{path}: step is not an integer of at least 0: {step!r}")
    meta = {
        "config": dataclasses.asdict(model.cfg),
        "decoder": model.decoder_kind,
        "entries": _entries(model),
        "step": step,
    }
    with open(path, "wb") as fh:
        write_header(fh, MAGIC, VERSION, meta)
        for _, param in model.named_parameters():
            fh.write(np.asarray(param.data, dtype="<f4").tobytes())


def _check_meta(meta, path):
    """Reject meta that would not rebuild a model, naming the offending key."""
    config = meta.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"{path}: meta has no 'config' object")
    fields = [f.name for f in dataclasses.fields(ModelConfig)]
    odd = sorted(set(config) ^ set(fields))
    if odd:
        raise ValueError(f"{path}: config key {odd[0]!r} is "
                         f"{'unknown' if odd[0] in config else 'missing'}")
    for key in fields:  # every field is an int
        if type(config[key]) is not int:
            raise ValueError(f"{path}: config {key!r} has a bad value {config[key]!r}")
    if meta.get("decoder") not in list(DECODERS):  # a list: no hashing of bad values
        raise ValueError(f"{path}: unknown decoder {meta.get('decoder')!r}")
    if type(meta.get("step")) is not int or meta["step"] < 0:
        raise ValueError(f"{path}: 'step' is not an integer of at least 0: "
                         f"{meta.get('step')!r}")
    entries = meta.get("entries")
    if not isinstance(entries, list) or not all(map(_is_entry, entries)):
        raise ValueError(f"{path}: meta 'entries' is not a list of [name, shape] pairs")


def _is_entry(entry):  # enough to size the body; the rebuilt model checks the rest
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)
            and all(type(dim) is int and dim >= 0 for dim in entry[1]))


def load_checkpoint(path):
    """Rebuild the model a checkpoint describes: (model, meta dict). ``entries``
    sizes the body before the model is built; each entry is then read into
    its parameter, with no copy of the whole body."""
    with open(path, "rb") as fh:
        meta = read_header(fh, path, MAGIC, VERSION)
        _check_meta(meta, path)
        check_body(fh, path, sum(4 * math.prod(shape) for _, shape in meta["entries"]))
        try:
            cfg = ModelConfig(**meta["config"])
            model = LightFieldModel(cfg, meta["decoder"])
        except ModelConfigError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        except MemoryError as exc:
            field = cfg.largest_field()
            raise ValueError(f"{path}: the model does not fit in memory; config "
                             f"{field.name!r} = {getattr(cfg, field.name)} is the furthest "
                             f"above its default {field.default} ({exc})") from exc
        pairs = itertools.zip_longest(meta["entries"], _entries(model))
        for i, (got, want) in enumerate(pairs):  # name the first difference
            if got != want:
                raise ValueError(f"{path}: entry {i} is {got}, but the rebuilt model's is {want}")
        for name, param in model.named_parameters():
            values = np.fromfile(fh, dtype="<f4", count=param.data.size)
            if not np.isfinite(values).all():
                raise ValueError(f"{path}: entry {name!r} holds a non-finite value")
            param.data[...] = values.reshape(param.shape)
    return model, meta


def roundtrip_stable(path, scratch_path):
    """save(load(path)) must reproduce the file bit for bit."""
    model, meta = load_checkpoint(path)
    save_checkpoint(scratch_path, model, step=meta["step"])
    with open(path, "rb") as a, open(scratch_path, "rb") as b:
        return a.read() == b.read()
