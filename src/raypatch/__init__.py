"""Patch-ray decoding for light field transformers, on a numpy autodiff core.

The package splits into: ``tensor`` (reverse-mode autodiff over float64
arrays), ``geometry`` (cameras, rays, patch centers, query encodings),
``blocks`` (attention building blocks), ``model`` (encoder and the two
decoder variants), ``datasynth`` (procedural scenes and dataset files),
``costmodel`` (the per-layer FLOP vocabulary of ``layer_spec``), ``flops``
(instrumented counters), ``checkpoint`` (snapshots), ``cli`` (front end).
"""

from .model import LightFieldModel, ModelConfig

__version__ = "0.1.0"

__all__ = ["LightFieldModel", "ModelConfig", "__version__"]
