"""Softermax reproduction library.

This package reproduces *Softermax: Hardware/Software Co-Design of an
Efficient Softmax for Transformers* (DAC 2021).  It provides:

* ``repro.core`` -- the Softermax algorithm family (base-2 softmax, online
  normalization, fixed-point linear-piecewise power-of-two and reciprocal
  units) together with reference softmax implementations.
* ``repro.kernels`` -- the softmax kernel engine: a fused whole-tensor
  Softermax and an optional compiled one, both bitwise-identical to the
  slice-loop pipeline, behind a named registry whose ``"auto"`` alias is
  used across the stack.
* ``repro.fixedpoint`` -- a Q-format fixed-point arithmetic substrate.
* ``repro.quant`` -- 8-bit integer quantization and quantization-aware
  training utilities (percentile calibration, straight-through estimator).
* ``repro.nn`` -- a NumPy reverse-mode autograd substrate with Transformer
  layers and a pluggable attention softmax.
* ``repro.infer`` -- the graph-free inference engine: compiled op-list
  plans with workspace-arena buffer reuse, bitwise identical to the
  autograd forward (the serving fast path).
* ``repro.serving`` -- the dynamic-batching inference service (micro
  batcher, LRU response cache, latency stats, loadtest harness).
* ``repro.models`` -- BERT-style encoder models, task heads and the
  Softermax-aware fine-tuning loop.
* ``repro.data`` -- synthetic surrogate tasks standing in for SQuAD/GLUE.
* ``repro.hardware`` -- analytic area/energy/runtime cost models for the
  Softermax hardware units, a DesignWare-style FP16 baseline and a
  MAGNet-style processing element.
* ``repro.eval`` -- metrics, accuracy pipelines and sweep drivers.
* ``repro.reporting`` -- paper-style tables and figure series.

Quickstart::

    import numpy as np
    from repro.core import softermax, SoftermaxConfig

    scores = np.random.randn(4, 128).astype(np.float64)
    probs = softermax(scores, axis=-1)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-2)
"""

from repro.core import (
    SoftermaxConfig,
    softermax,
    softmax_reference,
    base2_softmax,
    online_softmax,
)
from repro.kernels import fused_softermax, resolve_kernel, available_kernels

__version__ = "1.1.0"

__all__ = [
    "SoftermaxConfig",
    "softermax",
    "softmax_reference",
    "base2_softmax",
    "online_softmax",
    "fused_softermax",
    "resolve_kernel",
    "available_kernels",
    "__version__",
]
