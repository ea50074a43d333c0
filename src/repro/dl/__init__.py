"""Deep-Learning substrate: the PyTorch + apex + nvprof stand-in.

Models are layer graphs (:mod:`repro.dl.layers`, :mod:`repro.dl.models`)
lowered to kernel launches (:mod:`repro.dl.lowering`) under a precision
policy (:mod:`repro.dl.amp` — the apex-like automatic mixed precision).
A training step executes on a simulated device
(:mod:`repro.dl.training`) and the nvprof-style profiler
(:mod:`repro.dl.nvprof`) aggregates the Table IV columns: FP32→mixed
speedup, %TC, %TC-comp and %Mem.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Op": "repro.dl.layers",
    "Dense": "repro.dl.layers",
    "Conv2D": "repro.dl.layers",
    "Conv3D": "repro.dl.layers",
    "Lstm": "repro.dl.layers",
    "Gru": "repro.dl.layers",
    "Attention": "repro.dl.layers",
    "Embedding": "repro.dl.layers",
    "BatchNorm": "repro.dl.layers",
    "LayerNorm": "repro.dl.layers",
    "Activation": "repro.dl.layers",
    "Pool": "repro.dl.layers",
    "Softmax": "repro.dl.layers",
    "build_model": "repro.dl.models",
    "model_names": "repro.dl.models",
    "MODEL_BUILDERS": "repro.dl.models",
    "PrecisionPolicy": "repro.dl.amp",
    "train_step": "repro.dl.training",
    "inference_step": "repro.dl.training",
    "TrainingResult": "repro.dl.training",
    "profile_mixed_precision": "repro.dl.nvprof",
    "MixedPrecisionReport": "repro.dl.nvprof",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
