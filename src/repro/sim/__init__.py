"""Execution simulator: kernels, a simulated device clock, traces, power.

This is the stand-in for the paper's physical testbeds.  Workloads and
the BLAS substrate emit :class:`~repro.sim.kernels.KernelLaunch`
descriptors; a :class:`~repro.sim.engine.SimulatedDevice` turns each into
a timed, power-annotated :class:`~repro.sim.trace.KernelRecord` using the
roofline and energy models of :mod:`repro.hardware`.  The
:class:`~repro.sim.power.PowerSampler` replays a trace the way the paper
sampled NVML/PCM counters (Fig. 1, Table II).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "KernelKind": "repro.sim.kernels",
    "KernelLaunch": "repro.sim.kernels",
    "KernelRecord": "repro.sim.trace",
    "Trace": "repro.sim.trace",
    "SimulatedDevice": "repro.sim.engine",
    "PowerSampler": "repro.sim.power",
    "PowerSample": "repro.sim.power",
    "ExecutionContext": "repro.sim.context",
    "current_context": "repro.sim.context",
    "execution_context": "repro.sim.context",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
