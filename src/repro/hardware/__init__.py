"""Analytical hardware models: devices, compute units, roofline and power.

This subpackage replaces the paper's physical testbeds (Table VI) with
calibrated analytical models.  Each :class:`~repro.hardware.specs.DeviceSpec`
carries peak throughput per (compute unit, precision), achievable-fraction
efficiencies, memory bandwidths, and a package power model; the registry
ships every device the paper measures or surveys (Table I, Fig. 2,
Systems 1 & 2).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ComputeUnitSpec": "repro.hardware.specs",
    "DeviceSpec": "repro.hardware.specs",
    "MemorySpec": "repro.hardware.specs",
    "UnitKind": "repro.hardware.specs",
    "all_devices": "repro.hardware.registry",
    "get_device": "repro.hardware.registry",
    "list_device_names": "repro.hardware.registry",
    "table_i_devices": "repro.hardware.registry",
    "achievable_flops": "repro.hardware.roofline",
    "arithmetic_intensity": "repro.hardware.roofline",
    "roofline_time": "repro.hardware.roofline",
    "kernel_power": "repro.hardware.energy",
    "compute_density": "repro.hardware.density",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
