"""The device catalogue.

Every machine the paper measures (Systems 1 & 2, the Fig. 2 GPU range) or
surveys (Table I) is modelled here.  Peak rates come from vendor spec
sheets as cited in the paper; *efficiencies and power constants are
calibrated so the model reproduces the paper's own measurements*:

* Xeon E5-2650v4 GEMM walltimes/energy — Table II,
* V100 cuBLAS rates and wattages — Table VIII and Fig. 1,
* V100 TC vs FPU behaviour — Sec. II-C.

Devices the paper lists without published performance (Sapphire Rapids
AMX, Gaudi) carry clearly-marked estimates; the Table I renderer uses the
separate :data:`TABLE_I_PUBLISHED` record so unknown cells print as "—"
exactly as in the paper.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import DeviceError
from repro.harness.cache import memoize_substrate
from repro.hardware.specs import (
    ComputeUnitSpec,
    DeviceSpec,
    MemorySpec,
    UnitKind,
)
from repro.scenario.context import active_scenario
from repro.scenario.resolve import resolve_devices
from repro.units import GIB, GIGA, TERA

__all__ = [
    "get_device",
    "all_devices",
    "list_device_names",
    "builtin_device",
    "table_i_devices",
    "table_i_survey",
    "TableIEntry",
    "TABLE_I_PUBLISHED",
]


def _cpu_unit(
    name: str,
    kind: UnitKind,
    fp64: float,
    fp32: float,
    eff: float,
    p64: float,
    p32: float,
) -> ComputeUnitSpec:
    return ComputeUnitSpec(
        name=name,
        kind=kind,
        peak_flops={"fp64": fp64, "fp32": fp32},
        gemm_efficiency=eff,
        active_power_w={"fp64": p64, "fp32": p32},
    )


# --------------------------------------------------------------------------
# System 1 (Table VI): dual-socket Intel Xeon E5-2650v4, 24 cores, Broadwell.
# 2.2 GHz base; SSE2 path is what "OpenBLAS compiled without AVX" uses in
# Table II; AVX2 adds FMA.  Efficiencies/powers calibrated to Table II.
# --------------------------------------------------------------------------
_SYSTEM1 = DeviceSpec(
    name="xeon-e5-2650v4-2s",
    vendor="Intel",
    category="cpu",
    process_nm=14,
    die_mm2=2 * 306.0,
    me_size=None,
    tdp_w=230.0,
    idle_w=55.0,
    memory=MemorySpec(
        capacity_bytes=256 * GIB,
        bandwidth_bps=2 * 76.8 * GIGA,  # 4ch DDR4-2400 per socket
        host_link_bps=16.0 * GIGA,
        active_power_w=25.0,
    ),
    units=(
        _cpu_unit("scalar", UnitKind.SCALAR, 105.6 * GIGA, 211.2 * GIGA, 0.80, 165.0, 160.0),
        _cpu_unit("sse", UnitKind.VECTOR, 422.4 * GIGA, 844.8 * GIGA, 0.52, 178.0, 169.0),
        _cpu_unit("avx2", UnitKind.VECTOR, 844.8 * GIGA, 1689.6 * GIGA, 0.705, 206.0, 199.0),
    ),
    year=2016,
    notes="Paper System 1: Supermicro X10DRG-Q, 256 GiB DDR4-2400 (Table VI).",
)

# --------------------------------------------------------------------------
# System 2 (Table VI): Intel Xeon Gold 6148, 20 cores Skylake-SP, AVX-512
# with two FMA pipes per core.  ABCI compute node's CPU.
# --------------------------------------------------------------------------
_SYSTEM2 = DeviceSpec(
    name="xeon-gold-6148",
    vendor="Intel",
    category="cpu",
    process_nm=14,
    die_mm2=485.0,
    me_size=None,
    tdp_w=150.0,
    idle_w=40.0,
    memory=MemorySpec(
        capacity_bytes=32 * GIB,
        bandwidth_bps=128.0 * GIGA,
        host_link_bps=16.0 * GIGA,
        active_power_w=20.0,
    ),
    units=(
        _cpu_unit("scalar", UnitKind.SCALAR, 96.0 * GIGA, 192.0 * GIGA, 0.80, 110.0, 105.0),
        _cpu_unit("avx512", UnitKind.VECTOR, 1536.0 * GIGA, 3072.0 * GIGA, 0.68, 148.0, 143.0),
    ),
    year=2017,
    notes="Paper System 2: Fujitsu Primergy RX2540-M4 / ABCI node CPU.",
)


def _gpu(
    name: str,
    *,
    vendor: str = "NVIDIA",
    process_nm: float,
    die_mm2: float | None,
    tdp: float,
    idle: float,
    mem_gb: float,
    bw_gbps: float,
    cuda_fp64: float,
    cuda_fp32: float,
    cuda_fp16: float | None,
    cuda_eff: float,
    p_fp64: float,
    p_fp32: float,
    tc: ComputeUnitSpec | None = None,
    me_size: str | None = None,
    year: int | None = None,
    notes: str = "",
    host_link_bps: float = 12.0 * GIGA,
    mem_power: float = 50.0,
) -> DeviceSpec:
    peaks: dict[str, float] = {"fp64": cuda_fp64, "fp32": cuda_fp32}
    powers: dict[str, float] = {"fp64": p_fp64, "fp32": p_fp32}
    if cuda_fp16 is not None:
        peaks["fp16"] = cuda_fp16
        powers["fp16"] = p_fp32
    units: list[ComputeUnitSpec] = [
        ComputeUnitSpec(
            name="cuda",
            kind=UnitKind.VECTOR,
            peak_flops=peaks,
            gemm_efficiency=cuda_eff,
            active_power_w=powers,
        )
    ]
    if tc is not None:
        units.append(tc)
    return DeviceSpec(
        name=name,
        vendor=vendor,
        category="gpu",
        process_nm=process_nm,
        die_mm2=die_mm2,
        me_size=me_size,
        tdp_w=tdp,
        idle_w=idle,
        memory=MemorySpec(
            capacity_bytes=mem_gb * GIB,
            bandwidth_bps=bw_gbps * GIGA,
            host_link_bps=host_link_bps,
            active_power_w=mem_power,
        ),
        units=tuple(units),
        launch_latency_s=5e-6,
        year=year,
        notes=notes,
    )


# V100-SXM2: Table VIII calibration — cublasDgemm 7.20 Tflop/s @286.5 W,
# cublasSgemm 14.54 @276.1, cublasGemmEx (TC) 92.28 @270.9.
_V100 = _gpu(
    "v100",
    process_nm=12,
    die_mm2=815.0,
    tdp=300.0,
    idle=40.0,
    mem_gb=16,
    bw_gbps=900.0,
    cuda_fp64=7.8 * TERA,
    cuda_fp32=15.7 * TERA,
    cuda_fp16=31.4 * TERA,
    cuda_eff=0.924,
    p_fp64=287.0,
    p_fp32=276.5,
    tc=ComputeUnitSpec(
        name="tensorcore",
        kind=UnitKind.MATRIX,
        peak_flops={"fp16": 125.0 * TERA},
        gemm_efficiency=0.738,
        active_power_w={"fp16": 271.0},
        multiply_format="fp16",
        accumulate_format="fp32",
        tile=(4, 4, 4),
    ),
    me_size="4x4x4",
    year=2017,
    notes="Tesla V100-SXM2 16GB (ABCI). TC accumulates fp32 (hybrid).",
)

_A100 = _gpu(
    "a100",
    process_nm=7,
    die_mm2=826.0,
    tdp=400.0,
    idle=50.0,
    mem_gb=40,
    bw_gbps=1555.0,
    cuda_fp64=9.7 * TERA,
    cuda_fp32=19.5 * TERA,
    cuda_fp16=39.0 * TERA,
    cuda_eff=0.92,
    p_fp64=385.0,
    p_fp32=370.0,
    tc=ComputeUnitSpec(
        name="tensorcore",
        kind=UnitKind.MATRIX,
        peak_flops={
            "fp16": 312.0 * TERA,
            "bf16": 312.0 * TERA,
            "tf32": 156.0 * TERA,
            "fp64": 19.5 * TERA,
        },
        gemm_efficiency=0.80,
        active_power_w={"fp16": 360.0, "fp64": 390.0},
        multiply_format="fp16",
        accumulate_format="fp32",
        tile=(4, 4, 4),
    ),
    me_size="4x4x4",
    year=2020,
    notes="A100-SXM4-40GB. FP64 Tensor Cores; TF32 hybrid 19-bit format.",
)

_P100 = _gpu(
    "p100",
    process_nm=16,
    die_mm2=610.0,
    tdp=250.0,
    idle=30.0,
    mem_gb=16,
    bw_gbps=732.0,
    cuda_fp64=4.7 * TERA,
    cuda_fp32=9.3 * TERA,
    cuda_fp16=18.7 * TERA,
    cuda_eff=0.90,
    p_fp64=240.0,
    p_fp32=232.0,
    year=2016,
    notes="Tesla P100-PCIE. No matrix engine; fp16 at 2x fp32 on CUDA cores.",
)

_GTX1060 = _gpu(
    "gtx1060",
    process_nm=16,
    die_mm2=200.0,
    tdp=120.0,
    idle=10.0,
    mem_gb=6,
    bw_gbps=192.0,
    cuda_fp64=0.137 * TERA,
    cuda_fp32=4.375 * TERA,
    cuda_fp16=None,
    cuda_eff=0.85,
    p_fp64=110.0,
    p_fp32=115.0,
    year=2016,
    notes="Consumer Pascal; fp16 rate crippled (1/64), treated as absent.",
)

_GTX1080TI = _gpu(
    "gtx1080ti",
    process_nm=16,
    die_mm2=471.0,
    tdp=250.0,
    idle=15.0,
    mem_gb=11,
    bw_gbps=484.0,
    cuda_fp64=0.354 * TERA,
    cuda_fp32=11.34 * TERA,
    cuda_fp16=None,
    cuda_eff=0.85,
    p_fp64=230.0,
    p_fp32=238.0,
    year=2017,
    notes="Consumer Pascal flagship; no usable fp16 path.",
)

_RTX2070 = _gpu(
    "rtx2070",
    process_nm=12,
    die_mm2=445.0,
    tdp=175.0,
    idle=12.0,
    mem_gb=8,
    bw_gbps=448.0,
    cuda_fp64=0.233 * TERA,
    cuda_fp32=7.465 * TERA,
    cuda_fp16=14.93 * TERA,
    cuda_eff=0.85,
    p_fp64=160.0,
    p_fp32=168.0,
    tc=ComputeUnitSpec(
        name="tensorcore",
        kind=UnitKind.MATRIX,
        peak_flops={"fp16": 29.9 * TERA},
        gemm_efficiency=0.70,
        active_power_w={"fp16": 165.0},
        multiply_format="fp16",
        accumulate_format="fp32",
        tile=(4, 4, 4),
    ),
    me_size="4x4x4",
    year=2018,
    notes="Turing consumer; TC fp32-accumulate at half rate of fp16-accumulate.",
)

_RTX2080TI = _gpu(
    "rtx2080ti",
    process_nm=12,
    die_mm2=754.0,
    tdp=250.0,
    idle=15.0,
    mem_gb=11,
    bw_gbps=616.0,
    cuda_fp64=0.420 * TERA,
    cuda_fp32=13.45 * TERA,
    cuda_fp16=26.9 * TERA,
    cuda_eff=0.85,
    p_fp64=235.0,
    p_fp32=243.0,
    tc=ComputeUnitSpec(
        name="tensorcore",
        kind=UnitKind.MATRIX,
        peak_flops={"fp16": 53.8 * TERA},
        gemm_efficiency=0.70,
        active_power_w={"fp16": 240.0},
        multiply_format="fp16",
        accumulate_format="fp32",
        tile=(4, 4, 4),
    ),
    me_size="4x4x4",
    year=2018,
    notes="Turing flagship consumer card.",
)

# --------------------------------------------------------------------------
# Table I survey devices without our own measurements.  Peaks are the
# paper's published numbers; efficiencies are generic estimates and the
# harness only uses these specs for density/peak arithmetic.
# --------------------------------------------------------------------------
_POWER10 = DeviceSpec(
    name="power10",
    vendor="IBM",
    category="cpu",
    process_nm=7,
    die_mm2=602.0,
    me_size="4x4",
    tdp_w=250.0,
    idle_w=60.0,
    memory=MemorySpec(
        capacity_bytes=1024 * GIB,
        bandwidth_bps=410.0 * GIGA,
        active_power_w=40.0,
    ),
    units=(
        _cpu_unit("vsx", UnitKind.VECTOR, 2.05 * TERA, 4.1 * TERA, 0.80, 230.0, 225.0),
        ComputeUnitSpec(
            name="mma",
            kind=UnitKind.MATRIX,
            peak_flops={"fp16": 16.4 * TERA, "fp32": 8.2 * TERA, "fp64": 4.1 * TERA},
            gemm_efficiency=0.80,
            active_power_w={"fp16": 240.0, "fp32": 240.0, "fp64": 240.0},
            multiply_format="fp16",
            accumulate_format="fp32",
            tile=(4, 4, 1),
        ),
    ),
    year=2021,
    notes="Paper assumption: 16 SMT8 cores at 4 GHz. MMA accumulates wider "
    "except fp64 (homogeneous).",
)

_SPR = DeviceSpec(
    name="sapphire-rapids",
    vendor="Intel",
    category="cpu",
    process_nm=10,
    die_mm2=None,
    me_size="16x32",
    tdp_w=350.0,
    idle_w=80.0,
    memory=MemorySpec(
        capacity_bytes=512 * GIB,
        bandwidth_bps=307.0 * GIGA,
        active_power_w=45.0,
    ),
    units=(
        _cpu_unit("avx512", UnitKind.VECTOR, 3.2 * TERA, 6.4 * TERA, 0.70, 330.0, 320.0),
        ComputeUnitSpec(
            name="amx",
            kind=UnitKind.MATRIX,
            peak_flops={"bf16": 100.0 * TERA},  # ESTIMATE — not published
            gemm_efficiency=0.70,
            active_power_w={"bf16": 340.0},
            multiply_format="bf16",
            accumulate_format="fp32",
            tile=(16, 16, 32),
        ),
    ),
    year=2022,
    notes="AMX perf not published at paper time (Table I footnote 1); "
    "bf16 peak here is an estimate used only for what-if studies.",
)


def _ai_accel(
    name: str,
    vendor: str,
    process_nm: float,
    die_mm2: float | None,
    me_size: str | None,
    fmt: str,
    peak: float,
    tdp: float,
    idle: float,
    bw_gbps: float,
    mem_gb: float,
    tile: tuple[int, int, int],
    year: int,
    notes: str,
) -> DeviceSpec:
    return DeviceSpec(
        name=name,
        vendor=vendor,
        category="ai",
        process_nm=process_nm,
        die_mm2=die_mm2,
        me_size=me_size,
        tdp_w=tdp,
        idle_w=idle,
        memory=MemorySpec(
            capacity_bytes=mem_gb * GIB,
            bandwidth_bps=bw_gbps * GIGA,
            active_power_w=45.0,
        ),
        units=(
            # Every shipping AI accelerator pairs its systolic array with
            # vector/SIMD units for the non-GEMM ops (DaVinci's vector
            # unit, the TPU's VPU) — at a small fraction of cube rate.
            ComputeUnitSpec(
                name="vector",
                kind=UnitKind.VECTOR,
                peak_flops={"fp32": peak / 16.0, "fp16": peak / 8.0},
                gemm_efficiency=0.80,
                active_power_w={"fp32": tdp * 0.75, "fp16": tdp * 0.75},
            ),
            ComputeUnitSpec(
                name="systolic",
                kind=UnitKind.MATRIX,
                peak_flops={fmt: peak},
                gemm_efficiency=0.70,
                active_power_w={fmt: tdp * 0.9},
                multiply_format=fmt,
                accumulate_format="fp32",
                tile=tile,
            ),
        ),
        launch_latency_s=5e-6,
        year=year,
        notes=notes,
    )


_TPUV2 = _ai_accel(
    "tpuv2", "Google", 20, None, "128x128", "bf16", 45.0 * TERA,
    280.0, 40.0, 700.0, 16, (128, 128, 128), 2017,
    "Per-chip numbers; systolic MXU, bf16 multiply / fp32 accumulate.",
)
_TPUV3 = _ai_accel(
    "tpuv3", "Google", 16, None, "128x128", "bf16", 90.0 * TERA,
    450.0, 50.0, 900.0, 32, (128, 128, 128), 2018,
    "Two MXUs per core; liquid cooled.",
)
_GAUDI = _ai_accel(
    "gaudi", "Habana Labs", 16, 500.0, "shared", "bf16", 100.0 * TERA,
    300.0, 40.0, 1000.0, 32, (256, 256, 256), 2019,
    "Performance undisclosed (Table I '—'); peak here is an ESTIMATE.",
)
_ASCEND910 = _ai_accel(
    "ascend910", "Huawei", 7, 1228.0, "16x16x16", "fp16", 256.0 * TERA,
    310.0, 45.0, 1200.0, 32, (16, 16, 16), 2019,
    "DaVinci cube core; die size includes Nimbus co-accelerator + 4 HBM2.",
)

# --------------------------------------------------------------------------
# Fujitsu A64FX — the Fugaku node the RIKEN Fiber miniapps procured.  No
# matrix engine: 512-bit SVE only.  Included for the "what would Fugaku
# gain from an ME?" what-if the paper's RIKEN context invites.
# 48 compute cores at 2.2 GHz, 2x512-bit FMA pipes: 48*2.2e9*32 = 3.38
# Tflop/s fp64; HBM2 at 1 TB/s; ~30 mm^2 of the 400 mm^2 die per CMG.
# --------------------------------------------------------------------------
_A64FX = DeviceSpec(
    name="a64fx",
    vendor="Fujitsu",
    category="cpu",
    process_nm=7,
    die_mm2=400.0,
    me_size=None,
    tdp_w=160.0,
    idle_w=30.0,
    memory=MemorySpec(
        capacity_bytes=32 * GIB,
        bandwidth_bps=1024.0 * GIGA,
        host_link_bps=25.0 * GIGA,  # Tofu-D injection per node
        active_power_w=30.0,
    ),
    units=(
        _cpu_unit("scalar", UnitKind.SCALAR, 211.2 * GIGA, 422.4 * GIGA, 0.80, 110.0, 105.0),
        ComputeUnitSpec(
            name="sve",
            kind=UnitKind.VECTOR,
            peak_flops={
                "fp64": 3.38 * TERA,
                "fp32": 6.76 * TERA,
                "fp16": 13.5 * TERA,
            },
            gemm_efficiency=0.80,
            active_power_w={"fp64": 150.0, "fp32": 145.0, "fp16": 140.0},
        ),
    ),
    year=2019,
    notes="Fugaku node CPU (SVE, no matrix engine); Tofu-D interconnect.",
)

_REGISTRY: dict[str, DeviceSpec] = {
    d.name: d
    for d in (
        _SYSTEM1,
        _SYSTEM2,
        _A64FX,
        _V100,
        _A100,
        _P100,
        _GTX1060,
        _GTX1080TI,
        _RTX2070,
        _RTX2080TI,
        _POWER10,
        _SPR,
        _TPUV2,
        _TPUV3,
        _GAUDI,
        _ASCEND910,
    )
}

_ALIASES = {
    "system1": "xeon-e5-2650v4-2s",
    "system2": "xeon-gold-6148",
    "fugaku-node": "a64fx",
    "tesla-v100": "v100",
    "tesla-a100": "a100",
    "tesla-p100": "p100",
}


# --------------------------------------------------------------------------
# Scenario overlay resolution: the active ScenarioSpec may add devices or
# override catalogue entries.  Resolved overlay maps are cached per
# scenario fingerprint (bounded), so lookups under one scenario cost a
# dict hit; with no active scenario the overlay map is empty and every
# path below is exactly the pre-overlay behaviour.
# --------------------------------------------------------------------------

_OVERLAY_CACHE_MAX = 32
_overlay_cache: OrderedDict[str, dict[str, DeviceSpec]] = OrderedDict()
_overlay_mutex = threading.Lock()


def builtin_device(name: str) -> DeviceSpec | None:
    """The built-in catalogue entry for ``name``/alias, or ``None``.

    Never consults the scenario overlay — this is the resolution floor
    the overlay system itself builds on.
    """
    key = name.lower()
    return _REGISTRY.get(_ALIASES.get(key, key))


def _overlay_devices() -> dict[str, DeviceSpec]:
    """The active scenario's resolved devices (``{}`` for baseline)."""
    spec = active_scenario()
    if not spec.devices:
        return {}
    token = spec.fingerprint
    with _overlay_mutex:
        if token in _overlay_cache:
            _overlay_cache.move_to_end(token)
            return _overlay_cache[token]
    resolved = resolve_devices(spec)
    with _overlay_mutex:
        _overlay_cache[token] = resolved
        _overlay_cache.move_to_end(token)
        while len(_overlay_cache) > _OVERLAY_CACHE_MAX:
            _overlay_cache.popitem(last=False)
    return resolved


def get_device(name: str) -> DeviceSpec:
    """Look up a device by name or alias (case-insensitive).

    The active scenario's overlay is consulted first: an overlay entry
    whose name matches (directly or through an alias) wins over the
    built-in catalogue.
    """
    overlay = _overlay_devices()
    if overlay:
        key = name.lower()
        key = _ALIASES.get(key, key)
        for candidate in (name, key):
            if candidate in overlay:
                return overlay[candidate]
    key = name.lower()
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = sorted(set(_REGISTRY) | set(overlay))
        raise DeviceError(
            f"unknown device {name!r}; known: {known}"
        ) from None


def all_devices() -> tuple[DeviceSpec, ...]:
    """Every resolvable device: the catalogue in registry order (with
    scenario overrides applied in place), then overlay-only additions
    in declaration order."""
    overlay = _overlay_devices()
    if not overlay:
        return tuple(_REGISTRY.values())
    merged = [overlay.get(name, spec) for name, spec in _REGISTRY.items()]
    merged.extend(spec for name, spec in overlay.items() if name not in _REGISTRY)
    return tuple(merged)


def list_device_names() -> list[str]:
    """Sorted resolvable device names (catalogue plus active overlay)."""
    return sorted(set(_REGISTRY) | set(_overlay_devices()))


# --------------------------------------------------------------------------
# Table I published record: exactly the values printed in the paper,
# with None where the paper shows "—".
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class TableIEntry:
    """One row of the paper's Table I, as published."""

    group: str  # "General" or "AI"
    system: str
    device: str  # registry key
    tech_nm: float
    die_mm2: float | None
    me_size: str
    tflops_f16: float | None
    tflops_f32: float | None
    tflops_f64: float | None
    support: str


TABLE_I_PUBLISHED: tuple[TableIEntry, ...] = (
    TableIEntry("General", "Intel Sapphire Rapids", "sapphire-rapids", 10, None, "16x32", None, None, None, "f16"),
    TableIEntry("General", "IBM Power10", "power10", 7, 602.0, "4x4", 16.4, 8.2, 4.1, "f16, f32, f64"),
    TableIEntry("General", "NVIDIA Tesla V100", "v100", 12, 815.0, "4x4x4", 125.0, 15.7, 7.8, "f16"),
    TableIEntry("General", "NVIDIA Tesla A100", "a100", 7, 826.0, "4x4x4", 312.0, 19.5, 19.5, "f16, f32, f64"),
    TableIEntry("AI", "Google TPUv2", "tpuv2", 20, None, "128x128", 45.0, None, None, "f16"),
    TableIEntry("AI", "Google TPUv3", "tpuv3", 16, None, "128x128", 90.0, None, None, "f16"),
    TableIEntry("AI", "Habana Labs Gaudi", "gaudi", 16, 500.0, "Shared", None, None, None, "f16, f32"),
    TableIEntry("AI", "Huawei Ascend 910", "ascend910", 7, 1228.0, "16x16x16", 256.0, None, None, "f16"),
)


def table_i_devices() -> tuple[DeviceSpec, ...]:
    """The eight surveyed architectures, in Table I order."""
    return tuple(get_device(e.device) for e in TABLE_I_PUBLISHED)


@memoize_substrate("hw_registry")
def table_i_survey() -> tuple[dict, ...]:
    """The Table I registry sweep: published entries plus derived
    compute densities, one dict per row.

    Memoized as the ``hw_registry`` substrate; callers should copy the
    row dicts before mutating them.
    """
    from repro.hardware.density import compute_density

    return tuple(
        {
            "group": e.group,
            "system": e.system,
            "tech_nm": e.tech_nm,
            "die_mm2": e.die_mm2,
            "me_size": e.me_size,
            "tflops_f16": e.tflops_f16,
            "density_f16": compute_density(e.tflops_f16, e.die_mm2),
            "tflops_f32": e.tflops_f32,
            "density_f32": compute_density(e.tflops_f32, e.die_mm2),
            "tflops_f64": e.tflops_f64,
            "density_f64": compute_density(e.tflops_f64, e.die_mm2),
            "support": e.support,
        }
        for e in TABLE_I_PUBLISHED
    )
