"""Experiment harness: regenerate every table and figure of the paper.

``repro-paper`` (the console entry point, :mod:`repro.harness.runner`)
prints each artefact in the paper's own layout; the individual
generators return structured rows so the benchmark suite and
EXPERIMENTS.md can assert on them.  :mod:`repro.harness.pipeline` runs
the artefacts as a substrate-aware DAG — shared inputs are computed
once into :mod:`repro.harness.cache` (prefetched in forked processes
when ``jobs > 1``), then the artefacts run in order.

Like every façade here, exports resolve lazily (PEP 562), so low-level
packages (``repro.joblog``, ``repro.ozaki``, ...) can import the leaf
``repro.harness.cache`` module without dragging in the generators —
which import *them* — and cycling.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "table_i": "repro.harness.tables",
    "table_ii": "repro.harness.tables",
    "table_iii": "repro.harness.tables",
    "table_iv": "repro.harness.tables",
    "table_v": "repro.harness.tables",
    "table_vi_vii": "repro.harness.tables",
    "table_viii": "repro.harness.tables",
    "fig1": "repro.harness.figures",
    "fig2": "repro.harness.figures",
    "fig3": "repro.harness.figures",
    "fig4": "repro.harness.figures",
    "section_iii_a": "repro.harness.runner",
    "run_all": "repro.harness.runner",
    "run_pipeline": "repro.harness.pipeline",
    "PipelineResult": "repro.harness.pipeline",
    "SUBSTRATE_CACHE": "repro.harness.cache",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
