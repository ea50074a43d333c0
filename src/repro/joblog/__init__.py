"""K-computer accounting substrate (Sec. III-A).

RIKEN's operations database stores, for every MPI job, the application
binary's symbol table (collected with ``nm``, shared libraries
excluded).  The paper greps one year of records — 487,563 jobs over
543 million node-hours (Apr '18 – Mar '19) — for GEMM symbols and
attributes 53.4 % of the covered node-hours to applications that *could*
have executed GEMM.  This package rebuilds the pipeline: a seeded job
population with domain-dependent linkage statistics, an nm-style symbol
model, and the attribution analysis.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "JobRecord": "repro.joblog.records",
    "SymbolTable": "repro.joblog.records",
    "looks_like_gemm_symbol": "repro.joblog.records",
    "KComputerYear": "repro.joblog.generator",
    "generate_k_year": "repro.joblog.generator",
    "GemmAttribution": "repro.joblog.analysis",
    "attribute_gemm_node_hours": "repro.joblog.analysis",
    "estimate_energy_savings": "repro.joblog.analysis",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
