"""Seeded year-of-K-computer job population.

Shaped by the published statistics: 487,563 jobs, 543 million node-
hours, the K-computer domain mix (45 % material science, 23 % chemistry,
13 % geoscience, 12 % biology, 6.5 % physics, 0.5 % other — the Fig. 4a
breakdown), symbol data covering 96 % of node-hours, and per-domain
BLAS-linkage probabilities CALIBRATED so GEMM-linked node-hours land at
the measured 53.4 %.

Scaling ``jobs`` down produces a statistically identical smaller
population for fast tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.draws import Draws
from repro.harness.cache import memoize_substrate
from repro.joblog.records import JobRecord, SymbolTable

__all__ = [
    "KComputerYear", "generate_k_year", "sequential_sum", "K_DOMAIN_MIX",
]

#: Node-hour share per science domain (K computer annual report).
K_DOMAIN_MIX: dict[str, float] = {
    "Material Science": 0.45,
    "Chemistry": 0.23,
    "Geoscience": 0.13,
    "Biology": 0.12,
    "Physics": 0.065,
    "Other": 0.005,
}

#: Node-hour share per domain spent in GEMM-linked binaries —
#: CALIBRATED: the domain-weighted mean must hit the measured 53.4 %.
#: Chemistry and material-science codes (quantum chemistry, DFT) link
#: math kernels almost always; bio/geo pipelines rarely do.
_GEMM_LINK_P: dict[str, float] = {
    "Material Science": 0.565,
    "Chemistry": 0.78,
    "Geoscience": 0.22,
    "Biology": 0.28,
    "Physics": 0.55,
    "Other": 0.40,
}

_COVERAGE = 0.96  # symbol data available for 96 % of node-hours

_BASE_SYMBOLS = (
    "main", "mpi_init_", "mpi_finalize_", "solver_step_", "read_input_",
    "write_restart_", "timestep_", "exchange_halo_",
)
_GEMM_SYMBOLS = ("dgemm_", "sgemm_", "fjblas_gemm_kernel", "zgemm_")


def sequential_sum(x: np.ndarray) -> float:
    """Left-to-right float sum of ``x`` (0.0 when empty).

    This is the running total a per-record loop computes: ``np.sum``
    adds pairwise and builtin ``sum`` compensates from Python 3.12, so
    either would move the last bits of the Sec. III-A figures.
    """
    return float(np.add.accumulate(x)[-1]) if x.size else 0.0


@dataclass(frozen=True, eq=False)
class KComputerYear:
    """The generated population, one column per record field, plus its
    nominal totals.

    Job ``i`` runs in ``domains[domain_idx[i]]`` for ``node_hours[i]``
    as application number ``app_id[i]``, with symbol table
    ``tables[table_id[i]]``, or no symbol data where ``table_id[i]`` is
    -1.  The population draws at most 11 distinct tables.
    """

    domains: tuple[str, ...]
    domain_idx: np.ndarray
    node_hours: np.ndarray
    app_id: np.ndarray
    table_id: np.ndarray
    tables: tuple[SymbolTable, ...]
    nominal_jobs: int
    nominal_node_hours: float

    @property
    def total_node_hours(self) -> float:
        return sequential_sum(self.node_hours)

    @cached_property
    def jobs(self) -> tuple[JobRecord, ...]:
        """The population as records, built on first access and left
        out of the pickled state."""
        slugs = [d.lower().replace(" ", "_") for d in self.domains]
        return tuple(
            JobRecord(
                job_id=i,
                app_name=f"{slugs[d]}_app{app:03d}",
                domain=self.domains[d],
                node_hours=hours,
                symbols=None if t < 0 else self.tables[t],
            )
            for i, (d, hours, app, t) in enumerate(zip(
                self.domain_idx.tolist(), self.node_hours.tolist(),
                self.app_id.tolist(), self.table_id.tolist(),
            ))
        )

    def __getstate__(self) -> dict:
        # Ship the columns only: a worker process pickles the year back
        # to the pipeline, and the records are 20k objects.
        state = dict(self.__dict__)
        state.pop("jobs", None)
        return state


@memoize_substrate("k_year")
def generate_k_year(
    *,
    jobs: int = 20_000,
    nominal_jobs: int = 487_563,
    nominal_node_hours: float = 543_000_000.0,
    seed: int = 20180401,
) -> KComputerYear:
    """Generate a (scaled) year of job records, stored as columns.

    ``jobs`` controls the sample size actually materialised; node-hours
    are scaled so the population totals ``nominal_node_hours``.

    Memoized as the ``k_year`` substrate: the returned population is
    frozen, so every artefact (and test) asking for the same parameters
    shares one instance.
    """
    rng = np.random.default_rng(seed)
    domains = list(K_DOMAIN_MIX)
    shares = np.array([K_DOMAIN_MIX[d] for d in domains])

    # Node-hours are heavy-tailed: lognormal sizes, then normalised per
    # domain so the domain mix holds exactly in expectation.
    domain_idx = rng.choice(len(domains), size=jobs, p=shares / shares.sum())
    raw = rng.lognormal(mean=0.0, sigma=1.6, size=jobs)
    node_hours = np.empty(jobs)
    for i, d in enumerate(domains):
        mask = domain_idx == i
        if not mask.any():
            continue
        target = nominal_node_hours * K_DOMAIN_MIX[d]
        node_hours[mask] = raw[mask] * (target / raw[mask].sum())

    covered = rng.random(jobs) < _COVERAGE
    # Mark jobs as GEMM-linked so that each domain's *node-hour* share of
    # linked work hits its calibrated target regardless of sample size —
    # a random permutation decides which jobs carry the linkage, so the
    # population stays varied while the aggregate is stable.
    linked = np.zeros(jobs, dtype=bool)
    for i, d in enumerate(domains):
        mask_idx = np.flatnonzero(domain_idx == i)
        if mask_idx.size == 0:
            continue
        order = rng.permutation(mask_idx)
        target = _GEMM_LINK_P[d] * node_hours[mask_idx].sum()
        cum = np.cumsum(node_hours[order])
        linked[order[cum <= target]] = True

    # One draw sequence per job, in job order: a covered, linked job
    # draws its GEMM symbol count and then the symbols; every job draws
    # its application number.  The reader takes the stream over from
    # here; ``rng`` draws nothing more.
    draws = Draws(rng)
    integers, choice = draws.integers, draws.choice
    table_of: dict[frozenset[int], int] = {}
    table_id: list[int] = []
    app_id: list[int] = []
    for is_covered, is_linked in zip(covered.tolist(), linked.tolist()):
        if is_covered:
            gemm = frozenset(
                choice(len(_GEMM_SYMBOLS), integers(1, 3))
            ) if is_linked else frozenset()
            table_id.append(table_of.setdefault(gemm, len(table_of)))
        else:
            table_id.append(-1)
        app_id.append(integers(0, 400))
    tables = tuple(
        SymbolTable(frozenset(_BASE_SYMBOLS).union(
            _GEMM_SYMBOLS[k] for k in gemm
        ))
        for gemm in table_of
    )
    columns = {
        "domain_idx": domain_idx.astype(np.int8),
        "node_hours": node_hours,
        "app_id": np.array(app_id, dtype=np.int16),
        "table_id": np.array(table_id, dtype=np.int8),
    }
    for column in columns.values():
        column.setflags(write=False)
    return KComputerYear(
        domains=tuple(domains),
        tables=tables,
        nominal_jobs=nominal_jobs,
        nominal_node_hours=nominal_node_hours,
        **columns,
    )
