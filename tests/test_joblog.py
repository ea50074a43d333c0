"""Tests for the K-computer accounting substrate (Sec. III-A)."""

import hashlib
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.joblog import (
    GemmAttribution,
    JobRecord,
    SymbolTable,
    attribute_gemm_node_hours,
    generate_k_year,
    looks_like_gemm_symbol,
)
from repro.joblog.generator import K_DOMAIN_MIX


class TestSymbolMatching:
    @pytest.mark.parametrize(
        "symbol", ["dgemm_", "sgemm_", "zgemm_", "cblas_dgemm",
                   "fjblas_gemm_kernel", "my_matmul"]
    )
    def test_gemm_symbols_match(self, symbol):
        assert looks_like_gemm_symbol(symbol)

    @pytest.mark.parametrize(
        "symbol", ["main", "mpi_init_", "dgemv_", "daxpy_", "solver_step_",
                   "gemmology_read"]
    )
    def test_non_gemm_symbols_do_not(self, symbol):
        assert not looks_like_gemm_symbol(symbol)

    def test_symbol_table(self):
        t = SymbolTable(frozenset({"main", "dgemm_"}))
        assert t.has_gemm()
        assert len(t) == 2
        assert not SymbolTable(frozenset({"main"})).has_gemm()


class TestJobRecord:
    def test_gemm_linked_requires_symbols(self):
        job = JobRecord(1, "app", "Physics", 100.0, None)
        assert not job.has_symbol_data
        assert not job.gemm_linked

    def test_gemm_linked(self):
        job = JobRecord(
            1, "app", "Physics", 100.0,
            SymbolTable(frozenset({"dgemm_"})),
        )
        assert job.gemm_linked


@pytest.fixture(scope="module")
def year():
    return generate_k_year()


@pytest.fixture(scope="module")
def attribution(year):
    return attribute_gemm_node_hours(year)


class TestKYearStatistics:
    def test_nominal_totals(self, year):
        assert year.nominal_jobs == 487_563
        assert year.total_node_hours == pytest.approx(543e6, rel=1e-6)

    def test_domain_mix_sums_to_one(self):
        assert sum(K_DOMAIN_MIX.values()) == pytest.approx(1.0)

    def test_coverage_near_96_percent(self, attribution):
        assert attribution.coverage == pytest.approx(0.96, abs=0.015)

    def test_gemm_share_near_53_4_percent(self, attribution):
        # The paper's 53.4 % / 277,258,182 node-hours result.
        assert attribution.gemm_fraction == pytest.approx(0.534, abs=0.02)
        assert attribution.gemm_node_hours == pytest.approx(277e6, rel=0.05)

    def test_best_case_halving_claim(self, attribution):
        assert attribution.best_case_halving

    def test_deterministic(self):
        a = attribute_gemm_node_hours(generate_k_year(seed=5))
        b = attribute_gemm_node_hours(generate_k_year(seed=5))
        assert a == b

    def test_scaling_preserves_statistics(self):
        small = attribute_gemm_node_hours(generate_k_year(jobs=4000))
        assert small.gemm_fraction == pytest.approx(0.534, abs=0.04)
        assert small.total_node_hours == pytest.approx(543e6, rel=1e-6)

    def test_empty_population(self):
        a = attribute_gemm_node_hours(generate_k_year(jobs=0))
        assert a.total_jobs == 0
        assert a.gemm_fraction == 0.0
        assert a.coverage == 0.0


def _reference_attribution(jobs):
    """The per-record attribution loop the columnar one must match."""
    total = covered = gemm = 0.0
    n_jobs = n_gemm = 0
    for job in jobs:
        n_jobs += 1
        total += job.node_hours
        if job.has_symbol_data:
            covered += job.node_hours
            if job.gemm_linked:
                gemm += job.node_hours
                n_gemm += 1
    return GemmAttribution(
        total_node_hours=total,
        covered_node_hours=covered,
        gemm_node_hours=gemm,
        total_jobs=n_jobs,
        gemm_jobs=n_gemm,
    )


class TestColumnarYear:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        jobs=st.one_of(st.integers(0, 12), st.integers(13, 3000)),
    )
    @example(seed=0, jobs=0)
    @example(seed=0, jobs=1)
    def test_attribution_matches_per_record_loop(self, seed, jobs):
        year = generate_k_year.uncached(jobs=jobs, seed=seed)
        # Exact equality on every field, floats included.
        assert attribute_gemm_node_hours(year) == \
            _reference_attribution(year.jobs)

    def test_default_year_matches_per_record_loop(self, year, attribution):
        assert attribution == _reference_attribution(year.jobs)

    def test_record_stream_is_pinned(self, year):
        # SHA-256 of the default population's records; a generator change
        # that moves any record, name or float bit changes it.
        h = hashlib.sha256()
        for j in year.jobs:
            syms = "" if j.symbols is None else ",".join(sorted(j.symbols.symbols))
            h.update(
                f"{j.job_id}|{j.app_name}|{j.domain}|{j.node_hours.hex()}"
                f"|{syms}\n".encode()
            )
        assert h.hexdigest() == (
            "c186b575348b171f74a703ed66b23f4f56eb240a099146f1ca27d951b5ec41b2"
        )

    def test_at_most_eleven_distinct_tables(self, year):
        assert len(year.tables) <= 11
        assert len(set(year.tables)) == len(year.tables)

    def test_pickle_ships_columns_only(self):
        year = generate_k_year.uncached()
        assert len(year.jobs) == 20_000  # materialise the records first
        blob = pickle.dumps(year)
        assert len(blob) < 600_000
        shipped = pickle.loads(blob)
        assert "jobs" not in shipped.__dict__
        assert attribute_gemm_node_hours(shipped) == \
            attribute_gemm_node_hours(year)

    def test_total_node_hours_builds_no_records(self):
        year = generate_k_year.uncached(jobs=500)
        assert year.total_node_hours == pytest.approx(543e6, rel=1e-6)
        assert "jobs" not in year.__dict__
