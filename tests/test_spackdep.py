"""Tests for the Spack dependency substrate (Table III)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.spackdep import (
    BLAS_PROVIDERS,
    DependencyGraph,
    Package,
    dependency_distances,
    generate_spack_index,
)


@pytest.fixture(scope="module")
def index():
    return generate_spack_index()


@pytest.fixture(scope="module")
def raw_table(index):
    return dependency_distances(index)


@pytest.fixture(scope="module")
def merged_table(index):
    return dependency_distances(index.merged_subpackages())


class TestGraphBasics:
    def test_package_merge_name(self):
        p = Package("py-numpy", language="py")
        assert p.is_subpackage and p.base_name == "numpy"
        q = Package("openblas")
        assert not q.is_subpackage and q.base_name == "openblas"

    def test_unknown_dependency_rejected(self):
        with pytest.raises(GraphError):
            DependencyGraph({"a": Package("a", depends_on=("ghost",))})

    def test_self_dependency_rejected(self):
        with pytest.raises(GraphError):
            DependencyGraph({"a": Package("a", depends_on=("a",))})

    def test_blas_providers_are_the_papers_14(self, index):
        assert len(index.blas_providers) == 14
        assert set(index.blas_providers) == set(BLAS_PROVIDERS)
        assert "openblas" in index.blas_providers
        assert "intel-mkl" in index.blas_providers


class TestTableIIIRaw:
    """Against the paper's first data column."""

    def test_total_package_count(self, raw_table):
        assert raw_table.total_packages == 4371

    @pytest.mark.parametrize(
        "distance,count,percent",
        [(0, 14, 0.32), (1, 239, 5.47), (2, 762, 17.43), (3, 968, 22.15)],
    )
    def test_distance_rows(self, raw_table, distance, count, percent):
        assert raw_table.count_at(distance) == count
        assert raw_table.percent_at(distance) == pytest.approx(percent, abs=0.01)

    def test_reachable_row(self, raw_table):
        assert raw_table.reachable == 3061
        assert raw_table.reachable_percent == pytest.approx(70.03, abs=0.01)

    def test_half_the_ecosystem_could_benefit(self, raw_table, merged_table):
        # Sec. III-B's takeaway: "51% (or 70% without sub-package
        # adjustment) of Spack's packages depend ... on BLAS libraries".
        assert 65 <= raw_table.reachable_percent <= 75
        assert 45 <= merged_table.reachable_percent <= 58


class TestTableIIIMerged:
    def test_merging_shrinks_index_substantially(self, index, merged_table):
        assert merged_table.total_packages < 0.62 * len(index)

    def test_providers_survive_merging(self, index):
        merged = index.merged_subpackages()
        assert len(merged.blas_providers) == 14

    def test_merged_reachable_share_near_paper(self, merged_table):
        assert merged_table.reachable_percent == pytest.approx(51.45, abs=4.0)


class TestGenerator:
    def test_deterministic(self):
        a = generate_spack_index(seed=7)
        b = generate_spack_index(seed=7)
        assert set(a.packages) == set(b.packages)
        assert dependency_distances(a).counts == dependency_distances(b).counts

    def test_seed_changes_structure_not_marginals(self):
        t = dependency_distances(generate_spack_index(seed=99))
        assert t.count_at(1) == 239  # shells are fixed by construction

    def test_too_small_total_rejected(self):
        with pytest.raises(GraphError):
            generate_spack_index(total=100)

    def test_default_graph_is_pinned(self, index):
        # SHA-256 of the default index; a generator change that moves any
        # package, edge, language or provider flag changes it.
        h = hashlib.sha256()
        for name in sorted(index.packages):
            p = index.packages[name]
            h.update(
                f"{p.name}|{','.join(p.depends_on)}|{p.language}"
                f"|{p.provides_blas}\n".encode()
            )
        assert h.hexdigest() == (
            "44cd043e54d68eaae9e13ae95dcd66fde8b8614ce82fc9272cae836e396382fa"
        )


class TestDistanceProperties:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_distances_form_contiguous_shells(self, seed):
        g = generate_spack_index(seed=seed)
        t = dependency_distances(g)
        # Every package's distance is >= 0 and the histogram covers the
        # whole reachable set exactly once.
        assert sum(t.counts.values()) == t.reachable + t.count_at(0)
        assert t.max_distance >= 3

    def test_distance_zero_is_exactly_providers(self, index, raw_table):
        assert raw_table.count_at(0) == len(index.blas_providers)
