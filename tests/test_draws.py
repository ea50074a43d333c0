"""The bulk draw reader against live NumPy, and the two seeded
generators that read through it against their per-call NumPy loops."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.draws import Draws
from repro.joblog.generator import (
    _BASE_SYMBOLS,
    _COVERAGE,
    _GEMM_LINK_P,
    _GEMM_SYMBOLS,
    K_DOMAIN_MIX,
    generate_k_year,
)
from repro.joblog.records import SymbolTable
from repro.spackdep.generator import (
    _SHELL_SIZES,
    _SUB_P_INDEPENDENT,
    _SUB_P_REACHABLE,
    _TOTAL_PACKAGES,
    BLAS_PROVIDERS,
    generate_spack_index,
)
from repro.spackdep.graph import Package

SPANS = (1, 2, 3, 400, 2**20, 2**32 - 1, 2**32)

CALL = st.one_of(
    st.just(("random",)),
    st.tuples(
        st.just("integers"), st.integers(-1000, 1000), st.sampled_from(SPANS)
    ),
    st.integers(1, 10_000).flatmap(
        lambda n: st.tuples(
            st.just("choice"), st.just(n), st.integers(0, min(n, 6))
        )
    ),
)


def _twins(seed, buffered=None):
    """Two generators in one state; ``buffered`` sets PCG64's held
    32-bit half-word."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered is not None:
        state = pair[0].bit_generator.state
        state.update(has_uint32=1, uinteger=buffered)
        for rng in pair:
            rng.bit_generator.state = state
    return pair


def _numpy_call(rng, call):
    if call[0] == "random":
        return rng.random()
    if call[0] == "integers":
        _, low, span = call
        return int(rng.integers(low, low + span))
    _, n, size = call
    return rng.choice(n, size=size, replace=False).tolist()


def _reader_call(draws, call):
    if call[0] == "random":
        return draws.random()
    if call[0] == "integers":
        _, low, span = call
        return draws.integers(low, low + span)
    _, n, size = call
    return draws.choice(n, size)


class TestAgainstNumpy:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        buffered=st.none() | st.integers(0, 2**32 - 1),
        calls=st.lists(CALL, max_size=80),
    )
    @example(seed=0, buffered=0, calls=[("integers", 0, 3)] * 3)
    def test_every_value_equal(self, seed, buffered, calls):
        numpy_rng, reader_rng = _twins(seed, buffered)
        draws = Draws(reader_rng)
        for call in calls:
            assert _reader_call(draws, call) == _numpy_call(numpy_rng, call)

    @pytest.mark.parametrize("n, size", [
        (10_000, 10_000), (10_001, 200), (20_000, 400), (2**32, 3),
    ])
    def test_floyd_regime_edges(self, n, size):
        numpy_rng, reader_rng = _twins(3)
        expected = numpy_rng.choice(n, size=size, replace=False).tolist()
        assert Draws(reader_rng).choice(n, size) == expected

    def test_scalar_choice_is_a_bounded_integer(self):
        # ``rng.choice(n)`` draws what ``rng.integers(0, n)`` draws.
        numpy_rng, reader_rng = _twins(8)
        draws = Draws(reader_rng)
        for n in (1, 2, 7, 968, 5000) * 20:
            assert draws.integers(0, n) == int(numpy_rng.choice(n))

    @pytest.mark.parametrize("span", [3, 400])
    def test_forced_lemire_rejection(self, span):
        # A buffered zero lands under the threshold 2**32 % span, so
        # the first draw is rejected and redrawn from a fresh word.
        numpy_rng, reader_rng = _twins(11, buffered=0)
        before = numpy_rng.bit_generator.state["state"]["state"]
        expected = [int(numpy_rng.integers(0, span)) for _ in range(40)]
        draws = Draws(reader_rng)
        assert numpy_rng.bit_generator.state["state"]["state"] != before
        assert [draws.integers(0, span) for _ in range(40)] == expected


class TestOutsideTheReproducedRegimes:
    @pytest.mark.parametrize("n, size", [
        (10_001, 201), (20_000, 401), (2**32 + 1, 1), (3, 4), (5, -1),
    ])
    def test_choice_raises(self, n, size):
        with pytest.raises(ValueError, match="Floyd"):
            Draws(np.random.default_rng(0)).choice(n, size)

    @pytest.mark.parametrize("low, high", [(0, 2**32 + 1), (5, 5), (5, 4)])
    def test_integers_raises(self, low, high):
        with pytest.raises(ValueError, match="range"):
            Draws(np.random.default_rng(0)).integers(low, high)


def _reference_k_year(jobs, seed):
    """The K-computer year's columns drawn one NumPy call at a time."""
    nominal_node_hours = 543_000_000.0
    rng = np.random.default_rng(seed)
    domains = list(K_DOMAIN_MIX)
    shares = np.array([K_DOMAIN_MIX[d] for d in domains])
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
    linked = np.zeros(jobs, dtype=bool)
    for i, d in enumerate(domains):
        mask_idx = np.flatnonzero(domain_idx == i)
        if mask_idx.size == 0:
            continue
        order = rng.permutation(mask_idx)
        target = _GEMM_LINK_P[d] * node_hours[mask_idx].sum()
        cum = np.cumsum(node_hours[order])
        linked[order[cum <= target]] = True

    integers, choice = rng.integers, rng.choice
    table_of: dict[frozenset[int], int] = {}
    table_id: list[int] = []
    app_id: list[int] = []
    for is_covered, is_linked in zip(covered.tolist(), linked.tolist()):
        if is_covered:
            gemm = frozenset(
                choice(len(_GEMM_SYMBOLS), size=int(integers(1, 3)),
                       replace=False).tolist()
            ) if is_linked else frozenset()
            table_id.append(table_of.setdefault(gemm, len(table_of)))
        else:
            table_id.append(-1)
        app_id.append(int(integers(0, 400)))
    tables = tuple(
        SymbolTable(frozenset(_BASE_SYMBOLS).union(
            _GEMM_SYMBOLS[k] for k in gemm
        ))
        for gemm in table_of
    )
    return {
        "domain_idx": domain_idx.astype(np.int8),
        "node_hours": node_hours,
        "app_id": np.array(app_id, dtype=np.int16),
        "table_id": np.array(table_id, dtype=np.int8),
        "tables": tables,
    }


def _reference_spack_packages(total, seed):
    """The Spack index's packages drawn one NumPy call at a time."""
    rng = np.random.default_rng(seed)
    packages: dict[str, Package] = {}
    for name in BLAS_PROVIDERS:
        lang = "py" if name.startswith("py-") else None
        packages[name] = Package(name, provides_blas=True, language=lang)
    packages["python"] = Package("python")
    packages["r-base"] = Package("r-base")

    def _new_name(idx, sub_p):
        r = rng.random()
        if r < sub_p * 0.78:
            return f"py-pkg{idx:04d}", "py"
        if r < sub_p:
            return f"r-pkg{idx:04d}", "r"
        return f"pkg{idx:04d}", None

    shells: list[list[str]] = [list(BLAS_PROVIDERS)]
    idx = 0
    for size in _SHELL_SIZES:
        shell: list[str] = []
        prev = shells[-1]
        for _ in range(size):
            name, lang = _new_name(idx, _SUB_P_REACHABLE)
            idx += 1
            n_deps = int(rng.integers(1, 4))
            deps = {
                prev[k] for k in rng.choice(
                    len(prev), size=min(n_deps, len(prev)), replace=False
                ).tolist()
            }
            if shell and rng.random() < 0.25:
                deps.add(shell[rng.choice(len(shell))])
            if lang == "py":
                deps.add("python")
            elif lang == "r":
                deps.add("r-base")
            packages[name] = Package(
                name, depends_on=tuple(sorted(deps)), language=lang
            )
            shell.append(name)
        shells.append(shell)

    independent: list[str] = []
    while len(packages) < total:
        name, lang = _new_name(idx, _SUB_P_INDEPENDENT)
        idx += 1
        deps: set[str] = set()
        if independent and rng.random() < 0.5:
            k = int(rng.integers(1, 3))
            deps.update(
                independent[j] for j in rng.choice(
                    len(independent), size=min(k, len(independent)),
                    replace=False,
                ).tolist()
            )
        if lang == "py":
            deps.add("python")
        elif lang == "r":
            deps.add("r-base")
        packages[name] = Package(
            name, depends_on=tuple(sorted(deps)), language=lang
        )
        independent.append(name)
    return packages


class TestGeneratorsAgainstPerCallLoops:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        jobs=st.one_of(st.integers(0, 12), st.integers(13, 3000)),
    )
    @example(seed=20180401, jobs=20_000)
    def test_k_year_columns_equal(self, seed, jobs):
        year = generate_k_year.uncached(jobs=jobs, seed=seed)
        ref = _reference_k_year(jobs, seed)
        assert year.tables == ref.pop("tables")
        for column, expected in ref.items():
            got = getattr(year, column)
            assert got.dtype == expected.dtype, column
            # Bitwise, so equal floats must also agree in every bit.
            assert got.tobytes() == expected.tobytes(), column

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        total=st.integers(sum(_SHELL_SIZES) + len(BLAS_PROVIDERS) + 2, 4600),
    )
    @example(seed=20200715, total=_TOTAL_PACKAGES)
    def test_spack_packages_equal(self, seed, total):
        graph = generate_spack_index.uncached(total=total, seed=seed)
        ref = _reference_spack_packages(total, seed)
        assert list(graph.packages.items()) == list(ref.items())
