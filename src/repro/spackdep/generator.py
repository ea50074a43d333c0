"""Seeded Spack-shaped synthetic package index.

The generator reproduces the structure Table III measures on the real
Spack 0.15.1 index:

* 4,371 packages with the 14 actual dense-linear-algebra provider names;
* dependency shells sized to the published histogram — 239 packages at
  distance 1, 762 at 2, 968 at 3, ~1,100 deeper, the rest unreachable;
* a large py-*/r-* sub-package population that is *overwhelmingly
  reachable* (everything in the Python/R ecosystems sits atop
  py-numpy-like chains), which is exactly why the paper's
  "excluding py-* & R-*" column drops from 70 % to 51 % reachable;
* ``python`` / ``r-base`` interpreter packages that orphan sub-packages
  merge into.
"""

from __future__ import annotations

import numpy as np

from repro.draws import Draws
from repro.errors import GraphError
from repro.harness.cache import memoize_substrate
from repro.spackdep.graph import DependencyGraph, Package

__all__ = ["BLAS_PROVIDERS", "generate_spack_index"]

#: The paper's distance-0 set (Sec. III-B), verbatim.
BLAS_PROVIDERS: tuple[str, ...] = (
    "amdblis",
    "atlas",
    "blis",
    "eigen",
    "essl",
    "intel-mkl",
    "netlib-lapack",
    "netlib-scalapack",
    "netlib-xblas",
    "openblas",
    "cuda",
    "py-blis",
    "libxsmm",
    "veclibfort",
)

#: Packages per dependency shell (distance 1, 2, 3, then deeper shells).
_SHELL_SIZES = (239, 762, 968, 520, 340, 172, 60)
_TOTAL_PACKAGES = 4371
#: Sub-package probability inside the reachable shells vs outside —
#: calibrated so the merged ("excluding py-*/r-*") reachable share lands
#: at the paper's 51.45 %.
_SUB_P_REACHABLE = 0.575
_SUB_P_INDEPENDENT = 0.05


@memoize_substrate("spack_index")
def generate_spack_index(
    *,
    total: int = _TOTAL_PACKAGES,
    seed: int = 20200715,
) -> DependencyGraph:
    """Build the synthetic index (deterministic for a given seed).

    Memoized as the ``spack_index`` substrate; treat the returned graph
    as read-only.
    """
    if total < sum(_SHELL_SIZES) + len(BLAS_PROVIDERS) + 2:
        raise GraphError(f"total={total} too small for the shell structure")
    draws = Draws(np.random.default_rng(seed))
    random, integers, choice = draws.random, draws.integers, draws.choice
    packages: dict[str, Package] = {}

    for name in BLAS_PROVIDERS:
        lang = "py" if name.startswith("py-") else None
        packages[name] = Package(name, provides_blas=True, language=lang)
    # Interpreter roots orphan sub-packages merge into.
    packages["python"] = Package("python")
    packages["r-base"] = Package("r-base")

    def _new_name(idx: int, sub_p: float) -> tuple[str, str | None]:
        r = random()
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
            # Depend on 1-3 packages of the previous shell, which pins the
            # BFS distance; sibling links within the shell are harmless.
            n_deps = integers(1, 4)
            deps = {
                prev[k] for k in choice(len(prev), min(n_deps, len(prev)))
            }
            if shell and random() < 0.25:
                deps.add(shell[integers(0, len(shell))])
            if lang == "py":
                deps.add("python")
            elif lang == "r":
                deps.add("r-base")
            packages[name] = Package(
                name, depends_on=tuple(sorted(deps)), language=lang
            )
            shell.append(name)
        shells.append(shell)

    # Unreachable remainder: no path to any BLAS provider.
    independent: list[str] = []
    while len(packages) < total:
        name, lang = _new_name(idx, _SUB_P_INDEPENDENT)
        idx += 1
        deps: set[str] = set()
        if independent and random() < 0.5:
            k = integers(1, 3)
            deps.update(
                independent[j]
                for j in choice(len(independent), min(k, len(independent)))
            )
        if lang == "py":
            deps.add("python")
        elif lang == "r":
            deps.add("r-base")
        packages[name] = Package(
            name, depends_on=tuple(sorted(deps)), language=lang
        )
        independent.append(name)

    return DependencyGraph(packages)
