"""Dependency-distance analysis: regenerate Table III.

Distance of a package = length of its shortest dependency path to any
BLAS provider (multi-source BFS on the reversed DAG).  The table
reports, per distance, the package count and its share of the index —
once raw and once after merging py-*/r-* sub-packages into their parent
projects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.spackdep.graph import DependencyGraph

__all__ = ["DistanceTable", "dependency_distances"]


@dataclass(frozen=True)
class DistanceTable:
    """Histogram of BLAS dependency distances over one index."""

    total_packages: int
    counts: dict[int, int]  # exact distance -> package count

    def count_at(self, distance: int) -> int:
        return self.counts.get(distance, 0)

    def percent_at(self, distance: int) -> float:
        return 100.0 * self.count_at(distance) / self.total_packages

    @property
    def reachable(self) -> int:
        """Packages at distance >= 1 (the table's "1-∞" row)."""
        return sum(c for d, c in self.counts.items() if d >= 1)

    @property
    def reachable_percent(self) -> float:
        return 100.0 * self.reachable / self.total_packages

    @property
    def max_distance(self) -> int:
        return max(self.counts) if self.counts else 0


def dependency_distances(graph: DependencyGraph) -> DistanceTable:
    """Multi-source BFS from the BLAS providers along reversed edges."""
    distance = dict.fromkeys(graph.blas_providers, 0)
    frontier = deque(distance)
    while frontier:
        name = frontier.popleft()
        d = distance[name] + 1
        for dependent in graph.dependents[name]:
            if dependent not in distance:
                distance[dependent] = d
                frontier.append(dependent)
    counts: dict[int, int] = {}
    for d in distance.values():
        counts[d] = counts.get(d, 0) + 1
    return DistanceTable(total_packages=len(graph), counts=counts)
