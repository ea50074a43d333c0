"""Package dependency graph (the Spack index abstraction)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GraphError

__all__ = ["Package", "DependencyGraph"]


@dataclass(frozen=True)
class Package:
    """One Spack package.

    ``provides_blas`` marks the paper's distance-0 set; ``language``
    is ``"py"``/``"r"`` for sub-packages (the Table III adjustment
    merges those under their parent project).
    """

    name: str
    depends_on: tuple[str, ...] = ()
    provides_blas: bool = False
    language: str | None = None

    @property
    def is_subpackage(self) -> bool:
        return self.language in ("py", "r")

    @property
    def base_name(self) -> str:
        """Name with the language prefix stripped (merge target)."""
        if self.language and self.name.startswith(self.language + "-"):
            return self.name[len(self.language) + 1 :]
        return self.name


class DependencyGraph:
    """A validated package index with dependency edges ``pkg -> dep``.

    ``dependents`` holds the edges reversed, ``dep -> [pkg, ...]``: the
    direction a BFS from the BLAS providers walks."""

    def __init__(self, packages: dict[str, Package]) -> None:
        self.packages = dict(packages)
        dependents: dict[str, list[str]] = {name: [] for name in self.packages}
        for pkg in self.packages.values():
            for dep in pkg.depends_on:
                if dep not in dependents:
                    raise GraphError(
                        f"package {pkg.name!r} depends on unknown {dep!r}"
                    )
                if dep == pkg.name:
                    raise GraphError(f"package {pkg.name!r} depends on itself")
                dependents[dep].append(pkg.name)
        self.dependents = dependents

    def __len__(self) -> int:
        return len(self.packages)

    @property
    def blas_providers(self) -> tuple[str, ...]:
        """The distance-0 set, sorted."""
        return tuple(
            sorted(p.name for p in self.packages.values() if p.provides_blas)
        )

    def merged_subpackages(self) -> "DependencyGraph":
        """Contract py-*/r-* sub-packages into their parent projects.

        A sub-package whose base name exists in the index is unioned
        into it (dependencies transferred, self-loops dropped); orphan
        sub-packages fold into their interpreter package (``python`` /
        ``r-base``) when present — the paper merges every py-*/R-*
        package "under their parent packages" the same way.
        """
        interpreter = {"py": "python", "r": "r-base"}
        merge_map: dict[str, str] = {}
        for pkg in self.packages.values():
            if not pkg.is_subpackage or pkg.provides_blas:
                # Providers stay distinct: the paper counts 14 distance-0
                # packages in both columns (py-blis included).
                continue
            if pkg.base_name in self.packages:
                merge_map[pkg.name] = pkg.base_name
            else:
                parent = interpreter.get(pkg.language or "", "")
                if parent in self.packages:
                    merge_map[pkg.name] = parent

        def target(name: str) -> str:
            return merge_map.get(name, name)

        merged: dict[str, set[str]] = {}
        provides: dict[str, bool] = {}
        language: dict[str, str | None] = {}
        for pkg in self.packages.values():
            t = target(pkg.name)
            deps = merged.setdefault(t, set())
            deps.update(target(d) for d in pkg.depends_on)
            provides[t] = provides.get(t, False) or pkg.provides_blas
            if t == pkg.name:
                language[t] = pkg.language
            language.setdefault(t, pkg.language)
        out = {
            name: Package(
                name=name,
                depends_on=tuple(sorted(d for d in deps if d != name)),
                provides_blas=provides[name],
                language=language.get(name),
            )
            for name, deps in merged.items()
        }
        return DependencyGraph(out)
