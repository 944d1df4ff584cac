"""Order complexes and exports for simplicial tools."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameter
from .space import FiniteSpace, bits


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex given by its facets (maximal simplices)."""

    vertices: tuple  # labels
    facets: tuple  # tuple of frozensets of vertex ids

    def __post_init__(self):
        for f in self.facets:
            if not f:
                raise InvalidParameter("empty facet")
            for g in self.facets:
                if f is not g and f <= g:
                    raise InvalidParameter("facet contained in another")
        covered = set().union(*self.facets) if self.facets else set()
        if covered != set(range(len(self.vertices))):
            raise InvalidParameter("every vertex must appear in some facet")

    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1


def make_complex(vertices, facets) -> SimplicialComplex:
    fs = [frozenset(f) for f in facets]
    maximal = [f for f in fs if not any(f < g for g in fs)]
    return SimplicialComplex(tuple(vertices), tuple(sorted(
        set(maximal), key=lambda s: (len(s), sorted(s))
    )))


def cycle_complex(n: int) -> SimplicialComplex:
    """The n-cycle graph as a 1-dimensional complex."""
    if n < 3:
        raise InvalidParameter("cycle complex needs n >= 3")
    return make_complex(
        [f"v{i}" for i in range(n)],
        [{i, (i + 1) % n} for i in range(n)],
    )


def order_complex(X: FiniteSpace) -> SimplicialComplex:
    """The complex whose simplices are the chains of X.

    Facets are the maximal chains, found by DFS up the covers from the
    minimal elements.  The DFS runs on an explicit stack, so a chain has
    no depth limit: ``chain`` is the current path and ``todo[i]`` the
    covers of ``chain[i]`` not yet walked.
    """
    facets = []
    above = [[] for _ in range(X.n)]
    for lo, hi in X.covers:
        above[lo].append(hi)
    for x in bits(X.minimal_elements()):
        chain, todo = [x], [iter(above[x])]
        if not above[x]:
            facets.append(frozenset(chain))
        while todo:
            y = next(todo[-1], None)
            if y is None:
                chain.pop()
                todo.pop()
                continue
            chain.append(y)
            todo.append(iter(above[y]))
            if not above[y]:
                facets.append(frozenset(chain))
    return make_complex(list(X.labels), facets)


# -- exports -----------------------------------------------------------


def format_complex(K: SimplicialComplex) -> str:
    lines = [f"asc {len(K.vertices)} {len(K.facets)}"]
    for f in K.facets:
        lines.append(" ".join(str(v) for v in sorted(f)))
    return "\n".join(lines) + "\n"


def export_complex(K: SimplicialComplex, path) -> None:
    if not K.facets:
        raise InvalidParameter("refusing to export an empty complex")
    with open(path, "w") as fh:
        fh.write(format_complex(K))


def format_hasse_dot(X: FiniteSpace, name: str = "space") -> str:
    """Hasse diagram in DOT, edges oriented from lower to higher."""
    if X.n == 0:
        raise InvalidParameter("refusing to export an empty space")
    lines = [f"digraph {name} {{"]
    for p in range(X.n):
        lines.append(f'  n{p} [label="{X.labels[p]}"];')
    for lo, hi in X.covers:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
