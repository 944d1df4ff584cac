"""Degree theory for maps between digital circles.

The digital line is the integers ordered by a < b iff |a-b| = 1 and a is
even; Z/2m (even classes minimal) is the 2m-point digital circle.  Circle
maps are classified up to homotopy by their degree, the winding of a lift
along the quotient Z -> Z/2n (summed step by step, without building the
lift), with a rigidity threshold |deg| < m/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import BaseMismatch, InvalidParameter, MismatchedSizes
from .space import FiniteSpace, parse_ints


def line_leq(a: int, b: int) -> bool:
    """The digital-line order, reflexively."""
    return a == b or (abs(a - b) == 1 and a % 2 == 0)


def circ_leq(v: int, w: int, size: int) -> bool:
    if v == w:
        return True
    return v % 2 == 0 and (w - v) % size in (1, size - 1)


# -- circle maps -------------------------------------------------------


@dataclass(frozen=True)
class CircleMap:
    """A continuous map Z/2m -> Z/2n, as a table over residues 0..2m-1."""

    m: int
    n: int
    table: tuple

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise InvalidParameter("circle maps need m, n >= 2")
        if len(self.table) != 2 * self.m:
            raise InvalidParameter("table must cover Z/2m")
        size = 2 * self.n
        for v in self.table:
            if not 0 <= v < size:
                raise InvalidParameter(f"value {v} outside Z/{size}")
        for z in range(0, 2 * self.m, 2):
            for w in (z - 1, z + 1):
                if not circ_leq(self(z), self(w), size):
                    raise InvalidParameter(
                        f"not continuous at {z % (2 * self.m)}~{w % (2 * self.m)}"
                    )

    def __call__(self, z: int) -> int:
        return self.table[z % (2 * self.m)]


def parse_circle_map(text: str) -> CircleMap:
    parts = text.split()
    if len(parts) < 3 or parts[0] != "circlemap":
        raise InvalidParameter(f"bad circlemap line: {text!r}")
    m, n, *table = parse_ints(parts[1:], text)
    return CircleMap(m, n, tuple(table))


# -- lifts and degree --------------------------------------------------


def _steps(f: CircleMap, k: int, l: int):
    """The lift steps f(z+1) - f(z) mod 2n for z in k..l-1, each -1, 0 or
    +1; any other difference is a jump and raises."""
    size = 2 * f.n
    t = f.table
    a = f(k)
    for z in range(k, l):
        b = t[(z + 1) % len(t)]
        d = (b - a) % size
        if d == 0:
            yield 0
        elif d == 1:
            yield 1
        elif d == size - 1:
            yield -1
        else:
            raise InvalidParameter(f"base map jumps at {z}")
        a = b


def lift(f: CircleMap, k: int, l: int, a: int) -> tuple:
    """The unique lift with value a at k, by the step-tracking rule: its
    values at z = k..l."""
    size = 2 * f.n
    if a % size != f(k):
        raise BaseMismatch(f"q({a}) = {a % size} != f({k}) = {f(k)}")
    values = tuple(accumulate(_steps(f, k, l), initial=a))
    # the lift is continuous on the digital line: z < z + 1 for even z
    for z, (v, w) in enumerate(zip(values, values[1:]), start=k):
        if not (line_leq(v, w) if z % 2 == 0 else line_leq(w, v)):
            raise InvalidParameter(f"not continuous at {z}: {v} vs {w}")
    for z, v in enumerate(values, start=k):
        assert v % size == f(z), "lift does not commute with q"
    return values


def degree(f: CircleMap) -> int:
    """The winding degree: the lift steps around the loop, z = 0..2m-1
    with wrap-around, summed and divided by 2n.

    This is how far ``lift(f, 0, 2m, f(0))`` climbs over the loop, its
    last value minus its first, divided by 2n, without building the
    lift's values or its commutation check.
    """
    return sum(_steps(f, 0, 2 * f.m)) // (2 * f.n)


def classify_homotopic(f: CircleMap, g: CircleMap) -> bool:
    """Homotopy of circle maps: equal, or same degree d with |d| < m/n.

    The f = g case is reflexivity; the criterion proper covers distinct
    maps.
    """
    if f.m != g.m or f.n != g.n:
        raise MismatchedSizes("circle maps of different sizes")
    if f.table == g.table:
        return True
    df, dg = degree(f), degree(g)
    return df == dg and abs(df) * f.n < f.m


# -- recognizing abstract circles -------------------------------------


def recognize_circle(X: FiniteSpace):
    """Is X order-isomorphic to a digital circle?

    Returns (n, numbering) where numbering[point] is its residue in Z/2n
    (minimal points get even residues), or None.  Among the valid
    numberings (rotations x orientations) the lexicographically least is
    returned.  It gives point 0 its least residue, so only two are built:
    residue 0 at a minimal point 0, either way round the cycle; else
    residue 1 at a maximal point 0, with residue 0 at either of its
    neighbours, which are minimal.
    """
    size = X.n
    if size < 4 or size % 2:
        return None
    nbrs = []
    for x, (ups, downs) in enumerate(zip(X.up_ids, X.down_ids)):
        # both tuples hold x itself, so x has 2 neighbours iff they hold 4
        if len(ups) + len(downs) != 4:
            return None
        # every point must be purely minimal or purely maximal
        mixed = len(ups) > 1 and len(downs) > 1
        if mixed:
            return None
        ns = [y for y in (ups if len(ups) > 1 else downs) if y != x]
        nbrs.append(ns)
    # walk the cycle
    start = 0
    seen = {start}
    order = [start]
    cur, prev = nbrs[start][0], start
    while cur != start:
        if cur in seen:
            return None
        seen.add(cur)
        order.append(cur)
        a, b = nbrs[cur]
        cur, prev = (b if a == prev else a), cur
    if len(order) != size:
        return None
    # alternation of minimal and maximal along the cycle
    minimal = X.minimal_elements()
    kinds = [(minimal >> p) & 1 for p in order]
    if any(kinds[i] == kinds[(i + 1) % size] for i in range(size)):
        return None
    # (rot, step): order[rot] gets residue 0, order[rot + step] residue 1
    starts = ((0, 1), (0, -1)) if kinds[0] else ((size - 1, 1), (1, -1))
    numberings = []
    for rot, step in starts:
        numbering = [0] * size
        for i, p in enumerate(order):
            numbering[p] = (i - rot) * step % size
        numberings.append(numbering)
    return (size // 2, min(numberings))
