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

from .errors import (
    BaseMismatch,
    InvalidParameter,
    MismatchedSizes,
    NotApplicable,
    PreconditionViolated,
)
from .space import FiniteSpace, parse_ints


def ht(z: int) -> int:
    """Height parity: 0 on minimal (open, even) points of the line."""
    return z % 2


def line_leq(a: int, b: int) -> bool:
    """The digital-line order, reflexively."""
    return a == b or (abs(a - b) == 1 and a % 2 == 0)


def circ_leq(v: int, w: int, size: int) -> bool:
    if v == w:
        return True
    return v % 2 == 0 and (w - v) % size in (1, size - 1)


# -- interval maps -----------------------------------------------------


@dataclass(frozen=True)
class IntervalMap:
    """A continuous function [k,l] -> Z on the digital line."""

    k: int
    values: tuple

    def __post_init__(self):
        for z in range(self.k, self.l):
            a, b = self(z), self(z + 1)
            lo, hi = (a, b) if z % 2 == 0 else (b, a)
            if not line_leq(lo, hi):
                raise InvalidParameter(
                    f"not continuous at {z}: {a} vs {b}"
                )

    @property
    def l(self) -> int:
        return self.k + len(self.values) - 1

    def __call__(self, z: int) -> int:
        return self.values[z - self.k]

    def is_monotone(self) -> bool:
        vs = self.values
        return all(a <= b for a, b in zip(vs, vs[1:])) or all(
            a >= b for a, b in zip(vs, vs[1:])
        )


def epsilon(k: int, l: int, a: int) -> IntervalMap:
    """The constant function at a on [k,l]."""
    return IntervalMap(k, tuple([a] * (l - k + 1)))


def interval_cmp(f: IntervalMap, g: IntervalMap):
    """Pointwise comparison in the line order, as in fence steps."""
    if f.k != g.k or len(f.values) != len(g.values):
        raise MismatchedSizes("interval maps on different domains")
    leq = all(line_leq(a, b) for a, b in zip(f.values, g.values))
    geq = all(line_leq(b, a) for a, b in zip(f.values, g.values))
    if leq and geq:
        return "equal"
    if leq:
        return "leq"
    if geq:
        return "geq"
    return None


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


@dataclass(frozen=True)
class LiftRecord:
    """A lift of a circle map along q : Z -> Z/2n over the window [k,l]."""

    base: CircleMap
    k: int
    l: int
    start: int
    values: tuple  # lifted integer per z in k..l


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


def lift(f: CircleMap, k: int, l: int, a: int) -> LiftRecord:
    """The unique lift with value a at k, by the step-tracking rule."""
    if f.n < 2:
        raise NotApplicable("lift uniqueness needs n >= 2")
    size = 2 * f.n
    if a % size != f(k):
        raise BaseMismatch(f"q({a}) = {a % size} != f({k}) = {f(k)}")
    values = list(accumulate(_steps(f, k, l), initial=a))
    # the lift is continuous on the digital line; IntervalMap checks it
    IntervalMap(k, tuple(values))
    for z in range(k, l + 1):
        assert values[z - k] % size == f(z), "lift does not commute with q"
    return LiftRecord(f, k, l, a, tuple(values))


def degree(f: CircleMap) -> int:
    """The winding degree: the lift steps around the loop, z = 0..2m-1
    with wrap-around, summed and divided by 2n.

    This is how far ``lift(f, 0, 2m, f(0))`` climbs over the loop, its
    last value minus its first, divided by 2n, without building the
    lift's values, its IntervalMap or its commutation check.
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


# -- monotone normalization and fences --------------------------------


def monotone_normalize(g: IntervalMap) -> IntervalMap:
    """The staircase-then-plateau normal form h_g.

    Preconditions: g(k) <= g(l) and ht(k) = ht(g(k)).
    """
    if g(g.k) > g(g.l):
        raise PreconditionViolated("g(k) <= g(l)")
    if ht(g.k) != ht(g(g.k)):
        raise PreconditionViolated("ht(k) = ht(g(k))")
    k, gl = g.k, g(g.l)
    off = g(g.k) - g.k
    values = tuple(min(z + off, gl) for z in range(g.k, g.l + 1))
    return IntervalMap(k, values)


def _extremum_plateau(f: IntervalMap):
    """Leftmost strict interior extremum plateau, or None.

    Returns (p, q, kind) with kind 'max' or 'min'; plateau values are odd
    for peaks and even for valleys by continuity.
    """
    vs = f.values
    n = len(vs)
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and vs[j + 1] == vs[i]:
            j += 1
        if j < n - 1:
            if vs[i - 1] < vs[i] and vs[j + 1] < vs[i]:
                return (i, j, "max")
            if vs[i - 1] > vs[i] and vs[j + 1] > vs[i]:
                return (i, j, "min")
        i = j + 1 if j > i else i + 1
    return None


def fence_to_monotone(f: IntervalMap):
    """A fence f = f0 ~ f1 ~ ... ending at a monotone map.

    Each step lowers an odd peak plateau or raises an even valley plateau
    by one, which is a single pointwise-comparable move.
    """
    fence = [f]
    cur = f
    while not cur.is_monotone():
        hit = _extremum_plateau(cur)
        assert hit is not None, "non-monotone map without interior extremum"
        p, q, kind = hit
        vs = list(cur.values)
        delta = -1 if kind == "max" else 1
        for i in range(p, q + 1):
            vs[i] += delta
        cur = IntervalMap(cur.k, tuple(vs))
        fence.append(cur)
    return fence


def fence_to_constant(f: IntervalMap):
    """For f(k) = f(l): a fence rel endpoints down to the constant."""
    if f(f.k) != f(f.l):
        raise PreconditionViolated("f(k) = f(l)")
    fence = fence_to_monotone(f)
    last = fence[-1]
    assert last.values == tuple([f(f.k)] * len(f.values)), (
        "monotone with equal endpoints must be constant"
    )
    return fence


def staircase_fence(f: IntervalMap):
    """For monotone increasing f with f(k) <= f(l) and ht(k) = ht(f(k)):
    the explicit fence f = f0 ~ g1 ~ f1 ~ ... ~ h_f.

    Follows the inductive peak-front construction step by step.
    """
    if not f.is_monotone() or f(f.k) > f(f.l):
        raise PreconditionViolated("monotone increasing")
    if ht(f.k) != ht(f(f.k)):
        raise PreconditionViolated("ht(k) = ht(f(k))")
    k, l = f.k, f.l
    off = f(k) - k  # even by the ht condition
    # normalized coordinates: F(k) = k
    F = IntervalMap(k, tuple(v - off for v in f.values))
    h = monotone_normalize(F)
    fence_norm = [F]
    cur = F
    guard = 0
    while cur.values != h.values:
        guard += 1
        assert guard <= 4 * (l - k + 2), "staircase fence failed to converge"
        k0 = min(z for z in range(k, l) if cur(z + 1) == z)
        l0 = max(z for z in range(k, l + 1) if cur(z) == k0)
        nxt = []
        mid = []
        for z in range(k, l + 1):
            if z == k0:
                nxt.append(k0)
            elif k0 + 1 <= z <= l0 + 1:
                nxt.append(k0 + 1)
            else:
                nxt.append(cur(z))
            if k0 <= z <= l0 + 1:
                mid.append(k0 if ht(k0) == ht(z) else k0 + 1)
            else:
                mid.append(cur(z))
        g1 = IntervalMap(k, tuple(mid))
        f1 = IntervalMap(k, tuple(nxt))
        assert interval_cmp(cur, g1) is not None
        assert interval_cmp(g1, f1) is not None
        fence_norm.extend([g1, f1])
        cur = f1
    return [
        IntervalMap(k, tuple(v + off for v in m.values)) for m in fence_norm
    ]


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
