"""Finite T0-spaces as posets, their Alexandroff topology, and continuous maps.

A finite T0-space is stored as a poset on points 0..n-1.  Open sets are
down-sets: the minimal open neighbourhood of a point is its reflexive
down-set.  Point sets are bitmasks (python ints), so all the topology
reduces to bit arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    CycleDetected,
    InvalidParameter,
    MismatchedSpaces,
    NotOrderPreserving,
)


def bits(mask: int):
    """Iterate over the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


class FiniteSpace:
    """An immutable finite poset carrying the Alexandroff T0-topology.

    ``down[x]`` / ``up[x]`` are the reflexive down- and up-sets of ``x`` as
    bitmasks; they are precomputed at construction and never change.
    """

    __slots__ = ("n", "labels", "down", "up", "covers", "full", "_hash")

    def __init__(self, labels, down, covers=None):
        n = len(down)
        self.n = n
        self.labels = tuple(str(l) for l in labels)
        if len(self.labels) != n:
            raise InvalidParameter("labels/down length mismatch")
        self.down = tuple(down)
        self.full = (1 << n) - 1
        up = [0] * n
        for x in range(n):
            d = down[x]
            if not (d >> x) & 1:
                raise InvalidParameter("down-set must be reflexive")
            for y in bits(d):
                up[y] |= 1 << x
        self.up = tuple(up)
        # transitivity: down[y] subset of down[x] whenever y <= x
        for x in range(n):
            for y in bits(self.down[x]):
                if self.down[y] & ~self.down[x]:
                    raise InvalidParameter("down-sets are not transitive")
        if covers is None:
            covers = self._compute_covers()
        self.covers = tuple(sorted(covers))
        self._hash = hash((self.labels, self.down))

    def _compute_covers(self):
        out = []
        for x in range(self.n):
            strict = self.down[x] & ~(1 << x)
            for y in bits(strict):
                between = strict & self.up[y] & ~(1 << y)
                if not between:
                    out.append((y, x))
        return out

    # -- order queries -------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool((self.down[y] >> x) & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.leq(x, y)

    def comparable_points(self, x: int, y: int) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def min_open(self, x: int) -> "DownSet":
        """Smallest open set containing x (its reflexive down-set)."""
        return DownSet(self, self.down[x])

    def interval_down(self, b: int) -> "DownSet":
        """[-,b]: all x <= b (reflexive)."""
        return DownSet(self, self.down[b])

    def interval_up(self, a: int) -> int:
        """[a,-] as a bitmask: all x >= a (reflexive)."""
        return self.up[a]

    def interval(self, a: int, b: int) -> int:
        """[a,b] as a bitmask: all x with a <= x <= b."""
        return self.up[a] & self.down[b]

    def maximal_elements(self) -> int:
        mask = 0
        for x in range(self.n):
            if self.up[x] == 1 << x:
                mask |= 1 << x
        return mask

    def minimal_elements(self) -> int:
        mask = 0
        for x in range(self.n):
            if self.down[x] == 1 << x:
                mask |= 1 << x
        return mask

    # -- topology ------------------------------------------------------

    def is_open(self, mask: int) -> bool:
        down = 0
        for x in bits(mask):
            down |= self.down[x]
        return down == mask

    def open_hull(self, mask: int) -> "DownSet":
        """Smallest open superset: union of min_open over the set."""
        out = 0
        for x in bits(mask):
            out |= self.down[x]
        return DownSet(self, out)

    def downset(self, mask: int) -> "DownSet":
        return DownSet(self, mask)

    def all_open_sets(self):
        """Every open set, by enumeration of down-closed subsets.

        Exponential; only meant for cross-checks on tiny spaces.
        """
        # every down-set is determined by an antichain, but plain subset
        # enumeration over all points is fine at these sizes
        seen = set()
        for r in range(self.n + 1):
            for sub in combinations(range(self.n), r):
                m = 0
                for x in sub:
                    m |= self.down[x]
                seen.add(m)
        return sorted(seen)

    def connected_components(self):
        """Components of the comparability graph, as bitmasks."""
        left = self.full
        out = []
        while left:
            seed = left & -left
            comp = seed
            frontier = seed
            while frontier:
                new = 0
                for x in bits(frontier):
                    new |= self.down[x] | self.up[x]
                frontier = new & ~comp
                comp |= new
            out.append(comp)
            left &= ~comp
        return out

    # -- constructions -------------------------------------------------

    def subspace(self, mask: int):
        """Subspace on the points of ``mask``.

        Returns (space, old_ids) where old_ids[i] is the parent-space id of
        point i of the subspace.
        """
        old = list(bits(mask))
        index = {p: i for i, p in enumerate(old)}
        down = []
        for p in old:
            m = 0
            for q in bits(self.down[p] & mask):
                m |= 1 << index[q]
            down.append(m)
        labels = [self.labels[p] for p in old]
        return FiniteSpace(labels, down), old

    def relabel(self, labels):
        return FiniteSpace(labels, self.down, self.covers)

    # -- dunder --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSpace)
            and self.down == other.down
            and self.labels == other.labels
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteSpace(n={self.n})"

    def describe(self) -> str:
        lines = [f"space on {self.n} points"]
        for x in range(self.n):
            dn = ",".join(self.labels[y] for y in bits(self.down[x]))
            lines.append(f"  {self.labels[x]}: down {{{dn}}}")
        return "\n".join(lines)


@dataclass(frozen=True)
class DownSet:
    """An open subset of a finite space (a down-closed point set)."""

    space: FiniteSpace
    members: int

    def __post_init__(self):
        if self.members & ~self.space.full:
            raise InvalidParameter("members outside the space")
        if not self.space.is_open(self.members):
            raise InvalidParameter("set is not down-closed")

    def __contains__(self, x: int) -> bool:
        return bool((self.members >> x) & 1)

    def points(self):
        return list(bits(self.members))

    def size(self) -> int:
        return popcount(self.members)

    def union(self, other: "DownSet") -> "DownSet":
        return DownSet(self.space, self.members | other.members)

    def serialize(self) -> str:
        return " ".join(str(p) for p in self.points())


def build_space(labels, covering_pairs) -> FiniteSpace:
    """Build a space from covering pairs (lo, hi), lo < hi.

    Raises CycleDetected if the pairs are cyclic.
    """
    n = len(labels)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for lo, hi in covering_pairs:
        if not (0 <= lo < n and 0 <= hi < n):
            raise InvalidParameter(f"pair ({lo},{hi}) out of range")
        if lo == hi:
            raise CycleDetected(f"reflexive pair ({lo},{hi})")
        succ[lo].append(hi)
        indeg[hi] += 1
    # Kahn topological order doubles as the cycle check
    order = [x for x in range(n) if indeg[x] == 0]
    deg = list(indeg)
    i = 0
    while i < len(order):
        for y in succ[order[i]]:
            deg[y] -= 1
            if deg[y] == 0:
                order.append(y)
        i += 1
    if len(order) < n:
        raise CycleDetected("covering pairs contain a cycle")
    down = [1 << x for x in range(n)]
    for x in order:
        for y in succ[x]:
            down[y] |= down[x]
    pairs = sorted({(lo, hi) for lo, hi in covering_pairs})
    # drop transitively implied pairs so covers stays a covering relation
    covers = []
    for lo, hi in pairs:
        strict = down[hi] & ~(1 << hi)
        between = 0
        for z in bits(strict & ~(1 << lo)):
            if (down[z] >> lo) & 1:
                between |= 1 << z
        if not between:
            covers.append((lo, hi))
    return FiniteSpace(labels, down, covers)


# -- Khalimsky constructions ------------------------------------------


@dataclass(frozen=True)
class KhalimskyCircle:
    """The 2n-point digital circle.

    Point ids are residues 0..2n-1; a_i has id 2i (minimal, open) and b_i
    has id 2i+1 (maximal, closed).  Display labels use the customary
    residues 1..2n, so label(id) = id+1.
    """

    n: int
    space: FiniteSpace

    def a(self, i: int) -> int:
        return (2 * i) % (2 * self.n)

    def b(self, i: int) -> int:
        return (2 * i + 1) % (2 * self.n)

    def residue_to_id(self, r: int) -> int:
        """Map a residue in 1..2n (mod 2n) to a point id."""
        return (r - 1) % (2 * self.n)

    def id_to_residue(self, p: int) -> int:
        return p + 1


def khalimsky_circle(n: int) -> KhalimskyCircle:
    if n < 2:
        raise InvalidParameter(f"Khalimsky circle needs n >= 2, got {n}")
    size = 2 * n
    covers = []
    for i in range(n):
        e = 2 * i
        covers.append((e, (e + 1) % size))
        covers.append((e, (e - 1) % size))
    labels = []
    for p in range(size):
        i = p // 2
        labels.append(f"a{i}" if p % 2 == 0 else f"b{i}")
    space = build_space(labels, covers)
    return KhalimskyCircle(n, space)


@dataclass(frozen=True)
class KhalimskyInterval:
    """The digital interval [k,l]: point id z-k represents the integer z."""

    k: int
    l: int
    space: FiniteSpace

    def id_of(self, z: int) -> int:
        return z - self.k

    def int_of(self, p: int) -> int:
        return p + self.k


def khalimsky_interval(k: int, l: int) -> KhalimskyInterval:
    if k > l:
        raise InvalidParameter(f"need k <= l, got [{k},{l}]")
    covers = []
    for z in range(k, l):
        # even integers sit below their odd neighbours
        if z % 2 == 0:
            covers.append((z - k, z + 1 - k))
        else:
            covers.append((z + 1 - k, z - k))
    labels = [str(z) for z in range(k, l + 1)]
    return KhalimskyInterval(k, l, build_space(labels, covers))


def product(X: FiniteSpace, Y: FiniteSpace) -> FiniteSpace:
    """Product poset; its Alexandroff topology is the product topology."""
    nY = Y.n
    down = []
    labels = []
    for x in range(X.n):
        for y in range(Y.n):
            m = 0
            for u in bits(X.down[x]):
                block = Y.down[y]
                m |= block << (u * nY)
            down.append(m)
            labels.append(f"({X.labels[x]},{Y.labels[y]})")
    return FiniteSpace(labels, down)


def pair_id(X: FiniteSpace, Y: FiniteSpace, x: int, y: int) -> int:
    return x * Y.n + y


def unpair_id(X: FiniteSpace, Y: FiniteSpace, p: int):
    return divmod(p, Y.n)


# -- continuous maps ---------------------------------------------------


class OrderMap:
    """A continuous (= order-preserving) map between finite spaces."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, table):
        table = tuple(table)
        if len(table) != source.n:
            raise InvalidParameter("table must be total on the source")
        for v in table:
            if not (0 <= v < target.n):
                raise InvalidParameter(f"value {v} outside the target")
        for x in range(source.n):
            for x2 in bits(source.up[x]):
                if not target.leq(table[x], table[x2]):
                    raise NotOrderPreserving(x, x2, table[x], table[x2])
        self.source = source
        self.target = target
        self.table = table

    def __call__(self, x: int) -> int:
        return self.table[x]

    def __eq__(self, other):
        return (
            isinstance(other, OrderMap)
            and self.source == other.source
            and self.target == other.target
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.source, self.target, self.table))

    def __repr__(self):
        return f"OrderMap({list(self.table)})"

    def compose(self, inner: "OrderMap") -> "OrderMap":
        """self o inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise MismatchedSpaces("composition spaces do not match")
        return OrderMap(
            inner.source, self.target, [self.table[v] for v in inner.table]
        )

    def image(self) -> int:
        m = 0
        for v in self.table:
            m |= 1 << v
        return m

    def restrict(self, sub: FiniteSpace, old_ids) -> "OrderMap":
        """Restriction along a subspace inclusion given by old_ids."""
        return OrderMap(sub, self.target, [self.table[p] for p in old_ids])


def identity_map(X: FiniteSpace) -> OrderMap:
    return OrderMap(X, X, range(X.n))


def constant_map(X: FiniteSpace, Y: FiniteSpace, y: int) -> OrderMap:
    return OrderMap(X, Y, [y] * X.n)


def check_continuous(source: FiniteSpace, target: FiniteSpace, table):
    """Validate a raw value table.

    Returns (OrderMap, None) when continuous, else (None, witness) where
    witness = (x, x2, f(x), f(x2)) with x <= x2 but f(x) !<= f(x2).
    """
    try:
        return OrderMap(source, target, table), None
    except NotOrderPreserving as exc:
        return None, exc.witness


def projections(X: FiniteSpace, Y: FiniteSpace, XY: FiniteSpace):
    """The two projections of a product built by ``product(X, Y)``."""
    p1 = OrderMap(XY, X, [p // Y.n for p in range(XY.n)])
    p2 = OrderMap(XY, Y, [p % Y.n for p in range(XY.n)])
    return p1, p2


# -- text formats ------------------------------------------------------


def write_space(X: FiniteSpace, name: str) -> str:
    lines = [f"space {name} {X.n}"]
    for p in range(X.n):
        lines.append(f"point {p} {X.labels[p]}")
    for lo, hi in X.covers:
        lines.append(f"cover {lo} {hi}")
    return "\n".join(lines) + "\n"


def read_space(text: str) -> FiniteSpace:
    labels = {}
    covers = []
    n = None
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "space":
            n = int(parts[2])
        elif parts[0] == "point":
            labels[int(parts[1])] = parts[2] if len(parts) > 2 else parts[1]
        elif parts[0] == "cover":
            covers.append((int(parts[1]), int(parts[2])))
        else:
            raise InvalidParameter(f"bad space line: {line!r}")
    if n is None:
        raise InvalidParameter("missing space header")
    return build_space([labels.get(i, str(i)) for i in range(n)], covers)


def parse_downset(space: FiniteSpace, text: str) -> DownSet:
    m = 0
    for tok in text.split():
        m |= 1 << int(tok)
    return DownSet(space, m)
