"""Finite T0-spaces as posets, their Alexandroff topology, and continuous maps.

A finite T0-space is stored as a poset on points 0..n-1.  Open sets are
down-sets: the minimal open neighbourhood of a point is its reflexive
down-set.  Point sets are bitmasks (python ints), so all the topology
reduces to bit arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    CycleDetected,
    InvalidParameter,
    NotOrderPreserving,
)


def _byte_bits():
    """The set bit positions of each byte b, increasing, at index b: the
    bytes with bit i set are those below 2**i with (i,) appended."""
    out = [()]
    for i in range(8):
        out += [t + (i,) for t in out]
    return tuple(out)


_BYTE_BITS = _byte_bits()


def bits(mask: int):
    """Iterate over the set bit positions of ``mask`` in increasing order.

    The mask is read a byte at a time through ``_BYTE_BITS``, so no big
    int is built per bit; a mask of one byte is looked up whole.  A
    negative mask has no finite set of bits and raises InvalidParameter."""
    if mask < 0:
        raise InvalidParameter(f"bits of a negative mask: {mask}")
    if mask < 256:
        yield from _BYTE_BITS[mask]
        return
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                yield base + i
        base += 8


def popcount(mask: int) -> int:
    return mask.bit_count()


class FiniteSpace:
    """An immutable finite poset carrying the Alexandroff T0-topology.

    ``down[x]`` / ``up[x]`` are the reflexive down- and up-sets of ``x`` as
    bitmasks; they are precomputed at construction and never change.
    ``down_ids[x]`` / ``up_ids[x]`` are the same sets as increasing tuples
    of point ids, for loops that visit a point's neighbours.  They are
    built at construction, by the one loop that checks transitivity.
    ``covers`` and ``components`` are computed on first read and kept.

    ``subspace`` and ``product`` know each point's down-set as increasing
    ids already and hand them down as ``down_ids``, which must list the
    set bits of each ``down[x]``; only when none are given, as from
    ``build_space``, are the masks decoded.
    """

    __slots__ = (
        "n", "labels", "down", "up", "down_ids", "up_ids", "_covers",
        "_components", "full", "_hash",
    )

    def __init__(self, labels, down, down_ids=None):
        n = len(down)
        self.n = n
        self.labels = tuple(str(l) for l in labels)
        if len(self.labels) != n:
            raise InvalidParameter("labels/down length mismatch")
        self.down = down = tuple(down)
        self.full = (1 << n) - 1
        for x in range(n):
            if not (down[x] >> x) & 1:
                raise InvalidParameter("down-set must be reflexive")
        if down_ids is None:
            # a mask below 256 is read straight off the table: on spaces
            # of a few points the generator would cost more than the walk
            down_ids = [
                _BYTE_BITS[d] if d < 256 else tuple(bits(d)) for d in down
            ]
        up = [0] * n
        up_ids = [[] for _ in range(n)]
        for x, ids in enumerate(down_ids):
            reach = d = down[x]
            bx = 1 << x
            for y in ids:
                reach |= down[y]
                up[y] |= bx
                up_ids[y].append(x)
            # transitivity: down[y] subset of down[x] whenever y <= x
            if reach != d:
                raise InvalidParameter("down-sets are not transitive")
        self.up = tuple(up)
        self.down_ids = tuple(down_ids)
        self.up_ids = tuple(map(tuple, up_ids))
        self._covers = self._components = None
        self._hash = hash((self.labels, self.down))

    @property
    def covers(self):
        """The covering pairs (lo, hi), sorted; computed on first read."""
        if self._covers is None:
            self._covers = tuple(sorted(self._compute_covers()))
        return self._covers

    def _compute_covers(self):
        out = []
        up = self.up
        for x, ids in enumerate(self.down_ids):
            strict = self.down[x] & ~(1 << x)
            for y in ids:
                if y != x and not strict & up[y] & ~(1 << y):
                    out.append((y, x))
        return out

    @property
    def components(self):
        """``components[x]``: the component of x in the comparability
        graph, as a mask, one int shared by its points; so the space is
        connected iff ``components[0] == full``.  Computed on first read,
        growing each component from its least point a layer at a time."""
        if self._components is None:
            up, down = self.up, self.down
            out = [0] * self.n
            left = self.full
            while left:
                comp, grown = 0, left & -left
                while grown:
                    comp |= grown
                    reach = 0
                    for y in bits(grown):
                        reach |= up[y] | down[y]
                    grown = reach & ~comp
                for y in bits(comp):
                    out[y] = comp
                left &= ~comp
            self._components = tuple(out)
        return self._components

    # -- order queries -------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool((self.down[y] >> x) & 1)

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

    # -- constructions -------------------------------------------------

    def subspace(self, mask: int):
        """Subspace on the points of ``mask``.

        Returns (space, old_ids) where old_ids[i] is the parent-space id of
        point i of the subspace.
        """
        old = list(bits(mask))
        index = {p: i for i, p in enumerate(old)}
        get = index.get
        parent_ids = self.down_ids
        down = []
        down_ids = []
        for p in old:
            m = 0
            ids = []
            for q in parent_ids[p]:
                i = get(q)
                if i is not None:
                    m |= 1 << i
                    ids.append(i)
            down.append(m)
            down_ids.append(tuple(ids))
        labels = [self.labels[p] for p in old]
        return FiniteSpace(labels, down, down_ids=down_ids), old

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
            dn = ",".join(self.labels[y] for y in self.down_ids[x])
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

    def serialize(self) -> str:
        return " ".join(str(p) for p in self.points())


def build_space(labels, covering_pairs) -> FiniteSpace:
    """Build a space from pairs (lo, hi), each saying lo < hi.

    The order is their transitive closure; pairs it implies may be given
    too, and ``covers`` keeps only the covering ones.  Raises
    CycleDetected if the pairs are cyclic.
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
    return FiniteSpace(labels, down)


# -- Khalimsky constructions ------------------------------------------


@dataclass(frozen=True)
class KhalimskyCircle:
    """The 2n-point digital circle.

    Point ids are residues 0..2n-1; a_i has id 2i (minimal, open) and b_i
    has id 2i+1 (maximal, closed), with display labels "a{i}" and "b{i}".
    """

    n: int
    space: FiniteSpace


@lru_cache(maxsize=64)
def khalimsky_circle(n: int) -> KhalimskyCircle:
    """S1_n, built once per n and shared, since a circle is immutable; the
    last 64 sizes asked for are kept."""
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
    """Product poset; its Alexandroff topology is the product topology.

    Point (x, y) has id x * Y.n + y, so its down-set's ids, the pairs of
    ids u <= x and v <= y, come out increasing row by row."""
    nY = Y.n
    down = []
    down_ids = []
    labels = []
    for x, ids in enumerate(X.down_ids):
        # one bit at the start of each row u <= x; multiplying it by a
        # down-set of Y (< 2**nY) copies that down-set into every such row
        rows = 0
        for u in ids:
            rows |= 1 << (u * nY)
        down += [rows * block for block in Y.down]
        starts = [u * nY for u in ids]
        down_ids += [tuple([s + v for s in starts for v in yids]) for yids in Y.down_ids]
        labels += [f"({X.labels[x]},{l})" for l in Y.labels]
    return FiniteSpace(labels, down, down_ids=down_ids)


# -- continuous maps ---------------------------------------------------


class OrderMap:
    """A continuous (= order-preserving) map between finite spaces.

    Every pair x <= x2 of the source is checked, in the order of x and
    then of ``source.up_ids[x]``, and the first one that fails raises
    NotOrderPreserving."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, table):
        table = tuple(table)
        if len(table) != source.n:
            raise InvalidParameter("table must be total on the source")
        for v in table:
            if not (0 <= v < target.n):
                raise InvalidParameter(f"value {v} outside the target")
        tdown = target.down
        for x, ids in enumerate(source.up_ids):
            fx = table[x]
            for x2 in ids:
                if not (tdown[table[x2]] >> fx) & 1:
                    raise NotOrderPreserving(x, x2, fx, table[x2])
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
    """The text ``read_space`` reads X back from.  A label must be one
    token: an empty one, or one with whitespace, raises InvalidParameter
    naming its point."""
    lines = [f"space {name} {X.n}"]
    for p, label in enumerate(X.labels):
        if label.split() != [label]:
            raise InvalidParameter(
                f"point {p}: label {label!r} is not one token, so it cannot "
                "be read back"
            )
        lines.append(f"point {p} {label}")
    for lo, hi in X.covers:
        lines.append(f"cover {lo} {hi}")
    return "\n".join(lines) + "\n"


def parse_ints(tokens, line: str) -> list:
    """``tokens``, read from the text ``line``, as integers."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise InvalidParameter(f"not an integer in {line!r}") from None


def read_space(text: str) -> FiniteSpace:
    labels = {}
    covers = []
    n = None
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "space" and len(parts) == 3:
            if n is not None:
                raise InvalidParameter(f"second space header: {line!r}")
            (n,) = parse_ints(parts[2:], line)
            if n < 0:
                raise InvalidParameter(f"negative point count: {line!r}")
        elif parts[0] == "point" and len(parts) in (2, 3):
            (p,) = parse_ints(parts[1:2], line)
            if p in labels:
                raise InvalidParameter(f"point {p} given twice: {line!r}")
            labels[p] = parts[-1]
        elif parts[0] == "cover" and len(parts) == 3:
            covers.append(tuple(parse_ints(parts[1:], line)))
        else:
            raise InvalidParameter(f"bad space line: {line!r}")
    if n is None:
        raise InvalidParameter("missing space header")
    for p in labels:
        if not 0 <= p < n:
            raise InvalidParameter(f"point {p} outside 0..{n - 1}")
    return build_space([labels.get(i, str(i)) for i in range(n)], covers)


def parse_downset(space: FiniteSpace, text: str) -> DownSet:
    m = 0
    for p in parse_ints(text.split(), text):
        if not 0 <= p < space.n:
            raise InvalidParameter(f"point {p} outside the space")
        m |= 1 << p
    return DownSet(space, m)
