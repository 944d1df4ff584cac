"""Homotopy of maps between finite spaces via Stong fences and cores.

The machinery here is exact: every "not homotopic" answer rests on an
obstruction or an exhausted search, and budget exhaustion surfaces as an
explicit Unknown, never as a guess.  'auto' decides between the cores,
core(X) -> core(Y), and a "homotopic" answer carries a fence on the domain
from f to g, which ``HomotopyVerdict.replay`` re-checks anchored at f and
g: a fence found between the cores is lifted back through the collapses
of Y and of X.  The domain is collapsed in place (``collapse``), and one
record, ``Collapse``, keeps a collapse in the ids of the space it ran in;
``core(X)`` is the collapse of all of X.  So the same stages
(``decide_on_core``) decide maps from a piece of a larger space into a
target whose core the caller collapses once: ``homotopic`` on all of the
domain, ``nullhomotopic_in`` and generic ``cat`` on open pieces, and
``TorusChecker`` on pieces of S x S.  They copy only the piece's core,
and the piece itself only as the space of a lifted fence.  Maps into a
circle are classified by the windings of one lift kernel, ``Lift``: its
``grow`` lifts two tables to the digital line along a spanning forest,
from scratch or from the lift of a smaller open piece, and reports the
first cycle of forbidden winding, or of winding (d, d), d != 0.  The
circle stage grows it once on the domain core, and ``TorusChecker``
grows it along exact search; a winding-free lift, ``rooted`` at the
least point of each component, is clamped to a fence with ``_clamps``
and ``through_constants``.  Only the rigidity verdict (equal nonzero
degree on a circle core) and the 'exhaustive-components' strategy carry
no fence, so ``replay()`` is False on their verdicts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .circles import recognize_circle
from .errors import BudgetExceeded, MismatchedSpaces, NotOpen
from .space import (
    DownSet,
    FiniteSpace,
    OrderMap,
    bits,
    check_continuous,
    identity_map,
)

DEFAULT_BUDGET = 10**6


# -- pointwise comparison of maps -------------------------------------


def comparable(f: OrderMap, g: OrderMap):
    """Pointwise comparison: 'equal', 'leq', 'geq' or None (incomparable)."""
    if f.source != g.source or f.target != g.target:
        raise MismatchedSpaces("maps must share source and target")
    return table_cmp(f.target, f.table, g.table)


def table_cmp(Y: FiniteSpace, t1, t2):
    leq = True
    geq = True
    for a, b in zip(t1, t2):
        if a == b:
            continue
        if not Y.leq(a, b):
            leq = False
        if not Y.leq(b, a):
            geq = False
        if not (leq or geq):
            return None
    if leq and geq:
        return "equal"
    return "leq" if leq else "geq"


@dataclass
class HomotopyVerdict:
    """Outcome of a homotopy decision.

    status is 'homotopic', 'not_homotopic' or 'unknown'.  A homotopic
    verdict may carry a fence, a list of value tables ``fence_space`` ->
    ``target``.  Which ones do:

    - equal maps, a point core, agreement on the domain core (before or
      after the target retracts onto its core), circle classification
      with no winding, and fence BFS: a fence on the domain, from f to g;
    - circle classification by rigidity (equal nonzero degree): none
      (``fence == []``), with the domain core's point ids in the domain
      in ``core_old_ids``;
    - 'exhaustive-components': none, so ``replay()`` is False on it.

    Outside ``homotopic``, a piece of S x S with no winding carries a lift
    fence on the piece: a categorical one from the inclusion to a
    constant, a section-categorical one from pi1|U to pi2|U.  An empty
    piece carries none.
    """

    status: str
    fence: list = field(default_factory=list)
    fence_space: FiniteSpace | None = None
    target: FiniteSpace | None = None
    reason: str = ""
    core_old_ids: list | None = None

    @property
    def is_homotopic(self):
        return self.status == "homotopic"

    def replay(self, f: OrderMap | None = None, g: OrderMap | None = None) -> bool:
        """Re-check the certificate: a non-empty fence of continuous maps,
        consecutive ones comparable.  Given f and g, it must also be a fence
        on their domain that starts at f and ends at g.
        """
        if self.status != "homotopic" or not self.fence:
            return False
        if f is not None and g is not None:
            if (
                f.source != self.fence_space
                or f.target != self.target
                or self.fence[0] != f.table
                or self.fence[-1] != g.table
            ):
                return False
        maps = [
            check_continuous(self.fence_space, self.target, t)[0]
            for t in self.fence
        ]
        if None in maps:
            return False
        for a, b in zip(maps, maps[1:]):
            if comparable(a, b) is None:
                return False
        return True


# -- beat points and cores --------------------------------------------


def _beat_status(X: FiniteSpace, mask: int, live, x: int):
    """(kind, witness) when x is a beat point of the subspace ``mask``,
    else None; an up beat point is reported before a down one.

    ``live[y]`` tells whether y is in ``mask``.  The witness is the
    minimum (maximum) of the strict up- (down-) set of x within ``mask``.
    Candidates are read off x's id tuple in X, so x itself and removed
    points are skipped before the subset test."""
    bx = 1 << x
    up = (X.up[x] & mask) ^ bx
    if up:
        ups = X.up
        for y in X.up_ids[x]:
            if y != x and live[y] and ups[y] & up == up:
                return ("up", y)
    down = (X.down[x] & mask) ^ bx
    if down:
        downs = X.down
        for y in X.down_ids[x]:
            if y != x and live[y] and downs[y] & down == down:
                return ("down", y)
    return None


@dataclass(slots=True)
class Collapse:
    """The strong collapse of the piece ``mask`` of ``X``, run in place:
    ``removals`` (point, kind, witness) in removal order and ``kept``, the
    core's mask, are in X's ids.  ``space`` is the core as a standalone
    space, and ``core_ids`` its points' ids in X; it is X itself when
    nothing was removed from all of X, and else the one copy made.
    ``core(X)`` is the collapse of all of X.  The piece is copied only when
    ``piece`` is read, and by ``retraction``, whose source it is."""

    X: FiniteSpace
    mask: int
    kept: int
    removals: list
    space: FiniteSpace
    core_ids: list

    @property
    def old_ids(self) -> list:
        """The core's points as ids of the piece: the ranks of their bits
        in ``mask``."""
        mask = self.mask
        return [(mask & ((1 << p) - 1)).bit_count() for p in self.core_ids]

    @property
    def piece(self) -> FiniteSpace:
        """The piece as a standalone space, point i being the i-th point of
        ``mask``: X itself for all of X, the core when it has no beat point,
        else a copy."""
        if not self.removals:
            return self.space
        if self.mask == self.X.full:
            return self.X
        return self.X.subspace(self.mask)[0]

    @property
    def retraction(self) -> OrderMap:
        """The retraction of the piece onto its core, read off the removals
        backwards: a checked map, built on every read."""
        if not self.removals:
            return identity_map(self.space)
        send = list(range(self.X.n))
        for x, _, w in reversed(self.removals):
            send[x] = send[w]
        index = {p: i for i, p in enumerate(self.core_ids)}
        return OrderMap(
            self.piece, self.space, [index[send[p]] for p in bits(self.mask)]
        )

    @property
    def fence(self) -> list:
        """Value tables from the piece into X, from its inclusion to its
        retraction (in X's ids), one per removal; on all of X they run from
        the identity.  Rebuilt from the removals on every read."""
        send = list(bits(self.mask))
        out = [tuple(send)]
        for x, _, w in self.removals:
            send = [w if v == x else v for v in send]
            out.append(tuple(send))
        return out


def collapse(X: FiniteSpace, mask: int) -> Collapse:
    """Strong-collapse the subspace ``mask`` of X to a beat-point-free
    deformation retract, in place: the piece is not copied, only its core.

    Removal is deterministic (lowest point id first); by Stong the result
    is independent of the order up to homeomorphism, and since the ids of
    a subspace keep the order of X's, it removes what ``core`` of the
    copied subspace would.  A worklist holds the points whose beat status
    may have changed, every point of ``mask`` at first: the least one is
    popped and its status (kind, witness) computed in the current
    subspace, and if it is a beat point it is removed and its live
    comparable points not yet queued are queued again.  A point off the
    list stays non-beat until a point comparable to it is removed, so the
    least popped beat point is the least beat point.
    """
    if mask == X.full:
        heap = list(range(X.n))  # increasing, so already a heap
        live = [True] * X.n
    else:
        heap = list(bits(mask))
        live = [False] * X.n
        for x in heap:
            live[x] = True
    queued = live[:]
    removals = []
    kept = mask
    while heap:
        x = heappop(heap)
        queued[x] = False
        status = _beat_status(X, kept, live, x)
        if status is None:
            continue
        removals.append((x, *status))
        kept ^= 1 << x
        live[x] = False
        for near in (X.up_ids[x], X.down_ids[x]):
            for y in near:
                if not queued[y] and live[y]:
                    queued[y] = True
                    heappush(heap, y)
    C, ids = (X, range(X.n)) if kept == X.full else X.subspace(kept)
    return Collapse(X, mask, kept, removals, C, ids)


def core(X: FiniteSpace) -> Collapse:
    """Strong-collapse X to its core: ``collapse`` on all of X, which
    builds no map.  A space with no beat point is its own core, with the
    identity as retraction: the scan proves it minimal, and nothing is
    copied."""
    return collapse(X, X.full)


# -- enumeration of continuous maps -----------------------------------


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        if self.left <= 0:
            raise BudgetExceeded("map-enumeration budget exhausted")
        self.left -= 1


def _later_comparable(X: FiniteSpace):
    """``later[i]``: the points j > i comparable to i, each with whether it
    lies above i, read off ``X.up_ids`` / ``X.down_ids``.  Built once per
    search and shared by all its calls of ``_enumerate_tables``."""
    return [
        [(j, True) for j in ups if j > i] + [(j, False) for j in downs if j > i]
        for i, (ups, downs) in enumerate(zip(X.up_ids, X.down_ids))
    ]


def _enumerate_tables(later, Y: FiniteSpace, cand, budget: _Budget):
    """Backtracking over order-preserving tables X -> Y, where ``later`` is
    ``_later_comparable(X)``; tables come in lexicographic order.

    ``cand`` is a per-point bitmask of allowed target values.  Constraint
    propagation restricts every comparable pair, as listed in ``later``,
    as soon as one side is assigned.  The order of ``later[i]`` does not
    change the tables yielded or the budget spent: every restriction is
    undone before the next value is tried, and an emptied candidate set
    rejects the value whichever pair empties it first.

    The search is one loop over an explicit stack, so it has no depth
    limit: at depth i, ``untried[i]`` is the mask of values of point i not
    yet tried and ``saved[i]`` the restrictions (j, old cand[j]) made by
    the value it holds now, undone when depth i + 1 runs out of values.
    Every value tried spends one unit of ``budget``.
    """
    n = len(later)
    if n == 0:
        yield ()
        return
    cand = list(cand)
    table = [0] * n
    untried = [0] * n
    saved = [None] * n
    Yup, Ydown = Y.up, Y.down
    spend = budget.spend
    last = n - 1
    i = 0
    untried[0] = cand[0]
    while True:
        m = untried[i]
        if not m:
            if i == 0:
                return
            i -= 1
            for j, old in saved[i]:
                cand[j] = old
            continue
        low = m & -m
        untried[i] = m ^ low
        v = low.bit_length() - 1
        spend()
        table[i] = v
        above, below = Yup[v], Ydown[v]
        undo = []
        for j, up in later[i]:
            old = cand[j]
            new = old & (above if up else below)
            if new != old:
                undo.append((j, old))
                cand[j] = new
                if not new:
                    break
        else:
            if i == last:
                yield tuple(table)
                continue  # later[last] is empty: nothing to undo
            saved[i] = undo
            i += 1
            untried[i] = cand[i]
            continue
        for j, old in undo:
            cand[j] = old


def enumerate_maps(X: FiniteSpace, Y: FiniteSpace, budget=DEFAULT_BUDGET):
    """All continuous maps X -> Y as value tables."""
    b = _Budget(budget)
    full = Y.full
    return list(_enumerate_tables(_later_comparable(X), Y, [full] * X.n, b))


def _neighbor_tables(later, Y, table, direction, budget: _Budget):
    """Continuous tables pointwise above ('up') or below ('down') table."""
    if direction == "up":
        cand = [Y.up[v] for v in table]
    else:
        cand = [Y.down[v] for v in table]
    return _enumerate_tables(later, Y, cand, budget)


def fence_bfs(f: OrderMap, g: OrderMap, budget=DEFAULT_BUDGET):
    """BFS over the comparability graph of continuous maps from f to g.

    Returns a HomotopyVerdict; 'not_homotopic' is only reported when the
    whole component of f was exhausted within the budget.  The reason
    counts the maps reached, f included, and the budget spent; an
    exhausted budget gives 'unknown'.
    """
    if f.source != g.source or f.target != g.target:
        raise MismatchedSpaces("maps must share source and target")
    X, Y = f.source, f.target
    start, goal = f.table, g.table
    if start == goal:
        return HomotopyVerdict(
            "homotopic", [start], X, Y, reason="maps equal"
        )
    b = _Budget(budget)
    later = _later_comparable(X)
    parent = {start: None}
    queue = deque([start])
    try:
        while queue:
            cur = queue.popleft()
            for direction in ("up", "down"):
                for nxt in _neighbor_tables(later, Y, cur, direction, b):
                    if nxt in parent:
                        continue
                    parent[nxt] = cur
                    if nxt == goal:
                        fence = [nxt]
                        while fence[-1] is not None:
                            prev = parent[fence[-1]]
                            if prev is None:
                                break
                            fence.append(prev)
                        fence.reverse()
                        return HomotopyVerdict(
                            "homotopic", fence, X, Y,
                            reason=f"fence-bfs reached g among {len(parent)} "
                            f"maps (budget {budget - b.left} of {budget} spent)",
                        )
                    queue.append(nxt)
    except BudgetExceeded:
        return HomotopyVerdict(
            "unknown",
            reason=f"fence-bfs budget {budget} exhausted "
            f"after reaching {len(parent)} maps",
        )
    return HomotopyVerdict(
        "not_homotopic",
        reason=f"comparability component of f exhausted ({len(parent)} maps, "
        f"budget {budget - b.left} of {budget} spent) without reaching g",
    )


def hom_components(X: FiniteSpace, Y: FiniteSpace, budget=DEFAULT_BUDGET):
    """Partition of all continuous maps X -> Y into homotopy classes.

    Brute-force oracle: enumerate every map, link comparable pairs, return
    the connected components of the comparability graph (lists of tables).
    """
    tables = enumerate_maps(X, Y, budget)
    index = {t: i for i, t in enumerate(tables)}
    parent = list(range(len(tables)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    # linking via comparability: it suffices to link each map with its
    # pointwise-upward neighbours
    b = _Budget(budget * 4)
    later = _later_comparable(X)
    for t in tables:
        i = index[t]
        for nxt in _neighbor_tables(later, Y, t, "up", b):
            if nxt != t:
                union(i, index[nxt])
    groups = {}
    for t in tables:
        groups.setdefault(find(index[t]), []).append(t)
    return sorted(groups.values(), key=lambda g: (len(g), g[0]))


# -- homotopy decision -------------------------------------------------


def _constants_fence(X: FiniteSpace, Y: FiniteSpace, a: int, b: int):
    """Fence between constant maps at a and b along an order path, if any."""
    # BFS over the comparability graph of Y
    parent = {a: None}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            path = [b]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            return [tuple([v] * X.n) for v in path]
        for nxt in sorted(Y.up_ids[cur] + Y.down_ids[cur]):
            if nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    return None


def _lift_core_fence(t1, t2, cl: Collapse, core_fence, Y, reason):
    """A homotopic verdict with a fence on the piece of ``cl`` from f to g
    (the maps into Y that the tables ``t1``, ``t2`` on ``cl.X`` restrict
    to) through a fence on its core.

    f o s along the collapse, then h o r for each core-fence map h (r the
    retraction), then g o s back along the collapse; consecutive repeats
    are dropped.  The retraction's source, the piece, is the fence's.
    """
    retraction = cl.retraction
    r = retraction.table
    steps = cl.fence
    tables = [tuple(t1[v] for v in s) for s in steps]
    tables += [tuple(h[v] for v in r) for h in core_fence]
    tables += [tuple(t2[v] for v in s) for s in reversed(steps)]
    fence = [tables[0]]
    for t in tables[1:]:
        if t != fence[-1]:
            fence.append(t)
    return HomotopyVerdict("homotopic", fence, retraction.source, Y, reason=reason)


# -- maps into a circle: lifts and windings ---------------------------


class Lift:
    """The lift of two tables X -> S to the digital line, S a circle with
    residue numbering ``num`` (as from ``recognize_circle``), grown on
    pieces of X (``grow``).

    A comparable pair (p, x), x above p, has lifted displacements from p
    to x under both tables, each -1, 0 or +1 for a continuous table.  A
    state labels a piece with the lifts of both tables along a spanning
    forest and each point's component.  A pair is balanced when the lifts
    at p plus its displacements give the lifts at x; else it closes a
    cycle of the forest, which winds (w1, w2) under the two tables, in
    lift steps (2n to a turn of a 2n-point circle).  ``_below[x]`` holds
    the pairs below x with their displacements, and ``_height[x]`` their
    number, both filled in when ``grow`` first meets x.
    """

    __slots__ = ("X", "r1", "r2", "size", "_below", "_height")

    def __init__(self, X: FiniteSpace, t1, t2, num):
        self.X = X
        self.size = len(num)
        self.r1 = list(map(num.__getitem__, t1))
        self.r2 = list(map(num.__getitem__, t2))
        self._below = [None] * X.n
        self._height = [0] * X.n

    def grow(self, state, mask: int, cat: bool = False):
        """The lift on the piece ``mask`` of X, grown from ``state``, the
        lift on a piece inside it that holds every point of ``mask`` below
        its points, as an open piece does (None: on the empty piece), as
        (hit, state).

        ``hit`` is the first pair (p, x, w1, w2) whose cycle has forbidden
        windings: w1 != w2, or with ``cat`` either one nonzero; the state
        is None then.  Else hit is None and the state is (mask, phi1,
        phi2, comp, wound): the lifts, the component of each point (the
        id of a point of it, -1 off the piece), and ``wound``, the first
        pair whose cycle winds (d, d), d != 0, or None.  Whether a hit or
        a wound pair exists does not depend on the forest.

        Only the new points are labelled, top down, and only the pairs
        below a new point are read: a new point has no old point above
        it.  A pair that joins two components shifts one of them to
        balance the pair; the others close cycles.  From None, every point
        of ``mask`` is new, so any subspace of X can be grown.
        """
        X = self.X
        n = X.n
        if state is None:
            old, wound = 0, None
            phi1, phi2, comp = [0] * n, [0] * n, [-1] * n
        else:
            old, phi1, phi2, comp, wound = state
            phi1, phi2, comp = phi1[:], phi2[:], comp[:]
        r1, r2, size = self.r1, self.r2, self.size
        below, height = self._below, self._height
        new = list(bits(mask & ~old))
        down_ids = X.down_ids
        for x in new:
            comp[x] = -2  # in the piece, not labelled yet
            if below[x] is None:
                # a loop, not a comprehension: most points have few pairs
                # below, and a lift grown once pays for every list it makes
                a1, a2 = r1[x], r2[x]
                below[x] = pairs = []
                for p in down_ids[x]:
                    if p != x:
                        pairs.append(
                            (p, (a1 - r1[p] + 1) % size - 1, (a2 - r2[p] + 1) % size - 1)
                        )
                height[x] = len(pairs)
        new.sort(key=height.__getitem__, reverse=True)
        for x in new:
            cx = comp[x]
            if cx == -2:
                # nothing above x is labelled: label x from the first
                # labelled point below it, or root a new component at x
                for p, d1, d2 in below[x]:
                    if comp[p] >= 0:
                        a1, a2, cx = phi1[p] + d1, phi2[p] + d2, comp[p]
                        break
                else:
                    a1, a2, cx = r1[x], r2[x], x
                phi1[x], phi2[x], comp[x] = a1, a2, cx
            else:
                a1, a2 = phi1[x], phi2[x]
            for p, d1, d2 in below[x]:
                cp = comp[p]
                if cp == cx:
                    w1, w2 = phi1[p] + d1 - a1, phi2[p] + d2 - a2
                    if w1 != w2 or cat and w1:
                        return (p, x, w1, w2), None
                    if w1 and wound is None:
                        wound = (p, x, w1, w2)
                elif cp == -2:
                    phi1[p], phi2[p], comp[p] = a1 - d1, a2 - d2, cx
                elif cp >= 0:
                    s1, s2 = a1 - d1 - phi1[p], a2 - d2 - phi2[p]
                    for y in range(n):
                        if comp[y] == cp:
                            phi1[y] += s1
                            phi2[y] += s2
                            comp[y] = cx
        return None, (mask, phi1, phi2, comp, wound)

    def rooted(self, state, points):
        """The lifts of ``state`` at ``points``, in increasing order, as a
        dict p -> (L1, L2), each component shifted so that its least point
        sits at its residues.  On a component with no winding the lift is
        unique up to that shift, so it is the lift of a forest rooted at
        the least point."""
        _, phi1, phi2, comp, _ = state
        r1, r2 = self.r1, self.r2
        shifts, phi = {}, {}
        for p in points:
            s1, s2 = shifts.setdefault(comp[p], (r1[p] - phi1[p], r2[p] - phi2[p]))
            phi[p] = (phi1[p] + s1, phi2[p] + s2)
        return phi


def degrees(hit, rec, size: int):
    """The degrees of two tables from a circle numbered by ``rec`` into a
    ``size``-point one, from the first pair of their ``Lift`` that closes
    a cycle, (p, q, w1, w2) as a hit or a wound pair of ``Lift.grow``
    (None: both 0).  A circle has one cycle, and the pair (p, q) closes it
    running from p to q, so the numbering orients it."""
    if hit is None:
        return 0, 0
    p, q, w1, w2 = hit
    m, num = rec
    sign = 1 if (num[q] - num[p]) % (2 * m) == 1 else -1
    return sign * w1 // size, sign * w2 // size


def oriented(hit) -> str:
    """The windings "(w1,w2)" of the cycle that the pair ``hit`` closes,
    read in the direction that makes the first nonzero one positive: a
    grown lift may close a cycle from either side."""
    _, _, w1, w2 = hit
    if (w1 or w2) < 0:
        w1, w2 = -w1, -w2
    return f"({w1},{w2})"


def _clamps(L, num):
    """Tables of z -> min(z, c) on the integer lift ``L``, for c from
    max(L) down to min(L): from q o L to a constant, q sending z to the
    point that ``num`` numbers z mod 2n.

    Clamping from above is continuous on the digital line, and the clamps
    at c and c - 1 differ by one step in the same direction wherever they
    differ, so consecutive tables are comparable.  Each table is looked up
    through the short list of the clamped points of lo..hi, in ``map``.
    """
    size = len(num)
    point = sorted(range(size), key=num.__getitem__)
    lo, hi = min(L), max(L)
    at = [z - lo for z in L]
    tables = []
    for c in range(hi, lo - 1, -1):
        value = [point[min(z, c) % size] for z in range(lo, hi + 1)]
        tables.append(tuple(map(value.__getitem__, at)))
    return tables


def through_constants(X: FiniteSpace, S: FiniteSpace, phi, points, num):
    """A fence on X from q o L1 to q o L2, where ``phi[points[p]]`` =
    (L1, L2) at p lifts two maps X -> S, S a circle with residue
    numbering ``num``: L1 clamped down to a constant, an order path in S
    to the bottom constant of L2, and L2's clamps back up."""
    down = _clamps([phi[p][0] for p in points], num)
    up = _clamps([phi[p][1] for p in points], num)
    path = _constants_fence(X, S, down[-1][0], up[-1][0])
    return down[:-1] + path + up[-2::-1]


def _circle_stage(C, CY, ft2, gt2, recY, core_old_ids):
    """Classify ``ft2`` and ``gt2``, maps from the domain core C into the
    circle core ``CY`` numbered by ``recY``, by the windings of their
    lifts; None sends the pair on to fence BFS.

    A cycle with distinct windings refutes f ~ g.  With no winding both
    maps lift to the digital line, and a fence C -> CY through constants
    proves it.  Equal nonzero windings on a circle C give degree d on
    both sides, and f ~ g iff |d| n < m (rigidity, no fence; the points
    of C in the domain are ``core_old_ids``).
    """
    n, num = recY
    lift = Lift(C, ft2, gt2, num)
    hit, state = lift.grow(None, C.full)
    if hit is not None:
        return HomotopyVerdict(
            "not_homotopic",
            reason="circle classification: cycle with distinct windings "
            + oriented(hit),
        )
    wound = state[4]
    if wound is None:
        points = range(C.n)
        fence = through_constants(C, CY, lift.rooted(state, points), points, num)
        return HomotopyVerdict(
            "homotopic", fence, C, CY,
            reason="circle classification: both maps lift to the digital line; "
            f"fence of {len(fence)} maps through constants",
        )
    rec = recognize_circle(C)
    if rec is None:
        return None
    m, d = rec[0], degrees(wound, rec, len(num))[0]
    if abs(d) * n < m:
        return HomotopyVerdict(
            "homotopic", [], C, CY,
            reason=f"circle classification: both maps have degree {d} "
            f"with |d| < {m}/{n}",
            core_old_ids=core_old_ids,
        )
    return HomotopyVerdict(
        "not_homotopic",
        reason=f"circle classification: degrees {d} vs {d}, rigidity bound {m}/{n}",
    )


def _lift_fence(t1, t2, cl: Collapse, clY: Collapse, ft, gt, v: HomotopyVerdict):
    """The verdict ``v`` with its fence core(X) -> core(Y), from r_Y o f|C
    to r_Y o g|C, lifted to a fence on the piece X of ``cl`` from f to g
    (tables ``t1``, ``t2`` on ``cl.X``; ``ft``, ``gt``: f|C and g|C as
    tables into Y, and ``clY`` the collapse of all of Y).

    s o f|C along the collapse of Y, then i_Y o h for each core-fence map
    h, then s o g|C back along the collapse, gives a fence C -> Y from
    f|C to g|C; ``_lift_core_fence`` carries it to X.
    """
    steps = clY.fence
    old_ids = clY.core_ids
    tables = [tuple(s[v] for v in ft) for s in steps]
    tables += [tuple(old_ids[v] for v in h) for h in v.fence]
    tables += [tuple(s[v] for v in gt) for s in reversed(steps)]
    return _lift_core_fence(t1, t2, cl, tables, clY.X, v.reason)


def decide_on_core(cl: Collapse, t1, t2, clY: Collapse, budget: int):
    """Decide f ~ g for the maps f, g from the piece ``cl.mask`` of
    ``cl.X`` into Y = ``clY.X`` that the tables ``t1``, ``t2`` on ``cl.X``
    restrict to, between the cores (Stong: f ~ g iff r_Y o f|core(X) ~
    r_Y o g|core(X) as maps core(X) -> core(Y)).  X is the piece, ``cl``
    its collapse, and ``clY`` Y's core, which a caller collapses once for
    all its pieces.  The empty piece vacuously is homotopic.

    The stages read the tables at the core's points only.  Maps that
    agree on core(X) are equal, or get a fence through the collapse of X
    (``_lift_core_fence``).  Every other stage gives a verdict between the
    cores, and a homotopic one with a fence core(X) -> core(Y) is lifted
    once, back through the collapse of Y and then of X (``_lift_fence``);
    only rigidity carries no fence.  The piece is copied only to be the
    space of a homotopic verdict's fence.
    """
    if not cl.mask:
        return HomotopyVerdict("homotopic", reason="empty piece (vacuous)")
    Y = clY.X
    C, ids = cl.space, cl.core_ids
    ft = tuple(t1[p] for p in ids)
    gt = tuple(t2[p] for p in ids)
    if ft == gt:
        points = list(bits(cl.mask))
        f1 = tuple(t1[p] for p in points)
        if f1 == tuple(t2[p] for p in points):
            return HomotopyVerdict("homotopic", [f1], cl.piece, Y, reason="maps equal")
        return _lift_core_fence(t1, t2, cl, [ft], Y, "maps agree on the domain core")
    # retract the target onto its core as well
    rY = clY.retraction.table
    ft2 = tuple(rY[v] for v in ft)
    gt2 = tuple(rY[v] for v in gt)
    CY = clY.space
    target = f"target core ({CY.n} of {Y.n} points)"
    if C.n == 1:
        fence = _constants_fence(C, CY, ft2[0], gt2[0])
        if fence is None:
            return HomotopyVerdict(
                "not_homotopic",
                reason="constant values lie in different components",
            )
        v = HomotopyVerdict(
            "homotopic", fence, C, CY,
            reason="domain core is a point; constants joined by order path "
            f"in the {target}",
        )
    elif ft2 == gt2:
        v = HomotopyVerdict(
            "homotopic", [ft2], C, CY,
            reason="maps agree on the domain core once the target retracts "
            f"onto its core ({CY.n} of {Y.n} points)",
        )
    else:
        recY = recognize_circle(CY)
        v = None if recY is None else _circle_stage(C, CY, ft2, gt2, recY, cl.old_ids)
    if v is None:
        v = fence_bfs(OrderMap(C, CY, ft2), OrderMap(C, CY, gt2), budget)
        v.reason += (
            f" on the domain core ({C.n} of {cl.mask.bit_count()} points), {target}"
        )
    if v.fence:
        return _lift_fence(t1, t2, cl, clY, ft, gt, v)
    return v


def homotopic(
    f: OrderMap,
    g: OrderMap,
    strategy: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> HomotopyVerdict:
    """Decide whether f ~ g.

    'auto' decides between the cores, in stages: equal tables; maps that
    agree on core(X); a point core (constants joined by an order path in
    core(Y)); maps that agree on core(X) once composed with the retraction
    r_Y onto core(Y); a circle core(Y) (classification by the windings of
    the lifts, ``_circle_stage``); else fence BFS from r_Y o f|core(X) to
    r_Y o g|core(X) in the maps core(X) -> core(Y).  Each stage but
    rigidity gives a fence on X from f to g, lifted back through both
    collapses.
    'fence-bfs' and 'exhaustive-components' work on the full domain and
    serve as brute-force references.
    """
    if f.source != g.source or f.target != g.target:
        raise MismatchedSpaces("maps must share source and target")
    if f.table == g.table:
        return HomotopyVerdict(
            "homotopic", [f.table], f.source, f.target, reason="maps equal"
        )
    if strategy == "auto":
        return decide_on_core(core(f.source), f.table, g.table, core(f.target), budget)
    if strategy == "fence-bfs":
        return fence_bfs(f, g, budget)
    if strategy == "exhaustive-components":
        try:
            comps = hom_components(f.source, f.target, budget)
        except BudgetExceeded:
            return HomotopyVerdict(
                "unknown", reason="enumeration budget exhausted"
            )
        for comp in comps:
            if f.table in comp:
                if g.table in comp:
                    return HomotopyVerdict(
                        "homotopic", [], f.source, f.target,
                        reason="same component of the full hom-set",
                    )
                return HomotopyVerdict(
                    "not_homotopic", reason="different hom-set components"
                )
        raise AssertionError("f not found among enumerated maps")
    raise ValueError(f"unknown strategy {strategy!r}")


def nullhomotopic_in(
    U: DownSet, X: FiniteSpace, budget: int = DEFAULT_BUDGET
) -> HomotopyVerdict:
    """Is the inclusion U -> X homotopic to a constant map, at U's least
    point?  The empty piece vacuously is.  U is collapsed inside X and the
    two maps are given as tables on X, so ``decide_on_core`` builds
    neither map and copies U only as the space of a lifted fence."""
    if U.space != X:
        raise MismatchedSpaces("U must be a subset of X")
    if not X.is_open(U.members):
        raise NotOpen("U is not open in X")
    mask = U.members
    base = (mask & -mask).bit_length() - 1  # -1 on the empty piece, never read
    return decide_on_core(collapse(X, mask), range(X.n), [base] * X.n, core(X), budget)
