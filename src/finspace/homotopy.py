"""Homotopy of maps between finite spaces via Stong fences and cores.

The machinery here is exact: every "homotopic" answer carries a replayable
fence certificate, every "not homotopic" answer an obstruction, and budget
exhaustion surfaces as an explicit Unknown, never as a guess.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import BudgetExceeded, MismatchedSpaces, NotMinimal, NotOpen
from .space import (
    DownSet,
    FiniteSpace,
    OrderMap,
    bits,
    popcount,
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


@dataclass(frozen=True)
class FenceStep:
    frm: OrderMap
    to: OrderMap
    direction: str  # 'leq' | 'geq' | 'equal'


@dataclass
class HomotopyVerdict:
    """Outcome of a homotopy decision.

    status is 'homotopic', 'not_homotopic' or 'unknown'.  A homotopic
    verdict carries a fence (list of value tables on ``fence_space``); the
    fence may live on a core of the original domain, in which case
    ``core_old_ids`` records the inclusion used.
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

    def replay(self) -> bool:
        """Re-check the certificate: continuity and comparability of steps."""
        if self.status != "homotopic" or not self.fence:
            return self.status == "homotopic"
        maps = [
            OrderMap(self.fence_space, self.target, t) for t in self.fence
        ]
        for a, b in zip(maps, maps[1:]):
            if comparable(a, b) is None:
                return False
        return True


# -- beat points and cores --------------------------------------------


def beat_points(X: FiniteSpace):
    """All beat points as (point, kind, witness).

    kind 'up' means the strict up-set has a minimum (the witness); 'down'
    dually.
    """
    out = []
    for x in range(X.n):
        up = X.up[x] & ~(1 << x)
        if up:
            for y in bits(up):
                if up & ~X.up[y]:
                    continue
                out.append((x, "up", y))
                break
        down = X.down[x] & ~(1 << x)
        if down:
            for y in bits(down):
                if down & ~X.down[y]:
                    continue
                out.append((x, "down", y))
                break
    return out


def _beat_in_mask(X: FiniteSpace, mask: int):
    """Lowest-id beat point of the subspace ``mask``, or None."""
    for x in bits(mask):
        up = X.up[x] & mask & ~(1 << x)
        if up:
            for y in bits(up):
                if not (up & ~(X.up[y] & mask)):
                    return (x, "up", y)
        down = X.down[x] & mask & ~(1 << x)
        if down:
            for y in bits(down):
                if not (down & ~(X.down[y] & mask)):
                    return (x, "down", y)
    return None


@dataclass
class CollapseSequence:
    start: FiniteSpace
    removals: list  # (point, kind, witness) in removal order
    end_mask: int


@dataclass
class CoreData:
    space: FiniteSpace  # the core as a standalone space
    old_ids: list  # core point id -> id in the original space
    retraction: OrderMap  # X -> core
    inclusion: OrderMap  # core -> X
    sequence: CollapseSequence
    fence: list  # value tables X -> X from identity to the full retraction

    @property
    def mask(self) -> int:
        return self.sequence.end_mask


def core(X: FiniteSpace) -> CoreData:
    """Strong-collapse X to a beat-point-free deformation retract.

    Removal is deterministic (lowest point id first); by Stong the result
    is independent of the order up to homeomorphism.
    """
    mask = X.full
    removals = []
    send = list(range(X.n))  # running retraction X -> X
    fence = [tuple(send)]
    while True:
        hit = _beat_in_mask(X, mask)
        if hit is None:
            break
        x, kind, w = hit
        removals.append(hit)
        mask &= ~(1 << x)
        step = [w if v == x else v for v in send]
        send = step
        fence.append(tuple(send))
    sub, old_ids = X.subspace(mask)
    index = {p: i for i, p in enumerate(old_ids)}
    retraction = OrderMap(X, sub, [index[v] for v in send])
    inclusion = OrderMap(sub, X, old_ids)
    return CoreData(
        sub,
        old_ids,
        retraction,
        inclusion,
        CollapseSequence(X, removals, mask),
        fence,
    )


def is_contractible(X: FiniteSpace) -> bool:
    return core(X).space.n == 1


# -- enumeration of continuous maps -----------------------------------


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        if self.left <= 0:
            raise BudgetExceeded("map-enumeration budget exhausted")
        self.left -= 1


def _enumerate_tables(X: FiniteSpace, Y: FiniteSpace, cand, budget: _Budget):
    """Backtracking over order-preserving tables.

    ``cand`` is a per-point bitmask of allowed target values.  Constraint
    propagation restricts every comparable pair as soon as one side is
    assigned.
    """
    n = X.n
    cand = list(cand)
    table = [0] * n

    def assign(i):
        if i == n:
            yield tuple(table)
            return
        m = cand[i]
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            budget.spend()
            table[i] = v
            saved = []
            ok = True
            for j in bits((X.up[i] | X.down[i]) & ~((1 << (i + 1)) - 1)):
                new = cand[j]
                if X.leq(i, j):
                    new &= Y.up[v]
                if X.leq(j, i):
                    new &= Y.down[v]
                if new != cand[j]:
                    saved.append((j, cand[j]))
                    cand[j] = new
                    if not new:
                        ok = False
                        break
            if ok:
                yield from assign(i + 1)
            for j, old in saved:
                cand[j] = old

    yield from assign(0)


def enumerate_maps(X: FiniteSpace, Y: FiniteSpace, budget=DEFAULT_BUDGET):
    """All continuous maps X -> Y as value tables."""
    b = _Budget(budget)
    full = Y.full
    return list(_enumerate_tables(X, Y, [full] * X.n, b))


def _neighbor_tables(X, Y, table, direction, budget: _Budget):
    """Continuous tables pointwise above ('up') or below ('down') table."""
    if direction == "up":
        cand = [Y.up[v] for v in table]
    else:
        cand = [Y.down[v] for v in table]
    return _enumerate_tables(X, Y, cand, budget)


def fence_bfs(f: OrderMap, g: OrderMap, budget=DEFAULT_BUDGET):
    """BFS over the comparability graph of continuous maps from f to g.

    Returns a HomotopyVerdict; 'not_homotopic' is only reported when the
    whole component of f was exhausted within the budget.
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
    parent = {start: None}
    queue = deque([start])
    try:
        while queue:
            cur = queue.popleft()
            for direction in ("up", "down"):
                for nxt in _neighbor_tables(X, Y, cur, direction, b):
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
                            "homotopic", fence, X, Y, reason="fence-bfs"
                        )
                    queue.append(nxt)
    except BudgetExceeded:
        return HomotopyVerdict(
            "unknown", reason=f"fence-bfs budget {budget} exhausted"
        )
    return HomotopyVerdict(
        "not_homotopic",
        reason=f"comparability component of f exhausted "
        f"({len(parent)} maps) without reaching g",
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
    for t in tables:
        i = index[t]
        for nxt in _neighbor_tables(X, Y, t, "up", b):
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
        for nxt in bits(Y.up[cur] | Y.down[cur]):
            if nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    return None


def _lift_core_fence(f: OrderMap, g: OrderMap, cd: CoreData, core_fence):
    """A fence on the full domain from f to g through a fence on core(X).

    f o s along the collapse, then h o r for each core-fence map h (r the
    retraction), then g o s back along the collapse; consecutive repeats
    are dropped.
    """
    r = cd.retraction.table
    tables = [tuple(f.table[v] for v in s) for s in cd.fence]
    tables += [tuple(h[v] for v in r) for h in core_fence]
    tables += [tuple(g.table[v] for v in s) for s in reversed(cd.fence)]
    fence = [tables[0]]
    for t in tables[1:]:
        if t != fence[-1]:
            fence.append(t)
    return fence


def _circle_verdict(ft, gt, C: FiniteSpace, CY: FiniteSpace, old_ids):
    """Degree classification of core tables C -> CY when both cores are
    circles; None when it does not apply."""
    from .circles import circle_map_from_order_map, classify_homotopic
    from .circles import recognize_circle

    rec_dom = recognize_circle(C)
    rec_tgt = recognize_circle(CY)
    if rec_dom is None or rec_tgt is None:
        return None
    cm_f = circle_map_from_order_map(ft, rec_dom, rec_tgt)
    cm_g = circle_map_from_order_map(gt, rec_dom, rec_tgt)
    if cm_f is None or cm_g is None:
        return None
    if classify_homotopic(cm_f, cm_g):
        return HomotopyVerdict(
            "homotopic", [],
            C, CY,
            reason=(
                f"circle classification: both maps have degree "
                f"{cm_f.degree()} with |d| < {rec_dom[0]}/{rec_tgt[0]}"
            ),
            core_old_ids=old_ids,
        )
    return HomotopyVerdict(
        "not_homotopic",
        reason=(
            f"circle classification: degrees {cm_f.degree()} vs "
            f"{cm_g.degree()}, rigidity bound {rec_dom[0]}/{rec_tgt[0]}"
        ),
    )


def _decide_on_core(f: OrderMap, g: OrderMap, budget: int):
    """Decide f ~ g on the domain core (Stong: f ~ g iff the restrictions
    to core(X) are homotopic)."""
    X, Y = f.source, f.target
    cd = core(X)
    ft = tuple(f.table[p] for p in cd.old_ids)
    gt = tuple(g.table[p] for p in cd.old_ids)
    C = cd.space
    if ft == gt:
        return HomotopyVerdict(
            "homotopic", _lift_core_fence(f, g, cd, [ft]), X, Y,
            reason="maps agree on the domain core",
        )
    # retract the target onto its core as well
    cdY = core(Y)
    ft2 = tuple(cdY.retraction.table[v] for v in ft)
    gt2 = tuple(cdY.retraction.table[v] for v in gt)
    CY = cdY.space
    if C.n == 1:
        fence = _constants_fence(C, CY, ft2[0], gt2[0])
        if fence is None:
            return HomotopyVerdict(
                "not_homotopic",
                reason="constant values lie in different components",
            )
        # certificate on the core domain, into the core target
        return HomotopyVerdict(
            "homotopic", fence, C, CY,
            reason="domain core is a point; constants joined by order path",
            core_old_ids=cd.old_ids,
        )
    v = _circle_verdict(ft2, gt2, C, CY, cd.old_ids)
    if v is not None:
        return v
    v = fence_bfs(OrderMap(C, Y, ft), OrderMap(C, Y, gt), budget)
    where = f" on the domain core ({C.n} of {X.n} points)"
    if v.status == "homotopic":
        return HomotopyVerdict(
            "homotopic", _lift_core_fence(f, g, cd, v.fence), X, Y,
            reason=v.reason + where,
        )
    return HomotopyVerdict(v.status, reason=v.reason + where)


def homotopic(
    f: OrderMap,
    g: OrderMap,
    strategy: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> HomotopyVerdict:
    """Decide whether f ~ g.

    'auto' decides on the domain core, in stages: equal tables; maps that
    agree on core(X); a point core (constants joined by an order path in
    core(Y)); circle cores on both sides (degree classification); else
    fence BFS from f|core(X) to g|core(X), whose fence is lifted back to a
    fence on X from f to g.  'fence-bfs' and 'exhaustive-components' work
    on the full domain and serve as brute-force references.
    """
    if f.source != g.source or f.target != g.target:
        raise MismatchedSpaces("maps must share source and target")
    if f.table == g.table:
        return HomotopyVerdict(
            "homotopic", [f.table], f.source, f.target, reason="maps equal"
        )
    if strategy == "auto":
        return _decide_on_core(f, g, budget)
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
    """Is the inclusion U -> X homotopic to a constant map?"""
    if U.space != X:
        raise MismatchedSpaces("U must be a subset of X")
    if not X.is_open(U.members):
        raise NotOpen("U is not open in X")
    sub, old_ids = X.subspace(U.members)
    incl = OrderMap(sub, X, old_ids)
    base = old_ids[0]
    const = OrderMap(sub, X, [base] * sub.n)
    return homotopic(incl, const, "auto", budget)


# -- homeomorphism of minimal spaces ----------------------------------


def minimal_iso_check(X: FiniteSpace, Y: FiniteSpace):
    """Order-isomorphism between minimal spaces, or None.

    Candidates are partitioned by (|down|, |up|, #covers) signatures before
    backtracking.
    """
    if beat_points(X):
        raise NotMinimal("X has beat points")
    if beat_points(Y):
        raise NotMinimal("Y has beat points")
    if X.n != Y.n:
        return None

    def sig(Z, x):
        return (
            popcount(Z.down[x]),
            popcount(Z.up[x]),
        )

    sx = [sig(X, x) for x in range(X.n)]
    sy = [sig(Y, y) for y in range(Y.n)]
    if sorted(sx) != sorted(sy):
        return None
    cands = [
        [y for y in range(Y.n) if sy[y] == sx[x]] for x in range(X.n)
    ]
    assign = [-1] * X.n
    used = [False] * Y.n

    def bt(i):
        if i == X.n:
            return True
        for y in cands[i]:
            if used[y]:
                continue
            ok = True
            for j in range(i):
                if X.leq(i, j) != Y.leq(y, assign[j]) or X.leq(
                    j, i
                ) != Y.leq(assign[j], y):
                    ok = False
                    break
            if ok:
                assign[i] = y
                used[y] = True
                if bt(i + 1):
                    return True
                used[y] = False
                assign[i] = -1
        return False

    if bt(0):
        return list(assign)
    return None


def homeomorphic_cores(X: FiniteSpace, Y: FiniteSpace) -> bool:
    """Homotopy equivalence test via Stong: homeomorphic cores."""
    cx = core(X).space
    cy = core(Y).space
    if cx.n != cy.n:
        return False
    return minimal_iso_check(cx, cy) is not None
