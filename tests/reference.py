"""Brute-force reference checks that tests compare the library against.

Nothing in ``src/`` uses these: each one recomputes, the slow and obvious
way, something the program computes differently (or only feeds to a
check).  Import them in a test module with ``from reference import ...``.
"""

from collections import deque
from heapq import heappop, heappush
from itertools import combinations, product
from math import factorial

from finspace.circles import CircleMap
from finspace.complexes import SimplicialComplex
from finspace.errors import BudgetExceeded, FinspaceError
from finspace.homotopy import (
    DEFAULT_BUDGET,
    HomotopyVerdict,
    _beat_status,
    hom_components,
    homotopic,
)
from finspace.invariants import Coloring, Cover
from finspace.space import DownSet, FiniteSpace, OrderMap, build_space, popcount


class NotMinimal(FinspaceError):
    """``minimal_iso_check`` was given a space with beat points."""


# -- spaces ------------------------------------------------------------


def all_open_sets(X: FiniteSpace):
    """Every open set of X, by enumeration of down-closed subsets.

    Exponential; only meant for cross-checks on tiny spaces.
    """
    seen = set()
    for r in range(X.n + 1):
        for sub in combinations(range(X.n), r):
            m = 0
            for x in sub:
                m |= X.down[x]
            seen.add(m)
    return sorted(seen)


def beat_points(X: FiniteSpace):
    """All beat points as (point, kind, witness).

    kind 'up' means the strict up-set has a minimum (the witness); 'down'
    dually.
    """
    out = []
    for x in range(X.n):
        up = X.up[x] & ~(1 << x)
        for y in X.up_ids[x]:
            if y != x and X.up[y] & up == up:
                out.append((x, "up", y))
                break
        down = X.down[x] & ~(1 << x)
        for y in X.down_ids[x]:
            if y != x and X.down[y] & down == down:
                out.append((x, "down", y))
                break
    return out


def minimal_iso_check(X: FiniteSpace, Y: FiniteSpace):
    """Order-isomorphism between minimal spaces, or None.

    Candidates are partitioned by (|down|, |up|) signatures before
    backtracking.
    """
    if beat_points(X):
        raise NotMinimal("X has beat points")
    if beat_points(Y):
        raise NotMinimal("Y has beat points")
    if X.n != Y.n:
        return None

    def sig(Z, x):
        return (popcount(Z.down[x]), popcount(Z.up[x]))

    sx = [sig(X, x) for x in range(X.n)]
    sy = [sig(Y, y) for y in range(Y.n)]
    if sorted(sx) != sorted(sy):
        return None
    cands = [[y for y in range(Y.n) if sy[y] == sx[x]] for x in range(X.n)]
    assign = [-1] * X.n
    used = [False] * Y.n

    def bt(i):
        if i == X.n:
            return True
        for y in cands[i]:
            if used[y]:
                continue
            if all(
                X.leq(i, j) == Y.leq(y, assign[j])
                and X.leq(j, i) == Y.leq(assign[j], y)
                for j in range(i)
            ):
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


def lowbit_bits(mask: int):
    """The set bit positions of ``mask``, increasing, peeled off the whole
    int one lowest bit at a time; ``space.bits`` reads bytes instead."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def first_violation(source: FiniteSpace, target: FiniteSpace, table):
    """The first (x, x2, f(x), f(x2)) in source order with x <= x2 but
    table[x] !<= table[x2], scanning every comparable pair; else None."""
    for x in range(source.n):
        for x2 in lowbit_bits(source.up[x]):
            if not target.leq(table[x], table[x2]):
                return (x, x2, table[x], table[x2])
    return None


def adjacency_potentials(X: FiniteSpace, mask: int, t1, t2, num):
    """Spanning-forest lifts of two tables X -> S on the subspace ``mask``
    of X, S a circle with residue numbering ``num``, through an explicit
    adjacency dict: each pair (p, q), q above p, appends q to p's list and
    p to q's, and a BFS from the least point of each component, rooted at
    its residues, reads the lists in that order.  Returns the lifts, a
    dict p -> (L1, L2), and the pairs (p, q, (d1, d2)) with their lifted
    displacements from p to q, in pair order."""
    size = len(num)
    r1 = [num[v] for v in t1]
    r2 = [num[v] for v in t2]
    phi = {}
    edges = []
    adj = {p: [] for p in lowbit_bits(mask)}
    for p, out in adj.items():
        a1, a2 = r1[p], r2[p]
        for q in X.up_ids[p]:
            if q != p and mask >> q & 1:
                d1 = (r1[q] - a1 + 1) % size - 1
                d2 = (r2[q] - a2 + 1) % size - 1
                edges.append((p, q, (d1, d2)))
                out.append((q, (d1, d2)))
                adj[q].append((p, (-d1, -d2)))
    for root in adj:
        if root in phi:
            continue
        phi[root] = (r1[root], r2[root])
        queue = deque([root])
        while queue:
            u = queue.popleft()
            pu1, pu2 = phi[u]
            for v, (d1, d2) in adj[u]:
                if v not in phi:
                    phi[v] = (pu1 + d1, pu2 + d2)
                    queue.append(v)
    return phi, edges


def comparability_components(X: FiniteSpace, mask: int):
    """The components of the comparability graph of the subspace ``mask``
    of X, as bitmasks, grown point by point from the lowest point left."""
    out = []
    left = mask
    while left:
        comp = left & -left
        grown = 0
        while comp != grown:
            grown = comp
            for p in lowbit_bits(grown):
                comp |= (X.down[p] | X.up[p]) & mask
        out.append(comp)
        left &= ~comp
    return out


def component_labels(X: FiniteSpace):
    """The least point of each point's component of the comparability
    graph of X, by a BFS that asks ``X.leq`` of every pair (it never reads
    ``X.components``)."""
    label = [None] * X.n
    for root in range(X.n):
        if label[root] is not None:
            continue
        label[root] = root
        queue = deque([root])
        while queue:
            p = queue.popleft()
            for q in range(X.n):
                if label[q] is None and (X.leq(p, q) or X.leq(q, p)):
                    label[q] = root
                    queue.append(q)
    return label


def adjacency_windings(X: FiniteSpace, mask: int, t1, t2, num):
    """``adjacency_potentials`` and the pairs (p, q, w1, w2) that its
    forest leaves unbalanced, in pair order: the cycle that the pair
    closes winds w1 under the first table and w2 under the second."""
    phi, edges = adjacency_potentials(X, mask, t1, t2, num)
    unbalanced = []
    for p, q, (d1, d2) in edges:
        w1 = phi[p][0] + d1 - phi[q][0]
        w2 = phi[p][1] + d2 - phi[q][1]
        if w1 or w2:
            unbalanced.append((p, q, w1, w2))
    return phi, unbalanced


def winding_status(checker, mask: int, mode: str):
    """The winding test's status of the open piece ``mask`` of a
    ``TorusChecker``'s S x S, from ``adjacency_windings`` of its
    projections: "not_homotopic" with a cycle of forbidden winding (in
    mode 'sc' windings that differ, in mode 'cat' any nonzero one), None
    when an 'sc' piece has a cycle of winding (d, d), d != 0, else
    "homotopic"."""
    pi1, pi2 = checker.pi1.table, checker.pi2.table
    _, unbalanced = adjacency_windings(checker.P, mask, pi1, pi2, checker.num)
    if any(w1 != w2 or mode == "cat" for _, _, w1, w2 in unbalanced):
        return "not_homotopic"
    return None if unbalanced else "homotopic"


# -- circle maps -------------------------------------------------------


def identity_circle_map(m: int) -> CircleMap:
    return CircleMap(m, m, tuple(range(2 * m)))


def constant_circle_map(m: int, n: int, v: int) -> CircleMap:
    return CircleMap(m, n, tuple([v] * (2 * m)))


def rotate_circle_map(f: CircleMap, r: int) -> CircleMap:
    """Postcompose with rotation by r residues (r even keeps continuity)."""
    size = 2 * f.n
    return CircleMap(f.m, f.n, tuple((v + r) % size for v in f.table))


def circle_map_from_order_map(table, rec_dom, rec_tgt) -> CircleMap:
    """Reindex an order-map table between two circles through their
    ``recognize_circle`` numberings (n, residue of each point)."""
    m, num_dom = rec_dom
    n, num_tgt = rec_tgt
    cm = [0] * (2 * m)
    for p, v in enumerate(table):
        cm[num_dom[p]] = num_tgt[v]
    return CircleMap(m, n, tuple(cm))


def serialize_circle_map(f: CircleMap) -> str:
    """The ``circlemap m n v0 v1 ...`` line that ``parse_circle_map`` reads."""
    return f"circlemap {f.m} {f.n} " + " ".join(str(v) for v in f.table)


def all_rotations_circle(X: FiniteSpace):
    """``recognize_circle`` by brute force: the same cycle checks, then the
    least of the numberings of every rotation that puts residue 0 at a
    minimal point, in both orientations.  (n, numbering) or None."""
    size = X.n
    if size < 4 or size % 2:
        return None
    nbrs = []
    for x, (ups, downs) in enumerate(zip(X.up_ids, X.down_ids)):
        if len(ups) + len(downs) != 4:
            return None
        if len(ups) > 1 and len(downs) > 1:
            return None
        nbrs.append([y for y in (ups if len(ups) > 1 else downs) if y != x])
    seen = {0}
    order = [0]
    cur, prev = nbrs[0][0], 0
    while cur != 0:
        if cur in seen:
            return None
        seen.add(cur)
        order.append(cur)
        a, b = nbrs[cur]
        cur, prev = (b if a == prev else a), cur
    if len(order) != size:
        return None
    minimal = X.minimal_elements()
    kinds = [(minimal >> p) & 1 for p in order]
    if any(kinds[i] == kinds[(i + 1) % size] for i in range(size)):
        return None
    best = None
    for rot in range(size):
        if not (minimal >> order[rot]) & 1:
            continue
        for step in (1, -1):
            numbering = [0] * size
            for j in range(size):
                numbering[order[(rot + step * j) % size]] = j
            t = tuple(numbering)
            if best is None or t < best:
                best = t
    return (size // 2, list(best))


# -- complexes ---------------------------------------------------------


def simplices(K: SimplicialComplex):
    """All simplices of K, smallest first."""
    out = set()
    for f in K.facets:
        elems = sorted(f)
        for r in range(1, len(elems) + 1):
            out.update(frozenset(c) for c in combinations(elems, r))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def face_poset(K: SimplicialComplex) -> FiniteSpace:
    """All simplices of K ordered by inclusion."""
    simp = simplices(K)
    index = {s: i for i, s in enumerate(simp)}
    covers = []
    for s in simp:
        if len(s) == 1:
            continue
        for v in s:
            covers.append((index[s - {v}], index[s]))
    labels = ["|".join(str(K.vertices[v]) for v in sorted(s)) for s in simp]
    return build_space(labels, covers)


def barycentric_facet_count(K: SimplicialComplex) -> int:
    """Expected facet count of the barycentric subdivision: each facet of
    dimension d contributes (d+1)! maximal chains."""
    return sum(factorial(len(f)) for f in K.facets)


# -- grid colorings ----------------------------------------------------


def coloring_from_rows(rows, colors: int) -> Coloring:
    """The coloring whose display rows (``Coloring.rows``) are ``rows``."""
    n = len(rows)
    assignment = [0] * (n * n)
    for r, row in enumerate(rows):
        for c, ch in enumerate(str(row)):
            assignment[c * n + r] = int(ch)
    return Coloring(n, colors, tuple(assignment))


def grid_masks(checker):
    """(cell masks, line masks) of the torus of ``checker``, read off
    ``P.down``: cell (i, j), at index i * n + j, is the down-set of the
    product point (b_i, b_j), b_i being point 2i + 1 of the circle; a line
    is every point with one coordinate fixed, horizontal then vertical for
    each value."""
    P, N, n = checker.P, checker.X.n, checker.n
    cells = [P.down[(2 * i + 1) * N + 2 * j + 1] for i in range(n) for j in range(n)]
    lines = []
    for a in range(N):
        lines.append(sum(1 << (x * N + a) for x in range(N)))
        lines.append(sum(1 << (a * N + x) for x in range(N)))
    return cells, lines


def class_masks(checker, coloring: Coloring):
    """The point mask of each color class, color by color."""
    cells, _ = grid_masks(checker)
    masks = [0] * coloring.colors
    for cell, v in enumerate(coloring.assignment):
        masks[v] |= cells[cell]
    return masks


def cover_from_coloring(checker, coloring: Coloring) -> Cover:
    """Piece i = union of the cells colored i, empty pieces left out."""
    P = checker.P
    return Cover(P, [DownSet(P, m) for m in class_masks(checker, coloring) if m])


def _no_class_holds_a_line(cells, lines, assignment, colors) -> bool:
    masks = [0] * colors
    for cell, v in zip(cells, assignment):
        masks[v] |= cell
    return not any(line & ~m == 0 for m in masks for line in lines)


def is_simple(checker, coloring: Coloring) -> bool:
    """No color class contains a full horizontal or vertical point line."""
    return _no_class_holds_a_line(
        *grid_masks(checker), coloring.assignment, coloring.colors
    )


def brute_force_simple_colorings(checker, colors: int):
    """Every assignment in lexicographic order, kept if simple."""
    cells, lines = grid_masks(checker)
    return [
        Coloring(checker.n, colors, combo)
        for combo in product(range(colors), repeat=len(cells))
        if _no_class_holds_a_line(cells, lines, combo, colors)
    ]


def first_appearance(assignment) -> bool:
    """Whether the colors of ``assignment`` are numbered in order of first
    appearance: the one assignment of its partition that numbers so."""
    first = {}
    return all(first.setdefault(v, len(first)) == v for v in assignment)


def eager_core(X: FiniteSpace):
    """An eager beat-point worklist to compare ``homotopy.core``'s lazy
    one against: every point's status is kept, and removing x recomputes
    it for every live point comparable to x, in id order; beat points
    wait in a heap.

    Returns (removals, end mask), removals as ``core`` lists them."""
    mask = X.full
    live = [True] * X.n
    status = [_beat_status(X, mask, live, x) for x in range(X.n)]
    heap = [x for x in range(X.n) if status[x] is not None]
    removals = []
    while heap:
        x = heappop(heap)
        if not (mask >> x) & 1 or status[x] is None:
            continue  # stale: removed, or no longer a beat point
        kind, w = status[x]
        removals.append((x, kind, w))
        mask &= ~(1 << x)
        live[x] = False
        for y in sorted(X.up_ids[x] + X.down_ids[x]):
            if not (mask >> y) & 1:
                continue
            was = status[y]
            status[y] = _beat_status(X, mask, live, y)
            if was is None and status[y] is not None:
                heappush(heap, y)
    return removals, mask


def hom_component_status(f: OrderMap, g: OrderMap, budget: int = DEFAULT_BUDGET) -> str:
    """'homotopic' if f and g lie in one component of the full hom-set
    (``hom_components``), else 'not_homotopic'; 'unknown' if enumerating
    the maps runs past ``budget``."""
    try:
        comps = hom_components(f.source, f.target, budget)
    except BudgetExceeded:
        return "unknown"
    same = any(f.table in c and g.table in c for c in comps)
    return "homotopic" if same else "not_homotopic"


def nullhomotopic_by_copy(U: DownSet, X: FiniteSpace, budget: int) -> HomotopyVerdict:
    """``homotopy.nullhomotopic_in`` by copying the piece: U as a space of
    its own, the inclusion U -> X and the constant at U's least point as
    two maps, decided by ``homotopic``.  The caller checks that U is
    open."""
    if not U.members:
        return HomotopyVerdict("homotopic", reason="empty piece (vacuous)")
    sub, old_ids = X.subspace(U.members)
    incl = OrderMap(sub, X, old_ids)
    const = OrderMap(sub, X, [old_ids[0]] * sub.n)
    return homotopic(incl, const, "auto", budget)


def set_partitions(items, c: int):
    """Every partition of ``items`` into exactly c non-empty blocks, as
    lists of lists: item i joins each block opened before it, or opens a
    new one while fewer than c are open."""
    blocks = []

    def walk(i):
        if i == len(items):
            if len(blocks) == c:
                yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(items[i])
            yield from walk(i + 1)
            b.pop()
        if len(blocks) < c:
            blocks.append([items[i]])
            yield from walk(i + 1)
            blocks.pop()

    yield from walk(0)


def cat_by_partitions(X: FiniteSpace, budget: int):
    """``invariants.cat``'s exact value, by the unreduced search: for
    c = 1, 2, ..., every partition of the maximal elements into c blocks,
    each piece (the union of its block's down-sets) decided by
    ``nullhomotopic_by_copy``, with no pruning and no symmetry.  The value
    is c - 1 for the first c with a partition of categorical pieces; None
    as soon as a piece is "unknown"."""
    maximals = [x for x in range(X.n) if X.maximal_elements() >> x & 1]
    status = {}
    for c in range(1, len(maximals) + 1):
        for blocks in set_partitions(maximals, c):
            statuses = []
            for block in blocks:
                mask = 0
                for x in block:
                    mask |= X.down[x]
                if mask not in status:
                    v = nullhomotopic_by_copy(DownSet(X, mask), X, budget)
                    status[mask] = v.status
                statuses.append(status[mask])
            if "unknown" in statuses:
                return None
            if all(s == "homotopic" for s in statuses):
                return c - 1
    raise AssertionError("the down-sets of the maximals are categorical")


# -- coloring classes --------------------------------------------------


def grid_symmetries(n: int):
    """The symmetries of the n x n grid of cells, sorted, as tuples sending
    cell i * n + j to cell g[i * n + j]: a dihedral map of Z/n on each
    coordinate (i -> i + r, i -> r - i), then optionally the swap."""
    dihedral = [[(i + r) % n for i in range(n)] for r in range(n)]
    dihedral += [[(r - i) % n for i in range(n)] for r in range(n)]
    out = set()
    for s in dihedral:
        for t in dihedral:
            out.add(tuple(s[i] * n + t[j] for i in range(n) for j in range(n)))
            out.add(tuple(t[j] * n + s[i] for i in range(n) for j in range(n)))
    return sorted(out)


def canonical_coloring(coloring: Coloring, symmetries):
    """Least assignment over the grid symmetries ``symmetries`` (as from
    ``grid_symmetries``) and color permutations.

    For one moved assignment the least recoloring numbers the colors in
    order of first appearance, so no color permutation is enumerated.
    """
    cells = len(coloring.assignment)
    best = None
    for perm in symmetries:
        moved = [0] * cells
        for cell in range(cells):
            moved[perm[cell]] = coloring.assignment[cell]
        first = {}
        cand = tuple(first.setdefault(v, len(first)) for v in moved)
        if best is None or cand < best:
            best = cand
    return Coloring(coloring.n, coloring.colors, best)


def listed_coloring_classes(checker, colors: int):
    """``enumerate_simple_colorings`` with symmetry on, the list-based way:
    every simple coloring by brute force, each canonicalised under
    ``grid_symmetries``, one representative kept per class, sorted."""
    syms = grid_symmetries(checker.n)
    classes = {
        canonical_coloring(col, syms).assignment
        for col in brute_force_simple_colorings(checker, colors)
    }
    return [Coloring(checker.n, colors, a) for a in sorted(classes)]


# -- the staged retraction ----------------------------------------------


def witness_stage_rules(k: int):
    """(name, rule) for every stage of ``build_chain(k)``, in order: each
    stage as a rule on residue pairs (x, y), residues 1..2k, that checks
    the blocks of the construction in turn and fixes a point in none."""
    size = 2 * k
    m = k if k % 2 else k + 1

    def norm(r):
        return (r - 1) % size + 1

    def span(a, b):
        """Residues a, a+1, ..., b, wrapping past 2k."""
        a = norm(a)
        return [norm(a + i) for i in range((b - a) % size + 1)]

    def block(xs, ys):
        return {(norm(x), norm(y)) for x in xs for y in ys}

    rules = []
    A0 = block(span(1, size - 1), [1, 2, 3])
    A3 = block(span(1, m - 2), span(5, size - 1))
    for i in range(size - m - 2):

        def f_rule(x, y, ki=size - 1 - i, li=max(3, m - 2 - i)):
            if (x, y) in A0 and ki <= x:
                return (ki, y)
            if (x, y) in A3 and li <= x:
                return (li, y)
            return (x, y)

        rules.append((f"f{i}", f_rule))

    A3p = block([1, 2, 3], span(5, size - 1))
    for i in range(size - 7):

        def g_rule(x, y, top=5 + i):
            if (x, y) in A3p and y <= top:
                return (x, top)
            return (x, y)

        rules.append((f"g{i}", g_rule))

    Ar = block([1], [1, 2, size]) | block([m], span(4, size - 2))
    Al = block([3], [size - 2, size - 1, size]) | block([m + 2], span(2, m + 1))
    Au = (
        block(span(4, m + 1), [1])
        | block([1, 2], [size - 3])
        | block(span(m + 3, size), [size - 3])
    )
    Ad = block(span(2, m - 1), [3]) | block(span(m + 1, size), [size - 1])
    Anw = block([m + 2], [1]) | block([3], [size - 3])
    Ase = block([1], [3]) | block([m], [size - 1])

    def h0_rule(x, y):
        if (x, y) in Ar:
            return (norm(x + 1), y)
        if (x, y) in Al:
            return (norm(x - 1), y)
        if (x, y) in Au:
            return (x, norm(y + 1))
        if (x, y) in Ad:
            return (x, norm(y - 1))
        if (x, y) in Anw:
            return (norm(x - 1), norm(y + 1))
        if (x, y) in Ase:
            return (norm(x + 1), norm(y - 1))
        return (x, y)

    rules.append(("h0", h0_rule))

    corners = {
        (1, size - 1): [(1, size - 2), (2, size - 2), (2, size - 1)],
        (3, 1): [(2, 1), (2, 2), (3, 2)],
        (m, 3): [(m, 2), (m + 1, 2), (m + 1, 3)],
        (m + 2, size - 3): [(m + 1, size - 3), (m + 1, size - 2), (m + 2, size - 2)],
    }

    def h1_rule(x, y):
        for corner, folded in corners.items():
            if (x, y) in folded:
                return corner
        return (x, y)

    rules.append(("h1", h1_rule))
    return rules
