"""LS-category, topological complexity, and the square-grid colorings.

Covers are certified piece by piece.  For products of digital circles a
winding obstruction on the comparability graph refutes a piece outright;
every other piece is decided by ``homotopic`` on the projections
restricted to it, which works on the piece's core.  Exact search runs over
partitions of the maximal elements (principal covers suffice, and any
certified cover shrinks to a certified partition because the projection
criterion is hereditary under passing to open subsets); ``cat`` and ``tc``
share it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import permutations, product as iproduct

from .errors import (
    BoundsOnly,
    InvalidParameter,
    MismatchedSpaces,
    NotOpen,
)
from .homotopy import (
    DEFAULT_BUDGET,
    HomotopyVerdict,
    homotopic,
    nullhomotopic_in,
)
from .circles import (
    circle_map_from_order_map,
    degree,
    recognize_circle,
)
from .space import (
    DownSet,
    FiniteSpace,
    KhalimskyCircle,
    OrderMap,
    bits,
    khalimsky_circle,
    product,
    projections,
)


# -- covers ------------------------------------------------------------


@dataclass
class Cover:
    space: FiniteSpace
    pieces: list  # DownSet
    certificates: list = field(default_factory=list)

    def __post_init__(self):
        union = 0
        for p in self.pieces:
            if p.space != self.space:
                raise MismatchedSpaces("piece from a different space")
            union |= p.members
        if union != self.space.full:
            raise InvalidParameter("pieces do not cover the space")


def principalize(cover: Cover) -> Cover:
    """Shrink each piece to the union of down-sets of its maximal elements."""
    X = cover.space
    maxs = X.maximal_elements()
    pieces = []
    for p in cover.pieces:
        m = 0
        for x in bits(p.members & maxs):
            m |= X.down[x]
        pieces.append(DownSet(X, m))
    return Cover(X, pieces)


def format_cover(cover: Cover, name: str = "X") -> str:
    lines = [f"cover {name} {len(cover.pieces)}"]
    for p in cover.pieces:
        lines.append(p.serialize())
    return "\n".join(lines) + "\n"


def parse_cover(space: FiniteSpace, text: str) -> Cover:
    lines = [l for l in text.splitlines() if l.strip()]
    head = lines[0].split()
    if head[0] != "cover":
        raise InvalidParameter("missing cover header")
    c = int(head[2])
    pieces = []
    for line in lines[1 : 1 + c]:
        m = 0
        for tok in line.split():
            m |= 1 << int(tok)
        pieces.append(DownSet(space, m))
    return Cover(space, pieces)


# -- the torus certifier -----------------------------------------------


class TorusChecker:
    """Certifier for open pieces of a digital-circle square S x S."""

    def __init__(self, circle: KhalimskyCircle):
        self.circle = circle
        self.n = circle.n
        self.size = 2 * circle.n
        self.X = circle.space
        self.P = product(self.X, self.X)
        self.pi1, self.pi2 = projections(self.X, self.X, self.P)
        self.rec_target = recognize_circle(self.X)
        self._memo_sc = {}
        self._memo_cat = {}

    def coords(self, p: int):
        return divmod(p, self.X.n)

    def pair(self, x: int, y: int) -> int:
        return x * self.X.n + y

    def _delta(self, a: int, b: int) -> int:
        """Lifted displacement between comparable circle residues."""
        d = (b - a) % self.size
        if d == 0:
            return 0
        if d == 1:
            return 1
        if d == self.size - 1:
            return -1
        raise AssertionError("comparable points must be adjacent residues")

    def _edges(self, mask: int):
        P = self.P
        for p in bits(mask):
            strict_up = P.up[p] & mask & ~(1 << p)
            for q in bits(strict_up):
                yield p, q

    def winding_obstruction(self, mask: int, mode: str):
        """A cycle with forbidden winding, found via spanning-forest
        potentials, or None.

        mode 'sc': forbidden when the two coordinate windings differ;
        mode 'cat': forbidden when either winding is nonzero.
        """
        phi = {}
        edges = []
        adj = {p: [] for p in bits(mask)}
        for p, q in self._edges(mask):
            xp, yp = self.coords(p)
            xq, yq = self.coords(q)
            w = (self._delta(xp, xq), self._delta(yp, yq))
            edges.append((p, q, w))
            adj[p].append((q, w))
            adj[q].append((p, (-w[0], -w[1])))
        for root in adj:
            if root in phi:
                continue
            phi[root] = (0, 0)
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for v, w in adj[u]:
                    if v not in phi:
                        phi[v] = (phi[u][0] + w[0], phi[u][1] + w[1])
                        queue.append(v)
        for p, q, w in edges:
            wx = phi[p][0] + w[0] - phi[q][0]
            wy = phi[p][1] + w[1] - phi[q][1]
            if mode == "sc":
                if wx != wy:
                    return (p, q, wx, wy)
            else:
                if wx or wy:
                    return (p, q, wx, wy)
        return None

    # Unused now that homotopic decides on cores; the benchmark tracer wraps it.
    def rigid_loop(self, mask: int, max_deg: int = 2):
        """Shortest alternating closed walk with equal nonzero windings
        (d, d) through an off-diagonal point, if it is short enough to be
        rigid: half-size j <= |d| * n.

        Returns (d, j) or None.  Depth-limited to 2 * max_deg * n steps.
        """
        size = self.size
        max_steps = 2 * max_deg * self.n
        P = self.P
        down = P.down
        up = P.up
        for base in bits(mask):
            x, y = self.coords(base)
            if x == y:
                continue
            for phase0 in (0, 1):
                start = (base, 0, 0)
                dist = {(start, phase0): 0}
                queue = deque([(start, phase0)])
                while queue:
                    (p, dx, dy), ph = queue.popleft()
                    d0 = dist[((p, dx, dy), ph)]
                    if d0 >= max_steps:
                        continue
                    nbrs = (down[p] if ph == 0 else up[p]) & mask & ~(1 << p)
                    xp, yp = self.coords(p)
                    for q in bits(nbrs):
                        xq, yq = self.coords(q)
                        ndx = dx + self._delta(xp, xq)
                        ndy = dy + self._delta(yp, yq)
                        if abs(ndx) > size * max_deg or abs(ndy) > size * max_deg:
                            continue
                        st = ((q, ndx, ndy), 1 - ph)
                        if st in dist:
                            continue
                        dist[st] = d0 + 1
                        if (
                            q == base
                            and 1 - ph == phase0
                            and ndx == ndy
                            and ndx != 0
                            and ndx % size == 0
                        ):
                            d = ndx // size
                            j = (d0 + 1) // 2
                            if j >= 2 and abs(d) * self.n >= j:
                                return (d, j)
                        queue.append(st)
        return None

    def _projections_verdict(self, mask: int, mode: str, budget: int):
        """Decide on the subspace U = ``mask`` once winding passed: mode
        'sc' asks pi1|U ~ pi2|U, mode 'cat' asks each pi_i|U ~ const."""
        sub, old_ids = self.P.subspace(mask)
        f1, f2 = self.pi1.restrict(sub, old_ids), self.pi2.restrict(sub, old_ids)
        if mode == "sc":
            return homotopic(f1, f2, "auto", budget)
        for f in (f1, f2):
            const = OrderMap(sub, self.X, [f.table[0]] * sub.n)
            v = homotopic(f, const, "auto", budget)
            if not v.is_homotopic:
                break
        return v

    def is_section_categorical(self, mask: int, budget: int = DEFAULT_BUDGET):
        """Decide pi1|U ~ pi2|U for the open set U given by ``mask``."""
        if mask in self._memo_sc:
            return self._memo_sc[mask]
        if not self.P.is_open(mask):
            raise NotOpen("piece is not open in the product")
        hit = self.winding_obstruction(mask, "sc")
        if hit is not None:
            p, q, wx, wy = hit
            v = HomotopyVerdict(
                "not_homotopic",
                reason=f"cycle with distinct windings ({wx},{wy})",
            )
        else:
            v = self._projections_verdict(mask, "sc", budget)
        self._memo_sc[mask] = v
        return v

    def is_categorical(self, mask: int, budget: int = DEFAULT_BUDGET):
        """Decide whether U -> S x S is nullhomotopic (componentwise)."""
        if mask in self._memo_cat:
            return self._memo_cat[mask]
        if not self.P.is_open(mask):
            raise NotOpen("piece is not open in the product")
        hit = self.winding_obstruction(mask, "cat")
        if hit is not None:
            p, q, wx, wy = hit
            v = HomotopyVerdict(
                "not_homotopic",
                reason=f"cycle with nonzero winding ({wx},{wy})",
            )
        else:
            v = self._projections_verdict(mask, "cat", budget)
        self._memo_cat[mask] = v
        return v


def is_section_categorical(
    U: DownSet, circle: KhalimskyCircle, budget: int = DEFAULT_BUDGET
) -> HomotopyVerdict:
    return TorusChecker(circle).is_section_categorical(U.members, budget)


def is_categorical(
    U: DownSet, X: FiniteSpace, budget: int = DEFAULT_BUDGET
) -> HomotopyVerdict:
    """Is U categorical in X (inclusion nullhomotopic)?"""
    if U.members == 0:
        return HomotopyVerdict("homotopic", reason="empty piece (vacuous)")
    return nullhomotopic_in(U, X, budget)


# -- exact search over principal partitions ---------------------------


@dataclass
class InvariantResult:
    name: str
    value: int | None
    lower: int
    upper: int | None
    exact: bool
    cover: Cover | None = None
    notes: list = field(default_factory=list)

    def __str__(self):
        if self.exact:
            return f"{self.name} = {self.value}"
        hi = "?" if self.upper is None else str(self.upper)
        return f"{self.name} in [{self.lower}, {hi}]"


MAX_EXACT_MAXIMALS = 30


class _PartitionSearch:
    """DFS over partitions of the maximal elements into <= c blocks.

    A block is pruned as soon as its piece is definitely not certified
    (sound by heredity: open subsets of certified pieces stay certified).
    """

    def __init__(self, space, check_piece):
        self.space = space
        self.maximals = list(bits(space.maximal_elements()))
        self.check = check_piece
        self.undecided = 0

    def piece_mask(self, block: int) -> int:
        m = 0
        for x in bits(block):
            m |= self.space.down[x]
        return m

    def search(self, c: int):
        """First partition with every piece certified, else None."""
        elems = self.maximals
        blocks = []

        def dfs(i):
            if i == len(elems):
                statuses = [self.check(self.piece_mask(b)).status for b in blocks]
                if all(s == "homotopic" for s in statuses):
                    return list(blocks)
                if "not_homotopic" not in statuses:
                    self.undecided += 1
                return None
            x = 1 << elems[i]
            seen = set()
            for bi in range(len(blocks)):
                nb = blocks[bi] | x
                if nb in seen:
                    continue
                seen.add(nb)
                if self.check(self.piece_mask(nb)).status == "not_homotopic":
                    continue
                old = blocks[bi]
                blocks[bi] = nb
                got = dfs(i + 1)
                if got is not None:
                    return got
                blocks[bi] = old
            if len(blocks) < c:
                if self.check(self.piece_mask(x)).status != "not_homotopic":
                    blocks.append(x)
                    got = dfs(i + 1)
                    if got is not None:
                        return got
                    blocks.pop()
            return None

        self.undecided = 0
        return dfs(0)

    def cover(self, c: int):
        """A cover by at most c certified pieces, with its certificates,
        else None."""
        got = self.search(c)
        if got is None:
            return None
        pieces = [DownSet(self.space, self.piece_mask(b)) for b in got]
        return Cover(self.space, pieces, [self.check(p.members) for p in pieces])


def _exact_invariant(name, space, check_piece, limit, force, start=1, notes=()):
    """Least c - 1 over certified c-piece covers, trying c = start, start+1..."""
    searcher = _PartitionSearch(space, check_piece)
    nmax = len(searcher.maximals)
    if nmax > MAX_EXACT_MAXIMALS and not force:
        raise BoundsOnly(
            start - 1, None, f"{nmax} maximal elements; pass force for exact mode"
        )
    notes = list(notes)
    cmax = limit if limit is not None else nmax
    for c in range(start, cmax + 1):
        cover = searcher.cover(c)
        if cover is not None:
            notes.append(f"certified {c}-piece cover found")
            return InvariantResult(name, c - 1, c - 1, c - 1, True, cover, notes)
        if searcher.undecided:
            raise BoundsOnly(
                c, None,
                f"{searcher.undecided} partitions undecided at {c} pieces",
            )
        notes.append(f"no certified cover with {c} pieces (exhaustive)")
    raise BoundsOnly(cmax, None, f"no cover found up to {cmax} pieces")


def _witness_invariant(name, lower, check_piece, witness):
    """Upper bound from a witness cover; exact when it meets ``lower``."""
    if witness is None:
        raise InvalidParameter("witness mode needs a cover")
    verdicts = [check_piece(p.members) for p in witness.pieces]
    ok = all(v.is_homotopic for v in verdicts)
    upper = len(witness.pieces) - 1 if ok else None
    exact = upper == lower
    return InvariantResult(
        name, upper if exact else None, lower, upper, exact, witness,
        [f"piece {i}: {v.status} ({v.reason})" for i, v in enumerate(verdicts)],
    )


def cat(
    X: FiniteSpace,
    mode: str = "exact",
    limit: int | None = None,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
    witness: Cover | None = None,
    checker: TorusChecker | None = None,
) -> InvariantResult:
    """LS-category: least m with an (m+1)-piece categorical open cover."""
    if checker is not None:

        def check(mask):
            return checker.is_categorical(mask, budget)

        space = checker.P
    else:
        space = X

        def check(mask):
            return is_categorical(DownSet(space, mask), space, budget)

    if mode == "witness":
        return _witness_invariant("cat", 0, check, witness)
    return _exact_invariant("cat", space, check, limit, force)


def tc(
    circle: KhalimskyCircle,
    mode: str = "exact",
    limit: int | None = None,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
    witness: Cover | None = None,
) -> InvariantResult:
    """Topological complexity of a digital circle, over partitions of the
    maximal elements of S x S.

    The realization bound tc >= 1 (the topological circle) seeds the
    search, so piece counts start at 2.
    """
    checker = TorusChecker(circle)

    def check(mask):
        return checker.is_section_categorical(mask, budget)

    if mode == "witness":
        return _witness_invariant("tc", 1, check, witness)
    return _exact_invariant(
        "tc", checker.P, check, limit, force,
        start=2, notes=["lower bound 1 from the topological circle"],
    )


# -- the square grid and colorings ------------------------------------


@dataclass
class SquareGrid:
    """The n x n cells of S x S; cell (i,j) is min_open(b_i) x min_open(b_j)."""

    circle: KhalimskyCircle
    checker: TorusChecker

    @property
    def n(self):
        return self.circle.n

    def cell_mask(self, i: int, j: int) -> int:
        P = self.checker.P
        bi = self.circle.b(i % self.n)
        bj = self.circle.b(j % self.n)
        return P.down[self.checker.pair(bi, bj)]

    def cell_index(self, i: int, j: int) -> int:
        return (i % self.n) * self.n + (j % self.n)

    def all_cells(self):
        return [
            (i, j, self.cell_mask(i, j))
            for i in range(self.n)
            for j in range(self.n)
        ]

    def line_masks(self):
        """Point masks of every full horizontal and vertical line."""
        out = []
        X = self.circle.space
        for a in range(X.n):
            h = 0
            v = 0
            for x in range(X.n):
                h |= 1 << self.checker.pair(x, a)
                v |= 1 << self.checker.pair(a, x)
            out.append(h)
            out.append(v)
        return out


def square_grid(n: int) -> SquareGrid:
    circle = khalimsky_circle(n)
    return SquareGrid(circle, TorusChecker(circle))


@dataclass(frozen=True)
class Coloring:
    """A total color assignment on the grid cells, row-major in (i,j)."""

    n: int
    colors: int
    assignment: tuple  # length n*n, cell (i,j) at index i*n+j

    def color(self, i: int, j: int) -> int:
        return self.assignment[(i % self.n) * self.n + (j % self.n)]

    def rows(self):
        """Display rows: row r lists colors of cells (i=c, j=r) for c=0..n-1."""
        return [
            "".join(str(self.color(c, r)) for c in range(self.n))
            for r in range(self.n)
        ]

    def serialize(self) -> str:
        return f"coloring {self.n} {self.colors}\n" + "\n".join(self.rows()) + "\n"


def parse_coloring(text: str) -> Coloring:
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    head = lines[0].split()
    if head[0] != "coloring":
        raise InvalidParameter("missing coloring header")
    n, colors = int(head[1]), int(head[2])
    assignment = [0] * (n * n)
    for r, row in enumerate(lines[1 : 1 + n]):
        for c, ch in enumerate(row):
            assignment[c * n + r] = int(ch)
    return Coloring(n, colors, tuple(assignment))


def coloring_from_rows(rows, colors: int) -> Coloring:
    n = len(rows)
    assignment = [0] * (n * n)
    for r, row in enumerate(rows):
        for c, ch in enumerate(str(row)):
            assignment[c * n + r] = int(ch)
    return Coloring(n, colors, tuple(assignment))


def cover_from_coloring(grid: SquareGrid, coloring: Coloring) -> Cover:
    """Piece i = union of the cells colored i."""
    n = grid.n
    masks = [0] * coloring.colors
    for i in range(n):
        for j in range(n):
            masks[coloring.color(i, j)] |= grid.cell_mask(i, j)
    P = grid.checker.P
    pieces = [DownSet(P, m) for m in masks if m]
    return Cover(P, pieces)


def coloring_from_cover(grid: SquareGrid, cover: Cover) -> Coloring:
    """Read colors back off a cover whose pieces are unions of cells."""
    n = grid.n
    assignment = [None] * (n * n)
    for i in range(n):
        for j in range(n):
            cm = grid.cell_mask(i, j)
            for ci, p in enumerate(cover.pieces):
                if cm & ~p.members == 0:
                    assignment[i * n + j] = ci
                    break
        # a cover from a coloring always has each cell inside its piece
    if any(a is None for a in assignment):
        raise InvalidParameter("cover pieces are not unions of cells")
    return Coloring(n, len(cover.pieces), tuple(assignment))


def is_simple(grid: SquareGrid, coloring: Coloring) -> bool:
    """No color class contains a full horizontal or vertical point line."""
    lines = grid.line_masks()
    n = grid.n
    masks = [0] * coloring.colors
    for i in range(n):
        for j in range(n):
            masks[coloring.color(i, j)] |= grid.cell_mask(i, j)
    for m in masks:
        for line in lines:
            if line & ~m == 0:
                return False
    return True


def cell_symmetries(grid: SquareGrid):
    """The automorphisms of the product poset, as permutations of cells.

    Generated from circle symmetries (rotations by a full cell, the flip)
    applied per factor, plus the coordinate swap; each candidate is
    verified to be a poset automorphism before use.
    """
    n = grid.n
    circ = grid.circle
    X = circ.space
    size = X.n

    def circle_maps():
        out = []
        for r in range(0, size, 2):
            out.append([(p + r) % size for p in range(size)])
            out.append([(r - p) % size for p in range(size)])
        return out

    P = grid.checker.P
    perms = set()
    for s1 in circle_maps():
        for s2 in circle_maps():
            for swap in (False, True):
                table = [0] * P.n
                for x in range(size):
                    for y in range(size):
                        nx, ny = s1[x], s2[y]
                        if swap:
                            nx, ny = s2[y], s1[x]
                        table[grid.checker.pair(x, y)] = grid.checker.pair(nx, ny)
                ok = all(
                    P.leq(table[p], table[q]) == P.leq(p, q)
                    for p in range(P.n)
                    for q in bits(P.up[p])
                )
                if ok:
                    perms.add(tuple(table))
    # restrict to the action on cells
    cell_of_max = {}
    for i in range(n):
        for j in range(n):
            cell_of_max[grid.checker.pair(circ.b(i), circ.b(j))] = i * n + j
    out = set()
    for t in perms:
        perm = [0] * (n * n)
        for m, cell in cell_of_max.items():
            perm[cell] = cell_of_max[t[m]]
        out.add(tuple(perm))
    return sorted(out)


def canonical_coloring(grid: SquareGrid, coloring: Coloring, symmetries=None):
    """Least assignment over grid symmetries and color permutations."""
    if symmetries is None:
        symmetries = cell_symmetries(grid)
    n = grid.n
    best = None
    for perm in symmetries:
        moved = [0] * (n * n)
        for cell in range(n * n):
            moved[perm[cell]] = coloring.assignment[cell]
        for cperm in permutations(range(coloring.colors)):
            cand = tuple(cperm[v] for v in moved)
            if best is None or cand < best:
                best = cand
    return Coloring(n, coloring.colors, best)


def enumerate_simple_colorings(grid: SquareGrid, colors: int, symmetry: bool = True):
    """Canonical representatives of the simple colorings.

    With symmetry off, every simple coloring is returned.
    """
    if colors < 1:
        raise InvalidParameter("colors >= 1")
    n = grid.n
    cells = n * n
    lines = grid.line_masks()
    cell_masks = [grid.cell_mask(i, j) for i in range(n) for j in range(n)]
    found = []
    for combo in iproduct(range(colors), repeat=cells):
        masks = [0] * colors
        for idx, c in enumerate(combo):
            masks[c] |= cell_masks[idx]
        ok = True
        for m in masks:
            for line in lines:
                if line & ~m == 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(Coloring(n, colors, tuple(combo)))
    if not symmetry:
        return found
    syms = cell_symmetries(grid)
    classes = {}
    for col in found:
        canon = canonical_coloring(grid, col, syms)
        classes.setdefault(canon.assignment, canon)
    return [classes[k] for k in sorted(classes)]


# -- the coloring route to the two-piece impossibility -----------------


def line_lemma(grid: SquareGrid):
    """Check that every full line is a circle on which the two projections
    have distinct degrees.

    Any open set containing such a line cannot be section-categorical: a
    fence between the projections would restrict to the line and force
    equal degrees.  Returns the (d1, d2) pairs, one per line.
    """
    rec_t = grid.checker.rec_target
    out = []
    for mask in grid.line_masks():
        sub, old_ids = grid.checker.P.subspace(mask)
        rec = recognize_circle(sub)
        if rec is None:
            raise AssertionError("a full line must be a circle")
        t1 = [grid.checker.coords(old_ids[p])[0] for p in range(sub.n)]
        t2 = [grid.checker.coords(old_ids[p])[1] for p in range(sub.n)]
        cm1 = circle_map_from_order_map(t1, rec, rec_t)
        cm2 = circle_map_from_order_map(t2, rec, rec_t)
        d1, d2 = degree(cm1), degree(cm2)
        if d1 == d2:
            raise AssertionError("projections agree on a line")
        out.append((d1, d2))
    return out


def two_color_refutation(grid: SquareGrid, budget: int = DEFAULT_BUDGET):
    """No 2-piece principal cover of S x S is section-categorical.

    Non-simple colorings die by the line lemma; the simple classes (with
    symmetry factored out) are checked piece by piece.  Returns
    (refuted, classes, notes).
    """
    notes = []
    degs = line_lemma(grid)
    notes.append(
        f"line lemma: {len(degs)} lines, projection degrees all distinct"
    )
    classes = enumerate_simple_colorings(grid, 2)
    notes.append(f"{len(classes)} simple 2-coloring classes up to symmetry")
    refuted = True
    for idx, cl in enumerate(classes):
        cov = cover_from_coloring(grid, cl)
        verdicts = [
            grid.checker.is_section_categorical(p.members, budget)
            for p in cov.pieces
        ]
        bad = [v for v in verdicts if v.status == "not_homotopic"]
        if bad:
            notes.append(f"class {idx}: fails ({bad[0].reason})")
        else:
            refuted = False
            notes.append(
                f"class {idx}: not refuted "
                f"({'; '.join(v.status for v in verdicts)})"
            )
    return refuted, classes, notes


def tc_via_colorings(
    circle: KhalimskyCircle, budget: int = DEFAULT_BUDGET
) -> InvariantResult:
    """tc of a digital circle with the 2-piece impossibility argued through
    simple colorings, then a first certified 3-piece cover."""
    checker = TorusChecker(circle)
    grid = SquareGrid(circle, checker)
    refuted, _, notes = two_color_refutation(grid, budget)
    notes = ["lower bound 1 from the topological circle"] + notes
    if not refuted:
        raise BoundsOnly(1, None, "a simple 2-coloring class was not refuted")
    notes.append("no certified cover with 2 pieces (colorings + line lemma)")

    def check(mask):
        return checker.is_section_categorical(mask, budget)

    cover = _PartitionSearch(checker.P, check).cover(3)
    if cover is None:
        raise BoundsOnly(2, None, "no certified 3-piece cover found")
    notes.append("certified 3-piece cover found")
    return InvariantResult("tc", 2, 2, 2, True, cover, notes)
