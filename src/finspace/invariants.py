"""LS-category, topological complexity, and the square-grid colorings.

Covers are certified piece by piece.  For products of digital circles a
winding obstruction on the comparability graph refutes a piece outright.
A piece whose cycles all have winding (0, 0) is certified by its lift:
the winding test (``Lift.grow`` in ``homotopy``, the lift kernel that
``homotopic`` uses too) lifts both projections to the digital line along
a spanning forest, the lift lands in a finite interval, and clamping it
step by step (``homotopy._clamps``, as in ``homotopic``) gives a fence.
One test decides every piece, in exact search and in the cover that it
prints; a refuted piece names the cycle that the lift closed.  For a
categorical piece the fence runs from the inclusion to a constant; for a
section-categorical one from pi1|U through constants to pi2|U.  Only a
section-categorical piece with a cycle of winding (d, d), d != 0, goes
through the stages of ``homotopic`` (``homotopy.decide_on_core``), on
the piece's strong collapse run inside S x S: the stages read the
projections at the core's points, and the piece is copied only when a
fence lifted to it is read.  On any other space ``cat`` sends each
piece to the same stages, against the core of the space.

Exact search runs over partitions of the maximal elements (principal
covers suffice, and any certified cover shrinks to a certified partition
because both criteria are hereditary under passing to open subsets);
``cat`` and ``tc`` share it.  It prunes a block as soon as its piece is
refuted.  It keeps no symmetry group and no memo of its own: a piece met
again is asked again, and on a torus that costs one step of the winding
test, which grows along the DFS path (``TorusChecker.piece_status``,
which reads no remembered verdict) from the labels of the block that a
new maximal joins, with no subspace and no fence.  On any other space a
piece costs a collapse, so ``_deciders`` keeps one memo of statuses per
search there.  The pieces of the cover it prints are decided again,
with their certificates, whose fences are built only when read.

A coloring of the n x n grid is such a partition: cell i * n + j is the
down-set of the (i * n + j)-th maximal, (b_i, b_j).  The coloring walk
meets each partition once, with its colors numbered in order of first
appearance, and reads the grid's symmetries (``TorusChecker.symmetries``,
tuples over those positions) for its orbit leaders.  It stays a walk of
its own: it cuts a class that holds a full line and decides no piece.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from math import isqrt

from .errors import InvalidParameter, MismatchedSpaces, NotOpen
from .homotopy import (
    DEFAULT_BUDGET,
    HomotopyVerdict,
    Lift,
    _check_budget,
    _clamps,
    collapse,
    core,
    decide_on_core,
    degrees,
    oriented,
    through_constants,
    through_constants_length,
)
from .circles import recognize_circle
from .space import (
    DownSet,
    FiniteSpace,
    KhalimskyCircle,
    bits,
    khalimsky_circle,
    parse_downset,
    parse_ints,
    popcount,
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


def format_cover(cover: Cover, name: str = "X") -> str:
    lines = [f"cover {name} {len(cover.pieces)}"]
    for p in cover.pieces:
        lines.append(p.serialize())
    return "\n".join(lines) + "\n"


def parse_cover(space: FiniteSpace, text: str) -> Cover:
    """Read ``format_cover``'s text: the header, then one line per piece,
    blank for an empty piece; blank lines past the pieces are ignored."""
    lines = text.lstrip().splitlines()
    head = lines[0].split() if lines else []
    if len(head) < 3 or head[0] != "cover":
        raise InvalidParameter("missing cover header")
    (c,) = parse_ints(head[2:3], lines[0])
    rows = lines[1:]
    while len(rows) > max(c, 0) and not rows[-1].strip():
        rows.pop()
    if len(rows) != c:
        raise InvalidParameter(f"header gives {c} pieces, found {len(rows)}")
    return Cover(space, [parse_downset(space, l) for l in rows])


# -- the torus certifier -----------------------------------------------


class TorusChecker:
    """Certifier for open pieces of a digital-circle square S x S.

    It remembers every verdict with a certificate that it gives
    (``is_section_categorical``, ``is_categorical``), keyed by the piece,
    the mode and the budget: a piece asked for again at the same budget is
    not decided again.  An "unknown" under a small budget never answers a
    larger one, nor a decided verdict a smaller one.  The remembered
    verdicts are shared by every caller, so callers must not mutate them.
    It also remembers the strong collapse of each piece that it certifies
    on its core or is asked to collapse (``collapse``), at any budget.
    """

    def __init__(self, circle: KhalimskyCircle):
        self.circle = circle
        self.n = circle.n
        self.size = 2 * circle.n
        self.X = circle.space
        self.P = product(self.X, self.X)
        self.pi1, self.pi2 = projections(self.X, self.X, self.P)
        self.num = recognize_circle(self.X)[1]
        self.lift = Lift(self.P, self.pi1.table, self.pi2.table, self.num)
        self.clX = core(self.X)  # S is its own core: the target of _on_core
        self._verdicts = {}  # (mask, mode, budget) -> verdict
        self._collapses = {}  # mask -> Collapse of the piece inside P

    def coords(self, p: int):
        return divmod(p, self.X.n)

    def pair(self, x: int, y: int) -> int:
        return x * self.X.n + y

    def degrees_on_circle(self, sub, old_ids, rec):
        """The degrees of pi1 and pi2 restricted to a circle ``sub`` in
        S x S, whose point p is the product point ``old_ids[p]`` and whose
        ``recognize_circle`` numbering is ``rec``."""
        t1, t2 = ([pi.table[p] for p in old_ids] for pi in (self.pi1, self.pi2))
        hit, state = Lift(sub, t1, t2, self.num).grow(None, sub.full)
        return degrees(hit or state[4], rec, self.size)

    def symmetries(self):
        """Aut(S)^2 with the factor swap, as permutations of the positions
        of the maximal elements of S x S in id order (tuples sending
        position i to position g[i]), without repeats.  Position i * n + j
        is the maximal (b_i, b_j): cell (i, j) of the grid.

        The circle automorphisms are the rotations p -> p + r and the
        reflections p -> r - p for even r, 2n in all, so the group has
        order 8n^2.  (At n = 2 they act on the two maximals of S as 2
        permutations, so it has order 8.)
        """
        size = self.size
        circle = []
        for r in range(0, size, 2):
            circle.append([(p + r) % size for p in range(size)])
            circle.append([(r - p) % size for p in range(size)])
        for s in circle:
            if any(
                self.X.leq(s[p], s[q]) != self.X.leq(p, q)
                for p in range(size)
                for q in range(size)
            ):
                raise AssertionError("not a circle automorphism")
        maxs = list(bits(self.P.maximal_elements()))
        pos = {m: i for i, m in enumerate(maxs)}
        coords = [self.coords(m) for m in maxs]
        group = {}
        for s in circle:
            for t in circle:
                group[tuple(pos[self.pair(s[x], t[y])] for x, y in coords)] = None
                group[tuple(pos[self.pair(t[y], s[x])] for x, y in coords)] = None
        return list(group)

    def winding_obstruction(self, mask: int, mode: str):
        """A cycle with forbidden winding, as the hit (p, q, wx, wy) of the
        lift of the piece grown from scratch (``Lift.grow``), or None.

        mode 'sc': forbidden when the two coordinate windings differ;
        mode 'cat': forbidden when either winding is nonzero.
        """
        return self.lift.grow(None, mask, mode == "cat")[0]

    def lift_fence(self, old_ids, lifts):
        """Value tables from the inclusion q o L to a constant, for integer
        lifts ``lifts[p] = (L1, L2)`` of the points ``old_ids`` of a piece:
        the clamps of the first coordinate, then those of the second."""
        n = self.X.n
        first = _clamps([lifts[p][0] for p in old_ids], self.num)
        second = _clamps([lifts[p][1] for p in old_ids], self.num)
        x = first[-1][0] * n
        return [tuple(a * n + b for a, b in zip(t, second[0])) for t in first] + [
            tuple(x + b for b in t) for t in second[1:]
        ]

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
                        ndx = dx + (xq - xp + 1) % size - 1
                        ndy = dy + (yq - yp + 1) % size - 1
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

    def collapse(self, mask: int):
        """The strong collapse of the piece U = ``mask`` inside P
        (``homotopy.collapse``), remembered: a piece asked for directly or
        certified is collapsed once."""
        cl = self._collapses.get(mask)
        if cl is None:
            cl = self._collapses[mask] = collapse(self.P, mask)
        return cl

    def _on_core(self, mask: int, budget: int, cl=None):
        """pi1|U ~ pi2|U by ``decide_on_core`` on U's collapse inside P:
        ``cl``, else a remembered one, else a new one that is not kept.
        The stages read both projections at the core's points, and only
        reading the verdict's fence copies U."""
        if cl is None:
            cl = self._collapses.get(mask) or collapse(self.P, mask)
        return decide_on_core(
            cl, self.pi1.table, self.pi2.table, self.X, budget, self.clX
        )

    def piece_status(
        self, mask: int, mode: str, budget: int = DEFAULT_BUDGET, parent=None
    ):
        """The status of ``_decide(mask, mode, budget)`` without its
        certificate, as (status, state): the lift grown from ``parent`` (the
        state of an open piece inside U, or None), then the stages on U's
        core if a cycle winds (d, d), d != 0.  The state is None when U is
        refuted.  No verdict is read or remembered here, nor any collapse.
        U must be open, and is not checked: exact search builds only unions
        of down-sets of maximals.
        """
        _check_budget(budget)
        hit, state = self.lift.grow(parent, mask, mode == "cat")
        if hit is not None:
            return "not_homotopic", None
        if state[4] is None:
            return "homotopic", state
        return self._on_core(mask, budget).status, state

    def _decide(self, mask: int, mode: str, budget: int):
        """``_certify(mask, mode, budget)`` once: the verdict is remembered
        and the same object is returned to every later caller.  Raises
        ``InvalidParameter`` if ``mask`` names points outside S x S, and
        ``NotOpen`` if U is not open."""
        key = (mask, mode, budget)
        v = self._verdicts.get(key)
        if v is None:
            _check_budget(budget)
            if mask & ~self.P.full:
                raise InvalidParameter("members outside the space")
            if not self.P.is_open(mask):
                raise NotOpen("piece is not open in the product")
            v = self._verdicts[key] = self._certify(mask, mode, budget)
        return v

    def _certify(self, mask: int, mode: str, budget: int):
        """Decide the open piece U = ``mask``, with its certificate.

        The lift of U grown from scratch (``Lift.grow``) decides it.  A
        refuted piece names its cycle of forbidden winding.  A piece with
        no winding is proved by the lift, ``rooted`` at the least point of
        each component, and its fence is built from it when first read:
        mode 'cat' contracts the inclusion U -> S x S to a constant by
        ``lift_fence``; mode 'sc' builds a fence on U from pi1|U to pi2|U
        by ``through_constants``.  The reason gives the fence's length,
        read off the ranges of the lift.  The rest, 'sc' pieces with a
        cycle of winding (d, d), d != 0, go to ``_on_core`` on U's
        remembered collapse.
        """
        if not mask:
            return HomotopyVerdict("homotopic", reason="empty piece (vacuous)")
        hit, state = self.lift.grow(None, mask, mode == "cat")
        if hit is not None:
            what = "distinct windings" if mode == "sc" else "nonzero winding"
            return HomotopyVerdict(
                "not_homotopic", reason=f"cycle with {what} {oriented(hit)}"
            )
        if state[4] is not None:
            return self._on_core(mask, budget, self.collapse(mask))
        points = list(bits(mask))
        phi = self.lift.rooted(state, points)
        if mode == "cat":
            L1, L2 = zip(*(phi[p] for p in points))
            length = max(L1) - min(L1) + 1 + max(L2) - min(L2)  # of lift_fence
            target, ends = self.P, "to a constant"
        else:
            length = through_constants_length(self.X, phi, points, self.num)
            target, ends = self.X, "through constants"

        def proof():
            sub = self.P.subspace(mask)[0]
            if mode == "cat":
                return self.lift_fence(points, phi), sub
            return through_constants(sub, self.X, phi, points, self.num), sub

        return HomotopyVerdict(
            "homotopic", target=target,
            reason=f"projections lift to the digital line; "
            f"fence of {length} maps {ends}",
            proof=proof,
        )

    def is_section_categorical(self, mask: int, budget: int = DEFAULT_BUDGET):
        """Decide pi1|U ~ pi2|U for the open set U given by ``mask``.

        With no winding the lift decides at any budget, and its fence runs
        on U from pi1|U to pi2|U; with winding (d, d), d != 0, the stages of
        ``homotopic`` decide on U's core under ``budget``.
        """
        return self._decide(mask, "sc", budget)

    def is_categorical(self, mask: int, budget: int = DEFAULT_BUDGET):
        """Decide whether U -> S x S is nullhomotopic (componentwise)."""
        return self._decide(mask, "cat", budget)


@lru_cache(maxsize=1)
def torus(circle: KhalimskyCircle) -> TorusChecker:
    """The ``TorusChecker`` of ``circle``: S x S, its two projections, the
    circle numbering and the verdicts and collapses kept so far, built once
    and shared by every caller.

    Only the last circle's torus is kept, and its verdicts with it:
    ``verify_bundle``, ``build_U``, ``build_V`` and witness-mode ``tc`` on
    one circle build one product between them, collapse U once and decide
    V once, and a sweep over many sizes holds one torus at a time.  Sharing is safe
    because a verdict depends only on the piece, the mode and the budget,
    which key it, and no caller mutates one.
    """
    return TorusChecker(circle)


def _torus_of(X: FiniteSpace) -> TorusChecker | None:
    """``torus(khalimsky_circle(n))`` when X is its square S1_n x S1_n,
    with the same down-sets and labels, else None.

    S1_n x S1_n has n^2 points with a down-set of 1 point, 2n^2 with 3 and
    n^2 with 9.  A space of another shape is turned away on that count,
    without building ``torus(S1_n)``, which would replace the torus kept.
    """
    n = isqrt(X.n // 4)
    if n < 2 or X.n != 4 * n * n:
        return None
    if Counter(popcount(d) for d in X.down) != {1: n * n, 3: 2 * n * n, 9: n * n}:
        return None
    checker = torus(khalimsky_circle(n))
    return checker if checker.P == X else None


def _deciders(X: FiniteSpace, checker: TorusChecker | None, mode: str, budget: int):
    """How a search decides the pieces of X, as (status_of, certify):
    ``status_of(mask, parent)`` the status alone, as (status, state), and
    ``certify(mask)`` the verdict with its certificate.

    With a ``checker`` (X is its S x S) pieces go through its
    ``is_categorical`` (mode 'cat') or ``is_section_categorical`` (mode
    'sc'), and statuses through ``piece_status``, grown from ``parent``.
    Without one, a piece (a search piece or a ``DownSet``, open) is
    decided as by ``nullhomotopic_in`` against X's core, collapsed once,
    with no state.  Each piece costs a collapse there, so ``status_of``
    remembers the status of every piece it was asked for, "unknown" too,
    since its budget never changes.
    """
    if checker is None:
        clX, ident = core(X), range(X.n)
        statuses = {}  # mask -> status

        def certify(mask):
            base = (mask & -mask).bit_length() - 1  # -1 on the empty piece, never read
            return decide_on_core(collapse(X, mask), ident, [base] * X.n, X, budget, clX)

        def status_of(mask, parent):
            s = statuses.get(mask)
            if s is None:
                s = statuses[mask] = certify(mask).status
            return s, None

        return status_of, certify

    decide = checker.is_categorical if mode == "cat" else checker.is_section_categorical

    def certify(mask):
        return decide(mask, budget)

    def status_of(mask, parent):
        return checker.piece_status(mask, mode, budget, parent)

    return status_of, certify


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

    The DFS decides each block's piece by ``status_of(mask, parent)``, a
    status alone: "homotopic", "not_homotopic" or "unknown", with a state
    that the block's children grow from, or None.  ``parent`` is the state
    held for the block that the new maximal joins (None for a new block).
    A block is pruned as soon as its piece is "not_homotopic" (sound by
    heredity: open subsets of certified pieces stay certified).  Blocks
    are bitmasks over positions in ``maximals``.  Only ``cover`` calls
    ``certify(mask)``, the full decision with its certificate, and only
    on the pieces of the cover it returns; ``_deciders`` gives both.

    The search keeps no memo and no symmetry group: a block met again, on
    another branch or at the next c, is asked again.  It holds only the
    blocks on the DFS path, each with its state and whether its status
    was "unknown", and drops them on backtrack.
    """

    def __init__(self, space, status_of, certify):
        self.space = space
        self.maximals = list(bits(space.maximal_elements()))
        self.status_of = status_of
        self.certify = certify
        self._down = [space.down[x] for x in self.maximals]
        self.nodes = 0  # DFS calls
        self.asked = 0  # pieces sent to status_of
        self.undecided = 0  # leaves of the last search with no refutation
        self._blocks = []  # the blocks on the DFS path, during a search
        self._states = []  # the state held for each of them
        self._is_unknown = []  # whether each of them is "unknown"

    def piece_mask(self, block: int) -> int:
        m = 0
        for i in bits(block):
            m |= self._down[i]
        return m

    def status(self, block: int, parent=None):
        """The status of ``block``'s piece and the state that ``status_of``
        grew for it from ``parent``."""
        self.asked += 1
        return self.status_of(self.piece_mask(block), parent)

    def search(self, c: int):
        """First partition (as blocks) with every piece certified, else
        None."""
        m = len(self.maximals)
        status = self.status
        blocks = self._blocks = []
        states = self._states = []
        unknown = self._is_unknown = []

        def dfs(i):
            self.nodes += 1
            if i == m:
                # a refuted block never joins the path
                if not any(unknown):
                    return list(blocks)
                self.undecided += 1
                return None
            x = 1 << i
            for bi in range(len(blocks)):
                old, held, was = blocks[bi], states[bi], unknown[bi]
                s, state = status(old | x, held)
                if s == "not_homotopic":
                    continue
                blocks[bi], states[bi], unknown[bi] = old | x, state, s == "unknown"
                got = dfs(i + 1)
                if got is not None:
                    return got
                blocks[bi], states[bi], unknown[bi] = old, held, was
            if len(blocks) < c:
                s, state = status(x)
                if s != "not_homotopic":
                    blocks.append(x)
                    states.append(state)
                    unknown.append(s == "unknown")
                    got = dfs(i + 1)
                    if got is not None:
                        return got
                    blocks.pop()
                    states.pop()
                    unknown.pop()
            return None

        self.undecided = 0
        got = dfs(0)
        self._blocks, self._states, self._is_unknown = [], [], []
        return got

    def cover(self, c: int):
        """A cover by at most c certified pieces, with its certificates
        computed on the pieces themselves, else None.

        Raises AssertionError if a certificate is not "homotopic": the
        status that let the piece into the cover disagrees with it.
        """
        got = self.search(c)
        if got is None:
            return None
        pieces = [DownSet(self.space, self.piece_mask(b)) for b in got]
        certificates = [self.certify(p.members) for p in pieces]
        for p, v in zip(pieces, certificates):
            if v.status != "homotopic":
                raise AssertionError(
                    f"cover piece {p.serialize()} is {v.status} on "
                    f"certification ({v.reason})"
                )
        return Cover(self.space, pieces, certificates)

    def counts(self) -> str:
        return (
            f"search: {self.nodes} DFS nodes, {self.asked} pieces asked, "
            f"{self.undecided} undecided partitions"
        )


def _exact_invariant(
    name, space, status_of, certify, limit, force, start=1, notes=()
):
    """Least c - 1 over certified c-piece covers, trying c = start, start+1...

    Covers with fewer than ``start`` pieces must be excluded by the caller.
    The search stops at the first certified cover (exact), at the first c
    with undecided partitions, or past ``limit`` pieces; a stopped search,
    or one not run past ``MAX_EXACT_MAXIMALS`` without ``force``, returns
    bounds: lower is the largest refuted piece count, at least start - 1.
    """
    searcher = _PartitionSearch(space, status_of, certify)
    nmax = len(searcher.maximals)
    notes = list(notes)
    lower = start - 1
    if nmax > MAX_EXACT_MAXIMALS and not force:
        notes.append(
            f"{nmax} maximal elements > {MAX_EXACT_MAXIMALS}: "
            f"pass force (--force) for exact search"
        )
        return InvariantResult(name, None, lower, None, False, None, notes)
    cmax = limit if limit is not None else nmax
    for c in range(start, cmax + 1):
        cover = searcher.cover(c)
        if cover is not None:
            notes.append(f"certified {c}-piece cover found")
            notes.append(searcher.counts())
            return InvariantResult(name, c - 1, c - 1, c - 1, True, cover, notes)
        if searcher.undecided:
            notes.append(f"{searcher.undecided} partitions undecided at {c} pieces")
            break
        notes.append(f"no certified cover with {c} pieces (exhaustive)")
        lower = c
    else:
        notes.append(f"search stopped at the limit of {cmax} pieces")
    notes.append(searcher.counts())
    return InvariantResult(name, None, lower, None, False, None, notes)


def _check_mode(mode, witness, limit, force, budget):
    """``mode`` is "exact" or "witness"; a witness cover is given exactly in
    witness mode, ``limit`` and ``force`` tune only exact search, a limit
    is not negative, and ``_check_budget`` holds."""
    _check_budget(budget)
    if mode not in ("exact", "witness"):
        raise InvalidParameter(f"mode must be 'exact' or 'witness', not {mode!r}")
    if mode == "witness" and witness is None:
        raise InvalidParameter("witness mode needs a cover")
    if mode != "witness" and witness is not None:
        raise InvalidParameter(f"a witness cover needs mode='witness', not {mode!r}")
    if mode == "witness" and (limit is not None or force):
        raise InvalidParameter("only exact search takes limit and force")
    if limit is not None and limit < 0:
        raise InvalidParameter(f"limit must be at least 0, not {limit}")


def _witness_invariant(name, lower, space, check_piece, witness):
    """Upper bound from a witness cover of ``space``; exact when it meets
    ``lower``.  The result's cover has the witness's pieces with their
    verdicts as certificates; the witness itself is left as it was."""
    if witness.space != space:
        raise MismatchedSpaces("witness cover of a different space")
    verdicts = [check_piece(p.members) for p in witness.pieces]
    ok = all(v.is_homotopic for v in verdicts)
    upper = len(witness.pieces) - 1 if ok else None
    exact = upper == lower
    return InvariantResult(
        name, upper if exact else None, lower, upper, exact,
        Cover(space, witness.pieces, verdicts),
        [f"piece {i}: {v.status} ({v.reason})" for i, v in enumerate(verdicts)],
    )


def cat(
    X: FiniteSpace,
    mode: str = "exact",
    limit: int | None = None,
    budget: int = DEFAULT_BUDGET,
    force: bool = False,
    witness: Cover | None = None,
) -> InvariantResult:
    """LS-category: least m with an (m+1)-piece categorical open cover.

    When X is S1_n x S1_n itself (the down-sets and labels of
    ``torus(khalimsky_circle(n)).P``, as a square saved and read back also
    has), a piece is categorical exactly when it has no cycle of nonzero
    winding, and its certificate is the lift fence from the inclusion to
    a constant; exact search grows the lift of each piece from that of
    the block it extends.  Any other X, a relabelled torus too, has each
    piece decided as ``nullhomotopic_in`` does, once per search.  A
    ``witness`` is read only in witness mode, which needs one and takes no
    ``limit`` or ``force``.  A ``budget`` below 1 is refused, and so is a
    space with no points, whose category is not defined.
    """
    _check_mode(mode, witness, limit, force, budget)
    if not X.n:
        raise InvalidParameter("cat needs a space with at least one point")
    status_of, certify = _deciders(X, _torus_of(X), "cat", budget)
    if mode == "witness":
        return _witness_invariant("cat", 0, X, certify, witness)
    return _exact_invariant("cat", X, status_of, certify, limit, force)


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

    S x S comes from ``torus(circle)``, the one shared with ``build_U``,
    ``build_V`` and ``verify_bundle`` on the same circle (one torus is
    kept).  The realization bound tc >= 1 (the topological circle) seeds
    the search, so piece counts start at 2.  The search asks each piece
    it meets for its status, grown from the block it extends.  A
    ``witness`` is read only in witness mode, which needs one and takes no
    ``limit`` or ``force``.  A ``budget`` below 1 is refused.
    """
    _check_mode(mode, witness, limit, force, budget)
    checker = torus(circle)
    status_of, certify = _deciders(checker.P, checker, "sc", budget)
    if mode == "witness":
        return _witness_invariant("tc", 1, checker.P, certify, witness)
    return _exact_invariant(
        "tc", checker.P, status_of, certify, limit, force,
        start=2, notes=["lower bound 1 from the topological circle"],
    )


# -- colorings of the square grid --------------------------------------


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


def line_masks(checker: TorusChecker):
    """Point masks of every full horizontal and vertical line of S x S."""
    out = []
    for a in range(checker.X.n):
        h = 0
        v = 0
        for x in range(checker.X.n):
            h |= 1 << checker.pair(x, a)
            v |= 1 << checker.pair(a, x)
        out.append(h)
        out.append(v)
    return out


def cell_symmetries(checker: TorusChecker):
    """The automorphisms of the product poset as permutations of the grid
    cells, sorted: ``checker.symmetries()``, whose positions are the
    cells (position i * n + j is the maximal (b_i, b_j))."""
    return sorted(checker.symmetries())


def _simple_colorings(checker: TorusChecker, colors: int, with_masks: bool = False):
    """The simple colorings of the grid with at most ``colors`` colors,
    one per partition of the cells: the colors are numbered in order of
    first appearance, so a cell takes color c only once colors 0..c-1 are
    in use.  These are the partitions of the maximals that exact search
    walks, cell i * n + j being the down-set of the (i * n + j)-th maximal
    of S x S.  They come one at a time, in the lexicographic order of their
    assignments; ``with_masks`` pairs each with the point masks of its
    classes, color by color.

    A depth-first search assigns the cells in index order, tries the
    colors in increasing order, and cuts a branch as soon as the class
    that just grew contains a full point line.  That is sound because
    containing a line is monotone: adding cells to a class never undoes
    it.  The search runs on an explicit stack and stops where the caller
    stops reading.
    """
    if colors < 1:
        raise InvalidParameter("colors >= 1")
    P = checker.P
    cell_masks = [P.down[x] for x in bits(P.maximal_elements())]
    cells = len(cell_masks)
    lines = line_masks(checker)
    # a class can only come to contain a line that its new cell meets
    cell_lines = [tuple(line for line in lines if line & m) for m in cell_masks]
    assignment = [0] * cells
    before = [0] * cells  # the mask of the class a cell joined, before it did
    used = [0] * cells  # the colors in use before a cell is assigned
    masks = [0] * colors
    idx, c = 0, 0  # the cell to assign and the least color left to try
    while True:
        if c < colors and c <= used[idx]:
            grown = masks[c] | cell_masks[idx]
            for line in cell_lines[idx]:
                if line & ~grown == 0:
                    c += 1
                    break
            else:
                before[idx] = masks[c]
                masks[c] = grown
                assignment[idx] = c
                if idx + 1 < cells:
                    used[idx + 1] = max(used[idx], c + 1)
                    idx, c = idx + 1, 0
                    continue
                col = Coloring(checker.n, colors, tuple(assignment))
                yield (col, tuple(masks)) if with_masks else col
                masks[c] = before[idx]
                c += 1
            continue
        if idx == 0:
            return
        idx -= 1
        c = assignment[idx]
        masks[c] = before[idx]
        c += 1


def _is_canonical(assignment, symmetries) -> bool:
    """Whether ``assignment`` is the least of its orbit under the grid
    symmetries ``symmetries`` (as from ``cell_symmetries``) and the color
    permutations.  For one moved assignment the least recoloring numbers
    the colors in order of first appearance, so no color permutation is
    enumerated: no symmetry, renumbered so, may give a smaller assignment.
    The identity is one of them, so an assignment not itself numbered that
    way is refused.  Each comparison stops at the first cell where the two
    differ."""
    cells = len(assignment)
    for perm in symmetries:
        moved = [0] * cells
        for cell, v in enumerate(assignment):
            moved[perm[cell]] = v
        first = {}
        for a, v in zip(assignment, moved):
            b = first.setdefault(v, len(first))
            if b != a:
                if b < a:
                    return False
                break
    return True


def enumerate_simple_colorings(
    checker: TorusChecker, colors: int, symmetry: bool = True
):
    """The simple colorings of the grid of ``checker`` with ``colors``
    colors, as a sorted list.

    With ``symmetry`` on, the canonical representatives under
    ``cell_symmetries`` and color permutations.  The walk is lazy and keeps
    a partition only when it is the least of its orbit: the least is simple
    too (a symmetry maps full lines to full lines, a recoloring keeps the
    classes), so every orbit is met at its least member, and the walk meets
    them in sorted order.  With it off, every simple coloring: each
    partition of the walk under every injective relabelling of its colors.
    """
    found = _simple_colorings(checker, colors)
    if not symmetry:
        every = sorted(
            tuple(relabel[v] for v in col.assignment)
            for col in found
            for relabel in permutations(range(colors), max(col.assignment) + 1)
        )
        return [Coloring(checker.n, colors, a) for a in every]
    syms = cell_symmetries(checker)
    return [col for col in found if _is_canonical(col.assignment, syms)]


# -- the coloring route to the two-piece impossibility -----------------


def line_lemma(checker: TorusChecker):
    """Check that every full line is a circle on which the two projections
    have distinct degrees.

    Any open set containing such a line cannot be section-categorical: a
    fence between the projections would restrict to the line and force
    equal degrees.  Returns the (d1, d2) pairs, one per line.
    """
    out = []
    for mask in line_masks(checker):
        sub, old_ids = checker.P.subspace(mask)
        rec = recognize_circle(sub)
        if rec is None:
            raise AssertionError("a full line must be a circle")
        d1, d2 = checker.degrees_on_circle(sub, old_ids, rec)
        if d1 == d2:
            raise AssertionError("projections agree on a line")
        out.append((d1, d2))
    return out


def two_color_refutation(checker: TorusChecker, budget: int = DEFAULT_BUDGET):
    """No 2-piece principal cover of S x S is section-categorical.

    Non-simple colorings die by the line lemma; the simple 2-colorings,
    one per partition of the cells and with no grid symmetry factored out,
    are walked one at a time and checked piece by piece, each piece the
    point mask of a class that the walk holds.  A coloring's classes are
    decided in order up to the first refuted one, which names the
    coloring's note; the class past it is never decided.  No piece is
    shared between colorings: a class's mask fixes its 2-partition.  The
    walk stops at the first coloring that is not refuted, since one is
    enough to leave the claim unproven, and the colorings past it are
    never built.  Returns (refuted, the colorings checked, each with the
    point masks of its two classes, notes).
    """
    degs = line_lemma(checker)
    notes = [f"line lemma: {len(degs)} lines, projection degrees all distinct"]
    checked = []
    for idx, (col, masks) in enumerate(_simple_colorings(checker, 2, with_masks=True)):
        checked.append((col, masks))
        # a simple 2-coloring has two classes: one alone would hold every line
        verdicts = []
        for m in masks:
            verdicts.append(checker.is_section_categorical(m, budget))
            if verdicts[-1].status == "not_homotopic":
                break
        if verdicts[-1].status != "not_homotopic":
            notes.append(
                f"coloring {idx}: not refuted "
                f"({'; '.join(v.status for v in verdicts)})"
            )
            notes.insert(
                1, f"{len(checked)} simple 2-colorings checked, the last not refuted"
            )
            return False, checked, notes
        notes.append(f"coloring {idx}: fails ({verdicts[-1].reason})")
    notes.insert(1, f"{len(checked)} simple 2-colorings")
    return True, checked, notes


def tc_via_colorings(
    circle: KhalimskyCircle, budget: int = DEFAULT_BUDGET
) -> InvariantResult:
    """tc of a digital circle with the 2-piece impossibility argued through
    simple colorings, then the exact search from 3 pieces on.  A simple
    2-coloring whose two pieces are both certified is a 2-piece cover,
    which meets the lower bound: tc = 1, with that cover."""
    _check_budget(budget)
    checker = torus(circle)
    refuted, checked, notes = two_color_refutation(checker, budget)
    notes = ["lower bound 1 from the topological circle"] + notes
    if not refuted:
        masks = checked[-1][1]
        # the checker remembers these verdicts from the refutation's walk
        certificates = [checker.is_section_categorical(m, budget) for m in masks]
        if all(v.is_homotopic for v in certificates):
            notes.append("certified 2-piece cover found")
            pieces = [DownSet(checker.P, m) for m in masks]
            cover = Cover(checker.P, pieces, certificates)
            return InvariantResult("tc", 1, 1, 1, True, cover, notes)
        notes.append("a simple 2-coloring was not refuted")
        return InvariantResult("tc", None, 1, None, False, None, notes)
    notes.append("no certified cover with 2 pieces (colorings + line lemma)")
    status_of, certify = _deciders(checker.P, checker, "sc", budget)
    # no maximals gate: the colorings, the costly part, are already paid for
    return _exact_invariant(
        "tc", checker.P, status_of, certify, None, True, start=3, notes=notes
    )
