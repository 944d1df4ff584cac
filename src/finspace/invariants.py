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
projections at the core's points, and the piece is copied only for a
fence that must be lifted to it.  On any other space ``cat`` sends each
piece to the same stages, against the core of the space.

Exact search runs over partitions of the maximal elements (principal
covers suffice, and any certified cover shrinks to a certified partition
because both criteria are hereditary under passing to open subsets);
``cat`` and ``tc`` share it.  It prunes a block as soon as its piece is
refuted, and decides each piece once per orbit of a group that preserves
the verdict: Aut(S)^2 with the factor swap (order 8n^2) for cat, phi x phi
with the swap (order 4n) for tc.  The search asks only for a piece's
status, which for a lift-decided piece needs no subspace and no fence:
the winding test grows along the DFS path (``TorusChecker.piece_status``),
from the labels of the block that a new maximal joins.  The pieces of the
cover it prints are decided again in full, with their certificates.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from sys import byteorder

from .errors import InvalidParameter, MismatchedSpaces, NotOpen
from .homotopy import (
    DEFAULT_BUDGET,
    HomotopyVerdict,
    Lift,
    _clamps,
    collapse,
    core,
    decide_on_core,
    degrees,
    oriented,
    through_constants,
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

    def symmetries(self, mode: str):
        """The group that preserves ``mode`` verdicts, as permutations of
        the maximal elements of S x S (dicts from each maximal to its
        image), without repeats.

        The circle automorphisms are the rotations p -> p + r and the
        reflections p -> r - p for even r, 2n in all.  Mode 'cat' gets
        Aut(S)^2 with the factor swap, of order 8n^2: a homeomorphism of
        S x S maps categorical pieces to categorical pieces.  Mode 'sc'
        gets only phi x phi with the swap, of order 4n: pi_i o (phi x phi)
        = phi o pi_i, and the swap exchanges pi1 and pi2.  phi x psi with
        phi != psi is excluded there, since it turns pi1 ~ pi2 into
        phi o pi1 ~ psi o pi2, and a rotation of S is not homotopic to the
        identity.
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
        if mode == "cat":
            pairs = [(s, t) for s in circle for t in circle]
        else:
            pairs = [(s, s) for s in circle]
        maxs = [self.coords(m) for m in bits(self.P.maximal_elements())]
        group = {}
        for s, t in pairs:
            for perm in (
                {self.pair(x, y): self.pair(s[x], t[y]) for x, y in maxs},
                {self.pair(x, y): self.pair(t[y], s[x]) for x, y in maxs},
            ):
                group.setdefault(tuple(sorted(perm.items())), perm)
        return list(group.values())

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
        The stages read both projections at the core's points, and only a
        fence to be lifted copies U."""
        if cl is None:
            cl = self._collapses.get(mask) or collapse(self.P, mask)
        return decide_on_core(cl, self.pi1.table, self.pi2.table, self.clX, budget)

    def piece_status(
        self, mask: int, mode: str, budget: int = DEFAULT_BUDGET, parent=None
    ):
        """The status of ``_decide(mask, mode, budget)`` without its
        certificate, as (status, state): the lift grown from ``parent`` (the
        state of an open piece inside U, or None), then the stages on U's
        core if a cycle winds (d, d), d != 0.  The state is None when U is
        refuted or a remembered verdict answers.  No status or collapse is
        remembered here; the search keeps its own memo of statuses, which
        ends with it.  U must be open, and is not checked: exact search
        builds only unions of down-sets of maximals.
        """
        v = self._verdicts.get((mask, mode, budget))
        if v is not None:
            return v.status, None
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
        no winding gets a fence built from the lift, ``rooted`` at the
        least point of each component: mode 'cat' contracts the inclusion
        U -> S x S to a constant by ``lift_fence``; mode 'sc' builds a
        fence on U from pi1|U to pi2|U by ``through_constants``.  The rest,
        'sc' pieces with a cycle of winding (d, d), d != 0, go to
        ``_on_core`` on U's remembered collapse.
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
        phi = self.lift.rooted(state, bits(mask))
        sub, old_ids = self.P.subspace(mask)
        if mode == "cat":
            fence = self.lift_fence(old_ids, phi)
            target, ends = self.P, "to a constant"
        else:
            fence = through_constants(sub, self.X, phi, old_ids, self.num)
            target, ends = self.X, "through constants"
        return HomotopyVerdict(
            "homotopic", fence, sub, target,
            reason=f"projections lift to the digital line; "
            f"fence of {len(fence)} maps {ends}",
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
    """How a search decides the pieces of X, as (status_of, certify,
    group): ``status_of(mask, parent)`` the status alone, as (status,
    state), ``certify(mask)`` the verdict with its certificate, and
    ``group()`` the symmetries that exact search may use, built only when
    it asks (witness mode does not).

    With a ``checker`` (X is its S x S) pieces go through its
    ``is_categorical`` (mode 'cat') or ``is_section_categorical`` (mode
    'sc'), statuses through ``piece_status``, grown from ``parent``, and
    the group is ``checker.symmetries(mode)``.  Without one, a piece (a
    search piece or a ``DownSet``, open) is decided as by ``nullhomotopic_in``
    against X's core, collapsed once, with no state and no symmetry.
    """
    if checker is None:
        clX, ident = core(X), range(X.n)

        def certify(mask):
            base = (mask & -mask).bit_length() - 1  # -1 on the empty piece, never read
            return decide_on_core(collapse(X, mask), ident, [base] * X.n, clX, budget)

        def status_of(mask, parent):
            return certify(mask).status, None

        return status_of, certify, lambda: ()

    decide = checker.is_categorical if mode == "cat" else checker.is_section_categorical

    def certify(mask):
        return decide(mask, budget)

    def status_of(mask, parent):
        return checker.piece_status(mask, mode, budget, parent)

    return status_of, certify, lambda: checker.symmetries(mode)


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
    held for the block that the new maximal joins (None for a new block),
    which is that of the block's piece or of a piece inside it.  A state
    is held only for each block on the DFS path and is dropped on
    backtrack.  A block is pruned as soon as its piece is "not_homotopic"
    (sound by heredity: open subsets of certified pieces stay certified).
    Blocks are bitmasks over positions in ``maximals``.  Only ``cover``
    calls ``certify(mask)``, the full decision with its certificate, and
    only on the pieces of the cover it returns; ``_deciders`` gives both.

    Piece statuses are memoized per block.  On a miss the block's least
    image under ``group`` (permutations of the maximals that map certified
    pieces to certified pieces and the others to the others) keys a second
    memo, so each piece is decided once per orbit.  Only decided statuses
    are shared across an orbit; an "unknown" stays with its own block.
    The DFS order does not depend on the group.
    """

    def __init__(self, space, status_of, certify, group=()):
        self.space = space
        self.maximals = list(bits(space.maximal_elements()))
        self.status_of = status_of
        self.certify = certify
        self._down = [space.down[x] for x in self.maximals]
        pos = {x: i for i, x in enumerate(self.maximals)}
        # bit-sliced images: slot j of _images[i] holds the image of bit i
        # under the j-th group element, so OR-ing the _images of a block's
        # bits gives all its images at once
        m = len(self.maximals)
        self._width = 8 if m <= 64 else (m + 7) // 8  # bytes per slot
        self._images = [0] * m if group else []
        for j, g in enumerate(group):
            for i, x in enumerate(self.maximals):
                self._images[i] |= 1 << (pos[g[x]] + 8 * self._width * j)
        self._count = len(group)
        self._status = {}  # block -> status
        self._orbit = {}  # least image -> decided status
        self.nodes = 0  # DFS calls
        self.decided = 0  # pieces sent to status_of
        self.orbit_hits = 0  # statuses read off another block of the orbit
        self.undecided = 0  # leaves of the last search with no refutation
        self._blocks = []  # the blocks on the DFS path, during a search
        self._states = []  # the state held for each of them

    def piece_mask(self, block: int) -> int:
        m = 0
        for i in bits(block):
            m |= self._down[i]
        return m

    def least_image(self, block: int) -> int:
        """The least bitmask in the orbit of ``block``."""
        images = 0
        for i in bits(block):
            images |= self._images[i]
        w = self._width
        raw = images.to_bytes(w * self._count, byteorder)
        if w == 8:
            return min(memoryview(raw).cast("Q"))
        return min(
            int.from_bytes(raw[k : k + w], byteorder)
            for k in range(0, len(raw), w)
        )

    def status(self, block: int, parent=None):
        """The status of ``block``'s piece and the state that ``status_of``
        grew for it from ``parent``, or None when a memo answers."""
        s = self._status.get(block)
        if s is not None:
            return s, None
        state = None
        key = self.least_image(block) if self._images else None
        s = self._orbit.get(key)
        if s is None:
            s, state = self.status_of(self.piece_mask(block), parent)
            self.decided += 1
            if key is not None and s != "unknown":
                self._orbit[key] = s
        else:
            self.orbit_hits += 1
        self._status[block] = s
        return s, state

    def search(self, c: int):
        """First partition (as blocks) with every piece certified, else
        None."""
        m = len(self.maximals)
        status = self.status
        blocks = self._blocks = []
        states = self._states = []

        def dfs(i):
            self.nodes += 1
            if i == m:
                statuses = [self._status[b] for b in blocks]
                if all(s == "homotopic" for s in statuses):
                    return list(blocks)
                if "not_homotopic" not in statuses:
                    self.undecided += 1
                return None
            x = 1 << i
            for bi in range(len(blocks)):
                old, held = blocks[bi], states[bi]
                s, state = status(old | x, held)
                if s == "not_homotopic":
                    continue
                # a memo gives no state: the children grow from ``held``
                blocks[bi], states[bi] = old | x, state or held
                got = dfs(i + 1)
                if got is not None:
                    return got
                blocks[bi], states[bi] = old, held
            if len(blocks) < c:
                s, state = status(x)
                if s != "not_homotopic":
                    blocks.append(x)
                    states.append(state)
                    got = dfs(i + 1)
                    if got is not None:
                        return got
                    blocks.pop()
                    states.pop()
            return None

        self.undecided = 0
        got = dfs(0)
        self._blocks, self._states = [], []
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
            f"search: {self.nodes} DFS nodes, {self.decided} pieces decided, "
            f"{self.orbit_hits} orbit-memo hits, "
            f"{self.undecided} undecided partitions"
        )


def _exact_invariant(
    name, space, status_of, certify, limit, force, start=1, notes=(), group=()
):
    """Least c - 1 over certified c-piece covers, trying c = start, start+1...

    Covers with fewer than ``start`` pieces must be excluded by the caller.
    The search stops at the first certified cover (exact), at the first c
    with undecided partitions, or past ``limit`` pieces; a stopped search,
    or one not run past ``MAX_EXACT_MAXIMALS`` without ``force``, returns
    bounds: lower is the largest refuted piece count, at least start - 1.
    """
    searcher = _PartitionSearch(space, status_of, certify, group)
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


def _check_budget(budget):
    """A budget is at least 1, as the CLI's ``--budget`` is."""
    if budget < 1:
        raise InvalidParameter(f"budget must be at least 1, not {budget}")


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
    a constant.  The exact search then decides one piece per orbit of
    Aut(S)^2 with the factor swap (order 8n^2), since a homeomorphism maps
    categorical pieces to categorical pieces.  Any other X, a relabelled
    torus too, has each piece decided as ``nullhomotopic_in`` does, and
    the search uses no symmetry.  A ``witness`` is read only in witness
    mode, which needs one and takes no ``limit`` or ``force``.  A
    ``budget`` below 1 is refused.
    """
    _check_mode(mode, witness, limit, force, budget)
    status_of, certify, group = _deciders(X, _torus_of(X), "cat", budget)
    if mode == "witness":
        return _witness_invariant("cat", 0, X, certify, witness)
    return _exact_invariant("cat", X, status_of, certify, limit, force, group=group())


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
    the search, so piece counts start at 2.  The search decides one piece
    per orbit of phi x phi (phi in Aut(S)) with the factor swap, order 4n,
    which preserves pi1|U ~ pi2|U.  phi x psi with phi != psi does not: a
    rotation of S is not homotopic to the identity.  A ``witness`` is read
    only in witness mode, which needs one and takes no ``limit`` or
    ``force``.  A ``budget`` below 1 is refused.
    """
    _check_mode(mode, witness, limit, force, budget)
    checker = torus(circle)
    status_of, certify, group = _deciders(checker.P, checker, "sc", budget)
    if mode == "witness":
        return _witness_invariant("tc", 1, checker.P, certify, witness)
    return _exact_invariant(
        "tc", checker.P, status_of, certify, limit, force,
        start=2, notes=["lower bound 1 from the topological circle"],
        group=group(),
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
    return SquareGrid(circle, torus(circle))


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


def cell_symmetries(grid: SquareGrid):
    """The automorphisms of the product poset, as permutations of cells.

    ``TorusChecker.symmetries('cat')``, the circle symmetries (rotations
    by a full cell, the reflections) per factor plus the coordinate swap,
    restricted to the maximal elements: cell (i,j) is (b_i, b_j).
    """
    n = grid.n
    circ = grid.circle
    cell_of_max = {
        grid.checker.pair(circ.b(i), circ.b(j)): i * n + j
        for i in range(n)
        for j in range(n)
    }
    out = set()
    for g in grid.checker.symmetries("cat"):
        perm = [0] * (n * n)
        for m, cell in cell_of_max.items():
            perm[cell] = cell_of_max[g[m]]
        out.add(tuple(perm))
    return sorted(out)


def _simple_colorings(grid: SquareGrid, colors: int):
    """The simple colorings of the grid with ``colors`` colors, one at a
    time, in the lexicographic order of their assignments.

    A depth-first search assigns the cells in index order i*n + j, tries
    the colors in increasing order, and cuts a branch as soon as the class
    that just grew contains a full point line.  That is sound because
    containing a line is monotone: adding cells to a class never undoes
    it.  The search runs on an explicit stack and stops where the caller
    stops reading.
    """
    if colors < 1:
        raise InvalidParameter("colors >= 1")
    n = grid.n
    cells = n * n
    lines = grid.line_masks()
    cell_masks = [grid.cell_mask(i, j) for i in range(n) for j in range(n)]
    # a class can only come to contain a line that its new cell meets
    cell_lines = [tuple(line for line in lines if line & m) for m in cell_masks]
    assignment = [0] * cells
    before = [0] * cells  # the mask of the class a cell joined, before it did
    masks = [0] * colors
    idx, c = 0, 0  # the cell to assign and the least color left to try
    while True:
        if c < colors:
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
                    idx, c = idx + 1, 0
                    continue
                yield Coloring(n, colors, tuple(assignment))
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
    enumerated: the assignment must itself be numbered that way, and no
    symmetry, renumbered so, may give a smaller one.  Each comparison
    stops at the first cell where the two differ."""
    first = {}
    for v in assignment:
        if first.setdefault(v, len(first)) != v:
            return False
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


def enumerate_simple_colorings(grid: SquareGrid, colors: int, symmetry: bool = True):
    """The simple colorings of the grid with ``colors`` colors, as a list.

    With ``symmetry`` off, every simple coloring in the order of
    ``_simple_colorings``.  With it on, the sorted canonical representatives
    under ``cell_symmetries`` and color permutations.  The walk is lazy and
    keeps a coloring only when it is the least of its orbit: the least is
    simple too (a symmetry maps full lines to full lines, a recoloring
    keeps the classes), so every orbit is met at its least member, and the
    walk meets them in sorted order.
    """
    found = _simple_colorings(grid, colors)
    if not symmetry:
        return list(found)
    syms = cell_symmetries(grid)
    return [col for col in found if _is_canonical(col.assignment, syms)]


# -- the coloring route to the two-piece impossibility -----------------


def line_lemma(grid: SquareGrid):
    """Check that every full line is a circle on which the two projections
    have distinct degrees.

    Any open set containing such a line cannot be section-categorical: a
    fence between the projections would restrict to the line and force
    equal degrees.  Returns the (d1, d2) pairs, one per line.
    """
    out = []
    for mask in grid.line_masks():
        sub, old_ids = grid.checker.P.subspace(mask)
        rec = recognize_circle(sub)
        if rec is None:
            raise AssertionError("a full line must be a circle")
        d1, d2 = grid.checker.degrees_on_circle(sub, old_ids, rec)
        if d1 == d2:
            raise AssertionError("projections agree on a line")
        out.append((d1, d2))
    return out


def two_color_refutation(grid: SquareGrid, budget: int = DEFAULT_BUDGET):
    """No 2-piece principal cover of S x S is section-categorical.

    Non-simple colorings die by the line lemma; the simple 2-colorings,
    with no symmetry factored out, are walked one at a time and checked
    piece by piece.  The checker remembers its verdicts, so a piece shared
    between colorings is decided once.  The walk stops at the first
    coloring that is not refuted, since one is enough to leave the claim
    unproven, and the colorings past it are never built.  Returns
    (refuted, the colorings checked, notes).
    """
    degs = line_lemma(grid)
    notes = [f"line lemma: {len(degs)} lines, projection degrees all distinct"]
    checked = []
    for idx, col in enumerate(_simple_colorings(grid, 2)):
        checked.append(col)
        verdicts = [
            grid.checker.is_section_categorical(p.members, budget)
            for p in cover_from_coloring(grid, col).pieces
        ]
        bad = [v for v in verdicts if v.status == "not_homotopic"]
        if not bad:
            notes.append(
                f"coloring {idx}: not refuted "
                f"({'; '.join(v.status for v in verdicts)})"
            )
            notes.insert(
                1, f"{len(checked)} simple 2-colorings checked, the last not refuted"
            )
            return False, checked, notes
        notes.append(f"coloring {idx}: fails ({bad[0].reason})")
    notes.insert(1, f"{len(checked)} simple 2-colorings")
    return True, checked, notes


def tc_via_colorings(
    circle: KhalimskyCircle, budget: int = DEFAULT_BUDGET
) -> InvariantResult:
    """tc of a digital circle with the 2-piece impossibility argued through
    simple colorings, then the exact search from 3 pieces on."""
    _check_budget(budget)
    checker = torus(circle)
    grid = SquareGrid(circle, checker)
    refuted, _, notes = two_color_refutation(grid, budget)
    notes = ["lower bound 1 from the topological circle"] + notes
    if not refuted:
        notes.append("a simple 2-coloring was not refuted")
        return InvariantResult("tc", None, 1, None, False, None, notes)
    notes.append("no certified cover with 2 pieces (colorings + line lemma)")
    status_of, certify, group = _deciders(checker.P, checker, "sc", budget)
    # no maximals gate: the colorings, the costly part, are already paid for
    return _exact_invariant(
        "tc", checker.P, status_of, certify, None, True,
        start=3, notes=notes, group=group(),
    )
