import random
import re
import weakref
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

import finspace.homotopy as homotopy_module
import finspace.invariants as invariants_module
import finspace.witness as witness_module
from finspace.errors import InvalidParameter, MismatchedSpaces, NotOpen
from finspace.invariants import (
    Coloring,
    Cover,
    TorusChecker,
    _is_canonical,
    cat,
    cell_symmetries,
    enumerate_simple_colorings,
    format_cover,
    line_lemma,
    line_masks,
    parse_cover,
    tc,
    tc_via_colorings,
    torus,
    two_color_refutation,
)
from finspace.homotopy import (
    DEFAULT_BUDGET,
    HomotopyVerdict,
    decide_on_core,
    homotopic,
    nullhomotopic_in,
    through_constants,
)
from finspace.space import (
    DownSet,
    FiniteSpace,
    OrderMap,
    bits,
    build_space,
    khalimsky_circle,
    khalimsky_interval,
    popcount,
    product,
    read_space,
    write_space,
)
from reference import (
    adjacency_potentials,
    brute_force_simple_colorings,
    canonical_coloring,
    cat_by_partitions,
    class_masks,
    coloring_from_rows,
    comparability_components,
    cover_from_coloring,
    first_appearance,
    grid_masks,
    grid_symmetries,
    hom_component_status,
    is_simple,
    listed_coloring_classes,
    winding_status,
)
from test_circles import relabelled


def arcs_cover(X, blocks):
    """Cover by down-sets of the listed maximal-point blocks."""
    pieces = []
    for block in blocks:
        m = 0
        for x in block:
            m |= X.down[x]
        pieces.append(DownSet(X, m))
    return Cover(X, pieces)


def test_cover_must_cover():
    X = khalimsky_circle(2).space
    with pytest.raises(InvalidParameter):
        Cover(X, [DownSet(X, X.down[1])])


def test_cover_serialization_round_trip():
    X = khalimsky_circle(2).space
    empty, full = DownSet(X, 0), DownSet(X, X.full)
    # an empty piece is written as a blank line, and read back as a piece
    for pieces in (
        arcs_cover(X, [[1], [3]]).pieces, [empty, full], [full, empty], [empty, full, empty],
    ):
        text = format_cover(Cover(X, pieces), "c2")
        for tail in ("", "\n\n"):  # blank lines past the pieces are none
            again = parse_cover(X, text + tail)
            assert [p.members for p in again.pieces] == [p.members for p in pieces]


def test_section_categorical_rejects_non_open():
    K = khalimsky_circle(2)
    ch = TorusChecker(K)
    with pytest.raises(NotOpen):
        ch.is_section_categorical(1 << 3)


def test_torus_checker_rejects_points_outside_the_space():
    ch = TorusChecker(khalimsky_circle(2))
    for mask in (1 << ch.P.n, ch.P.full | 1 << 70):
        for decide in (ch.is_categorical, ch.is_section_categorical):
            with pytest.raises(InvalidParameter, match="members outside the space"):
                decide(mask)
    assert ch._verdicts == {}


def test_whole_product_not_section_categorical():
    K = khalimsky_circle(3)
    ch = TorusChecker(K)
    v = ch.is_section_categorical(ch.P.full)
    assert v.status == "not_homotopic"


def test_diagonal_band_core_is_too_short():
    # the 3-cell diagonal band has a 50-point core, not a circle; fence BFS
    # on that core exhausts the component of pi1 without reaching pi2
    K = khalimsky_circle(5)
    ch = TorusChecker(K)
    n = K.n
    mask = 0
    for i in range(n):
        for j in (i - 1, i, i + 1):
            mask |= ch.P.down[ch.pair(2 * i + 1, 2 * (j % n) + 1)]
    v = ch.is_section_categorical(mask)
    assert v.status == "not_homotopic"
    assert v.reason.startswith("comparability component of f exhausted")
    assert "on the domain core (50 of 80 points)" in v.reason


def test_categorical_arc_and_whole_space():
    X = khalimsky_circle(4).space
    arc = DownSet(X, X.down[1] | X.down[3])
    assert nullhomotopic_in(arc, X).is_homotopic
    assert not nullhomotopic_in(DownSet(X, X.full), X).is_homotopic


def test_cat_of_circles_is_one():
    for n in (2, 3, 4):
        res = cat(khalimsky_circle(n).space)
        assert res.exact and res.value == 1


def test_tc_small_circles():
    assert tc(khalimsky_circle(2)).value == 3
    assert tc(khalimsky_circle(3)).value == 2


def test_tc_witness_mode_round_trip():
    K = khalimsky_circle(3)
    ch = TorusChecker(K)
    res = tc(K)
    cover_text = format_cover(res.cover)
    cov = parse_cover(ch.P, cover_text)
    wres = tc(K, mode="witness", witness=cov)
    assert wres.upper == 2
    # the result's cover carries the verdicts; the witness is left as it was
    assert wres.cover is not cov and cov.certificates == []
    assert wres.cover.pieces == cov.pieces
    assert [v.status for v in wres.cover.certificates] == ["homotopic"] * 3


def test_grid_cells_partition_maximals():
    # the maximals (b_i, b_j) of product(S, S) come out row-major, so cell
    # i * n + j is the down-set of the (i * n + j)-th maximal; b_i is point
    # 2i + 1 of the circle
    for n in range(2, 7):
        ch = TorusChecker(khalimsky_circle(n))
        maxs = list(bits(ch.P.maximal_elements()))
        assert maxs == [
            ch.pair(2 * i + 1, 2 * j + 1) for i in range(n) for j in range(n)
        ]
        cells, lines = grid_masks(ch)
        assert cells == [ch.P.down[x] for x in maxs]
        seen = 0
        for m in cells:
            seen |= m
        assert seen == ch.P.full
        assert line_masks(ch) == lines


def test_line_masks_are_circles_with_distinct_degrees():
    degs = line_lemma(TorusChecker(khalimsky_circle(4)))
    assert len(degs) == 16
    for d1, d2 in degs:
        assert {abs(d1), abs(d2)} == {0, 1}


def test_cell_symmetry_group_order():
    syms = cell_symmetries(TorusChecker(khalimsky_circle(4)))
    # rotations and reflections per factor, plus the swap
    assert len(syms) == 2 * (2 * 4) * (2 * 4)
    assert syms == grid_symmetries(4)


def compose(g, h):
    """g after h, as position tuples."""
    return tuple(g[i] for i in h)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("mode", ["cat", "sc"])
def test_symmetries_are_a_group_of_position_tuples(n, mode):
    ch = TorusChecker(khalimsky_circle(n))
    group = ch.symmetries(mode)
    m = n * n
    # at n = 2 a circle automorphism acts on the two maximals of S as one
    # of 2 permutations, not 2n = 4
    k = 2 if n == 2 else 2 * n
    assert len(group) == len(set(group)) == (2 * k * k if mode == "cat" else 2 * k)
    assert all(sorted(g) == list(range(m)) for g in group)
    assert tuple(range(m)) in group
    members = set(group)
    assert all(compose(g, h) in members for g in group for h in group)
    if mode == "cat":
        assert sorted(group) == cell_symmetries(ch) == grid_symmetries(n)
    # position i * n + j is the maximal (b_i, b_j): the swap sends it to
    # (b_j, b_i), the rotation of both factors by one cell to (b_i+1, b_j+1)
    swap = tuple(j * n + i for i in range(n) for j in range(n))
    turn = tuple((i + 1) % n * n + (j + 1) % n for i in range(n) for j in range(n))
    assert swap in members and turn in members


def test_simple_rejects_full_row_class():
    rows = ["1111", "0000", "0000", "0000"]
    col = coloring_from_rows(rows, 2)
    assert not is_simple(TorusChecker(khalimsky_circle(4)), col)


def test_checkerboard_not_simple():
    # adjacent cell rows of one class jointly cover a point line
    col = coloring_from_rows(["0101", "1010", "0101", "1010"], 2)
    assert not is_simple(TorusChecker(khalimsky_circle(4)), col)


def test_canonical_form_is_orbit_invariant():
    syms = grid_symmetries(4)
    col = coloring_from_rows(["1001", "0011", "0110", "1100"], 2)
    canon = canonical_coloring(col, syms)
    flipped = coloring_from_rows(["0110", "1100", "1001", "0011"], 2)
    assert canonical_coloring(flipped, syms).assignment == canon.assignment


def reference_canonical_assignment(coloring, symmetries):
    """Reference: the least assignment over every cell symmetry and every
    color permutation, each permutation tried."""
    cells = len(coloring.assignment)
    best = None
    for perm in symmetries:
        moved = [0] * cells
        for cell in range(cells):
            moved[perm[cell]] = coloring.assignment[cell]
        cand = min(
            tuple(p[v] for v in moved)
            for p in permutations(range(coloring.colors))
        )
        if best is None or cand < best:
            best = cand
    return best


@pytest.mark.parametrize("n,colors", [(3, 3), (4, 2)])
def test_canonical_coloring_matches_permutation_reference(n, colors):
    ch = TorusChecker(khalimsky_circle(n))
    syms = cell_symmetries(ch)
    raw = enumerate_simple_colorings(ch, colors, symmetry=False)
    assert raw
    for col in raw:
        least = reference_canonical_assignment(col, syms)
        assert canonical_coloring(col, syms).assignment == least
        assert _is_canonical(col.assignment, syms) == (col.assignment == least)


@pytest.mark.parametrize("n,colors", [(3, 2), (4, 2), (3, 3)])
def test_lazy_coloring_classes_match_the_listed_ones(n, colors):
    ch = TorusChecker(khalimsky_circle(n))
    assert enumerate_simple_colorings(ch, colors) == listed_coloring_classes(ch, colors)


def test_coloring_classes_hold_no_list_of_all_colorings(monkeypatch):
    # the walk keeps only orbit leaders: beside them, at most the coloring
    # just read and the one before it are alive at any time
    ch = TorusChecker(khalimsky_circle(3))
    walk = invariants_module._simple_colorings
    alive = weakref.WeakSet()
    peak = total = 0

    def watched(checker, colors):
        nonlocal peak, total
        for col in walk(checker, colors):
            alive.add(col)
            total += 1
            peak = max(peak, len(alive))
            yield col

    monkeypatch.setattr(invariants_module, "_simple_colorings", watched)
    classes = enumerate_simple_colorings(ch, 3)
    assert classes == listed_coloring_classes(ch, 3)
    assert total > 10 * len(classes)
    assert peak <= len(classes) + 2


@pytest.mark.parametrize("n,colors", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_simple_colorings_match_brute_force(n, colors):
    ch = TorusChecker(khalimsky_circle(n))
    got = enumerate_simple_colorings(ch, colors, symmetry=False)
    assert got == brute_force_simple_colorings(ch, colors)


@pytest.mark.parametrize("n,colors", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_coloring_walk_meets_each_partition_once(n, colors):
    # the walk yields the simple colorings numbered by first appearance:
    # one per partition of the cells, with the point masks of its classes
    ch = TorusChecker(khalimsky_circle(n))
    walked = list(invariants_module._simple_colorings(ch, colors, with_masks=True))
    want = [
        col
        for col in brute_force_simple_colorings(ch, colors)
        if first_appearance(col.assignment)
    ]
    assert [col for col, _ in walked] == want
    assert all(list(masks) == class_masks(ch, col) for col, masks in walked)


def test_simple_coloring_classes_match_brute_force():
    ch = TorusChecker(khalimsky_circle(4))
    syms = grid_symmetries(4)
    want = {
        canonical_coloring(c, syms).assignment
        for c in brute_force_simple_colorings(ch, 2)
    }
    got = enumerate_simple_colorings(ch, 2)
    assert [c.assignment for c in got] == sorted(want)


def piece_sets(ch, colorings):
    """The pieces of each coloring's cover, as a set of point masks."""
    return [
        frozenset(p.members for p in cover_from_coloring(ch, col).pieces)
        for col in colorings
    ]


def test_two_color_refutation_for_n4():
    ch = TorusChecker(khalimsky_circle(4))
    refuted, checked, notes = two_color_refutation(ch)
    assert refuted
    colorings = [col for col, _ in checked]
    assert len(colorings) == 12
    assert colorings == [
        col
        for col in enumerate_simple_colorings(ch, 2, symmetry=False)
        if first_appearance(col.assignment)
    ]
    for col, masks in checked:
        assert list(masks) == class_masks(ch, col)
        statuses = [ch.is_section_categorical(m).status for m in masks]
        assert "not_homotopic" in statuses
    # the 24 simple 2-colorings give no cover beyond those of the 12
    every = enumerate_simple_colorings(ch, 2, symmetry=False)
    assert len(every) == 24
    assert set(piece_sets(ch, every)) == set(piece_sets(ch, colorings))
    assert "12 simple 2-colorings" in notes


def test_two_color_refutation_checks_each_partition_once():
    ch = TorusChecker(khalimsky_circle(4))
    refuted, checked, notes = two_color_refutation(ch)
    covers = [frozenset(masks) for _, masks in checked]
    assert len(covers) == len(set(covers)) == 12
    assert covers == piece_sets(ch, [col for col, _ in checked])


def test_two_color_refutation_decides_each_piece_once(monkeypatch):
    # decisions are counted where the checker's memo misses: each coloring's
    # classes are certified in order up to its first refuted one, each
    # piece once, and remembered once
    ch = TorusChecker(khalimsky_circle(4))
    asked = []
    certify = ch._certify

    def counted(mask, mode, budget):
        asked.append(mask)
        return certify(mask, mode, budget)

    monkeypatch.setattr(ch, "_certify", counted)
    refuted, checked, notes = two_color_refutation(ch)
    assert refuted and len(checked) == 12 and len(notes) == 2 + len(checked)
    pieces = {
        p.members for col, _ in checked for p in cover_from_coloring(ch, col).pieces
    }
    assert len(pieces) == 24 and set(asked) <= pieces
    assert len(asked) == len(set(asked)) == 14
    assert ch._verdicts.keys() == {(m, "sc", DEFAULT_BUDGET) for m in asked}
    # the notes are those of deciding every piece of every coloring afresh
    fresh = TorusChecker(ch.circle)
    for idx, (_, masks) in enumerate(checked):
        verdicts = [fresh.is_section_categorical(m) for m in masks]
        bad = [v for v in verdicts if v.status == "not_homotopic"]
        assert notes[2 + idx] == f"coloring {idx}: fails ({bad[0].reason})"


def test_tc_via_colorings_uses_no_symmetry_reduction(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("symmetry reduction on the refutation path")

    monkeypatch.setattr(invariants_module, "cell_symmetries", forbidden)
    monkeypatch.setattr(invariants_module, "_is_canonical", forbidden)
    res = tc_via_colorings(khalimsky_circle(4))
    assert res.exact and res.value == 2


@pytest.mark.parametrize("method", ["is_section_categorical", "is_categorical"])
def test_checker_verdict_depends_only_on_budget(method):
    # no verdict outlives its call: a small budget after a large one gives
    # the small budget's answer again
    ch = TorusChecker(khalimsky_circle(4))
    decide = getattr(ch, method)
    lifted = ch.P.down[ch.pair(1, 1)] | ch.P.down[ch.pair(1, 5)]
    # the lift decides a piece with no winding at any budget
    assert decide(lifted, 1).status == "homotopic"
    if method == "is_categorical":
        mask, small, large = lifted, "homotopic", "homotopic"
    else:
        # a diagonal band of the n = 4 refutation: it reaches fence BFS
        mask = 0
        for x, y in ((1, 1), (1, 3), (3, 3), (3, 5), (5, 5), (5, 7), (7, 7), (7, 1)):
            mask |= ch.P.down[ch.pair(x, y)]
        small, large = "unknown", "not_homotopic"
    assert decide(mask, 1).status == small
    v = decide(mask, 10**6)
    assert v.status == large
    if method == "is_section_categorical":
        assert v.reason.startswith("comparability component of f exhausted")
    assert decide(mask, 1).status == small


def test_empty_piece_is_vacuous_in_both_modes():
    ch = TorusChecker(khalimsky_circle(3))
    for v in (ch.is_categorical(0), ch.is_section_categorical(0)):
        assert v.status == "homotopic" and v.reason == "empty piece (vacuous)"
        assert v.fence == []


def test_module_level_wrappers():
    # the generic path (nullhomotopic_in on the piece) agrees with the
    # torus checker on a cell and on the whole square, and an empty piece
    # is vacuously categorical
    ch = TorusChecker(khalimsky_circle(2))
    for mask in (ch.P.down[ch.pair(1, 1)], ch.P.full):
        generic = nullhomotopic_in(DownSet(ch.P, mask), ch.P)
        assert generic.status == ch.is_categorical(mask).status
    assert nullhomotopic_in(DownSet(ch.P, 0), ch.P).is_homotopic


def test_generic_witness_keeps_the_empty_piece_vacuous():
    # a cover file may list an empty piece; on a space that is not a torus
    # it is decided with the others, and keeps its own verdict
    S = khalimsky_circle(2).space
    top, other = bits(S.maximal_elements())
    cov = arcs_cover(S, [[], [top], [other]])
    res = cat(S, mode="witness", witness=cov)
    assert not res.exact and (res.lower, res.upper) == (0, 2)
    assert res.notes[0] == "piece 0: homotopic (empty piece (vacuous))"
    empty = res.cover.certificates[0]
    assert empty.fence == [] and empty.fence_space is None
    assert all(v.is_homotopic for v in res.cover.certificates[1:])


def s13_x_s12():
    return product(khalimsky_circle(3).space, khalimsky_circle(2).space)


def test_generic_cat_collapses_the_space_once_per_search(monkeypatch):
    # exact cat(S1_3 x S1_2) decides 26 pieces and certifies the 4 of its
    # cover, each on its own collapse inside X, all against one core of X:
    # 31 collapses, where collapsing X again per piece made 60
    runs = []
    real = homotopy_module.collapse

    def counted(X, mask):
        runs.append(mask)
        return real(X, mask)

    monkeypatch.setattr(homotopy_module, "collapse", counted)
    monkeypatch.setattr(invariants_module, "collapse", counted)
    X = s13_x_s12()
    res = cat(X)
    assert res.exact and res.value == 3
    assert res.notes[-1].startswith("search: 25 DFS nodes, 26 pieces decided")
    assert len(runs) == 31 and runs.count(X.full) == 1
    twice = {m for m in runs if runs.count(m) == 2}
    assert twice == {p.members for p in res.cover.pieces}


def test_exact_generic_cat_never_calls_nullhomotopic_in(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("nullhomotopic_in called")

    monkeypatch.setattr(homotopy_module, "nullhomotopic_in", refused)
    monkeypatch.setattr(invariants_module, "nullhomotopic_in", refused, raising=False)
    assert cat(s13_x_s12()).value == 3
    assert cat(khalimsky_circle(3).space).value == 1


@pytest.mark.parametrize("budget", [3, DEFAULT_BUDGET])
def test_generic_cover_certificates_are_those_of_nullhomotopic_in(budget):
    # each printed piece is decided in place against the core of X that
    # the search collapsed once; nullhomotopic_in collapses X per call
    perm = list(range(16))
    random.Random(2).shuffle(perm)
    spaces = [
        s13_x_s12(),
        relabelled(torus(khalimsky_circle(2)).P, perm),
        khalimsky_interval(0, 6).space,
    ]
    for X in spaces:
        res = cat(X, budget=budget)
        if res.cover is None:
            continue
        for piece, v in zip(res.cover.pieces, res.cover.certificates):
            want = nullhomotopic_in(piece, X, budget)
            assert verdict_fields(v) == verdict_fields(want)


@pytest.mark.parametrize("budget", [0, -5])
def test_a_budget_below_one_is_refused(budget):
    # the library keeps the CLI's --budget rule at every entry that takes a
    # budget: a budget of 1 is the least, and none of them returns
    # "unknown", raises BudgetExceeded or decides instead
    S = khalimsky_circle(3)
    X = s13_x_s12()
    f = OrderMap(S.space, S.space, tuple(range(S.space.n)))
    g = OrderMap(S.space, S.space, (0,) * S.space.n)
    ch = TorusChecker(khalimsky_circle(2))
    piece = ch.P.down[next(bits(ch.P.maximal_elements()))]
    calls = [
        lambda: cat(X, budget=budget),
        lambda: cat(X, mode="witness", witness=Cover(X, [DownSet(X, X.full)]), budget=budget),
        lambda: tc(S, budget=budget),
        lambda: tc_via_colorings(khalimsky_circle(4), budget),
        lambda: witness_module.verify_bundle(5, budget),
        lambda: homotopic(f, g, budget=budget),
        lambda: homotopic(f, f, budget=budget),
        lambda: homotopy_module.fence_bfs(f, g, budget),
        lambda: homotopy_module.hom_components(S.space, S.space, budget),
        lambda: homotopy_module.enumerate_maps(S.space, S.space, budget),
        lambda: nullhomotopic_in(DownSet(X, X.full), X, budget),
        lambda: ch.is_section_categorical(piece, budget),
        lambda: ch.is_categorical(piece, budget),
        lambda: ch.piece_status(piece, "sc", budget),
        lambda: ch.piece_status(piece, "cat", budget),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter, match="budget must be at least 1"):
            call()
    assert ch._verdicts == {}
    assert cat(S.space, budget=1).value == 1
    assert ch.is_categorical(piece, 1).status == "homotopic"


@st.composite
def small_posets(draw):
    """A random poset of 1-7 points: each pair i < j related (i below j)
    with probability one half, closed transitively."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for j in range(n) for i in range(j) if draw(st.booleans())]
    return build_space([f"p{i}" for i in range(n)], pairs)


@settings(max_examples=150)
@given(small_posets(), st.sampled_from([20, DEFAULT_BUDGET]))
def test_generic_cat_matches_the_unreduced_partition_search(X, budget):
    want = cat_by_partitions(X, budget)
    assume(want is not None)
    res = cat(X, budget=budget)
    assert res.exact and res.value == want


def test_witness_cover_of_another_space_is_rejected():
    K3, K4 = khalimsky_circle(3), khalimsky_circle(4)
    other = TorusChecker(K4).P
    cov = Cover(other, [DownSet(other, other.full)])
    with pytest.raises(MismatchedSpaces):
        tc(K3, mode="witness", witness=cov)
    with pytest.raises(MismatchedSpaces):
        cat(TorusChecker(K3).P, mode="witness", witness=cov)
    with pytest.raises(MismatchedSpaces):
        cat(K3.space, mode="witness", witness=cov)


# -- symmetry groups of the exact search -------------------------------


def blocks_of_maximals(P, most=None):
    """Blocks of positions of the maximals of P, as frozensets."""
    count = popcount(P.maximal_elements())
    sizes = range(1, (most or count) + 1)
    return [frozenset(b) for k in sizes for b in combinations(range(count), k)]


def block_statuses(P, blocks, decide):
    maxs = list(bits(P.maximal_elements()))
    out = {}
    for b in blocks:
        mask = 0
        for i in b:
            mask |= P.down[maxs[i]]
        out[b] = decide(mask).status
    return out


def orbit_mismatches(statuses, group):
    return [
        (b, g)
        for b, s in statuses.items()
        for g in group
        if statuses[frozenset(g[x] for x in b)] != s
    ]


def diagonal_orbit(ch):
    """The orbit of the diagonal cells under the cat group: the smallest
    blocks of S1_4^2 on which the two groups differ."""
    diag = [i * ch.n + i for i in range(ch.n)]
    return {frozenset(g[x] for x in diag) for g in ch.symmetries("cat")}


def group_test_blocks(ch):
    """Every block of S1_3^2; the blocks of <= 3 maximals of S1_4^2 (all
    of them certified in both modes) and the diagonal orbit."""
    if ch.n == 3:
        return blocks_of_maximals(ch.P)
    return blocks_of_maximals(ch.P, 3) + sorted(diagonal_orbit(ch), key=sorted)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("mode", ["cat", "sc"])
def test_symmetry_groups_preserve_piece_statuses(n, mode):
    ch = TorusChecker(khalimsky_circle(n))
    group = ch.symmetries(mode)
    assert len(group) == (8 * n * n if mode == "cat" else 4 * n)
    decide = ch.is_categorical if mode == "cat" else ch.is_section_categorical
    statuses = block_statuses(ch.P, group_test_blocks(ch), decide)
    assert set(statuses.values()) == {"homotopic", "not_homotopic"}
    assert orbit_mismatches(statuses, group) == []


def test_full_group_does_not_preserve_tc_statuses():
    # phi x psi with phi != psi is left out of the tc group: it maps the
    # diagonal, over which pi1 ~ pi2, to the antidiagonal, over which not
    ch = TorusChecker(khalimsky_circle(4))
    blocks = group_test_blocks(ch)
    statuses = block_statuses(ch.P, blocks, ch.is_section_categorical)
    assert orbit_mismatches(statuses, ch.symmetries("cat"))


@pytest.mark.parametrize(
    "mode,n", [("sc", 2), ("sc", 3), ("sc", 4), ("cat", 2), ("cat", 3), ("cat", 4)]
)
def test_orbit_memo_matches_unreduced_search(mode, n):
    ch = TorusChecker(khalimsky_circle(n))
    decide = ch.is_section_categorical if mode == "sc" else ch.is_categorical

    def status_of(mask, parent):
        return ch.piece_status(mask, mode, parent=parent)

    reduced = invariants_module._PartitionSearch(
        ch.P, status_of, decide, ch.symmetries(mode)
    )
    plain = invariants_module._PartitionSearch(ch.P, status_of, decide)
    answered = []
    status = reduced.status

    def watched(block, parent=None):
        got = status(block, parent)
        answered.append((block, got[0]))
        return got

    reduced.status = watched
    for c in range(1, 5):
        got, want = reduced.cover(c), plain.cover(c)
        assert (got is None) == (want is None)
        if want is not None:
            assert format_cover(got) == format_cover(want)
            break
    # the same DFS, with fewer pieces decided
    assert reduced.nodes == plain.nodes
    assert reduced.decided < plain.decided
    # every status the search was given, memo hits included, is the
    # piece's own
    assert reduced.orbit_hits > 0
    for block, s in set(answered):
        assert decide(reduced.piece_mask(block)).status == s


def test_orbit_memo_shares_only_decided_statuses():
    ch = TorusChecker(khalimsky_circle(3))
    asked = []

    def status_of(mask, parent):
        asked.append(mask)
        return "unknown" if len(asked) == 1 else "homotopic", None

    search = invariants_module._PartitionSearch(
        ch.P, status_of, None, ch.symmetries("cat")
    )
    # single maximals form one orbit: cells are moved around transitively
    assert search.status(1 << 0)[0] == "unknown"
    assert search.status(1 << 1)[0] == "homotopic"  # the unknown was not shared
    assert search.status(1 << 0)[0] == "unknown"  # its own block keeps it
    assert search.status(1 << 2)[0] == "homotopic"
    assert len(asked) == 2 and search.orbit_hits == 1


@pytest.mark.parametrize("torus_path", [True, False])
def test_search_memory_grows_with_the_pieces_it_decides(torus_path):
    # the search keeps one memo of decided statuses and the set of blocks
    # left unknown, nothing per block visited: no dict or set on it holds
    # more entries than the pieces it decided, on the cat(S1_4^2) torus
    # search (1223 DFS nodes, 321 pieces decided) and on a generic one
    X = torus(khalimsky_circle(4)).P if torus_path else s13_x_s12()
    checker = invariants_module._torus_of(X)
    assert (checker is not None) == torus_path
    status_of, certify, group = invariants_module._deciders(
        X, checker, "cat", DEFAULT_BUDGET
    )
    search = invariants_module._PartitionSearch(X, status_of, certify, group())
    c = 1
    while search.cover(c) is None:
        c += 1
    if torus_path:
        assert (search.nodes, search.decided) == (1223, 321)
    stores = [v for v in vars(search).values() if isinstance(v, (dict, set))]
    assert stores and all(len(v) <= search.decided for v in stores)


@pytest.mark.parametrize("n,mode", [(3, "cat"), (4, "sc"), (9, "sc")])
def test_least_image_matches_loop_reference(n, mode):
    # n = 9 has 81 maximals, past the 64-bit slots
    ch = TorusChecker(khalimsky_circle(n))
    group = ch.symmetries(mode)
    search = invariants_module._PartitionSearch(ch.P, None, None, group)
    rng = random.Random(n)
    for _ in range(100):
        block = rng.getrandbits(len(search.maximals)) or 1
        images = [sum(1 << g[i] for i in bits(block)) for g in group]
        assert search.least_image(block) == min(images)


def test_search_counts_note():
    # the orbit-memo hits pin the group each invariant searches with
    res = cat(TorusChecker(khalimsky_circle(3)).P)
    assert res.notes == [
        "no certified cover with 1 pieces (exhaustive)",
        "no certified cover with 2 pieces (exhaustive)",
        "certified 3-piece cover found",
        "search: 44 DFS nodes, 12 pieces decided, 71 orbit-memo hits, "
        "0 undecided partitions",
    ]
    res = tc(khalimsky_circle(3))
    assert res.notes[-1] == (
        "search: 41 DFS nodes, 31 pieces decided, 49 orbit-memo hits, "
        "0 undecided partitions"
    )


# -- the lift certificate of categorical pieces ------------------------


_checkers = {}  # one TorusChecker per n, shared by the drawn examples


@st.composite
def principal_pieces(draw):
    n = draw(st.integers(2, 5))
    if n not in _checkers:
        _checkers[n] = TorusChecker(khalimsky_circle(n))
    ch = _checkers[n]
    maxs = list(bits(ch.P.maximal_elements()))
    chosen = draw(st.integers(1, (1 << len(maxs)) - 1))
    mask = 0
    for i, x in enumerate(maxs):
        if chosen >> i & 1:
            mask |= ch.P.down[x]
    return ch, mask


def inclusion_and_constant(ch, mask, fence):
    sub, old_ids = ch.P.subspace(mask)
    incl = OrderMap(sub, ch.P, old_ids)
    return incl, OrderMap(sub, ch.P, [fence[-1][0]] * sub.n)


@settings(max_examples=120)
@given(principal_pieces())
def test_lift_certifies_every_winding_free_piece(drawn):
    ch, mask = drawn
    hit = ch.winding_obstruction(mask, "cat")
    v = TorusChecker(ch.circle).is_categorical(mask, budget=1)
    sub, old_ids = ch.P.subspace(mask)
    general = [
        homotopic(f, OrderMap(sub, ch.X, [f.table[0]] * sub.n), "auto", 2000)
        for f in projections_on(ch, mask)
    ]
    if hit is not None:
        _, _, wx, wy = hit
        assert v.status == "not_homotopic"
        for w, h in zip((wx, wy), general):
            if w:
                assert h.status != "homotopic"
        return
    assert v.status == "homotopic"
    incl, const = inclusion_and_constant(ch, mask, v.fence)
    assert v.replay(incl, const)
    assert all(h.status != "not_homotopic" for h in general)
    # dropping one nonzero delta of the lift breaks the certificate: the
    # first comparable pair p < q of the piece, in pair order, whose
    # residues differ under a projection
    lifts, pairs = adjacency_potentials(ch.P, mask, ch.pi1.table, ch.pi2.table, ch.num)
    for p, q, deltas in pairs:
        for i, d in enumerate(deltas):
            if d:
                bad = dict(lifts)
                wrong = list(bad[q])
                wrong[i] = bad[p][i]
                bad[q] = tuple(wrong)
                fence = ch.lift_fence(old_ids, bad)
                broken = HomotopyVerdict("homotopic", fence, sub, ch.P)
                assert not broken.replay(*inclusion_and_constant(ch, mask, fence))
                return


def projections_on(ch, mask):
    sub, old_ids = ch.P.subspace(mask)
    return tuple(
        OrderMap(sub, ch.X, [pi.table[p] for p in old_ids]) for pi in (ch.pi1, ch.pi2)
    )


def replays_anchored(v, f, g):
    """A fence on the piece itself from f to g, re-checked by ``replay``."""
    return v.core_old_ids is None and v.replay(f, g)


@st.composite
def few_maximal_pieces(draw):
    """A union of the down-sets of a few maximals of S1_n^2, n = 2..4, at
    times with a band of one or two shifted diagonals of cells, a cycle of
    winding (1, 1)."""
    n = draw(st.integers(2, 4))
    if n not in _checkers:
        _checkers[n] = TorusChecker(khalimsky_circle(n))
    ch = _checkers[n]
    maxs = list(bits(ch.P.maximal_elements()))
    if draw(st.booleans()):
        s = draw(st.integers(0, n - 1))
        width = draw(st.integers(1, 2))
        # cell (i, j) is maximal i * n + j
        chosen = [maxs[i * n + (i + s + k) % n] for i in range(n) for k in range(width)]
        chosen += draw(st.lists(st.sampled_from(maxs), max_size=2))
    else:
        chosen = draw(st.lists(st.sampled_from(maxs), min_size=1, max_size=len(maxs)))
    mask = 0
    for x in chosen:
        mask |= ch.P.down[x]
    return ch, mask


@st.composite
def maximal_unions(draw):
    """A union of the down-sets of maximals of S1_n^2, n = 3..5: any set
    of them, a band of shifted diagonals of cells (a cycle of winding
    (1, 1)), or at n = 5 a piece of the witness cover (its core a circle
    longer than S1_5), the last two with a few more."""
    kind = draw(st.sampled_from(["any", "band", "witness"]))
    n = 5 if kind == "witness" else draw(st.integers(3, 5))
    if n not in _checkers:
        _checkers[n] = TorusChecker(khalimsky_circle(n))
    ch = _checkers[n]
    maxs = list(bits(ch.P.maximal_elements()))
    mask = 0
    if kind == "any":
        chosen = draw(st.lists(st.sampled_from(maxs), min_size=1, unique=True))
    else:
        chosen = draw(st.lists(st.sampled_from(maxs), max_size=2))
        if kind == "witness":
            _, U, V = witness_module._on_torus(ch)
            mask = draw(st.sampled_from([U.members, V.members]))
        else:
            s, width = draw(st.integers(0, n - 1)), draw(st.integers(1, 2))
            chosen += [
                maxs[i * n + (i + s + k) % n] for i in range(n) for k in range(width)
            ]
    for x in chosen:
        mask |= ch.P.down[x]
    return ch, mask


def verdict_fields(v):
    return (
        v.status, v.reason, v.fence, v.fence_space, v.target, v.core_old_ids
    )


@settings(max_examples=150, deadline=None)
@given(maximal_unions(), st.sampled_from([1, 300, DEFAULT_BUDGET]))
def test_piece_decided_inside_the_product_matches_homotopic_on_the_copy(drawn, budget):
    # _on_core collapses U inside S x S and reads the projections at the
    # core's points; homotopic gets pi1|U and pi2|U on a copy of U
    ch, mask = drawn
    kept = dict(ch._collapses)
    want = homotopic(*projections_on(ch, mask), "auto", budget)
    assert verdict_fields(ch._on_core(mask, budget)) == verdict_fields(want)
    assert ch._collapses == kept  # a collapse it was not handed is not kept


def test_homotopic_refutes_a_piece_with_distinct_windings_without_search():
    # 39 points of S1_4^2 whose 11-point core is no circle: fence BFS spent
    # its whole default budget here, but a cycle winds once under pi2 only
    ch = TorusChecker(khalimsky_circle(4))
    mask = 1978982920583031
    v = homotopic(*projections_on(ch, mask), "auto", budget=1)
    assert v.status == "not_homotopic"
    assert v.reason == "circle classification: cycle with distinct windings (0,8)"


@settings(max_examples=150)
@given(few_maximal_pieces())
def test_lift_stage_agrees_with_homotopic(drawn):
    # a section-categorical piece with no winding is decided by its lift,
    # with a fence from pi1|U to pi2|U.  The status is that of homotopic on
    # the restricted projections, which runs the same winding test on U's
    # core, and on a small piece it is that of the full hom-set
    ch, mask = drawn
    v = ch.is_section_categorical(mask)
    f1, f2 = projections_on(ch, mask)
    assert v.status == homotopic(f1, f2, "auto").status
    if f1.source.n <= 14:
        assert hom_component_status(f1, f2, 20000) in (v.status, "unknown")
    by_lift = v.reason.startswith("projections lift to the digital line")
    assert by_lift == (ch.winding_obstruction(mask, "cat") is None)
    if by_lift:
        assert replays_anchored(v, f1, f2)


@settings(max_examples=150)
@given(
    few_maximal_pieces(),
    st.sampled_from(["sc", "cat"]),
    st.sampled_from([1, DEFAULT_BUDGET]),
)
def test_search_status_is_that_of_the_certified_decision(drawn, mode, budget):
    # exact search asks for a status alone; it is the status of the full
    # decision, "unknown" under budget 1 included, and a status the lift
    # gives stands on a fence that replays
    ch, mask = drawn
    v = ch._decide(mask, mode, budget)
    assert ch.piece_status(mask, mode, budget)[0] == v.status
    if v.reason.startswith("projections lift to the digital line"):
        if mode == "sc":
            assert replays_anchored(v, *projections_on(ch, mask))
        else:
            assert v.replay(*inclusion_and_constant(ch, mask, v.fence))


def test_searches_build_no_fence_until_a_certificate_is_read(monkeypatch):
    # every search reads statuses alone: no clamp, no fence through
    # constants and no lift of a core fence is built while it decides,
    # not even for the pieces of the cover it prints.  The shared torus
    # remembers the verdicts of earlier calls, so it starts afresh.
    torus.cache_clear()
    made = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapped(*args):
            made.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, wrapped)

    for module, name in (
        (homotopy_module, "_clamps"),
        (invariants_module, "_clamps"),
        (homotopy_module, "through_constants"),
        (invariants_module, "through_constants"),
        (homotopy_module, "_lift_core_fence"),
    ):
        counted(module, name)
    S3, S2 = khalimsky_circle(3), khalimsky_circle(2)
    results = [
        cat(torus(S3).P),
        tc(S3),
        cat(product(S3.space, S2.space)),
        tc_via_colorings(khalimsky_circle(4)),
    ]
    assert [r.value for r in results] == [2, 2, 3, 2]
    assert made == []

    # a certificate's first read builds its one fence, and a second read
    # builds nothing and gives the same list
    built = []
    first_read = HomotopyVerdict.__getattr__

    def recorded(self, name):
        if "_proof" in vars(self):
            built.append(self)
        return first_read(self, name)

    monkeypatch.setattr(HomotopyVerdict, "__getattr__", recorded)
    certificates = [v for r in results for v in r.cover.certificates]
    assert len(certificates) == 13
    fences = [v.fence for v in certificates]
    assert all(fences) and made
    assert [sum(b is v for b in built) for v in certificates] == [1] * 13
    count = len(built)
    assert all(v.fence is fence for v, fence in zip(certificates, fences))
    assert all(v.fence_space.n == popcount(p.members)
               for r in results for p, v in zip(r.cover.pieces, r.cover.certificates))
    assert len(built) == count
    # a length that a reason states is that of the fence built
    for v in certificates:
        stated = re.search(r"fence of (\d+) maps", v.reason)
        assert stated is None or int(stated[1]) == len(v.fence), v.reason


def test_cover_rejects_a_certificate_that_disagrees_with_its_status():
    X = khalimsky_circle(3).space
    search = invariants_module._PartitionSearch(
        X,
        lambda mask, parent: ("homotopic", None),
        lambda mask: HomotopyVerdict("unknown"),
    )
    with pytest.raises(AssertionError, match="is unknown on certification"):
        search.cover(1)


def test_tc_covers_replay_anchored_at_the_projections():
    # point-core verdicts used to carry a fence on the cores only
    for n, route in ((2, tc), (3, tc), (4, tc_via_colorings)):
        ch = TorusChecker(khalimsky_circle(n))
        res = route(ch.circle)
        assert res.exact and res.cover.space == ch.P
        for piece, v in zip(res.cover.pieces, res.cover.certificates):
            f1, f2 = projections_on(ch, piece.members)
            assert replays_anchored(v, f1, f2)


def test_homotopic_sees_only_winding_pieces(monkeypatch):
    # during exact tc(S1_4), the piece decision between the cores is asked
    # only about pieces with a nonzero winding (d, d): the lift decides the
    # rest
    ch = TorusChecker(khalimsky_circle(4))
    asked = []

    def recorded(cl, *args):
        assert cl.X == ch.P
        asked.append(cl.mask)
        return decide_on_core(cl, *args)

    monkeypatch.setattr(invariants_module, "decide_on_core", recorded)
    assert tc(ch.circle).value == 2
    assert asked
    assert all(ch.winding_obstruction(m, "cat") is not None for m in asked)


def test_checker_remembers_only_the_printed_covers():
    # a checker keeps what it was built with, and no container it holds
    # grows with the search: the partition search keeps the only memo of
    # statuses, and the checker remembers the verdicts of the printed
    # covers' pieces alone.  cat and tc both search on the one shared torus.
    torus.cache_clear()
    ch = torus(khalimsky_circle(4))
    before = dict(vars(ch))
    sizes = {k: len(v) for k, v in before.items() if isinstance(v, (dict, list))}
    assert sizes["_verdicts"] == 0
    by_cat, by_tc = cat(ch.P), tc(ch.circle)
    assert by_cat.value == 2 and by_tc.value == 2
    assert torus(khalimsky_circle(4)) is ch
    after = vars(ch)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    printed = {
        (p.members, mode, DEFAULT_BUDGET): v
        for res, mode in ((by_cat, "cat"), (by_tc, "sc"))
        for p, v in zip(res.cover.pieces, res.cover.certificates)
    }
    assert len(printed) == 6
    assert ch._verdicts.keys() == printed.keys()
    assert all(ch._verdicts[k] is v for k, v in printed.items())
    # the lift decides every printed piece here, so no collapse is kept
    assert not ch._collapses
    sizes["_verdicts"] = len(printed)
    assert sizes == {k: len(after[k]) for k in sizes}
    # at n = 5 both printed pieces are rigidity verdicts, decided on their
    # collapses inside the product; the checker keeps those two alone
    torus.cache_clear()
    ch = torus(khalimsky_circle(5))
    res = tc(ch.circle)
    assert res.value == 1
    assert set(ch._collapses) == {p.members for p in res.cover.pieces}


@st.composite
def memo_calls(draw):
    """A fresh checker of S1_n^2, n = 2..4, and a few calls (mask, mode,
    budget) in a drawn order, drawn from a small pool of pieces so that
    pieces repeat, under both modes and both budgets."""
    pool = [draw(few_maximal_pieces())]
    ch = pool[0][0]
    pool += [
        d for d in draw(st.lists(few_maximal_pieces(), max_size=2)) if d[0] is ch
    ]
    masks = [mask for _, mask in pool]
    calls = draw(
        st.lists(
            st.tuples(
                st.sampled_from(masks),
                st.sampled_from(["sc", "cat"]),
                st.sampled_from([1, DEFAULT_BUDGET]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return TorusChecker(ch.circle), calls


def verdict_fields(v):
    return v.status, v.reason, v.fence, v.fence_space, v.target, v.core_old_ids


@settings(max_examples=60)
@given(memo_calls())
def test_remembered_verdicts_are_those_of_a_fresh_checker(drawn):
    # whatever the order of the calls, a verdict read from the memo is the
    # one a fresh checker gives at that budget: an "unknown" under budget 1
    # never answers the default budget, nor a decided verdict budget 1
    ch, calls = drawn
    method = {"sc": "is_section_categorical", "cat": "is_categorical"}
    given_out = {}
    for mask, mode, budget in calls:
        v = getattr(ch, method[mode])(mask, budget)
        assert given_out.setdefault((mask, mode, budget), v) is v
        assert ch.piece_status(mask, mode, budget)[0] == v.status
    assert ch._verdicts == given_out
    for (mask, mode, budget), v in given_out.items():
        fresh = getattr(TorusChecker(ch.circle), method[mode])(mask, budget)
        assert verdict_fields(v) == verdict_fields(fresh)


def test_piece_status_never_writes_the_memo():
    ch = TorusChecker(khalimsky_circle(4))
    mask = 0
    for x, y in ((1, 1), (1, 3), (3, 3), (3, 5), (5, 5), (5, 7), (7, 7), (7, 1)):
        mask |= ch.P.down[ch.pair(x, y)]
    assert ch.piece_status(mask, "sc", 1)[0] == "unknown"
    assert ch._verdicts == {}
    v = ch.is_section_categorical(mask, 1)
    assert v.status == "unknown" and ch.piece_status(mask, "sc", 1)[0] == "unknown"
    # the unknown under budget 1 does not answer the default budget
    assert ch.piece_status(mask, "sc", DEFAULT_BUDGET)[0] == "not_homotopic"
    assert ch.is_section_categorical(mask).status == "not_homotopic"
    assert ch._verdicts.keys() == {(mask, "sc", 1), (mask, "sc", DEFAULT_BUDGET)}


# -- the grown winding test of exact search ----------------------------


def checker_of(n):
    if n not in _checkers:
        _checkers[n] = TorusChecker(khalimsky_circle(n))
    return _checkers[n]


def grown_status(ch, state, mask, mode):
    """The winding test of the open piece ``mask`` on the checker's lift,
    grown from ``state``, as (status, state) in the form of
    ``winding_status``: "not_homotopic" at a cycle of forbidden winding
    (no state), None at a cycle of winding (d, d), d != 0, else
    "homotopic"."""
    hit, state = ch.lift.grow(state, mask, mode == "cat")
    if hit is not None:
        return "not_homotopic", None
    return ("homotopic" if state[4] is None else None), state


def assert_growth_matches_scratch(ch, steps, mode):
    """Grow the open pieces that ``steps`` add up to, each step a list of
    points whose down-sets it adds, and check each grown status against
    the reference ``winding_status`` from scratch, against the lift grown
    from scratch, and against ``piece_status`` grown as the search grows
    it when the lift decides.  A grown state must label the piece's components, and
    its labels must give every comparable pair the winding (w, w) of a
    cycle ("homotopic": w = 0).  Returns the number of steps that joined components of the piece
    before them."""
    size = ch.size
    r1, r2 = ([ch.num[v] for v in pi.table] for pi in (ch.pi1, ch.pi2))
    state, mask, joins = None, 0, 0
    for step in steps:
        before = comparability_components(ch.P, mask)
        for x in step:
            mask |= ch.P.down[x]
        after = comparability_components(ch.P, mask)
        joins += any(sum(1 for b in before if b & a) > 1 for a in after)
        want = winding_status(ch, mask, mode)
        got, grown = grown_status(ch, state, mask, mode)
        assert got == want
        assert grown_status(ch, None, mask, mode)[0] == want
        if got is not None:
            assert ch.piece_status(mask, mode, DEFAULT_BUDGET, state)[0] == got
        if got == "not_homotopic":
            assert grown is None
            return joins
        grown_mask, phi1, phi2, comp, wound = grown
        assert grown_mask == mask
        if wound is not None:
            # the first pair of the piece seen closing a cycle of winding (d, d)
            p, q, w1, w2 = wound
            assert mask >> p & 1 and mask >> q & 1 and ch.P.leq(p, q)
            assert w1 == w2 != 0
            assert (w1, w2) == (
                phi1[p] + (r1[q] - r1[p] + 1) % size - 1 - phi1[q],
                phi2[p] + (r2[q] - r2[p] + 1) % size - 1 - phi2[q],
            )
        labels = {c: sum(1 << p for p in bits(mask) if comp[p] == c) for c in comp}
        labels.pop(-1, None)
        assert sorted(labels.values()) == sorted(after)
        wind = []
        for p in bits(mask):
            for q in ch.P.up_ids[p]:
                if q != p and mask >> q & 1:
                    w1 = phi1[p] + (r1[q] - r1[p] + 1) % size - 1 - phi1[q]
                    w2 = phi2[p] + (r2[q] - r2[p] + 1) % size - 1 - phi2[q]
                    assert w1 == w2
                    wind.append(w1)
        assert (wound is not None) == any(wind) == (got is None)
        state = grown
    return joins


@st.composite
def growth_steps(draw):
    """A checker of S1_n^2, n = 2..5, and a few steps of growth, each
    adding the down-sets of one to three points: maximals (cells, as exact
    search adds them) or any points."""
    ch = checker_of(draw(st.integers(2, 5)))
    maxs = list(bits(ch.P.maximal_elements()))
    point = st.one_of(st.sampled_from(maxs), st.integers(0, ch.P.n - 1))
    step = st.lists(point, min_size=1, max_size=3)
    steps = draw(st.lists(step, min_size=1, max_size=10))
    return ch, steps


@settings(max_examples=200)
@given(growth_steps(), st.sampled_from(["cat", "sc"]))
def test_grown_status_is_the_status_from_scratch(drawn, mode):
    ch, steps = drawn
    assert_growth_matches_scratch(ch, steps, mode)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("mode", ["cat", "sc"])
@pytest.mark.parametrize("turn", [1, -1])
def test_grown_status_across_a_join(n, mode, turn):
    # cells (0, 0) and (2, 2 turn) lie apart, (1, turn) joins them, and the
    # cells on round the torus close a cycle through the join: winding
    # (1, 1) in turns, or (1, -1)
    ch = checker_of(n)
    maxs = list(bits(ch.P.maximal_elements()))
    cells = [maxs[i * n + turn * i % n] for i in range(n)]
    steps = [[cells[0]], [cells[2]], [cells[1]]] + [[c] for c in cells[3:]]
    assert assert_growth_matches_scratch(ch, steps, mode) == 1
    mask = 0
    for c in cells:
        mask |= ch.P.down[c]
    status = grown_status(ch, None, mask, mode)[0]
    assert status == (None if (mode, turn) == ("sc", 1) else "not_homotopic")


def test_search_holds_grown_states_only_on_its_path():
    # during the search a state is held for each block on the DFS path
    # alone, a parent is one of them, and it labels the block's piece or a
    # piece inside it; after the search none is held
    ch = TorusChecker(khalimsky_circle(4))
    deciders = invariants_module._deciders(ch.P, ch, "sc", DEFAULT_BUDGET)
    status_of, certify, group = deciders
    grown = []

    def watched(mask, parent):
        blocks, states = search._blocks, search._states
        assert len(states) == len(blocks) <= 3
        assert parent is None or any(parent is s for s in states)
        for block, s in zip(blocks, states):
            assert s is None or s[0] & ~search.piece_mask(block) == 0
        grown.append(parent is not None)
        return status_of(mask, parent)

    search = invariants_module._PartitionSearch(ch.P, watched, certify, group())
    assert search.cover(2) is None
    assert search.cover(3) is not None
    assert search._blocks == [] and search._states == []
    assert set(search._orbit.values()) <= {"homotopic", "not_homotopic"}
    assert not search._unknown
    assert any(grown) and not all(grown)


def test_search_checks_openness_only_of_the_printed_cover(monkeypatch):
    # the pieces exact search builds are unions of down-sets of maximals,
    # open by construction; only the printed cover's pieces are checked,
    # when they become DownSets and when they are certified
    torus.cache_clear()
    asked = []
    is_open = FiniteSpace.is_open

    def counted(self, mask):
        asked.append(mask)
        return is_open(self, mask)

    monkeypatch.setattr(FiniteSpace, "is_open", counted)
    res = tc(khalimsky_circle(4))
    assert res.value == 2
    assert sorted(asked) == sorted(2 * [p.members for p in res.cover.pieces])


def test_a_grid_of_intervals_keeps_the_torus(monkeypatch):
    # a 400-point square of a 20-point interval has 4 n^2 points for n = 10,
    # and n^2 maximals and minimals too; its down-set sizes turn it away
    # without building torus(S1_10), so the torus kept stays
    kept = torus(khalimsky_circle(3))
    P = product(*2 * [khalimsky_interval(0, 19).space])
    assert P.n == 400
    assert popcount(P.maximal_elements()) == popcount(P.minimal_elements()) == 100
    built = []
    monkeypatch.setattr(invariants_module, "TorusChecker", built.append)
    assert invariants_module._torus_of(P) is None
    assert built == [] and torus(khalimsky_circle(3)) is kept


def test_coloring_walk_at_half_size_five_builds_only_what_it_checks(monkeypatch):
    # the walk stops at coloring 13, so it builds 14 colorings, not 41,720
    made = []
    real = invariants_module.Coloring

    def counted(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(invariants_module, "Coloring", counted)
    ch = TorusChecker(khalimsky_circle(5))
    refuted, checked, notes = two_color_refutation(ch)
    assert not refuted and len(checked) == len(made) == 14
    assert notes[1] == "14 simple 2-colorings checked, the last not refuted"
    assert notes[-1].startswith("coloring 13: not refuted (")
    colorings = [col for col, _ in checked]
    assert all(is_simple(ch, col) for col in colorings)
    assert all(first_appearance(col.assignment) for col in colorings)
    assert [c.assignment for c in colorings] == sorted(c.assignment for c in colorings)


@pytest.mark.parametrize("n, last", [(5, 13), (6, 89)])
def test_coloring_route_returns_the_certified_two_piece_cover_it_meets(n, last):
    # the first simple 2-coloring that is not refuted has both pieces
    # certified: a 2-piece cover, so tc = 1, the lower bound
    ch = torus(khalimsky_circle(n))
    res = tc_via_colorings(ch.circle)
    assert res.exact and (res.value, res.lower, res.upper) == (1, 1, 1)
    _, checked, _ = two_color_refutation(ch)
    assert len(checked) == last + 1
    want = cover_from_coloring(ch, checked[-1][0])
    assert [p.members for p in res.cover.pieces] == [p.members for p in want.pieces]
    assert res.cover.certificates == [
        ch.is_section_categorical(p.members) for p in want.pieces
    ]
    assert all(v.is_homotopic for v in res.cover.certificates)
    assert res.notes[-2].startswith(f"coloring {last}: not refuted (")
    assert res.notes[-1] == "certified 2-piece cover found"


def test_coloring_route_keeps_bounds_when_a_piece_is_unknown(monkeypatch):
    ch = TorusChecker(khalimsky_circle(5))
    certify = ch._certify

    def unknown_rigidity(mask, mode, budget):
        v = certify(mask, mode, budget)
        if v.reason.startswith("circle classification: both maps have degree"):
            return HomotopyVerdict("unknown", reason="stubbed")
        return v

    monkeypatch.setattr(ch, "_certify", unknown_rigidity)
    monkeypatch.setattr(invariants_module, "torus", lambda circle: ch)
    res = tc_via_colorings(ch.circle)
    assert not res.exact and (res.lower, res.upper, res.cover) == (1, None, None)
    assert res.notes[-2] == "coloring 13: not refuted (unknown; unknown)"
    assert res.notes[-1] == "a simple 2-coloring was not refuted"


def test_coloring_refutation_decides_the_masks_of_its_walk(monkeypatch):
    # the walk holds each class's point mask: the refutation decides those
    # masks, in the walk's order, and rebuilds no piece from the cells
    ch = TorusChecker(khalimsky_circle(4))
    walk = invariants_module._simple_colorings
    held, asked = [], []

    def watched(checker, colors, with_masks=False):
        for col, masks in walk(checker, colors, with_masks=True):
            held.extend(masks)
            yield (col, masks) if with_masks else col

    decide = ch.is_section_categorical

    def counted(mask, budget=DEFAULT_BUDGET):
        asked.append(mask)
        return decide(mask, budget)

    monkeypatch.setattr(invariants_module, "_simple_colorings", watched)
    monkeypatch.setattr(ch, "is_section_categorical", counted)
    refuted, checked, _ = two_color_refutation(ch)
    assert refuted and len(checked) == 12
    assert [m for _, masks in checked for m in masks] == held and len(held) == 24
    # each coloring's masks up to and including its first refuted one
    fresh = TorusChecker(ch.circle)
    walked = []
    for _, masks in checked:
        for m in masks:
            walked.append(m)
            if fresh.is_section_categorical(m).status == "not_homotopic":
                break
    assert asked == walked and len(asked) == 14


@pytest.mark.parametrize("n, value", [(2, 3), (3, 2)])
def test_cat_of_a_relabelled_torus_agrees_with_the_torus_path(n, value):
    # a torus with its points permuted is not recognised, so its pieces go
    # through nullhomotopic_in with no symmetry: a reference for the
    # value the torus path finds
    P = torus(khalimsky_circle(n)).P
    perm = list(range(P.n))
    random.Random(n).shuffle(perm)
    X = relabelled(P, perm)
    res = cat(X)
    assert res.exact and res.value == value
    assert " 0 orbit-memo hits" in res.notes[-1]
    fast = cat(P)
    assert fast.value == value and " 0 orbit-memo hits" not in fast.notes[-1]


def test_cat_recognises_a_torus_read_back_from_its_file():
    P = torus(khalimsky_circle(3)).P
    X = read_space(write_space(P, "T"))
    assert X is not P
    res, fast = cat(X), cat(P)
    assert res.value == fast.value == 2
    assert res.notes == fast.notes
    assert " 0 orbit-memo hits" not in res.notes[-1]  # the torus group ran
    assert [v.reason for v in res.cover.certificates] == [
        v.reason for v in fast.cover.certificates
    ]


# -- bounds ------------------------------------------------------------


def test_undecided_partitions_bound_by_the_refuted_piece_count():
    # at 2 pieces one partition stays undecided under the small budget, so
    # only 1 piece is refuted: cat >= 1, and the true value is 1
    pairs = [
        (0, 8), (1, 6), (1, 9), (2, 8), (2, 9), (3, 5), (3, 6), (3, 9),
        (4, 8), (4, 9), (5, 6), (7, 8), (7, 9),
    ]
    X = build_space([str(i) for i in range(10)], pairs)
    res = cat(X, budget=40)
    assert not res.exact and (res.lower, res.upper) == (1, None)
    assert "1 partitions undecided at 2 pieces" in res.notes
    assert res.notes[-1].endswith("1 undecided partitions")
    assert cat(X).value == 1


def test_limit_below_the_seed_keeps_the_seeded_bound():
    res = tc(khalimsky_circle(3), limit=0)
    assert not res.exact and (res.value, res.lower, res.upper) == (None, 1, None)
    assert res.cover is None
    assert res.notes[:2] == [
        "lower bound 1 from the topological circle",
        "search stopped at the limit of 0 pieces",
    ]


def test_a_negative_limit_is_refused():
    # limit 0 stops before any search; below it there is nothing to search
    S = khalimsky_circle(3)
    with pytest.raises(InvalidParameter, match="limit must be at least 0"):
        tc(S, limit=-1)
    with pytest.raises(InvalidParameter, match="limit must be at least 0"):
        cat(S.space, limit=-1)


def test_limit_bounds_by_the_refuted_piece_counts():
    res = tc(khalimsky_circle(2), limit=3)
    assert not res.exact and res.lower == 3
    assert "no certified cover with 3 pieces (exhaustive)" in res.notes
    assert str(res) == "tc in [3, ?]"


@pytest.mark.parametrize("start", [1, 2, 3])
def test_unknown_pieces_bound_below_the_start(start):
    X = khalimsky_circle(3).space
    res = invariants_module._exact_invariant(
        "cat", X, lambda mask, parent: ("unknown", None),
        lambda mask: HomotopyVerdict("unknown"),
        None, False, start=start, notes=["seed"],
    )
    assert not res.exact
    assert (res.value, res.lower, res.upper) == (None, start - 1, None)
    # 3 maximals: 1, 4 and 5 partitions into at most 1, 2 and 3 blocks
    undecided = {1: 1, 2: 4, 3: 5}[start]
    assert res.notes[:2] == ["seed", f"{undecided} partitions undecided at {start} pieces"]


def test_maximals_gate_returns_the_seed_without_searching():
    asked = []
    ch = TorusChecker(khalimsky_circle(6))
    res = invariants_module._exact_invariant(
        "tc", ch.P, asked.append, asked.append, None, False, start=2, notes=["seed"],
    )
    assert asked == []
    assert not res.exact and (res.lower, res.upper) == (1, None)
    assert res.notes == [
        "seed", "36 maximal elements > 30: pass force (--force) for exact search"
    ]


def test_coloring_route_continues_past_three_pieces():
    res = tc_via_colorings(khalimsky_circle(2))
    assert res.exact and res.value == 3 and len(res.cover.pieces) == 4
    assert all(v.is_homotopic for v in res.cover.certificates)
    assert res.notes[-3:-1] == [
        "no certified cover with 3 pieces (exhaustive)",
        "certified 4-piece cover found",
    ]


def test_witness_cover_needs_witness_mode():
    K = khalimsky_circle(3)
    ch = TorusChecker(K)
    cov = Cover(ch.P, [DownSet(ch.P, ch.P.full)])
    with pytest.raises(InvalidParameter):
        tc(K, witness=cov)
    with pytest.raises(InvalidParameter):
        cat(ch.P, mode="exact", witness=cov)
    with pytest.raises(InvalidParameter):
        cat(K.space, witness=Cover(K.space, [DownSet(K.space, K.space.full)]))
    with pytest.raises(InvalidParameter):
        tc(K, mode="witness")


def test_unknown_mode_is_rejected():
    # a misspelt mode used to run exact search: tc(S1_2) printed 3
    K = khalimsky_circle(2)
    for mode in ("witnes", "exactly", "", None):
        with pytest.raises(InvalidParameter, match="mode must be"):
            tc(K, mode=mode)
        with pytest.raises(InvalidParameter, match="mode must be"):
            cat(K.space, mode=mode)
    with pytest.raises(InvalidParameter, match="mode must be"):
        cat(TorusChecker(K).P, mode="exactly")


def test_witness_mode_rejects_search_flags():
    # the library side of the CLI rule: limit and force tune exact search
    K = khalimsky_circle(3)
    ch = TorusChecker(K)
    cov = Cover(ch.P, [DownSet(ch.P, ch.P.full)])
    for flags in ({"limit": 0}, {"force": True}, {"limit": 1, "force": True}):
        with pytest.raises(InvalidParameter, match="limit and force"):
            tc(K, mode="witness", witness=cov, **flags)
        with pytest.raises(InvalidParameter, match="limit and force"):
            cat(ch.P, mode="witness", witness=cov, **flags)
    assert tc(K, mode="witness", witness=cov, limit=None, force=False).upper is None


@st.composite
def open_pieces(draw):
    """A checker of S1_n^2, n = 2..6, and an open piece of it: the union of
    the down-sets of one to eight points, maximals (cells) or any points."""
    ch = checker_of(draw(st.integers(2, 6)))
    maxs = list(bits(ch.P.maximal_elements()))
    point = st.one_of(st.sampled_from(maxs), st.integers(0, ch.P.n - 1))
    mask = 0
    for x in draw(st.lists(point, min_size=1, max_size=8)):
        mask |= ch.P.down[x]
    return ch, mask


@settings(max_examples=300)
@given(open_pieces(), st.sampled_from(["cat", "sc"]))
def test_certified_fence_is_the_fence_of_the_potentials(drawn, mode):
    # the grown lifts, rooted per component, are the lifts of the reference
    # forest rooted at each component's least point, so a lift-decided
    # piece gets the fence that the reference potentials give
    ch, mask = drawn
    v = ch._certify(mask, mode, DEFAULT_BUDGET)
    by_lift = v.reason.startswith("projections lift to the digital line")
    assert by_lift == (winding_status(ch, mask, mode) == "homotopic")
    if not by_lift:
        return
    phi, _ = adjacency_potentials(ch.P, mask, ch.pi1.table, ch.pi2.table, ch.num)
    sub, old_ids = ch.P.subspace(mask)
    if mode == "cat":
        want = ch.lift_fence(old_ids, phi)
        f, g = inclusion_and_constant(ch, mask, v.fence)
    else:
        want = through_constants(sub, ch.X, phi, old_ids, ch.num)
        f, g = projections_on(ch, mask)
    assert [tuple(t) for t in v.fence] == [tuple(t) for t in want]
    assert replays_anchored(v, f, g)


@settings(max_examples=300)
@given(open_pieces(), st.sampled_from(["cat", "sc"]))
def test_a_lift_reason_states_the_length_of_its_unbuilt_fence(drawn, mode):
    # the length is read off the lift's range before any table exists
    ch, mask = drawn
    v = ch._certify(mask, mode, DEFAULT_BUDGET)
    stated = re.search(r"fence of (\d+) maps", v.reason)
    if stated:
        assert "_proof" in vars(v)
        assert int(stated[1]) == len(v.fence)
