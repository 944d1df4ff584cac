import pytest

from finspace.errors import InvalidParameter, NotOpen
from finspace.invariants import (
    Cover,
    TorusChecker,
    canonical_coloring,
    cat,
    cell_symmetries,
    coloring_from_cover,
    coloring_from_rows,
    cover_from_coloring,
    enumerate_simple_colorings,
    format_cover,
    is_categorical,
    is_section_categorical,
    is_simple,
    line_lemma,
    parse_coloring,
    parse_cover,
    principalize,
    square_grid,
    tc,
    two_color_refutation,
)
from finspace.space import DownSet, bits, khalimsky_circle


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


def test_principalize_shrinks_to_maximal_downsets():
    X = khalimsky_circle(3).space
    cov = Cover(X, [DownSet(X, X.full)])
    pr = principalize(cov)
    assert pr.pieces[0].members == X.full


def test_cover_serialization_round_trip():
    X = khalimsky_circle(2).space
    cov = arcs_cover(X, [[1], [3]])
    text = format_cover(cov, "c2")
    again = parse_cover(X, text)
    assert [p.members for p in again.pieces] == [p.members for p in cov.pieces]


def test_section_categorical_rejects_non_open():
    K = khalimsky_circle(2)
    ch = TorusChecker(K)
    with pytest.raises(NotOpen):
        ch.is_section_categorical(1 << 3)


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
            mask |= ch.P.down[ch.pair(K.b(i), K.b(j % n))]
    v = ch.is_section_categorical(mask)
    assert v.status == "not_homotopic"
    assert v.reason.startswith("comparability component of f exhausted")
    assert "on the domain core (50 of 80 points)" in v.reason


def test_categorical_arc_and_whole_space():
    X = khalimsky_circle(4).space
    arc = DownSet(X, X.min_open(1).members | X.min_open(3).members)
    assert is_categorical(arc, X).is_homotopic
    assert not is_categorical(DownSet(X, X.full), X).is_homotopic


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


def test_grid_cells_partition_maximals():
    g = square_grid(3)
    seen = 0
    for i, j, m in g.all_cells():
        seen |= m
    assert seen == g.checker.P.full


def test_line_masks_are_circles_with_distinct_degrees():
    g = square_grid(4)
    degs = line_lemma(g)
    assert len(degs) == 16
    for d1, d2 in degs:
        assert {abs(d1), abs(d2)} == {0, 1}


def test_cell_symmetry_group_order():
    g = square_grid(4)
    syms = cell_symmetries(g)
    # rotations and reflections per factor, plus the swap
    assert len(syms) == 2 * (2 * 4) * (2 * 4)


def test_coloring_round_trips():
    col = coloring_from_rows(["1001", "0011", "0110", "1100"], 2)
    text = col.serialize()
    again = parse_coloring(text)
    assert again.assignment == col.assignment
    g = square_grid(4)
    cov = cover_from_coloring(g, col)
    back = coloring_from_cover(g, cov)
    assert back.assignment == col.assignment


def test_simple_rejects_full_row_class():
    g = square_grid(4)
    rows = ["1111", "0000", "0000", "0000"]
    col = coloring_from_rows(rows, 2)
    assert not is_simple(g, col)


def test_checkerboard_not_simple():
    # adjacent cell rows of one class jointly cover a point line
    g = square_grid(4)
    col = coloring_from_rows(["0101", "1010", "0101", "1010"], 2)
    assert not is_simple(g, col)


def test_canonical_form_is_orbit_invariant():
    g = square_grid(4)
    syms = cell_symmetries(g)
    col = coloring_from_rows(["1001", "0011", "0110", "1100"], 2)
    canon = canonical_coloring(g, col, syms)
    flipped = coloring_from_rows(["0110", "1100", "1001", "0011"], 2)
    assert canonical_coloring(g, flipped, syms).assignment == canon.assignment


def test_two_color_refutation_for_n4():
    g = square_grid(4)
    refuted, classes, notes = two_color_refutation(g)
    assert refuted
    assert len(classes) == 2


def test_module_level_wrappers():
    K = khalimsky_circle(2)
    ch = TorusChecker(K)
    U = DownSet(ch.P, ch.P.down[ch.pair(1, 1)])
    assert is_section_categorical(U, K).is_homotopic
