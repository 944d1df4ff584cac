"""End-to-end checks for the headline results.

Each test pins one published value or structural guarantee and also
enforces a wall-clock budget, so regressions in either correctness or
performance show up as a single failing line in the report.
"""

import random
import time

import pytest

from finspace.circles import (
    CircleMap,
    circle_map_from_order_map,
    classify_homotopic,
    degree,
    lift,
    recognize_circle,
)
from finspace.complexes import (
    barycentric_facet_count,
    cycle_complex,
    face_poset,
    make_complex,
    order_complex,
)
from finspace.errors import InvalidParameter
from finspace.homotopy import (
    beat_points,
    core,
    hom_components,
    is_contractible,
    minimal_iso_check,
)
from finspace.invariants import (
    Cover,
    TorusChecker,
    canonical_coloring,
    cat,
    cell_symmetries,
    coloring_from_rows,
    enumerate_simple_colorings,
    square_grid,
    tc,
    tc_via_colorings,
)
from finspace.space import (
    build_space,
    khalimsky_circle,
    khalimsky_interval,
    popcount,
)
from finspace.witness import build_U, build_V, build_chain, displayed_core, verify_bundle


class Clock:
    def __init__(self, cap):
        self.cap = cap
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed <= self.cap, f"took {elapsed:.1f}s, cap {self.cap}s"


def test_tc_of_smallest_circle_is_three():
    clk = Clock(10)
    res = tc(khalimsky_circle(2))
    assert res.exact and res.value == 3
    clk.check()


def test_tc_of_half_size_three_circle_is_two():
    clk = Clock(120)
    res = tc(khalimsky_circle(3))
    assert res.exact and res.value == 2
    assert any("no certified cover with 2 pieces" in n for n in res.notes)
    clk.check()


def test_tc_of_half_size_four_circle_via_colorings():
    clk = Clock(600)
    res = tc_via_colorings(khalimsky_circle(4))
    assert res.exact and res.value == 2
    assert any("2 simple 2-coloring classes" in n for n in res.notes)
    assert any("line lemma: 16 lines" in n for n in res.notes)
    assert any("certified 3-piece cover" in n for n in res.notes)
    clk.check()


def test_exact_search_at_half_size_four_matches_colorings():
    clk = Clock(60)
    K = khalimsky_circle(4)
    res = tc(K)
    assert res.exact and res.value == 2
    assert "no certified cover with 2 pieces (exhaustive)" in res.notes
    assert tc_via_colorings(K).value == res.value
    clk.check()


def test_exact_search_at_half_size_five_finds_two_piece_cover():
    clk = Clock(60)
    res = tc(khalimsky_circle(5))
    assert res.exact and res.value == 1
    assert len(res.cover.pieces) == 2
    assert all(v.is_homotopic for v in res.cover.certificates)
    clk.check()


@pytest.mark.parametrize("k", [5, 6, 7])
def test_tc_is_one_for_large_circles_in_witness_mode(k):
    clk = Clock(30)
    K = khalimsky_circle(k)
    ch = TorusChecker(K)
    U, V = build_U(k), build_V(k)
    cov = Cover(ch.P, [U, V])
    res = tc(K, mode="witness", witness=cov)
    assert res.exact and res.value == 1
    rep = verify_bundle(k)
    assert rep.passed, rep.render()
    clk.check()


@pytest.mark.parametrize("k", [5, 6])
def test_staged_retraction_replays(k):
    clk = Clock(5)
    b = build_chain(k)
    rep = verify_bundle(k)
    by_name = {name: ok for name, ok, _ in rep.checks}
    assert by_name["stages continuous"]
    assert by_name["consecutive stages comparable"]
    if k == 6:
        assert b.C == displayed_core(6)
    clk.check()


@pytest.mark.parametrize(
    "m,n,total",
    [(2, 2, 36), (3, 2, 200), (4, 2, 1156), (3, 3, 234)],
)
def test_homotopy_classes_match_degree_classification(m, n, total):
    clk = Clock(300)
    X = khalimsky_circle(m).space
    Y = khalimsky_circle(n).space
    rec_x, rec_y = recognize_circle(X), recognize_circle(Y)
    comps = hom_components(X, Y)
    tables = [t for comp in comps for t in comp]
    assert len(tables) == total
    comp_of = {t: i for i, comp in enumerate(comps) for t in comp}
    cms = {t: circle_map_from_order_map(list(t), rec_x, rec_y) for t in tables}
    for comp in comps:
        ds = {degree(cms[t]) for t in comp}
        assert len(ds) == 1
        d = ds.pop()
        if abs(d) * n >= m:
            assert len(comp) == 1
    for tf in tables:
        f = cms[tf]
        for tg in tables:
            same = comp_of[tf] == comp_of[tg]
            assert classify_homotopic(f, cms[tg]) == same, (tf, tg)
    clk.check()


def test_lifts_commute_and_are_unique():
    rng = random.Random(2024)
    size_cache = {}
    for _ in range(500):
        m = rng.randint(2, 6)
        n = rng.randint(2, 5)
        size = 2 * n
        while True:
            vals = [rng.randrange(0, size, 2)]
            for _ in range(2 * m - 1):
                vals.append((vals[-1] + rng.choice((-1, 1))) % size)
            try:
                f = CircleMap(m, n, tuple(vals))
                break
            except InvalidParameter:
                continue
        a = f(0)
        lr = lift(f, 0, 2 * m, a)
        for z in range(2 * m + 1):
            assert lr.value(z) % size == f(z)
        # each step of the lift is forced: exactly one integer within
        # distance one of the previous value reduces to f(z)
        for z in range(1, 2 * m + 1):
            prev = lr.value(z - 1)
            cands = [
                c for c in (prev - 1, prev, prev + 1) if c % size == f(z)
            ]
            assert cands == [lr.value(z)]
        span = lr.value(2 * m) - lr.value(0)
        assert span % size == 0
        assert degree(f) == span // size


def test_core_machinery_is_sound():
    clk = Clock(60)
    for n in range(2, 9):
        assert beat_points(khalimsky_circle(n).space) == []
    for t in range(0, 13):
        assert is_contractible(khalimsky_interval(0, t).space)
    rng = random.Random(41)
    for _ in range(200):
        npts = rng.randint(2, 9)
        pairs = [
            (i, j)
            for j in range(npts)
            for i in range(j)
            if rng.random() < 0.3
        ]
        X = build_space([str(i) for i in range(npts)], pairs)
        base = core(X).space
        mask = X.full
        while True:
            sub, old = X.subspace(mask)
            hits = beat_points(sub)
            if not hits:
                break
            p, _, _ = hits[rng.randrange(len(hits))]
            mask &= ~(1 << old[p])
        other = X.subspace(mask)[0]
        assert base.n == other.n
        assert minimal_iso_check(base, other) is not None
    clk.check()


def test_category_of_circles_and_their_squares():
    clk = Clock(1800)
    for n in range(2, 7):
        res = cat(khalimsky_circle(n).space)
        assert res.exact and res.value == 1
    res2 = cat(None, checker=TorusChecker(khalimsky_circle(2)))
    assert res2.exact and res2.value == 3
    res3 = cat(None, checker=TorusChecker(khalimsky_circle(3)))
    assert res3.exact and res3.value == 2
    clk.check()


def test_exactly_two_simple_two_colorings():
    clk = Clock(60)
    g = square_grid(4)
    syms = cell_symmetries(g)
    classes = enumerate_simple_colorings(g, 2)
    assert len(classes) == 2
    got = {canonical_coloring(g, c, syms).assignment for c in classes}
    want = {
        canonical_coloring(
            g, coloring_from_rows(rows, 2), syms
        ).assignment
        for rows in (
            ["1001", "0011", "0110", "1100"],
            ["1011", "0010", "1110", "1000"],
        )
    }
    assert got == want
    clk.check()


def test_order_complex_and_face_poset_structures():
    for n in range(2, 8):
        K = order_complex(khalimsky_circle(n).space)
        # the carrier is a single cycle: 2n vertices, 2n edges, each
        # vertex on exactly two edges
        assert len(K.vertices) == 2 * n
        assert len(K.facets) == 2 * n
        assert all(len(f) == 2 for f in K.facets)
        for v in range(len(K.vertices)):
            assert sum(1 for f in K.facets if v in f) == 2
        if n >= 3:
            # the 2-cycle is not a simplicial complex (it would need a
            # doubled edge), so the round trip starts at n = 3
            X = face_poset(cycle_complex(n))
            target = khalimsky_circle(n).space
            assert X.n == target.n
            assert minimal_iso_check(X, target) is not None
    rng = random.Random(17)
    for _ in range(20):
        nv = rng.randint(3, 7)
        facets = set()
        for _ in range(rng.randint(2, 6)):
            facets.add(frozenset(rng.sample(range(nv), rng.randint(1, 3))))
        used = sorted(set().union(*facets))
        remap = {v: i for i, v in enumerate(used)}
        K = make_complex(
            [str(v) for v in used],
            [{remap[v] for v in f} for f in facets],
        )
        bary = order_complex(face_poset(K))
        assert len(bary.facets) == barycentric_facet_count(K)
