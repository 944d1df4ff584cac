import random

import pytest
from hypothesis import given, settings, strategies as st

import finspace.circles as circles_module
from finspace.circles import (
    CircleMap,
    classify_homotopic,
    degree,
    lift,
    parse_circle_map,
    recognize_circle,
)
from finspace.errors import BaseMismatch, InvalidParameter, MismatchedSizes
from finspace.homotopy import Lift, degrees, homotopic
from finspace.space import (
    OrderMap,
    build_space,
    khalimsky_circle,
    khalimsky_interval,
    product,
)
from reference import (
    all_rotations_circle,
    circle_map_from_order_map,
    constant_circle_map,
    identity_circle_map,
    rotate_circle_map,
    serialize_circle_map,
)
from test_homotopy import posets


def random_circle_map(rng, m, n):
    """Random walk around the target circle, closed up to a loop."""
    size_t = 2 * n
    while True:
        start = rng.randrange(0, size_t, 2)
        vals = [start]
        for _ in range(2 * m - 1):
            prev = vals[-1]
            if prev % 2 == 0:
                vals.append((prev + rng.choice((-1, 1))) % size_t)
            else:
                vals.append((prev + rng.choice((-1, 1))) % size_t)
        try:
            return CircleMap(m, n, tuple(vals))
        except InvalidParameter:
            continue


def test_identity_and_constant_degrees():
    assert degree(identity_circle_map(3)) == 1
    assert degree(constant_circle_map(3, 3, 0)) == 0


def test_doubling_map_degree():
    f = CircleMap(4, 2, tuple(z % 4 for z in range(8)))
    assert degree(f) == 2


def test_reversed_identity_degree():
    m = 3
    f = CircleMap(m, m, tuple((-z) % (2 * m) for z in range(2 * m)))
    assert degree(f) == -1


def test_lift_uniqueness_and_commutation():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(2, 5)
        n = rng.randint(2, 4)
        f = random_circle_map(rng, m, n)
        a = f(0)
        values = lift(f, 0, 2 * m, a)
        size = 2 * n
        for z in range(0, 2 * m + 1):
            assert values[z] % size == f(z)
        shifted = lift(f, 0, 2 * m, a + 2 * size)
        assert tuple(v - 2 * size for v in shifted) == values


def test_lift_base_mismatch():
    f = identity_circle_map(2)
    with pytest.raises(BaseMismatch):
        lift(f, 0, 4, 1)


def lift_moves(z, v):
    """Lift values at z + 1 that a continuous map can take after v at z:
    it moves by one only where the parities of z and v agree."""
    return (v - 1, v, v + 1) if (v - z) % 2 == 0 else (v,)


def reachable(m, end):
    """reach[z]: the lift values at z from which L(2m) = end is reachable."""
    reach = [set() for _ in range(2 * m + 1)]
    reach[2 * m] = {end}
    for z in range(2 * m - 1, -1, -1):
        reach[z] = {
            v
            for v in range(end - 2 * m - 1, end + 2 * m + 2)
            if any(w in reach[z + 1] for w in lift_moves(z, v))
        }
    return reach


@st.composite
def circle_maps_with_degree(draw):
    """A valid map S1_m -> S1_n (m <= 12, n <= 6) and its degree d, drawn as
    a lift L on [0, 2m] with L(2m) = L(0) + 2nd; every degree some
    continuous lift from L(0) reaches can be drawn."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(2, 6))
    start = draw(st.integers(0, 2 * n - 1))
    reach_of = {}
    for d in range(-(m // n), m // n + 1):
        reach = reachable(m, start + 2 * n * d)
        if start in reach[0]:
            reach_of[d] = reach
    d = draw(st.sampled_from(sorted(reach_of)))
    lifted = [start]
    for z in range(2 * m - 1):
        moves = [w for w in lift_moves(z, lifted[-1]) if w in reach_of[d][z + 1]]
        lifted.append(draw(st.sampled_from(moves)))
    return CircleMap(m, n, tuple(v % (2 * n) for v in lifted)), d


def reference_degree(f):
    """Up steps minus down steps around the loop, over 2n."""
    size = 2 * f.n
    ups = downs = 0
    for z in range(2 * f.m):
        a, b = f(z), f(z + 1)  # f reads z mod 2m, so z + 1 = 2m is f(0)
        if b == (a + 1) % size:
            ups += 1
        elif b == (a - 1) % size:
            downs += 1
        else:
            assert a == b
    assert (ups - downs) % size == 0
    return (ups - downs) // size


@settings(max_examples=300)
@given(circle_maps_with_degree())
def test_degree_matches_lift_and_step_count(drawn):
    f, d = drawn
    assert abs(d) * f.n <= f.m
    assert degree(f) == d
    values = lift(f, 0, 2 * f.m, f(0))
    assert (values[-1] - values[0]) // (2 * f.n) == d
    assert reference_degree(f) == d


def test_degree_rejects_a_jump():
    f = identity_circle_map(3)
    object.__setattr__(f, "table", (0, 2, 2, 3, 4, 5))  # bypasses validation
    with pytest.raises(InvalidParameter, match="jumps at 0"):
        degree(f)
    with pytest.raises(InvalidParameter, match="jumps at 0"):
        lift(f, 0, 6, 0)


def test_lift_rejects_a_step_against_the_order():
    f = identity_circle_map(3)
    # 0 -> 1 at z = 1 climbs where the line order falls (2 < 1)
    object.__setattr__(f, "table", (0, 0, 1, 1, 0, 0))  # bypasses validation
    with pytest.raises(InvalidParameter, match="not continuous at 1: 0 vs 1"):
        lift(f, 0, 6, 0)


@settings(max_examples=300)
@given(circle_maps_with_degree(), st.integers(-3, 3))
def test_lift_is_an_order_map_onto_its_span(drawn, turns):
    f, _ = drawn
    size = 2 * f.n
    values = lift(f, 0, 2 * f.m, f(0) + turns * size)
    lo, hi = min(values), max(values)
    # OrderMap checks every pair z <= z2 of [0, 2m] against [lo, hi]
    OrderMap(
        khalimsky_interval(0, 2 * f.m).space,
        khalimsky_interval(lo, hi).space,
        [v - lo for v in values],
    )
    assert [v % size for v in values] == [f(z) for z in range(2 * f.m + 1)]
    assert values[-1] - values[0] == size * degree(f)


def test_degree_and_classification_never_lift(monkeypatch):
    def no_lift(*args):
        raise AssertionError("degree went through lift")

    monkeypatch.setattr(circles_module, "lift", no_lift)
    f = CircleMap(4, 2, (0, 1, 2, 3, 0, 0, 0, 0))
    g = rotate_circle_map(f, 2)
    const = constant_circle_map(4, 2, 0)
    assert degree(f) == 1
    assert classify_homotopic(f, g)  # distinct tables of degree 1 < 4/2
    assert not classify_homotopic(f, const)
    X, Y = khalimsky_circle(4).space, khalimsky_circle(2).space
    v = homotopic(OrderMap(X, Y, f.table), OrderMap(X, Y, const.table), "auto")
    # one turn of f against none of the constant, read off the lifts
    assert v.status == "not_homotopic"
    assert v.reason == "circle classification: cycle with distinct windings (4,0)"


def test_degree_additive_under_rotation():
    f = identity_circle_map(4)
    assert degree(rotate_circle_map(f, 2)) == 1


def test_classify_small_cases():
    idm = identity_circle_map(2)
    const = constant_circle_map(2, 2, 0)
    assert not classify_homotopic(idm, const)
    assert classify_homotopic(idm, idm)  # reflexivity
    # on a long domain the identity-like maps into a small circle collapse
    f = CircleMap(5, 2, tuple(z % 4 for z in [0, 1, 2, 3, 2, 1, 0, 1, 0, 3]))
    g = constant_circle_map(5, 2, 0)
    assert degree(f) == 0
    assert classify_homotopic(f, g)


def test_classify_rejects_size_mismatch():
    with pytest.raises(MismatchedSizes):
        classify_homotopic(identity_circle_map(2), identity_circle_map(3))


def test_parse_round_trip():
    f = identity_circle_map(3)
    assert parse_circle_map(serialize_circle_map(f)).table == f.table


def test_recognize_circle_constructor():
    for n in range(2, 7):
        rec = recognize_circle(khalimsky_circle(n).space)
        assert rec is not None and rec[0] == n


def test_recognize_circle_rejects_non_circles():
    assert recognize_circle(khalimsky_interval(0, 4).space) is None
    X = khalimsky_circle(2).space
    assert recognize_circle(product(X, X)) is None


def relabelled(X, perm):
    """X with point x renamed perm[x]."""
    labels = [None] * X.n
    for x, p in enumerate(perm):
        labels[p] = X.labels[x]
    pairs = [(perm[x], perm[y]) for y in range(X.n) for x in X.down_ids[y] if x != y]
    return build_space(labels, pairs)


@settings(max_examples=300)
@given(st.integers(2, 12), st.randoms(use_true_random=False))
def test_recognize_circle_matches_all_rotations_on_relabelled_circles(n, rnd):
    # point 0 lands on a maximal point about half the time, where the least
    # numbering does not start at rotation 0
    perm = list(range(2 * n))
    rnd.shuffle(perm)
    X = relabelled(khalimsky_circle(n).space, perm)
    want = all_rotations_circle(X)
    assert want is not None and want[0] == n
    assert recognize_circle(X) == want


@settings(max_examples=300)
@given(posets(max_n=12))
def test_recognize_circle_matches_all_rotations_on_posets(X):
    # almost every draw is not a circle: both sides must give None
    assert recognize_circle(X) == all_rotations_circle(X)


def test_circle_map_from_order_map_identity():
    # the identity and a reflection, reindexed as circle maps, against the
    # degrees read off the pair that closes the lift's one cycle
    X = khalimsky_circle(3).space
    rec = recognize_circle(X)
    ident = list(range(X.n))
    flip = [(-p) % X.n for p in ident]
    assert degree(circle_map_from_order_map(ident, rec, rec)) == 1
    assert degree(circle_map_from_order_map(flip, rec, rec)) == -1
    hit, state = Lift(X, ident, flip, rec[1]).grow(None, X.full)
    assert state is None
    assert degrees(hit, rec, X.n) == (1, -1)

