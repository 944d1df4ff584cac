import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import finspace.homotopy as homotopy_module
from finspace.errors import NotMinimal
from finspace.homotopy import (
    beat_points,
    comparable,
    core,
    enumerate_maps,
    fence_bfs,
    hom_components,
    homotopic,
    is_contractible,
    minimal_iso_check,
    nullhomotopic_in,
    table_cmp,
)
from finspace.space import (
    DownSet,
    OrderMap,
    bits,
    build_space,
    constant_map,
    identity_map,
    khalimsky_circle,
    khalimsky_interval,
    popcount,
)


def random_poset(rng, n):
    """Random poset on n points via a random DAG's transitive closure."""
    labels = [str(i) for i in range(n)]
    pairs = []
    for j in range(n):
        for i in range(j):
            if rng.random() < 0.3:
                pairs.append((i, j))
    return build_space(labels, pairs)


def test_interval_beat_points():
    X = khalimsky_interval(0, 2).space
    pts = beat_points(X)
    kinds = {p: (k, w) for p, k, w in pts}
    # both endpoints are up beat points with the middle as witness
    assert set(kinds) == {0, 2}
    assert all(k == "up" and w == 1 for k, w in kinds.values())


def test_circles_have_no_beat_points():
    for n in range(2, 9):
        assert beat_points(khalimsky_circle(n).space) == []


def test_intervals_are_contractible():
    for t in range(0, 13):
        assert is_contractible(khalimsky_interval(0, t).space)


def test_core_retraction_composes_to_identity_on_core():
    X = khalimsky_interval(0, 6).space
    cd = core(X)
    assert cd.space.n == 1
    rt = cd.retraction
    inc = cd.inclusion
    comp = rt.compose(inc)
    assert list(comp.table) == list(range(cd.space.n))


def test_core_order_independent(seed=7):
    rng = random.Random(seed)
    for _ in range(40):
        X = random_poset(rng, rng.randint(2, 9))
        base = core(X).space
        # random removal order instead of lowest-id-first
        mask = X.full
        while True:
            hits = [
                (p, k, w)
                for p, k, w in beat_points(X.subspace(mask)[0])
            ]
            if not hits:
                break
            sub, old = X.subspace(mask)
            p, _, _ = hits[rng.randrange(len(hits))]
            mask &= ~(1 << old[p])
        other = X.subspace(mask)[0]
        assert base.n == other.n
        assert minimal_iso_check(base, other) is not None


def test_minimal_iso_rejects_non_minimal():
    X = khalimsky_interval(0, 2).space
    with pytest.raises(NotMinimal):
        minimal_iso_check(X, X)


def test_fence_bfs_constants_homotopic():
    X = khalimsky_circle(3).space
    f = constant_map(X, X, 0)
    g = constant_map(X, X, 2)
    v = fence_bfs(f, g, 10**5)
    assert v.is_homotopic
    v.replay()


def test_identity_not_nullhomotopic_on_circle():
    X = khalimsky_circle(3).space
    f = identity_map(X)
    g = constant_map(X, X, 0)
    for strategy in ("auto", "exhaustive-components"):
        v = homotopic(f, g, strategy)
        assert v.status == "not_homotopic"


def test_homotopic_strategies_agree_small():
    X = khalimsky_circle(2).space
    comps = hom_components(X, X)
    tables = [t for comp in comps for t in comp]
    rng = random.Random(3)
    for _ in range(30):
        tf, tg = rng.choice(tables), rng.choice(tables)
        f, g = OrderMap(X, X, list(tf)), OrderMap(X, X, list(tg))
        expected = any(tf in c and tg in c for c in comps)
        for strategy in ("fence-bfs", "auto", "exhaustive-components"):
            v = homotopic(f, g, strategy)
            assert v.is_homotopic == expected, (tf, tg, strategy)


def test_hom_components_s12_self():
    X = khalimsky_circle(2).space
    comps = hom_components(X, X)
    sizes = sorted(len(c) for c in comps)
    # four rigid degree +-1 maps and one large nullhomotopic class
    assert sizes == [1, 1, 1, 1, 32]


def test_fence_replay_validates_each_step():
    X = khalimsky_circle(2).space
    f = constant_map(X, X, 0)
    g = constant_map(X, X, 1)
    v = homotopic(f, g, "fence-bfs")
    assert v.is_homotopic
    steps = v.replay()
    assert steps >= 1


def test_nullhomotopic_in_arc():
    X = khalimsky_circle(4).space
    arc = X.min_open(1).members | X.min_open(3).members
    v = nullhomotopic_in(DownSet(X, arc), X)
    assert v.is_homotopic


def test_comparable_detects_order():
    X = khalimsky_circle(2).space
    f = constant_map(X, X, 0)
    g = constant_map(X, X, 1)
    assert comparable(f, g) == "leq"
    assert comparable(g, f) == "geq"
    assert comparable(f, f) == "equal"


@st.composite
def poset_map_pairs(draw):
    """Random posets X, Y of 3-7 points and two maps X -> Y, distinct when
    possible."""

    def poset(name):
        n = draw(st.integers(3, 7))
        pairs = [
            (i, j)
            for j in range(n)
            for i in range(j)
            if draw(st.booleans())
        ]
        return build_space([f"{name}{i}" for i in range(n)], pairs)

    X, Y = poset("x"), poset("y")
    tables = enumerate_maps(X, Y)
    assume(len(tables) <= 800)  # keeps the hom_components oracle quick
    i = draw(st.integers(0, len(tables) - 1))
    j = draw(st.integers(0, len(tables) - 1).filter(lambda j: j != i or len(tables) == 1))
    return OrderMap(X, Y, tables[i]), OrderMap(X, Y, tables[j])


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(poset_map_pairs())
def test_auto_agrees_with_components_and_lifts_fences(pair):
    f, g = pair
    X, Y = f.source, f.target
    bfs_domains = []

    def spy(a, b, budget=homotopy_module.DEFAULT_BUDGET):
        bfs_domains.append(a.source.n)
        return fence_bfs(a, b, budget)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(homotopy_module, "fence_bfs", spy)
        v = homotopic(f, g, "auto")
    assert all(n == core(X).space.n for n in bfs_domains)
    same = any(f.table in c and g.table in c for c in hom_components(X, Y))
    assert v.status == ("homotopic" if same else "not_homotopic"), v.reason
    if v.is_homotopic and v.core_old_ids is None:
        assert v.fence_space == X and v.target == Y
        assert v.fence[0] == f.table and v.fence[-1] == g.table
        for t in v.fence:
            OrderMap(X, Y, t)  # raises unless continuous
        for s, t in zip(v.fence, v.fence[1:]):
            assert table_cmp(Y, s, t) is not None
