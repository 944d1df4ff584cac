import random
import re
from itertools import islice, product as iproduct

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import finspace.homotopy as homotopy_module
from finspace.errors import BudgetExceeded
from finspace.circles import degree, recognize_circle
from finspace.homotopy import (
    HomotopyVerdict,
    Lift,
    collapse,
    comparable,
    core,
    degrees,
    enumerate_maps,
    fence_bfs,
    hom_components,
    homotopic,
    nullhomotopic_in,
    table_cmp,
)
from finspace.space import (
    DownSet,
    FiniteSpace,
    OrderMap,
    bits,
    build_space,
    constant_map,
    identity_map,
    khalimsky_circle,
    khalimsky_interval,
    popcount,
    product,
    projections,
)
from finspace.witness import build_U, build_chain
from reference import (
    NotMinimal,
    adjacency_windings,
    beat_points,
    circle_map_from_order_map,
    comparability_components,
    component_labels,
    eager_core,
    hom_component_status,
    minimal_iso_check,
    nullhomotopic_by_copy,
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
        assert core(khalimsky_interval(0, t).space).space.n == 1


def test_core_retraction_composes_to_identity_on_core():
    X = khalimsky_interval(0, 6).space
    cd = core(X)
    assert cd.space.n == 1
    rt = cd.retraction
    comp = tuple(rt.table[v] for v in cd.old_ids)
    assert list(comp) == list(range(cd.space.n))


def test_core_builds_no_map_and_a_retraction_read_builds_one(monkeypatch):
    # core() keeps the removals only; each read of the retraction builds
    # one checked map from X onto the core
    X = khalimsky_interval(0, 6).space
    built = []
    init = OrderMap.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(OrderMap, "__init__", counted)
    cd = core(X)
    assert built == [] and cd.removals
    rt = cd.retraction
    assert len(built) == 1 and built[0] is rt
    assert rt.source is X and rt.target is cd.space


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
    assert v.replay(f, g)


def test_identity_not_nullhomotopic_on_circle():
    X = khalimsky_circle(3).space
    f = identity_map(X)
    g = constant_map(X, X, 0)
    assert hom_component_status(f, g) == "not_homotopic"
    assert homotopic(f, g).status == "not_homotopic"
    assert fence_bfs(f, g).status == "not_homotopic"


@pytest.mark.parametrize("strategy", ["fence-bfs", "exhaustive-components", "bogus"])
def test_homotopic_refuses_any_strategy_but_auto(strategy):
    # homotopic is one procedure: a strategy other than 'auto' is refused
    # at entry, before the maps are compared
    X = khalimsky_circle(2).space
    f = identity_map(X)
    with pytest.raises(ValueError, match="unknown strategy"):
        homotopic(f, f, strategy)


def test_homotopic_strategies_agree_small():
    X = khalimsky_circle(2).space
    comps = hom_components(X, X)
    tables = [t for comp in comps for t in comp]
    rng = random.Random(3)
    for _ in range(30):
        tf, tg = rng.choice(tables), rng.choice(tables)
        f, g = OrderMap(X, X, list(tf)), OrderMap(X, X, list(tg))
        expected = any(tf in c and tg in c for c in comps)
        for v in (homotopic(f, g), fence_bfs(f, g)):
            assert v.is_homotopic == expected, (tf, tg, v.reason)


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
    v = fence_bfs(f, g)
    assert v.is_homotopic
    assert v.replay(f, g)
    assert not v.replay(g, f)  # the fence runs from f to g


def test_nullhomotopic_in_arc():
    X = khalimsky_circle(4).space
    arc = X.down[1] | X.down[3]
    v = nullhomotopic_in(DownSet(X, arc), X)
    assert v.is_homotopic


def test_nullhomotopic_in_empty_piece_is_vacuous():
    X = khalimsky_circle(3).space
    v = nullhomotopic_in(DownSet(X, 0), X)
    assert v.status == "homotopic" and v.reason == "empty piece (vacuous)"
    assert v.fence == []


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


def beat_point_free(S):
    return core(S).space.n == S.n


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(poset_map_pairs())
def test_auto_agrees_with_components_and_lifts_fences(pair):
    f, g = pair
    X, Y = f.source, f.target
    bfs_spaces = []

    def spy(a, b, budget=homotopy_module.DEFAULT_BUDGET):
        bfs_spaces.append((a.source, a.target))
        return fence_bfs(a, b, budget)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(homotopy_module, "fence_bfs", spy)
        v = homotopic(f, g, "auto")
    # the BFS runs between the two cores: core(X) -> core(Y)
    for source, target in bfs_spaces:
        assert source.n == core(X).space.n and target.n == core(Y).space.n
        assert beat_point_free(source) and beat_point_free(target)
    same = any(f.table in c and g.table in c for c in hom_components(X, Y))
    assert v.status == ("homotopic" if same else "not_homotopic"), v.reason
    if v.is_homotopic and not RIGIDITY.match(v.reason):
        # point cores and zero windings included: every fence lies on X,
        # from f to g
        assert v.core_old_ids is None
        assert v.fence_space == X and v.target == Y
        assert v.fence[0] == f.table and v.fence[-1] == g.table
        assert v.replay(f, g)
        for t in v.fence:
            OrderMap(X, Y, t)  # raises unless continuous
        for s, t in zip(v.fence, v.fence[1:]):
            assert table_cmp(Y, s, t) is not None


# the one homotopic verdict of "auto" without a fence: equal nonzero degree
RIGIDITY = re.compile(r"circle classification: both maps have degree -?[1-9]")


K32 = build_space(list("abcde"), [(i, j) for i in range(3) for j in (3, 4)])


@pytest.mark.parametrize(
    "X,Y,ft,status,reason",
    [
        # degree 1 < 3/2 on both sides: rigidity says homotopic, no fence
        (khalimsky_circle(3).space, khalimsky_circle(2).space, (0, 1, 2, 3, 0, 1),
         "homotopic", "circle classification: both maps have degree 1 with |d| < 3/2"),
        # the identity of S1_2 and a rotation: degree 1, rigid
        (khalimsky_circle(2).space, khalimsky_circle(2).space, (0, 1, 2, 3),
         "not_homotopic", "circle classification: degrees 1 vs 1, rigidity bound 2/2"),
        # K(3,2) is no circle: equal windings (4, 4) go on to fence BFS
        (K32, khalimsky_circle(2).space, (0, 2, 2, 1, 3),
         "not_homotopic", "comparability component of f exhausted"),
    ],
    ids=["rigid-homotopic", "rigid-not-homotopic", "no-circle-fence-bfs"],
)
def test_equal_windings_go_to_rigidity_or_fence_bfs(X, Y, ft, status, reason):
    f = OrderMap(X, Y, ft)
    g = OrderMap(X, Y, [(v + 2) % Y.n for v in ft])  # turned: same windings
    v = homotopic(f, g)
    assert v.status == status and v.reason.startswith(reason), v.reason
    same = any(f.table in c and g.table in c for c in hom_components(X, Y))
    assert same == v.is_homotopic


def test_fence_bfs_runs_on_the_target_core():
    # Y: S1_2 (a0, a1 < b0, b1) with p above b0, and a chain q < r; p and
    # q are beat points, core(Y) is S1_2 + {r}, which is no circle.  X: two
    # discrete points, or S1_2, which f sends onto the S1_2 in Y: no other
    # map is comparable to that one
    two = build_space(["u", "v"], [])
    S = khalimsky_circle(2).space
    Y = build_space(
        ["a0", "a1", "b0", "b1", "p", "q", "r"],
        [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4), (2, 4), (5, 6)],
    )
    a0, a1, b0, b1, p, q, r = range(7)
    for X, ft, gt, status in (
        (two, (p, q), (b1, r), "homotopic"),  # r_Y o f = (b0, r), r_Y o g = (b1, r)
        (S, (a0, b0, a1, b1), (a0,) * 4, "not_homotopic"),  # degree 1 against 0
    ):
        f, g = OrderMap(X, Y, ft), OrderMap(X, Y, gt)
        v = homotopic(f, g)
        assert v.status == status, v.reason
        assert v.reason.endswith(
            f"on the domain core ({X.n} of {X.n} points), target core (5 of 7 points)"
        )
        if not v.is_homotopic:
            assert v.reason.startswith("comparability component of f exhausted (1 maps")
        same = any(ft in c and gt in c for c in hom_components(X, Y))
        assert same == v.is_homotopic
        if v.is_homotopic:
            assert v.fence[0] == ft and v.fence[-1] == gt and v.replay(f, g)


def test_maps_that_agree_on_the_domain_core_never_collapse_the_target(monkeypatch):
    # the agreement stages read the tables at core(X) alone: the target is
    # collapsed only for a pair that differs there, and then once
    X, Y = khalimsky_interval(0, 2).space, khalimsky_interval(0, 3).space
    collapsed = []
    real = homotopy_module.collapse

    def counted(space, mask):
        collapsed.append(space)
        return real(space, mask)

    monkeypatch.setattr(homotopy_module, "collapse", counted)
    tables = enumerate_maps(X, Y)
    agreeing = 0
    for ft, gt in iproduct(tables, tables):
        collapsed.clear()
        v = homotopic(OrderMap(X, Y, ft), OrderMap(X, Y, gt))
        agree = v.reason in ("maps equal", "maps agree on the domain core")
        agreeing += agree
        assert sum(space is Y for space in collapsed) == (0 if agree else 1), v.reason
    assert agreeing == 65


def poset(rnd, name, n):
    """A poset on n points in which i < j is a generating pair with
    probability 0.3, as the poset-maps benchmark draws its posets."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.3]
    return build_space([f"{name}{i}" for i in range(n)], pairs)


@st.composite
def benchmark_like_pairs(draw):
    """Two maps X -> Y: between posets of 4-7 and 4-6 points drawn as the
    poset-maps benchmark draws them, or between circles S1_m -> S1_n,
    m, n = 2..4, the second map at times the first turned by a rotation
    (equal windings)."""
    circles = draw(st.booleans())
    if circles:
        X, Y = (khalimsky_circle(draw(st.integers(2, 4))).space for _ in "XY")
    else:
        rnd = draw(st.randoms(use_true_random=False))
        X, Y = poset(rnd, "x", draw(st.integers(4, 7))), poset(rnd, "y", draw(st.integers(4, 6)))
    tables = enumerate_maps(X, Y)
    assume(len(tables) <= 1500)  # keeps the hom_components oracle quick
    ft, gt = (draw(st.sampled_from(tables)) for _ in "fg")
    if circles and draw(st.booleans()):
        gt = tuple((v + 2) % Y.n for v in ft)
    return OrderMap(X, Y, ft), OrderMap(X, Y, gt)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(benchmark_like_pairs())
def test_a_fence_proof_replays_and_has_the_length_its_reason_states(pair):
    # a homotopic verdict's fence is built from its proof when first read:
    # it replays anchored at f and g, the status is that of the full
    # hom-set, and a length that the reason states is the fence's, or,
    # when the reason names the cores, the fence's between the cores
    f, g = pair
    X, Y = f.source, f.target
    v = homotopic(f, g)
    same = any(f.table in c and g.table in c for c in hom_components(X, Y))
    assert v.status == ("homotopic" if same else "not_homotopic"), v.reason
    if v.fence:
        assert v.replay(f, g)
    stated = re.search(r"fence of (\d+) maps through constants", v.reason)
    if stated:
        cX, cY = core(X), core(Y)
        if not (cX.removals or cY.removals):
            assert v.reason.endswith("through constants")
            assert int(stated[1]) == len(v.fence)
        else:
            # the fence between the cores, which the reason names: the
            # same pair decided on the cores, beat-point free, builds it
            assert v.reason.endswith(
                f"through constants on the domain core ({cX.space.n} of {X.n} points), "
                f"target core ({cY.space.n} of {Y.n} points)"
            )
            r = cY.retraction.table
            on_cores = [
                OrderMap(cX.space, cY.space, [r[t[p]] for p in cX.core_ids])
                for t in (f.table, g.table)
            ]
            w = homotopic(*on_cores)
            assert v.reason.startswith(w.reason) and w.reason.endswith("through constants")
            assert int(stated[1]) == len(w.fence)


def disjoint_union(A, B):
    """A + B: B's points follow A's, and no point of A is comparable to
    one of B."""
    pairs = list(A.covers) + [(A.n + lo, A.n + hi) for lo, hi in B.covers]
    return build_space(A.labels + B.labels, pairs)


SEPARATED = re.compile(
    r"point (\d+) of the domain goes to (\d+) and (\d+), "
    r"in different components of the target"
)


@st.composite
def pairs_into_unions(draw):
    """Two maps X -> Y between posets drawn as the poset-maps benchmark
    draws them (4-7 and 4-6 points), either side at times the disjoint
    union of two smaller ones."""
    rnd = draw(st.randoms(use_true_random=False))

    def side(name, most):
        if draw(st.booleans()):
            return poset(rnd, name, draw(st.integers(4, most)))
        return disjoint_union(
            poset(rnd, name, draw(st.integers(1, 4))),
            poset(rnd, name.upper(), draw(st.integers(1, 3))),
        )

    X, Y = side("x", 7), side("y", 6)
    tables = enumerate_maps(X, Y)
    assume(len(tables) <= 1500)  # keeps the hom_components oracle quick
    ft, gt = (draw(st.sampled_from(tables)) for _ in "fg")
    return OrderMap(X, Y, ft), OrderMap(X, Y, gt)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(pairs_into_unions())
def test_a_point_sent_into_two_components_refutes_by_itself(pair):
    # the status is that of the full hom-set; the component stage decides
    # exactly the pairs that send some point into two components of Y, as
    # a BFS that never reads Y.components labels them, and names the first
    # such point with its two values
    f, g = pair
    X, Y = f.source, f.target
    v = homotopic(f, g)
    same = any(f.table in c and g.table in c for c in hom_components(X, Y))
    assert v.status == ("homotopic" if same else "not_homotopic"), v.reason
    label = component_labels(Y)
    split = [x for x in range(X.n) if label[f.table[x]] != label[g.table[x]]]
    named = SEPARATED.fullmatch(v.reason)
    if split:
        x = split[0]
        assert named, v.reason
        assert tuple(map(int, named.groups())) == (x, f.table[x], g.table[x])
    else:
        assert named is None, v.reason


def test_a_separated_pair_is_refuted_before_any_collapse_or_fence_bfs(monkeypatch):
    # the tables alone refute a pair that sends a point into two
    # components of the target: X and Y are not collapsed, and no fence
    # BFS runs; nullhomotopic_in collapses only its piece
    called = []
    for name in ("collapse", "fence_bfs"):
        real = getattr(homotopy_module, name)

        def counted(*args, real=real, name=name):
            called.append(name)
            return real(*args)

        monkeypatch.setattr(homotopy_module, name, counted)
    I = khalimsky_interval(0, 2).space  # 0 < 1 > 2: two beat points
    Y = build_space(["a", "b", "c"], [(0, 1)])  # a < b, and c apart
    v = homotopic(OrderMap(I, Y, (0, 1, 0)), constant_map(I, Y, 2))
    assert v.status == "not_homotopic" and called == []
    assert v.reason == "point 0 of the domain goes to 0 and 2, in different components of the target"
    # no point separates these: the domain and target are collapsed
    assert homotopic(OrderMap(I, Y, (0, 1, 0)), constant_map(I, Y, 1)).is_homotopic
    assert called.count("collapse") == 2
    called.clear()
    X = disjoint_union(khalimsky_circle(2).space, build_space(["p"], []))
    v = nullhomotopic_in(DownSet(X, X.full), X)
    assert v.status == "not_homotopic" and called == ["collapse"]
    assert v.reason == "point 4 of the domain goes to 4 and 0, in different components of the target"


def naive_core(X):
    """Reference collapse: rescan the subspace from point 0 after every
    removal and remove the lowest-id beat point, up before down.

    Returns (removals, mask, retraction table X -> X)."""
    mask = X.full
    removals = []
    send = list(range(X.n))
    while True:
        hit = None
        for x in bits(mask):
            for kind, rel in (("up", X.up), ("down", X.down)):
                near = rel[x] & mask & ~(1 << x)
                for y in bits(near):
                    if not near & ~rel[y]:
                        hit = (x, kind, y)
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            return removals, mask, send
        x, _, w = hit
        removals.append(hit)
        mask &= ~(1 << x)
        send = [w if v == x else v for v in send]


def assert_core_matches_reference(X):
    removals, mask, send = naive_core(X)
    cd = core(X)
    assert eager_core(X) == (removals, mask)
    assert cd.removals == removals
    assert cd.old_ids == list(bits(mask))
    assert [cd.old_ids[v] for v in cd.retraction.table] == send
    fence = cd.fence
    assert len(fence) == len(removals) + 1
    assert fence[0] == tuple(range(X.n))
    assert fence[-1] == tuple(cd.old_ids[v] for v in cd.retraction.table)
    for t in fence:
        OrderMap(X, X, t)  # raises unless continuous
    for s, t in zip(fence, fence[1:]):
        assert table_cmp(X, s, t) is not None


@st.composite
def posets(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.15, 0.3, 0.5]))
    rnd = draw(st.randoms(use_true_random=False))
    pairs = [(i, j) for j in range(n) for i in range(j) if rnd.random() < density]
    perm = list(range(n))
    rnd.shuffle(perm)
    return build_space(
        [str(i) for i in range(n)], [(perm[i], perm[j]) for i, j in pairs]
    )


@settings(max_examples=300)
@given(posets())
def test_core_matches_rescan_reference(X):
    assert_core_matches_reference(X)


@settings(max_examples=100)
@given(posets(max_n=40))
def test_lazy_core_matches_eager_worklist(X):
    # larger posets than the rescan reference takes, for long worklists
    removals, mask = eager_core(X)
    cd = core(X)
    assert cd.removals == removals
    assert cd.old_ids == list(bits(mask))


@settings(max_examples=300)
@given(posets(max_n=20), st.data())
def test_collapse_in_place_matches_the_core_of_the_copied_subspace(X, data):
    # collapsing a mask inside X removes what core() of the copied
    # subspace removes, in the same order, read through old_ids
    mask = data.draw(st.integers(0, X.full))
    sub, old_ids = X.subspace(mask)
    cd = core(sub)
    cl = collapse(X, mask)
    assert cl.removals == [(old_ids[x], kind, old_ids[w]) for x, kind, w in cd.removals]
    core_space, core_ids = cl.space, cl.core_ids
    assert list(core_ids) == [old_ids[p] for p in cd.old_ids]
    assert cl.kept == sum(1 << p for p in core_ids)
    assert cl.old_ids == cd.old_ids
    assert core_space == cd.space
    # its fence runs in X's ids, and its retraction in ranks of the
    # piece: both are core() of the copy, read through old_ids
    assert cl.fence == [tuple(old_ids[v] for v in t) for t in cd.fence]
    assert cl.retraction == cd.retraction and cl.piece == sub


@settings(max_examples=200)
@given(posets(max_n=9), st.data())
def test_nullhomotopic_in_decides_in_place_as_on_the_copied_piece(X, data):
    # U collapsed inside X gives the verdict, certificate and all, that
    # the copied piece gives with its inclusion and constant maps
    which = data.draw(st.sampled_from(("empty", "point", "whole", "union")))
    if which == "empty":
        mask = 0
    elif which == "point":
        minimal = [x for x in range(X.n) if X.down[x] == 1 << x]
        mask = 1 << data.draw(st.sampled_from(minimal))
    elif which == "whole":
        mask = X.full
    else:
        mask = 0
        for x in data.draw(st.lists(st.integers(0, X.n - 1), max_size=4)):
            mask |= X.down[x]
    U = DownSet(X, mask)
    v, ref = nullhomotopic_in(U, X, 20_000), nullhomotopic_by_copy(U, X, 20_000)
    assert (v.status, v.reason, v.fence, v.fence_space, v.target, v.core_old_ids) == (
        ref.status, ref.reason, ref.fence, ref.fence_space, ref.target, ref.core_old_ids
    )
    if v.fence:
        incl = OrderMap(v.fence_space, X, list(bits(mask)))
        const = constant_map(v.fence_space, X, (mask & -mask).bit_length() - 1)
        assert v.replay(incl, const)


def test_a_refuted_piece_is_not_copied(monkeypatch):
    # a piece whose inclusion is refuted is collapsed inside X: only its
    # core is copied, never the piece itself
    X = product(khalimsky_circle(3).space, khalimsky_circle(2).space)
    maximals = [x for x in range(X.n) if X.up[x] == 1 << x]
    copied = []
    subspace = FiniteSpace.subspace

    def recorded(self, mask):
        copied.append(mask)
        return subspace(self, mask)

    monkeypatch.setattr(FiniteSpace, "subspace", recorded)
    refuted = 0
    for pick in range(1, 1 << len(maximals)):
        mask = 0
        for i, x in enumerate(maximals):
            if pick >> i & 1:
                mask |= X.down[x]
        copied.clear()
        v = nullhomotopic_in(DownSet(X, mask), X)
        if v.status == "not_homotopic":
            refuted += 1
            assert mask not in copied
            assert set(copied) <= {collapse(X, mask).kept}
    assert refuted


# S1_2, S1_3, and S1_2 with a point w below b0 (an up beat point): the
# core of each is a circle
CIRCLE_TARGETS = (
    khalimsky_circle(2).space,
    khalimsky_circle(3).space,
    build_space(["a0", "b0", "a1", "b1", "w"], [(0, 1), (2, 1), (2, 3), (0, 3), (4, 1)]),
)
# random posets, with S1_2, S1_3 and K(3,2) (two independent cycles)
# mixed in, since few posets of at most 5 points have a loop
DOMAINS = st.one_of(
    posets(max_n=5),
    st.sampled_from((
        khalimsky_circle(2).space,
        khalimsky_circle(3).space,
        K32,
    )),
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(DOMAINS, st.sampled_from(CIRCLE_TARGETS), st.data())
def test_circle_stage_agrees_with_components(X, Y, data):
    # into a target whose core is a circle, "auto" classifies by windings:
    # its status is that of the full hom-set, and every homotopic verdict
    # but rigidity carries a fence on X from f to g
    tables = enumerate_maps(X, Y)
    last = len(tables) - 1
    i = data.draw(st.integers(0, last))
    j = data.draw(st.integers(0, last).filter(lambda j: j != i or not last))
    gt = tables[j]
    if Y in CIRCLE_TARGETS[:2] and data.draw(st.booleans()):
        # f turned by a rotation of the Khalimsky circle: equal windings
        gt = tuple((v + 2) % Y.n for v in tables[i])
    f, g = OrderMap(X, Y, tables[i]), OrderMap(X, Y, gt)
    v = homotopic(f, g, "auto")
    same = any(f.table in c and g.table in c for c in hom_components(X, Y))
    assert v.status == ("homotopic" if same else "not_homotopic"), v.reason
    if RIGIDITY.match(v.reason):
        assert v.fence == [] and v.core_old_ids is not None
    elif v.is_homotopic:
        assert v.fence_space == X and v.target == Y and v.replay(f, g)


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_core_matches_rescan_reference_on_witness_pieces(k):
    b = build_chain(k)
    P = b.checker.P
    for mask in (b.U.members, b.V.members, b.C, P.full):
        assert_core_matches_reference(P.subspace(mask)[0])


def assert_own_core(X):
    cd = core(X)
    assert cd.space is X
    assert cd.old_ids == list(range(X.n))
    assert cd.retraction.table == tuple(range(X.n))
    assert cd.removals == [] and cd.fence == [tuple(range(X.n))]


@pytest.mark.parametrize("n", range(2, 9))
def test_circle_and_torus_are_their_own_cores(n):
    C = khalimsky_circle(n).space
    assert_own_core(C)
    assert_own_core(product(C, C))


@settings(max_examples=100)
@given(posets())
def test_beat_point_free_poset_is_its_own_core(P):
    X = core(P).space
    assert beat_points(X) == []
    assert_own_core(X)


def test_homotopic_between_circles_builds_no_subspace(monkeypatch):
    calls = []
    subspace = FiniteSpace.subspace

    def counted(self, mask):
        calls.append(mask)
        return subspace(self, mask)

    monkeypatch.setattr(FiniteSpace, "subspace", counted)
    S3, S2 = khalimsky_circle(3).space, khalimsky_circle(2).space
    once = OrderMap(S3, S2, [0, 1, 2, 3, 0, 0])
    reasons = [
        homotopic(once, g).reason
        for g in (
            OrderMap(S3, S2, [2, 3, 0, 1, 2, 2]),  # rigidity
            OrderMap(S3, S2, [0, 3, 2, 1, 0, 0]),  # degree -1
            OrderMap(S3, S2, [0, 0, 0, 0, 0, 0]),  # degree 0
        )
    ]
    assert reasons[0].startswith("circle classification: both maps have degree 1")
    assert reasons[1].startswith("circle classification: cycle with distinct")
    assert reasons[2].startswith("circle classification: cycle with distinct")
    const = constant_map(S3, S2, 0)
    folded = OrderMap(S3, S2, [0, 1, 2, 1, 0, 0])
    assert homotopic(const, folded).replay(const, folded)
    assert calls == []


def test_core_recomputes_beat_status_only_near_removals(monkeypatch):
    # a worklist bound, not a clock: n initial statuses plus one per point
    # comparable to each removed point
    b = build_chain(12)
    X, _ = b.checker.P.subspace(b.U.members)  # the subspace U
    calls = []

    def counted(X, mask, live, x):
        calls.append(x)
        return beat_status(X, mask, live, x)

    beat_status = homotopy_module._beat_status
    monkeypatch.setattr(homotopy_module, "_beat_status", counted)
    cd = core(X)
    bound = X.n + sum(popcount(X.up[x] | X.down[x]) for x, _, _ in cd.removals)
    assert cd.removals
    assert len(calls) <= bound


def test_replay_rejects_empty_and_unanchored_fences():
    S3, S2 = khalimsky_circle(3).space, khalimsky_circle(2).space
    # two distinct maps of degree 1 < 3/2: the rigidity verdict has no fence
    once = OrderMap(S3, S2, [0, 1, 2, 3, 0, 0])
    turned = OrderMap(S3, S2, [2, 3, 0, 1, 2, 2])
    v = homotopic(once, turned)
    assert v.is_homotopic
    assert v.reason == "circle classification: both maps have degree 1 with |d| < 3/2"
    assert v.fence == [] and not v.replay() and not v.replay(once, turned)
    # degree 0: wraps half way round and comes back; the lift gives a fence
    const = constant_map(S3, S2, 0)
    folded = OrderMap(S3, S2, [0, 1, 2, 1, 0, 0])
    v = homotopic(const, folded)
    assert v.is_homotopic and v.reason.startswith("circle classification")
    assert v.replay(const, folded)
    f, g = identity_map(S3), constant_map(S3, S3, 0)
    assert not HomotopyVerdict("homotopic", [f.table], S3, S3).replay(f, g)
    assert HomotopyVerdict("homotopic", [f.table], S3, S3).replay(f, f)


@settings(max_examples=200)
@given(posets(max_n=5), posets(max_n=4))
def test_enumerate_maps_matches_brute_force(X, Y):
    # every table, in lexicographic order, kept when order-preserving
    want = [
        t
        for t in iproduct(range(Y.n), repeat=X.n)
        if all(Y.leq(t[x], t[z]) for x in range(X.n) for z in bits(X.up[x]))
    ]
    assert enumerate_maps(X, Y) == want


def test_enumerate_tables_decodes_no_mask_per_assignment(bits_calls):
    X = random_poset(random.Random(3), 8)
    Y = khalimsky_circle(3).space
    later = homotopy_module._later_comparable(X)
    budget = homotopy_module._Budget(10**6)
    bits_calls.clear()
    tables = list(
        homotopy_module._enumerate_tables(later, Y, [Y.full] * X.n, budget)
    )
    assert tables and 10**6 - budget.left > 100  # assignments tried
    assert bits_calls == []


def reference_enumerate_tables(later, Y, cand, budget):
    """The recursive enumerator that the explicit-stack one replaced: one
    generator frame per domain point.  Kept as the reference for the
    order of the tables and the budget spent."""
    n = len(later)
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
            for j, up in later[i]:
                old = cand[j]
                new = old & (Y.up[v] if up else Y.down[v])
                if new != old:
                    saved.append((j, old))
                    cand[j] = new
                    if not new:
                        ok = False
                        break
            if ok:
                yield from assign(i + 1)
            for j, old in saved:
                cand[j] = old

    yield from assign(0)


def run_enumerator(enumerate_tables, later, Y, cand, budget):
    """(tables yielded, budget left, whether the budget ran out)."""
    b = homotopy_module._Budget(budget)
    tables = []
    try:
        for t in enumerate_tables(later, Y, cand, b):
            tables.append(t)
    except BudgetExceeded:
        return tables, b.left, True
    return tables, b.left, False


def assert_enumerators_agree(X, Y, cands):
    later = homotopy_module._later_comparable(X)
    for cand in cands:
        for budget in (1, 3, 17, 10**6):
            got = run_enumerator(
                homotopy_module._enumerate_tables, later, Y, cand, budget
            )
            want = run_enumerator(reference_enumerate_tables, later, Y, cand, budget)
            assert got == want, (cand, budget)


@settings(max_examples=200)
@given(posets(max_n=6), posets(max_n=4), st.randoms(use_true_random=False))
def test_enumerate_tables_matches_recursive_reference(X, Y, rnd):
    # full candidate sets, the up- and down-neighbours of a table, and
    # random (possibly empty) candidate masks
    t = tuple(rnd.randrange(Y.n) for _ in range(X.n))
    cands = [
        [Y.full] * X.n,
        [Y.up[v] for v in t],
        [Y.down[v] for v in t],
        [rnd.randrange(Y.full + 1) for _ in range(X.n)],
    ]
    assert_enumerators_agree(X, Y, cands)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(homotopy_module, "_enumerate_tables", reference_enumerate_tables)
        want = hom_components(X, Y)
    assert hom_components(X, Y) == want


def test_enumerate_tables_empty_domain():
    E = build_space([], [])
    Y = khalimsky_circle(2).space
    assert_enumerators_agree(E, Y, [[]])
    # the empty table, without spending budget
    assert run_enumerator(homotopy_module._enumerate_tables, [], Y, [], 1) == (
        [()], 1, False
    )
    assert enumerate_maps(E, Y) == [()]


SIERPINSKI = build_space(["open", "closed"], [(0, 1)])


@pytest.fixture(scope="module")
def chain_1200():
    """The chain 0 < 1 < ... < 1199, built from its down-sets."""
    return FiniteSpace([str(i) for i in range(1200)], [(2 << i) - 1 for i in range(1200)])


def test_fence_bfs_on_a_core_deeper_than_the_recursion_limit():
    # S1_16 x S1_16 is its own core, so fence BFS runs on all 1024 points;
    # pi1 is rigid, so its component is pi1 alone.  "auto" needs no search:
    # the windings of a cycle of the first factor tell pi1 from pi2
    C = khalimsky_circle(16).space
    P = product(C, C)
    pi1, pi2 = projections(C, C, P)
    assert core(P).space.n == 1024
    v = fence_bfs(pi1, pi2)
    assert v.status == "not_homotopic"
    assert v.reason.startswith("comparability component of f exhausted (1 maps,")
    v = homotopic(pi1, pi2, budget=1)
    assert v.status == "not_homotopic"
    assert v.reason.startswith("circle classification: cycle with distinct windings")


def test_fence_bfs_on_a_long_chain(chain_1200):
    # from the constant at the closed point, the first table below it is
    # the constant at the open point: the BFS descends all 1200 points
    X = chain_1200
    f, g = constant_map(X, SIERPINSKI, 1), constant_map(X, SIERPINSKI, 0)
    v = fence_bfs(f, g)
    assert v.is_homotopic and v.replay(f, g)
    assert v.fence == [f.table, g.table]


def test_enumerate_maps_on_long_domains(chain_1200):
    # a Khalimsky circle of 1200 points is connected: into two discrete
    # points only the constants are continuous
    X = khalimsky_circle(600).space
    D = build_space(["a", "b"], [])
    assert enumerate_maps(X, D) == [(0,) * 1200, (1,) * 1200]
    # the monotone maps of a 1200-chain into the Sierpinski space, in
    # lexicographic order, are 0^(1200-k) 1^k; the first few come from
    # descending all 1200 points
    later = homotopy_module._later_comparable(chain_1200)
    b = homotopy_module._Budget(10**6)
    head = list(
        islice(
            homotopy_module._enumerate_tables(later, SIERPINSKI, [3] * 1200, b), 4
        )
    )
    assert head == [(0,) * (1200 - k) + (1,) * k for k in range(4)]


def test_fence_bfs_reasons_count_maps_and_budget():
    X = khalimsky_circle(3).space
    f, g = constant_map(X, X, 0), constant_map(X, X, 2)
    v = fence_bfs(f, g, 10**5)
    m = re.fullmatch(
        r"fence-bfs reached g among (\d+) maps \(budget (\d+) of 100000 spent\)",
        v.reason,
    )
    assert v.is_homotopic and m, v.reason
    reached, spent = int(m[1]), int(m[2])
    assert len(v.fence) <= reached and 0 < spent <= 10**5
    # the identity of a circle is rigid: its component is one map
    v = fence_bfs(identity_map(X), f, 10**5)
    m = re.fullmatch(
        r"comparability component of f exhausted \(1 maps, budget (\d+) of "
        r"100000 spent\) without reaching g",
        v.reason,
    )
    assert v.status == "not_homotopic" and m, v.reason
    # an exhausted budget stays unknown
    v = fence_bfs(f, g, 3)
    assert v.status == "unknown" and not v.fence
    assert re.fullmatch(r"fence-bfs budget 3 exhausted after reaching \d+ maps", v.reason)


def assert_lift_matches_adjacency_walk(X, mask, t1, t2, num):
    """Grow the lift of ``t1``, ``t2`` on the subspace ``mask`` of X from
    scratch and check it against ``adjacency_windings``, which roots a BFS
    forest at the least point of each component.  Returns the lift's hit
    and state."""
    size = len(num)
    want_phi, unbalanced = adjacency_windings(X, mask, t1, t2, num)
    lift = Lift(X, t1, t2, num)
    # a hit exactly when some cycle has distinct windings, or under 'cat'
    # any nonzero one: the cycle space is spanned by the cycles that a
    # spanning forest's other pairs close, whichever forest it is
    hit, state = lift.grow(None, mask)
    assert (hit is not None) == any(w1 != w2 for _, _, w1, w2 in unbalanced)
    cat_hit, cat_state = lift.grow(None, mask, cat=True)
    assert (cat_hit is not None) == bool(unbalanced)
    for h in (hit, cat_hit):
        if h is not None:
            p, x, w1, w2 = h
            assert mask >> p & 1 and mask >> x & 1 and p != x and X.leq(p, x)
            # windings of a closed walk: whole turns of the circle
            assert (w1 or w2) and w1 % size == 0 and w2 % size == 0
    assert hit is None or (state is None and cat_hit is not None)
    if hit is None:
        assert (state[4] is not None) == bool(unbalanced)
    if cat_hit is None:
        assert cat_state[4] is None
    if state is None:
        return hit, state
    grown_mask, phi1, phi2, comp, wound = state
    assert grown_mask == mask
    if wound is not None:
        p, x, w1, w2 = wound
        assert X.leq(p, x) and w1 == w2 and w1 and w1 % size == 0
    # the labels are the components of the comparability graph
    labels = {}
    for p in bits(mask):
        labels[comp[p]] = labels.get(comp[p], 0) | 1 << p
    comps = comparability_components(X, mask)
    assert sorted(labels.values()) == sorted(comps)
    # rooted at the least point, a component with no winding lifts as the
    # reference does
    rooted = lift.rooted(state, bits(mask))
    assert rooted.keys() == want_phi.keys()
    wound_points = 0
    for p, q, _, _ in unbalanced:
        wound_points |= 1 << p | 1 << q
    for c in comps:
        if not c & wound_points:
            assert all(rooted[p] == want_phi[p] for p in bits(c))
    return hit, state


@settings(max_examples=200)
@given(posets(), st.integers(2, 5), st.randoms(use_true_random=False))
def test_potentials_match_the_adjacency_walk(X, half, rnd):
    # any tables into a 2 * half residue numbering, continuous or not
    size = 2 * half
    num = list(range(size))
    rnd.shuffle(num)
    t1 = [rnd.randrange(size) for _ in range(X.n)]
    t2 = [rnd.randrange(size) for _ in range(X.n)]
    mask = X.full if rnd.random() < 0.3 else rnd.getrandbits(X.n)
    assert_lift_matches_adjacency_walk(X, mask, t1, t2, num)


def test_potentials_match_the_adjacency_walk_on_a_witness_piece():
    U = build_U(6)
    P = U.space
    S = khalimsky_circle(6).space
    p1, p2 = projections(S, S, P)
    num = list(range(S.n))
    assert_lift_matches_adjacency_walk(P, U.members, p1.table, p2.table, num)


_circle_maps = {}


def circle_maps(m, n):
    """Every continuous map S1_m -> S1_n, as a table, built once."""
    if (m, n) not in _circle_maps:
        X, Y = khalimsky_circle(m).space, khalimsky_circle(n).space
        _circle_maps[m, n] = enumerate_maps(X, Y)
    return _circle_maps[m, n]


@st.composite
def tables_into_circles(draw):
    """A domain X with two tables into S1_n, n = 2..4, a subspace of X,
    and whether X is a circle with two continuous maps: a small random
    poset with any tables, or S1_m, m = 2..5, with its points renumbered
    and two maps, on all of it.  The renumbering makes the lift grown from
    scratch join components, which random posets seldom make it do."""
    n = draw(st.integers(2, 4))
    Y = khalimsky_circle(n).space
    if draw(st.booleans()):
        X = draw(posets(max_n=10))
        values = st.lists(st.integers(0, Y.n - 1), min_size=X.n, max_size=X.n)
        t1, t2 = draw(values), draw(values)
        mask = X.full if draw(st.booleans()) else draw(st.integers(0, X.full))
        return X, Y, mask, t1, t2, False
    m = draw(st.integers(2, 5))
    S = khalimsky_circle(m).space
    new = draw(st.permutations(range(S.n)))
    pairs = [(new[p], new[q]) for p in range(S.n) for q in S.up_ids[p] if q != p]
    X = build_space([str(p) for p in range(S.n)], pairs)
    t1, t2 = (draw(st.sampled_from(circle_maps(m, n))) for _ in range(2))
    t1, t2 = ([t[new.index(p)] for p in range(S.n)] for t in (t1, t2))
    return X, Y, X.full, t1, t2, True


@settings(max_examples=300)
@given(tables_into_circles())
def test_lift_of_maps_into_a_circle_matches_the_adjacency_walk(drawn):
    # the inputs of the circle stage, and more: tables into S1_n on any
    # poset, not only pieces of S x S.  On a circle, the pair that closes
    # its one cycle gives the degrees of both maps
    X, Y, mask, t1, t2, circle = drawn
    rec_y = recognize_circle(Y)
    hit, state = assert_lift_matches_adjacency_walk(X, mask, t1, t2, rec_y[1])
    if circle:
        rec_x = recognize_circle(X)
        want = tuple(
            degree(circle_map_from_order_map(t, rec_x, rec_y)) for t in (t1, t2)
        )
        assert degrees(hit or state[4], rec_x, Y.n) == want
