import pytest

from finspace.errors import (
    CycleDetected,
    InvalidParameter,
    MismatchedSpaces,
    NotOrderPreserving,
)
from finspace.space import (
    DownSet,
    OrderMap,
    bits,
    build_space,
    check_continuous,
    constant_map,
    identity_map,
    khalimsky_circle,
    khalimsky_interval,
    parse_downset,
    popcount,
    product,
    projections,
    read_space,
    write_space,
)


def test_build_space_basic():
    X = build_space(["a", "b", "c"], [(0, 2), (1, 2)])
    assert X.n == 3
    assert X.leq(0, 2) and X.leq(1, 2)
    assert not X.leq(0, 1)
    assert X.maximal_elements() == 0b100
    assert X.minimal_elements() == 0b011


def test_build_space_rejects_cycles():
    with pytest.raises(CycleDetected):
        build_space(["a", "b"], [(0, 1), (1, 0)])


def test_transitive_reduction_of_covers():
    # a < b < c given redundantly; covers must drop a < c
    X = build_space(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    assert (0, 2) not in X.covers
    assert X.leq(0, 2)


def test_khalimsky_circle_structure():
    K = khalimsky_circle(3)
    X = K.space
    assert X.n == 6
    # even ids are minimal, odd maximal, each odd above its two neighbours
    assert X.minimal_elements() == sum(1 << i for i in range(0, 6, 2))
    assert X.min_open(K.b(0)).members == (1 << 0) | (1 << 1) | (1 << 2)
    assert X.min_open(K.a(1)).members == 1 << 2


def test_khalimsky_circle_too_small():
    with pytest.raises(InvalidParameter):
        khalimsky_circle(1)


def test_khalimsky_interval():
    I = khalimsky_interval(0, 2)
    X = I.space
    assert X.n == 3
    # 1 is odd hence maximal over 0 and 2
    assert X.leq(0, 1) and X.leq(2, 1)


def test_downset_validation():
    X = khalimsky_circle(2).space
    with pytest.raises(InvalidParameter):
        DownSet(X, 1 << 1)  # the closed point without its boundary
    U = X.min_open(1)
    assert popcount(U.members) == 3


def test_open_sets_are_down_sets():
    X = khalimsky_circle(2).space
    for mask in X.all_open_sets():
        for p in bits(mask):
            assert X.down[p] & ~mask == 0


def test_product_and_projections():
    X = khalimsky_circle(2).space
    P = product(X, X)
    assert P.n == 16
    assert popcount(P.maximal_elements()) == 4
    p1, p2 = projections(X, X, P)
    for p in range(P.n):
        x, y = divmod(p, X.n)
        assert p1.table[p] == x and p2.table[p] == y


def test_order_map_validation():
    X = khalimsky_circle(2).space
    with pytest.raises(NotOrderPreserving):
        # 0 <= 1 but the images 1 (closed) and 0 (open) are not related
        OrderMap(X, X, [1, 0, 0, 0])
    identity_map(X)
    constant_map(X, X, 0)


def test_equal_maps_on_distinct_equal_spaces_hash_alike():
    X, X2 = khalimsky_circle(2).space, khalimsky_circle(2).space
    assert X is not X2
    f, g = identity_map(X), identity_map(X2)
    assert f == g
    assert len({f, g}) == 1


def test_check_continuous_witness():
    X = khalimsky_circle(2).space
    ok, witness = check_continuous(X, X, [0, 1, 2, 3])
    assert ok is not None and witness is None
    bad, witness = check_continuous(X, X, [1, 0, 0, 0])
    assert bad is None and witness is not None


def test_compose_and_restrict():
    X = khalimsky_circle(3).space
    f = identity_map(X)
    g = constant_map(X, X, 0)
    assert g.compose(f).table == g.table
    sub, old = X.subspace(X.min_open(1).members)
    r = f.restrict(sub, old)
    assert list(r.table) == list(old)


def test_mismatched_compose():
    X = khalimsky_circle(2).space
    Y = khalimsky_circle(3).space
    with pytest.raises(MismatchedSpaces):
        identity_map(X).compose(identity_map(Y))


def test_space_file_round_trip():
    X = khalimsky_circle(4).space
    text = write_space(X, "c4")
    Y = read_space(text)
    assert Y.n == X.n
    assert Y.covers == X.covers
    assert list(Y.labels) == list(X.labels)


def test_downset_serialize_round_trip():
    X = khalimsky_circle(3).space
    U = DownSet(X, X.min_open(1).members | X.min_open(3).members)
    again = parse_downset(X, U.serialize())
    assert again.members == U.members


def test_connected_components():
    X = build_space(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    comps = X.connected_components()
    assert sorted(popcount(c) for c in comps) == [2, 2]
    K = khalimsky_circle(5).space
    assert len(K.connected_components()) == 1
