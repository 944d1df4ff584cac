import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from finspace.errors import (
    CycleDetected,
    InvalidParameter,
    NotOrderPreserving,
)
from finspace.space import (
    DownSet,
    FiniteSpace,
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
from reference import all_open_sets, component_labels, first_violation, lowbit_bits


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


def test_covers_are_the_covering_relation_of_the_pairs_given():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 8)
        pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.4]
        X = build_space([str(i) for i in range(n)], pairs)
        below = [
            {a for a in range(n) if a != b and X.leq(a, b)} for b in range(n)
        ]
        want = sorted(
            (a, b) for b in range(n) for a in below[b]
            if not any(a in below[c] for c in below[b])
        )
        assert list(X.covers) == want


def test_khalimsky_circle_structure():
    K = khalimsky_circle(3)
    X = K.space
    assert X.n == 6
    # even ids are minimal, odd maximal, each odd above its two neighbours
    assert X.minimal_elements() == sum(1 << i for i in range(0, 6, 2))
    assert X.down[1] == (1 << 0) | (1 << 1) | (1 << 2)  # b_0 covers a_0, a_1
    assert X.down[2] == 1 << 2  # a_1 is open


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
    U = DownSet(X, X.down[1])
    assert popcount(U.members) == 3


def test_open_sets_are_down_sets():
    X = khalimsky_circle(2).space
    for mask in all_open_sets(X):
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


def test_space_file_round_trip():
    X = khalimsky_circle(4).space
    text = write_space(X, "c4")
    Y = read_space(text)
    assert Y.n == X.n
    assert Y.covers == X.covers
    assert list(Y.labels) == list(X.labels)


def test_write_space_refuses_a_label_with_whitespace():
    # "point 0 a b" has a token too many, which read_space rejects
    X = build_space(["a b", "c"], [(0, 1)])
    with pytest.raises(InvalidParameter, match="point 0: label 'a b'"):
        write_space(X, "X")


def test_write_space_refuses_an_empty_label():
    # "point 1 " would read back as the label "1", silently
    X = build_space(["a", ""], [(0, 1)])
    with pytest.raises(InvalidParameter, match="point 1: label ''"):
        write_space(X, "X")


def test_downset_serialize_round_trip():
    X = khalimsky_circle(3).space
    U = DownSet(X, X.down[1] | X.down[3])
    again = parse_downset(X, U.serialize())
    assert again.members == U.members


def test_covers_computed_on_first_read_match_the_covering_relation():
    X = khalimsky_circle(4).space
    P = product(X, X)
    sub, _ = P.subspace(P.down[P.n - 1] | P.down[5])
    again = read_space(write_space(P, "T"))
    for Z in (sub, P, again):
        assert Z.covers == tuple(sorted(Z._compute_covers()))


def test_write_space_of_square_is_unchanged():
    # sha256 of the text written for S1_4 x S1_4 when covers were still
    # computed eagerly in FiniteSpace.__init__
    X = khalimsky_circle(4).space
    text = write_space(product(X, X), "T")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "dc52d62e30b7f8756fe568188c9de2e6edf6e67db446f292dec381467e63556c"
    )


def test_order_map_witness_matches_reference_check():
    rng = random.Random(4)
    for _ in range(400):
        spaces = []
        for _ in range(2):
            n = rng.randint(1, 8)
            pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.35]
            spaces.append(build_space([str(i) for i in range(n)], pairs))
        X, Y = spaces
        table = [rng.randrange(Y.n) for _ in range(X.n)]
        want = first_violation(X, Y, table)
        if want is None:
            assert OrderMap(X, Y, table).table == tuple(table)
        else:
            with pytest.raises(NotOrderPreserving) as exc:
                OrderMap(X, Y, table)
            assert exc.value.witness == want


def test_order_map_witness_on_a_large_product_subspace():
    # rows 0..16 of S1_12 x S1_12 (an open set, 16 is minimal): 408 points
    X = khalimsky_circle(12).space
    P = product(X, X)
    sub, old = P.subspace(sum(1 << p for p in range(P.n) if p // X.n <= 16))
    assert sub.n == 408
    rng = random.Random(7)
    for target, table in ((X, [p // X.n for p in old]), (sub, list(range(sub.n)))):
        for _ in range(25):
            bad = list(table)
            for _ in range(rng.randint(1, 3)):
                bad[rng.randrange(sub.n)] = rng.randrange(target.n)
            want = first_violation(sub, target, bad)
            if want is None:
                assert OrderMap(sub, target, bad).table == tuple(bad)
            else:
                with pytest.raises(NotOrderPreserving) as exc:
                    OrderMap(sub, target, bad)
                assert exc.value.witness == want


@st.composite
def posets(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.15, 0.3, 0.6]))
    pairs = [(i, j) for j in range(n) for i in range(j) if rnd.random() < density]
    perm = list(range(n))
    rnd.shuffle(perm)
    return build_space(
        [str(i) for i in range(n)], [(perm[i], perm[j]) for i, j in pairs]
    )


def assert_id_tuples_exact(Z):
    assert Z.down_ids == tuple(tuple(bits(m)) for m in Z.down)
    assert Z.up_ids == tuple(tuple(bits(m)) for m in Z.up)


def assert_same_space(Z, want):
    assert Z.down == want.down
    assert Z.down_ids == want.down_ids
    assert Z.up == want.up
    assert Z.up_ids == want.up_ids
    assert Z == want and hash(Z) == hash(want)


@settings(max_examples=150)
@given(posets(), posets(max_n=5), st.randoms(use_true_random=False))
def test_components_match_a_reference_bfs(X, Y, rnd):
    # each point's component mask, computed once and kept, holds exactly
    # the points that the reference BFS labels alike
    sub, _ = X.subspace(rnd.getrandbits(X.n))
    for Z in (X, sub, product(X, Y), product(Y, sub)):
        label = component_labels(Z)
        want = tuple(
            sum(1 << q for q in range(Z.n) if label[q] == label[p]) for p in range(Z.n)
        )
        assert Z.components == want
        assert Z.components is Z.components
        assert (Z.n == 0 or Z.components[0] == Z.full) == (set(label) <= {0})


@settings(max_examples=150)
@given(posets(), posets(max_n=5), st.randoms(use_true_random=False))
def test_id_tuples_are_built_at_construction_and_equal_the_masks(X, Y, rnd):
    assert_id_tuples_exact(X)
    sub, _ = X.subspace(rnd.getrandbits(X.n))
    assert_id_tuples_exact(sub)
    assert_id_tuples_exact(product(X, Y))
    assert_id_tuples_exact(read_space(write_space(X, "X")))
    # subspace and product hand their id tuples to FiniteSpace; decoding
    # the masks instead must give the same space
    for Z in (sub, product(X, Y), product(Y, sub)):
        assert_same_space(Z, FiniteSpace(Z.labels, Z.down))


def test_order_map_on_a_space_with_built_tuples_decodes_no_mask(bits_calls):
    X = khalimsky_circle(6).space
    P = product(X, X)
    sub, old = P.subspace(P.down[P.n - 1] | P.down[13] | P.down[77])
    for Z in (X, P, sub):
        Z.up_ids
    bits_calls.clear()
    OrderMap(P, X, [p // X.n for p in range(P.n)])
    OrderMap(sub, P, old)
    with pytest.raises(NotOrderPreserving):
        OrderMap(sub, P, [old[-1]] * (sub.n - 1) + [old[0]])
    assert bits_calls == []


FULL_1024 = (1 << 1024) - 1
sparse_masks = st.sets(st.integers(0, 1023), max_size=12).map(
    lambda ps: sum(1 << p for p in ps)
)
masks = st.one_of(
    st.just(0),
    st.integers(0, 1100).map(lambda p: 1 << p),  # a single, possibly high, bit
    sparse_masks,
    sparse_masks.map(lambda m: FULL_1024 ^ m),  # dense, 1024 bits wide
    st.integers(0, FULL_1024),
)


@settings(max_examples=300)
@given(masks)
def test_bits_match_the_lowest_bit_walk(mask):
    assert list(bits(mask)) == list(lowbit_bits(mask))


@pytest.mark.parametrize("mask", [-1, -2, -(1 << 700)])
def test_bits_of_a_negative_mask_raise(mask):
    with pytest.raises(InvalidParameter):
        list(bits(mask))


def test_handed_down_ids_still_get_the_transitivity_check():
    # 0 < 1 < 2 with 0 missing from 2's down-set
    down = [0b001, 0b011, 0b110]
    with pytest.raises(InvalidParameter, match="transitive"):
        FiniteSpace("abc", down, down_ids=[(0,), (0, 1), (1, 2)])
    with pytest.raises(InvalidParameter, match="transitive"):
        FiniteSpace("abc", down)


@settings(max_examples=300)
@given(posets(max_n=12), st.randoms(use_true_random=False))
def test_endomap_check_matches_the_full_scan(X, rnd):
    # an endomap checks only the pairs at its 1-3 moved points, then, on a
    # failure, scans in order: the same verdict and first witness as a
    # scan of every pair
    table = list(range(X.n))
    for p in rnd.sample(range(X.n), min(X.n, rnd.randint(1, 3))):
        near = X.up_ids[p] + X.down_ids[p]
        table[p] = rnd.choice(near) if rnd.random() < 0.7 else rnd.randrange(X.n)
    want = first_violation(X, X, table)
    if want is None:
        assert OrderMap(X, X, table).table == tuple(table)
    else:
        with pytest.raises(NotOrderPreserving) as exc:
            OrderMap(X, X, table)
        assert exc.value.witness == want
