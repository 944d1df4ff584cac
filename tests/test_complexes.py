import random

import pytest

from finspace.complexes import (
    SimplicialComplex,
    cycle_complex,
    export_complex,
    format_complex,
    format_hasse_dot,
    make_complex,
    order_complex,
)
from finspace.errors import InvalidParameter
from finspace.space import build_space, khalimsky_circle, product
from reference import barycentric_facet_count, face_poset, minimal_iso_check


def test_cycle_complex_counts():
    K = cycle_complex(4)
    assert len(K.vertices) == 4
    assert len(K.facets) == 4
    assert K.dim() == 1


def test_cycle_complex_too_small():
    with pytest.raises(InvalidParameter):
        cycle_complex(2)


def test_order_complex_of_circle_is_cycle():
    for n in (2, 3, 4, 5):
        K = order_complex(khalimsky_circle(n).space)
        assert len(K.vertices) == 2 * n
        assert len(K.facets) == 2 * n
        assert all(len(f) == 2 for f in K.facets)


def test_face_poset_of_edge():
    K = make_complex(["v", "w"], [{0, 1}])
    X = face_poset(K)
    assert X.n == 3
    assert bin(X.maximal_elements()).count("1") == 1


def test_face_poset_of_cycle_is_circle():
    n = 4
    X = face_poset(cycle_complex(n))
    target = khalimsky_circle(n).space
    assert X.n == target.n
    assert minimal_iso_check(X, target) is not None


def test_barycentric_counts_random(seed=13):
    rng = random.Random(seed)
    for _ in range(20):
        nv = rng.randint(3, 6)
        facets = set()
        for _ in range(rng.randint(2, 5)):
            size = rng.randint(1, 3)
            facets.add(frozenset(rng.sample(range(nv), size)))
        used = sorted(set().union(*facets))
        remap = {v: i for i, v in enumerate(used)}
        K = make_complex(
            [str(v) for v in used],
            [{remap[v] for v in f} for f in facets],
        )
        bary = order_complex(face_poset(K))
        assert len(bary.facets) == barycentric_facet_count(K)


def test_order_complex_of_product_chains():
    X = khalimsky_circle(2).space
    P = product(X, X)
    K = order_complex(P)
    # maximal chains of the product have length 3 (two covers)
    assert all(len(f) == 3 for f in K.facets)


def test_format_complex_header():
    K = cycle_complex(4)
    text = format_complex(K)
    assert text.splitlines()[0] == "asc 4 4"
    assert len(text.splitlines()) == 5


def test_export_complex(tmp_path):
    path = tmp_path / "c.asc"
    export_complex(cycle_complex(3), path)
    assert path.read_text().startswith("asc 3 3")


def test_dot_export_counts():
    X = khalimsky_circle(2).space
    dot = format_hasse_dot(X)
    assert dot.count("label=") == 4
    assert dot.count("->") == 4


def test_facet_containment_rejected():
    with pytest.raises(InvalidParameter):
        SimplicialComplex(("a", "b"), (frozenset({0}), frozenset({0, 1})))
