from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import finspace.invariants as invariants_module
import finspace.space as space_module
import finspace.witness as witness_module
from finspace.errors import InvalidParameter, NotContinuous
from finspace.homotopy import DEFAULT_BUDGET
from finspace.invariants import Cover, TorusChecker, tc, torus
from finspace.space import FiniteSpace, bits, khalimsky_circle, popcount
from finspace.witness import (
    build_chain,
    build_U,
    build_V,
    displayed_core,
    verify_bundle,
)
from reference import stage_on_family_subspace, witness_stage_rules


def test_build_U_rejects_small_k():
    with pytest.raises(InvalidParameter):
        build_U(4)


def test_U_is_open_and_V_completes_cover():
    for k in (5, 6):
        U = build_U(k)
        V = build_V(k)
        P = U.space
        assert P.is_open(U.members)
        assert P.is_open(V.members)
        assert U.members | V.members == P.full


def test_witness_pieces_share_one_torus(monkeypatch):
    U, V, b = build_U(6), build_V(6), build_chain(6)
    assert U.space is V.space is b.checker.P
    deciders = []
    decide = TorusChecker.is_section_categorical

    def recorded(self, mask, budget):
        deciders.append(self)
        return decide(self, mask, budget)

    monkeypatch.setattr(TorusChecker, "is_section_categorical", recorded)
    res = tc(khalimsky_circle(6), mode="witness", witness=Cover(U.space, [U, V]))
    assert res.exact and res.value == 1
    assert len(deciders) == 2 and all(ch.P is U.space for ch in deciders)


def test_witness_sweep_builds_one_product_per_k(monkeypatch):
    # the benchmark's query shape; one torus is kept, so each k misses once
    sizes = []
    real = space_module.product

    def counted(X, Y):
        sizes.append(X.n)
        return real(X, Y)

    for module in (space_module, invariants_module, witness_module):
        monkeypatch.setattr(module, "product", counted, raising=False)
    torus.cache_clear()
    for k in range(5, 9):
        assert verify_bundle(k).passed
        U, V = build_U(k), build_V(k)
        res = tc(khalimsky_circle(k), mode="witness", witness=Cover(U.space, [U, V]))
        assert res.exact and res.value == 1
    assert sizes == [10, 12, 14, 16]
    assert torus.cache_info().currsize == 1


def test_witness_query_decides_V_once(monkeypatch):
    # verify_bundle's step (6) decides V on the shared torus; witness-mode
    # tc on the same circle and budget reads that verdict back
    certified = []
    certify = TorusChecker._certify

    def recorded(self, mask, mode, budget):
        certified.append(mask)
        return certify(self, mask, mode, budget)

    monkeypatch.setattr(TorusChecker, "_certify", recorded)
    torus.cache_clear()
    rep = verify_bundle(7)
    U, V = build_U(7), build_V(7)
    res = tc(khalimsky_circle(7), mode="witness", witness=Cover(U.space, [U, V]))
    assert rep.passed and res.exact and res.value == 1
    assert certified == [V.members, U.members]
    remembered = torus(khalimsky_circle(7))._verdicts
    v_reason = remembered[(V.members, "sc", DEFAULT_BUDGET)].reason
    assert rep.checks[-1][2].endswith(v_reason)
    assert res.notes[1] == f"piece 1: homotopic ({v_reason})"


def test_chain_first_stage_is_identity():
    b = build_chain(5)
    assert b.stages[0].name == "f0" and b.stages[0].moved == {}


def test_chain_images_nest():
    b = build_chain(6)
    assert b.C1 & ~b.U.members == 0
    assert b.C2 & ~b.C1 == 0
    assert b.C3 & ~b.C2 == 0
    assert b.C & ~b.C3 == 0


def test_displayed_core_size():
    # the closed form has 2k + m - 3 points after collapsing duplicates
    for k, m in ((5, 5), (6, 7), (7, 7)):
        assert popcount(displayed_core(k)) == 2 * k + m - 3


def test_final_image_matches_display_for_small_k():
    for k in (5, 6):
        b = build_chain(k)
        assert b.C == displayed_core(k)


def test_verify_bundle_passes():
    for k in (5, 6, 7):
        rep = verify_bundle(k)
        assert rep.passed, rep.render()
        assert rep.n_C is not None and rep.n_C > k


def test_render_mentions_all_checks():
    rep = verify_bundle(5)
    text = rep.render()
    assert "stages continuous" in text
    assert "V certified" in text


def test_verify_bundle_reports_a_discontinuous_stage(monkeypatch):
    # f2 of k = 8 made to send (1, 1), below (1, 2), which it fixes, to
    # (9, 9): the failing pair is named by residue pairs, the two points
    # and then their images
    real = witness_module._stage

    def broken(name, family, moves):
        return real(name, family, {**moves, (1, 1): (9, 9)} if name == "f2" else moves)

    monkeypatch.setattr(witness_module, "_stage", broken)
    rep = verify_bundle(8)
    assert not rep.passed and rep.n_C is None
    assert rep.checks == [
        ("stages continuous", False, "stage f2 fails at ((1, 1), (1, 2), (9, 9), (1, 2))")
    ]
    P, co = torus(khalimsky_circle(8)).P, witness_module._Coords(8)
    x, x2, fx, fx2 = (co.pid(*r) for r in ((1, 1), (1, 2), (9, 9), (1, 2)))
    assert P.leq(x, x2) and not P.leq(fx, fx2)


def test_verify_bundle_fails_a_final_image_that_is_not_a_loop(monkeypatch):
    # past k = 6 the image is not compared with the closed form, so the
    # loop row is the check on it: its core must be a circle
    real = witness_module.build_chain

    def contractible(k):
        bundle = replace(real(k))
        P = bundle.checker.P
        bundle.C = P.down[next(bits(P.maximal_elements()))]
        return bundle

    monkeypatch.setattr(witness_module, "build_chain", contractible)
    rep = verify_bundle(7)
    assert not rep.passed
    assert ("final image is a loop", False, "|C| = 9") in rep.checks
    assert "  [FAIL] final image is a loop: |C| = 9" in rep.render().splitlines()
    monkeypatch.setattr(witness_module, "build_chain", real)
    assert ("final image is a loop", True, "|C| = 22") in verify_bundle(7).checks


def test_stages_build_no_subspace_of_the_product(monkeypatch):
    # a call-count bound, not a clock: the 16 stages of k = 8 are checked
    # on the product itself; verify_bundle adds one core for C and one for
    # each piece it collapses, U and V, which are collapsed inside the
    # product: neither is copied whole
    torus.cache_clear()
    real = FiniteSpace.subspace
    on_product = []

    def counted(self, mask):
        if self.n == 4 * 8 * 8:
            on_product.append(mask)
        return real(self, mask)

    monkeypatch.setattr(FiniteSpace, "subspace", counted)
    b = build_chain(8)
    assert len(b.stages) == 16
    assert on_product == []
    assert verify_bundle(8).passed
    assert len(on_product) <= 3
    assert b.U.members not in on_product and b.V.members not in on_product


def test_residues_are_computed_once_per_family_point(monkeypatch):
    # a call-count bound: the stages read residue pairs off their moves,
    # so no residue pair is computed for a family point, let alone once
    # per stage on it
    real_res, real_family = witness_module._Coords.res, witness_module._family
    res_calls, family_sizes = [], []

    def counted_res(self, p):
        res_calls.append(p)
        return real_res(self, p)

    def counted_family(P, mask, *rest):
        family_sizes.append(popcount(mask))
        return real_family(P, mask, *rest)

    monkeypatch.setattr(witness_module._Coords, "res", counted_res)
    monkeypatch.setattr(witness_module, "_family", counted_family)
    b = build_chain(8)
    assert len(b.stages) == 16 and len(family_sizes) == 4
    # inferred_A5 reads the residues of the few points of C1 off the blocks
    assert len(res_calls) <= len(b.inferred_A5)


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def test_stage_tables_match_the_residue_rules():
    # on its family a stage is the rule: it moves the points the rule
    # moves, to the rule's images, and fixes every other one
    for k in range(5, 13):
        b = build_chain(k)
        co = witness_module._Coords(k)
        rules = witness_stage_rules(k)
        assert [st.name for st in b.stages] == [name for name, _ in rules]
        families = {"f": b.U.members, "g": b.C1, "h0": b.C2, "h1": b.C3}
        for st, (name, rule) in zip(b.stages, rules):
            mask = st.family.mask
            assert mask == (families.get(name) or families[name[0]]), (k, name)
            images = {p: co.pid(*rule(*co.res(p))) for p in bits(mask)}
            want = {p: q for p, q in images.items() if q != p}
            assert st.moved == want, (k, name)


def test_moves_are_built_reduced(monkeypatch):
    real, seen = witness_module._stage, []

    def recorded(name, family, moves):
        seen.append((name, moves))
        return real(name, family, moves)

    monkeypatch.setattr(witness_module, "_stage", recorded)
    for k in range(5, 13):
        seen.clear()
        assert len(build_chain(k).stages) == len(seen)
        for name, moves in seen:
            for pair in (*moves, *moves.values()):
                assert len(pair) == 2 and all(1 <= r <= 2 * k for r in pair), (k, name, pair)


def test_a_move_that_leaves_its_family_names_the_stage_and_point(monkeypatch):
    k = 8
    b = build_chain(k)
    co = witness_module._Coords(k)
    # a point of C1, on which the g stages live, and a point of U off C1
    src = co.res(_lowest(b.C1))
    off = co.res(_lowest(b.U.members & ~b.C1))
    real = witness_module._stage

    def patched(name, family, moves):
        return real(name, family, {**moves, src: off} if name == "g1" else moves)

    monkeypatch.setattr(witness_module, "_stage", patched)
    with pytest.raises(NotContinuous) as exc:
        build_chain(k)
    assert exc.value.stage == "g1"
    assert exc.value.witness == (src, off)
    name, ok, detail = verify_bundle(k).checks[0]
    assert name == "stages continuous" and not ok
    assert detail == f"stage g1 fails at {(src, off)}"


def test_a_move_from_off_the_family_is_not_made(monkeypatch):
    k = 8
    b = build_chain(k)
    want = [st.moved for st in b.stages]
    co = witness_module._Coords(k)
    # a point of U off C1 sent onto C1: the g stages live on C1 alone
    off = co.res(_lowest(b.U.members & ~b.C1))
    dst = co.res(_lowest(b.C1))
    real = witness_module._stage

    def patched(name, family, moves):
        return real(name, family, {**moves, off: dst} if name[0] == "g" else moves)

    monkeypatch.setattr(witness_module, "_stage", patched)
    assert [st.moved for st in build_chain(k).stages] == want


@settings(max_examples=200)
@given(st.data())
def test_a_stage_is_refused_exactly_when_its_family_subspace_map_is(data):
    # a real stage's moves, changed a few times to send a family point to a
    # random family point or to a neighbour of its image; the stage checked
    # on the product against the same map on its family's subspace
    k = data.draw(st.integers(5, 10), label="k")
    b = build_chain(k)
    P, co = b.checker.P, witness_module._Coords(k)
    i = data.draw(st.integers(0, len(b.stages) - 1), label="stage")
    stage, (name, rule) = b.stages[i], witness_stage_rules(k)[i]
    mask = stage.family.mask
    points = list(bits(mask))
    moves = {co.res(p): rule(*co.res(p)) for p in points}
    for _ in range(data.draw(st.integers(1, 3), label="changes")):
        src = data.draw(st.sampled_from(points), label="src")
        image = co.pid(*moves[co.res(src)])
        near = [q for q in P.up_ids[image] + P.down_ids[image] if (mask >> q) & 1]
        dst = data.draw(st.sampled_from(points) | st.sampled_from(near), label="dst")
        moves[co.res(src)] = co.res(dst)
    _, want = stage_on_family_subspace(P, k, mask, moves)
    try:
        got = witness_module._stage(name, stage.family, moves)
    except NotContinuous as e:
        assert want is not None, (k, name)
        # the named pair is one of the family that the moves break
        x, x2, fx, fx2 = (co.pid(*r) for r in e.witness)
        assert all((mask >> p) & 1 for p in (x, x2))
        assert [co.pid(*moves.get(co.res(p), co.res(p))) for p in (x, x2)] == [fx, fx2]
        assert P.leq(x, x2) and not P.leq(fx, fx2)
    else:
        assert want is None, (k, name)
        fixed = {p for p in points if moves[co.res(p)] == co.res(p)}
        assert got.moved.keys() == set(points) - fixed
        assert all(co.res(q) == moves[co.res(p)] for p, q in got.moved.items())
