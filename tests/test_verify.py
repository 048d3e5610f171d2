import itertools

import pytest

from masseylab import cochains as cc
from masseylab import groups as gr
from masseylab import verify as vf
from masseylab.errors import (
    AdjacentOnes,
    BadParameter,
    FormDegenerate,
    HypothesisViolated,
    NotApplicable,
    SizeMismatch,
)
from masseylab.unitri import identity_matrix, unitri_group


def test_sign_pattern_validation():
    with pytest.raises(BadParameter):
        vf.SignPattern(())
    with pytest.raises(BadParameter):
        vf.SignPattern((0, 2))
    assert vf.SignPattern((1, 1, 0)).has_adjacent_ones()
    assert not vf.SignPattern((1, 0, 1)).has_adjacent_ones()


def test_block_lift_all_valid_patterns():
    for n in range(1, 9):
        for bits in itertools.product((0, 1), repeat=n):
            p = vf.SignPattern(bits)
            if p.has_adjacent_ones():
                with pytest.raises(AdjacentOnes):
                    vf.block_lift(p)
            else:
                A = vf.block_lift(p)
                assert A.mul(A) == identity_matrix(n + 1, 2)
                assert A.phi() == bits


def test_case_by_case_audit_frozen():
    rec = vf.case_by_case_audit()
    assert rec[(1, 1)] == {"count": 2, "orders": [4, 4]}
    assert rec[(0, 0)] == {"count": 2, "orders": [1, 2]}
    assert rec["verdict"]


def test_splice_matches_block_lift():
    Z2 = gr.build_cyclic(2)
    U2 = unitri_group(2, 2)
    G2 = U2.as_finite_group()
    h = gr.GroupHom(Z2, G2, (0, 1)).check()
    sp = vf.splice_lifts(h, h)
    U4 = unitri_group(4, 2)
    assert U4.matrix_of(sp(1)) == vf.block_lift(vf.SignPattern((1, 0, 1)))


def test_splice_hom_law_v4():
    V4 = gr.build_vector_group(2, 2)
    U2 = unitri_group(2, 2)
    G2 = U2.as_finite_group()
    left = gr.GroupHom(V4, G2, (0, 1, 0, 1)).check()
    right = gr.GroupHom(V4, G2, (0, 0, 1, 1)).check()
    sp = vf.splice_lifts(left, right)  # .check() inside raises on failure
    U4 = unitri_group(4, 2)
    for g in V4.elements():
        assert U4.matrix_of(sp(g)).phi() == \
            (U2.matrix_of(left(g)).phi() + (0,) + U2.matrix_of(right(g)).phi())


def test_splice_mismatch():
    Z2 = gr.build_cyclic(2)
    h = gr.GroupHom(Z2, Z2, (0, 1))
    with pytest.raises(SizeMismatch):
        vf.splice_lifts(h, h)  # codomain is not unitriangular


@pytest.mark.parametrize("G,p", [
    (gr.build_cyclic(3), 2),
    (gr.build_cyclic(5), 2),
])
def test_easy_vanishing_drill(G, p):
    rec = vf.easy_vanishing_drill(G, p, 3)
    assert rec["verified"] and rec["obstructions_zero"]
    assert rec["mode"] == "filtration"
    assert rec["steps"] == 3


def test_easy_vanishing_trivial_mode():
    rec = vf.easy_vanishing_drill(gr.build_symmetric3(), 5, 3)
    assert rec["verified"] and rec["mode"] == "trivial-map"


def test_easy_vanishing_not_applicable():
    with pytest.raises(NotApplicable):
        vf.easy_vanishing_drill(gr.build_cyclic(2), 2, 3)


def test_structure_audit():
    for m, p in ((4, 2), (4, 3)):
        recs = vf.structure_audit(m, p)
        assert len(recs) == m - 1
        assert all(r["holds"] for r in recs)
        assert all(r["iota_additive"] for r in recs if "iota_additive" in r)


def test_filtration_length_report():
    recs = vf.filtration_length_report([2, 3, 4], 2)
    assert [r["length"] for r in recs] == [1, 3, 6]
    assert all(r["matches_entry_count"] for r in recs)


def test_demushkin_descent_error_paths():
    Z2 = gr.build_cyclic(2)
    a = cc.h1(Z2, 2)[0]
    zero = cc.zero_cochain(Z2, 2, 1)
    with pytest.raises(HypothesisViolated):
        vf.demushkin_descent(Z2, 2, (a, a, a))  # a cup a nonzero
    with pytest.raises(HypothesisViolated):
        vf.demushkin_descent(Z2, 2, (a, zero, a))  # zero class
    Z4 = gr.build_cyclic(4)
    b = cc.h1(Z4, 2)[0]
    with pytest.raises(FormDegenerate):
        vf.demushkin_descent(Z4, 2, (b, b, b))
    V4 = gr.build_vector_group(2, 2)
    x, y = cc.h1(V4, 2)
    with pytest.raises(HypothesisViolated):
        vf.demushkin_descent(V4, 2, (x, y, x))  # dim H^2 = 3


def test_demushkin_descent_base_case():
    # n = 2 bottoms out at a blind U_3 solve when the cup product vanishes;
    # only the all-nonzero hypothesis path is reachable on Z/2
    Z2 = gr.build_cyclic(2)
    a = cc.h1(Z2, 2)[0]
    with pytest.raises(HypothesisViolated):
        vf.demushkin_descent(Z2, 2, (a, a))


# No group the lab builds reaches the twisting branch of demushkin_descent
# (see its docstring), so its two helpers are tested on their own.

@pytest.mark.parametrize("target", ["zero", "generator"])
def test_solve_chi_hits_each_h2_target_on_z2(target):
    Z2 = gr.build_cyclic(2)
    a = cc.h1(Z2, 2)[0]
    gen = cc.class_of(cc.cup(a, a))
    assert not gen.is_zero()
    klass = gen if target == "generator" else \
        cc.class_of(cc.zero_cochain(Z2, 2, 2))
    chi = vf._solve_chi(Z2, 2, a, klass)
    assert cc.class_of(cc.cup(a, chi)) == klass
    assert vf._h2_coordinate(klass, gen) == (target == "generator")


@pytest.mark.parametrize("G, p", [(gr.build_cyclic(2), 2),
                                  (gr.build_cyclic(3), 3)],
                         ids=["Z2", "Z3"])
def test_h2_coordinate_refuses_a_zero_generator(G, p):
    _, (gen,) = cc.h2(G, p)
    zero = cc.class_of(cc.zero_cochain(G, p, 2))
    with pytest.raises(FormDegenerate):
        vf._h2_coordinate(gen, zero)


def test_solve_chi_refuses_an_identically_zero_cup_on_z3():
    # a cup a = 0 in H^2(Z/3, F_3), so no chi reaches the nonzero class
    Z3 = gr.build_cyclic(3)
    a = cc.h1(Z3, 3)[0]
    _, (gen,) = cc.h2(Z3, 3)
    assert cc.class_of(cc.cup(a, a)).is_zero() and not gen.is_zero()
    with pytest.raises(FormDegenerate):
        vf._solve_chi(Z3, 3, a, gen)


def test_massey_strong_sweep():
    recs = vf.massey_strong_z2_sweep(range(3, 7))
    assert all(r["holds"] for r in recs)
    assert [r["patterns"] for r in recs] == [8, 16, 32, 64]


def test_real_check_z2():
    ok, A = vf.real_check_z2(vf.SignPattern((1, 0, 1, 0, 1)))
    assert ok and A is not None
    bad, none = vf.real_check_z2(vf.SignPattern((1, 1, 0)))
    assert not bad and none is None
