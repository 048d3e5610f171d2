import itertools

import pytest

from masseylab import cochains as cc
from masseylab import embedding as em
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
from masseylab.unitri import UniTriGroup, central_series_ker_phi, \
    unitri_group


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
                assert A.mul(A).is_identity()
                assert A.phi() == bits


def old_block_lift(pattern):
    """The replaced block lift: the product of I + e_{i,i+1} over the ones
    of the pattern."""
    U = unitri_group(pattern.n + 1, 2)
    A = U.matrix_of(0)
    for i, b in enumerate(pattern.bits, start=1):
        if b:
            A = A.mul(U.matrix_of(U.elementary_index(i, i + 1)))
    return A


def test_block_lift_matches_the_elementary_product():
    for n in range(1, 9):
        for bits in itertools.product((0, 1), repeat=n):
            p = vf.SignPattern(bits)
            if not p.has_adjacent_ones():
                assert vf.block_lift(p) == old_block_lift(p)


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
    sp = vf.splice_lifts(h, h, U2, U2)
    U4 = unitri_group(4, 2)
    assert U4.matrix_of(sp(1)) == vf.block_lift(vf.SignPattern((1, 0, 1)))


def test_splice_hom_law_v4():
    V4 = gr.build_vector_group(2, 2)
    U2 = unitri_group(2, 2)
    G2 = U2.as_finite_group()
    left = gr.GroupHom(V4, G2, (0, 1, 0, 1)).check()
    right = gr.GroupHom(V4, G2, (0, 0, 1, 1)).check()
    sp = vf.splice_lifts(left, right, U2, U2)  # .check() raises on failure
    U4 = unitri_group(4, 2)
    for g in V4.elements():
        assert U4.matrix_of(sp(g)).phi() == \
            (U2.matrix_of(left(g)).phi() + (0,) + U2.matrix_of(right(g)).phi())


def test_splice_mismatch():
    Z2 = gr.build_cyclic(2)
    U2, U2_3 = unitri_group(2, 2), unitri_group(2, 3)
    h = gr.GroupHom(Z2, Z2, (0, 1))
    with pytest.raises(SizeMismatch):
        vf.splice_lifts(h, h, U2, U2)  # the codomain is not U_2(2)'s table
    into_u2 = gr.GroupHom(Z2, U2.as_finite_group(), (0, 1))
    trivial = gr.GroupHom(Z2, U2_3.as_finite_group(), (0, 0))
    with pytest.raises(SizeMismatch):
        vf.splice_lifts(into_u2, trivial, U2, U2_3)  # the primes differ


@pytest.mark.parametrize("G,p", [
    (gr.build_cyclic(3), 2),
    (gr.build_cyclic(5), 2),
])
def test_easy_vanishing_drill(G, p):
    rec = vf.easy_vanishing_drill(G, p, 3)
    assert rec["verified"] and rec["obstructions_zero"]
    assert rec["mode"] == "filtration"
    assert rec["steps"] == 3


def coset_quotient_tower(n, p):
    """The tower as a CosetQuotient of U_{n+1}(p) at every level, the
    bottom U/N_0 = U/{1} included: groups, connecting maps, the top's
    representatives and the bottom's."""
    U = unitri_group(n + 1, p)
    chain, _ = central_series_ker_phi(n)
    quots = [gr.CosetQuotient(U.as_finite_group(), U.vanishing_on(zero))
             for zero in chain]
    alphas = [gr.GroupHom(lo.group, hi.group,
                          tuple(hi.coset_of[r] for r in lo.reps))
              for lo, hi in zip(quots, quots[1:])]
    return [q.group for q in quots], alphas, quots[-1].reps, quots[0].reps


def lift_down(alphas, psi):
    """Solve each central step from the top level down; the lift at each
    level, None from the first step without a solution on."""
    lifts = []
    for t in range(len(alphas) - 1, -1, -1):
        if psi is not None:
            psi = em.solve(em.EmbeddingProblem(alphas[t], psi))
        lifts.append(psi)
    return lifts


@pytest.mark.parametrize("n, p", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_tower_starts_at_u_and_matches_the_coset_quotient_tower(n, p):
    tower = vf._FiltrationTower(n, p)
    groups, alphas, top_reps, bottom_reps = coset_quotient_tower(n, p)
    assert tower.groups[0] is tower.U.as_finite_group()
    assert [G.mul for G in tower.groups] == [G.mul for G in groups]
    assert [a.images for a in tower.alphas] == [a.images for a in alphas]
    # the top keeps the superdiagonal in order, so its elements are those
    # of (Z/p)^n
    phi = tower.U.phi_hom()
    assert [phi(r) for r in top_reps] == list(range(p ** n))
    G = gr.build_vector_group(p, 2) if p == 2 else gr.build_cyclic(p)
    lifted = 0
    for psi in gr.enumerate_homs(G, tower.groups[-1]):
        new = lift_down(tower.alphas, psi)
        old = lift_down(alphas, gr.GroupHom(G, groups[-1], psi.images))
        assert [h and h.images for h in new] == [h and h.images for h in old]
        if old[-1] is not None:
            # the coset tower's final lift, read in U through its
            # representatives
            assert new[-1].codomain is tower.U.as_finite_group()
            assert new[-1].images == tuple(bottom_reps[x]
                                           for x in old[-1].images)
            lifted += any(new[-1].images)
    assert lifted


def test_tower_refuses_n_below_2():
    """Ker(phi_2) is trivial, so at n = 1 there is no quotient to start
    the tower from."""
    with pytest.raises(BadParameter, match="needs n >= 2, got n = 1"):
        vf._FiltrationTower(1, 2)


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


def test_filtration_length_report(monkeypatch):
    """The series is named by zero positions, so its length is read even
    where U_{n+1}(2) has no table: |U_6(2)| = 2^15 is past the container
    limit already."""
    def refuse(U):
        raise AssertionError(f"listed the elements of U_{U.n}({U.p})")
    for name in ("elements", "as_finite_group"):
        monkeypatch.setattr(UniTriGroup, name, refuse)
    recs = vf.filtration_length_report([2, 3, 4, 5, 6, 7], 2)
    assert [r["length"] for r in recs] == [1, 3, 6, 10, 15, 21]
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
    assert cc.h2_coordinate(klass.representative) == (target == "generator")


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
