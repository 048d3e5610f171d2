import pytest

from masseylab import cochains as cc
from masseylab import embedding as em
from masseylab import groups as gr
from masseylab import massey as ms
from masseylab.errors import (
    BadParameter,
    KernelNotOrderP,
    NotCentral,
    SizeLimit,
    TargetMismatch,
)
from masseylab.unitri import fiber_quotient, unitri_group

Z2 = gr.build_cyclic(2)
Z4 = gr.build_cyclic(4)
V4 = gr.build_vector_group(2, 2)


def identity_problem(G):
    ident = gr.GroupHom(G, G, tuple(G.elements()))
    return em.EmbeddingProblem(G, G, G, ident, ident).validate()


def test_trivial_alpha_solves():
    E = identity_problem(V4)
    sol = em.solve(E)
    assert sol is not None and em.is_solution(E, sol)


def z4_to_z2_problem():
    alpha = gr.GroupHom(Z4, Z2, (0, 1, 0, 1)).check()
    phi = gr.GroupHom(Z2, Z2, (0, 1)).check()
    return em.EmbeddingProblem(Z2, Z2, Z4, alpha, phi).validate()


def test_central_z4_over_z2_obstructed():
    # Z/2 does not lift through Z/4 -> Z/2
    E = z4_to_z2_problem()
    data = em.central_data(E)
    o = em.obstruction(E, data)
    assert not o.is_zero()
    assert em.solve(E) is None
    rep = em.solvable_iff_obstruction_zero(E, data)
    assert rep["agree"] and not rep["solvable"]


def test_central_data_errors():
    with pytest.raises(KernelNotOrderP):
        em.central_data(identity_problem(V4))  # trivial kernel
    # kernel Z/2 inside S3 is not central
    S3 = gr.build_symmetric3()
    quot = gr.GroupHom(S3, Z2, tuple(0 if S3.element_order(x) in (1, 3) else 1
                                     for x in S3.elements())).check()
    # alpha: S3 -> S3/A3 = Z2 has kernel A3 of order 3: central_data rejects
    with pytest.raises((NotCentral, KernelNotOrderP)):
        em.central_data(em.EmbeddingProblem(
            Z2, Z2, S3, quot, gr.GroupHom(Z2, Z2, (0, 1))).validate())


def test_obstruction_lift_policies_agree():
    q = ms.MasseyQuery(Z2, 2, (cc.h1(Z2, 2)[0],) * 2)
    fq1 = fiber_quotient(1, 3, 2)
    for psi in gr.enumerate_homs(Z2, fiber_quotient(2, 3, 2).group):
        E = em.rho_step_problem(psi, 2, 3, 2)
        data = em.central_data(E, ident=fq1.iota)
        assert em.obstruction(E, data, "min") == em.obstruction(E, data, "max")


def test_dwyer_problem_targets():
    q = ms.MasseyQuery(Z2, 2, (cc.h1(Z2, 2)[0], cc.zero_cochain(Z2, 2, 1),
                               cc.h1(Z2, 2)[0]))
    for target in ("U", "U/Z", "U/P"):
        E = em.build_dwyer_problem(q, target)
        assert E.alpha.is_surjective()
    with pytest.raises(BadParameter):
        em.build_dwyer_problem(q, "bogus")


def test_dwyer_solvable_small_vs_pattern():
    a = cc.h1(Z2, 2)[0]
    zero = cc.zero_cochain(Z2, 2, 1)
    q_good = ms.MasseyQuery(Z2, 2, (a, zero, a))
    q_bad = ms.MasseyQuery(Z2, 2, (a, a, zero))
    assert em.dwyer_solvable(q_good)
    assert not em.dwyer_solvable(q_bad)
    # non-materializable range handled by the matrix search
    q_big = ms.MasseyQuery(Z2, 2, (a, zero) * 3)  # n = 6
    assert em.dwyer_solvable(q_big)
    q_big_bad = ms.MasseyQuery(Z2, 2, (a, a) + (zero,) * 4)
    assert not em.dwyer_solvable(q_big_bad)


def test_dwyer_solvable_size_limit():
    a, b = cc.h1(V4, 2)
    with pytest.raises(SizeLimit):
        em.dwyer_solvable(ms.MasseyQuery(V4, 2, (a, b) * 3))


def test_find_order2_preimage_properties():
    from masseylab.unitri import identity_matrix
    import itertools
    for n in (3, 5, 8):
        for bits in itertools.product((0, 1), repeat=n):
            A = em.find_order2_preimage(n, bits)
            adjacent = any(bits[i] and bits[i + 1] for i in range(n - 1))
            if adjacent:
                assert A is None
            else:
                assert A is not None
                assert A.mul(A) == identity_matrix(n + 1, 2)
                assert A.phi() == bits


def test_is_real_frozen():
    a = cc.h1(Z2, 2)[0]
    E_bad = em.build_dwyer_problem(ms.MasseyQuery(Z2, 2, (a, a)))
    real, witness = em.is_real(E_bad)
    assert not real and witness == 1
    zero = cc.zero_cochain(Z2, 2, 1)
    E_good = em.build_dwyer_problem(ms.MasseyQuery(Z2, 2, (a, zero)))
    assert em.is_real(E_good) == (True, None)
    # no involutions -> vacuously real
    Z3 = gr.build_cyclic(3)
    assert em.is_real(identity_problem(Z3)) == (True, None)


def test_twist_trivial_and_mismatch():
    fq = fiber_quotient(2, 4, 2)
    a, b = cc.h1(V4, 2)
    psi = next(gr.enumerate_homs(V4, fq.group))
    chi0 = em.embed_char_in_rho_kernel(fq, cc.zero_cochain(V4, 2, 1))
    assert em.twist(psi, chi0).images == psi.images
    other = gr.GroupHom(V4, V4, tuple(V4.elements()))
    with pytest.raises(TargetMismatch):
        em.twist(psi, other)


def test_verify_twisting_exhaustive_v4():
    recs = em.verify_twisting(V4, 2, 3, 2)
    assert len(recs) > 0
    assert all(r["holds"] for r in recs)


def test_verify_twisting_bad_k():
    with pytest.raises(BadParameter):
        em.verify_twisting(V4, 2, 3, 5)
