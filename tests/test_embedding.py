import itertools

import pytest

from masseylab import cochains as cc
from masseylab import embedding as em
from masseylab import groups as gr
from masseylab import massey as ms
from masseylab import verify as vf
from masseylab.errors import (
    BadParameter,
    KernelNotOrderP,
    NotCentral,
    SizeLimit,
    TargetMismatch,
)
from masseylab.unitri import UniTriMatrix, fiber_quotient, from_rows

Z2 = gr.build_cyclic(2)
Z4 = gr.build_cyclic(4)
V4 = gr.build_vector_group(2, 2)


def identity_problem(G):
    ident = gr.GroupHom(G, G, tuple(G.elements()))
    return em.EmbeddingProblem(ident, ident)


def test_trivial_alpha_solves():
    E = identity_problem(V4)
    sol = em.solve(E)
    assert sol is not None and em.is_solution(E, sol)


def z4_to_z2_problem():
    alpha = gr.GroupHom(Z4, Z2, (0, 1, 0, 1)).check()
    phi = gr.GroupHom(Z2, Z2, (0, 1)).check()
    return em.EmbeddingProblem(alpha, phi)


def test_central_z4_over_z2_obstructed():
    # Z/2 does not lift through Z/4 -> Z/2
    E = z4_to_z2_problem()
    o = em.obstruction(E)
    assert not o.is_zero()
    assert em.solve(E) is None
    rep = em.solvable_iff_obstruction_zero(E)
    assert rep["agree"] and not rep["solvable"]


def test_central_data_errors():
    with pytest.raises(KernelNotOrderP):
        em.central_data(identity_problem(V4).alpha)  # trivial kernel
    # kernel Z/2 inside S3 is not central
    S3 = gr.build_symmetric3()
    quot = gr.GroupHom(S3, Z2, tuple(0 if S3.element_order(x) in (1, 3) else 1
                                     for x in S3.elements())).check()
    # alpha: S3 -> S3/A3 = Z2 has kernel A3 of order 3: central_data rejects
    with pytest.raises((NotCentral, KernelNotOrderP)):
        em.central_data(em.EmbeddingProblem(
            quot, gr.GroupHom(Z2, Z2, (0, 1))).alpha)


def test_problem_refuses_a_phi_outside_the_codomain_of_alpha():
    alpha = gr.GroupHom(Z4, Z2, (0, 1, 0, 1)).check()
    into_z4 = gr.GroupHom(Z2, Z4, (0, 2)).check()
    with pytest.raises(TargetMismatch):
        em.EmbeddingProblem(alpha, into_z4)


def test_problem_refuses_an_alpha_that_is_not_onto():
    inclusion = gr.GroupHom(Z2, Z4, (0, 2)).check()
    with pytest.raises(BadParameter):
        em.EmbeddingProblem(inclusion, inclusion)


def test_rho_step_problem_refuses_a_psi_outside_q_k_m():
    # psi lands in Q_{1,4}(2), not in Q_{2,4}(2)
    psi = next(gr.enumerate_homs(V4, fiber_quotient(1, 4, 2).group))
    with pytest.raises(TargetMismatch):
        em.rho_step_problem(psi, 2, 4, 2)


def test_central_data_checks_every_listed_generator():
    # B = Z2 x S3 lists the central Z2 generator first: the kernel A3 of
    # B -> Z2 x Z2 commutes with it, but not with the transpositions after
    S3 = gr.build_symmetric3()
    B = gr.build_direct_product(Z2, S3)
    sign = [0 if S3.element_order(s) in (1, 3) else 1 for s in S3.elements()]
    alpha = gr.GroupHom(B, V4, tuple(2 * (x // 6) + sign[x % 6]
                                     for x in B.elements())).check()
    kernel = alpha.kernel()
    first = B.generators[0]
    assert len(kernel) == 3
    assert all(B.mul[z][first] == B.mul[first][z] for z in kernel)
    E = em.EmbeddingProblem(alpha, gr.GroupHom(Z2, V4, (0, 1)).check())
    with pytest.raises(NotCentral):
        oracle_central_data(E)
    with pytest.raises(NotCentral):
        em.central_data(alpha)


def test_obstruction_lift_policies_agree():
    q = ms.MasseyQuery(Z2, 2, (cc.h1(Z2, 2)[0],) * 2)
    for psi in gr.enumerate_homs(Z2, fiber_quotient(2, 3, 2).group):
        E = em.rho_step_problem(psi, 2, 3, 2)
        assert em.obstruction(E, "min") == em.obstruction(E, "max")


def test_dwyer_problem_targets():
    q = ms.MasseyQuery(Z2, 2, (cc.h1(Z2, 2)[0], cc.zero_cochain(Z2, 2, 1),
                               cc.h1(Z2, 2)[0]))
    for target in ("U", "U/Z", "U/P"):
        E = em.EmbeddingProblem(q.dwyer_map(target), q.forced_hom)
        assert E.alpha.is_surjective()
    assert em.build_dwyer_problem(q).alpha == q.dwyer_map("U")
    with pytest.raises(BadParameter):
        q.dwyer_map("bogus")


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
    for n in (3, 5, 8):
        for bits in itertools.product((0, 1), repeat=n):
            A = em.find_order2_preimage(bits)
            adjacent = any(bits[i] and bits[i + 1] for i in range(n - 1))
            if adjacent:
                assert A is None
            else:
                assert A is not None
                assert A.mul(A).is_identity()
                assert A.phi() == bits


def old_find_order2_preimage(n, pattern):
    """The replaced search: a 1-based matrix N = A - I whose square is
    checked entry by entry once its span's entries are all chosen."""
    size = n + 1
    pattern = tuple(v % 2 for v in pattern)
    N = [[0] * (size + 1) for _ in range(size + 1)]  # 1-based
    for i in range(1, size):
        N[i][i + 1] = pattern[i - 1]

    def square_entry(i, j):
        return sum(N[i][k] * N[k][j] for k in range(i + 1, j)) % 2

    spans = list(range(2, size))

    def rec(d_idx, pos_idx):
        if d_idx == len(spans):
            return True
        d = spans[d_idx]
        positions = [(i, i + d) for i in range(1, size - d + 1)]
        if pos_idx == len(positions):
            for (i, j) in positions:
                if square_entry(i, j):
                    return False
            return rec(d_idx + 1, 0)
        i, j = positions[pos_idx]
        for v in (0, 1):
            N[i][j] = v
            if rec(d_idx, pos_idx + 1):
                return True
        N[i][j] = 0
        return False

    for i in range(1, size - 1):
        if pattern[i - 1] and pattern[i]:
            return None
    if not rec(0, 0):
        return None
    rows = [[1 if i == j else (N[i][j] if j > i else 0)
             for j in range(1, size + 1)] for i in range(1, size + 1)]
    return from_rows(rows, 2)


def test_find_order2_preimage_matches_the_matrix_search():
    found = 0
    for n in range(10):
        for bits in itertools.product((0, 1), repeat=n):
            A = em.find_order2_preimage(bits)
            assert A == old_find_order2_preimage(n, bits)
            found += A is not None
    # the no-adjacent-ones patterns: Fibonacci numbers F(n + 2), n = 0..9
    assert found == sum((1, 2, 3, 5, 8, 13, 21, 34, 55, 89))
    assert em.find_order2_preimage(()) == UniTriMatrix(1, 2, ())


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


def test_twist_refuses_a_chi_outside_the_centre():
    """psi chi is chi, a homomorphism, so only the centre check refuses
    it: the transposition 1 of S3 does not commute with the generator 2."""
    Z2, S3 = gr.build_cyclic(2), gr.build_symmetric3()
    psi, chi = gr.GroupHom(Z2, S3, (0, 0)), gr.GroupHom(Z2, S3, (0, 1))
    assert chi.is_valid()
    with pytest.raises(NotCentral, match="image 1 of chi .* centralize 2"):
        em.twist(psi, chi)


def test_verify_twisting_exhaustive_v4():
    recs = em.verify_twisting(V4, 2, 3, 2)
    assert len(recs) > 0
    assert all(r["holds"] for r in recs)


# -- the per-surjection caches against the per-call computation they replace --

def oracle_fibers(E):
    out = {a: [] for a in E.A.elements()}
    for b in E.B.elements():
        out[E.alpha(b)].append(b)
    return out


def oracle_central_data(E, ident=None):
    """(kernel, ident) of E's central kernel, recomputed on every call:
    ident defaults to powers of the least non-identity kernel element."""
    kernel = tuple(E.alpha.kernel())
    B = E.B
    for z in kernel:
        for b in B.elements():
            if B.mul[z][b] != B.mul[b][z]:
                raise NotCentral(f"kernel element {z} does not centralize {b}")
    p = len(kernel)
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise KernelNotOrderP(f"kernel order {p} is not prime")
    if ident is None:
        gen = min(z for z in kernel if z != 0)
        ident = {}
        x, c = 0, 0
        for _ in range(p):
            ident[x] = c
            x = B.mul[x][gen]
            c += 1
    else:
        ident = {z: ident(z) for z in kernel}
    assert sorted(ident.values()) == list(range(p)) and ident[0] == 0
    return kernel, ident


def oracle_obstruction(E, central=None, lift_policy="min"):
    kernel, ident = central or oracle_central_data(E)
    G, B, p = E.G, E.B, len(kernel)
    fibers = oracle_fibers(E)
    if lift_policy == "min":
        pick = {a: min(bs) for a, bs in fibers.items() if bs}
    elif lift_policy == "max":
        pick = {a: max(bs) for a, bs in fibers.items() if bs}
    else:
        raise BadParameter(f"unknown lift policy {lift_policy!r}")
    lift = [pick[E.phi(g)] for g in G.elements()]
    lift[0] = 0
    vals = []
    for x in range(1, G.order):
        for y in range(1, G.order):
            bxy = lift[G.mul[x][y]]
            prod = B.mul[lift[x]][lift[y]]
            c = B.mul[bxy][B.inv[prod]]
            vals.append(ident[c])
    return cc.class_of(cc.cochain(G, p, 2, vals))


def assert_cached_path_matches_oracle(E, ident=None):
    """The cached kernel data and obstructions equal the oracle's, whose
    identification is `ident` (a function on kernel elements) when given."""
    assert gr.fibers(E.alpha) == \
        tuple(tuple(bs) for bs in oracle_fibers(E).values())
    kernel, coord = em.central_data(E.alpha)
    slow = oracle_central_data(E, ident)
    assert (kernel, coord) == slow
    for policy in ("min", "max"):
        fast, oracle = em.obstruction(E, lift_policy=policy), \
            oracle_obstruction(E, slow, policy)
        # the cocycles too, since the class is the same under both sections
        assert fast == oracle
        assert fast.representative.values == oracle.representative.values


def test_cached_obstructions_match_on_every_twisting_pair():
    k, m, p = 2, 4, 2
    tgt, src = fiber_quotient(k, m, p), fiber_quotient(k - 1, m, p)
    chis = [chars[0] for chars in ms.h1_tuples(V4, p, 1)]
    pairs = 0
    for psi in gr.enumerate_homs(V4, tgt.group):
        for chi in chis:
            psix = em.twist(psi, em.embed_char_in_rho_kernel(tgt, chi))
            assert psix.is_valid()
            for f in (psi, psix):
                assert_cached_path_matches_oracle(
                    em.rho_step_problem(f, k, m, p), ident=src.iota)
            pairs += 1
    assert pairs == 1216


@pytest.mark.parametrize("G,m,p", [(Z2, 4, 2), (V4, 4, 2), (Z2, 5, 2),
                                   (gr.build_cyclic(3), 4, 3)])
def test_cached_obstructions_match_on_the_tower_audit_steps(G, m, p):
    tower = vf._tower(m - 1, p)
    alphas = tower.alphas + [fiber_quotient(k, m, p).rho_hom()
                             for k in range(1, m - 1)]
    for alpha in alphas:
        for phi in gr.enumerate_homs(G, alpha.codomain):
            assert_cached_path_matches_oracle(em.EmbeddingProblem(alpha,
                                                                  phi))


def test_problems_on_one_surjection_share_its_fibers():
    alpha = fiber_quotient(1, 4, 2).rho_hom()
    E1, E2 = (em.EmbeddingProblem(alpha, phi)
              for phi in list(gr.enumerate_homs(Z2, alpha.codomain))[:2])
    assert gr.fibers(E1.alpha) is gr.fibers(E2.alpha)
    assert em.central_data(E1.alpha)[1] is em.central_data(E2.alpha)[1]


def test_failed_checks_raise_again_on_every_call():
    S3 = gr.build_symmetric3()
    sign = gr.GroupHom(S3, Z2, tuple(0 if S3.element_order(x) in (1, 3)
                                     else 1 for x in S3.elements())).check()
    Z1 = gr.build_cyclic(1)
    to_trivial = gr.GroupHom(V4, Z1, (0,) * 4).check()
    cases = [
        (em.EmbeddingProblem(sign, gr.GroupHom(Z2, Z2, (0, 1))), NotCentral),
        (em.EmbeddingProblem(to_trivial, gr.GroupHom(Z1, Z1, (0,))),
         KernelNotOrderP),
    ]
    for E, error in cases:
        for _ in range(2):
            with pytest.raises(error):
                em.central_data(E.alpha)
            with pytest.raises(error):
                em.obstruction(E)
    E = z4_to_z2_problem()
    for _ in range(2):
        with pytest.raises(BadParameter):
            em.obstruction(E, lift_policy="bogus")


# rho_{k,m} for every k at p = 2 with m = 3..5 and at p = 3 with m = 3..4,
# and the two at p = 5 with m <= 4 whose Q_{k,m} fits the container limit.
RHO_KERNELS = [(k, m, 2) for m in (3, 4, 5) for k in range(1, m - 1)] + \
    [(k, m, 3) for m in (3, 4) for k in range(1, m - 1)] + \
    [(1, 3, 5), (2, 4, 5)]


@pytest.mark.parametrize("k,m,p", RHO_KERNELS)
def test_central_data_on_a_rho_kernel_is_iota(k, m, p):
    fq = fiber_quotient(k, m, p)
    kernel, coord = em.central_data(fq.rho_hom())
    assert len(kernel) == p
    assert coord == {z: fq.iota(z) for z in kernel}


def test_verify_twisting_obstructs_each_hom_once(monkeypatch):
    k, m, p = 2, 4, 2
    tgt = fiber_quotient(k, m, p)
    chis = cc.characters(V4, p)
    homs = list(gr.enumerate_homs(V4, tgt.group))
    # the per-pair computation the sweep's caches replace
    expected = []
    for psi in homs:
        a_prev = em.chars_of_quotient_hom(psi, tgt)[k - 2]
        for chi in chis:
            psix = em.twist(psi, em.embed_char_in_rho_kernel(tgt, chi))
            expected.append({
                "psi": psi.gen_images(),
                "chi": chi.values,
                "holds": em.rho_step_obstruction(psix, k, m, p) ==
                em.rho_step_obstruction(psi, k, m, p) +
                cc.class_of(cc.cup(a_prev, chi)),
            })
    calls = []
    obstruction = em.obstruction

    def counted(E, *args):
        calls.append(E.phi)
        return obstruction(E, *args)
    monkeypatch.setattr(em, "obstruction", counted)
    assert em.verify_twisting(V4, p, m - 1, k) == expected
    assert len(homs) == len(set(calls)) == len(calls) == 304
    assert set(calls) == set(homs)


def test_verify_twisting_bad_k():
    with pytest.raises(BadParameter):
        em.verify_twisting(V4, 2, 3, 5)
