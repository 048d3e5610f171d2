import pytest

from masseylab import unitri as ut
from masseylab.errors import (
    BadParameter,
    IndexOutOfRange,
    NotInKernel,
    ParseError,
    SizeLimit,
)


def test_matrix_mul_inverse_order():
    U = ut.unitri_group(4, 3)
    A = U.elementary(1, 2).mul(U.elementary(2, 3, 2))
    I = ut.identity_matrix(4, 3)
    assert A.mul(A.inverse()) == I
    B = U.elementary(1, 2)
    assert B.order() == 3


def test_matrix_literal_roundtrip():
    A = ut.unitri_group(3, 2).elementary(1, 3)
    text = ut.format_matrix_literal(A)
    assert ut.parse_matrix_literal(text) == A
    with pytest.raises(ParseError):
        ut.parse_matrix_literal("2 2 / 1 1 / 1 1")  # bad lower triangle


def test_group_orders():
    assert ut.unitri_group(3, 2).order == 8
    assert ut.unitri_group(4, 2).order == 64
    assert ut.unitri_group(4, 3).order == 729
    assert not ut.unitri_group(6, 2).materializable()
    with pytest.raises(SizeLimit):
        ut.unitri_group(6, 2).elements()


def test_u3_2_is_dihedral():
    G = ut.unitri_group(3, 2).as_finite_group()
    assert G.order == 8
    assert not G.is_abelian()
    orders = sorted(G.element_order(x) for x in G.elements())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]  # D4 profile


def test_phi_hom():
    U = ut.unitri_group(4, 2)
    phi = U.phi_hom()
    assert phi.is_valid() and phi.is_surjective()
    assert len(phi.kernel()) == U.order // 2 ** 3


def test_named_subgroups_z_vs_p():
    U4 = ut.unitri_group(4, 2)
    Z4s = set(ut.named_subgroup(U4, "Z").element_indices())
    P4s = set(ut.named_subgroup(U4, "P").element_indices())
    assert len(Z4s) == 2 and Z4s == P4s  # they coincide at m = 4
    U5 = ut.unitri_group(5, 2)
    Z5s = set(ut.named_subgroup(U5, "Z").element_indices())
    P5s = set(ut.named_subgroup(U5, "P").element_indices())
    assert len(Z5s) == 2 and len(P5s) == 8 and Z5s < P5s


def test_m_subgroup_orders():
    U = ut.unitri_group(4, 2)
    assert ut.named_subgroup(U, "M", 1).order() == 1
    assert ut.named_subgroup(U, "M", 2).order() == 2
    assert ut.named_subgroup(U, "M", 3).order() == 4


def test_zeta_kappa_targets():
    (qz, zeta), (qp, kappa) = ut.zeta_kappa_targets(3, 2)
    assert qz.group.order == 32 and qp.group.order == 32
    assert zeta.is_valid() and kappa.is_valid()
    # both factor the superdiagonal map
    U = ut.unitri_group(4, 2)
    phi = U.phi_hom()
    for x in U.as_finite_group().elements():
        assert zeta(qz.coset_of[x]) == phi(x)
        assert kappa(qp.coset_of[x]) == phi(x)


def test_fiber_quotient_orders_and_iota():
    for p in (2, 3):
        for k in (1, 2, 3):
            fq = ut.fiber_quotient(k, 4, p)
            U = ut.unitri_group(4, p)
            M = ut.named_subgroup(U, "M", k)
            assert fq.order == U.order // M.order()
        fq = ut.fiber_quotient(2, 4, p)
        ker = fq.kernel_of_rho()
        assert len(ker) == p
        for x in ker:
            for y in ker:
                assert fq.iota(fq.group.mul[x][y]) == \
                    (fq.iota(x) + fq.iota(y)) % p
        with pytest.raises(NotInKernel):
            fq.iota(next(i for i in range(fq.order) if i not in set(ker)))


def test_fiber_quotient_entry_access():
    fq = ut.fiber_quotient(2, 4, 2)
    proj = fq.parent_quotient_hom()
    U = ut.unitri_group(4, 2)
    A = U.elementary(1, 2).mul(U.elementary(2, 4))
    idx = proj(U.index_of(A))
    assert fq.entry_of(idx, 1, 2) == 1
    assert fq.entry_of(idx, 2, 4) == 1
    with pytest.raises(IndexOutOfRange):
        fq.entry_of(idx, 1, 4)  # not constant on cosets of M_{2,4}


def test_drop_to():
    fq = ut.fiber_quotient(3, 5, 2)
    tgt, lam = fq.drop_to(2)
    assert tgt.k == 2 and tgt.m == 4
    assert lam.is_valid()
    with pytest.raises(BadParameter):
        fq.drop_to(3)


def test_central_series():
    chain, positions = ut.central_series_ker_phi(3, 2)
    assert [len(c) for c in chain] == [1, 2, 4, 8]
    assert positions[0] == (1, 4)  # largest span adjoined first
    chain4, _ = ut.central_series_ker_phi(4, 2)
    assert len(chain4) - 1 == 6


def _same_hom(a, b):
    return (a.domain.mul, a.codomain.mul, a.images) == \
        (b.domain.mul, b.codomain.mul, b.images)


def test_derived_maps_are_memoised_and_match_a_fresh_build():
    for n, p in ((2, 2), (2, 3)):
        cached = ut.zeta_kappa_targets(n, p)
        assert ut.zeta_kappa_targets(n, p) is cached
        fresh = ut.zeta_kappa_targets.__wrapped__(n, p)
        for (quot, hom), (fresh_quot, fresh_hom) in zip(cached, fresh):
            assert quot.group.mul == fresh_quot.group.mul
            assert quot.coset_of == fresh_quot.coset_of
            assert _same_hom(hom, fresh_hom)
    fq = ut.fiber_quotient(2, 4, 2)
    assert ut.fiber_quotient(2, 4, 2) is fq
    assert fq.rho_hom() is fq.rho_hom()
    assert _same_hom(fq.rho_hom(), ut.FiberQuotient.rho_hom.__wrapped__(fq))
    U = ut.unitri_group(4, 2)
    assert U.phi_hom() is U.phi_hom()
    assert _same_hom(U.phi_hom(), ut.UniTriGroup.phi_hom.__wrapped__(U))
