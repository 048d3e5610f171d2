import itertools
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as o

from masseylab import unitri as ut
from masseylab.errors import (
    BadParameter,
    NotInKernel,
    SizeLimit,
)


def test_matrices_and_subgroups_built_twice_are_equal_values():
    for make in (lambda: ut.UniTriMatrix(3, 2, (1, 0, 1)),
                 lambda: ut.zero_positions(4, "M", 2)):
        x, y = make(), make()
        assert x is not y and x == y and hash(x) == hash(y)
    assert ut.UniTriMatrix(3, 2, (1, 0, 1)) != ut.UniTriMatrix(3, 3, (1, 0, 1))
    assert ut.zero_positions(4, "M", 2) != ut.zero_positions(4, "M", 1)


@pytest.mark.parametrize("kind,k", [("M", None), ("M", 0), ("M", 4),
                                    ("Z", 1), ("P", 2), ("Q", None)])
def test_zero_positions_refuses_a_bad_subgroup(kind, k):
    """M needs 1 <= k <= m - 1, Z and P take no k, and no other kind is
    named."""
    with pytest.raises(BadParameter):
        ut.zero_positions(4, kind, k)


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


def members(m, p, kind, k=None):
    """The subgroup of U_m(p) named by its zero positions, as a set."""
    U = ut.unitri_group(m, p)
    return set(U.vanishing_on(ut.zero_positions(m, kind, k)))


def test_named_subgroups_z_vs_p():
    Z4s, P4s = members(4, 2, "Z"), members(4, 2, "P")
    assert len(Z4s) == 2 and Z4s == P4s  # they coincide at m = 4
    Z5s, P5s = members(5, 2, "Z"), members(5, 2, "P")
    assert len(Z5s) == 2 and len(P5s) == 8 and Z5s < P5s


def test_m_subgroup_orders():
    assert len(members(4, 2, "M", 1)) == 1
    assert len(members(4, 2, "M", 2)) == 2
    assert len(members(4, 2, "M", 3)) == 4


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
            assert fq.order == U.order // len(members(4, p, "M", k))
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
    A = elementary(4, 2, 1, 2).mul(elementary(4, 2, 2, 4))
    idx = proj(ut.vec_to_index(2, A.entries))
    assert fq.parent.entry_of(fq.lift(idx), 1, 2) == 1
    assert fq.parent.entry_of(fq.lift(idx), 2, 4) == 1


def test_drop_to():
    fq = ut.fiber_quotient(3, 5, 2)
    tgt, lam = fq.drop_to(2)
    assert tgt.k == 2 and tgt.m == 4
    assert lam.is_valid()
    with pytest.raises(BadParameter):
        fq.drop_to(3)


def test_central_series():
    chain, positions = ut.central_series_ker_phi(3)
    U = ut.unitri_group(4, 2)
    assert [len(U.vanishing_on(zero)) for zero in chain] == [1, 2, 4, 8]
    assert positions[0] == (1, 4)  # largest span adjoined first
    chain4, _ = ut.central_series_ker_phi(4)
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


# -- the index core against the matrix-object routes it replaced --------------

def positions(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def old_elements(n, p):
    """Elements as matrix objects, in index order."""
    return [ut.UniTriMatrix(n, p, e)
            for e in itertools.product(range(p), repeat=n * (n - 1) // 2)]


def elementary(n, p, i, j, v=1):
    """I + v e_ij, through full integer rows."""
    rows = np.eye(n, dtype=np.int64)
    rows[i - 1, j - 1] = v
    return ut.from_rows(rows.tolist(), p)


@pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (4, 2), (3, 5)])
def test_table_and_indices_match_the_matrix_route(n, p):
    """The table's cells are ints, and each index names the matrix, the
    entries and the elementary matrices that `old_elements` numbers."""
    U = ut.unitri_group(n, p)
    G = U.as_finite_group()
    assert all(type(c) is int for row in G.mul for c in row)
    for i, mat in enumerate(old_elements(n, p)):
        assert U.matrix_of(i) == mat and ut.vec_to_index(p, mat.entries) == i
        for (a, b) in positions(n):
            e = U.entry_of(i, a, b)
            assert type(e) is int and e == mat.entry(a, b)
    for (a, b) in positions(n):
        for v in range(-1, p + 1):
            assert U.elementary_index(a, b, v) == \
                ut.vec_to_index(p, elementary(n, p, a, b, v).entries)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(4, 3), (5, 2)]), st.data())
def test_table_cells_match_matrix_products(size, data):
    n, p = size
    U = ut.unitri_group(n, p)
    x, y = (data.draw(st.integers(0, U.order - 1)) for _ in range(2))
    A, B = U.matrix_of(x), U.matrix_of(y)
    mul = U.as_finite_group().mul
    assert mul[x][y] == ut.vec_to_index(p, A.mul(B).entries) == \
        o.unitri_table(n, p)[x][y]
    assert type(mul[x]) is array and mul[x].itemsize == 2


def test_u5_2_table_rows_are_2_byte_arrays():
    """A 1024-element table keeps each cell in 2 bytes: about 2 MB, where
    tuples of pointers took 8 MB."""
    mul = ut.unitri_group(5, 2).as_finite_group().mul
    assert len(mul) == 1024
    assert all(type(row) is array and row.typecode == "H" for row in mul)
    assert sum(sys.getsizeof(row) for row in mul) <= 2_200_000


def old_contains(kind, k, mat):
    """Entry-wise membership in Z, P and M(k)."""
    m = mat.n
    if kind == "Z":
        return all(mat.entry(i, j) == 0 for (i, j) in positions(m)
                   if (i, j) != (1, m))
    if kind == "P":
        return all(mat.entry(i, j) == 0 for (i, j) in positions(m)
                   if j - i in (1, 2))
    return all(mat.entry(i, j) == 0 for (i, j) in positions(m)
               if j <= m - 1 or (j == m and k <= i <= m - 1))


@pytest.mark.parametrize("n,p", [(3, 2), (4, 2), (5, 2), (4, 3)])
def test_named_subgroups_match_entrywise_membership(n, p):
    U = ut.unitri_group(n, p)
    elems = old_elements(n, p)
    subgroups = [("Z", None), ("P", None)] + [("M", k) for k in range(1, n)]
    for kind, k in subgroups:
        zero = ut.zero_positions(n, kind, k)
        want = [i for i, mat in enumerate(elems) if old_contains(kind, k, mat)]
        assert U.vanishing_on(zero) == want
        assert [i for i in range(U.order) if U.read(i, zero) == 0] == want


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_central_series_matches_entrywise_support(n, p):
    chain, order = ut.central_series_ker_phi(n)
    U = ut.unitri_group(n + 1, p)
    elems = old_elements(n + 1, p)
    assert order == [(i, j) for span in range(n, 1, -1)
                     for (i, j) in positions(n + 1) if j - i == span]
    for t, zero in enumerate(chain):
        allowed = set(order[:t])
        want = {x for x, mat in enumerate(elems)
                if all(mat.entry(i, j) == 0 for (i, j) in positions(n + 1)
                       if (i, j) not in allowed)}
        assert set(U.vanishing_on(zero)) == want


FIBERS = [(k, m, p) for p, ms in ((2, (2, 3, 4, 5)), (3, (2, 3, 4)), (5, (3,)))
          for m in ms for k in range(1, m)]


@pytest.mark.parametrize("k,m,p", FIBERS)
def test_kept_digits_number_the_fiber_pairs(k, m, p):
    fq, U = ut.fiber_quotient(k, m, p), ut.unitri_group(m, p)
    on_m = [t for t in range(U.num_entries)
            if t not in ut.zero_positions(m, "M", k)]
    pairs = o.fiber_pairs(k, m, p)
    assert fq.order == len(pairs)
    for x, (a, b) in enumerate(pairs):
        y = fq.lift(x)
        assert fq.from_parent(y) == x
        assert U.read(y, on_m) == 0
        assert (U.upper_left(y, m - 1), U.lower_right(y, m + 1 - k)) == (a, b)
        assert fq.index_of(a, b) == x
    if m - k >= 2:
        # b has entry 1 at (1, 2), inside the overlap, where a = I has 0
        b = ut.unitri_group(m + 1 - k, p).elementary_index(1, 2)
        with pytest.raises(BadParameter, match="differ on the overlap"):
            fq.index_of(0, b)


def assert_same_table(G, H):
    assert tuple(map(tuple, G.mul)) == tuple(map(tuple, H.mul))
    assert G.inv == H.inv


@pytest.mark.parametrize("k,m,p", FIBERS)
def test_position_quotient_matches_the_fiber_quotient(k, m, p):
    fq = ut.fiber_quotient(k, m, p)
    assert_same_table(ut.position_quotient(m, p, fq.kept, "Q"), fq.group)


def kept_lift(U, kept, x):
    """The element of U that is x's digits at kept and 0 elsewhere."""
    digits = ut.index_to_vec(U.p, len(kept), x)
    return sum(d * U.weights[t] for d, t in zip(digits, kept))


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3),
                                 (2, 5)])
def test_position_quotient_matches_u_mod_z_and_u_mod_p(n, p):
    U = ut.unitri_group(n + 1, p)
    for kind, (quot, _) in zip("ZP", ut.zeta_kappa_targets(n, p)):
        kept = ut.zero_positions(n + 1, kind)
        G = ut.position_quotient(n + 1, p, kept, kind)
        assert_same_table(G, quot.group)
        assert quot.reps == tuple(kept_lift(U, kept, x)
                                  for x in G.elements())


@pytest.mark.parametrize("kept", [[(1, 3)], [(1, 2), (1, 3)],
                                  [(2, 3), (1, 3)]])
def test_position_quotient_refuses_positions_that_are_not_closed(kept):
    # the product rule at (1, 3) reads (1, 2) and (2, 3)
    kept = [ut._pos_index(3)[pos] for pos in kept]
    with pytest.raises(BadParameter, match="reads other positions"):
        ut.position_quotient(3, 2, kept, "U3(2)/?")


def test_fiber_quotient_refuses_its_order_past_the_bound():
    with pytest.raises(SizeLimit, match=r"^\|Q_\{2,7\}\(2\)\| = 1048576$"):
        ut.fiber_quotient(2, 7, 2)


@pytest.mark.parametrize("k,m,p", [(2, 4, 2), (1, 4, 2), (2, 4, 3)])
def test_fiber_quotient_matches_the_matrix_pairs(k, m, p):
    """The quotient map from U_m(p), rho, iota and every entry of each
    coset's lift agree with the reference pairs of block matrices."""
    fq = ut.fiber_quotient(k, m, p)
    pairs = o.fiber_pairs(k, m, p)
    left, right = o.unitri_matrices(m - 1, p), o.unitri_matrices(m + 1 - k, p)
    assert fq.parent_quotient_hom().images == o.fiber_projection(k, m, p)
    rho = {pair: x for x, pair in enumerate(o.fiber_pairs(k + 1, m, p))}
    assert fq.rho_hom().images == tuple(
        rho[a, o.matrix_index(right[b][1:, 1:], p)] for a, b in pairs)
    for x in fq.kernel_of_rho():
        a, b = pairs[x]
        assert a == 0 and fq.iota(x) == right[b][0, m - k]
        assert fq.iota_inv(fq.iota(x)) == x
    for x, (a, b) in enumerate(pairs):
        for (i, j) in positions(m):
            if j < m or i >= k:
                want = left[a][i - 1, j - 1] if j < m else \
                    right[b][i - k, j - k]
                assert fq.parent.entry_of(fq.lift(x), i, j) == want


def test_drop_to_matches_the_lower_right_blocks():
    fq = ut.fiber_quotient(3, 5, 2)
    tgt, lam = fq.drop_to(2)
    left = o.unitri_matrices(4, 2)
    dropped = o.fiber_pairs(2, 4, 2)
    for x, (a, b) in enumerate(o.fiber_pairs(3, 5, 2)):
        assert dropped[lam(x)] == (o.matrix_index(left[a][1:, 1:], 2), b)


# -- the tables against their references in tests/oracles.py -------------------

def assert_group_is(G, table, gens):
    assert np.array_equal(o.array_of(G.mul), table)
    assert G.inv == o.inverses(table)
    assert G.generators == gens
    assert all(type(row) is array and row.typecode == "H" for row in G.mul)


@pytest.mark.parametrize("n,p", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3),
                                 (3, 5)])
def test_unitri_closure_matches_the_per_row_table(n, p):
    """The table is the reference's matrix products, one row at a time,
    and the generators are the I + e_{i,i+1}."""
    U = ut.unitri_group(n, p)
    assert_group_is(U.as_finite_group(), o.unitri_table(n, p),
                    o.superdiagonal(n, p))


@pytest.mark.parametrize("k,m,p", [(1, 3, 2), (2, 4, 2), (1, 4, 2),
                                   (1, 4, 3), (2, 4, 3), (2, 5, 2),
                                   (3, 5, 2)])
def test_fiber_closure_matches_the_all_pairs_table(k, m, p):
    """The table is the reference's pairs multiplied block by block, and
    the generators are the images of the I + e_{i,i+1} of U_m(p)."""
    fq = ut.fiber_quotient(k, m, p)
    project = o.fiber_projection(k, m, p)
    gens = {project[g] for g in o.superdiagonal(m, p)}
    assert_group_is(fq.group, o.fiber_table(k, m, p),
                    tuple(sorted(gens - {0})))


def test_zeta_kappa_closure_matches_the_all_pairs_table():
    """U_4(2)/Z and U_4(2)/P, as `zeta_kappa_targets` keeps them: the
    reference quotient's representatives, coset map, table, inverses and
    generators."""
    for quot, _ in ut.zeta_kappa_targets(3, 2):
        reps, coset_of, gens, table = o.coset_quotient(4, 2, quot.normal)
        assert (quot.reps, quot.coset_of) == (reps, coset_of)
        assert_group_is(quot.group, table, gens)
