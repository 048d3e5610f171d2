import itertools
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masseylab import unitri as ut
from masseylab.errors import (
    BadParameter,
    IndexOutOfRange,
    NotInKernel,
    SizeLimit,
)
from masseylab.groups import CosetQuotient


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


def superdiagonal_indices(n, p):
    """The indices of the I + e_{i,i+1}, read off their packed entries."""
    return tuple(ut.vec_to_index(p, elementary(n, p, i, i + 1).entries)
                 for i in range(1, n))


def matmul(A, B):
    """The product of two elements through full integer matrices."""
    rows = (np.array(A.to_rows()) @ np.array(B.to_rows())) % A.p
    return ut.from_rows(rows.tolist(), A.p)


def old_table(n, p):
    """The replaced table route: one 3-D matmul per row, products looked
    up by the bytes of their packed entries."""
    elems = old_elements(n, p)
    mats = np.array([m.to_rows() for m in elems], dtype=np.int64)
    iu = np.triu_indices(n, 1)
    index = {mats[i][iu].tobytes(): i for i in range(len(elems))}
    table = []
    for x in range(len(elems)):
        packed = ((mats[x] @ mats) % p)[:, iu[0], iu[1]]
        table.append(tuple(index[row.tobytes()] for row in packed))
    return tuple(table)


@pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (4, 2), (3, 5)])
def test_table_and_indices_match_the_matrix_route(n, p):
    U = ut.unitri_group(n, p)
    G = U.as_finite_group()
    assert tuple(map(tuple, G.mul)) == old_table(n, p)
    assert all(type(c) is int for row in G.mul for c in row)
    for i, mat in enumerate(old_elements(n, p)):
        assert U.matrix_of(i) == mat and ut.vec_to_index(p, mat.entries) == i
        for (a, b) in positions(n):
            e = U.entry_of(i, a, b)
            assert type(e) is int and e == mat.entry(a, b)
    assert G.generators == superdiagonal_indices(n, p)
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
        ut.vec_to_index(p, matmul(A, B).entries)
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


def block(mat, a, off):
    """The a-block of a matrix with top-left corner (off + 1, off + 1)."""
    return ut.UniTriMatrix(a, mat.p, tuple(mat.entry(off + i, off + j)
                                           for (i, j) in positions(a)))


class OldFiber:
    """Q_{k,m}(p) built from pairs of matrix objects."""

    def __init__(self, k, m, p):
        self.k, self.m, self.p = k, m, p
        overlap = m - k
        self.pairs = [(A, B) for A in old_elements(m - 1, p)
                      for B in old_elements(m + 1 - k, p)
                      if block(A, overlap, k - 1) == block(B, overlap, 0)]
        self.index = {(A.entries, B.entries): i
                      for i, (A, B) in enumerate(self.pairs)}
        self.table = tuple(
            tuple(self.index[(Ax.mul(Ay).entries, Bx.mul(By).entries)]
                  for (Ay, By) in self.pairs) for (Ax, Bx) in self.pairs)
        self.gens = tuple(sorted({self.from_parent(elementary(m, p, i, i + 1))
                                  for i in range(1, m)} - {0}))

    def from_parent(self, mat):
        return self.index[(block(mat, self.m - 1, 0).entries,
                           block(mat, self.m + 1 - self.k, self.k - 1).entries)]


@pytest.mark.parametrize("k,m,p", [(2, 4, 2), (1, 4, 2), (2, 4, 3)])
def test_fiber_quotient_matches_the_matrix_pairs(k, m, p):
    fq, old = ut.fiber_quotient(k, m, p), OldFiber(k, m, p)
    assert [(fq.left.matrix_of(a), fq.right.matrix_of(b))
            for a, b in fq.pairs] == old.pairs
    assert tuple(map(tuple, fq.group.mul)) == old.table
    assert fq.group.generators == old.gens
    assert fq.parent_quotient_hom().images == \
        tuple(old.from_parent(mat) for mat in old_elements(m, p))
    tgt = OldFiber(k + 1, m, p)
    assert fq.rho_hom().images == tuple(
        tgt.index[(A.entries, block(B, m - k, 1).entries)]
        for A, B in old.pairs)
    for x in fq.kernel_of_rho():
        A, B = old.pairs[x]
        assert A.is_identity() and fq.iota(x) == B.entry(1, m + 1 - k)
        assert fq.iota_inv(fq.iota(x)) == x
    for x in range(fq.order):
        for (i, j) in positions(m):
            if j < m or i >= k:
                A, B = old.pairs[x]
                want = A.entry(i, j) if j < m else \
                    B.entry(i - k + 1, j - k + 1)
                assert fq.entry_of(x, i, j) == want


def test_drop_to_matches_the_lower_right_blocks():
    fq = ut.fiber_quotient(3, 5, 2)
    tgt, lam = fq.drop_to(2)
    for x, (a, b) in enumerate(fq.pairs):
        A = fq.left.matrix_of(a)
        a2, b2 = tgt.pairs[lam(x)]
        assert tgt.left.matrix_of(a2) == block(A, 3, 1)
        assert b2 == b


# -- the table closure against the all-pairs builders it replaced -------------

def two_sided_inverses(table):
    """The replaced inverse scan: the y with x*y = y*x = 1, for each x."""
    n = len(table)
    return tuple(next(y for y in range(n) if table[x][y] == 0 == table[y][x])
                 for x in range(n))


def per_row_unitri_table(n, p):
    """The replaced U_n(p) builder: the product rule once per row, on the
    columns of every element's packed entries."""
    U = ut.unitri_group(n, p)
    digits = np.arange(U.order)[:, None] // np.array(U.weights) % p
    columns = list(digits.T)
    plan = ut._product_plan(n)
    table = []
    for row in digits.tolist():
        idx = np.zeros(U.order, dtype=np.int64)
        for v in ut._product(row, columns, plan, p):
            idx = idx * p + v
        table.append(tuple(idx.tolist()))
    return tuple(table)


def all_pairs_fiber_table(fq):
    """The replaced Q_{k,m} builder: the pair product of every two pairs."""
    mats = [(fq.left.matrix_of(a), fq.right.matrix_of(b)) for a, b in fq.pairs]
    index = {pair: i for i, pair in enumerate(fq.pairs)}
    return tuple(
        tuple(index[(ut.vec_to_index(fq.p, Ax.mul(Ay).entries),
                     ut.vec_to_index(fq.p, Bx.mul(By).entries))]
              for Ay, By in mats) for Ax, Bx in mats)


def all_pairs_coset_table(quot):
    """The replaced coset builder: the coset of every product of two
    representatives."""
    mul, reps, coset_of = quot.parent.mul, quot.reps, quot.coset_of
    return tuple(tuple(coset_of[mul[a][b]] for b in reps) for a in reps)


def assert_group_is(G, table, gens):
    assert tuple(map(tuple, G.mul)) == table
    assert G.inv == two_sided_inverses(table)
    assert G.generators == gens
    assert all(type(row) is array and row.typecode == "H" for row in G.mul)


@pytest.mark.parametrize("n,p", [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3),
                                 (3, 5)])
def test_unitri_closure_matches_the_per_row_table(n, p):
    U = ut.unitri_group(n, p)
    assert_group_is(U.as_finite_group(), per_row_unitri_table(n, p),
                    superdiagonal_indices(n, p))


@pytest.mark.parametrize("k,m,p", [(1, 3, 2), (2, 4, 2), (1, 4, 3),
                                   (2, 4, 3), (2, 5, 2), (3, 5, 2)])
def test_fiber_closure_matches_the_all_pairs_table(k, m, p):
    fq = ut.fiber_quotient(k, m, p)
    gens = set(map(fq.from_parent, superdiagonal_indices(m, p)))
    assert_group_is(fq.group, all_pairs_fiber_table(fq),
                    tuple(sorted(gens - {0})))


def assert_coset_group_is_the_all_pairs_table(quot):
    gens = {quot.coset_of[g] for g in quot.parent.generators}
    assert_group_is(quot.group, all_pairs_coset_table(quot),
                    tuple(sorted(gens - {0})))


@pytest.mark.parametrize("n,p", [(4, 2), (3, 3)])
def test_coset_closure_matches_the_all_pairs_table(n, p):
    U = ut.unitri_group(n + 1, p)
    chain, _ = ut.central_series_ker_phi(n)
    for zero in chain:
        assert_coset_group_is_the_all_pairs_table(
            CosetQuotient(U.as_finite_group(), U.vanishing_on(zero)))


def test_zeta_kappa_closure_matches_the_all_pairs_table():
    for quot, _ in ut.zeta_kappa_targets(3, 2):
        assert_coset_group_is_the_all_pairs_table(quot)
