import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masseylab import gfp
from masseylab.errors import SizeLimit


def dense_rref(rows, p):
    """The unblocked elimination that rewrites the whole matrix at every
    pivot: the reference the blocked `gfp.rref` must agree with."""
    a = gfp._as_matrix(rows) % p
    if a.size == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0), []
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def assert_same_rref(rows, p):
    R, piv = gfp.rref(rows, p)
    R0, piv0 = dense_rref(rows, p)
    assert piv == piv0 and all(type(c) is int for c in piv)
    assert R.dtype == R0.dtype and R.shape == R0.shape
    assert (R == R0).all()


@st.composite
def blocked_matrices(draw):
    """A matrix whose row blocks (of gfp.rref's block height) each span a
    random subspace of drawn rank: rank 0 gives an all-zero block, rank
    ncols in an early block a full rank reached before the last block.
    Entries are shifted by multiples of p, so the input is not reduced."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    ncols = draw(st.integers(1, 90))
    block = max(ncols, 64)
    nrows = draw(st.sampled_from([1, block - 1, block, block + 1,
                                  3 * block + 7]) | st.integers(0, 2 * block))
    nblocks = -(-nrows // block)
    ranks = draw(st.lists(st.integers(0, ncols), min_size=nblocks,
                          max_size=nblocks))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = [rng.integers(0, p, (min(block, nrows - i * block), r))
             @ rng.integers(0, p, (r, ncols)) for i, r in enumerate(ranks)]
    a = np.concatenate(parts) if parts else np.zeros((0, ncols), np.int64)
    return a + p * rng.integers(-2, 3, a.shape), p


@settings(max_examples=150, deadline=None)
@given(blocked_matrices())
def test_blocked_rref_agrees_with_dense_elimination(case):
    a, p = case
    assert_same_rref(a, p)


@pytest.mark.parametrize("rows", [
    np.zeros((0, 5), dtype=np.int64),             # 0 x n
    np.zeros((3, 0), dtype=np.int64),             # n x 0
    [1, 2, 0, 1],                                 # 1-D input
    [],                                           # empty 1-D input
    np.arange(5 * 200).reshape(5, 200) % 11,      # wide
    np.arange(70 * 70).reshape(70, 70) ** 2,      # exactly one wide block
])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_blocked_rref_edge_shapes(rows, p):
    assert_same_rref(rows, p)


@st.composite
def unreduced_systems(draw):
    """(A, b, p) with entries far outside 0..p-1 on both sides, over one or
    several row blocks of gfp.rref."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    ncols = draw(st.integers(1, 12))
    nrows = draw(st.sampled_from([1, 5, 63, 64, 65, 150]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(0, ncols))
    A = rng.integers(0, p, (nrows, rank)) @ rng.integers(0, p, (rank, ncols))
    A = A + p * rng.integers(-3, 4, A.shape) - p * (A == 0)
    b = rng.integers(-3 * p, 3 * p, nrows)
    return A, b, p


@settings(max_examples=60, deadline=None)
@given(unreduced_systems())
def test_unreduced_input_agrees_with_the_reduced_matrix(case):
    A, b, p = case
    A_before = A.copy()
    R, piv = gfp.rref(A, p)
    assert (A == A_before).all()
    R0, piv0 = dense_rref(A % p, p)
    assert piv == piv0 and (R == R0).all()
    free = [c for c in range(A.shape[1]) if c not in piv0]
    null = gfp.nullspace(A, p)
    assert len(null) == len(free)
    for f, v in zip(free, null):
        assert v[f] == 1 and not (A % p @ v % p).any()
        assert all(v[c] == (-R0[i, f]) % p for i, c in enumerate(piv0))
    aug = np.concatenate([A % p, (b % p).reshape(-1, 1)], axis=1)
    Ra, pa = dense_rref(aug, p)
    x = gfp.solve(A, b, p)
    if A.shape[1] in pa:
        assert x is None
    else:
        assert x is not None and ((A @ x - b) % p == 0).all()
        assert all(x[c] == Ra[i, -1] for i, c in enumerate(pa))
        assert not x[free].any()
    assert (A == A_before).all()


def test_float64_product_guard():
    # (q - 1)^2 = 2^52: one term is exact, two reach 2^53 and are refused
    q = 2 ** 26 + 1
    one = np.full((1, 1), q - 1, dtype=np.int64)
    assert gfp._matmul(one, one, q)[0, 0] == 2 ** 52
    two = np.full((1, 2), q - 1, dtype=np.int64)
    with pytest.raises(SizeLimit):
        gfp._matmul(two, two.T, q)


def test_rref_rank_f2():
    A = np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1]], dtype=np.int64)
    R, piv = gfp.rref(A, 2)
    assert list(piv) == [0, 1]
    assert gfp.rank(A, 2) == 2


def test_nullspace_annihilates():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        A = rng.integers(0, p, size=(6, 9)).astype(np.int64)
        for v in gfp.nullspace(A, p):
            assert not (A @ v % p).any()


def test_solve_roundtrip():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        A = rng.integers(0, p, size=(7, 5)).astype(np.int64)
        x = rng.integers(0, p, size=5).astype(np.int64)
        b = A @ x % p
        y = gfp.solve(A, b, p)
        assert y is not None
        assert ((A @ y - b) % p == 0).all()


def test_solve_inconsistent():
    A = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    assert gfp.solve(A, b, 2) is None


def test_reduce_vector_canonical():
    # reduction against a row space is idempotent and a coset invariant
    rows = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64)
    p = 2
    R, piv = gfp.rref(rows, p)
    v = np.array([1, 0, 1], dtype=np.int64)
    r1 = gfp.reduce_vector(v, R, piv, p)
    r2 = gfp.reduce_vector((v + rows[0]) % p, R, piv, p)
    assert (r1 == r2).all()
    assert (gfp.reduce_vector(r1, R, piv, p) == r1).all()


def test_in_row_space():
    R, piv = gfp.rref(np.array([[1, 1, 0]], dtype=np.int64), 2)
    assert gfp.in_row_space(np.array([1, 1, 0]), R, piv, 2)
    assert not gfp.in_row_space(np.array([1, 0, 0]), R, piv, 2)
