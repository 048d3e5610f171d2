import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masseylab import gfp

PRIMES = [2, 3, 5, 7, 11, 13]


def as_matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
    return a


def dense_rref(rows, p):
    """The reference: a numpy elimination that rewrites the whole matrix at
    every pivot."""
    a = as_matrix(rows) % p
    if a.size == 0:
        return a.reshape(0, a.shape[1]), []
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


def dense_nullspace(a, p):
    """The rref parametrization of the nullspace, read off `dense_rref`."""
    R, pivots = dense_rref(a, p)
    ncols = a.shape[1]
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = np.zeros(ncols, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-R[i, f]) % p
        basis.append(v)
    return basis


def dense_solve(a, b, p):
    """The solution with free variables 0, read off the RREF of [a | b]."""
    ncols = a.shape[1]
    R, pivots = dense_rref(np.concatenate([a, b.reshape(-1, 1)], axis=1), p)
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = R[i, ncols]
    return x


def dense_reduce(v, R, pivots, p):
    v = np.asarray(v, dtype=np.int64) % p
    for i, c in enumerate(pivots):
        v = (v - v[c] * R[i]) % p
    return v


def packed(a, p) -> list[int]:
    a = as_matrix(a)
    S = gfp.space(a.shape[1], p)
    return [S.pack(row.tolist()) for row in a]


def unpacked(rows, ncols, p) -> np.ndarray:
    S = gfp.space(ncols, p)
    return np.array([S.unpack(r) for r in rows],
                    dtype=np.int64).reshape(len(rows), ncols)


def assert_same_rref(rows, p):
    a = as_matrix(rows)
    R, piv = gfp.rref(packed(a, p), p)
    R0, piv0 = dense_rref(a, p)
    assert piv == piv0 and all(type(c) is int for c in piv)
    assert all(type(r) is int for r in R)
    assert (unpacked(R, a.shape[1], p) == R0).all()


@st.composite
def blocked_matrices(draw):
    """A matrix made of row blocks that each span a random subspace of
    drawn rank: rank 0 gives all-zero rows, rank ncols in an early block a
    full rank reached before the last row. Entries are shifted by multiples
    of p, so packing has to reduce them."""
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(0, 90))
    block = draw(st.sampled_from([1, 7, 64]))
    nrows = draw(st.sampled_from([0, 1, block, block + 1, 3 * block + 7]) |
                 st.integers(0, 2 * block))
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


@settings(max_examples=100, deadline=None)
@given(blocked_matrices(), st.integers(0, 2 ** 32 - 1))
def test_nullspace_solve_and_reduce_agree_with_the_reference(case, seed):
    a, p = case
    nrows, ncols = a.shape
    rows = packed(a, p)
    got = gfp.nullspace(rows, ncols, p)
    want = dense_nullspace(a, p)
    assert len(got) == len(want)
    assert all((unpacked([v], ncols, p)[0] == w).all()
               for v, w in zip(got, want))
    rng = np.random.default_rng(seed)
    # a consistent right-hand side, and one that is usually not
    for b in (a @ rng.integers(0, p, ncols), rng.integers(-p, 2 * p, nrows)):
        x = gfp.solve(rows, gfp.space(nrows, p).pack(b.tolist()), ncols, p)
        x0 = dense_solve(a % p, b % p, p)
        assert (x is None) == (x0 is None)
        if x is not None:
            assert (unpacked([x], ncols, p)[0] == x0).all()
    R, piv = gfp.rref(rows, p)
    R0, _ = dense_rref(a, p)
    S = gfp.space(ncols, p)
    for v in rng.integers(0, p, (3, ncols)).tolist() + \
            (a[:2] % p).tolist():
        r = gfp.reduce_vector(S.pack(v), R, piv, p)
        assert S.unpack(r) == dense_reduce(v, R0, piv, p).tolist()
        assert gfp.in_row_space(S.pack(v), R, piv, p) == (not any(S.unpack(r)))


@pytest.mark.parametrize("rows", [
    np.zeros((0, 5), dtype=np.int64),             # 0 x n
    np.zeros((3, 0), dtype=np.int64),             # n x 0
    [1, 2, 0, 1],                                 # one row
    [],                                           # no rows, no columns
    np.arange(5 * 200).reshape(5, 200) % 11,      # wide
    np.arange(70 * 70).reshape(70, 70) ** 2,      # square, past 64 columns
])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_blocked_rref_edge_shapes(rows, p):
    assert_same_rref(rows, p)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 150), st.data())
def test_packed_arithmetic_agrees_with_integer_arithmetic(p, n, data):
    S = gfp.space(n, p)
    draw = st.lists(st.integers(-3 * p, 3 * p), min_size=n, max_size=n)
    u, v = data.draw(draw), data.draw(draw)
    c = data.draw(st.integers(-2 * p, 2 * p))
    pu, pv = S.pack(u), S.pack(v)
    assert S.unpack(pu) == [x % p for x in u]
    assert S.unpack(S.add(pu, pv)) == [(x + y) % p for x, y in zip(u, v)]
    assert S.unpack(S.sub(pu, pv)) == [(x - y) % p for x, y in zip(u, v)]
    assert S.unpack(S.scale(pu, c)) == [c * x % p for x in u]
    assert all(S.entry(pu, i) == x % p for i, x in enumerate(u))
    coeffs = gfp.space(3, p).pack([c, 1, 2])
    assert S.unpack(S.combine([pu, pv, pu], coeffs)) == \
        [(c * x + y + 2 * x) % p for x, y in zip(u, v)]


def old_combine(S, vectors, coeffs):
    """The replaced `Space.combine`, which took a list of coefficients."""
    p = S.p
    sums = [0] * p
    for v, c in zip(vectors, coeffs):
        c %= p
        if c:
            sums[c] = S.add(sums[c], v)
    out = sums[1]
    for c in range(2, p):
        if sums[c]:
            out = S.add(out, S.scale(sums[c], c))
    return out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 40), st.integers(0, 12),
       st.data())
def test_combine_with_packed_coefficients_matches_the_list_form(p, n, k,
                                                                 data):
    """Packed coefficients, zero ones and the zero vector included, give
    what the list form gave."""
    S = gfp.space(n, p)
    entries = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    vectors = [S.pack(data.draw(entries)) for _ in range(k)]
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=k,
                                max_size=k))
    C = gfp.space(k, p)
    assert S.combine(vectors, C.pack(coeffs)) == \
        old_combine(S, vectors, coeffs)
    assert S.combine(vectors, 0) == old_combine(S, vectors, [0] * k) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_field_width_is_the_least_that_keeps_fields_apart(p):
    """SWAR is exact when HM = 2^(w-1) - p >= 0 and every field sum, at
    most 2p - 1, fits in w bits; one bit fewer breaks one of the two."""
    def exact(w):
        return 2 ** (w - 1) >= p and 2 * p - 1 < 2 ** w
    w = gfp._width(p)
    assert exact(w) and not exact(w - 1)


@settings(max_examples=50, deadline=None)
@given(blocked_matrices())
def test_transpose_agrees_with_numpy(case):
    a, p = case
    cols = gfp.transpose(packed(a, p), a.shape[1], p)
    assert (unpacked(cols, a.shape[0], p) == (a % p).T).all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 12),
       st.sampled_from([1, 5, 63, 64, 65, 150]), st.integers(0, 2 ** 32 - 1))
def test_unreduced_input_agrees_with_the_reduced_matrix(p, ncols, nrows,
                                                        seed):
    """Entries far outside 0..p-1 pack to the reduced matrix."""
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, (nrows, ncols))
    A = A + p * rng.integers(-3, 4, A.shape) - p * (A == 0)
    assert packed(A, p) == packed(A % p, p)
    assert_same_rref(A, p)


def test_rref_rank_f2():
    rows = packed([[1, 1, 0], [1, 1, 0], [0, 1, 1]], 2)
    R, piv = gfp.rref(rows, 2)
    assert piv == [0, 1]
    assert gfp.rank(rows, 2) == 2


def test_nullspace_annihilates():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5):
        A = rng.integers(0, p, size=(6, 9))
        for v in gfp.nullspace(packed(A, p), 9, p):
            assert not (A @ unpacked([v], 9, p)[0] % p).any()


def test_solve_roundtrip():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        A = rng.integers(0, p, size=(7, 5))
        x = rng.integers(0, p, size=5)
        b = A @ x % p
        y = gfp.solve(packed(A, p), gfp.space(7, p).pack(b.tolist()), 5, p)
        assert y is not None
        assert ((A @ unpacked([y], 5, p)[0] - b) % p == 0).all()


def test_solve_inconsistent():
    assert gfp.solve(packed([[1, 0], [1, 0]], 2),
                     gfp.space(2, 2).pack([0, 1]), 2, 2) is None


def test_reduce_vector_canonical():
    # reduction against a row space is idempotent and a coset invariant
    p = 2
    S = gfp.space(3, p)
    rows = packed([[1, 1, 0], [0, 1, 1]], p)
    R, piv = gfp.rref(rows, p)
    v = S.pack([1, 0, 1])
    r1 = gfp.reduce_vector(v, R, piv, p)
    r2 = gfp.reduce_vector(S.add(v, rows[0]), R, piv, p)
    assert r1 == r2
    assert gfp.reduce_vector(r1, R, piv, p) == r1


def test_in_row_space():
    S = gfp.space(3, 2)
    R, piv = gfp.rref([S.pack([1, 1, 0])], 2)
    assert gfp.in_row_space(S.pack([1, 1, 0]), R, piv, 2)
    assert not gfp.in_row_space(S.pack([1, 0, 0]), R, piv, 2)
