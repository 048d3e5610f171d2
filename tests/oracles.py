"""The references tier-1 compares the group-table builders with, each the
plainest definition of what a fast path computes and none calling
`masseylab`: a table closes by composing generator columns, a permutation
group by composing permutations, U_n(p) multiplies matrices, Q_{k,m}(p)
pairs of blocks, and a coset quotient its representatives.  A table is a
read-only numpy array, table[x][y] = x*y; each matrix table is built once
per session (`functools.cache`), and a check of a given table reads only
that table.
"""

import functools

import numpy as np


def _frozen(a):
    a.flags.writeable = False
    return a


def array_of(rows):
    """A table's rows, each an array('H') or a sequence of indices, as one
    2-D numpy array."""
    return np.array([np.asarray(row) for row in rows], dtype=np.int64)


# -- checks of a given table ----------------------------------------------------

def inverses(table):
    """x^-1 for each x: the one y in row x with x*y = 1, which is also
    y*x = 1."""
    t = np.asarray(table)
    ones = t == 0
    assert (ones.sum(axis=1) == 1).all(), "a row without exactly one 1"
    inv = ones.argmax(axis=1)
    assert (t[inv, np.arange(len(t))] == 0).all(), "a one-sided inverse"
    return tuple(inv.tolist())


def associativity_failure(table):
    """The first triple (x, y, z), in lexicographic order, with
    (x*y)*z != x*(y*z), every triple compared; None when there is none."""
    t = np.asarray(table)
    bad = np.argwhere(t[t] != t[:, t])
    return tuple(map(int, bad[0])) if len(bad) else None


def span(table, generators):
    """The elements reached from the identity by right multiplication by
    the generators, ascending."""
    found = [0]
    for x in found:
        found += {int(table[x][g]) for g in generators} - set(found)
    return sorted(found)


def element_order(table, x):
    """The least k >= 1 with x^k = 1, by repeated multiplication."""
    k, y = 1, int(x)
    while y:
        y, k = int(table[y][x]), k + 1
    return k


# -- a group from its generators' right action ----------------------------------

def closure(columns, n):
    """The table of the group of order n whose listed generators act on
    the right by columns[s][x] = x*g_s, index 0 the identity.  Column y of
    the table is right multiplication by y: when y = z*g_s, it is column z
    followed by g_s, so each column is the generators' columns composed
    along a word for y."""
    generators = np.array(columns, dtype=np.uint16).reshape(-1, n)
    right = {0: np.arange(n, dtype=np.uint16)}  # right[y][x] = x*y
    found = [0]
    for z in found:
        for col in generators:
            y = int(col[z])
            if y not in right:
                right[y] = col[right[z]]
                found.append(y)
    assert len(found) == n, "the generators do not generate"
    return _frozen(np.array([right[y] for y in range(n)]).T.copy())


def permutation_group(columns, n):
    """The order of the group of permutations of range(n) that the columns
    generate, each element a tuple found by composing them in plain
    Python, and whether that group is transitive."""
    found = {tuple(range(n))}
    queue = list(found)
    for perm in queue:
        for col in columns:
            composed = tuple(col[x] for x in perm)
            if composed not in found:
                found.add(composed)
                queue.append(composed)
    return len(found), len({perm[0] for perm in found}) == n


# -- U_n(p), its fiber products and its coset quotients -------------------------

@functools.cache
def unitri_matrices(n, p):
    """Every element of U_n(p) as an n x n integer matrix, in index order:
    the digits of an index in base p, first most significant, are the
    strictly upper entries in row-major order."""
    rows, cols = np.triu_indices(n, 1)
    e = len(rows)
    digits = np.arange(p ** e)[:, None] // p ** np.arange(e - 1, -1, -1) % p
    mats = np.broadcast_to(np.eye(n, dtype=np.int64), (p ** e, n, n)).copy()
    mats[:, rows, cols] = digits
    return _frozen(mats)


def matrix_index(mat, p):
    """The index of a unitriangular matrix: its strictly upper entries in
    row-major order, read as base-p digits."""
    x = 0
    for v in np.asarray(mat)[np.triu_indices(len(mat), 1)]:
        x = x * p + int(v) % p
    return x


def superdiagonal(n, p):
    """The indices of I + e_{i,i+1}, i = 1..n-1."""
    indices = []
    for i in range(n - 1):
        mat = np.eye(n, dtype=np.int64)
        mat[i, i + 1] = 1
        indices.append(matrix_index(mat, p))
    return tuple(indices)


@functools.cache
def unitri_table(n, p):
    """U_n(p)'s table: x*y is the index of the product of the matrices of
    x and y, mod p."""
    mats = unitri_matrices(n, p)
    rows, cols = np.triu_indices(n, 1)
    place = p ** np.arange(len(rows) - 1, -1, -1)
    return _frozen(np.array([(mat @ mats % p)[:, rows, cols] @ place
                             for mat in mats], dtype=np.uint16))


@functools.cache
def fiber_pairs(k, m, p):
    """Q_{k,m}(p) as a fiber product: the pairs (a, b), a in U_{m-1}(p)
    and b in U_{m+1-k}(p), whose matrices agree on the overlapping
    (m-k)-block, a's lower right and b's upper left; a-major, b
    ascending."""
    over = m - k
    over_b = {}
    for b, B in enumerate(unitri_matrices(m + 1 - k, p)):
        over_b.setdefault(B[:over, :over].tobytes(), []).append(b)
    return tuple((a, b)
                 for a, A in enumerate(unitri_matrices(m - 1, p))
                 for b in over_b[A[k - 1:, k - 1:].tobytes()])


@functools.cache
def fiber_table(k, m, p):
    """Q_{k,m}(p)'s table: two pairs multiply block by block, each block
    product read off `unitri_table`."""
    left, right = unitri_table(m - 1, p), unitri_table(m + 1 - k, p)
    a, b = np.array(fiber_pairs(k, m, p)).T
    number = np.full((len(left), len(right)), -1)
    number[a, b] = np.arange(len(a))
    table = number[left[np.ix_(a, a)], right[np.ix_(b, b)]]
    assert (table >= 0).all(), "a product outside the fiber product"
    return _frozen(table.astype(np.uint16))


@functools.cache
def fiber_projection(k, m, p):
    """U_m(p) -> Q_{k,m}(p): each matrix to the pair of its upper-left
    (m-1)-block and its lower-right (m+1-k)-block."""
    number = {pair: x for x, pair in enumerate(fiber_pairs(k, m, p))}
    return tuple(number[matrix_index(M[:m - 1, :m - 1], p),
                        matrix_index(M[k - 1:, k - 1:], p)]
                 for M in unitri_matrices(m, p))


@functools.cache
def coset_quotient(n, p, normal):
    """U_n(p) modulo its normal subgroup `normal`, a tuple of indices: the
    coset of x is {x*z : z in normal}, numbered in order of its least
    member, its representative; the generators are the cosets of U_n(p)'s
    superdiagonal generators other than the identity's; two cosets
    multiply as their representatives do.  Returns (reps, coset_of,
    generators, table)."""
    U = unitri_table(n, p)
    coset_of = np.full(len(U), -1)
    reps = []
    for x in range(len(U)):
        if coset_of[x] < 0:
            coset_of[U[x, list(normal)]] = len(reps)
            reps.append(x)
    generators = tuple(sorted({int(coset_of[g])
                               for g in superdiagonal(n, p)} - {0}))
    table = coset_of[U[np.ix_(reps, reps)]]
    return (tuple(reps), tuple(coset_of.tolist()), generators,
            _frozen(table.astype(np.uint16)))
