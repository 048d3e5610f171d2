"""Dense linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries in 0..p-1. `rref` is a blocked
elimination: it takes the rows in blocks of max(ncols, 64), reduces each
block against the RREF R of the rows before it with one product
B - B[:, pivots] @ R, eliminates the nonzero residual with pivot steps that
touch only the rows with a nonzero in the pivot column, clears the new pivot
columns from R with one more product and merges the rows by pivot column.
It stops once every column is a pivot. The RREF is unique, so the result
does not depend on the blocking.

The products run in float64, which reaches BLAS where numpy's int64 matmul
does not. With both factors in 0..p-1 every partial sum of an inner
dimension k is an integer of at most k(p-1)^2, so the product is exact
while k(p-1)^2 < 2^53; `_matmul` raises SizeLimit before a product that
could break this.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParameter, SizeLimit

MAX_PRIME = 13
_EXACT_LIMIT = 2 ** 53
_MIN_BLOCK = 64


def check_prime(p: int) -> None:
    """Raise BadParameter unless p is a prime <= MAX_PRIME."""
    if p < 2 or p > MAX_PRIME or \
            any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise BadParameter(f"modulus {p} must be a prime <= {MAX_PRIME}")


def _as_matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
    return a


def _matmul(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y for int64 matrices with entries in 0..p-1, computed exactly in
    float64 (not reduced mod p)."""
    if x.shape[1] * (p - 1) ** 2 >= _EXACT_LIMIT:
        raise SizeLimit(f"inner dimension {x.shape[1]} at p = {p} exceeds "
                        "the exact float64 range")
    return (x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64)


def _eliminate(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of a (entries in 0..p-1, modified in place); each pivot step
    updates only the rows with a nonzero in its column."""
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        # rows r.. are zero left of c, so the pivot row is too
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        hit = a[:, c].nonzero()[0]
        hit = hit[hit != r]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - a[hit, c:c + 1] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rref(rows, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p. Returns (R, pivot column list);
    zero rows are dropped. Each block is reduced mod p as it is read, so
    the input is neither copied whole nor written."""
    a = _as_matrix(rows)
    if a.size == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0), []
    nrows, ncols = a.shape
    block = max(ncols, _MIN_BLOCK)
    R = a[:0]
    pivots: list[int] = []
    for start in range(0, nrows, block):
        if len(pivots) == ncols:
            break
        b = a[start:start + block] % p
        if pivots:
            b = (b - _matmul(b[:, pivots], R, p)) % p
        b = b[b.any(axis=1)]
        if not b.size:
            continue
        Rb, new = _eliminate(b, p)
        if not pivots:
            R, pivots = Rb, new
            continue
        R = (R - _matmul(R[:, new], Rb, p)) % p
        pivots += new
        order = np.argsort(pivots)
        R = np.concatenate([R, Rb])[order]
        pivots = [pivots[i] for i in order]
    return R, pivots


def rank(rows, p: int) -> int:
    return len(rref(rows, p)[1])


def reduce_vector(v, R: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Residual of v modulo the row space given in rref form.  The residual
    is the canonical coset representative (zeros in all pivot positions)."""
    v = np.asarray(v, dtype=np.int64) % p
    for i, c in enumerate(pivots):
        if v[c]:
            v = (v - v[c] * R[i]) % p
    return v


def in_row_space(v, R: np.ndarray, pivots: list[int], p: int) -> bool:
    return not reduce_vector(v, R, pivots, p).any()


def nullspace(rows, p: int) -> list[np.ndarray]:
    """Basis of the right nullspace in the standard rref parametrization,
    one vector per free column, in ascending free-column order."""
    a = _as_matrix(rows)
    if a.size == 0:
        ncols = a.shape[1] if a.ndim == 2 else 0
        return [np.eye(ncols, dtype=np.int64)[i] for i in range(ncols)]
    R, pivots = rref(a, p)
    ncols = a.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(ncols, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-R[i, f]) % p
        basis.append(v)
    return basis


def solve(A, b, p: int):
    """One solution of A x = b mod p with free variables set to 0, or None."""
    A = _as_matrix(A) % p
    b = np.asarray(b, dtype=np.int64) % p
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    R, pivots = rref(aug, p)
    ncols = A.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = R[i, ncols]
    return x


def solve_affine(A, b, p: int):
    """All solutions of A x = b mod p as (particular, nullspace basis); None
    if inconsistent."""
    x0 = solve(A, b, p)
    if x0 is None:
        return None
    return x0, nullspace(A, p)
