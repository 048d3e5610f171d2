"""Linear algebra over the prime field F_p on packed vectors.

A vector of n entries over F_p is one Python int: entry i sits in the w-bit
field at bits [i*w, (i+1)*w), with w = (2p-2).bit_length(), and every
field holds a value in 0..p-1. A matrix is a list of such ints, one per row.
`space(n, p)` holds the constants for vectors of n entries.

Addition is exact field by field ("SWAR", SIMD within a register). The
width gives 2p-2 < 2^w, hence p <= 2^(w-1), and 2p-1 < 2^w as 2^w is even.
A sum of two fields is at most 2p-2, and a subtraction adds p to every
field first, giving at most 2p-1; so every field sum s_i fits in w bits and
one big-int operation acts on all fields with no carry between them. HM
holds 2^(w-1) - p >= 0 in every field, so field i of s + HM is at most
2^(w-1) + p - 1 < 2^w, again with no carry, and its top bit is set exactly
when s_i >= p. So

    s - (((s + HM) >> (w-1)) & ONES) * p

subtracts p from exactly the fields that reached p, where ONES holds 1 in
every field. A scalar multiple is a sum of doublings. Every step is integer
arithmetic, so nothing rounds.

`rref` inserts each row into a fully reduced echelon basis. It clears the
row's entries at the basis pivots with the pivot rows' precomputed multiples
and, if a residual is left, normalises it and clears its pivot column from
the basis rows. It stops once every column is a pivot. The RREF is unique,
so the result does not depend on the order of insertion.
"""

from __future__ import annotations

import functools

from .errors import BadParameter

MAX_PRIME = 13


def check_prime(p: int) -> None:
    """Raise BadParameter unless p is a prime <= MAX_PRIME."""
    if p < 2 or p > MAX_PRIME or \
            any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise BadParameter(f"modulus {p} must be a prime <= {MAX_PRIME}")


def _width(p: int) -> int:
    """Bits per packed entry: the least w with p <= 2^(w-1), 2p-1 < 2^w."""
    return (2 * p - 2).bit_length()


class Space:
    """F_p^n on packed ints; obtain it through `space`."""

    def __init__(self, n: int, p: int):
        self.n, self.p = n, p
        self.w = w = _width(p)
        self.mask = (1 << w) - 1
        self.ones = ((1 << (w * n)) - 1) // self.mask
        self.hm = ((1 << (w - 1)) - p) * self.ones
        self.pones = p * self.ones
        self._bits = tuple(format(k, f"0{w}b") for k in range(p))
        self._value = {format(k, f"0{w}b"): k for k in range(1 << w)}

    def pack(self, values) -> int:
        """The packed vector of n integers, each reduced mod p."""
        p, bits = self.p, self._bits
        return int("".join([bits[x % p] for x in reversed(values)]) or "0",
                           2)

    def unpack(self, v: int) -> list[int]:
        """The n entries of v, as ints in 0..p-1."""
        if not self.n:
            return []
        w, value = self.w, self._value
        s = format(v, f"0{self.n * w}b")
        out = [value[s[i:i + w]] for i in range(0, len(s), w)]
        out.reverse()
        return out

    def sparse(self, entries) -> int:
        """The vector with the given (index, value) entries, at distinct
        indices, each value reduced mod p, and 0 elsewhere."""
        p, w = self.p, self.w
        return sum(x % p << (i * w) for i, x in entries)

    def entry(self, v: int, i: int) -> int:
        return (v >> (i * self.w)) & self.mask

    def first(self, v: int) -> int:
        """The index of the first nonzero entry of v != 0."""
        return ((v & -v).bit_length() - 1) // self.w

    def drop(self, v: int, k: int) -> int:
        """v without its first k entries."""
        return v >> (k * self.w)

    def unit(self, i: int) -> int:
        return 1 << (i * self.w)

    def add(self, u: int, v: int) -> int:
        s = u + v
        return s - (((s + self.hm) >> (self.w - 1)) & self.ones) * self.p

    def sub(self, u: int, v: int) -> int:
        s = u + self.pones - v
        return s - (((s + self.hm) >> (self.w - 1)) & self.ones) * self.p

    def scale(self, v: int, c: int) -> int:
        """c * v, by doubling."""
        c %= self.p
        out = 0
        while c:
            if c & 1:
                out = self.add(out, v)
            c >>= 1
            if c:
                v = self.add(v, v)
        return out

    def combine(self, vectors, coeffs: int) -> int:
        """sum_i c_i * vectors[i] over the entries c_i of the packed vector
        coeffs, one step per nonzero entry as in `transpose`; the vectors
        with equal coefficient are summed first, so each scales once."""
        w, mask = self.w, self.mask
        sums = [0] * self.p
        while coeffs:
            i = ((coeffs & -coeffs).bit_length() - 1) // w
            c = (coeffs >> (i * w)) & mask
            coeffs ^= c << (i * w)
            sums[c] = self.add(sums[c], vectors[i])
        out = sums[1]
        for c in range(2, self.p):
            if sums[c]:
                out = self.add(out, self.scale(sums[c], c))
        return out


@functools.cache
def space(n: int, p: int) -> Space:
    return Space(n, p)


def _fields(rows, p: int) -> int:
    """The number of entries up to the last nonzero one in any row."""
    return -(-max(rows, default=0).bit_length() // _width(p))


def transpose(rows, ncols: int, p: int) -> list[int]:
    """The columns of a matrix of packed rows with ncols entries each, as
    packed vectors over the rows. Each row costs one step per nonzero
    entry, so a sparse matrix transposes in time linear in its entries."""
    w = _width(p)
    mask = (1 << w) - 1
    cols = [0] * ncols
    for r, v in enumerate(rows):
        shift = r * w
        while v:
            c = ((v & -v).bit_length() - 1) // w
            e = (v >> (c * w)) & mask
            cols[c] |= e << shift
            v ^= e << (c * w)
    return cols


def rref(rows, p: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form mod p of a list of packed rows. Returns
    (R, pivot column list), R's rows in pivot order; zero rows are
    dropped."""
    S = space(_fields(rows, p), p)
    # Space.add, inlined in the two hot loops
    w, mask, add, hm, ones = S.w, S.mask, S.add, S.hm, S.ones
    top = w - 1
    inverse = [0] + [pow(e, -1, p) for e in range(1, p)]
    basis: dict[int, list[int]] = {}   # pivot -> [0, r, 2r, .., (p-1)r]
    at_pivots = 0                      # every field of a pivot column
    for v in rows:
        t = v & at_pivots
        while t:
            c = ((t & -t).bit_length() - 1) // w
            e = (t >> (c * w)) & mask
            t ^= e << (c * w)
            s = v + basis[c][p - e]
            v = s - (((s + hm) >> top) & ones) * p
        if not v:
            continue
        c = S.first(v)
        multiples = [0, v]
        for _ in range(2, p):
            multiples.append(add(multiples[-1], v))
        inv = inverse[S.entry(v, c)]
        new = [multiples[k * inv % p] for k in range(p)]
        for b in basis.values():
            f = (b[1] >> (c * w)) & mask
            if f:
                for k in range(1, p):
                    s = b[k] + new[k * (p - f) % p]
                    b[k] = s - (((s + hm) >> top) & ones) * p
        basis[c] = new
        at_pivots |= mask << (c * w)
        if len(basis) == S.n:
            break
    pivots = sorted(basis)
    return [basis[c][1] for c in pivots], pivots


def rank(rows, p: int) -> int:
    return len(rref(rows, p)[1])


def reduce_vector(v: int, R, pivots, p: int) -> int:
    """Residual of v modulo the row space given in rref form.  The residual
    is the canonical coset representative (zeros in all pivot positions)."""
    S = space(_fields([v, *R], p), p)
    for r, c in zip(R, pivots):
        e = S.entry(v, c)
        if e:
            v = S.sub(v, S.scale(r, e))
    return v


def in_row_space(v: int, R, pivots, p: int) -> bool:
    return not reduce_vector(v, R, pivots, p)


def nullspace(rows, ncols: int, p: int) -> list[int]:
    """Basis of the right nullspace of packed rows with ncols entries, in the
    standard rref parametrization: one vector per free column, in ascending
    free-column order."""
    S = space(ncols, p)
    if not rows or not ncols:
        return [S.unit(f) for f in range(ncols)]
    R, pivots = rref(rows, p)
    pivot_set = set(pivots)
    return [S.unit(f) | S.sparse((c, -S.entry(r, f))
                                 for r, c in zip(R, pivots))
            for f in range(ncols) if f not in pivot_set]


def solve(A, b: int, ncols: int, p: int):
    """One solution of A x = b mod p, A a list of packed rows with ncols
    entries and b packed over the rows, with free variables set to 0; None
    if there is none."""
    S = space(ncols, p)
    B = space(len(A), p)
    aug = [a | S.unit(ncols) * B.entry(b, i) for i, a in enumerate(A)]
    R, pivots = rref(aug, p)
    if ncols in pivots:
        return None
    return S.sparse((c, S.drop(r, ncols)) for r, c in zip(R, pivots))


def solve_affine(A, b: int, ncols: int, p: int):
    """All solutions of A x = b mod p as (particular, nullspace basis); None
    if inconsistent."""
    x0 = solve(A, b, ncols, p)
    if x0 is None:
        return None
    return x0, nullspace(A, ncols, p)
