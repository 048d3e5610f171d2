"""Unitriangular matrix groups U_n(p) and the subgroup/quotient machinery
built on them: the subgroups Z, P, M(k), coset quotients with induced
superdiagonal maps, and the fiber-product realization of U_m(p)/M_{k,m}.

Matrix entries use textbook 1-based (i, j) indexing; strictly-upper
entries are stored packed in row-major order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadParameter,
    IndexOutOfRange,
    NotInKernel,
    ParseError,
    SizeLimit,
)
from .groups import CONTAINER_LIMIT, FiniteGroup, GroupHom, _raw_group, \
    build_vector_group, vec_to_index

MAX_PRIME = 13


@functools.cache
def _positions(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@functools.cache
def _pos_index(n: int) -> dict:
    return {pos: idx for idx, pos in enumerate(_positions(n))}


@dataclass(frozen=True)
class UniTriMatrix:
    n: int
    p: int
    entries: tuple  # strictly-upper entries, row-major

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRange(f"({i},{j}) outside a {self.n}x{self.n} matrix")
        if i == j:
            return 1
        if i > j:
            return 0
        return self.entries[_pos_index(self.n)[(i, j)]]

    def mul(self, other: "UniTriMatrix") -> "UniTriMatrix":
        if (self.n, self.p) != (other.n, other.p):
            raise BadParameter("matrix sizes/moduli differ")
        n, p = self.n, self.p
        pidx = _pos_index(n)
        out = []
        for (i, j) in _positions(n):
            v = self.entries[pidx[(i, j)]] + other.entries[pidx[(i, j)]]
            for k in range(i + 1, j):
                v += self.entries[pidx[(i, k)]] * other.entries[pidx[(k, j)]]
            out.append(v % p)
        return UniTriMatrix(n, p, tuple(out))

    def inverse(self) -> "UniTriMatrix":
        # Neumann series terminates: (I+N)^-1 = I - N + N^2 - ...
        rows = np.array(self.to_rows(), dtype=np.int64)
        n, p = self.n, self.p
        N = rows - np.eye(n, dtype=np.int64)
        acc = np.eye(n, dtype=np.int64)
        term = np.eye(n, dtype=np.int64)
        for _ in range(n - 1):
            term = (-term @ N) % p
            acc = (acc + term) % p
        return from_rows(acc.tolist(), p)

    def phi(self) -> tuple:
        """Superdiagonal vector (e_12, e_23, ..., e_{n-1,n})."""
        pidx = _pos_index(self.n)
        return tuple(self.entries[pidx[(i, i + 1)]] for i in range(1, self.n))

    def block_upper_left(self, a: int) -> "UniTriMatrix":
        if not 1 <= a <= self.n:
            raise IndexOutOfRange(f"block size {a} outside 1..{self.n}")
        vals = [self.entry(i, j) for (i, j) in _positions(a)]
        return UniTriMatrix(a, self.p, tuple(vals))

    def block_lower_right(self, a: int) -> "UniTriMatrix":
        if not 1 <= a <= self.n:
            raise IndexOutOfRange(f"block size {a} outside 1..{self.n}")
        off = self.n - a
        vals = [self.entry(off + i, off + j) for (i, j) in _positions(a)]
        return UniTriMatrix(a, self.p, tuple(vals))

    def to_rows(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(1, self.n + 1)]
                for i in range(1, self.n + 1)]

    def is_identity(self) -> bool:
        return not any(self.entries)

    def order(self) -> int:
        k, m = 1, self
        while not m.is_identity():
            m = m.mul(self)
            k += 1
        return k


def identity_matrix(n: int, p: int) -> UniTriMatrix:
    return UniTriMatrix(n, p, (0,) * (n * (n - 1) // 2))


def from_rows(rows: Sequence[Sequence[int]], p: int) -> UniTriMatrix:
    n = len(rows)
    for i in range(n):
        if len(rows[i]) != n:
            raise ParseError(f"row {i + 1} has length {len(rows[i])}, expected {n}")
        if rows[i][i] % p != 1:
            raise ParseError(f"diagonal entry ({i + 1},{i + 1}) must be 1")
        for j in range(i):
            if rows[i][j] % p != 0:
                raise ParseError(f"below-diagonal entry ({i + 1},{j + 1}) must be 0")
    vals = [rows[i - 1][j - 1] % p for (i, j) in _positions(n)]
    return UniTriMatrix(n, p, tuple(vals))


def parse_matrix_literal(text: str) -> UniTriMatrix:
    """Literal format: `n p / r1 / r2 / ...` with rows of space-separated
    residues."""
    parts = [chunk.split() for chunk in text.strip().split("/")]
    try:
        n, p = (int(t) for t in parts[0])
    except (ValueError, TypeError):
        raise ParseError("header must be `n p`")
    rows = parts[1:]
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, got {len(rows)}")
    try:
        rows = [[int(t) for t in row] for row in rows]
    except ValueError:
        raise ParseError("non-integer matrix entry")
    return from_rows(rows, p)


def format_matrix_literal(U: UniTriMatrix) -> str:
    rows = " / ".join(" ".join(str(v) for v in row) for row in U.to_rows())
    return f"{U.n} {U.p} / {rows}"


# -- the group U_n(p) ----------------------------------------------------------

def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


class UniTriGroup:
    """U_n(p) with a lazily materialized multiplication table; obtain it
    through `unitri_group`, which builds one instance per (n, p)."""

    def __init__(self, n: int, p: int):
        if n < 1:
            raise BadParameter(f"size {n} must be >= 1")
        if not _is_prime(p) or p > MAX_PRIME:
            raise BadParameter(f"modulus {p} must be a prime <= {MAX_PRIME}")
        self.n = n
        self.p = p
        self.num_entries = n * (n - 1) // 2
        self.order = p ** self.num_entries

    def materializable(self) -> bool:
        return self.order <= CONTAINER_LIMIT

    @functools.cache
    def elements(self) -> tuple[UniTriMatrix, ...]:
        if not self.materializable():
            raise SizeLimit(
                f"|U_{self.n}({self.p})| = {self.order} > {CONTAINER_LIMIT}")
        return tuple(UniTriMatrix(self.n, self.p, e)
                     for e in itertools.product(range(self.p),
                                                repeat=self.num_entries))

    @functools.cache
    def _index(self) -> dict:
        return {m.entries: i for i, m in enumerate(self.elements())}

    def index_of(self, U: UniTriMatrix) -> int:
        return self._index()[U.entries]

    def matrix_of(self, idx: int) -> UniTriMatrix:
        return self.elements()[idx]

    def entry_of(self, idx: int, i: int, j: int) -> int:
        return self.matrix_of(idx).entry(i, j)

    @functools.cache
    def as_finite_group(self) -> FiniteGroup:
        elems = self.elements()
        n, p, order = self.n, self.p, self.order
        mats = np.array([m.to_rows() for m in elems], dtype=np.int64)
        iu = np.triu_indices(n, 1)
        index = {}
        for i, m in enumerate(elems):
            index[np.asarray(mats[i][iu]).tobytes()] = i
        table = []
        for x in range(order):
            prod = (mats[x] @ mats) % p
            packed = prod[:, iu[0], iu[1]]
            table.append(tuple(index[packed[y].tobytes()]
                               for y in range(order)))
        gens = tuple(self.index_of(self.elementary(i, i + 1)) + 0
                     for i in range(1, n)) or ()
        return _raw_group(table, gens, f"U{n}({p})",
                          meta={"kind": "unitri", "n": n, "p": p})

    def elementary(self, i: int, j: int, v: int = 1) -> UniTriMatrix:
        vals = [0] * self.num_entries
        vals[_pos_index(self.n)[(i, j)]] = v % self.p
        return UniTriMatrix(self.n, self.p, tuple(vals))

    @functools.cache
    def phi_hom(self) -> GroupHom:
        """The superdiagonal map as a hom onto (Z/p)^(n-1)."""
        target = build_vector_group(self.p, self.n - 1)
        G = self.as_finite_group()
        images = tuple(vec_to_index(self.p, m.phi()) for m in self.elements())
        return GroupHom(G, target, images)


@functools.cache
def unitri_group(n: int, p: int) -> UniTriGroup:
    return UniTriGroup(n, p)


# -- named subgroups -----------------------------------------------------------

@dataclass(frozen=True)
class NamedSubgroup:
    parent: UniTriGroup
    kind: str           # "Z", "P" or "M"
    k: Optional[int] = None

    def contains(self, U: UniTriMatrix) -> bool:
        m = self.parent.n
        if self.kind == "Z":
            return all(U.entry(i, j) == 0 for (i, j) in _positions(m)
                       if (i, j) != (1, m))
        if self.kind == "P":
            return all(U.entry(i, j) == 0 for (i, j) in _positions(m)
                       if j - i in (1, 2))
        if self.kind == "M":
            return all(U.entry(i, j) == 0 for (i, j) in _positions(m)
                       if j <= m - 1 or (j == m and self.k <= i <= m - 1))
        raise BadParameter(f"unknown subgroup kind {self.kind!r}")

    def element_indices(self) -> list[int]:
        return [i for i, mat in enumerate(self.parent.elements())
                if self.contains(mat)]

    def order(self) -> int:
        return len(self.element_indices())


def named_subgroup(G: UniTriGroup, kind: str, k: Optional[int] = None) -> NamedSubgroup:
    if kind == "M":
        if k is None or not 1 <= k <= G.n - 1:
            raise BadParameter(f"M(k) needs 1 <= k <= {G.n - 1}, got {k}")
    elif kind not in ("Z", "P"):
        raise BadParameter(f"unknown subgroup kind {kind!r}")
    elif k is not None:
        raise BadParameter(f"{kind} takes no parameter")
    return NamedSubgroup(G, kind, k)


# -- coset quotients -----------------------------------------------------------

class CosetQuotient:
    """Quotient of a materialized group by a normal subgroup, with coset
    representatives of smallest element index."""

    def __init__(self, parent: FiniteGroup, normal: Sequence[int],
                 label: str = "Q", check_normal: bool = True):
        normal = sorted(set(normal))
        if 0 not in normal:
            raise BadParameter("normal subgroup must contain the identity")
        if check_normal:
            for g in parent.elements():
                for s in normal:
                    if parent.conjugate(g, s) not in set(normal):
                        raise BadParameter(
                            f"subgroup not normal: conj({g},{s}) escapes")
        coset_of = [-1] * parent.order
        reps: list[int] = []
        for x in parent.elements():
            if coset_of[x] >= 0:
                continue
            members = sorted(parent.mul[x][s] for s in normal)
            idx = len(reps)
            reps.append(members[0])
            for mmb in members:
                coset_of[mmb] = idx
        order = len(reps)
        table = [[coset_of[parent.mul[reps[a]][reps[b]]] for b in range(order)]
                 for a in range(order)]
        self.parent = parent
        self.normal = tuple(normal)
        self.reps = tuple(reps)
        self.coset_of = tuple(coset_of)
        gens = tuple(sorted({coset_of[g] for g in parent.generators} - {0})) \
            or ((1,) if order > 1 else ())
        self.group = _raw_group(table, gens, label,
                                meta={"kind": "coset-quotient"})

    def project(self) -> GroupHom:
        return GroupHom(self.parent, self.group, self.coset_of)


@functools.cache
def zeta_kappa_targets(n: int, p: int):
    """The two quotients U_{n+1}(p)/Z and U_{n+1}(p)/P with the induced
    superdiagonal maps zeta, kappa onto (Z/p)^n.

    Returns ((quotZ, zeta), (quotP, kappa)).
    """
    U = unitri_group(n + 1, p)
    G = U.as_finite_group()
    phi = U.phi_hom()
    out = []
    for kind in ("Z", "P"):
        sub = named_subgroup(U, kind)
        quot = CosetQuotient(G, sub.element_indices(),
                             label=f"U{n + 1}({p})/{kind}", check_normal=False)
        # induced map: well-defined iff phi is constant on cosets
        images = [None] * quot.group.order
        for x in G.elements():
            c = quot.coset_of[x]
            v = phi(x)
            if images[c] is None:
                images[c] = v
            elif images[c] != v:
                raise BadParameter(
                    f"superdiagonal map not constant on cosets of {kind}")
        induced = GroupHom(quot.group, phi.codomain, tuple(images))
        out.append((quot, induced))
    return out[0], out[1]


# -- fiber-product quotients Q_{k,m} ------------------------------------------

class FiberQuotient:
    """U_m(p)/M_{k,m} realized as pairs (A, B) with A in U_{m-1}(p),
    B in U_{m+1-k}(p) agreeing on the overlapping (m-k)-block; obtain it
    through `fiber_quotient`, which builds one instance per (k, m, p)."""

    def __init__(self, k: int, m: int, p: int):
        if not 1 <= k <= m - 1:
            raise BadParameter(f"need 1 <= k <= {m - 1}, got {k}")
        self.k, self.m, self.p = k, m, p
        self.left = unitri_group(m - 1, p)
        self.right = unitri_group(m + 1 - k, p)
        if not (self.left.materializable() and self.right.materializable()):
            raise SizeLimit(f"Q_{{{k},{m}}}({p}) factors exceed the bound")
        overlap = m - k
        pairs = []
        for A in self.left.elements():
            keyA = A.block_lower_right(overlap).entries
            for B in self.right.elements():
                if B.block_upper_left(overlap).entries == keyA:
                    pairs.append((A, B))
        self.pairs = pairs
        self._index = {(A.entries, B.entries): i
                       for i, (A, B) in enumerate(pairs)}
        self.order = len(pairs)
        if self.order > CONTAINER_LIMIT:
            raise SizeLimit(f"|Q_{{{k},{m}}}({p})| = {self.order}")
        table = [[self._index[((Ax.mul(Ay)).entries, (Bx.mul(By)).entries)]
                  for (Ay, By) in pairs] for (Ax, Bx) in pairs]
        # generators: images of U_m's superdiagonal elementaries
        Um = unitri_group(m, p)
        gens = tuple(sorted({self.from_parent(Um.elementary(i, i + 1))
                             for i in range(1, m)} - {0}))
        self.group = _raw_group(table, gens or ((1,) if self.order > 1 else ()),
                                f"Q({k},{m};{p})",
                                meta={"kind": "fiber-quotient",
                                      "k": k, "m": m, "p": p})

    def from_parent(self, U: UniTriMatrix) -> int:
        """The quotient map U_m(p) -> Q_{k,m}."""
        if U.n != self.m or U.p != self.p:
            raise BadParameter("matrix does not live in the parent group")
        return self._index[(U.block_upper_left(self.m - 1).entries,
                            U.block_lower_right(self.m + 1 - self.k).entries)]

    @functools.cache
    def parent_quotient_hom(self) -> GroupHom:
        Um = unitri_group(self.m, self.p)
        G = Um.as_finite_group()
        return GroupHom(G, self.group,
                        tuple(self.from_parent(mat) for mat in Um.elements()))

    def entry_of(self, idx: int, i: int, j: int) -> int:
        """Entry e_{ij} of any parent-coset representative; defined exactly
        for the entries constant on M_{k,m}-cosets (all (i,j) with j < m,
        plus (i,m) for i >= k)."""
        A, B = self.pairs[idx]
        if j <= self.m - 1:
            return A.entry(i, j)
        if i >= self.k:
            off = self.k - 1
            return B.entry(i - off, j - off)
        raise IndexOutOfRange(
            f"entry ({i},{j}) is not constant on cosets of M_{{{self.k},{self.m}}}")

    @functools.cache
    def phi_hom(self) -> GroupHom:
        """Induced superdiagonal map onto (Z/p)^(m-1)."""
        target = build_vector_group(self.p, self.m - 1)
        images = tuple(vec_to_index(self.p,
                                    [self.entry_of(x, i, i + 1)
                                     for i in range(1, self.m)])
                       for x in range(self.order))
        return GroupHom(self.group, target, images)

    # rho / iota -------------------------------------------------------------

    def rho_target(self) -> "FiberQuotient":
        if self.k > self.m - 2:
            raise BadParameter(f"rho undefined for k = {self.k}, m = {self.m}")
        return fiber_quotient(self.k + 1, self.m, self.p)

    @functools.cache
    def rho_hom(self) -> GroupHom:
        tgt = self.rho_target()
        images = []
        for (A, B) in self.pairs:
            images.append(tgt._index[(A.entries,
                                      B.block_lower_right(self.m - self.k).entries)])
        return GroupHom(self.group, tgt.group, tuple(images))

    def iota(self, idx: int) -> int:
        """Identify Ker(rho_{k,m}) with Z/p via (I, B) -> e_{1,m+1-k}(B)."""
        A, B = self.pairs[idx]
        if not A.is_identity() or \
                not named_subgroup(self.right, "Z").contains(B):
            raise NotInKernel(f"element {idx} is not in Ker(rho)")
        return B.entry(1, self.m + 1 - self.k)

    def iota_inv(self, c: int) -> int:
        A = identity_matrix(self.m - 1, self.p)
        B = self.right.elementary(1, self.m + 1 - self.k, c % self.p) \
            if c % self.p else identity_matrix(self.m + 1 - self.k, self.p)
        return self._index[(A.entries, B.entries)]

    def kernel_of_rho(self) -> list[int]:
        rho = self.rho_hom()
        return rho.kernel()

    # block-shift maps ---------------------------------------------------------

    def drop_to(self, k_target: int):
        """The map Q_{k,m} -> Q_{k_target, m - (k - k_target)} induced by
        taking lower-right blocks; covers both vertical arrows of the
        twisting square (k_target = 1 and 2)."""
        if not 1 <= k_target < self.k:
            raise BadParameter(f"target index {k_target} must be below {self.k}")
        m2 = self.m - (self.k - k_target)
        tgt = fiber_quotient(k_target, m2, self.p)
        images = []
        for (A, B) in self.pairs:
            images.append(tgt._index[(A.block_lower_right(m2 - 1).entries,
                                      B.entries)])
        return tgt, GroupHom(self.group, tgt.group, tuple(images))


@functools.cache
def fiber_quotient(k: int, m: int, p: int) -> FiberQuotient:
    return FiberQuotient(k, m, p)


# -- central series of Ker(phi) ------------------------------------------------

def central_series_ker_phi(n: int, p: int):
    """Central filtration {1} = N_0 < N_1 < ... < N_L = Ker(phi_{n+1})
    inside U_{n+1}(p), refining the weight filtration: positions of span
    >= 2 are adjoined one at a time, largest span first.

    Returns (chain, positions) where chain is a list of element-index sets
    of the materialized U_{n+1}(p) and positions is the adjoin order.
    """
    U = unitri_group(n + 1, p)
    elems = U.elements()
    order = [(i, j) for span in range(n, 1, -1)
             for (i, j) in _positions(n + 1) if j - i == span]
    pidx = _pos_index(n + 1)

    def supported(mat, allowed):
        return all(mat.entries[pidx[pos]] == 0
                   for pos in _positions(n + 1)
                   if pos not in allowed)

    chain = []
    for t in range(len(order) + 1):
        allowed = set(order[:t])
        chain.append({i for i, mat in enumerate(elems)
                      if supported(mat, allowed)})
    return chain, order
