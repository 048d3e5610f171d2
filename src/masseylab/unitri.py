"""Unitriangular matrix groups U_n(p) and the subgroup/quotient machinery
built on them: the subgroups Z, P, M(k) and the central series of
Ker(phi), each named by its zero positions, U_n(p) modulo them from the
product plan, U/Z and U/P with induced superdiagonal maps, and the
fiber-product realization of U_m(p)/M_{k,m}.

Matrix entries use textbook 1-based (i, j) indexing; strictly-upper
entries are stored packed in row-major order.
"""

from __future__ import annotations

import functools
from array import array
from typing import Callable, Optional, Sequence

from .errors import (
    BadParameter,
    IndexOutOfRange,
    NotInKernel,
    ParseError,
    SizeLimit,
)
from .gfp import check_prime
from .groups import CONTAINER_LIMIT, CosetQuotient, FiniteGroup, GroupHom, \
    Value, build_vector_group, group_from_action, index_to_vec, vec_to_index


@functools.cache
def _positions(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@functools.cache
def _pos_index(n: int) -> dict:
    return {pos: idx for idx, pos in enumerate(_positions(n))}


@functools.cache
def _superdiagonal(n: int) -> tuple[int, ...]:
    """The packed positions (1, 2), (2, 3), ..., (n-1, n), ascending."""
    return tuple(_pos_index(n)[(i, i + 1)] for i in range(1, n))


@functools.cache
def _product_plan(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The product rule of U_n(p), (AB)_ij = a_ij + b_ij + sum_k a_ik b_kj:
    for each packed position (i, j), the packed positions of its (i, k),
    (k, j) factor pairs, i < k < j.  It is the one statement of the rule;
    `_product`, the table closure of `position_quotient` and the table-free
    order-2 search of `embedding.find_order2_preimage` read it."""
    pidx = _pos_index(n)
    return tuple(tuple((pidx[(i, k)], pidx[(k, j)]) for k in range(i + 1, j))
                 for (i, j) in _positions(n))


def _product(a, b, plan, p: int) -> list:
    """The product rule of U_n(p) on packed entries:
    (AB)_ij = a_ij + b_ij + sum_k a_ik b_kj."""
    out = []
    for t, terms in enumerate(plan):
        v = a[t] + b[t]
        for s, u in terms:
            v += a[s] * b[u]
        out.append(v % p)
    return out


def position_quotient(n: int, p: int, kept: Sequence[int],
                      label: str) -> FiniteGroup:
    """U_n(p) modulo the subgroup that is 0 at the packed positions kept,
    each element its entries at kept read as base-p digits, first digit
    most significant.  Raises BadParameter unless the plan of every kept
    position reads only kept positions, exactly when reading the kept
    digits is a homomorphism.  By the product rule x*(I + e_q) differs
    from x by 1 at q, and by x_s at each t whose plan terms include the
    pair (s, q), mod p.  Each generator's column is one array('H')."""
    plan = _product_plan(n)
    place = {t: p ** (len(kept) - 1 - d) for d, t in enumerate(kept)}
    if any(s not in place or u not in place for t in kept for s, u in plan[t]):
        raise BadParameter(f"the product rule of U_{n}({p}) at the kept "
                           f"positions {tuple(kept)} reads other positions")
    order = p ** len(kept)
    if order > CONTAINER_LIMIT:
        raise SizeLimit(f"|{label}| = {order} > {CONTAINER_LIMIT}")
    own = [q for q in _superdiagonal(n) if q in place]
    # per generator: (place value of the added x_s, or None for the added
    # 1, place value of the digit it is added to, mod p), both read off x
    steps = [[(None, place[q])] + [(place[s], place[t]) for t in kept
                                   for s, u in plan[t] if u == q]
             for q in own]
    columns = [array("H", (x + sum(((x // dst + (x // src if src else 1)) % p
                                    - x // dst % p) * dst for src, dst in step)
                           for x in range(order))) for step in steps]
    return group_from_action(columns, order, [place[q] for q in own], label)


@functools.cache
def _block_positions(n: int, a: int, off: int) -> tuple[int, ...]:
    """Packed positions in U_n of the a-block with top-left corner at
    (off + 1, off + 1), in the block's own packed order."""
    if not 1 <= a <= n:
        raise IndexOutOfRange(f"block size {a} outside 1..{n}")
    pidx = _pos_index(n)
    return tuple(pidx[(off + i, off + j)] for (i, j) in _positions(a))


class UniTriMatrix(Value):
    """One element of U_n(p) as a matrix, for witnesses and for full-matrix
    oracles; inside the lab an element is its index in `UniTriGroup`."""
    __slots__ = ("n", "p", "entries")

    def __init__(self, n, p, entries):
        self.n, self.p = n, p
        self.entries = entries  # strictly-upper entries, row-major

    def _key(self) -> tuple:
        return self.n, self.p, self.entries

    def entry(self, i: int, j: int) -> int:
        return unitri_group(self.n, self.p).entry_of(
            vec_to_index(self.p, self.entries), i, j)

    def mul(self, other: "UniTriMatrix") -> "UniTriMatrix":
        if (self.n, self.p) != (other.n, other.p):
            raise BadParameter("matrix sizes/moduli differ")
        return UniTriMatrix(self.n, self.p, tuple(_product(
            self.entries, other.entries, _product_plan(self.n), self.p)))

    def phi(self) -> tuple:
        """Superdiagonal vector (e_12, e_23, ..., e_{n-1,n})."""
        return tuple(self.entry(i, i + 1) for i in range(1, self.n))

    def is_identity(self) -> bool:
        return not any(self.entries)


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


# -- the group U_n(p) ----------------------------------------------------------

class UniTriGroup:
    """U_n(p), whose elements are indices: the index of an element is its
    packed strictly-upper entries read as base-p digits, first digit most
    significant, so index 0 is the identity.  Obtain it through
    `unitri_group`, which builds one instance per (n, p)."""

    def __init__(self, n: int, p: int):
        if n < 1:
            raise BadParameter(f"size {n} must be >= 1")
        check_prime(p)
        self.n = n
        self.p = p
        self.num_entries = n * (n - 1) // 2
        self.order = p ** self.num_entries
        # the place value of each packed position in an index
        self.weights = tuple(p ** (self.num_entries - 1 - t)
                             for t in range(self.num_entries))

    def materializable(self) -> bool:
        return self.order <= CONTAINER_LIMIT

    def elements(self) -> range:
        if not self.materializable():
            raise SizeLimit(
                f"|U_{self.n}({self.p})| = {self.order} > {CONTAINER_LIMIT}")
        return range(self.order)

    def matrix_of(self, idx: int) -> UniTriMatrix:
        if not 0 <= idx < self.order:
            raise IndexOutOfRange(f"element {idx} not in U_{self.n}({self.p})")
        return UniTriMatrix(self.n, self.p,
                            index_to_vec(self.p, self.num_entries, idx))

    def index_from(self, entry: Callable[[int, int], int]) -> int:
        """Index of the element whose (i, j) entry is entry(i, j)."""
        return vec_to_index(self.p, [entry(i, j) for (i, j) in _positions(self.n)])

    def read(self, idx: int, positions: Sequence[int]) -> int:
        """Entries of element idx at the given packed positions, read as
        base-p digits, first digit most significant."""
        x, p, w = 0, self.p, self.weights
        for t in positions:
            x = x * p + idx // w[t] % p
        return x

    def entry_of(self, idx: int, i: int, j: int) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRange(f"({i},{j}) outside a {self.n}x{self.n} matrix")
        if i >= j:
            return int(i == j)
        return idx // self.weights[_pos_index(self.n)[(i, j)]] % self.p

    def upper_left(self, idx: int, a: int) -> int:
        """Index in U_a(p) of the upper-left a-block of element idx."""
        return self.read(idx, _block_positions(self.n, a, 0))

    def lower_right(self, idx: int, a: int) -> int:
        """Index in U_a(p) of the lower-right a-block of element idx."""
        return self.read(idx, _block_positions(self.n, a, self.n - a))

    def vanishing_on(self, positions: Sequence[int]) -> list[int]:
        """The elements whose entries at the given packed positions are all
        0, ascending."""
        return [x for x in self.elements() if self.read(x, positions) == 0]

    @functools.cache
    def as_finite_group(self) -> FiniteGroup:
        """The multiplication table: U_n(p) with every position kept."""
        return position_quotient(self.n, self.p, range(self.num_entries),
                                 f"U{self.n}({self.p})")

    def elementary_index(self, i: int, j: int, v: int = 1) -> int:
        """Index of the elementary matrix I + v e_ij, read off the weights."""
        return v % self.p * self.weights[_pos_index(self.n)[(i, j)]]

    @functools.cache
    def phi_hom(self) -> GroupHom:
        """The superdiagonal map as a hom onto (Z/p)^(n-1)."""
        G = self.as_finite_group()
        superdiagonal = _superdiagonal(self.n)
        images = tuple(self.read(x, superdiagonal) for x in G.elements())
        return GroupHom(G, build_vector_group(self.p, self.n - 1), images)


@functools.cache
def unitri_group(n: int, p: int) -> UniTriGroup:
    return UniTriGroup(n, p)


# -- subgroups, named by their zero positions ----------------------------------

def zero_positions(m: int, kind: str, k: Optional[int] = None) -> tuple[int, ...]:
    """The packed positions of U_m(p) where every member of the subgroup
    has entry 0, for any p: Z (the center, all but (1, m)), P (the spans 1
    and 2) or M(k) (all of columns 1..m-1, and (i, m) for i >= k).
    `UniTriGroup.vanishing_on` lists the members."""
    if kind == "M":
        if k is None or not 1 <= k <= m - 1:
            raise BadParameter(f"M(k) needs 1 <= k <= {m - 1}, got {k}")
        zero = lambda i, j: j < m or i >= k
    elif kind not in ("Z", "P"):
        raise BadParameter(f"unknown subgroup kind {kind!r}")
    elif k is not None:
        raise BadParameter(f"{kind} takes no parameter")
    elif kind == "Z":
        zero = lambda i, j: (i, j) != (1, m)
    else:
        zero = lambda i, j: j - i in (1, 2)
    return tuple(t for t, (i, j) in enumerate(_positions(m)) if zero(i, j))


# -- the quotients U/Z and U/P ------------------------------------------------

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
        quot = CosetQuotient(G, U.vanishing_on(zero_positions(n + 1, kind)),
                             label=f"U{n + 1}({p})/{kind}")
        out.append((quot, quot.induced(phi)))
    return out[0], out[1]


# -- fiber-product quotients Q_{k,m} ------------------------------------------

class FiberQuotient:
    """U_m(p)/M_{k,m}: a coset is its entries at the kept positions, the
    upper-left (m-1)-block's and then (k, m), ..., (m-1, m), read as base-p
    digits, which numbers the fiber product of U_{m-1}(p) and U_{m+1-k}(p)
    a-major; obtain it through `fiber_quotient`, which builds one instance
    per (k, m, p).  Its table is closed from one column per image of a
    superdiagonal generator of U_m(p), each cell one matrix product."""

    def __init__(self, k: int, m: int, p: int):
        if not 1 <= k <= m - 1:
            raise BadParameter(f"need 1 <= k <= {m - 1}, got {k}")
        self.k, self.m, self.p = k, m, p
        self.parent = Um = unitri_group(m, p)
        self.kept = _block_positions(m, m - 1, 0) + tuple(
            _pos_index(m)[(i, m)] for i in range(k, m))
        self.order = p ** len(self.kept)
        if self.order > CONTAINER_LIMIT:
            raise SizeLimit(f"|Q_{{{k},{m}}}({p})| = {self.order}")
        # generators: images of U_m's superdiagonal elementaries
        gens = tuple(sorted({self.from_parent(Um.weights[q])
                             for q in _superdiagonal(m)} - {0}))
        mats = [Um.matrix_of(self.lift(x)) for x in range(self.order)]
        columns = [[self.from_parent(vec_to_index(p, X.mul(mats[g]).entries))
                    for X in mats] for g in gens]
        self.group = group_from_action(columns, self.order, gens,
                                       f"Q({k},{m};{p})")

    def from_parent(self, idx: int) -> int:
        """The quotient map U_m(p) -> Q_{k,m} on element indices."""
        return self.parent.read(idx, self.kept)

    def lift(self, x: int) -> int:
        """The coset representative of x in U_m(p) that is 0 on M_{k,m}."""
        idx, w = 0, self.parent.weights
        for t in reversed(self.kept):
            x, d = divmod(x, self.p)
            idx += d * w[t]
        return idx

    def index_of(self, a: int, b: int) -> int:
        """The element of the fiber product with blocks a in U_{m-1}(p) and
        b in U_{m+1-k}(p): a, then b's last-column digits."""
        overlap, n = self.m - self.k, self.m + 1 - self.k
        left, right = unitri_group(self.m - 1, self.p), unitri_group(n, self.p)
        if left.lower_right(a, overlap) != right.upper_left(b, overlap):
            raise BadParameter(f"blocks {a} and {b} differ on the overlap")
        last = [_pos_index(n)[(i, n)] for i in range(1, n)]
        return a * self.p ** overlap + right.read(b, last)

    @functools.cache
    def parent_quotient_hom(self) -> GroupHom:
        G = self.parent.as_finite_group()
        return GroupHom(G, self.group,
                        tuple(self.from_parent(x) for x in G.elements()))

    @functools.cache
    def phi_hom(self) -> GroupHom:
        """Induced superdiagonal map onto (Z/p)^(m-1)."""
        target = build_vector_group(self.p, self.m - 1)
        superdiagonal = _superdiagonal(self.m)
        images = tuple(self.parent.read(self.lift(x), superdiagonal)
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
        images = tuple(tgt.from_parent(self.lift(x)) for x in range(self.order))
        return GroupHom(self.group, tgt.group, images)

    def iota(self, idx: int) -> int:
        """Identify Ker(rho_{k,m}) with Z/p via I + c e_{k,m} -> c."""
        x = self.lift(idx)
        c = self.parent.entry_of(x, self.k, self.m)
        if x != self.parent.elementary_index(self.k, self.m, c):
            raise NotInKernel(f"element {idx} is not in Ker(rho)")
        return c

    def iota_inv(self, c: int) -> int:
        return self.from_parent(self.parent.elementary_index(self.k, self.m, c))

    def kernel_of_rho(self) -> list[int]:
        return self.rho_hom().kernel()

    # block-shift maps ---------------------------------------------------------

    def drop_to(self, k_target: int):
        """The map Q_{k,m} -> Q_{k_target, m - (k - k_target)} induced by
        taking lower-right blocks; covers both vertical arrows of the
        twisting square (k_target = 1 and 2)."""
        if not 1 <= k_target < self.k:
            raise BadParameter(f"target index {k_target} must be below {self.k}")
        m2 = self.m - (self.k - k_target)
        tgt = fiber_quotient(k_target, m2, self.p)
        images = tuple(tgt.from_parent(self.parent.lower_right(self.lift(x), m2))
                       for x in range(self.order))
        return tgt, GroupHom(self.group, tgt.group, images)


@functools.cache
def fiber_quotient(k: int, m: int, p: int) -> FiberQuotient:
    return FiberQuotient(k, m, p)


# -- central series of Ker(phi) ------------------------------------------------

def central_series_ker_phi(n: int):
    """Central filtration {1} = N_0 < N_1 < ... < N_L = Ker(phi_{n+1})
    inside U_{n+1}(p), refining the weight filtration: positions of span
    >= 2 are adjoined one at a time, largest span first.  It is the same
    for every p, and builds no table.

    Returns (chain, positions) where chain[t] is the zero positions of N_t
    (`UniTriGroup.vanishing_on` lists its members) and positions is the
    adjoin order.
    """
    positions = _positions(n + 1)
    order = [(i, j) for span in range(n, 1, -1)
             for (i, j) in positions if j - i == span]
    chain = [tuple(s for s, pos in enumerate(positions)
                   if pos not in order[:t])
             for t in range(len(order) + 1)]
    return chain, order
