"""Finite groups as multiplication tables and their coset quotients, plus
the homomorphism search engine used by every embedding-problem solver.

Conventions: elements are the indices 0..N-1, index 0 is the identity, and
each row of a table is an array('H') of indices, 2 bytes a cell.  Every
group is closed from its generators' right action, accepted exactly when
it is a group's right regular action, and builds a row the first time
something reads it (`Rows`); a table given whole is checked, then closed
from its generators' columns.  An action is one column per listed
generator, columns[s][x] = x*g_s.  `FULL_GROUP_LIMIT` (64) caps a table
given whole, and `CONTAINER_LIMIT` (4096) every group closed from an action.
"""

from __future__ import annotations

import functools
import itertools
import operator
import struct
from array import array
from typing import Iterator, Optional, Sequence

from .errors import (
    BadParameter,
    GeneratorsDontGenerate,
    IndexOutOfRange,
    NoIdentity,
    NoInverse,
    NonAssociative,
    NotAHomomorphism,
    ParseError,
    SizeLimit,
)

FULL_GROUP_LIMIT = 64
CONTAINER_LIMIT = 4096


class Value:
    """Equality and hash over the tuple `_key()`, for the types that callers
    compare or use as cache keys; other classes compare by identity."""
    __slots__ = ()

    def __eq__(self, other):
        return other is self or \
            type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class FiniteGroup(Value):
    __slots__ = ("order", "mul", "inv", "generators", "label", "action",
                 "_orders", "_hash")

    def __init__(self, order, mul, inv, generators, label, action):
        # mul[x][y]: the `Rows` of the table; action[s][x] = x*g_s, one
        # array('H') column per listed generator
        self.order, self.mul, self.inv = order, mul, inv
        self.generators, self.label, self.action = generators, label, action
        self._orders = {}
        # hashed once: each functools.cache lookup keyed on a group hashes
        # it; equal tables have equal inverses
        self._hash = hash((order, inv))

    def _key(self) -> tuple:
        # the action of generators that generate fixes the table
        return self.order, self.generators, self.action, self.label

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, x: int) -> int:
        """The order of x, found once per element: its powers are read off
        row x when that row is built, and otherwise each power is the last
        one multiplied on the right along x's tree path.  Raises NoInverse
        when none of the first `order` powers is the identity."""
        if not 0 <= x < self.order:
            raise IndexOutOfRange(f"element {x} not in group of order {self.order}")
        k = self._orders.get(x)
        if k is None:
            mul = self.mul
            steps = [mul[x]] if x in mul else mul.path(x)
            k, y = 1, x
            while y != 0:
                if k == self.order:
                    raise NoInverse(f"no power of element {x} is the identity")
                for step in steps:
                    y = step[y]
                k += 1
            self._orders[x] = k
        return k

    def involutions(self) -> list[int]:
        return [x for x in range(1, self.order) if self.inv[x] == x]

    def is_abelian(self) -> bool:
        m = self.mul
        return all(m[x][y] == m[y][x]
                   for x in self.elements() for y in range(x))

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def fingerprint(self) -> str:
        import hashlib  # here, not at module level: it loads OpenSSL
        h = hashlib.sha256()
        h.update(str(self.order).encode())
        for row in self.mul:
            h.update(bytes(str(tuple(row)), "ascii"))
        h.update(bytes(str(tuple(self.generators)), "ascii"))
        return h.hexdigest()[:16]

    def __hash__(self):
        return self._hash


class Rows(dict):
    """The rows of a table closed by `table_from_action`, each built the
    first time it is read: rows[x] is left multiplication by x, an
    array('H').  Row y, reached first as x*g_s, is row x read at g_s*z for
    each z, so a missing row is gathered from its tree parent's row, which
    is built first when it is missing too.  A dict, so reading a row that
    is built is a C-level subscript; iterated, it yields every row in index
    order, and it compares row for row with another `Rows`."""
    __slots__ = ("order", "columns", "parent", "step", "left", "_gathers",
                 "_pack", "_blank")

    def __init__(self, columns, parent, step, left):
        n = self.order = len(parent)
        # columns[s][x] = x*g_s and left[s][x] = g_s*x; y = parent[y]*g_s
        # with s = step[y], for each y != 0
        self.columns, self.parent, self.step, self.left = \
            columns, parent, step, left
        self._gathers = [operator.itemgetter(*lf) for lf in left]
        self._pack, self._blank = struct.Struct(f"{n}H").pack, \
            array("H", [0]) * n
        self[0] = array("H", range(n))

    def __missing__(self, y):
        if not 0 <= y < self.order:
            raise IndexError(f"row {y} of a table of order {self.order}")
        path = []
        while y not in self:
            path.append(y)
            y = self.parent[y]
        row = self[y]
        for y in reversed(path):
            # a copy of blank is allocated at its exact size, where
            # array("H", bytes) over-allocates by about 6 %
            row, cells = self._blank[:], self._gathers[self.step[y]](row)
            memoryview(row).cast("B")[:] = self._pack(*cells)
            self[y] = row
        return row

    def path(self, x: int) -> list[array]:
        """The columns of the generators along x's tree path, from the
        identity: y*x is y carried through them in turn."""
        steps = []
        while x:
            steps.append(self.columns[self.step[x]])
            x = self.parent[x]
        steps.reverse()
        return steps

    def __iter__(self):
        return map(self.__getitem__, range(self.order))

    def __len__(self):
        return self.order

    def __eq__(self, other):
        return type(other) is Rows and list(self) == list(other)

    def __ne__(self, other):
        return not self == other


def find_generators(mul) -> tuple:
    """Greedy minimal generating set: repeatedly adjoin the first element
    outside the current closure. Deterministic."""
    n, gens, columns, covered = len(mul), [], [], {0}
    while len(covered) < n:
        gens.append(next(i for i in range(n) if i not in covered))
        columns.append([row[gens[-1]] for row in mul])
        covered = set(_walk(columns, n)[0])
    return tuple(gens)


def _walk(columns, n: int) -> tuple[list[int], array, array]:
    """Breadth-first walk from the identity over the right action
    columns[s][x] = x*g_s: the elements in the order reached, and for each
    element y != 0 reached the (parent[y], step[y]) = (x, s) of the edge
    y = x*g_s on which it was first reached."""
    seen = bytearray(n)
    seen[0] = 1
    parent, step = array("H", [0]) * n, array("H", [0]) * n
    reached = [0]
    for x in reached:
        for s, col in enumerate(columns):
            y = col[x]
            if not seen[y]:
                seen[y] = 1
                parent[y], step[y] = x, s
                reached.append(y)
    return reached, parent, step


def _span(columns, n: int, generators) -> list[int]:
    """The elements `_walk` reaches over the listed generators' columns;
    raises GeneratorsDontGenerate unless they are all n."""
    reached = _walk(columns, n)[0]
    if len(reached) != n:
        raise GeneratorsDontGenerate(
            f"generators {tuple(generators)} span only {len(reached)} of "
            f"{n} elements")
    return reached


@functools.cache
def _edges(G: FiniteGroup) -> tuple[tuple[int, int, int], ...]:
    """The breadth-first edges of G over its listed generators, walked once
    per group on their stored action; raises GeneratorsDontGenerate, on
    every call, unless they reach every element."""
    reached = _span(G.action, G.order, G.generators)
    return tuple((x, s, col[x]) for x in reached
                 for s, col in enumerate(G.action))


def _extend(edges, hmul, gen_images, order) -> Optional[tuple]:
    """The hom law on the edge list: f(1) = 1 and f(x*g_s) = f(x)*h_s on
    every edge. Returns the images of the one map with f(g_s) = h_s that
    obeys it, or None at the first edge that breaks it."""
    f = [-1] * order
    f[0] = 0
    for x, s, y in edges:
        v = hmul[f[x]][gen_images[s]]
        w = f[y]
        if w < 0:
            f[y] = v
        elif w != v:
            return None
    return tuple(f)


def table_from_action(columns, order: int) -> tuple[Rows, tuple[int, ...]]:
    """The multiplication table of a group of the given order from its
    generators' right action, columns[s][x] = x*g_s, with index 0 the
    identity, and the inverse of each element.  The rows are built on
    demand (`Rows`) from the breadth-first tree and left multiplication by
    each generator: row x is left multiplication by x, and row(x*g) is
    row(x) read at g*y for each y.

    Left multiplication by g_s is read along the tree, g_s*1 = g_s and
    g_s*(x*g_t) = (g_s*x)*g_t, and must commute with every column, one
    C-level gather of each composite per pair.  That accepts exactly the
    right regular actions of groups: a map that commutes with a transitive
    permutation group lies in its centralizer, which is semiregular; the
    rows these maps compose send 1 to every element, so the centralizer is
    regular, and then so is the columns' group (Dixon and Mortimer,
    Permutation Groups, GTM 163, Thm 4.2A).  The inverse of x*g_s,
    g_s^-1 * x^-1, is x^-1 read through the inverse of left multiplication
    by g_s.  Raises BadParameter unless each column is a permutation of
    0..order-1 and commutes with each left multiplication, and
    GeneratorsDontGenerate unless the walk reaches every element."""
    n = order
    if n > CONTAINER_LIMIT:
        raise SizeLimit(f"order {n} exceeds {CONTAINER_LIMIT}")
    columns = tuple(array("H", col) for col in columns)
    if any(sorted(col) != list(range(n)) for col in columns):
        raise BadParameter(f"a column of the action does not have {n} "
                           f"entries, 0..{n - 1} each once")
    reached, parent, step = _walk(columns, n)
    if len(reached) != n:
        raise GeneratorsDontGenerate(
            f"the action of {len(columns)} generators spans only "
            f"{len(reached)} of {n} elements")
    lefts = []
    for first in columns:
        left = array("H", [first[0]]) * n
        for y in itertools.islice(reached, 1, None):
            left[y] = columns[step[y]][left[parent[y]]]
        lefts.append(left)
    rows = Rows(columns, parent, step, lefts)
    reads = [operator.itemgetter(*col) for col in columns]
    for left, gather in zip(lefts, rows._gathers):
        if any(read(left) != gather(col) for read, col in zip(reads, columns)):
            raise BadParameter("the action is not a group's regular action")
    left_inverses = [sorted(range(n), key=left.__getitem__) for left in lefts]
    inv = [0] * n
    for y in itertools.islice(reached, 1, None):
        inv[y] = left_inverses[step[y]][inv[parent[y]]]
    return rows, tuple(inv)


def group_from_action(columns, order: int, generators,
                      label: str) -> FiniteGroup:
    """The group whose listed generators g_s act on the right by
    columns[s][x] = x*g_s, its table closed by `table_from_action`.  Raises
    BadParameter unless 1*g_s, the first cell of each column, is g_s: the
    table's rows commute with the columns, so column s is then right
    multiplication by g_s."""
    rows, inv = table_from_action(columns, order)
    for s, g in enumerate(generators):
        if rows.columns[s][0] != g:
            raise BadParameter(f"column {s} of the action is not right "
                               f"multiplication by element {g}")
    return _raw_group(rows, generators, label, inv)


def _raw_group(rows: Rows, generators, label: str, inv) -> FiniteGroup:
    """The group of the rows closed by `table_from_action`, with the
    inverses read on the way; its action is the columns the rows keep."""
    return FiniteGroup(len(rows), rows, inv, tuple(generators), label,
                       rows.columns)


def validate_group(mul, generators) -> list[list[int]]:
    """The one validity check of the rows mul of a table given whole, in
    this order: every element has a right inverse, which in a finite monoid
    is two-sided; index 0 is the identity; the listed generators generate;
    and Light's test passes.  Returns the listed generators' columns.

    Light's test: (x*g)*y = x*(g*y) for all x, y and each listed g, one
    gather of row(x) by row(g) per (x, g).  The g that pass contain the
    identity and are closed under products, as (x*ab)*y = ((x*a)*b)*y =
    (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y), so once the generators
    generate, every element passes and the table is associative (Clifford
    and Preston, The Algebraic Theory of Semigroups I, 1961)."""
    n, rows = len(mul), [tuple(row) for row in mul]
    for x, row in enumerate(rows):
        if 0 not in row:
            raise NoInverse(f"element {x} has no inverse")
    for x in range(n):
        if rows[0][x] != x or rows[x][0] != x:
            raise NoIdentity(f"index 0 is not an identity at element {x}")
    columns = [[row[g] for row in rows] for g in generators]
    _span(columns, n, generators)
    # the identity passes, and a one-cell row would gather to a bare index
    for g in filter(None, generators):
        gather = operator.itemgetter(*rows[g])
        for x, row in enumerate(rows):
            if gather(row) != rows[row[g]]:
                y = next(y for y in range(n)
                         if rows[row[g]][y] != row[rows[g][y]])
                raise NonAssociative(f"({x}*{g})*{y} != {x}*({g}*{y})")
    return columns


def build_from_table(table, generators=None, label="G") -> FiniteGroup:
    """The group of an N x N index table given whole, the identity
    relocated to index 0 when necessary, checked by `validate_group` and
    then closed from its listed generators' columns, so each row read is
    the given one."""
    n = len(table)
    if n > FULL_GROUP_LIMIT:
        raise SizeLimit(f"order {n} exceeds the full-group limit {FULL_GROUP_LIMIT}")
    table = [list(row) for row in table]
    for i, row in enumerate(table):
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise ParseError(f"row {i} is not a valid index row of length {n}")
    if generators is not None and any(not 0 <= g < n for g in generators):
        raise ParseError(f"generators {list(generators)} not all in 0..{n - 1}")
    ident = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise NoIdentity("no two-sided identity element")
    if ident != 0:
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0  # old index -> new index via swap
        table = [[perm[table[perm[i]][perm[j]]] for j in range(n)]
                 for i in range(n)]
        if generators is not None:
            generators = [perm[g] for g in generators]
    if generators is None:
        generators = find_generators(table)
    elif not generators:
        raise BadParameter("generators must be nonempty")
    return group_from_action(validate_group(table, generators), n,
                             generators, label)


def build_cyclic(n: int) -> FiniteGroup:
    if not 1 <= n <= CONTAINER_LIMIT:
        raise SizeLimit(f"cyclic order {n} out of range 1..{CONTAINER_LIMIT}")
    gens = (1,) if n > 1 else ()
    columns = [[(x + 1) % n for x in range(n)]] if n > 1 else []
    return group_from_action(columns, n, gens, f"Z{n}")


def build_direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """The pair (a, b) has index a*|H| + b; the generators are those of G,
    then those of H, each paired with the identity."""
    n = G.order * H.order
    if n > CONTAINER_LIMIT:
        raise SizeLimit(f"product order {n} exceeds {CONTAINER_LIMIT}")
    hn = H.order
    pairs = [divmod(x, hn) for x in range(n)]
    columns = [[G.mul[a][g] * hn + b for a, b in pairs]
               for g in G.generators] + \
        [[a * hn + H.mul[b][h] for a, b in pairs] for h in H.generators]
    gens = [g * hn for g in G.generators] + list(H.generators)
    return group_from_action(columns, n, gens, f"{G.label}x{H.label}")


@functools.cache
def build_vector_group(p: int, n: int) -> FiniteGroup:
    """(Z/p)^n with index = base-p digits, first coordinate most significant."""
    order = p ** n
    if order > CONTAINER_LIMIT:
        raise SizeLimit(f"(Z/{p})^{n} has order {order} > {CONTAINER_LIMIT}")
    gens = [p ** (n - 1 - i) for i in range(n)]
    # the i-th unit vector adds 1 to digit i, which wraps p - 1 to 0
    columns = [[x + w * (1 - p if x // w % p == p - 1 else 1)
                for x in range(order)] for w in gens]
    return group_from_action(columns, order, gens, f"(Z/{p})^{n}")


def vec_to_index(p: int, vec: Sequence[int]) -> int:
    x = 0
    for v in vec:
        x = x * p + v % p
    return x


def index_to_vec(p: int, n: int, x: int) -> tuple:
    out = []
    for _ in range(n):
        x, r = divmod(x, p)
        out.append(r)
    return tuple(reversed(out))


def build_semidirect_cyclic(l: int, k: int, p: int) -> FiniteGroup:
    """Z/l^k semidirect Z/l^k, the second factor acting by x -> p*x; the
    index of (a, b) is a * l^k + b, and (a1, b1)(a2, b2) =
    (a1 + p^b1 a2, b1 + b2).

    Multiplication by p must be an automorphism of Z/l^k whose order
    divides l^k, which holds whenever l | p-1 (the Demushkin-motivated
    case) and more generally whenever p^(l^k) = 1 mod l^k.
    """
    m = l ** k
    if m * m > CONTAINER_LIMIT:
        raise SizeLimit(f"order {m * m} exceeds {CONTAINER_LIMIT}")
    if p % l == 0 or pow(p, m, m) != 1 % m:
        raise BadParameter(
            f"x -> {p}*x mod {m} is not an order-dividing-{m} automorphism")
    pairs = [divmod(x, m) for x in range(m * m)]
    columns = [[(a + pow(p, b, m)) % m * m + b for a, b in pairs],  # (1, 0)
               [a * m + (b + 1) % m for a, b in pairs]]            # (0, 1)
    return group_from_action(columns, m * m, (m, 1), f"Z{m}:Z{m}(p={p})")


def build_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: r^i s^e has index i + n*e, and
    (r^i s^e) r = r^(i +- 1) s^e, (r^i s^e) s = r^i s^(1-e)."""
    order = 2 * n
    if order > CONTAINER_LIMIT:
        raise SizeLimit(f"order {order} exceeds {CONTAINER_LIMIT}")
    pairs = [divmod(x, n) for x in range(order)]
    times_r = [(i + 1 - 2 * e) % n + n * e for e, i in pairs]
    times_s = [i + n * (1 - e) for e, i in pairs]
    gens, columns = ((1, n), [times_r, times_s]) if n > 1 else \
        ((1,), [times_s])
    return group_from_action(columns, order, gens, f"D{n}")


def build_quaternion8() -> FiniteGroup:
    """Quaternion group on the elements 1, -1, i, -i, j, -j, k, -k, in that
    index order, generated by i and j."""
    times_i = [2, 3, 1, 0, 7, 6, 4, 5]  # x*i = i, -i, -1, 1, -k, k, j, -j
    times_j = [4, 5, 6, 7, 1, 0, 3, 2]  # x*j = j, -j, k, -k, -1, 1, -i, i
    return group_from_action([times_i, times_j], 8, (2, 4), "Q8")


def build_symmetric3() -> FiniteGroup:
    """S3 as permutations of {0,1,2} in lexicographic order of one-line
    notation, so the identity is index 0; a*b is i -> a[b[i]], and the
    generators are the transpositions (1 2) and (0 1), indices 1 and 2."""
    perms = sorted(itertools.permutations(range(3)))
    index = {q: i for i, q in enumerate(perms)}
    columns = [[index[tuple(a[i] for i in perms[g])] for a in perms]
               for g in (1, 2)]
    return group_from_action(columns, 6, (1, 2), "S3")


# -- homomorphisms ------------------------------------------------------------

class GroupHom(Value):
    __slots__ = ("domain", "codomain", "images", "_hash")

    def __init__(self, domain, codomain, images):
        self.domain, self.codomain, self.images = domain, codomain, images
        self._hash = hash(self._key())  # once, as a FiniteGroup's is

    def _key(self) -> tuple:
        return self.domain, self.codomain, self.images

    def __hash__(self):
        return self._hash

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_valid(self) -> bool:
        G = self.domain
        return _extend(_edges(G), self.codomain.mul, self.gen_images(),
                       G.order) == self.images

    def check(self) -> "GroupHom":
        if not self.is_valid():
            raise NotAHomomorphism(f"map {self.images} violates the hom law")
        return self

    def gen_images(self) -> tuple:
        return tuple(self.images[g] for g in self.domain.generators)

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.codomain.order

    def kernel(self) -> list[int]:
        return [x for x in self.domain.elements() if self.images[x] == 0]


class CosetQuotient:
    """Quotient of a group by a normal subgroup N, with coset
    representatives of smallest element index.  Each coset Nx is read off
    the rows of N's elements alone, BadParameter unless those rows keep N
    closed and Nx is xN at each generator x, and the table is closed from
    the right action of the images of the parent's generators, read off
    their columns."""

    def __init__(self, parent: FiniteGroup, normal: Sequence[int],
                 label: str = "Q"):
        normal = sorted(set(normal))
        if 0 not in normal:
            raise BadParameter("normal subgroup must contain the identity")
        rows = [parent.mul[z] for z in normal]
        members = set(normal)
        for z, row in zip(normal, rows):
            out = next((w for w in normal if row[w] not in members), None)
            if out is not None:
                raise BadParameter(f"{normal} is not a subgroup: "
                                   f"{z}*{out} = {row[out]} is outside it")
        for left in parent.mul.left:  # left[z] = g*z, with g = left[0]
            if {row[left[0]] for row in rows} != {left[z] for z in normal}:
                raise BadParameter(f"not normal: N*{left[0]} != {left[0]}*N")
        coset_of = [-1] * parent.order
        reps: list[int] = []
        for x in parent.elements():
            if coset_of[x] >= 0:
                continue
            members = sorted(row[x] for row in rows)
            idx = len(reps)
            reps.append(members[0])
            for mmb in members:
                coset_of[mmb] = idx
        self.parent = parent
        self.normal = tuple(normal)
        self.reps = tuple(reps)
        self.coset_of = tuple(coset_of)
        # each generator coset, with the column of the first parent
        # generator in it: r*g lies in the coset of r*rep for every g there
        columns = {}
        for g, col in zip(parent.generators, parent.action):
            columns.setdefault(coset_of[g], col)
        columns.pop(0, None)
        gens = tuple(sorted(columns))
        self.group = group_from_action(
            [[coset_of[columns[c][r]] for r in reps] for c in gens],
            len(reps), gens, label)

    def project(self) -> GroupHom:
        return GroupHom(self.parent, self.group, self.coset_of)

    def induced(self, f: GroupHom) -> GroupHom:
        """The map a hom f on the parent induces on the quotient, read at
        each coset's representative; well-defined, and returned, only when
        f vanishes on the normal subgroup."""
        if any(f(z) for z in self.normal):
            raise BadParameter(f"the map to {f.codomain.label} does not "
                               f"vanish on the kernel of {self.group.label}")
        return GroupHom(self.group, f.codomain,
                        tuple(f(r) for r in self.reps))


@functools.cache
def fibers(alpha: GroupHom) -> tuple:
    """fibers(alpha)[a]: the elements over a, ascending, computed once per
    map and shared by every search and section along it."""
    out: list[list[int]] = [[] for _ in alpha.codomain.elements()]
    for b in alpha.domain.elements():
        out[alpha(b)].append(b)
    return tuple(map(tuple, out))


def extend_hom(G: FiniteGroup, H: FiniteGroup,
               gen_images) -> Optional[GroupHom]:
    """The homomorphism G -> H sending G's listed generators to gen_images,
    or None when no homomorphism does."""
    images = _extend(_edges(G), H.mul, gen_images, G.order)
    return None if images is None else GroupHom(G, H, images)


def enumerate_homs(G: FiniteGroup, H: FiniteGroup, *,
                   fiber: Optional[tuple] = None) -> Iterator[GroupHom]:
    """All homomorphisms G -> H, as a deterministic stream.

    fiber: (alpha, forced) with alpha: H -> A and forced: G -> A; candidate
    images of each generator g are restricted to alpha^-1(forced(g)).

    Candidate generator images are tried in lexicographic order (generators
    in listed order, images in ascending element index); each tuple is
    extended along G's edge list and dropped at its first conflict.
    """
    candidates: list[list[int]] = []
    for g in G.generators:
        if fiber is None:
            cand = H.elements()
        else:
            alpha, forced = fiber
            cand = fibers(alpha)[forced(g)]
        # cheap order pruning
        og = G.element_order(g)
        candidates.append([h for h in cand if og % H.element_order(h) == 0])
    edges = _edges(G)
    for hs in itertools.product(*candidates):
        images = _extend(edges, H.mul, hs, G.order)
        if images is not None:
            yield GroupHom(G, H, images)


# -- group table file format ----------------------------------------------------

def numbered_lines(text: str) -> tuple[list[tuple[int, list[str]]], int]:
    """The one reader of group and query files: the (line number, tokens)
    of each line that is neither blank nor a `#` comment, numbered as in
    the file, and the file's last line (1 for an empty file), which an
    error about a missing line names."""
    numbered = list(enumerate(text.splitlines(), start=1))
    return ([(i, toks) for i, ln in numbered
             if (toks := ln.split()) and not toks[0].startswith("#")],
            len(numbered) or 1)


def parse_group_file(text: str, label="G") -> FiniteGroup:
    """Group file format: `order N`, `generators i j ...`, then N rows of N
    indices, read by `numbered_lines`."""
    lines, end = numbered_lines(text)
    line, toks = lines[0] if lines else (end, [])
    if len(toks) != 2 or toks[0] != "order":
        raise ParseError("expected `order N`", line=line)
    try:
        n = int(toks[1])
    except ValueError:
        raise ParseError("expected `order N`", line=line)
    if n < 1:
        raise ParseError(f"order {n} is below 1", line=line)
    gen_line, toks = lines[1] if len(lines) > 1 else (end, [])
    if toks[:1] != ["generators"]:
        raise ParseError("expected `generators i j ...`", line=gen_line)
    try:
        gens = [int(t) for t in toks[1:]]
    except ValueError:
        raise ParseError("bad generator list", line=gen_line)
    rows = lines[2:]
    if len(rows) != n:
        raise ParseError(f"expected {n} table rows, got {len(rows)}",
                         line=rows[n][0] if len(rows) > n else end)
    table = []
    for line, toks in rows:
        try:
            row = [int(t) for t in toks]
        except ValueError:
            raise ParseError("bad table row", line=line)
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}",
                             line=line)
        bad = [v for v in row if not 0 <= v < n]
        if bad:
            raise ParseError(f"entry {bad[0]} outside 0..{n - 1}", line=line)
        table.append(row)
    if any(not 0 <= g < n for g in gens):
        raise ParseError(f"generators {gens} not all in 0..{n - 1}",
                         line=gen_line)
    return build_from_table(table, gens or None, label=label)


def format_group_file(G: FiniteGroup) -> str:
    lines = [f"order {G.order}",
             "generators " + " ".join(str(g) for g in G.generators)]
    lines += [" ".join(str(v) for v in row) for row in G.mul]
    return "\n".join(lines) + "\n"
