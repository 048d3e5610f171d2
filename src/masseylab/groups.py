"""Finite groups as dense multiplication tables and their coset quotients,
plus the homomorphism search engine used by every embedding-problem solver.

Conventions: elements are the indices 0..N-1, index 0 is the identity, and
each row of a table is an array('H') of indices, 2 bytes a cell.
Full groups built through the public constructors are capped at order 64;
container groups (direct products, unitriangular groups, quotients) may go
up to 4096.
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
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class FiniteGroup(Value):
    __slots__ = ("order", "mul", "inv", "generators", "label", "_hash")

    def __init__(self, order, mul, inv, generators, label="G"):
        # mul[x][y]: each row an array('H') of element indices
        self.order, self.mul, self.inv = order, mul, inv
        self.generators, self.label = generators, label
        # hashed once: each functools.cache lookup keyed on a group hashes
        # it; the rows are arrays, which do not hash, and equal tables have
        # equal inverses
        self._hash = hash((order, inv))

    def _key(self) -> tuple:
        return self.order, self.mul, self.inv, self.generators, self.label

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise IndexOutOfRange(f"element {x} not in group of order {self.order}")
        k, y = 1, x
        while y != 0:
            y = self.mul[y][x]
            k += 1
        return k

    def involutions(self) -> list[int]:
        return [x for x in range(1, self.order) if self.mul[x][x] == 0]

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


def _inverses(mul) -> list[int]:
    """The right inverse of each element, read off its row.  In a finite
    monoid a right inverse is two-sided; `validate_group` checks the monoid
    laws of a table given whole before its group is used."""
    inv = []
    for x, row in enumerate(mul):
        try:
            inv.append(row.index(0))
        except ValueError:
            raise NoInverse(f"element {x} has no inverse") from None
    return inv


def find_generators(mul) -> tuple:
    """Greedy minimal generating set: repeatedly adjoin the first element
    outside the current closure. Deterministic."""
    n = len(mul)
    gens: list[int] = []
    covered = {0}
    while len(covered) < n:
        gens.append(next(i for i in range(n) if i not in covered))
        covered = set(_bfs(mul, gens)[0])
    return tuple(gens)


def _bfs(mul, gens) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Breadth-first walk from the identity over gens: the elements reached,
    in the order reached, and every edge (x, s, x*gens[s]) with x in that
    order, so each x is reached before its own edges are listed."""
    seen = [False] * len(mul)
    seen[0] = True
    reached = [0]
    edges = []
    for x in reached:
        row = mul[x]
        for s, g in enumerate(gens):
            y = row[g]
            edges.append((x, s, y))
            if not seen[y]:
                seen[y] = True
                reached.append(y)
    return reached, edges


@functools.cache
def _edges(G: FiniteGroup) -> tuple[tuple[int, int, int], ...]:
    """The breadth-first edges of G over its listed generators, walked once
    per group; raises GeneratorsDontGenerate, on every call, unless they
    reach every element."""
    reached, edges = _bfs(G.mul, G.generators)
    if len(reached) != G.order:
        raise GeneratorsDontGenerate(
            f"generators {tuple(G.generators)} span only {len(reached)} of "
            f"{G.order} elements")
    return tuple(edges)


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


def table_from_action(action) -> tuple[list[array], tuple[int, ...]]:
    """The multiplication table of a group from its generators' right
    action, action[x][s] = x*g_s, with index 0 the identity, and the
    inverse of each element.

    Row x of the table is left multiplication by x, and row(x*g) is row(x)
    read at g*y for each y.  One walk of the breadth-first edges per
    generator gives left multiplication by g_s: g_s*1 = g_s, and on an
    edge (x, t, x*g_t), g_s*(x*g_t) = (g_s*x)*g_t.  Row 0 is the identity
    map, and on each edge (x, s, x*g_s) the row of x*g_s is one gather of
    row(x) by left multiplication by g_s, and its inverse g_s^-1 * x^-1 is
    x^-1 read through the inverse of that permutation.  A row is a tuple
    only while its element's edges are walked, then it is packed into an
    array('H') of 2-byte cells.  Raises GeneratorsDontGenerate unless the
    walk reaches every element."""
    n = len(action)
    d = len(action[0]) if n else 0
    if n > CONTAINER_LIMIT:
        raise SizeLimit(f"order {n} exceeds {CONTAINER_LIMIT}")
    reached, edges = _bfs(action, range(d))
    if len(reached) != n:
        raise GeneratorsDontGenerate(
            f"the action of {d} generators spans only {len(reached)} of "
            f"{n} elements")
    gathers, left_inverses = [], []
    for s in range(d):
        left = [0] * n
        left[0] = action[0][s]
        for x, t, y in edges:
            left[y] = action[left[x]][t]
        gathers.append(operator.itemgetter(*left))
        inverse = [0] * n
        for z, w in enumerate(left):
            inverse[w] = z
        left_inverses.append(inverse)
    pack, blank = struct.Struct(f"{n}H").pack, array("H", [0]) * n
    rows = [None] * n
    rows[0] = tuple(range(n))
    inv = [0] * n
    for x in reached:
        row, ix = rows[x], inv[x]
        for s, y in enumerate(action[x]):
            if rows[y] is None:
                rows[y] = gathers[s](row)
                inv[y] = left_inverses[s][ix]
        # a copy of blank is allocated at its exact size, where
        # array("H", bytes) over-allocates by about 6 %
        rows[x] = blank[:]
        memoryview(rows[x]).cast("B")[:] = pack(*row)
    return rows, tuple(inv)


def group_from_action(action, generators, label: str) -> FiniteGroup:
    """The group whose listed generators g_s act on the right by
    action[x][s] = x*g_s, its table closed by `table_from_action`.  Raises
    BadParameter unless each generator's column of that table is its
    stated action."""
    table, inv = table_from_action(action)
    for s, g in enumerate(generators):
        if [row[g] for row in table] != [a[s] for a in action]:
            raise BadParameter(f"column {s} of the action is not right "
                               f"multiplication by element {g}")
    return _raw_group(table, generators, label, inv)


def _raw_group(mul, generators, label="G", inv=None) -> FiniteGroup:
    """The group of the array('H') rows mul; inv, when not given, is read
    off the rows."""
    mul = tuple(mul)
    return FiniteGroup(order=len(mul), mul=mul,
                       inv=tuple(_inverses(mul)) if inv is None else inv,
                       generators=tuple(generators), label=label)


def validate_group(G: FiniteGroup) -> None:
    """The one validity check of a table given whole: index 0 is the
    identity, the listed generators generate (an uncached `_edges` walk, so
    a rejected table leaves no edge list cached), Light's test passes, and
    every element has an inverse.

    Light's test: (x*g)*y = x*(g*y) for all x, y and each listed g, one
    gather of row(x) by row(g) per (x, g).  The g that pass contain the
    identity and are closed under products, as (x*ab)*y = ((x*a)*b)*y =
    (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y), so once the generators
    generate, every element passes and the table is associative (Clifford
    and Preston, The Algebraic Theory of Semigroups I, 1961)."""
    n, mul = G.order, G.mul
    for x in range(n):
        if mul[0][x] != x or mul[x][0] != x:
            raise NoIdentity(f"index 0 is not an identity at element {x}")
    _edges.__wrapped__(G)
    rows = [tuple(row) for row in mul]
    # the identity passes, and a one-cell row would gather to a bare index
    for g in filter(None, G.generators):
        gather = operator.itemgetter(*rows[g])
        for x, row in enumerate(rows):
            if gather(row) != rows[row[g]]:
                y = next(y for y in range(n)
                         if rows[row[g]][y] != row[rows[g][y]])
                raise NonAssociative(f"({x}*{g})*{y} != {x}*({g}*{y})")
    _inverses(mul)


def build_from_table(table, generators=None, label="G") -> FiniteGroup:
    """The group of an N x N index table given whole, the identity
    relocated to index 0 when necessary, checked by `validate_group`."""
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
    G = _raw_group([array("H", row) for row in table], generators, label)
    validate_group(G)
    return G


def _action(order: int, columns) -> list[tuple]:
    """The action rows (x*g_0, x*g_1, ...) from the columns x -> x*g_s."""
    return list(zip(*columns)) if columns else [()] * order


def build_cyclic(n: int, label: Optional[str] = None) -> FiniteGroup:
    if not 1 <= n <= FULL_GROUP_LIMIT:
        raise SizeLimit(f"cyclic order {n} out of range 1..{FULL_GROUP_LIMIT}")
    gens = (1,) if n > 1 else ()
    columns = [[(x + 1) % n for x in range(n)]] if n > 1 else []
    return group_from_action(_action(n, columns), gens, label or f"Z{n}")


def build_direct_product(G: FiniteGroup, H: FiniteGroup,
                         label: Optional[str] = None) -> FiniteGroup:
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
    return group_from_action(_action(n, columns), gens,
                             label or f"{G.label}x{H.label}")


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
    return group_from_action(_action(order, columns), gens, f"(Z/{p})^{n}")


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
    return group_from_action(_action(m * m, columns), (m, 1),
                             f"Z{m}:Z{m}(p={p})")


def build_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: r^i s^e has index i + n*e, and
    (r^i s^e) r = r^(i +- 1) s^e, (r^i s^e) s = r^i s^(1-e)."""
    order = 2 * n
    if order > FULL_GROUP_LIMIT:
        raise SizeLimit(f"order {order} exceeds {FULL_GROUP_LIMIT}")
    pairs = [divmod(x, n) for x in range(order)]
    times_r = [(i + 1 - 2 * e) % n + n * e for e, i in pairs]
    times_s = [i + n * (1 - e) for e, i in pairs]
    gens, columns = ((1, n), [times_r, times_s]) if n > 1 else \
        ((1,), [times_s])
    return group_from_action(_action(order, columns), gens, f"D{n}")


def build_quaternion8() -> FiniteGroup:
    """Quaternion group on the elements 1, -1, i, -i, j, -j, k, -k, in that
    index order, generated by i and j."""
    times_i = [2, 3, 1, 0, 7, 6, 4, 5]  # x*i = i, -i, -1, 1, -k, k, j, -j
    times_j = [4, 5, 6, 7, 1, 0, 3, 2]  # x*j = j, -j, k, -k, -1, 1, -i, i
    return group_from_action(_action(8, [times_i, times_j]), (2, 4), "Q8")


def build_symmetric3() -> FiniteGroup:
    """S3 as permutations of {0,1,2} in lexicographic order of one-line
    notation, so the identity is index 0; a*b is i -> a[b[i]], and the
    generators are the transpositions (1 2) and (0 1), indices 1 and 2."""
    perms = sorted(itertools.permutations(range(3)))
    index = {q: i for i, q in enumerate(perms)}
    columns = [[index[tuple(a[i] for i in perms[g])] for a in perms]
               for g in (1, 2)]
    return group_from_action(_action(6, columns), (1, 2), "S3")


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
    """Quotient of a materialized group by a normal subgroup, with coset
    representatives of smallest element index.  The table is closed from
    the right action of the images of the parent's generators."""

    def __init__(self, parent: FiniteGroup, normal: Sequence[int],
                 label: str = "Q"):
        normal = sorted(set(normal))
        if 0 not in normal:
            raise BadParameter("normal subgroup must contain the identity")
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
        self.parent = parent
        self.normal = tuple(normal)
        self.reps = tuple(reps)
        self.coset_of = tuple(coset_of)
        gens = tuple(sorted({coset_of[g] for g in parent.generators} - {0}))
        action = [[coset_of[parent.mul[r][reps[c]]] for c in gens]
                  for r in reps]
        self.group = group_from_action(action, gens, label)

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

def parse_group_file(text: str, label="G") -> FiniteGroup:
    """Group file format: line 1 `order N`, line 2 `generators i j ...`,
    then N rows of N indices."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or not lines[0].startswith("order"):
        raise ParseError("expected `order N`", line=1)
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ParseError("expected `order N`", line=1)
    if n < 1:
        raise ParseError(f"order {n} is below 1", line=1)
    if len(lines) < 2 or not lines[1].startswith("generators"):
        raise ParseError("expected `generators i j ...`", line=2)
    try:
        gens = [int(t) for t in lines[1].split()[1:]]
    except ValueError:
        raise ParseError("bad generator list", line=2)
    if len(lines) != 2 + n:
        raise ParseError(f"expected {n} table rows, got {len(lines) - 2}")
    table = []
    for i, ln in enumerate(lines[2:]):
        try:
            row = [int(t) for t in ln.split()]
        except ValueError:
            raise ParseError("bad table row", line=3 + i)
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}",
                             line=3 + i)
        bad = [v for v in row if not 0 <= v < n]
        if bad:
            raise ParseError(f"entry {bad[0]} outside 0..{n - 1}", line=3 + i)
        table.append(row)
    return build_from_table(table, gens or None, label=label)


def format_group_file(G: FiniteGroup) -> str:
    lines = [f"order {G.order}",
             "generators " + " ".join(str(g) for g in G.generators)]
    lines += [" ".join(str(v) for v in row) for row in G.mul]
    return "\n".join(lines) + "\n"
