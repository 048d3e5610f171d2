"""Finite groups as dense multiplication tables, plus the homomorphism
search engine used by every embedding-problem solver.

Conventions: elements are the indices 0..N-1, index 0 is the identity.
Full groups built through the public constructors are capped at order 64;
container groups (direct products, unitriangular groups, quotients) may go
up to 4096.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import (
    BadParameter,
    GeneratorsDontGenerate,
    InconsistentConstraint,
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


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    mul: tuple  # tuple of tuples, mul[x][y]
    inv: tuple
    generators: tuple
    label: str = "G"
    meta: Optional[dict] = field(default=None, compare=False, repr=False)

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
        h = hashlib.sha256()
        h.update(str(self.order).encode())
        for row in self.mul:
            h.update(bytes(str(row), "ascii"))
        h.update(bytes(str(tuple(self.generators)), "ascii"))
        return h.hexdigest()[:16]

    def __hash__(self):
        return hash((self.order, self.mul))


def _inverses(mul) -> list[int]:
    n = len(mul)
    inv = [-1] * n
    for x in range(n):
        for y in range(n):
            if mul[x][y] == 0 and mul[y][x] == 0:
                inv[x] = y
                break
        if inv[x] < 0:
            raise NoInverse(f"element {x} has no two-sided inverse")
    return inv


def _check_associative(mul) -> None:
    n = len(mul)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                    raise NonAssociative(
                        f"({x}*{y})*{z} != {x}*({y}*{z})")


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


def _edges(G: FiniteGroup) -> list[tuple[int, int, int]]:
    """The breadth-first edges of G over its listed generators; raises
    GeneratorsDontGenerate unless they reach every element."""
    reached, edges = _bfs(G.mul, G.generators)
    if len(reached) != G.order:
        raise GeneratorsDontGenerate(
            f"generators {tuple(G.generators)} span only {len(reached)} of "
            f"{G.order} elements")
    return edges


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


def _raw_group(mul, generators, label="G", meta=None) -> FiniteGroup:
    mul = tuple(tuple(row) for row in mul)
    return FiniteGroup(order=len(mul), mul=mul, inv=tuple(_inverses(mul)),
                       generators=tuple(generators), label=label, meta=meta)


def validate_group(G: FiniteGroup) -> None:
    """Exhaustive associativity / identity / inverse / generation check."""
    n = G.order
    for x in range(n):
        if G.mul[0][x] != x or G.mul[x][0] != x:
            raise NoIdentity(f"index 0 is not an identity at element {x}")
    _check_associative(G.mul)
    _inverses(G.mul)
    _edges(G)


def build_from_table(table, generators=None, label="G") -> FiniteGroup:
    """Validated group from an N x N index table; the identity is relocated
    to index 0 when necessary."""
    n = len(table)
    if n > FULL_GROUP_LIMIT:
        raise SizeLimit(f"order {n} exceeds the full-group limit {FULL_GROUP_LIMIT}")
    table = [list(row) for row in table]
    for i, row in enumerate(table):
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise ParseError(f"row {i} is not a valid index row of length {n}")
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
    _check_associative(table)
    if generators is None:
        generators = find_generators(table)
    elif not generators:
        raise BadParameter("generators must be nonempty")
    G = _raw_group(table, generators, label)
    _edges(G)
    return G


def build_cyclic(n: int, label: Optional[str] = None) -> FiniteGroup:
    if not 1 <= n <= FULL_GROUP_LIMIT:
        raise SizeLimit(f"cyclic order {n} out of range 1..{FULL_GROUP_LIMIT}")
    mul = [[(x + y) % n for y in range(n)] for x in range(n)]
    gens = (1,) if n > 1 else ()
    return _raw_group(mul, gens, label or f"Z{n}", meta={"kind": "cyclic", "n": n})


def build_direct_product(G: FiniteGroup, H: FiniteGroup,
                         label: Optional[str] = None) -> FiniteGroup:
    n = G.order * H.order
    if n > CONTAINER_LIMIT:
        raise SizeLimit(f"product order {n} exceeds {CONTAINER_LIMIT}")
    hn = H.order

    def enc(a, b):
        return a * hn + b

    mul = [[0] * n for _ in range(n)]
    for xa in range(G.order):
        for xb in range(hn):
            x = enc(xa, xb)
            row = mul[x]
            grow = G.mul[xa]
            hrow = H.mul[xb]
            for ya in range(G.order):
                ga = grow[ya] * hn
                for yb in range(hn):
                    row[enc(ya, yb)] = ga + hrow[yb]
    gens = [enc(g, 0) for g in G.generators] + [enc(0, h) for h in H.generators]
    return _raw_group(mul, gens, label or f"{G.label}x{H.label}")


@functools.cache
def build_vector_group(p: int, n: int) -> FiniteGroup:
    """(Z/p)^n with index = base-p digits, first coordinate most significant."""
    order = p ** n
    if order > CONTAINER_LIMIT:
        raise SizeLimit(f"(Z/{p})^{n} has order {order} > {CONTAINER_LIMIT}")
    mul = [[0] * order for _ in range(order)]
    for x in range(order):
        xv = index_to_vec(p, n, x)
        for y in range(order):
            yv = index_to_vec(p, n, y)
            mul[x][y] = vec_to_index(p, [(a + b) % p for a, b in zip(xv, yv)])
    gens = [vec_to_index(p, [1 if j == i else 0 for j in range(n)])
            for i in range(n)]
    return _raw_group(mul, gens, f"(Z/{p})^{n}",
                      meta={"kind": "vector", "p": p, "n": n})


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
    """Z/l^k semidirect Z/l^k, the second factor acting by x -> p*x.

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

    def act(times, x):
        return (x * pow(p, times, m)) % m

    def enc(a, b):
        return a * m + b

    n = m * m
    mul = [[0] * n for _ in range(n)]
    for a1 in range(m):
        for b1 in range(m):
            row = mul[enc(a1, b1)]
            for a2 in range(m):
                for b2 in range(m):
                    row[enc(a2, b2)] = enc((a1 + act(b1, a2)) % m,
                                           (b1 + b2) % m)
    gens = [enc(1, 0), enc(0, 1)]
    return _raw_group(mul, gens, f"Z{m}:Z{m}(p={p})",
                      meta={"kind": "semidirect", "m": m, "p": p})


def build_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r^i, reflections r^i s."""
    order = 2 * n
    if order > FULL_GROUP_LIMIT:
        raise SizeLimit(f"order {order} exceeds {FULL_GROUP_LIMIT}")

    def enc(i, s):
        return i + n * s

    mul = [[0] * order for _ in range(order)]
    for i in range(n):
        for s in range(2):
            row = mul[enc(i, s)]
            for j in range(n):
                for t in range(2):
                    # (r^i s^s)(r^j s^t) = r^(i + j or i - j) s^(s+t)
                    row[enc(j, t)] = enc((i + (j if s == 0 else -j)) % n, s ^ t)
    gens = [enc(1, 0), enc(0, 1)] if n > 1 else [enc(0, 1)]
    return _raw_group(mul, gens, f"D{n}")


def build_quaternion8() -> FiniteGroup:
    """Quaternion group {±1, ±i, ±j, ±k} via its Cayley table."""
    # element order: 1, -1, i, -i, j, -j, k, -k
    def mulq(a, b):
        table = {("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
                 ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
                 ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
                 ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
                 ("k", "k"): (-1, "1")}
        sa, ua = a
        sb, ub = b
        if ua == "1":
            return (sa * sb, ub)
        if ub == "1":
            return (sa * sb, ua)
        s, u = table[(ua, ub)]
        return (sa * sb * s, u)

    elems = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"),
             (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    index = {e: i for i, e in enumerate(elems)}
    mul = [[index[mulq(a, b)] for b in elems] for a in elems]
    return _raw_group(mul, (2, 4), "Q8")


def build_symmetric3() -> FiniteGroup:
    """S3 as permutations of {0,1,2} in lexicographic order of one-line
    notation, relocated so the identity sits at index 0."""
    perms = sorted(itertools.permutations(range(3)))
    index = {q: i for i, q in enumerate(perms)}
    mul = [[index[tuple(a[b[i]] for i in range(3))] for b in perms]
           for a in perms]
    return build_from_table(mul, generators=None, label="S3")


# -- homomorphisms ------------------------------------------------------------

@dataclass(frozen=True)
class GroupHom:
    domain: FiniteGroup
    codomain: FiniteGroup
    images: tuple

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


def enumerate_homs(G: FiniteGroup, H: FiniteGroup, *,
                   fixed: Optional[dict] = None,
                   fiber: Optional[tuple] = None) -> Iterator[GroupHom]:
    """All homomorphisms G -> H, as a deterministic stream.

    fixed: {generator index in G.generators -> forced image}.
    fiber: (alpha, forced) with alpha: H -> A and forced: G -> A; candidate
    images of each generator g are restricted to alpha^-1(forced(g)).

    Candidate generator images are tried in lexicographic order (generators
    in listed order, images in ascending element index); each tuple is
    extended along G's edge list and dropped at its first conflict.
    """
    gens = G.generators
    candidates: list[list[int]] = []
    for pos, g in enumerate(gens):
        cand = list(H.elements())
        if fiber is not None:
            alpha, forced = fiber
            want = forced(g)
            cand = [h for h in cand if alpha(h) == want]
        if fixed is not None and pos in fixed:
            v = fixed[pos]
            if v not in cand:
                raise InconsistentConstraint(
                    f"fixed image {v} for generator #{pos} violates the "
                    f"fiber constraint")
            cand = [v]
        # cheap order pruning
        og = G.element_order(g)
        cand = [h for h in cand if og % H.element_order(h) == 0]
        candidates.append(cand)
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
        table.append(row)
    return build_from_table(table, gens or None, label=label)


def format_group_file(G: FiniteGroup) -> str:
    lines = [f"order {G.order}",
             "generators " + " ".join(str(g) for g in G.generators)]
    lines += [" ".join(str(v) for v in row) for row in G.mul]
    return "\n".join(lines) + "\n"
