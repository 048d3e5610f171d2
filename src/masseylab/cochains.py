"""Normalized inhomogeneous cochains of a finite group with trivial Z/p
coefficients: coboundary, cup product, H^1 and H^2 by linear algebra over
F_p, and the cup-form / Demushkin checker.

A degree-d cochain on a group of order N stores its (N-1)^d values on the
d-tuples of non-identity elements (value 0 whenever any argument is the
identity), flattened in lexicographic element-index order: one value in
degree 0, none on the trivial group in degree >= 1.

Cocycles are read off the generator rows of delta. Let f be a d-cochain and
c = delta f, and suppose c(s, ...) = 0 for every listed generator s. Then:
  1. delta c = 0, and its value at (s, g, ...) is c(g, ...) - c(sg, ...)
     plus terms whose first argument is s, so c(sg, ...) = c(g, ...);
  2. c(1, ...) = 0 on the normalized complex;
  3. every element is a word s_1 ... s_k in the generators (G is finite),
     so c(s_1 ... s_k, ...) = c(s_2 ... s_k, ...) = ... = c(1, ...) = 0.
So f is a cocycle iff delta f vanishes on the rows whose first argument is a
generator: k*(N-1)^d rows for k generators instead of (N-1)^(d+1).
"""

from __future__ import annotations

import functools
import itertools

from . import gfp
from .errors import DegreeLimit, NotACocycle, NotApplicable, ShapeMismatch, \
    SizeLimit
from .groups import FiniteGroup, GroupHom, Value, _edges

MAX_COHOMOLOGY_ORDER = 32
MAX_DEGREE = 3


class Cochain(Value):
    __slots__ = ("group", "p", "degree", "values")

    def __init__(self, group, p, degree, values):
        self.group, self.p, self.degree = group, p, degree
        self.values = values  # length (N-1)^degree

    def _key(self) -> tuple:
        return self.group, self.p, self.degree, self.values

    def value(self, *gs: int) -> int:
        if len(gs) != self.degree:
            raise ShapeMismatch(f"expected {self.degree} arguments, got {len(gs)}")
        idx = 0
        for g in gs:
            if g == 0:
                return 0
            idx = idx * (self.group.order - 1) + (g - 1)
        return self.values[idx]

    def __add__(self, other: "Cochain") -> "Cochain":
        self._match(other)
        return Cochain(self.group, self.p, self.degree,
                       tuple((a + b) % self.p
                             for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._match(other)
        return Cochain(self.group, self.p, self.degree,
                       tuple((a - b) % self.p
                             for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c: int) -> "Cochain":
        return Cochain(self.group, self.p, self.degree,
                       tuple((c * v) % self.p for v in self.values))

    def is_zero(self) -> bool:
        return not any(self.values)

    def _match(self, other: "Cochain") -> None:
        if (self.group is not other.group and self.group != other.group) or \
                self.p != other.p or self.degree != other.degree:
            raise ShapeMismatch("cochain shapes differ")

    def vector(self) -> int:
        """The values as one packed F_p vector (see `gfp`)."""
        return gfp.space(len(self.values), self.p).pack(self.values)

    def as_hom(self) -> GroupHom:
        """Interpret a degree-1 cocycle as a homomorphism G -> Z/p."""
        from .groups import build_cyclic
        Zp = build_cyclic(self.p)
        return GroupHom(self.group, Zp,
                        (0,) + tuple(v % self.p for v in self.values)).check()


def zero_cochain(G: FiniteGroup, p: int, degree: int) -> Cochain:
    return Cochain(G, p, degree, (0,) * (G.order - 1) ** degree)


def coboundary(f: Cochain) -> Cochain:
    """Standard inhomogeneous coboundary with trivial coefficients: the
    columns of `ComplexData.delta_matrix` combined by the values, so like
    `complex_data` it raises SizeLimit above MAX_COHOMOLOGY_ORDER."""
    if f.degree >= MAX_DEGREE:
        raise DegreeLimit(f"coboundary of degree {f.degree} not supported")
    columns = complex_data(f.group, f.p).delta_columns(f.degree)
    S = gfp.space((f.group.order - 1) ** (f.degree + 1), f.p)
    return Cochain(f.group, f.p, f.degree + 1,
                   tuple(S.unpack(S.combine(columns, f.values))))


def cup(a: Cochain, b: Cochain) -> Cochain:
    """(a cup b)(g_1..g_r, h_1..h_s) = a(g) b(h): with the values in
    lexicographic tuple order this is the Kronecker product of the value
    vectors, i.e. their outer product read row by row."""
    if a.group != b.group or a.p != b.p:
        raise ShapeMismatch("cup factors live over different data")
    r, s = a.degree, b.degree
    if r + s > MAX_DEGREE:
        raise DegreeLimit(f"cup into degree {r + s} not supported")
    p = a.p
    return Cochain(a.group, p, r + s,
                   tuple([x * y % p for x in a.values for y in b.values]))


# -- linear algebra over the normalized complex --------------------------------

class ComplexData:
    """Cached coboundary matrices and reduced spaces for one (G, p);
    obtain it through `complex_data`, which builds one instance per (G, p).

    A matrix is a list of packed rows (see `gfp`). Kernels read
    `cocycle_matrix(d)`, the rows of delta_d whose first argument is a
    generator; by the lemma in the module docstring they have the kernel
    Z^d of the full delta_d, hence the same RREF and the same
    `gfp.nullspace` basis. A matrix acts on a cochain by combining its
    columns: `delta_columns` serves `coboundary` and `b2_rref`, and
    `cocycle_columns` serves `is_cocycle`."""

    def __init__(self, G: FiniteGroup, p: int):
        if G.order > MAX_COHOMOLOGY_ORDER:
            raise SizeLimit(
                f"|G| = {G.order} > {MAX_COHOMOLOGY_ORDER} for cohomology")
        gfp.check_prime(p)
        self.G = G
        self.p = p

    def _face_rows(self, d: int, first) -> list[int]:
        """The rows of delta_d whose first argument lies in `first` (an
        ascending list of non-identity elements), in lexicographic order,
        each packed from its face terms. Row (g_1..g_{d+1}) sums the d+2
        faces f(g_2..g_{d+1}), (-1)^i f(.., g_i g_{i+1}, ..) and
        (-1)^{d+1} f(g_1..g_d); a face with an identity argument is 0 on
        the normalized complex."""
        n, mul = self.G.order, self.G.mul
        S = gfp.space((n - 1) ** d, self.p)
        signs = [1] + [(-1) ** (i + 1) for i in range(d)] + [(-1) ** (d + 1)]
        rows = []
        for g in itertools.product(first, *[range(1, n)] * d):
            faces = [g[1:]] + [g[:i] + (mul[g[i]][g[i + 1]],) + g[i + 2:]
                               for i in range(d)] + [g[:d]]
            terms: dict[int, int] = {}
            for sign, face in zip(signs, faces):
                if 0 not in face:
                    col = 0
                    for x in face:
                        col = col * (n - 1) + x - 1
                    terms[col] = terms.get(col, 0) + sign
            rows.append(S.sparse(terms.items()))
        return rows

    @functools.cache
    def delta_matrix(self, d: int) -> list[int]:
        """Matrix of delta_d, rows indexed by (d+1)-tuples, columns by
        d-tuples of non-identity elements, both lexicographic."""
        return self._face_rows(d, range(1, self.G.order))

    @functools.cache
    def cocycle_matrix(self, d: int) -> list[int]:
        """The rows of delta_d whose first argument is a non-identity
        listed generator: its kernel is Z^d. Raises GeneratorsDontGenerate
        unless the listed generators generate G, since the lemma needs
        them to."""
        _edges(self.G)
        gens = sorted(set(self.G.generators) - {0})
        return self._face_rows(d, gens)

    @functools.cache
    def delta_columns(self, d: int) -> list[int]:
        """The columns of delta_d, each packed over its rows."""
        return gfp.transpose(self.delta_matrix(d), (self.G.order - 1) ** d,
                             self.p)

    @functools.cache
    def cocycle_columns(self, d: int) -> list[int]:
        """The columns of `cocycle_matrix(d)`, each packed over its rows."""
        return gfp.transpose(self.cocycle_matrix(d),
                             (self.G.order - 1) ** d, self.p)

    @property
    def d1(self) -> list[int]:
        return self.delta_matrix(1)

    @property
    def d2(self) -> list[int]:
        return self.delta_matrix(2)

    @property
    @functools.cache
    def b2_rref(self):
        """RREF of the space of 2-coboundaries (spanned by d1 columns)."""
        return gfp.rref(self.delta_columns(1), self.p)

    @property
    @functools.cache
    def z1_basis(self) -> list[int]:
        return gfp.nullspace(self.cocycle_matrix(1), self.G.order - 1,
                             self.p)

    @functools.cache
    def h2_data(self):
        """(dim H^2, representative vectors)."""
        z2 = gfp.nullspace(self.cocycle_matrix(2), (self.G.order - 1) ** 2,
                           self.p)
        R, piv = self.b2_rref
        residuals = [r for r in (gfp.reduce_vector(v, R, piv, self.p)
                                 for v in z2) if r]
        reps = gfp.rref(residuals, self.p)[0] if residuals else []
        return len(reps), reps

    def canonical_2cocycle(self, vec: int) -> int:
        R, piv = self.b2_rref
        return gfp.reduce_vector(vec, R, piv, self.p)

    @property
    @functools.cache
    def _d1_factor(self):
        """(T, pivots, rank) from the RREF of [d1 | I]: T is its identity
        block, an invertible row transform with T d1 = RREF(d1) padded by
        zero rows, kept as its packed columns, and `pivots` are the rank
        pivot columns of d1."""
        cols, rows = self.G.order - 1, len(self.d1)
        A = gfp.space(cols + rows, self.p)
        R, pivots = gfp.rref([r | A.unit(cols + i)
                              for i, r in enumerate(self.d1)], self.p)
        rank = sum(c < cols for c in pivots)
        T = gfp.transpose([A.drop(r, cols) for r in R], rows, self.p)
        return T, pivots[:rank], rank

    def solve_delta1(self, rhs: int):
        """A 1-cochain x0 with delta(x0) = rhs (both packed vectors), or
        None when rhs is not a coboundary; the solutions are x0 + Z^1. With
        y = T rhs, rhs is a coboundary iff y vanishes past the rank, and x0
        puts y[:rank] on the pivots and 0 on the free columns: the solution
        `gfp.solve` returns, since the RREF of [d1 | rhs] is unique."""
        T, pivots, rank = self._d1_factor
        S = gfp.space(len(self.d1), self.p)
        y = S.combine(T, S.unpack(rhs))
        if S.drop(y, rank):
            return None
        return gfp.space(self.G.order - 1, self.p).sparse(
            (c, S.entry(y, k)) for k, c in enumerate(pivots))


@functools.cache
def complex_data(G: FiniteGroup, p: int) -> ComplexData:
    return ComplexData(G, p)


# -- cohomology classes --------------------------------------------------------

class CohomologyClass(Value):
    __slots__ = ("group", "p", "degree", "representative", "canon")

    def __init__(self, group, p, degree, representative, canon):
        self.group, self.p, self.degree = group, p, degree
        self.representative, self.canon = representative, canon

    def _key(self) -> tuple:
        return self.degree, self.p, self.canon

    def is_zero(self) -> bool:
        return not any(self.canon)

    # The canonical reduction is linear, so the sum's canonical vector is
    # the sum of the canonical vectors; the representatives' sum checks
    # that the shapes match.
    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        p = self.p
        return CohomologyClass(
            self.group, p, self.degree,
            self.representative + other.representative,
            tuple([(a + b) % p for a, b in zip(self.canon, other.canon)]))

    def __neg__(self) -> "CohomologyClass":
        p = self.p
        return CohomologyClass(self.group, p, self.degree,
                               -self.representative,
                               tuple([-a % p for a in self.canon]))


def is_cocycle(z: Cochain) -> bool:
    if z.degree not in (1, 2):
        raise DegreeLimit(f"cocycle test for degree {z.degree} not supported")
    data = complex_data(z.group, z.p)
    S = gfp.space(len(data.cocycle_matrix(z.degree)), z.p)
    return not S.combine(data.cocycle_columns(z.degree), z.values)


def is_coboundary(z: Cochain) -> bool:
    if z.degree == 1:
        return z.is_zero()  # B^1 = 0 on the normalized complex
    if z.degree == 2:
        data = complex_data(z.group, z.p)
        R, piv = data.b2_rref
        return gfp.in_row_space(z.vector(), R, piv, z.p)
    raise DegreeLimit(f"coboundary test for degree {z.degree} not supported")


def class_of(z: Cochain) -> CohomologyClass:
    if not is_cocycle(z):
        raise NotACocycle(f"degree-{z.degree} cochain is not closed")
    if z.degree == 1:
        canon = tuple(z.values)
    else:
        data = complex_data(z.group, z.p)
        S = gfp.space(len(z.values), z.p)
        canon = tuple(S.unpack(data.canonical_2cocycle(z.vector())))
    return CohomologyClass(z.group, z.p, z.degree, z, canon)


# -- H^1, H^2, cup form --------------------------------------------------------

def h1(G: FiniteGroup, p: int) -> list[Cochain]:
    """F_p-basis of H^1 = Hom(G, Z/p), as degree-1 cocycles."""
    S = gfp.space(G.order - 1, p)
    return [Cochain(G, p, 1, tuple(S.unpack(v)))
            for v in complex_data(G, p).z1_basis]


def h1_combination(G: FiniteGroup, p: int, coeffs) -> Cochain:
    """The H^1 element with coordinates `coeffs` in the basis `h1(G, p)`."""
    S = gfp.space(G.order - 1, p)
    v = S.combine(complex_data(G, p).z1_basis, [int(c) for c in coeffs])
    return Cochain(G, p, 1, tuple(S.unpack(v)))


@functools.cache
def characters(G: FiniteGroup, p: int) -> tuple[Cochain, ...]:
    """Every element of H^1 = Hom(G, Z/p), lexicographic in its coordinates
    in the basis `h1(G, p)`; listed once per (G, p)."""
    dim = len(complex_data(G, p).z1_basis)
    return tuple(h1_combination(G, p, coeffs)
                 for coeffs in itertools.product(range(p), repeat=dim))


def h2(G: FiniteGroup, p: int):
    """(dim H^2, representative CohomologyClass basis)."""
    dim, reps = complex_data(G, p).h2_data()
    S = gfp.space((G.order - 1) ** 2, p)
    classes = [class_of(Cochain(G, p, 2, tuple(S.unpack(v)))) for v in reps]
    return dim, classes


class CupForm:
    __slots__ = ("group", "p", "basis", "gram", "h2_canon")

    def __init__(self, group, p, basis, gram, h2_canon):
        self.group, self.p = group, p
        self.basis = basis          # H^1 basis cochains
        self.gram = gram            # Gram matrix of the pairing, in Z/p
        self.h2_canon = h2_canon    # canonical vector of the H^2 basis class

    def is_nondegenerate(self) -> bool:
        n = len(self.basis)
        if n == 0:
            return False
        S = gfp.space(n, self.p)
        return gfp.rank([S.pack(row) for row in self.gram], self.p) == n


def cup_form(G: FiniteGroup, p: int) -> CupForm:
    data = complex_data(G, p)
    dim2, reps = data.h2_data()
    if dim2 != 1:
        raise NotApplicable(f"dim H^2 = {dim2}, cup form needs 1")
    v0 = reps[0]
    S = gfp.space((G.order - 1) ** 2, p)
    pivot = S.first(v0)
    pivot_inv = pow(S.entry(v0, pivot), -1, p)
    basis = h1(G, p)
    gram = []
    for a in basis:
        row = []
        for b in basis:
            z = data.canonical_2cocycle(cup(a, b).vector())
            t = (S.entry(z, pivot) * pivot_inv) % p
            if S.sub(z, S.scale(v0, t)):
                raise NotACocycle("cup value escapes the 1-dim H^2")  # impossible
            row.append(t)
        gram.append(tuple(row))
    return CupForm(G, p, tuple(basis), tuple(gram), tuple(S.unpack(v0)))


def demushkin_check(G: FiniteGroup, p: int) -> dict:
    """Report {dim_h1, dim_h2, nondegenerate, verdict}."""
    data = complex_data(G, p)
    dim1 = len(data.z1_basis)
    dim2, _ = data.h2_data()
    if dim2 != 1:
        return {"dim_h1": dim1, "dim_h2": dim2,
                "nondegenerate": None, "verdict": False}
    nondeg = cup_form(G, p).is_nondegenerate()
    return {"dim_h1": dim1, "dim_h2": dim2,
            "nondegenerate": nondeg, "verdict": bool(nondeg)}
