"""Normalized inhomogeneous cochains of a finite group with trivial Z/p
coefficients: coboundary, cup product, H^1 and H^2 by linear algebra over
F_p, and the cup-form / Demushkin checker.

A degree-d cochain stores its values on d-tuples of non-identity elements
(value 0 whenever any argument is the identity), flattened in lexicographic
element-index order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gfp
from .errors import DegreeLimit, NotACocycle, NotApplicable, ShapeMismatch, \
    SizeLimit
from .groups import FiniteGroup, GroupHom

MAX_COHOMOLOGY_ORDER = 32
MAX_DEGREE = 3


@dataclass(frozen=True)
class Cochain:
    group: FiniteGroup
    p: int
    degree: int
    values: tuple  # length (N-1)^degree

    def value(self, *gs: int) -> int:
        if len(gs) != self.degree:
            raise ShapeMismatch(f"expected {self.degree} arguments, got {len(gs)}")
        idx = 0
        for g in gs:
            if g == 0:
                return 0
            idx = idx * (self.group.order - 1) + (g - 1)
        return self.values[idx] if self.degree else self.values[0]

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

    def vector(self) -> np.ndarray:
        return np.array(self.values, dtype=np.int64)

    def as_hom(self) -> GroupHom:
        """Interpret a degree-1 cocycle as a homomorphism G -> Z/p."""
        from .groups import build_cyclic
        Zp = build_cyclic(self.p)
        return GroupHom(self.group, Zp,
                        (0,) + tuple(v % self.p for v in self.values)).check()


def zero_cochain(G: FiniteGroup, p: int, degree: int) -> Cochain:
    return Cochain(G, p, degree, (0,) * max(1, (G.order - 1) ** degree))


def cochain_from_values(G: FiniteGroup, p: int, degree: int,
                        values: Sequence[int]) -> Cochain:
    want = max(1, (G.order - 1) ** degree)
    if len(values) != want:
        raise ShapeMismatch(f"expected {want} values, got {len(values)}")
    return Cochain(G, p, degree, tuple(v % p for v in values))


def cochain_from_hom(a: GroupHom, p: int) -> Cochain:
    """Degree-1 cochain from a homomorphism G -> Z/p."""
    return Cochain(a.domain, p, 1, tuple(a.images[1:]))


def _tuples(N: int, d: int):
    """All d-tuples of non-identity elements, lexicographic."""
    import itertools
    return itertools.product(range(1, N), repeat=d)


def coboundary(f: Cochain) -> Cochain:
    """Standard inhomogeneous coboundary with trivial coefficients."""
    if f.degree >= MAX_DEGREE:
        raise DegreeLimit(f"coboundary of degree {f.degree} not supported")
    G, p, d = f.group, f.p, f.degree
    out = []
    for gs in _tuples(G.order, d + 1):
        v = f.value(*gs[1:])
        for i in range(d):
            merged = gs[:i] + (G.mul[gs[i]][gs[i + 1]],) + gs[i + 2:]
            v += (-1) ** (i + 1) * f.value(*merged)
        v += (-1) ** (d + 1) * f.value(*gs[:d])
        out.append(v % p)
    return Cochain(G, p, d + 1, tuple(out))


def cup(a: Cochain, b: Cochain) -> Cochain:
    if a.group != b.group or a.p != b.p:
        raise ShapeMismatch("cup factors live over different data")
    r, s = a.degree, b.degree
    if r + s > MAX_DEGREE:
        raise DegreeLimit(f"cup into degree {r + s} not supported")
    G, p = a.group, a.p
    out = []
    for gs in _tuples(G.order, r + s):
        out.append((a.value(*gs[:r]) * b.value(*gs[r:])) % p)
    return Cochain(G, p, r + s, tuple(out))


# -- linear algebra over the normalized complex --------------------------------

class ComplexData:
    """Cached coboundary matrices and reduced spaces for one (G, p);
    obtain it through `complex_data`, which builds one instance per (G, p)."""

    def __init__(self, G: FiniteGroup, p: int):
        if G.order > MAX_COHOMOLOGY_ORDER:
            raise SizeLimit(
                f"|G| = {G.order} > {MAX_COHOMOLOGY_ORDER} for cohomology")
        self.G = G
        self.p = p

    def delta_matrix(self, d: int) -> np.ndarray:
        """Matrix of delta_d, rows indexed by (d+1)-tuples, columns by
        d-tuples."""
        N, p = self.G.order, self.p
        ncols = max(1, (N - 1) ** d)
        rows = []
        for gs in _tuples(N, d + 1):
            basisrow = np.zeros(ncols, dtype=np.int64)

            def bump(args, sign):
                if d == 0 or all(g != 0 for g in args):
                    idx = 0
                    for g in args:
                        idx = idx * (N - 1) + (g - 1)
                    basisrow[idx] = (basisrow[idx] + sign) % p

            bump(gs[1:], 1)
            for i in range(d):
                merged = gs[:i] + (self.G.mul[gs[i]][gs[i + 1]],) + gs[i + 2:]
                bump(merged, (-1) ** (i + 1))
            bump(gs[:d], (-1) ** (d + 1))
            rows.append(basisrow)
        return np.array(rows, dtype=np.int64) if rows else \
            np.zeros((0, ncols), dtype=np.int64)

    @property
    @functools.cache
    def d1(self) -> np.ndarray:
        return self.delta_matrix(1)

    @property
    @functools.cache
    def d2(self) -> np.ndarray:
        return self.delta_matrix(2)

    @property
    @functools.cache
    def b2_rref(self):
        """RREF of the space of 2-coboundaries (spanned by d1 columns)."""
        return gfp.rref(self.d1.T, self.p)

    @property
    @functools.cache
    def z1_basis(self) -> list[np.ndarray]:
        # the trivial group pads each cochain space with one dummy slot
        return [] if self.G.order == 1 else gfp.nullspace(self.d1, self.p)

    @functools.cache
    def h2_data(self):
        """(dim H^2, representative vectors)."""
        if self.G.order == 1:
            return 0, []
        z2 = gfp.nullspace(self.d2, self.p)
        R, piv = self.b2_rref
        residuals = []
        for v in z2:
            r = gfp.reduce_vector(v, R, piv, self.p)
            if r.any():
                residuals.append(r)
        if residuals:
            H, _ = gfp.rref(np.array(residuals), self.p)
            reps = [H[i] for i in range(H.shape[0])]
        else:
            reps = []
        return len(reps), reps

    def canonical_2cocycle(self, vec) -> np.ndarray:
        R, piv = self.b2_rref
        return gfp.reduce_vector(vec, R, piv, self.p)

    def solve_delta1(self, rhs):
        """All 1-cochains f with delta(f) = rhs (a 2-cochain vector), as
        (particular, Z^1 basis); None when rhs is not a coboundary."""
        x0 = gfp.solve(self.d1, rhs, self.p)
        if x0 is None:
            return None
        return x0, self.z1_basis


@functools.cache
def complex_data(G: FiniteGroup, p: int) -> ComplexData:
    return ComplexData(G, p)


# -- cohomology classes --------------------------------------------------------

@dataclass(frozen=True)
class CohomologyClass:
    group: FiniteGroup
    p: int
    degree: int
    representative: Cochain
    canon: tuple

    def is_zero(self) -> bool:
        return not any(self.canon)

    def __eq__(self, other):
        return isinstance(other, CohomologyClass) and \
            self.degree == other.degree and self.p == other.p and \
            self.canon == other.canon

    def __hash__(self):
        return hash((self.degree, self.p, self.canon))

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        return class_of(self.representative + other.representative)

    def __neg__(self) -> "CohomologyClass":
        return class_of(-self.representative)


def is_cocycle(z: Cochain) -> bool:
    if z.degree == 1:
        data = complex_data(z.group, z.p)
        return not (data.d1 @ z.vector() % z.p).any()
    if z.degree == 2:
        data = complex_data(z.group, z.p)
        return not (data.d2 @ z.vector() % z.p).any()
    raise DegreeLimit(f"cocycle test for degree {z.degree} not supported")


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
        canon = tuple(int(v) for v in z.values)
    else:
        data = complex_data(z.group, z.p)
        canon = tuple(int(v) for v in data.canonical_2cocycle(z.vector()))
    return CohomologyClass(z.group, z.p, z.degree, z, canon)


# -- H^1, H^2, cup form --------------------------------------------------------

def h1(G: FiniteGroup, p: int) -> list[Cochain]:
    """F_p-basis of H^1 = Hom(G, Z/p), as degree-1 cocycles."""
    data = complex_data(G, p)
    return [Cochain(G, p, 1, tuple(int(x) for x in v))
            for v in data.z1_basis]


def h2(G: FiniteGroup, p: int):
    """(dim H^2, representative CohomologyClass basis)."""
    data = complex_data(G, p)
    dim, reps = data.h2_data()
    classes = [class_of(Cochain(G, p, 2, tuple(int(x) for x in v)))
               for v in reps]
    return dim, classes


@dataclass(frozen=True)
class CupForm:
    group: FiniteGroup
    p: int
    basis: tuple           # H^1 basis cochains
    gram: tuple            # Gram matrix of the pairing, values in Z/p
    h2_canon: tuple        # canonical vector of the H^2 basis class

    def is_nondegenerate(self) -> bool:
        n = len(self.basis)
        if n == 0:
            return False
        return gfp.rank(np.array(self.gram, dtype=np.int64), self.p) == n


def cup_form(G: FiniteGroup, p: int) -> CupForm:
    data = complex_data(G, p)
    dim2, reps = data.h2_data()
    if dim2 != 1:
        raise NotApplicable(f"dim H^2 = {dim2}, cup form needs 1")
    v0 = reps[0]
    pivot = int(np.nonzero(v0)[0][0])
    pivot_inv = pow(int(v0[pivot]), -1, p)
    basis = h1(G, p)
    gram = []
    for a in basis:
        row = []
        for b in basis:
            z = data.canonical_2cocycle(cup(a, b).vector())
            t = (int(z[pivot]) * pivot_inv) % p
            if ((z - t * v0) % p).any():
                raise NotACocycle("cup value escapes the 1-dim H^2")  # impossible
            row.append(t)
        gram.append(tuple(row))
    return CupForm(G, p, tuple(basis), tuple(gram),
                   tuple(int(x) for x in v0))


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
