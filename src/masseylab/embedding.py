"""Embedding problems, the lift solver, obstruction classes of central
problems, and the twisting identity machinery."""

from __future__ import annotations

import functools
import random
from typing import Optional

from . import cochains as cc
from .cochains import Cochain, CohomologyClass
from .errors import (
    BadParameter,
    KernelNotOrderP,
    NotAHomomorphism,
    NotCentral,
    SizeLimit,
    TargetMismatch,
)
from .groups import FiniteGroup, GroupHom, enumerate_homs, extend_hom, \
    fibers
from .massey import MasseyQuery
from .unitri import FiberQuotient, UniTriMatrix, fiber_quotient, unitri_group


class EmbeddingProblem:
    """phi : G -> A to be lifted through the surjection alpha : B -> A."""
    __slots__ = ("G", "A", "B", "alpha", "phi")

    def __init__(self, G, A, B, alpha, phi):
        self.G, self.A, self.B, self.alpha, self.phi = G, A, B, alpha, phi

    def validate(self) -> "EmbeddingProblem":
        if self.alpha.domain != self.B or self.alpha.codomain != self.A:
            raise BadParameter("alpha must map B onto A")
        if self.phi.domain != self.G or self.phi.codomain != self.A:
            raise BadParameter("phi must map G into A")
        if not self.alpha.is_surjective():
            raise BadParameter("alpha is not surjective")
        return self


def solve(E: EmbeddingProblem) -> Optional[GroupHom]:
    """First solution of E in deterministic search order, or None after a
    certified exhaustion of the fiber-constrained space."""
    return next(enumerate_homs(E.G, E.B, fiber=(E.alpha, E.phi)), None)


def is_solution(E: EmbeddingProblem, psi: GroupHom) -> bool:
    return psi.is_valid() and all(E.alpha(psi(x)) == E.phi(x)
                                  for x in E.G.elements())


def is_real(E: EmbeddingProblem):
    """(verdict, witness): real iff every involution t of G with phi(t) != 1
    has an involution preimage in B; on failure the witness is t."""
    inv_images = {E.alpha(b) for b in E.B.involutions()}
    for t in E.G.involutions():
        v = E.phi(t)
        if v != 0 and v not in inv_images:
            return False, t
    return True, None


# -- Dwyer problems ------------------------------------------------------------

def build_dwyer_problem(q: MasseyQuery, target: str = "U") -> EmbeddingProblem:
    """The lifting problem for -a_1 x ... x -a_n through the superdiagonal
    map, with B = U_{n+1}(p) (or its quotient by Z / by P); its solutions
    are `q.lifts(target)`."""
    phi, alpha = q.forced_hom, q.dwyer_map(target)
    return EmbeddingProblem(q.group, phi.codomain, alpha.domain,
                            alpha, phi).validate()


def find_order2_preimage(n: int, pattern) -> Optional[UniTriMatrix]:
    """Complete search for A in U_{n+1}(2) with A^2 = I and superdiagonal
    equal to the given 0/1 pattern, without materializing the group.

    Over F_2, A = I + N squares to I + N^2, so the constraint is N^2 = 0;
    entries are assigned diagonal by diagonal and every (i,j)-component of
    N^2 is checked as soon as its factors exist.
    """
    size = n + 1
    pattern = tuple(v % 2 for v in pattern)
    if len(pattern) != n:
        raise BadParameter(f"pattern length {len(pattern)} != {n}")
    N = [[0] * (size + 1) for _ in range(size + 1)]  # 1-based
    for i in range(1, size):
        N[i][i + 1] = pattern[i - 1]

    def square_entry(i, j):
        return sum(N[i][k] * N[k][j] for k in range(i + 1, j)) % 2

    spans = list(range(2, size))

    def rec(d_idx, pos_idx):
        if d_idx == len(spans):
            return True
        d = spans[d_idx]
        positions = [(i, i + d) for i in range(1, size - d + 1)]
        if pos_idx == len(positions):
            # all span-d entries of N fixed: N^2 on span-d positions is
            # determined by strictly shorter spans, so check and descend
            for (i, j) in positions:
                if square_entry(i, j):
                    return False
            return rec(d_idx + 1, 0)
        i, j = positions[pos_idx]
        for v in (0, 1):
            N[i][j] = v
            if rec(d_idx, pos_idx + 1):
                return True
        N[i][j] = 0
        return False

    # span-2 constraints involve only the fixed superdiagonal
    for i in range(1, size - 1):
        if pattern[i - 1] and pattern[i]:
            return None
    if not rec(0, 0):
        return None
    from .unitri import from_rows
    rows = [[1 if i == j else (N[i][j] if j > i else 0)
             for j in range(1, size + 1)] for i in range(1, size + 1)]
    return from_rows(rows, 2)


def dwyer_solvable(q: MasseyQuery) -> bool:
    """Solvability of E(a_1,...,a_n); falls back to the order-2 matrix
    search when U_{n+1}(p) is too big to materialize and G = Z/2."""
    n, p = q.n, q.p
    U = unitri_group(n + 1, p)
    if U.materializable():
        return solve(build_dwyer_problem(q)) is not None
    if p == 2 and q.group.order == 2:
        g = 1
        pattern = tuple(a.value(g) % 2 for a in q.chars)
        return find_order2_preimage(n, pattern) is not None
    raise SizeLimit(
        f"U_{n + 1}({p}) not materializable and no special solver applies")


# -- central problems and obstructions -----------------------------------------
#
# Every quantity below that depends only on the surjection alpha (its lift
# sections and kernel, read off the fibers that `groups.fibers` keeps, and
# the kernel's centrality and identification with Z/p) is computed once per
# alpha and shared by every problem along it; callers must not mutate what
# these return.
# functools.cache stores no exception, so a check that fails raises again on
# every call.

class CentralProblemData:
    __slots__ = ("problem", "kernel", "ident")

    def __init__(self, problem, kernel, ident):
        self.problem = problem
        self.kernel = kernel    # element indices of Ker(alpha) in B
        self.ident = ident      # kernel element -> residue mod p

    @property
    def p(self) -> int:
        return len(self.kernel)


@functools.cache
def _section(alpha: GroupHom, lift_policy: str) -> dict:
    """The least ("min") or greatest ("max") element of each fiber."""
    if lift_policy not in ("min", "max"):
        raise BadParameter(f"unknown lift policy {lift_policy!r}")
    end = 0 if lift_policy == "min" else -1
    return {a: bs[end] for a, bs in enumerate(fibers(alpha)) if bs}


@functools.cache
def _central(alpha: GroupHom, ident) -> tuple:
    """Ker(alpha), checked to be central of prime order, and its
    identification with Z/p through ident, checked to be a bijection fixing
    1; with ident None, powers of the smallest-index generator are used."""
    kernel = fibers(alpha)[0]
    B = alpha.domain
    for z in kernel:
        for b in B.elements():
            if B.mul[z][b] != B.mul[b][z]:
                raise NotCentral(f"kernel element {z} does not centralize {b}")
    p = len(kernel)
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise KernelNotOrderP(f"kernel order {p} is not prime")
    if ident is None:
        gen = min(z for z in kernel if z != 0)
        ident = {}
        x, c = 0, 0
        for _ in range(p):
            ident[x] = c
            x = B.mul[x][gen]
            c += 1
    else:
        ident = {z: ident(z) for z in kernel}
    if sorted(ident.values()) != list(range(p)) or ident[0] != 0:
        raise BadParameter("kernel identification is not a bijection fixing 1")
    return kernel, ident


def central_data(E: EmbeddingProblem, ident=None) -> CentralProblemData:
    """Kernel of alpha, centrality check, and an identification with Z/p.

    ident, when given, is a function from kernel elements to residues (e.g.
    the iota coordinates of a fiber-quotient step); otherwise powers of the
    smallest-index generator are used.  It is part of the cache key, so it
    must be hashable and give the same residues on every call.
    """
    return CentralProblemData(E, *_central(E.alpha, ident))


def obstruction(E: EmbeddingProblem, data: Optional[CentralProblemData] = None,
                lift_policy: str = "min") -> CohomologyClass:
    """The class of c(x,y) = lift(xy) lift(y)^-1 lift(x)^-1 in
    H^2(G, Z/p)."""
    if data is None:
        data = central_data(E)
    G, B, ident = E.G, E.B, data.ident
    pick = _section(E.alpha, lift_policy)
    lift = [pick[a] for a in E.phi.images]
    lift[0] = 0
    vals = []
    for x in range(1, G.order):
        for y in range(1, G.order):
            bxy = lift[G.mul[x][y]]
            prod = B.mul[lift[x]][lift[y]]
            c = B.mul[bxy][B.inv[prod]]
            vals.append(ident[c])
    z = Cochain(G, data.p, 2, tuple(vals))
    return cc.class_of(z)


def solvable_iff_obstruction_zero(E: EmbeddingProblem,
                                  data: Optional[CentralProblemData] = None
                                  ) -> dict:
    """Double-path report for a central problem: blind solve vs obstruction."""
    o = obstruction(E, data)
    sol = solve(E)
    return {"obstruction_zero": o.is_zero(),
            "solvable": sol is not None,
            "agree": (sol is not None) == o.is_zero(),
            "solution": sol}


# -- twisting ------------------------------------------------------------------

def twist(psi: GroupHom, chi: GroupHom) -> GroupHom:
    """Pointwise product g -> psi(g) chi(g); valid when chi lands in a
    central subgroup of psi's codomain."""
    if psi.codomain != chi.codomain or psi.domain != chi.domain:
        raise TargetMismatch("twist factors must share domain and codomain")
    B = psi.codomain
    images = tuple(B.mul[psi(g)][chi(g)] for g in psi.domain.elements())
    out = GroupHom(psi.domain, B, images)
    if not out.is_valid():
        raise NotAHomomorphism("twisted map is not a homomorphism")
    return out


def embed_char_in_rho_kernel(fq: FiberQuotient, chi: Cochain) -> GroupHom:
    """chi : G -> Z/p as a map into Ker(rho) <= Q_{k,m} via iota^-1."""
    images = tuple(fq.iota_inv(chi.value(g) if g else 0)
                   for g in range(chi.group.order))
    return GroupHom(chi.group, fq.group, images).check()


def rho_step_problem(psi: GroupHom, k: int, m: int, p: int) -> EmbeddingProblem:
    """E(psi): lift psi : G -> Q_{k,m} through rho_{k-1,m} : Q_{k-1,m} ->
    Q_{k,m}."""
    if k < 2:
        raise BadParameter("need k >= 2 so that rho_{k-1,m} exists")
    src = fiber_quotient(k - 1, m, p)
    tgt = fiber_quotient(k, m, p)
    if psi.codomain != tgt.group:
        raise TargetMismatch("psi does not land in Q_{k,m}")
    return EmbeddingProblem(psi.domain, tgt.group, src.group,
                            src.rho_hom(), psi).validate()


def rho_step_obstruction(psi: GroupHom, k: int, m: int, p: int,
                         lift_policy: str = "min") -> CohomologyClass:
    """Obstruction of E(psi) in the iota coordinates of Ker(rho_{k-1,m})."""
    E = rho_step_problem(psi, k, m, p)
    src = fiber_quotient(k - 1, m, p)
    data = central_data(E, ident=src.iota)
    return obstruction(E, data, lift_policy)


def chars_of_quotient_hom(psi: GroupHom, fq: FiberQuotient) -> tuple:
    """Recover (a_1, ..., a_{m-1}) with phi o psi = -a_1 x ... x -a_{m-1}
    from a homomorphism into a fiber quotient."""
    G, p, m = psi.domain, fq.p, fq.m
    out = []
    for i in range(1, m):
        vals = [(-fq.entry_of(psi(g), i, i + 1)) % p
                for g in range(1, G.order)]
        out.append(Cochain(G, p, 1, tuple(vals)))
    return tuple(out)


def verify_twisting(G: FiniteGroup, p: int, n: int, k: int,
                    sample: Optional[int] = None, seed: int = 0) -> list[dict]:
    """Check o(E(psi chi)) = o(E(psi)) + a_{k-1} cup chi over homomorphisms
    psi : G -> Q_{k,n+1} and characters chi, where E lifts through
    rho_{k-1,n+1}.

    k is the descent index (2 <= k <= n-1).  With sample=None the sweep is
    exhaustive; otherwise `sample` seeded (psi, chi) pairs are drawn.
    """
    if not 2 <= k <= n - 1:
        raise BadParameter(f"descent index k = {k} outside 2..{n - 1}")
    if sample is not None and sample < 1:
        raise BadParameter(f"sample size {sample} must be >= 1")
    m = n + 1
    tgt = fiber_quotient(k, m, p)
    chis = cc.characters(G, p)
    if sample is None:
        pairs = [(psi, chi) for psi in enumerate_homs(G, tgt.group)
                 for chi in chis]
    else:
        # rejection-sample homomorphisms by random generator images so the
        # full Hom set is never enumerated
        rng = random.Random(seed)
        H = tgt.group
        pairs = []
        while len(pairs) < sample:
            psi = extend_hom(G, H, tuple(rng.randrange(H.order)
                                         for _ in G.generators))
            if psi is None:
                continue
            pairs.append((psi, rng.choice(chis)))

    @functools.cache
    def base(psi):
        """a_{k-1} and o(E(psi)), computed once for every chi paired with
        psi."""
        return (chars_of_quotient_hom(psi, tgt)[k - 2],
                rho_step_obstruction(psi, k, m, p))

    @functools.cache
    def in_kernel(chi):
        """chi as a map into Ker(rho), built once for every psi paired
        with chi."""
        return embed_char_in_rho_kernel(tgt, chi)

    records = []
    for psi, chi in pairs:
        a_prev, o_base = base(psi)
        psix = twist(psi, in_kernel(chi))
        o_tw = rho_step_obstruction(psix, k, m, p)
        expected = o_base + cc.class_of(cc.cup(a_prev, chi))
        records.append({
            "psi": psi.gen_images(),
            "chi": tuple(chi.values),
            "holds": o_tw == expected,
        })
    return records
