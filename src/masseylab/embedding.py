"""Embedding problems, the lift solver, obstruction classes of central
problems, and the twisting identity machinery."""

from __future__ import annotations

import functools
import itertools
import random
from typing import Optional

from . import cochains as cc
from .cochains import Cochain, CohomologyClass
from .errors import (
    BadParameter,
    KernelNotOrderP,
    NotCentral,
    SizeLimit,
    TargetMismatch,
)
from .groups import FiniteGroup, GroupHom, enumerate_homs, extend_hom, \
    fibers, index_to_vec
from .massey import MasseyQuery
from .unitri import FiberQuotient, UniTriMatrix, _positions, _product_plan, \
    fiber_quotient, unitri_group


class EmbeddingProblem:
    """phi : G -> A to be lifted through the surjection alpha : B -> A, with
    G, A and B read off the two maps."""
    __slots__ = ("alpha", "phi")

    def __init__(self, alpha: GroupHom, phi: GroupHom):
        if phi.codomain != alpha.codomain:
            raise TargetMismatch("phi must land in the codomain of alpha")
        if not all(fibers(alpha)):
            raise BadParameter("alpha is not surjective")
        self.alpha, self.phi = alpha, phi

    G = property(lambda self: self.phi.domain)
    A = property(lambda self: self.alpha.codomain)
    B = property(lambda self: self.alpha.domain)


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

def build_dwyer_problem(q: MasseyQuery) -> EmbeddingProblem:
    """The lifting problem for -a_1 x ... x -a_n through the superdiagonal
    map, with B = U_{n+1}(p); its solutions are `q.lifts()`."""
    return EmbeddingProblem(q.dwyer_map(), q.forced_hom)


def find_order2_preimage(pattern) -> Optional[UniTriMatrix]:
    """Complete search for A in U_{n+1}(2), n = len(pattern), with A^2 = I
    and superdiagonal equal to the given 0/1 pattern, without
    materializing the group.

    By the product rule, (A^2)_t = 2 a_t + sum over plan[t] of a_s a_u,
    which over F_2 is the plan sum alone and reads only entries of shorter
    span than t.  So the span-d entries of A^2 are checked before the
    span-d entries of A are chosen, and those are tried in lexicographic
    order, span by span.
    """
    pattern = tuple(v % 2 for v in pattern)
    n = len(pattern)
    positions, plan = _positions(n + 1), _product_plan(n + 1)
    a = [pattern[i - 1] if j == i + 1 else 0 for (i, j) in positions]
    spans = [[t for t, (i, j) in enumerate(positions) if j - i == d]
             for d in range(2, n + 1)]

    def rec(k):
        """Complete the entries of spans[k:], given those of shorter span."""
        if k == len(spans):
            return True
        if any(sum(a[s] * a[u] for s, u in plan[t]) % 2 for t in spans[k]):
            return False
        for values in itertools.product((0, 1), repeat=len(spans[k])):
            for t, v in zip(spans[k], values):
                a[t] = v
            if rec(k + 1):
                return True
        return False

    return UniTriMatrix(n + 1, 2, tuple(a)) if rec(0) else None


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
        return find_order2_preimage(pattern) is not None
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

@functools.cache
def _section(alpha: GroupHom, lift_policy: str) -> dict:
    """The least ("min") or greatest ("max") element of each fiber."""
    if lift_policy not in ("min", "max"):
        raise BadParameter(f"unknown lift policy {lift_policy!r}")
    end = 0 if lift_policy == "min" else -1
    return {a: bs[end] for a, bs in enumerate(fibers(alpha)) if bs}


@functools.cache
def central_data(alpha: GroupHom) -> tuple:
    """(kernel, coord): Ker(alpha), checked to be central of prime order p,
    and its identification with Z/p, the dict that sends the c-th power of
    the least non-identity kernel element, kernel[1], to c.  Centrality is
    checked against B's listed generators, which generate B.

    On the kernel {I + c e_{k-1,m}} of rho_{k-1,m} that element is the
    one with c = 1 (elements are numbered by their kept digits, and c is
    one of them), so coord is `FiberQuotient.iota` there.
    """
    kernel = fibers(alpha)[0]
    B = alpha.domain
    for z in kernel:
        for b in B.generators:
            if B.mul[z][b] != B.mul[b][z]:
                raise NotCentral(f"kernel element {z} does not centralize {b}")
    p = len(kernel)
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise KernelNotOrderP(f"kernel order {p} is not prime")
    coord, x = {}, 0
    for c in range(p):
        coord[x] = c
        x = B.mul[x][kernel[1]]
    return kernel, coord


def obstruction(E: EmbeddingProblem,
                lift_policy: str = "min") -> CohomologyClass:
    """The class of c(x,y) = lift(xy) lift(y)^-1 lift(x)^-1 in
    H^2(G, Z/p), in the kernel coordinates of `central_data(E.alpha)`."""
    kernel, coord = central_data(E.alpha)
    G, B = E.G, E.B
    pick = _section(E.alpha, lift_policy)
    lift = [pick[a] for a in E.phi.images]
    lift[0] = 0
    vals = []
    for x in range(1, G.order):
        for y in range(1, G.order):
            bxy = lift[G.mul[x][y]]
            prod = B.mul[lift[x]][lift[y]]
            c = B.mul[bxy][B.inv[prod]]
            vals.append(coord[c])
    return cc.class_of(cc.cochain(G, len(kernel), 2, vals))


def solvable_iff_obstruction_zero(E: EmbeddingProblem) -> dict:
    """Double-path report for a central problem: blind solve vs obstruction."""
    o = obstruction(E)
    sol = solve(E)
    return {"obstruction": o,
            "obstruction_zero": o.is_zero(),
            "solvable": sol is not None,
            "agree": (sol is not None) == o.is_zero(),
            "solution": sol}


# -- twisting ------------------------------------------------------------------

def twist(psi: GroupHom, chi: GroupHom) -> GroupHom:
    """Pointwise product g -> psi(g) chi(g) of two homomorphisms, itself
    one when chi lands in the centre of psi's codomain B: NotCentral
    unless each image of chi commutes with B's listed generators."""
    if psi.codomain != chi.codomain or psi.domain != chi.domain:
        raise TargetMismatch("twist factors must share domain and codomain")
    B = psi.codomain
    for z, b in itertools.product(set(chi.images), B.generators):
        if B.mul[z][b] != B.mul[b][z]:
            raise NotCentral(f"image {z} of chi does not centralize {b}")
    images = tuple(B.mul[psi(g)][chi(g)] for g in psi.domain.elements())
    return GroupHom(psi.domain, B, images)


def embed_char_in_rho_kernel(fq: FiberQuotient, chi: Cochain) -> GroupHom:
    """chi : G -> Z/p as a map into Ker(rho) <= Q_{k,m} via iota^-1."""
    images = tuple(fq.iota_inv(chi.value(g) if g else 0)
                   for g in range(chi.group.order))
    return GroupHom(chi.group, fq.group, images).check()


def rho_step_problem(psi: GroupHom, k: int, m: int, p: int) -> EmbeddingProblem:
    """E(psi): lift psi : G -> Q_{k,m} through rho_{k-1,m} : Q_{k-1,m} ->
    Q_{k,m}; TargetMismatch unless psi lands in Q_{k,m}."""
    if k < 2:
        raise BadParameter("need k >= 2 so that rho_{k-1,m} exists")
    return EmbeddingProblem(fiber_quotient(k - 1, m, p).rho_hom(), psi)


def rho_step_obstruction(psi: GroupHom, k: int, m: int,
                         p: int) -> CohomologyClass:
    """Obstruction of E(psi) in the iota coordinates of Ker(rho_{k-1,m}),
    which are those of `central_data`."""
    return obstruction(rho_step_problem(psi, k, m, p))


def chars_of_quotient_hom(psi: GroupHom, fq: FiberQuotient) -> tuple:
    """Recover (a_1, ..., a_{m-1}) with phi o psi = -a_1 x ... x -a_{m-1}
    from a homomorphism into a fiber quotient."""
    G, p, n = psi.domain, fq.p, fq.m - 1
    phi = fq.phi_hom()
    rows = [index_to_vec(p, n, phi(psi(g))) for g in range(1, G.order)]
    return tuple(cc.cochain(G, p, 1, [-row[i] for row in rows])
                 for i in range(n))


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
        """a_{k-1} and o(E(psi)), computed once per homomorphism; psi chi is
        one too, so its obstruction is read from here as well."""
        return (chars_of_quotient_hom(psi, tgt)[k - 2],
                rho_step_obstruction(psi, k, m, p))

    @functools.cache
    def in_kernel(chi):
        """chi as a map into Ker(rho), built once for every psi paired
        with chi."""
        return embed_char_in_rho_kernel(tgt, chi)

    @functools.cache
    def cup_class(a_prev, chi):
        """The class of a_{k-1} cup chi, computed once per (a_{k-1}, chi)."""
        return cc.class_of(cc.cup(a_prev, chi))

    records = []
    for psi, chi in pairs:
        a_prev, o_base = base(psi)
        o_tw = base(twist(psi, in_kernel(chi)))[1]
        expected = o_base + cup_class(a_prev, chi)
        records.append({
            "psi": psi.gen_images(),
            "chi": chi.values,
            "holds": o_tw == expected,
        })
    return records
