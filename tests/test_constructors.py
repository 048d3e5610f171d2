"""The named group constructors against the nested-loop tables they built
before each stated only its generators' right action.

Nothing here builds a group at import, so a fault in a constructor fails
these tests by name."""

from array import array

import numpy as np
import pytest

import oracles as o

from masseylab import groups as gr
from masseylab.cli import FIXTURES
from masseylab.errors import BadParameter


# Each oracle is the constructor's earlier nested loop: the full table from
# its multiplication formula, one cell at a time, and the generators it
# listed.

def old_cyclic(n):
    return [[(x + y) % n for y in range(n)] for x in range(n)], \
        ((1,) if n > 1 else ())


def old_direct_product(G, H):
    hn, n = H.order, G.order * H.order
    mul = [[0] * n for _ in range(n)]
    for xa in range(G.order):
        for xb in range(hn):
            row = mul[xa * hn + xb]
            for ya in range(G.order):
                for yb in range(hn):
                    row[ya * hn + yb] = G.mul[xa][ya] * hn + H.mul[xb][yb]
    return mul, [g * hn for g in G.generators] + list(H.generators)


def old_vector_group(p, n):
    order = p ** n
    mul = [[0] * order for _ in range(order)]
    for x in range(order):
        xv = gr.index_to_vec(p, n, x)
        for y in range(order):
            yv = gr.index_to_vec(p, n, y)
            mul[x][y] = gr.vec_to_index(p, [(a + b) % p
                                             for a, b in zip(xv, yv)])
    return mul, [gr.vec_to_index(p, [int(j == i) for j in range(n)])
                 for i in range(n)]


def old_semidirect_cyclic(l, k, p):
    m = l ** k
    n = m * m
    mul = [[0] * n for _ in range(n)]
    for a1 in range(m):
        for b1 in range(m):
            row = mul[a1 * m + b1]
            for a2 in range(m):
                for b2 in range(m):
                    a = (a1 + a2 * pow(p, b1, m)) % m
                    row[a2 * m + b2] = a * m + (b1 + b2) % m
    return mul, [m, 1]


def old_dihedral(n):
    mul = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for s in range(2):
            row = mul[i + n * s]
            for j in range(n):
                for t in range(2):
                    row[j + n * t] = (i + (j if s == 0 else -j)) % n + \
                        n * (s ^ t)
    return mul, [1, n] if n > 1 else [1]


def old_quaternion8():
    units = {("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
             ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
             ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
             ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
             ("k", "k"): (-1, "1")}

    def mulq(a, b):
        (sa, ua), (sb, ub) = a, b
        if ua == "1" or ub == "1":
            return sa * sb, ub if ua == "1" else ua
        s, u = units[(ua, ub)]
        return sa * sb * s, u
    elems = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"),
             (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    return [[elems.index(mulq(a, b)) for b in elems] for a in elems], (2, 4)


def assert_built_as(G, old):
    mul, gens = old
    assert all(type(row) is array and row.typecode == "H" for row in G.mul)
    assert tuple(map(tuple, G.mul)) == tuple(map(tuple, mul))
    assert G.inv == o.inverses(mul)
    assert G.generators == tuple(gens)


def test_cyclic_matches_the_nested_loop_table():
    for n in range(1, 65):
        assert_built_as(gr.build_cyclic(n), old_cyclic(n))


@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3, 5, 7, 11, 13)
                                  for n in range(10) if p ** n <= 512])
def test_vector_group_matches_the_nested_loop_table(p, n):
    assert_built_as(gr.build_vector_group(p, n), old_vector_group(p, n))


def test_dihedral_and_quaternion_match_the_nested_loop_tables():
    for n in range(1, 33):
        assert_built_as(gr.build_dihedral(n), old_dihedral(n))
    assert_built_as(gr.build_quaternion8(), old_quaternion8())


PRODUCT_FACTORS = ("Z1", "Z2", "Z3", "V4", "S3", "D4", "Q8")


@pytest.mark.parametrize("left", PRODUCT_FACTORS)
def test_direct_product_matches_the_nested_loop_table(left):
    G = FIXTURES[left]()
    for right in PRODUCT_FACTORS:
        H = FIXTURES[right]()
        assert_built_as(gr.build_direct_product(G, H),
                        old_direct_product(G, H))


def accepted_semidirect_triples(max_m):
    """Every (l, k, p) with l^k <= max_m that build_semidirect_cyclic
    accepts, p in 1..l^k: the table depends on p only mod l^k."""
    for l in range(2, max_m + 1):
        for k in range(1, max_m.bit_length()):
            m = l ** k
            if m > max_m:
                break
            for p in range(1, m + 1):
                if p % l and pow(p, m, m) == 1:
                    yield l, k, p


def test_semidirect_matches_the_nested_loop_table():
    triples = list(accepted_semidirect_triples(16))
    assert (3, 2, 4) in triples and (2, 3, 5) in triples
    for l, k, p in triples:
        assert_built_as(gr.build_semidirect_cyclic(l, k, p),
                        old_semidirect_cyclic(l, k, p))


def test_an_action_that_disagrees_with_its_generators_is_refused():
    x = np.arange(6)
    # right multiplication by 5 = -1 in Z6, listed as generator 1
    with pytest.raises(BadParameter):
        gr.group_from_action([(x - 1) % 6], 6, (1,), "Z6")
    assert gr.group_from_action([(x - 1) % 6], 6, (5,),
                                "Z6").mul == gr.build_cyclic(6).mul
