import itertools
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masseylab import cochains as cc
from masseylab import embedding as em
from masseylab import gfp
from masseylab import groups as gr
from masseylab import massey as ms
from masseylab.cli import FIXTURES
from masseylab.errors import DegreeLimit, GeneratorsDontGenerate, \
    NotACocycle, NotApplicable, ShapeMismatch, SizeLimit

GROUPS = {
    "Z2": gr.build_cyclic(2),
    "Z4": gr.build_cyclic(4),
    "V4": gr.build_vector_group(2, 2),
    "S3": gr.build_symmetric3(),
}


def dense(rows, ncols, p) -> np.ndarray:
    """A matrix of packed rows as a numpy array."""
    S = gfp.space(ncols, p)
    return np.array([S.unpack(r) for r in rows],
                    dtype=np.int64).reshape(len(rows), ncols)


def random_cochain(G, p, degree, rng):
    n = (G.order - 1) ** degree
    return cc.cochain(G, p, degree, tuple(rng.randrange(p) for _ in range(n)))


def test_normalized_values():
    G = GROUPS["V4"]
    f = random_cochain(G, 2, 2, random.Random(0))
    assert f.value(0, 1) == 0 and f.value(1, 0) == 0


def test_delta_squared_zero_seeded():
    rng = random.Random(42)
    for G in GROUPS.values():
        for p in (2, 3):
            for _ in range(25):
                f1 = random_cochain(G, p, 1, rng)
                assert cc.coboundary(cc.coboundary(f1)).is_zero()


def test_leibniz_seeded():
    rng = random.Random(7)
    for G in GROUPS.values():
        for p in (2, 3):
            for _ in range(25):
                a = random_cochain(G, p, 1, rng)
                b = random_cochain(G, p, 1, rng)
                lhs = cc.coboundary(cc.cup(a, b))
                rhs = cc.cup(cc.coboundary(a), b) - cc.cup(a, cc.coboundary(b))
                assert lhs.values == rhs.values


def test_degree_limit():
    G = GROUPS["Z2"]
    f3 = cc.zero_cochain(G, 2, 3)
    with pytest.raises(DegreeLimit):
        cc.coboundary(f3)
    with pytest.raises(DegreeLimit):
        cc.cup(cc.zero_cochain(G, 2, 2), cc.zero_cochain(G, 2, 2))


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        cc.zero_cochain(GROUPS["Z2"], 2, 1) + cc.zero_cochain(GROUPS["Z4"], 2, 1)


DIMS = [
    ("Z2", 2, 1, 1),
    ("Z4", 2, 1, 1),
    ("V4", 2, 2, 3),
    ("S3", 2, 1, 1),
    ("S3", 3, 0, 0),
]


@pytest.mark.parametrize("name,p,d1,d2", DIMS)
def test_cohomology_dims(name, p, d1, d2):
    G = GROUPS[name]
    assert len(cc.h1(G, p)) == d1
    assert cc.h2(G, p)[0] == d2


def test_more_dims():
    assert len(cc.h1(gr.build_quaternion8(), 2)) == 2
    assert cc.h2(gr.build_quaternion8(), 2)[0] == 2
    assert len(cc.h1(gr.build_dihedral(4), 2)) == 2
    assert cc.h2(gr.build_dihedral(4), 2)[0] == 3
    assert cc.h2(gr.build_vector_group(3, 2), 3)[0] == 3


def test_h1_elements_are_homs():
    for a in cc.h1(GROUPS["S3"], 2):
        a.as_hom()  # raises if not a homomorphism


def test_class_of_mod_coboundaries():
    G = GROUPS["V4"]
    rng = random.Random(3)
    data = cc.complex_data(G, 2)
    dim, classes = data.h2_data()
    z = classes_rep = None
    # pick a 2-cocycle: coboundary of a random 1-cochain plus a class rep
    f = random_cochain(G, 2, 1, rng)
    _, cl = cc.h2(G, 2)
    z = cl[1].representative
    assert cc.class_of(z + cc.coboundary(f)) == cc.class_of(z)
    assert cc.is_coboundary(cc.coboundary(f))


def test_cup_commutes_p2():
    G = GROUPS["V4"]
    a, b = cc.h1(G, 2)
    assert cc.class_of(cc.cup(a, b)) == cc.class_of(cc.cup(b, a))


def test_cup_anticommutes_p3():
    G = gr.build_vector_group(3, 2)
    a, b = cc.h1(G, 3)
    assert cc.class_of(cc.cup(a, b)) == -cc.class_of(cc.cup(b, a))
    assert cc.class_of(cc.cup(a, a)).is_zero()


DEMUSHKIN = [
    ("Z2", 2, True),
    ("Z4", 2, False),
    ("S3", 2, True),
]


@pytest.mark.parametrize("name,p,verdict", DEMUSHKIN)
def test_demushkin_fixtures(name, p, verdict):
    assert cc.demushkin_check(GROUPS[name], p)["verdict"] == verdict


def test_demushkin_odd_and_trivial():
    assert cc.demushkin_check(gr.build_cyclic(3), 3)["verdict"] is False
    assert cc.demushkin_check(gr.build_cyclic(5), 5)["verdict"] is False
    assert cc.demushkin_check(gr.build_cyclic(1), 2)["verdict"] is False


def test_cup_form_not_applicable():
    with pytest.raises(NotApplicable):
        cc.cup_form(GROUPS["V4"], 2)  # dim H^2 = 3


def old_h2_coordinate(klass, gen):
    """The replaced `verify._h2_coordinate`: the coordinate of klass in the
    1-dimensional H^2 spanned by gen, read off the canonical vectors."""
    p = gen.p
    S = gen.representative.space
    gv, kv = S.unpack(gen.canon), S.unpack(klass.canon)
    i = next(i for i, g in enumerate(gv) if g % p)
    t = (kv[i] * pow(gv[i], -1, p)) % p
    assert not any((t * g - k) % p for g, k in zip(gv, kv))
    return t


def old_cup_form_gram(G, p):
    """The replaced inline arithmetic of `cup_form`: each cup's canonical
    vector divided by the H^2 representative at that representative's
    pivot."""
    data = cc.complex_data(G, p)
    _, (v0,) = data.h2_data()
    S = gfp.space((G.order - 1) ** 2, p)
    pivot = S.first(v0)
    pivot_inv = pow(S.entry(v0, pivot), -1, p)
    basis = cc.h1(G, p)
    gram = []
    for a in basis:
        row = []
        for b in basis:
            z = data.canonical_2cocycle(cc.cup(a, b).vec)
            t = (S.entry(z, pivot) * pivot_inv) % p
            assert not S.sub(z, S.scale(v0, t))
            row.append(t)
        gram.append(tuple(row))
    return tuple(gram)


ONE_DIMENSIONAL_H2 = [("S3", 2), ("Z2", 2), ("Z4", 2), ("Z6", 2), ("Z8", 2),
                      ("Z3", 3), ("Z6", 3), ("Z9", 3), ("Z5", 5)]


@pytest.mark.parametrize("name,p", ONE_DIMENSIONAL_H2)
def test_h2_coordinate_and_cup_form_match_the_replaced_arithmetic(name, p):
    G = FIXTURES[name]()
    dim, (gen,) = cc.h2(G, p)
    assert dim == 1
    rng = random.Random(f"{name}:{p}")
    for t in range(p):
        # t times the generator, moved by a coboundary
        z = gen.representative.scale(t) + \
            cc.coboundary(random_cochain(G, p, 1, rng))
        assert cc.h2_coordinate(z) == \
            old_h2_coordinate(cc.class_of(z), gen) == t
    basis = cc.h1(G, p)
    for a, b in itertools.product(basis, repeat=2):
        z = cc.cup(a, b)
        assert cc.h2_coordinate(z) == old_h2_coordinate(cc.class_of(z), gen)
    assert cc.cup_form(G, p).gram == old_cup_form_gram(G, p)


def test_h2_coordinate_needs_a_degree_2_class_and_a_one_dimensional_h2():
    G = GROUPS["V4"]
    a, b = cc.h1(G, 2)
    with pytest.raises(NotApplicable):
        cc.h2_coordinate(cc.cup(a, b))  # dim H^2 = 3
    with pytest.raises(ShapeMismatch):
        cc.h2_coordinate(cc.h1(GROUPS["Z2"], 2)[0])


# every 2-cochain on Z/2 is closed, so it has none to refuse
@pytest.mark.parametrize("name,p", [c for c in ONE_DIMENSIONAL_H2
                                    if c != ("Z2", 2)])
def test_h2_coordinate_refuses_a_degree_2_cochain_that_is_not_closed(name, p):
    """The residual check of `h2_coordinate` is the cocycle check: every
    degree-2 cochain that `is_cocycle` refuses raises NotACocycle, and
    every one it accepts gets a coordinate."""
    G = FIXTURES[name]()
    rng = random.Random(f"closed:{name}:{p}")
    refused = 0
    for _ in range(10):
        z = random_cochain(G, p, 2, rng)
        if cc.is_cocycle(z):
            assert cc.h2_coordinate(z) in range(p)
        else:
            refused += 1
            with pytest.raises(NotACocycle):
                cc.h2_coordinate(z)
    assert refused


def test_cohomology_size_limit():
    with pytest.raises(SizeLimit):
        cc.complex_data(gr.build_cyclic(33), 2)
    with pytest.raises(SizeLimit):
        cc.coboundary(cc.zero_cochain(gr.build_cyclic(33), 2, 1))


@pytest.mark.parametrize("whole, left, right, dims", [
    (lambda: gr.build_vector_group(2, 5), lambda: gr.build_vector_group(2, 3),
     lambda: gr.build_vector_group(2, 2), (5, 15)),
    (lambda: gr.build_direct_product(gr.build_dihedral(8), gr.build_cyclic(2)),
     lambda: gr.build_dihedral(8), lambda: gr.build_cyclic(2), (3, 6)),
    (lambda: gr.build_direct_product(gr.build_quaternion8(),
                                     gr.build_vector_group(2, 2)),
     gr.build_quaternion8, lambda: gr.build_vector_group(2, 2), (4, 9)),
], ids=["Z2^5", "D8xZ2", "Q8xV4"])
def test_order_32_cohomology_matches_kuenneth(whole, left, right, dims):
    """Over a field, h1(GxH) = h1(G) + h1(H) and
    h2(GxH) = h2(G) + h1(G) h1(H) + h2(H)."""
    a, b = cc.demushkin_check(left(), 2), cc.demushkin_check(right(), 2)
    kuenneth = (a["dim_h1"] + b["dim_h1"],
                a["dim_h2"] + a["dim_h1"] * b["dim_h1"] + b["dim_h2"])
    G = whole()
    assert G.order == 32
    start = time.perf_counter()
    got = cc.demushkin_check(G, 2)
    assert time.perf_counter() - start < 10
    assert (got["dim_h1"], got["dim_h2"]) == kuenneth == dims


def test_complex_data_is_memoised_on_the_group_and_prime():
    data = cc.complex_data(gr.build_quaternion8(), 2)
    # an equal table built again maps to the same instance
    assert cc.complex_data(gr.build_quaternion8(), 2) is data
    assert data.d1 is data.d1 and data.h2_data() is data.h2_data()
    dim, reps = data.h2_data()
    fresh_dim, fresh_reps = cc.ComplexData.h2_data.__wrapped__(
        cc.ComplexData(gr.build_quaternion8(), 2))
    assert dim == fresh_dim == 2
    assert reps == fresh_reps and all(type(r) is int for r in reps)


# -- the pointwise formulas the matrix forms must agree with --------------------

def _tuples(N, d):
    """All d-tuples of non-identity elements, lexicographic."""
    return itertools.product(range(1, N), repeat=d)


def rowwise_delta_matrix(G, p, d):
    """delta_d built one row at a time from the face formula."""
    N = G.order
    ncols = (N - 1) ** d
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
            merged = gs[:i] + (G.mul[gs[i]][gs[i + 1]],) + gs[i + 2:]
            bump(merged, (-1) ** (i + 1))
        bump(gs[:d], (-1) ** (d + 1))
        rows.append(basisrow)
    return np.array(rows, dtype=np.int64) if rows else \
        np.zeros((0, ncols), dtype=np.int64)


def pointwise_coboundary(f):
    G, p, d = f.group, f.p, f.degree
    out = []
    for gs in _tuples(G.order, d + 1):
        v = f.value(*gs[1:])
        for i in range(d):
            merged = gs[:i] + (G.mul[gs[i]][gs[i + 1]],) + gs[i + 2:]
            v += (-1) ** (i + 1) * f.value(*merged)
        v += (-1) ** (d + 1) * f.value(*gs[:d])
        out.append(v % p)
    return cc.cochain(G, p, d + 1, out)


def pointwise_cup(a, b):
    r, s = a.degree, b.degree
    return cc.cochain(a.group, a.p, r + s,
                      tuple((a.value(*gs[:r]) * b.value(*gs[r:])) % a.p
                            for gs in _tuples(a.group.order, r + s)))


ORDERS = {name: make().order for name, make in FIXTURES.items()}


@pytest.mark.parametrize("name", sorted(
    n for n, order in ORDERS.items()
    if 1 < order <= cc.MAX_COHOMOLOGY_ORDER))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_matrix_forms_match_the_pointwise_formulas(name, p):
    G = FIXTURES[name]()
    data = cc.complex_data(G, p)
    rng = random.Random(f"{name}:{p}")
    for d in (0, 1, 2):
        delta = data.delta_matrix(d)
        assert all(type(r) is int for r in delta)
        assert len(delta) == (G.order - 1) ** (d + 1)
        assert (dense(delta, (G.order - 1) ** d, p) ==
                rowwise_delta_matrix(G, p, d)).all()
        for _ in range(3):
            f = random_cochain(G, p, d, rng)
            got = cc.coboundary(f)
            assert got == pointwise_coboundary(f)
            assert all(type(v) is int for v in got.values)
    for r, s in itertools.product((0, 1, 2), repeat=2):
        if r + s <= cc.MAX_DEGREE:
            a, b = random_cochain(G, p, r, rng), random_cochain(G, p, s, rng)
            got = cc.cup(a, b)
            assert got == pointwise_cup(a, b)
            assert all(type(v) is int for v in got.values)


def test_delta_1_matches_the_rowwise_build_at_order_32():
    G = gr.build_direct_product(gr.build_dihedral(8), gr.build_cyclic(2))
    assert G.order == 32
    delta = cc.complex_data(G, 3).delta_matrix(1)
    assert (dense(delta, 31, 3) == rowwise_delta_matrix(G, 3, 1)).all()


def test_cochains_built_twice_are_equal_values():
    V4 = gr.build_vector_group(2, 2)
    a, b = (cc.cochain(V4, 2, 1, (1, 0, 1)) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != cc.cochain(V4, 3, 1, (1, 0, 1))
    assert a != (V4, 2, 1, (1, 0, 1))  # a value, not a tuple


@pytest.mark.parametrize("degree,values", [(1, [1, 0]), (1, [1, 0, 0, 1]),
                                           (2, [1] * 8), (0, [])])
def test_cochain_refuses_a_wrong_number_of_values(degree, values):
    """(N-1)^d values and no other count: too few were padded with zeros,
    and too many packed a field past the space."""
    V4 = GROUPS["V4"]
    with pytest.raises(ShapeMismatch, match=f"{3 ** degree} values, got "
                                            f"{len(values)}"):
        cc.cochain(V4, 2, degree, values)


def test_trivial_group_cochains_have_no_values_above_degree_0():
    Z1 = gr.build_cyclic(1)
    assert cc.zero_cochain(Z1, 2, 0).values == (0,)
    f = cc.zero_cochain(Z1, 2, 1)
    assert f.values == () and f.value(0) == 0
    assert cc.complex_data(Z1, 2).delta_matrix(1) == []
    assert cc.is_cocycle(f) and cc.is_cocycle(cc.cup(f, f))
    assert cc.coboundary(cc.cochain(Z1, 2, 0, (1,))).values == ()
    assert cc.h1(Z1, 2) == [] and cc.h2(Z1, 2) == (0, [])
    assert cc.h1_combination(Z1, 2, ()) == f


def test_h1_combination_is_the_reduced_sum_of_basis_multiples():
    G = gr.build_vector_group(3, 2)
    a, b = cc.h1(G, 3)
    assert cc.h1_combination(G, 3, (0, 0)) == cc.zero_cochain(G, 3, 1)
    assert cc.h1_combination(G, 3, (2, 1)) == a.scale(2) + b
    assert cc.h1_combination(G, 3, np.array([1, 2])) == a + b.scale(2)


# -- properties on random groups ----------------------------------------------

SMALL_FIXTURES = sorted(n for n, order in ORDERS.items() if order <= 8)
# (l, k, p) with x -> p x an automorphism of Z/l^k of order dividing l^k and
# order l^2k <= 16
SEMIDIRECT = [(2, 1, 3), (3, 1, 4), (3, 1, 7), (2, 2, 3), (2, 2, 5),
              (4, 1, 3)]


@st.composite
def small_groups(draw):
    """A direct product of two CLI fixtures, or a build_semidirect_cyclic
    group, of order <= 16."""
    if draw(st.booleans()):
        return gr.build_semidirect_cyclic(*draw(st.sampled_from(SEMIDIRECT)))
    left = FIXTURES[draw(st.sampled_from(SMALL_FIXTURES))]()
    right = FIXTURES[draw(st.sampled_from(
        [n for n in SMALL_FIXTURES if ORDERS[n] * left.order <= 16]))]()
    return gr.build_direct_product(left, right)


def cochains_of(draw, G, p, degree):
    return cc.cochain(G, p, degree, tuple(draw(st.lists(
        st.integers(0, p - 1), min_size=(G.order - 1) ** degree,
        max_size=(G.order - 1) ** degree))))


PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)


@PROPERTY_SETTINGS
@given(small_groups())
def test_drawn_groups_satisfy_the_group_axioms(G):
    assert G.order <= 16
    gr.validate_group(G.mul, G.generators)


@PROPERTY_SETTINGS
@given(st.data(), small_groups(), st.sampled_from([2, 3, 5]),
       st.sampled_from([0, 1]))
def test_delta_squared_is_zero(data, G, p, degree):
    f = cochains_of(data.draw, G, p, degree)
    assert cc.coboundary(cc.coboundary(f)).is_zero()


@PROPERTY_SETTINGS
@given(st.data(), small_groups(), st.sampled_from([2, 3, 5]),
       st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)]))
def test_leibniz_rule(data, G, p, degrees):
    """delta(a cup b) = delta a cup b + (-1)^r a cup delta b."""
    r, s = degrees
    a, b = cochains_of(data.draw, G, p, r), cochains_of(data.draw, G, p, s)
    lhs = cc.coboundary(cc.cup(a, b))
    rhs = cc.cup(cc.coboundary(a), b) + \
        cc.cup(a, cc.coboundary(b)).scale((-1) ** r)
    assert lhs == rhs


# -- cocycles from the generator rows of delta ---------------------------------

COHOMOLOGY_FIXTURES = sorted(n for n, order in ORDERS.items()
                             if order <= cc.MAX_COHOMOLOGY_ORDER)


def generator_rows(G, d):
    """Indices of the rows of delta_d whose first argument is a listed
    non-identity generator."""
    block = (G.order - 1) ** d
    return [(s - 1) * block + i for s in sorted(set(G.generators) - {0})
            for i in range(block)]


def assert_kernels_match(G, p):
    data = cc.complex_data(G, p)
    for d in (1, 2):
        ncols = (G.order - 1) ** d
        rows = data.cocycle_matrix(d)
        full = data.delta_matrix(d)
        assert rows == [full[i] for i in generator_rows(G, d)]
        assert gfp.nullspace(rows, ncols, p) == \
            gfp.nullspace(full, ncols, p)


@pytest.mark.parametrize("name", COHOMOLOGY_FIXTURES)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_generator_rows_have_the_kernel_of_delta(name, p):
    assert_kernels_match(FIXTURES[name](), p)


@PROPERTY_SETTINGS
@given(small_groups(), st.sampled_from([2, 3, 5]))
def test_generator_rows_have_the_kernel_of_delta_on_drawn_groups(G, p):
    assert_kernels_match(G, p)


def test_generator_rows_have_the_kernel_of_delta_2_at_order_32():
    """A fresh, uncached ComplexData, so the 29791-row delta_2 is freed
    after the test."""
    G = gr.build_direct_product(gr.build_dihedral(8), gr.build_cyclic(2))
    data = cc.ComplexData(G, 2)
    full = cc.ComplexData.delta_matrix.__wrapped__(data, 2)
    rows = cc.ComplexData.cocycle_matrix.__wrapped__(data, 2)
    assert len(rows) == len(generator_rows(G, 2)) < len(full)
    assert gfp.nullspace(rows, 31 ** 2, 2) == gfp.nullspace(full, 31 ** 2, 2)


def _closed_under_full_delta(z):
    return pointwise_coboundary(z).is_zero()


@pytest.mark.parametrize("name", COHOMOLOGY_FIXTURES)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_cocycle_agrees_with_the_full_delta(name, p):
    """On random cochains, on true cocycles, and on the cochains closed on
    the first generator's rows only, which are not all cocycles when G
    needs two generators."""
    G = FIXTURES[name]()
    rng = random.Random(f"cocycle:{name}:{p}")
    data = cc.complex_data(G, p)
    for d in (1, 2):
        full = data.delta_matrix(d)
        ncols = (G.order - 1) ** d
        first = generator_rows(G, d)[:ncols]
        samples = [random_cochain(G, p, d, rng) for _ in range(5)]
        samples += [cc.Cochain(G, p, d, v)
                    for v in gfp.nullspace([full[i] for i in first], ncols,
                                           p)]
        if d == 2:
            samples += [cc.coboundary(random_cochain(G, p, 1, rng))
                        for _ in range(3)]
        for z in samples:
            assert cc.is_cocycle(z) == _closed_under_full_delta(z)
    for z in cc.h1(G, p) + [c.representative for c in cc.h2(G, p)[1]]:
        assert cc.is_cocycle(z) and _closed_under_full_delta(z)


def test_generators_that_do_not_generate_are_refused():
    V4 = gr.build_vector_group(2, 2)
    G = gr.FiniteGroup(V4.order, V4.mul, V4.inv, (1,), V4.label,
                       ([row[1] for row in V4.mul],))
    with pytest.raises(GeneratorsDontGenerate):
        cc.complex_data(G, 2).z1_basis
    with pytest.raises(GeneratorsDontGenerate):
        cc.is_cocycle(cc.zero_cochain(G, 2, 2))


@pytest.mark.parametrize("name", COHOMOLOGY_FIXTURES)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_delta1_agrees_with_gfp_solve(name, p):
    """The factored solve gives the particular solution of `gfp.solve` on
    coboundaries and on random right-hand sides, and None exactly when it
    does."""
    G = FIXTURES[name]()
    data = cc.complex_data(G, p)
    rng = random.Random(f"solve:{name}:{p}")
    rhs = [cc.coboundary(random_cochain(G, p, 1, rng)).vec
           for _ in range(5)]
    rhs += [random_cochain(G, p, 2, rng).vec for _ in range(5)]
    rhs += [cc.cup(a, b).vec for a in cc.h1(G, p) for b in cc.h1(G, p)]
    m = G.order - 1
    for b in rhs:
        want = gfp.solve(data.d1, b, m, p)
        got = data.solve_delta1(b)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == want
            x = np.array(gfp.space(m, p).unpack(got))
            assert (dense(data.d1, m, p) @ x % p ==
                    gfp.space(m * m, p).unpack(b)).all()


@pytest.mark.parametrize("name", COHOMOLOGY_FIXTURES)
@pytest.mark.parametrize("p", [2, 3])
def test_characters_list_h1_in_coordinate_order_once(name, p):
    """`characters` is every H^1 element, lexicographic in its basis
    coordinates, and a second call returns the same cached tuple."""
    G = FIXTURES[name]()
    dim = len(cc.h1(G, p))
    want = [cc.h1_combination(G, p, c)
            for c in itertools.product(range(p), repeat=dim)]
    chars = cc.characters(G, p)
    assert list(chars) == want
    assert cc.characters(FIXTURES[name](), p) is chars


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the Linux VmHWM line")
def test_order_32_cohomology_peak_memory():
    """A fresh D8xZ2 demushkin_check peaks below 200 MB (306 MB when Z^2
    was the kernel of the full 29791-row delta_2). The child reads its
    own VmHWM: its ru_maxrss would also carry this test process's peak,
    which Linux keeps across the spawn."""
    code = (
        "from masseylab import cochains as cc, groups as gr\n"
        "G = gr.build_direct_product(gr.build_dihedral(8), gr.build_cyclic(2))\n"
        "assert cc.demushkin_check(G, 2)['dim_h2'] == 6\n"
        "print(open('/proc/self/status').read())\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    peak_kib = next(int(line.split()[1]) for line in out.splitlines()
                    if line.startswith("VmHWM:"))
    assert peak_kib / 1024 < 200


# -- packed values against the replaced per-entry arithmetic ------------------

ARITHMETIC_GROUPS = {"Z1": lambda p: gr.build_cyclic(1),
                     "V4": lambda p: gr.build_vector_group(2, 2),
                     "S3": lambda p: gr.build_symmetric3(),
                     "Zp": gr.build_cyclic}


@pytest.mark.parametrize("name", sorted(ARITHMETIC_GROUPS))
@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_cochain_arithmetic_matches_the_replaced_tuple_arithmetic(name, p):
    """+, -, scale and neg on packed cochains of degree 0-2 give what the
    per-entry tuple arithmetic gave; on Z1 the degree 1 and 2 vectors are
    empty."""
    G = ARITHMETIC_GROUPS[name](p)
    rng = random.Random(f"arithmetic:{name}:{p}")
    for d in (0, 1, 2):
        for _ in range(4):
            f, g = (random_cochain(G, p, d, rng) for _ in range(2))
            c = rng.randrange(-2 * p, 2 * p)
            fv, gv = f.values, g.values
            assert len(fv) == (G.order - 1) ** d
            assert (f + g).values == \
                tuple((a + b) % p for a, b in zip(fv, gv))
            assert (f - g).values == \
                tuple((a - b) % p for a, b in zip(fv, gv))
            assert f.scale(c).values == tuple((c * v) % p for v in fv)
            assert (-f).values == tuple((-v) % p for v in fv)
            assert f.is_zero() == (not any(fv))
            for gs in itertools.product(range(1, G.order), repeat=d):
                assert f.value(*gs) == fv[sum(
                    (x - 1) * (G.order - 1) ** (d - 1 - i)
                    for i, x in enumerate(gs))]


@pytest.mark.parametrize("name", sorted(ARITHMETIC_GROUPS))
@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_class_arithmetic_matches_the_replaced_tuple_arithmetic(name, p):
    """+ and neg of classes of degree 1 and 2 on packed canonical vectors
    give what the per-entry tuple arithmetic gave."""
    G = ARITHMETIC_GROUPS[name](p)
    rng = random.Random(f"classes:{name}:{p}")
    bases = {1: cc.h1(G, p),
             2: [c.representative for c in cc.h2(G, p)[1]]}
    for d, basis in bases.items():
        for _ in range(4):
            x, y = [], []
            for klass in (x, y):
                z = cc.zero_cochain(G, p, d)
                for b in basis:
                    z = z + b.scale(rng.randrange(p))
                if d == 2:
                    z = z + cc.coboundary(random_cochain(G, p, 1, rng))
                klass.append(cc.class_of(z))
            (x,), (y,) = x, y
            S = x.representative.space
            xv, yv = S.unpack(x.canon), S.unpack(y.canon)
            assert S.unpack((x + y).canon) == \
                [(a + b) % p for a, b in zip(xv, yv)]
            assert S.unpack((-x).canon) == [(-a) % p for a in xv]
            assert x.is_zero() == (not any(xv))


def test_cochain_reduces_its_values_and_round_trips():
    V4 = gr.build_vector_group(2, 2)
    for p in (2, 3, 5, 13):
        for d, raw in ((1, [p, -1, 2 * p + 1]),
                       (2, [-p - 2, p - 1, 3 * p, -1, 0, p + 4, -2 * p, 1,
                            5 * p + 2])):
            f = cc.cochain(V4, p, d, raw)
            assert f.values == tuple(v % p for v in raw)
            assert all(0 <= v < p for v in f.values)
            assert cc.cochain(V4, p, d, f.values) == f
            assert cc.Cochain(V4, p, d, f.vec) == f


# -- the sum of classes --------------------------------------------------------

def all_classes(G, p, basis):
    """Every class of the span of `basis`, each built through `class_of`
    from the matching combination of representatives."""
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        z = cc.zero_cochain(G, p, basis[0].degree)
        for c, b in zip(coeffs, basis):
            z = z + b.scale(c)
        out.append(cc.class_of(z))
    return out


@pytest.mark.parametrize("name", COHOMOLOGY_FIXTURES)
@pytest.mark.parametrize("p", [2, 3])
def test_class_sum_and_negation_match_class_of(name, p):
    """The canonical reduction is linear, so adding or negating classes by
    their canonical vectors gives what `class_of` gives on the summed or
    negated representative, for every pair of H^1 and of H^2 classes."""
    G = FIXTURES[name]()
    h1_basis = cc.h1(G, p)
    h2_basis = [c.representative for c in cc.h2(G, p)[1]]
    for basis in (h1_basis, h2_basis):
        if not basis:
            continue
        classes = all_classes(G, p, basis)
        for x in classes:
            want = cc.class_of(-x.representative)
            got = -x
            assert (got.canon, got.representative) == \
                (want.canon, want.representative)
            for y in classes:
                want = cc.class_of(x.representative + y.representative)
                got = x + y
                assert (got.canon, got.representative) == \
                    (want.canon, want.representative)


def test_adding_classes_of_different_degrees_is_refused():
    G = GROUPS["V4"]
    a = cc.class_of(cc.h1(G, 2)[0])
    b = cc.h2(G, 2)[1][0]
    with pytest.raises(ShapeMismatch):
        a + b


# -- Kraines' formula ----------------------------------------------------------

def lifts_to_z_mod_p_squared(G, p, a) -> bool:
    """Does the character a: G -> Z/p lift through Z/p^2 -> Z/p?"""
    Zp2 = gr.build_cyclic(p * p)
    reduction = gr.GroupHom(Zp2, gr.build_cyclic(p),
                            tuple(x % p for x in Zp2.elements()))
    homs = gr.enumerate_homs(G, Zp2, fiber=(reduction, a.as_hom()))
    return next(homs, None) is not None


def kraines_cases(G):
    """(p, the diagonal Massey answer, does a lift to Z/p^2) per character
    a: at p = 3, is the Dwyer problem of (a, a, a) solvable; at p = 2, is
    a cup a zero.  Kraines (Trans. AMS 124, 1966): the p-fold Massey power
    of a is -beta(a) at odd p, a cup a = beta(a) at p = 2, and the
    Bockstein beta(a) is 0 exactly when a lifts to Z/p^2."""
    out = []
    for p in (3, 2):
        for a in cc.characters(G, p):
            q = ms.MasseyQuery(G, p, (a,) * p)
            answer = em.dwyer_solvable(q) if p == 3 else \
                ms.consecutive_cups_zero(q)
            out.append((p, answer, lifts_to_z_mod_p_squared(G, p, a)))
    return out


def test_kraines_formula_on_every_fixture():
    cases = [case for name in COHOMOLOGY_FIXTURES
             for case in kraines_cases(FIXTURES[name]())]
    assert all(answer == lifts for _, answer, lifts in cases)
    # both answers occur at both primes
    assert {(p, answer) for p, answer, _ in cases} == \
        {(p, answer) for p in (2, 3) for answer in (False, True)}


@PROPERTY_SETTINGS
@given(small_groups())
def test_kraines_formula_on_drawn_groups(G):
    assert all(answer == lifts for _, answer, lifts in kraines_cases(G))
