import random
import time

import pytest

from masseylab import cochains as cc
from masseylab import groups as gr
from masseylab.errors import DegreeLimit, NotApplicable, ShapeMismatch, SizeLimit

GROUPS = {
    "Z2": gr.build_cyclic(2),
    "Z4": gr.build_cyclic(4),
    "V4": gr.build_vector_group(2, 2),
    "S3": gr.build_symmetric3(),
}


def random_cochain(G, p, degree, rng):
    n = max(1, (G.order - 1) ** degree)
    return cc.Cochain(G, p, degree, tuple(rng.randrange(p) for _ in range(n)))


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


def test_cohomology_size_limit():
    with pytest.raises(SizeLimit):
        cc.complex_data(gr.build_cyclic(33), 2)


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
    assert [r.tolist() for r in reps] == [r.tolist() for r in fresh_reps]
