"""Rows on demand: a table closed from its generators' action builds each
row the first time it is read, and every row read on demand, in any order,
must equal the reference closure built whole (`oracles.closure`)."""

import functools
import math
import os
import random
import signal
import subprocess
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as o

from masseylab import groups as gr
from masseylab import unitri as ut
from masseylab.cli import FIXTURES
from masseylab.errors import BadParameter, GeneratorsDontGenerate, NoInverse


def rows_built(G) -> int:
    return dict.__len__(G.mul)


# order 64 is the group file limit, so SD9 (order 81) has no group file
FILE_FIXTURES = sorted(name for name, make in FIXTURES.items()
                       if make().order <= gr.FULL_GROUP_LIMIT)
GIVEN_FILES = {f"fixture {name}": (lambda name=name: gr.format_group_file(
    FIXTURES[name]())) for name in FILE_FIXTURES}
GIVEN_FILES.update({
    "U_4(2)": lambda: gr.format_group_file(
        ut.unitri_group(4, 2).as_finite_group()),
    "D8xZ2": lambda: gr.format_group_file(gr.build_direct_product(
        gr.build_dihedral(8), gr.build_cyclic(2))),
    # the files the CLI tests, the CLI workflow and the group tests write
    "Z2 identity at 1": lambda: "order 2\ngenerators\n1 0\n0 1\n",
    "V4 identity at 2":
        lambda: "order 4\ngenerators 0 1\n2 3 0 1\n3 2 1 0\n0 1 2 3\n1 0 3 2\n",
    "order 1": lambda: "order 1\ngenerators\n0\n",
    "Z2 generators 0 1": lambda: "order 2\ngenerators 0 1\n0 1\n1 0\n",
    "V4 generators 1 1 2":
        lambda: "order 4\ngenerators 1 1 2\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n",
})


def central_quotient(n, p, t):
    """U_{n+1}(p) modulo step t of the central series of Ker(phi)."""
    U = ut.unitri_group(n + 1, p)
    zero = ut.central_series_ker_phi(n)[0][t]
    return gr.CosetQuotient(U.as_finite_group(), U.vanishing_on(zero)).group


FIBERS = [(k, m, p) for p, ms in ((2, (2, 3, 4, 5)), (3, (2, 3, 4)), (5, (3,)))
          for m in ms for k in range(1, m)]
QUOTIENTS = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5)]

CASES = {
    "cyclic 1": lambda: gr.build_cyclic(1),
    "cyclic 12": lambda: gr.build_cyclic(12),
    "cyclic 64": lambda: gr.build_cyclic(64),
    "vector 2^6": lambda: gr.build_vector_group(2, 6),
    "vector 3^4": lambda: gr.build_vector_group(3, 4),
    "dihedral 1": lambda: gr.build_dihedral(1),
    "dihedral 7": lambda: gr.build_dihedral(7),
    "quaternion": gr.build_quaternion8,
    "symmetric3": gr.build_symmetric3,
    "semidirect 3 2 4": lambda: gr.build_semidirect_cyclic(3, 2, 4),
    "product Q8 x S3": lambda: gr.build_direct_product(
        gr.build_quaternion8(), gr.build_symmetric3()),
}
CASES.update({f"fixture {name}": make for name, make in FIXTURES.items()})
CASES.update({f"U_{n}({p})": (lambda n=n, p=p:
                               ut.unitri_group(n, p).as_finite_group())
              for p, top in ((2, 5), (3, 4), (5, 3))
              for n in range(1, top + 1)})
CASES.update({f"kept Q_{k},{m}({p})": (
    lambda k=k, m=m, p=p:
    ut.position_quotient(m, p, ut.fiber_quotient(k, m, p).kept, "Q"))
    for k, m, p in FIBERS})
CASES.update({f"fiber Q_{k},{m}({p})": (
    lambda k=k, m=m, p=p: ut.fiber_quotient(k, m, p).group)
    for k, m, p in FIBERS})
CASES.update({f"U_{n + 1}({p})/{kind}": (
    lambda n=n, p=p, i=i: ut.zeta_kappa_targets(n, p)[i][0].group)
    for n, p in QUOTIENTS for i, kind in enumerate("ZP")})
CASES.update({f"file {name}": (lambda make=make: gr.parse_group_file(make()))
              for name, make in GIVEN_FILES.items()})
CASES.update({f"U_{n + 1}({p})/N_{t}": (
    lambda n=n, p=p, t=t: central_quotient(n, p, t))
    for n, p in ((3, 2), (4, 2), (3, 3))
    for t in range(len(ut.central_series_ker_phi(n)[0]))})


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_read_on_demand_match_the_eager_closure(name):
    """In index order, in reverse and in a seeded random order, each row
    read on demand is the row of the reference closure, built whole, and
    the inverses are its inverses; the group's own rows are the same
    table."""
    G = CASES[name]()
    want = o.closure(G.action, G.order)
    want_inv = o.inverses(want)
    orders = [list(G.elements()), list(reversed(G.elements())),
              random.Random(name).sample(G.elements(), G.order)]
    for order in orders:
        rows, inv = gr.table_from_action(G.action, G.order)
        assert inv == want_inv
        for x in order:
            row = rows[x]
            assert type(row) is array and row.typecode == "H"
            assert np.array_equal(row, want[x])
        assert dict.__len__(rows) == G.order
    assert np.array_equal(o.array_of(G.mul), want) and G.inv == want_inv


@pytest.mark.parametrize("name", sorted(CASES))
def test_columns_and_element_orders_are_read_without_building_rows(name):
    """A fresh group from the same action: each generator's column, each
    element's order and the group's equality, hash and edge list agree
    with the reference table, and no row but the identity's is built."""
    G = CASES[name]()
    want = o.closure(G.action, G.order)
    H = gr.group_from_action(G.action, G.order, G.generators, G.label)
    for g, col in zip(H.generators, H.action):
        assert np.array_equal(col, want[:, g])
    assert [H.element_order(x) for x in H.elements()] == \
        [o.element_order(want, x) for x in G.elements()]
    assert H == G and hash(H) == hash(G)
    assert len(gr._edges(H)) == H.order * len(H.generators)
    assert rows_built(H) == 1


def normal_subgroups(n, p):
    """Z, P and each step of the central series of Ker(phi) in
    U_{n+1}(p), as element lists."""
    U = ut.unitri_group(n + 1, p)
    zeros = [ut.zero_positions(n + 1, kind) for kind in "ZP"] + \
        ut.central_series_ker_phi(n)[0]
    return U, [U.vanishing_on(z) for z in zeros]


@pytest.mark.parametrize("n,p", QUOTIENTS)
def test_coset_quotient_from_normal_rows_and_generator_columns(n, p):
    """Cosets read off the rows of N and the action read off the parent's
    generator columns give the representatives, coset map, generators,
    table and inverses of the reference quotient."""
    U, normals = normal_subgroups(n, p)
    for normal in normals:
        quot = gr.CosetQuotient(U.as_finite_group(), normal)
        reps, coset_of, gens, table = o.coset_quotient(n + 1, p,
                                                       tuple(normal))
        assert (quot.reps, quot.coset_of, quot.group.generators) == \
            (reps, coset_of, gens)
        assert all(type(row) is array and row.typecode == "H"
                   for row in quot.group.mul)
        assert np.array_equal(o.array_of(quot.group.mul), table)
        assert quot.group.inv == o.inverses(table)


def test_a_coset_quotient_reads_only_the_rows_of_its_normal_subgroup():
    """The rows built are those of N's elements and of their tree
    ancestors, each gathered from its parent's row."""
    U = ut.unitri_group(5, 2)
    G = gr.group_from_action(U.as_finite_group().action, U.order,
                             U.as_finite_group().generators, "U5(2)")
    normal = U.vanishing_on(ut.zero_positions(5, "P"))
    gr.CosetQuotient(G, normal)
    ancestors = set()
    for z in normal:
        while z:
            ancestors.add(z)
            z = G.mul.parent[z]
    assert set(dict.keys(G.mul)) == ancestors | {0}
    assert rows_built(G) < 64  # of 1024


def test_comparing_hashing_and_walking_a_group_build_no_row():
    U = ut.unitri_group(5, 2).as_finite_group()
    fresh = [gr.group_from_action(U.action, U.order, U.generators, U.label)
             for _ in range(2)]
    G, H = fresh
    assert G == H and not G != H and G == U and G != gr.build_cyclic(2)
    assert hash(G) == hash(H) == hash(U)
    assert len({G, H, U}) == 1
    assert gr._edges(G) == gr._edges(U)
    assert gr.GroupHom(G, G, tuple(G.elements())) == \
        gr.GroupHom(H, H, tuple(H.elements()))
    assert [rows_built(K) for K in fresh] == [1, 1]
    # same order, generator indices and label, another table
    S3 = gr.build_symmetric3()
    Z6 = gr.group_from_action([[1, 2, 3, 4, 5, 0], [2, 3, 4, 5, 0, 1]], 6,
                              S3.generators, S3.label)
    assert Z6 != S3 and hash(Z6) != hash(S3)
    assert rows_built(Z6) == 1


def _rows_of_u52_after(code: str) -> int:
    """Rows of U_5(2) built after code runs in a fresh interpreter, so
    that no earlier test's reads count."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(gr.__file__))] +
        os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    tail = ("from masseylab import unitri as ut\n"
            "print(dict.__len__(ut.unitri_group(5, 2).as_finite_group().mul))")
    out = subprocess.run([sys.executable, "-c", code + "\n" + tail],
                         env=env, check=True, capture_output=True, text=True)
    return int(out.stdout.split()[-1])


def test_easy_vanishing_on_z3_reads_few_rows_of_u52():
    built = _rows_of_u52_after(
        "from masseylab import cli, verify\n"
        "rec = verify.easy_vanishing_drill(cli.FIXTURES['Z3'](), 2, 4)\n"
        "assert rec['verified'] and rec['steps'] == 6")
    assert built < 64


def test_the_z2_dwyer_sweep_at_n4_reads_few_rows_of_u52():
    built = _rows_of_u52_after(
        "import contextlib, io\n"
        "from masseylab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', 'dwyer', '--group', 'Z2',\n"
        "                     '--p', '2', '--n', '4', '--no-cache',\n"
        "                     '--format', 'records'])\n"
        "assert code == 0")
    assert built < 128


def test_an_element_whose_powers_miss_the_identity_has_no_inverse():
    """Rows whose tree path for 1 is the column 0 -> 1 -> 2 -> 1: the
    powers of 1 cycle through 1 and 2, never 0.  Its order was once
    sought without end, so an alarm stops the call if it runs on."""
    col = array("H", [1, 2, 1])
    rows = gr.Rows((col,), array("H", [0, 0, 1]), array("H", [0, 0, 0]),
                   [col])
    G = gr.FiniteGroup(3, rows, (0, 2, 1), (1,), "bad", rows.columns)
    signal.signal(signal.SIGALRM, lambda *_: pytest.fail("no bound"))
    signal.alarm(5)
    try:
        with pytest.raises(NoInverse, match="element 1"):
            G.element_order(1)
    finally:
        signal.alarm(0)


def test_an_action_with_misstated_generators_is_refused():
    """The dihedral action with the rotation's sign reversed is right
    multiplication by r^-1, and the product action with the factors'
    columns swapped puts each column under the other factor's generator:
    both close to a group, and both are refused."""
    n = 5
    pairs = [divmod(x, n) for x in range(2 * n)]
    times_r_inverse = [(i - 1 + 2 * e) % n + n * e for e, i in pairs]
    times_s = [i + n * (1 - e) for e, i in pairs]
    with pytest.raises(BadParameter, match="column 0"):
        gr.group_from_action([times_r_inverse, times_s], 2 * n, (1, n), "D5")
    product = gr.build_direct_product(gr.build_cyclic(2), gr.build_cyclic(3))
    with pytest.raises(BadParameter, match="column 0"):
        gr.group_from_action(product.action[::-1], 6, product.generators,
                             "Z2xZ3")


SMALL_GROUPS = [functools.partial(gr.build_cyclic, n) for n in range(1, 8)] + [
    functools.partial(gr.build_vector_group, 2, 2),
    functools.partial(gr.build_vector_group, 2, 3), gr.build_symmetric3,
    functools.partial(gr.build_dihedral, 4), gr.build_quaternion8,
    lambda: gr.build_direct_product(gr.build_cyclic(2), gr.build_cyclic(4))]


@st.composite
def actions(draw):
    """(n, columns): d <= 3 random permutations of range(n), n <= 7, or the
    right multiplications of d random elements of a small group relabelled
    by a random permutation that fixes 0."""
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        return n, [draw(st.permutations(range(n))) for _ in range(d)]
    G = draw(st.sampled_from(SMALL_GROUPS))()
    relabel = [0] + draw(st.permutations(range(1, G.order)))
    columns = []
    for g in draw(st.lists(st.sampled_from(G.elements()),
                           min_size=d, max_size=d)):
        col = [0] * G.order
        for x, row in enumerate(G.mul):
            col[relabel[x]] = relabel[row[g]]
        columns.append(col)
    return G.order, columns


@settings(max_examples=300, deadline=None)
@given(actions())
def test_an_action_is_closed_exactly_when_it_is_a_groups_regular_action(
        action):
    """The stated generators are the first cells of the columns, so
    closing succeeds exactly when the columns generate a transitive group
    of order n, and then its table is the reference closure."""
    n, columns = action
    order, transitive = o.permutation_group(columns, n)
    args = columns, n, [col[0] for col in columns], "X"
    if not transitive:
        with pytest.raises(GeneratorsDontGenerate):
            gr.group_from_action(*args)
    elif order != n:
        with pytest.raises(BadParameter, match="not a group's regular"):
            gr.group_from_action(*args)
    else:
        G = gr.group_from_action(*args)
        assert np.array_equal(o.array_of(G.mul), o.closure(columns, n))


def test_a_transitive_action_that_is_not_regular_is_refused():
    """Both columns are involutions of six points, the second with two
    fixed points, and they generate a dihedral group of order 12; without
    the commutation check they close to a table whose row 1 is
    1 2 5 5 3 2, with 48 non-associative triples.  A column that is not a
    permutation is refused as well."""
    columns = [[5, 2, 1, 4, 3, 0], [3, 5, 2, 0, 4, 1]]
    assert o.permutation_group(columns, 6) == (12, True)
    with pytest.raises(BadParameter, match="not a group's regular"):
        gr.group_from_action(columns, 6, (5, 3), "X")
    with pytest.raises(BadParameter, match="0..1 each once"):
        gr.group_from_action([[1, 1]], 2, (1,), "X")


def test_a_quotient_by_a_subgroup_that_is_not_normal_is_refused():
    """<s> in D4 and <e_13> in U_4(2) have order 2 and are not normal:
    N*r != r*N, and e_34 moves e_13 to e_13 e_14."""
    with pytest.raises(BadParameter, match=r"N\*1 != 1\*N"):
        gr.CosetQuotient(gr.build_dihedral(4), [0, 4])
    U = ut.unitri_group(4, 2)
    e13, e34 = U.elementary_index(1, 3), U.elementary_index(3, 4)
    with pytest.raises(BadParameter, match=rf"N\*{e34} != {e34}\*N"):
        gr.CosetQuotient(U.as_finite_group(), [0, e13])


def test_groups_at_the_cap_close_from_the_identity_row_alone():
    """Z_4096, D_2048 and U_3(13), of order 2197, each close building only
    the identity row, and the inverses, sampled rows and their elements'
    orders match closed forms."""
    n, m, p = gr.CONTAINER_LIMIT, gr.CONTAINER_LIMIT // 2, 13

    def dihedral(x, y):  # r^i s^e has index i + m*e
        (e, i), (f, j) = divmod(x, m), divmod(y, m)
        return (i + (1 - 2 * e) * j) % m + m * ((e + f) % 2)

    def digits(x):  # (x_12, x_13, x_23), base p, first most significant
        return x // (p * p), x // p % p, x % p

    def index(a, b, c):
        return a % p * p * p + b % p * p + c % p

    def unitri(x, y):
        (a, b, c), (u, v, w) = digits(x), digits(y)
        return index(a + u, b + v + a * w, c + w)

    def unitri_inverse(x):
        a, b, c = digits(x)
        return index(-a, a * c - b, -c)

    cases = [
        (gr.build_cyclic(n), lambda x, y: (x + y) % n,
         lambda x: -x % n, lambda x: n // math.gcd(x, n)),
        (gr.build_dihedral(m), dihedral,
         lambda x: -x % m if x < m else x,
         lambda x: m // math.gcd(x, m) if x < m else 2),
        (ut.position_quotient(3, p, range(3), "U3(13)"), unitri,
         unitri_inverse, lambda x: p if x else 1),
    ]
    rng = random.Random(13)
    for G, mul, inverse, order in cases:
        assert rows_built(G) == 1
        assert G.inv == tuple(map(inverse, G.elements()))
        # row x builds each row on x's tree path, so the sampled rows are
        # those of elements below 64, at most 63 steps from the identity
        for x in [1] + rng.sample(range(2, 64), 5):
            assert G.mul[x].tolist() == [mul(x, y) for y in G.elements()]
            assert G.element_order(x) == order(x)


# -- a table given whole, closed from its generators' columns ------------------

def given_rows(text):
    """The rows of a group file with its identity e swapped with index 0,
    the relocation a table given whole goes through."""
    table = [[int(t) for t in line.split()]
             for line in text.strip().splitlines()[2:]]
    n = len(table)
    e = next(e for e in range(n)
             if all(table[e][x] == x == table[x][e] for x in range(n)))
    swap = list(range(n))
    swap[0], swap[e] = e, 0
    return [[swap[table[swap[x]][swap[y]]] for y in range(n)]
            for x in range(n)]


def assert_read_back(text, seed):
    """In index order, in reverse and in a seeded random order, each row of
    a freshly parsed file is the given row cell for cell, and the inverses
    are the 0 in each given row."""
    want = given_rows(text)
    n = len(want)
    for order in (range(n), reversed(range(n)),
                  random.Random(seed).sample(range(n), n)):
        G = gr.parse_group_file(text)
        assert type(G.mul) is gr.Rows
        for x in order:
            assert G.mul[x].tolist() == want[x]
        assert G.inv == o.inverses(want)


@pytest.mark.parametrize("name", sorted(GIVEN_FILES))
def test_a_group_file_closed_from_its_generators_is_the_given_table(name):
    assert_read_back(GIVEN_FILES[name](), name)


def relabelled_file(G, seed):
    """G's table under a seeded permutation of its elements that moves the
    identity off index 0, in the group file format."""
    rng = random.Random(seed)
    new = rng.sample(range(G.order), G.order)
    if new[0] == 0:
        k = rng.randrange(1, G.order)
        new[0], new[k] = new[k], new[0]
    old = sorted(range(G.order), key=new.__getitem__)  # new index -> old
    rows = [" ".join(str(new[G.mul[old[x]][old[y]]]) for y in G.elements())
            for x in G.elements()]
    gens = " ".join(str(new[g]) for g in G.generators)
    return "\n".join([f"order {G.order}", f"generators {gens}", *rows]) + "\n"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([name for name in FILE_FIXTURES
                        if FIXTURES[name]().order > 1]),
       st.integers(0, 2 ** 32 - 1))
def test_a_relabelled_group_file_is_read_back_as_given(name, seed):
    G = FIXTURES[name]()
    text = relabelled_file(G, seed)
    assert text.splitlines()[2].split() != [str(x) for x in G.elements()]
    assert_read_back(text, seed)


@pytest.mark.parametrize("name", ["U_4(2)", "D8xZ2"])
def test_a_parsed_group_file_builds_its_rows_on_demand(name):
    """A parsed file keeps a tree: its element orders, edge list, hom
    checks and hash read no row but the identity's, a row read builds only
    its tree path, and that path's columns carry y to y*x.  A table given
    whole once held every row, and read row -1 as the last one."""
    text = GIVEN_FILES[name]()
    G = gr.parse_group_file(text)
    assert type(G.mul) is gr.Rows
    orders = [G.element_order(x) for x in G.elements()]
    assert len(gr._edges(G)) == G.order * len(G.generators)
    f = next(f for f in gr.enumerate_homs(G, gr.build_cyclic(2))
             if any(f.images))
    assert f.is_valid()
    assert hash(G) == hash(gr.parse_group_file(text))
    assert rows_built(G) == 1
    for x in G.elements():
        H = gr.parse_group_file(text)
        depth = len(H.mul.path(x))
        H.mul[x]
        assert rows_built(H) <= depth + 1
    for x in G.elements():
        steps = G.mul.path(x)
        for y in G.elements():
            z = y
            for col in steps:
                z = col[z]
            assert z == G.mul[y][x]
    want = given_rows(text)
    assert orders == [o.element_order(want, x) for x in G.elements()]
    for x in (-1, G.order):
        with pytest.raises(IndexError):
            G.mul[x]
