"""Rows on demand: a table closed from its generators' action builds each
row the first time it is read.  The eager closure it replaced is kept here
as the oracle, and every row read on demand, in any order, must equal it."""

import operator
import os
import random
import struct
import subprocess
import sys
from array import array

import pytest

from masseylab import groups as gr
from masseylab import unitri as ut
from masseylab.cli import FIXTURES
from masseylab.errors import BadParameter


def eager_table_from_action(action):
    """The replaced closure: every row built by one walk of the
    breadth-first edges, with the inverses read on the way."""
    n = len(action)
    d = len(action[0]) if n else 0
    reached, edges = gr._bfs(action, range(d))
    assert len(reached) == n
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
        rows[x] = blank[:]
        memoryview(rows[x]).cast("B")[:] = pack(*row)
    return rows, tuple(inv)


def action_of(G):
    """G's generators' right action, x -> (x*g_0, x*g_1, ...), read off
    its stored columns."""
    return [[col[x] for col in G.action] for x in G.elements()]


def rows_built(G) -> int:
    return dict.__len__(G.mul)


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


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_read_on_demand_match_the_eager_closure(name):
    """In index order, in reverse and in a seeded random order, each row
    read on demand is the eager closure's row, and the inverses are its
    inverses; the group's own rows are the same table."""
    G = CASES[name]()
    action = action_of(G)
    want, want_inv = eager_table_from_action(action)
    orders = [list(G.elements()), list(reversed(G.elements())),
              random.Random(name).sample(G.elements(), G.order)]
    for order in orders:
        rows, inv = gr.table_from_action(action)
        assert inv == want_inv
        for x in order:
            row = rows[x]
            assert type(row) is array and row.typecode == "H"
            assert row == want[x]
        assert dict.__len__(rows) == G.order
    assert list(G.mul) == want and G.inv == want_inv


@pytest.mark.parametrize("name", sorted(CASES))
def test_columns_and_element_orders_are_read_without_building_rows(name):
    """A fresh group from the same action: each generator's column, each
    element's order and the group's equality, hash and edge list agree
    with the eager table, and no row but the identity's is built."""
    G = CASES[name]()
    want, _ = eager_table_from_action(action_of(G))
    H = gr.group_from_action(action_of(G), G.generators, G.label)
    for g, col in zip(H.generators, H.action):
        assert H.mul.column(g) == col == array("H", [row[g] for row in want])

    def order(x):
        k, y = 1, x
        while y:
            y, k = want[y][x], k + 1
        return k
    assert [H.element_order(x) for x in H.elements()] == \
        [order(x) for x in G.elements()]
    assert H == G and hash(H) == hash(G)
    assert len(gr._edges(H)) == H.order * len(H.generators)
    assert rows_built(H) == 1


def old_coset_quotient(parent, normal):
    """The replaced coset read: each coset x N from row x, and the action
    of each generator coset from the row of each representative."""
    normal = sorted(set(normal))
    coset_of = [-1] * parent.order
    reps = []
    for x in parent.elements():
        if coset_of[x] < 0:
            members = sorted(parent.mul[x][s] for s in normal)
            for mmb in members:
                coset_of[mmb] = len(reps)
            reps.append(members[0])
    gens = tuple(sorted({coset_of[g] for g in parent.generators} - {0}))
    action = [[coset_of[parent.mul[r][reps[c]]] for c in gens] for r in reps]
    return tuple(reps), tuple(coset_of), gens, action


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
    generator columns give the representatives, coset map, generators and
    table that the row-by-row read gave."""
    U, normals = normal_subgroups(n, p)
    for normal in normals:
        quot = gr.CosetQuotient(U.as_finite_group(), normal)
        reps, coset_of, gens, action = old_coset_quotient(
            U.as_finite_group(), normal)
        assert (quot.reps, quot.coset_of, quot.group.generators) == \
            (reps, coset_of, gens)
        want, want_inv = eager_table_from_action(action)
        assert list(quot.group.mul) == want and quot.group.inv == want_inv


def test_a_coset_quotient_reads_only_the_rows_of_its_normal_subgroup():
    """The rows built are those of N's elements and of their tree
    ancestors, each gathered from its parent's row."""
    U = ut.unitri_group(5, 2)
    G = gr.group_from_action(action_of(U.as_finite_group()),
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
    fresh = [gr.group_from_action(action_of(U), U.generators, U.label)
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
    Z6 = gr.group_from_action([[(x + 1) % 6, (x + 2) % 6] for x in range(6)],
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
        gr.group_from_action(list(zip(times_r_inverse, times_s)), (1, n), "D5")
    G, H = gr.build_cyclic(2), gr.build_cyclic(3)
    product = gr.build_direct_product(G, H)
    swapped = [tuple(reversed(a)) for a in action_of(product)]
    with pytest.raises(BadParameter, match="column 0"):
        gr.group_from_action(swapped, product.generators, "Z2xZ3")
