"""Group tables for the benchmark inputs, built without importing masseylab.

The benchmark hands the program only `.tbl` files, so it constructs them
itself: the program under test never supplies its own inputs, and a change
to its constructors cannot change what the benchmark feeds it.

A group is a pair (mul, gens): `mul[x][y]` is the product of elements x and
y as indices 0..N-1 with the identity at 0, and `gens` lists generator
indices.
"""

from __future__ import annotations

import itertools
import random


def cyclic(n: int):
    mul = [[(x + y) % n for y in range(n)] for x in range(n)]
    return mul, [1] if n > 1 else []


def dihedral(n: int):
    """Order 2n: index i + n*t stands for r^i s^t, and s r s = r^-1."""
    def mult(a, b):
        (i, s), (j, t) = divmod(a, n)[::-1], divmod(b, n)[::-1]
        return (i + (j if s == 0 else -j)) % n + n * (s ^ t)

    order = 2 * n
    mul = [[mult(a, b) for b in range(order)] for a in range(order)]
    return mul, [1, n]


def quaternion8():
    """{±1, ±i, ±j, ±k} as integer quaternions (w, x, y, z)."""
    def hamilton(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)

    units = [tuple(s if k == axis else 0 for k in range(4))
             for axis in range(4) for s in (1, -1)]
    index = {u: i for i, u in enumerate(units)}
    mul = [[index[hamilton(a, b)] for b in units] for a in units]
    return mul, [index[(0, 1, 0, 0)], index[(0, 0, 1, 0)]]


def symmetric3():
    perms = sorted(itertools.permutations(range(3)))  # identity first
    index = {q: i for i, q in enumerate(perms)}
    mul = [[index[tuple(a[b[i]] for i in range(3))] for b in perms]
           for a in perms]
    return mul, [index[(1, 0, 2)], index[(1, 2, 0)]]


def direct_product(G, H):
    (gm, gg), (hm, hg) = G, H
    hn = len(hm)
    mul = [[gm[a // hn][b // hn] * hn + hm[a % hn][b % hn]
            for b in range(len(gm) * hn)] for a in range(len(gm) * hn)]
    return mul, [g * hn for g in gg] + list(hg)


def relabel(G, rng: random.Random):
    """An isomorphic copy under a random permutation fixing the identity."""
    mul, gens = G
    n = len(mul)
    rest = list(range(1, n))
    rng.shuffle(rest)
    new = [0] + rest                 # old index -> new index
    old = [0] * n                    # new index -> old index
    for o, nw in enumerate(new):
        old[nw] = o
    table = [[new[mul[old[a]][old[b]]] for b in range(n)] for a in range(n)]
    return table, [new[g] for g in gens]


def check_group(G) -> None:
    """Raise ValueError unless G is an associative table with identity 0
    whose generators span it: a generated input must be a group."""
    mul, gens = G
    n = len(mul)
    if any(mul[0][x] != x or mul[x][0] != x for x in range(n)):
        raise ValueError("index 0 is not the identity")
    for x, y, z in itertools.product(range(n), repeat=3):
        if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
            raise ValueError(f"not associative at {(x, y, z)}")
    span, frontier = {0}, [0]
    while frontier:
        frontier = [mul[x][g] for x in frontier for g in gens
                    if mul[x][g] not in span]
        span.update(frontier)
    if len(span) != n:
        raise ValueError("generators do not span the table")


def format_table(G) -> str:
    """The program's group file format: `order N`, `generators ...`, rows."""
    mul, gens = G
    lines = [f"order {len(mul)}", "generators " + " ".join(map(str, gens))]
    lines += [" ".join(map(str, row)) for row in mul]
    return "\n".join(lines) + "\n"


BUILDERS = {
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "V4": lambda: direct_product(cyclic(2), cyclic(2)),
    "Q8": quaternion8,
    "D4": lambda: dihedral(4),
    "Z3xZ3": lambda: direct_product(cyclic(3), cyclic(3)),
    "D8": lambda: dihedral(8),
    "Q8xZ2": lambda: direct_product(quaternion8(), cyclic(2)),
    "Z4xZ4": lambda: direct_product(cyclic(4), cyclic(4)),
    "Z3xS3": lambda: direct_product(cyclic(3), symmetric3()),
}
