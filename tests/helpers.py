"""Shared oracles and constructors for the test suite.

The oracles recompute facts by element enumeration, minor gcds,
fraction-free determinants and binomial coefficients, deliberately
avoiding the package's Smith and lattice machinery and its closed form
for the order parameter, so the two routes stay independent.  The constructors
at the end (zero maps, transform presentations, subgroup inclusions and the
cokernel projection) do use the package.
"""

import math
from itertools import combinations, product
from typing import Iterator

from ktower.fgab import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    image_lattice,
    kernel_lattice,
)
from ktower.intlin import IntMatrix, lattice_coordinates, snf

# minor_gcd_factors enumerates all k x k minors, which is only sane for
# small matrices.
MINOR_ORACLE_LIMIT = 6


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_gcd_factors(a: IntMatrix) -> tuple[int, ...]:
    """Invariant factors from gcds of k x k minors, no elimination involved.

    d_k = gcd(all k x k minors) / gcd(all (k-1) x (k-1) minors), stopping at
    the rank (the first k whose minors are all zero).  The gcd over an empty
    set is 0 and the empty 0 x 0 minor has determinant 1.
    """
    if min(a.rows, a.cols) > MINOR_ORACLE_LIMIT:
        raise ValueError(f"minor oracle limited to dimension {MINOR_ORACLE_LIMIT}")
    out = []
    g_prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rset in combinations(range(a.rows), k):
            for cset in combinations(range(a.cols), k):
                g = math.gcd(g, determinant(a.submatrix(rset, cset)))
        if g == 0:
            break
        out.append(g // g_prev)
        g_prev = g
    return tuple(out)


def element_order(x: GroupElement) -> int:
    """Least k >= 1 with k*x = 0; 0 means infinite order."""
    f = x.group.free_rank
    if any(c for c in x.coords[:f]):
        return 0
    return math.lcm(*(d // math.gcd(d, c) for c, d in zip(x.coords[f:], x.group.torsion)))


def finite_group_catalog(max_order: int) -> list[FgAbGroup]:
    """All finite canonical forms with order <= max_order."""
    out = [FgAbGroup.trivial()]

    def extend(chain: tuple[int, ...], prod_so_far: int) -> None:
        # each successive factor is a multiple of the previous one
        last = chain[-1] if chain else 1
        mult = 1
        while True:
            d = last * mult if chain else mult
            mult += 1
            if d < 2:
                continue
            if prod_so_far * d > max_order:
                break
            new = chain + (d,)
            out.append(FgAbGroup(0, new))
            extend(new, prod_so_far * d)

    extend((), 1)
    return out


def elements_of(g: FgAbGroup) -> Iterator[GroupElement]:
    if g.free_rank:
        raise ValueError("can only enumerate finite groups")
    for coords in product(*(range(d) for d in g.torsion)):
        yield GroupElement(g, coords)


def random_valid_hom(rng, source: FgAbGroup, target: FgAbGroup) -> Homomorphism:
    """Random homomorphism built column by column from the order constraints.

    For a source generator of order d and a target generator of order m,
    the entry must be a multiple of m / gcd(d, m); free target entries
    must vanish unless d = 0.
    """
    cols = []
    for d in source.generator_orders():
        col = []
        for m in target.generator_orders():
            if d == 0:
                col.append(rng.randint(-6, 6) if m == 0 else rng.randrange(m))
            elif m == 0:
                col.append(0)
            else:
                step = m // math.gcd(d, m)
                col.append(step * rng.randrange(m // step))
        cols.append(col)
    entries = tuple(tuple(col[i] for col in cols) for i in range(target.generator_count))
    return Homomorphism(
        source, target, IntMatrix(target.generator_count, source.generator_count, entries)
    )


def torsion_count(g: FgAbGroup, m: int) -> int:
    """#{x in G : m*x = 0} computed from the canonical form."""
    n = 1
    for d in g.torsion:
        n *= math.gcd(m, d)
    return n


def brute_force_hom_data(f: Homomorphism):
    """Kernel set, image set, and cokernel m-torsion counts by enumeration."""
    ker = set()
    img = set()
    for x in elements_of(f.source):
        y = f.apply(x)
        img.add(y.coords)
        if y.is_zero():
            ker.add(x.coords)
    coker_counts = {}
    for m in range(1, f.target.order() + 1):
        hits = sum(1 for y in elements_of(f.target) if y.scale(m).coords in img)
        coker_counts[m] = hits // len(img)
    return ker, img, coker_counts


def binomial_orders(level: int, n_max: int) -> list[int]:
    """cyclic_order(n, level) for n = 2..n_max from its definition: the
    running gcd of C(level+i, i) - 1 over i = 1..n-1, with every
    binomial taken from math.comb."""
    orders, g = [], 0
    for i in range(1, n_max):
        g = math.gcd(g, math.comb(level + i, i) - 1)
        orders.append(g)
    return orders


def zero_hom(source: FgAbGroup, target: FgAbGroup) -> Homomorphism:
    return Homomorphism(source, target, IntMatrix.zero(target.generator_count, source.generator_count))


def smith_presentation(relations: IntMatrix) -> tuple[FgAbGroup, IntMatrix, IntMatrix]:
    """Z^rows / im(relations) in canonical form with transport both ways,
    read off one transform Smith form.

    Returns (group, to_canonical, generator_reps): to_canonical maps old
    coordinates to canonical ones, and generator_reps gives a
    representative in Z^rows for each canonical generator.
    """
    p = relations.rows
    dec = snf(relations)
    rank = sum(1 for d in dec.factors if d)
    torsion_idx = [i for i in range(rank) if dec.factors[i] >= 2]
    selected = list(range(rank, p)) + torsion_idx
    group = FgAbGroup(p - rank, tuple(dec.factors[i] for i in torsion_idx))
    to_canonical = dec.u.submatrix(selected, list(range(p)))
    generator_reps = dec.u_inv.submatrix(list(range(p)), selected)
    return group, to_canonical, generator_reps


def subgroup_inclusion(ambient: FgAbGroup, gens: IntMatrix) -> Homomorphism:
    """Inclusion of (lattice of gens)/(ambient relations) into the ambient
    group; gens must contain the ambient relation lattice.

    Construction validates the inclusion as a homomorphism.
    """
    found = lattice_coordinates(gens, ambient.relation_matrix())
    if found is None:
        raise ValueError("generators do not contain the ambient relation lattice")
    basis, w = found
    group, _, generator_reps = smith_presentation(w)
    return Homomorphism(group, ambient, basis @ generator_reps)


def kernel_inclusion(f: Homomorphism) -> Homomorphism:
    """ker f with its inclusion into f's source."""
    return subgroup_inclusion(f.source, kernel_lattice(f))


def image_inclusion(f: Homomorphism) -> Homomorphism:
    """im f with its inclusion into f's target."""
    return subgroup_inclusion(f.target, image_lattice(f))


def cokernel_projection(f: Homomorphism) -> Homomorphism:
    """The canonical projection of f's target onto target / im(f)."""
    group, to_canonical, _ = smith_presentation(image_lattice(f))
    return Homomorphism(f.target, group, to_canonical)
