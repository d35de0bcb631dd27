"""Independent arithmetic for checking ktower's answers.

Nothing here imports ktower.  Every routine recomputes its fact by a
different route from the program: element enumeration for finite groups,
elimination without transforms for invariant factors, fraction-free
determinants, additive Pascal diagonals for the cyclic order, and
prime-power multiplicities for products of cyclic groups.
"""

from __future__ import annotations

import math
from itertools import product


# --- integer matrices ---------------------------------------------------------


def matmul(a, b):
    """Product of two matrices given as lists of rows."""
    cols = list(zip(*b)) if b else []
    inner = len(b)
    if not cols:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    return [[sum(row[k] * col[k] for k in range(inner)) for col in cols] for row in a]


def det(rows):
    """Determinant of a square matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_factors(rows, ncols):
    """Nonzero invariant factors of an integer matrix, ascending.

    Plain elimination with a least-magnitude pivot; no transforms are
    kept, so entries stay small and the route shares nothing with the
    program's transform-tracking Smith form.
    """
    a = [list(r) for r in rows]
    m, n = len(a), ncols
    out = []
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, i, j = best
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            p = a[t][t]
            clean = True
            for i in range(t + 1, m):
                q = a[i][t] // p
                if q:
                    ri, rt = a[i], a[t]
                    for j in range(t, n):
                        ri[j] -= q * rt[j]
                if a[i][t]:
                    clean = False
            for j in range(t + 1, n):
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j]:
                    clean = False
            if not clean:
                best = None
                for i in range(t, m):
                    if a[i][t] and (best is None or abs(a[i][t]) < best[0]):
                        best = (abs(a[i][t]), "r", i)
                for j in range(t, n):
                    if a[t][j] and (best is None or abs(a[t][j]) < best[0]):
                        best = (abs(a[t][j]), "c", j)
                _, kind, k = best
                if kind == "r":
                    a[t], a[k] = a[k], a[t]
                else:
                    for row in a:
                        row[t], row[k] = row[k], row[t]
                continue
            bad = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % p), None
            )
            if bad is None:
                break
            rt, rb = a[t], a[bad]
            for j in range(t, n):
                rt[j] += rb[j]
        out.append(abs(a[t][t]))
        t += 1
    return out


def is_diagonal_chain(s):
    """Whether s is diagonal with a nonnegative divisibility chain, zeros last."""
    for i, row in enumerate(s):
        for j, x in enumerate(row):
            if i != j and x:
                return False
    diag = [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]
    if any(d < 0 for d in diag):
        return False
    nz = [d for d in diag if d]
    if diag[: len(nz)] != nz:
        return False
    return all(b % a == 0 for a, b in zip(nz, nz[1:]))


def quotient_group(rows, ncols):
    """Canonical (free_rank, torsion) of Z^rows modulo the column lattice."""
    factors = smith_factors(rows, ncols)
    return len(rows) - len(factors), [d for d in factors if d > 1]


# --- cyclic groups from orders ------------------------------------------------


def prime_powers(n):
    """{p: e} for n >= 1, by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders):
    """Invariant factors (ascending, each >= 2) of the sum of Z/n over
    positive ``orders``, built from prime-power multiplicities."""
    by_prime = {}
    for n in orders:
        for p, e in prime_powers(n).items():
            by_prime.setdefault(p, []).append(p**e)
    length = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * length
    for powers in by_prime.values():
        powers.sort(reverse=True)
        for k, q in enumerate(powers):
            factors[k] *= q
    return sorted(factors)


def lcm_upto(n):
    return math.lcm(*range(1, n + 1))


# --- finite groups by enumeration ---------------------------------------------


def elements(orders):
    return product(*(range(d) for d in orders))


def apply(matrix, tgt, x):
    return tuple(
        sum(a * b for a, b in zip(row, x)) % d for row, d in zip(matrix, tgt)
    )


def _prime_power_probes(orders):
    exp = math.lcm(*orders) if orders else 1
    probes = []
    for p, e in prime_powers(exp).items():
        probes.extend(p**k for k in range(1, e + 1))
    return probes


def torsion_counts(torsion, probes):
    """#{x : q x = 0} in the canonical group with these torsion orders."""
    return [math.prod(math.gcd(q, d) for d in torsion) for q in probes]


def subgroup_counts(elems, orders, probes):
    return [
        sum(1 for x in elems if all((q * c) % d == 0 for c, d in zip(x, orders)))
        for q in probes
    ]


def hom_data(src, tgt, matrix):
    """Kernel set, image set and cokernel q-torsion counts of a map of
    finite groups, with the probes that pin down isomorphism types."""
    ker, img = [], set()
    for x in elements(src):
        y = apply(matrix, tgt, x)
        img.add(y)
        if not any(y):
            ker.append(x)
    probes = sorted(set(_prime_power_probes(src) + _prime_power_probes(tgt)))
    coker = []
    for q in probes:
        hits = sum(
            1 for y in elements(tgt) if tuple((q * c) % d for c, d in zip(y, tgt)) in img
        )
        coker.append(hits // len(img))
    return ker, img, probes, coker


# --- cyclic order of SU(n) at a level -----------------------------------------


def cyclic_orders(level_max, width):
    """{level: orders} for levels 1..level_max, where orders[n - 2] is the
    cyclic order gcd(C(level + i, i) - 1 : i = 1..n-1) of SU(n) at that
    level, for n = 2..width.

    The diagonal C(level + i, i), i < width, is built by additive steps:
    the one at level L is the running sum of the one at L - 1
    (hockey-stick identity), so all levels come from one sweep.  Once an
    order is 1 it stays 1, so each list ends at its first 1.
    """
    diag = [1] * width
    out = {}
    for level in range(1, level_max + 1):
        acc = 0
        for i in range(width):
            acc += diag[i]
            diag[i] = acc
        orders, g = [], 0
        for n in range(2, width + 1):
            g = math.gcd(g, diag[n - 1] - 1)
            orders.append(g)
            if g == 1:
                break
        out[level] = orders
    return out
