"""Exact integer linear algebra: matrices over Z, Smith normal form (with
transforms, or the invariant factors alone), lattice coordinates and
equality, and integer kernels.

Everything here works with Python's arbitrary-precision integers.  No
floating point, no fixed-width arithmetic, so no overflow anywhere.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major, possibly zero-dimensional."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("entry rows do not match declared row count")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged rows in matrix entries")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        """Build a matrix from nested sequences.

        >>> IntMatrix.from_rows([[1, 2], [3, 4]]).entries
        ((1, 2), (3, 4))
        """
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        return IntMatrix(len(data), cols, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def column(values: Sequence[int]) -> "IntMatrix":
        return IntMatrix.from_rows([[int(v)] for v in values], cols=1)

    @staticmethod
    def diagonal(values: Sequence[int]) -> "IntMatrix":
        n = len(values)
        return IntMatrix(
            n, n, tuple(tuple(int(values[i]) if i == j else 0 for j in range(n)) for i in range(n))
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.entries
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for k, a in enumerate(row):
                if a:
                    orow = ot[k]
                    for j in range(other.cols):
                        acc[j] += a * orow[j]
            out.append(tuple(acc))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("hstack requires equal row counts")
        return IntMatrix(
            self.rows,
            self.cols + other.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        return IntMatrix(
            len(row_idx),
            len(col_idx),
            tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx),
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


@dataclass(frozen=True)
class SmithDecomposition:
    """u @ a @ v = s with u, v unimodular and s diagonal, plus the inverses
    of both transforms (quotient-group bookkeeping needs u_inv to
    transport elements).

    The diagonal of ``s`` is nonnegative, nonzero entries come first, and
    each nonzero entry divides the next.  ``factors`` lists that diagonal.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix
    factors: tuple[int, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _snf_core(a: IntMatrix) -> SmithDecomposition:
    m, n = a.rows, a.cols
    s = [list(row) for row in a.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    ui = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    vi = [[int(i == j) for j in range(n)] for i in range(n)]

    # Every row operation is applied to u and inverted on the columns of
    # ui; every column operation goes to v and is inverted on the rows of
    # vi.  Clearing uses single 2x2 unimodular gcd transforms rather than
    # repeated Euclidean subtraction, which keeps the transform entries
    # from exploding.

    def row_sub(i: int, t: int, q: int) -> None:
        for mat in (s, u):
            ri, rt = mat[i], mat[t]
            for j in range(len(ri)):
                ri[j] -= q * rt[j]
        for r in ui:
            r[t] += q * r[i]

    def row_swap(i: int, t: int) -> None:
        if i == t:
            return
        s[i], s[t] = s[t], s[i]
        u[i], u[t] = u[t], u[i]
        for r in ui:
            r[i], r[t] = r[t], r[i]

    def row_neg(t: int) -> None:
        s[t] = [-x for x in s[t]]
        u[t] = [-x for x in u[t]]
        for r in ui:
            r[t] = -r[t]

    def row_gcd_combine(t: int, i: int) -> None:
        # rows (t, i) <- T @ (t, i) with T = [[x, y], [-e//g, p//g]],
        # after which s[t][t] = gcd(p, e) and s[i][t] = 0
        p, e = s[t][t], s[i][t]
        g, x, y = _xgcd(p, e)
        pg, eg = p // g, e // g
        for mat in (s, u):
            rt, ri = mat[t], mat[i]
            for j in range(len(rt)):
                rt[j], ri[j] = x * rt[j] + y * ri[j], -eg * rt[j] + pg * ri[j]
        for r in ui:
            # columns pick up T^{-1} = [[pg, -y], [eg, x]] on the right
            r[t], r[i] = pg * r[t] + eg * r[i], -y * r[t] + x * r[i]

    def col_sub(j: int, t: int, q: int) -> None:
        for r in s:
            r[j] -= q * r[t]
        for r in v:
            r[j] -= q * r[t]
        rt, rj = vi[t], vi[j]
        for k in range(len(rt)):
            rt[k] += q * rj[k]

    def col_swap(j: int, t: int) -> None:
        if j == t:
            return
        for r in s:
            r[j], r[t] = r[t], r[j]
        for r in v:
            r[j], r[t] = r[t], r[j]
        vi[j], vi[t] = vi[t], vi[j]

    def col_gcd_combine(t: int, j: int) -> None:
        # cols (t, j) <- (t, j) @ F with F = [[x, -e//g], [y, p//g]],
        # after which s[t][t] = gcd(p, e) and s[t][j] = 0
        p, e = s[t][t], s[t][j]
        g, x, y = _xgcd(p, e)
        pg, eg = p // g, e // g
        for mat in (s, v):
            for r in mat:
                r[t], r[j] = x * r[t] + y * r[j], -eg * r[t] + pg * r[j]
        rt, rj = vi[t], vi[j]
        for k in range(len(rt)):
            # rows pick up F^{-1} = [[pg, eg], [-y, x]] on the left
            rt[k], rj[k] = pg * rt[k] + eg * rj[k], -y * rt[k] + x * rj[k]

    t = 0
    limit = min(m, n)
    while t < limit:
        # Pivot strategy: smallest nonzero absolute value in the live
        # block, moved to (t, t) by swaps.
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x and (best is None or abs(x) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(best[0], t)
        col_swap(best[1], t)

        while True:
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, m):
                    e = s[i][t]
                    if e:
                        if e % s[t][t] == 0:
                            row_sub(i, t, e // s[t][t])
                        else:
                            row_gcd_combine(t, i)
                        dirty = True
                for j in range(t + 1, n):
                    e = s[t][j]
                    if e:
                        if e % s[t][t] == 0:
                            col_sub(j, t, e // s[t][t])
                        else:
                            col_gcd_combine(t, j)
                        dirty = True
            # Pivot must divide the whole remaining block to give the
            # divisibility chain; fold an offending row in and redo.
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % s[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)
        if s[t][t] < 0:
            row_neg(t)
        t += 1

    factors = tuple(s[i][i] for i in range(limit))
    return SmithDecomposition(
        u=IntMatrix.from_rows(u, cols=m),
        s=IntMatrix.from_rows(s, cols=n),
        v=IntMatrix.from_rows(v, cols=n),
        u_inv=IntMatrix.from_rows(ui, cols=m),
        v_inv=IntMatrix.from_rows(vi, cols=n),
        factors=factors,
    )


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix.

    >>> snf(IntMatrix.from_rows([[2, 4], [6, 8]])).factors
    (2, 4)
    >>> snf(IntMatrix.from_rows([[1, 0], [0, 1]])).factors
    (1, 1)
    """
    return _snf_core(a)


def smith_factors(a: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of ``a``, equal to ``snf(a).factors``, without the
    transforms.

    The elimination is _snf_core's, step for step, on the working matrix
    alone.  Once a pivot's row and column are clear, later steps leave them
    as they are, so each step works on the live block below and right of
    the pivots placed so far; the block drops its first row and column
    when its pivot is done.

    >>> smith_factors(IntMatrix.from_rows([[2, 4], [6, 8]]))
    (2, 4)
    >>> smith_factors(IntMatrix.from_rows([[0, 0], [0, 3], [0, 0]]))
    (3, 0)
    """
    s = [list(row) for row in a.entries]
    factors = []
    while s and s[0]:
        best, best_abs = None, 0
        for i, row in enumerate(s):
            for j, x in enumerate(row):
                if x and (best is None or abs(x) < best_abs):
                    best, best_abs = (i, j), abs(x)
        if best is None:
            break
        bi, bj = best
        s[0], s[bi] = s[bi], s[0]
        if bj:
            for r in s:
                r[0], r[bj] = r[bj], r[0]

        while True:
            dirty = True
            while dirty:
                dirty = False
                for i in range(1, len(s)):
                    e = s[i][0]
                    if e:
                        top, p = s[0], s[0][0]
                        if e % p == 0:
                            q = e // p
                            s[i] = [d - q * c for c, d in zip(top, s[i])]
                        else:
                            g, x, y = _xgcd(p, e)
                            pg, eg = p // g, e // g
                            s[0], s[i] = (
                                [x * c + y * d for c, d in zip(top, s[i])],
                                [pg * d - eg * c for c, d in zip(top, s[i])],
                            )
                        dirty = True
                top = s[0]
                for j in range(1, len(top)):
                    e = top[j]
                    if e:
                        p = top[0]
                        if e % p == 0:
                            q = e // p
                            for r in s:
                                r[j] -= q * r[0]
                        else:
                            g, x, y = _xgcd(p, e)
                            pg, eg = p // g, e // g
                            for r in s:
                                r[0], r[j] = x * r[0] + y * r[j], pg * r[j] - eg * r[0]
                        dirty = True
            # the chain repair of _snf_core: fold in a row that the pivot
            # does not divide, and clear again
            p = s[0][0]
            bad = next((r for r in s[1:] if any(x % p for x in r)), None)
            if bad is None:
                break
            s[0] = [c + d for c, d in zip(s[0], bad)]
        factors.append(abs(s[0][0]))
        s = [r[1:] for r in s[1:]]
    return tuple(factors) + (0,) * (min(a.rows, a.cols) - len(factors))


def lattice_coordinates(
    gens: IntMatrix, vectors: IntMatrix
) -> Optional[tuple[IntMatrix, IntMatrix]]:
    """A basis of the column lattice of ``gens`` and the coordinates of
    ``vectors`` in it, or None when some column of ``vectors`` lies
    outside that lattice.

    With u @ gens @ v = s, the lattice is the span of u_inv @ s, whose
    nonzero columns d_i * (column i of u_inv) form the basis (full column
    rank).  Since vectors = u_inv @ (u @ vectors), coordinate row i is row
    i of u @ vectors divided by d_i, and the rows past the rank must
    vanish.  One Smith decomposition answers the whole question.

    >>> basis, coords = lattice_coordinates(
    ...     IntMatrix.from_rows([[2, 0], [0, 3]]), IntMatrix.column([4, 9]))
    >>> basis @ coords == IntMatrix.column([4, 9])
    True
    >>> lattice_coordinates(IntMatrix.from_rows([[2]]), IntMatrix.column([3])) is None
    True
    """
    if gens.rows != vectors.rows:
        raise ValueError("lattice_coordinates requires matching row counts")
    dec = _snf_core(gens)
    rank = sum(1 for d in dec.factors if d)
    c = dec.u @ vectors
    if any(any(row) for row in c.entries[rank:]):
        return None
    coords = []
    for d, row in zip(dec.factors[:rank], c.entries):
        if any(x % d for x in row):
            return None
        coords.append(tuple(x // d for x in row))
    basis = tuple(
        tuple(d * x for d, x in zip(dec.factors[:rank], row)) for row in dec.u_inv.entries
    )
    return IntMatrix(gens.rows, rank, basis), IntMatrix(rank, vectors.cols, tuple(coords))


def lattice_equal(gens_a: IntMatrix, gens_b: IntMatrix) -> bool:
    """Whether two column-generated lattices coincide (mutual containment)."""
    if gens_a.rows != gens_b.rows:
        raise ValueError("lattices live in different ambient ranks")
    return (
        lattice_coordinates(gens_a, gens_b) is not None
        and lattice_coordinates(gens_b, gens_a) is not None
    )


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {x : a @ x = 0}, returned as columns."""
    dec = _snf_core(a)
    rank = sum(1 for d in dec.factors if d)
    idx = list(range(rank, a.cols))
    return dec.v.submatrix(list(range(a.cols)), idx)


# --- JSON transport -------------------------------------------------------
#
# Entries travel as decimal strings so arbitrary precision survives
# consumers whose JSON numbers are doubles.  Parsing accepts plain
# integers too.  rows and cols are structural counts: plain JSON integers
# only.


def _parse_int(value, what: str) -> int:
    """An integer sent as a JSON number or a decimal string; booleans and
    every other type are rejected with a one-line reason."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, not a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError as exc:  # a bad literal, or more digits than Python converts
            limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
            if sum(c.isdigit() for c in value) > limit > 0:
                raise ValueError(f"{what} has more than {limit} digits") from None
            raise ValueError(f"{what}: {exc}") from None
    raise ValueError(f"{what} must be an integer or decimal string")


def matrix_to_json(a: IntMatrix) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[str(x) for x in row] for row in a.entries],
    }


def matrix_from_json(obj) -> IntMatrix:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except KeyError as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    for name, count in (("rows", rows), ("cols", cols)):
        if not isinstance(count, int) or isinstance(count, bool):
            raise ValueError(f"matrix {name} must be a JSON integer")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ValueError("matrix JSON entries must list one row per declared row")
    data = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError("matrix JSON row width disagrees with declared cols")
        data.append(tuple(_parse_int(x, "matrix entry") for x in row))
    return IntMatrix(rows, cols, tuple(data))
