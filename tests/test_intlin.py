import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import determinant, minor_gcd_factors
from ktower.intlin import (
    IntMatrix,
    _snf_core,
    integer_kernel,
    lattice_coordinates,
    lattice_equal,
    matrix_from_json,
    matrix_to_json,
    smith_factors,
    snf,
)


def reference_det(m: IntMatrix) -> int:
    # cofactor expansion, kept separate from the Bareiss routine in helpers
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m.entries[0][0]
    total = 0
    rest = list(range(1, n))
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        sub = m.submatrix(rest, cols)
        sign = -1 if j % 2 else 1
        total += sign * m.entries[0][j] * reference_det(sub)
    return total


def _shaped_rows(r, max_cols, entries):
    """Matrices with exactly r rows and 0..max_cols columns of ``entries``."""
    return st.integers(0, max_cols).flatmap(
        lambda c: st.lists(
            st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
        ).map(lambda rows: IntMatrix.from_rows(rows, cols=c))
    )


def _shaped(max_dim, entries):
    """Matrices with 0..max_dim rows and 0..max_dim columns of ``entries``."""
    return st.integers(0, max_dim).flatmap(lambda r: _shaped_rows(r, max_dim, entries))


matrices = _shaped(5, st.integers(-30, 30))


class TestSmith:
    def test_known_values(self):
        assert snf(IntMatrix.from_rows([[2, 4], [6, 8]])).factors == (2, 4)
        assert snf(IntMatrix.identity(2)).factors == (1, 1)
        assert snf(IntMatrix.zero(3, 3)).factors == (0, 0, 0)
        assert snf(IntMatrix.from_rows([[6]])).factors == (6,)
        assert snf(IntMatrix.from_rows([[-6]])).factors == (6,)

    def test_zero_dimensional(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            dec = snf(IntMatrix.zero(*shape))
            assert dec.factors == ()
            assert (dec.s.rows, dec.s.cols) == shape

    @settings(max_examples=200)
    @given(matrices)
    def test_decomposition_properties(self, a):
        dec = snf(a)
        assert dec.u @ a @ dec.v == dec.s
        assert abs(reference_det(dec.u)) == 1
        assert abs(reference_det(dec.v)) == 1
        fs = dec.factors
        assert len(fs) == min(a.rows, a.cols)
        assert all(f >= 0 for f in fs)
        nz = [f for f in fs if f]
        # nonzero factors first, each dividing the next
        assert list(fs[: len(nz)]) == nz
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        # s is diagonal with exactly the factors on the diagonal
        for i in range(a.rows):
            for j in range(a.cols):
                expected = fs[i] if i == j else 0
                assert dec.s.entries[i][j] == expected

    @settings(max_examples=200)
    @given(matrices)
    def test_matches_minor_oracle(self, a):
        nz = [f for f in snf(a).factors if f]
        assert tuple(nz) == minor_gcd_factors(a)

    @settings(max_examples=100)
    @given(matrices)
    def test_tracked_inverses(self, a):
        full = snf(a)
        assert full.u @ full.u_inv == IntMatrix.identity(a.rows)
        assert full.v @ full.v_inv == IntMatrix.identity(a.cols)


# mostly zeros and small values, with entries up to 10^30 mixed in
wide_entries = st.one_of(
    st.just(0), st.integers(-9, 9), st.integers(-(10**30), 10**30)
)
# r x k times k x c with k < min(r, c): rank at most k, below full
low_rank = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.integers(0, min(r, c) - 1).flatmap(
            lambda k: st.tuples(
                st.lists(st.lists(st.integers(-9, 9), min_size=k, max_size=k), min_size=r, max_size=r),
                st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=k, max_size=k),
            ).map(
                lambda ab: IntMatrix.from_rows(ab[0], cols=k) @ IntMatrix.from_rows(ab[1], cols=c)
            )
        )
    )
)


def digit_limit_matrices():
    """The fixed dense 24..30 square matrices of the benchmark's
    snf.digit-limit class, rebuilt from the same seeds."""
    out = []
    for n, k in ((24, 3), (26, 3), (28, 0), (30, 1)):
        rng = random.Random(f"snf-digit-limit-{n}-{k}")
        out.append(IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]))
    return out


class TestSmithFactors:
    """The transform-free elimination against _snf_core and the minor oracle."""

    def test_known_values(self):
        assert smith_factors(IntMatrix.from_rows([[2, 4], [6, 8]])) == (2, 4)
        assert smith_factors(IntMatrix.from_rows([[-6]])) == (6,)
        assert smith_factors(IntMatrix.zero(3, 2)) == (0, 0)
        # rank 1 in a 3 x 3: trailing zeros up to min(rows, cols)
        assert smith_factors(IntMatrix.from_rows([[2, 4, 6], [4, 8, 12], [6, 12, 18]])) == (2, 0, 0)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_zero_dimensional(self, shape):
        assert smith_factors(IntMatrix.zero(*shape)) == ()

    @settings(max_examples=200, deadline=None)
    @given(_shaped(7, wide_entries))
    def test_matches_snf_core(self, a):
        assert smith_factors(a) == _snf_core(a).factors

    @settings(max_examples=150, deadline=None)
    @given(low_rank)
    def test_matches_snf_core_below_full_rank(self, a):
        fs = smith_factors(a)
        assert fs == _snf_core(a).factors
        assert fs[-1] == 0

    @settings(max_examples=200, deadline=None)
    @given(_shaped(6, st.integers(-30, 30)))
    def test_matches_minor_oracle(self, a):
        assert tuple(d for d in smith_factors(a) if d) == minor_gcd_factors(a)

    @pytest.mark.parametrize("index", range(4))
    def test_digit_limit_matrices_against_determinant(self, index):
        a = digit_limit_matrices()[index]
        fs = smith_factors(a)
        assert len(fs) == a.rows and all(fs)
        assert all(y % x == 0 for x, y in zip(fs, fs[1:]))
        assert math.prod(fs) == abs(determinant(a))


class TestMinorOracle:
    def test_zero_matrix_has_no_factors(self):
        assert minor_gcd_factors(IntMatrix.zero(3, 3)) == ()

    def test_identity(self):
        assert minor_gcd_factors(IntMatrix.identity(2)) == (1, 1)

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            minor_gcd_factors(IntMatrix.zero(7, 7))

    def test_rectangular(self):
        # 1x1 minor gcd is 2, 2x2 minor gcd is 8, so d_2 = 8 / 2 = 4
        a = IntMatrix.from_rows([[2, 0, 0], [0, 4, 0]])
        assert minor_gcd_factors(a) == (2, 4)
        assert [f for f in snf(a).factors if f] == [2, 4]


class TestDeterminant:
    @settings(max_examples=150)
    @given(
        st.integers(0, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ).map(lambda rows: IntMatrix.from_rows(rows, cols=n))
        )
    )
    def test_against_cofactor_expansion(self, a):
        assert determinant(a) == reference_det(a)

    def test_product_of_snf_factors(self):
        a = IntMatrix.from_rows([[4, 2], [2, 4]])
        assert abs(determinant(a)) == math.prod(snf(a).factors)


class TestLatticeCoordinates:
    def test_basic(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        basis, coords = lattice_coordinates(a, IntMatrix.column([4, 9]))
        assert basis @ coords == IntMatrix.column([4, 9])

    def test_no_solution(self):
        a = IntMatrix.from_rows([[2]])
        assert lattice_coordinates(a, IntMatrix.column([3])) is None

    def test_zero_columns(self):
        # empty lattice only contains zero
        a = IntMatrix.zero(2, 0)
        basis, coords = lattice_coordinates(a, IntMatrix.column([0, 0]))
        assert (basis.rows, basis.cols, coords.rows, coords.cols) == (2, 0, 0, 1)
        assert lattice_coordinates(a, IntMatrix.column([1, 0])) is None

    def test_zero_rows(self):
        a = IntMatrix.zero(0, 3)
        basis, coords = lattice_coordinates(a, IntMatrix.zero(0, 1))
        assert (basis.rows, basis.cols, coords.rows, coords.cols) == (0, 0, 0, 1)

    def test_row_counts_must_match(self):
        with pytest.raises(ValueError, match="matching row counts"):
            lattice_coordinates(IntMatrix.zero(2, 1), IntMatrix.zero(3, 1))

    @settings(max_examples=150)
    @given(matrices, st.data())
    def test_solution_when_constructed(self, a, data):
        # build b = a @ w for a random integer w, so b lies in the lattice
        w_rows = [
            [data.draw(st.integers(-5, 5)) for _ in range(2)] for _ in range(a.cols)
        ]
        b = a @ IntMatrix.from_rows(w_rows, cols=2)
        found = lattice_coordinates(a, b)
        assert found is not None
        basis, coords = found
        assert basis @ coords == b

    @settings(max_examples=100)
    @given(matrices)
    def test_basis_spans_same_lattice(self, a):
        basis, _ = lattice_coordinates(a, IntMatrix.zero(a.rows, 0))
        if a.cols and basis.cols:
            assert lattice_equal(a, basis)
        assert basis.cols == sum(1 for f in snf(a).factors if f)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda r: st.tuples(
                _shaped_rows(r, 4, st.integers(-12, 12)),
                _shaped_rows(r, 2, st.integers(-12, 12)),
                st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), max_size=4),
                st.booleans(),
            )
        )
    )
    def test_none_exactly_off_the_lattice(self, drawn):
        # Independent oracle: L(a) lies in L(a | b), and the two are equal
        # exactly when they have the same rank and the same product of
        # invariant factors, i.e. the same minor-gcd factors.
        a, b, w, constructed = drawn
        if constructed and len(w) >= a.cols:
            b = a @ IntMatrix.from_rows(w[: a.cols], cols=2)
        found = lattice_coordinates(a, b)
        inside = minor_gcd_factors(a.hstack(b)) == minor_gcd_factors(a)
        assert (found is not None) == inside
        if found is not None:
            basis, coords = found
            assert basis @ coords == b
            assert basis.cols == len(minor_gcd_factors(a))


class TestLattices:
    def test_contains(self):
        gens = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert lattice_coordinates(gens, IntMatrix.column([4, 3])) is not None
        assert lattice_coordinates(gens, IntMatrix.column([1, 0])) is None

    def test_equal_under_column_ops(self):
        a = IntMatrix.from_rows([[2, 0], [0, 3]])
        b = IntMatrix.from_rows([[2, 2], [3, 0]])
        assert lattice_equal(a, b)

    def test_kernel(self):
        a = IntMatrix.from_rows([[1, 2, 3]])
        k = integer_kernel(a)
        assert k.cols == 2
        assert (a @ k).is_zero()


class TestJson:
    def test_round_trip(self):
        a = IntMatrix.from_rows([[2, -4], [6, 10**40]])
        assert matrix_from_json(matrix_to_json(a)) == a

    def test_entries_are_decimal_strings(self):
        obj = matrix_to_json(IntMatrix.from_rows([[12345678901234567890]]))
        assert obj["entries"] == [["12345678901234567890"]]

    def test_accepts_plain_integers(self):
        obj = {"rows": 1, "cols": 2, "entries": [[1, "2"]]}
        assert matrix_from_json(obj) == IntMatrix.from_rows([[1, 2]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 2, "entries": [[1]]})

    @pytest.mark.parametrize("field", ["rows", "cols"])
    @pytest.mark.parametrize("value", [1.9, 1.0, True, "1", None, [1]])
    def test_sizes_must_be_json_integers(self, field, value):
        obj = {"rows": 1, "cols": 1, "entries": [["5"]], field: value}
        with pytest.raises(ValueError, match=f"matrix {field} must be a JSON integer"):
            matrix_from_json(obj)
