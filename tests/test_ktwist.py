import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binomial_orders
from ktower.fgab import FgAbGroup
from ktower.ktwist import (
    DivisibilityTable,
    KResult,
    Sphere3,
    SphereDisjointUnion,
    SUFinite,
    SUInfinite,
    cyclic_order,
    divisibility_table,
    first_trivial_rank,
    twisted_k,
)
from ktower.towers import Verdict, truncated_product


def group_verdict(g):
    return Verdict("group", group=g)


def pascal_row(n):
    # additive reconstruction of binomial coefficients, independent of math.comb
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def oracle_order(n, level):
    g = 0
    for i in range(1, n):
        g = math.gcd(g, pascal_row(level + i)[i] - 1)
    return g


ORACLE_LEVELS, ORACLE_WIDTH = 300, 64


def oracle_order_table(max_level, n_max):
    """{level: (oracle_order(n, level) for n = 2..n_max)} for every level
    up to max_level, from one additive walk down Pascal's triangle: row r
    supplies C(level+i, i) to the level r - i, in increasing i."""
    gcds = dict.fromkeys(range(1, max_level + 1), 0)
    table = {level: [] for level in gcds}
    row = [1]
    for r in range(1, max_level + n_max):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        for i in range(max(1, r - max_level), min(r, n_max)):
            level = r - i
            gcds[level] = math.gcd(gcds[level], row[i] - 1)
            table[level].append(gcds[level])
    return {level: tuple(orders) for level, orders in table.items()}


ORACLE_TABLE = oracle_order_table(ORACLE_LEVELS, ORACLE_WIDTH)


def oracle_first_one(orders, bound):
    return next((n for n, o in zip(range(2, bound + 1), orders) if o == 1), None)


class TestRunningBinomial:
    """cyclic_order, first_trivial_rank and divisibility_table share one
    generator, the closed form level / gcd(level, lcm(1..n-1)); the Pascal
    walk is the independent oracle on small levels."""

    def test_oracle_table_agrees_with_oracle_order(self):
        for level in (1, 2, 7, 30, 299):
            for n in (2, 3, 9):
                assert ORACLE_TABLE[level][n - 2] == oracle_order(n, level)

    def test_divisibility_table_sweep(self):
        for level, orders in ORACLE_TABLE.items():
            t = divisibility_table(level, ORACLE_WIDTH)
            assert t.orders == orders
            assert t.chain_ok
            assert t.first_one == oracle_first_one(orders, ORACLE_WIDTH)

    def test_first_trivial_rank_sweep(self):
        for level, orders in ORACLE_TABLE.items():
            assert first_trivial_rank(level, ORACLE_WIDTH) == oracle_first_one(orders, ORACLE_WIDTH)

    @given(st.integers(1, ORACLE_LEVELS), st.integers(2, ORACLE_WIDTH))
    @settings(max_examples=200, deadline=None)
    def test_windows_match_oracle(self, level, n):
        orders = ORACLE_TABLE[level]
        assert cyclic_order(n, level) == orders[n - 2]
        assert divisibility_table(level, n).orders == orders[: n - 1]
        assert first_trivial_rank(level, n) == oracle_first_one(orders, n)

    def test_small_bounds_and_bad_levels(self):
        assert first_trivial_rank(5, 1) is None
        assert first_trivial_rank(0, 1) is None
        with pytest.raises(ValueError):
            first_trivial_rank(0, 5)
        with pytest.raises(ValueError):
            divisibility_table(0, 5)

    def test_chain_violation_is_reported(self, monkeypatch):
        import ktower.ktwist as ktwist

        monkeypatch.setattr(ktwist, "_running_orders", lambda level: iter((6, 3, 4, 1)))
        assert not divisibility_table(1, 5).chain_ok


# primes below 300, so that the prime powers of a level fall on both sides
# of the ranks the tests reach
SMALL_PRIMES = [p for p in range(2, 300) if all(p % q for q in range(2, int(p**0.5) + 1))]

prime_power_levels = st.lists(
    st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(1, 12)), min_size=1, max_size=5
).map(lambda powers: math.prod(p**a for p, a in powers))


class TestLargeLevels:
    """The closed form against the binomial definition (tests/helpers.py)
    on levels far past the Pascal table."""

    @given(st.one_of(st.integers(1, 10**40), prime_power_levels), st.integers(2, 300))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_binomial_definition(self, level, n):
        orders = binomial_orders(level, n)
        assert cyclic_order(n, level) == orders[-1]
        assert divisibility_table(level, n).orders == tuple(orders)
        assert first_trivial_rank(level, n) == oracle_first_one(orders, n)


class TestCyclicOrder:
    def test_two_by_level(self):
        for level in range(1, 30):
            assert cyclic_order(2, level) == level

    def test_spot_values(self):
        assert cyclic_order(3, 2) == 1
        assert cyclic_order(3, 3) == 3
        assert cyclic_order(4, 3) == 1
        assert cyclic_order(4, 6) == 1
        assert cyclic_order(3, 6) == 3

    def test_matches_pascal_oracle(self):
        for n in range(2, 12):
            for level in range(1, 12):
                assert cyclic_order(n, level) == oracle_order(n, level)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cyclic_order(1, 3)
        with pytest.raises(ValueError):
            cyclic_order(3, 0)

    @given(st.integers(2, 16), st.integers(2, 16), st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_divisibility(self, m, n, level):
        if m > n:
            m, n = n, m
        assert cyclic_order(m, level) % cyclic_order(n, level) == 0


class TestDivisibilityTable:
    def test_level_three(self):
        t = divisibility_table(3, 4)
        assert t.orders == (3, 3, 1)
        assert t.chain_ok
        assert t.first_one == 4

    def test_level_one_all_trivial(self):
        t = divisibility_table(1, 6)
        assert t.orders == (1, 1, 1, 1, 1)
        assert t.first_one == 2

    def test_level_six(self):
        assert divisibility_table(6, 4).orders == (6, 3, 1)

    def test_no_first_one_in_range(self):
        t = divisibility_table(2, 2)
        assert t.orders == (2,)
        assert t.first_one is None

    def test_rejects_small_range(self):
        with pytest.raises(ValueError):
            divisibility_table(3, 1)


class TestSpaces:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SUFinite(1, 3)
        with pytest.raises(ValueError):
            SUFinite(3, 0)
        with pytest.raises(ValueError):
            SUInfinite(0)
        with pytest.raises(ValueError):
            Sphere3(0)
        with pytest.raises(ValueError):
            SphereDisjointUnion(first=0)

    def test_provenance_required(self):
        with pytest.raises(ValueError):
            KResult(Sphere3(2), group_verdict(FgAbGroup.cyclic(2)), None, ())


class TestSUFinite:
    def test_small_known_value(self):
        out = twisted_k(SUFinite(2, 2))
        assert out.total == group_verdict(FgAbGroup(0, (2, 2)))
        assert out.graded is None

    def test_trivial_when_order_one(self):
        assert twisted_k(SUFinite(3, 2)).total == group_verdict(FgAbGroup.trivial())

    def test_factor_count_and_order(self):
        for n in range(2, 7):
            for level in range(1, 7):
                total = twisted_k(SUFinite(n, level)).total.group
                order = cyclic_order(n, level)
                if order == 1:
                    assert total == FgAbGroup.trivial()
                else:
                    assert total.torsion == (order,) * 2 ** (n - 1)
                assert total.free_rank == 0

    def test_khomology_total_agrees(self):
        for n, level in [(2, 4), (3, 3), (4, 5)]:
            s = SUFinite(n, level)
            assert twisted_k(s, homology=True).total == twisted_k(s).total

    def test_provenance_names_rules(self):
        out = twisted_k(SUFinite(3, 3))
        assert any("gcd" in note for note in out.provenance)


class TestSphere3:
    def test_known_value(self):
        out = twisted_k(Sphere3(5))
        assert out.total == group_verdict(FgAbGroup.cyclic(5))
        assert out.graded.k0 == group_verdict(FgAbGroup.trivial())
        assert out.graded.k1 == group_verdict(FgAbGroup.cyclic(5))

    def test_khomology_shape(self):
        out = twisted_k(Sphere3(7), homology=True)
        assert out.graded.k0 == group_verdict(FgAbGroup.trivial())
        assert out.graded.k1 == group_verdict(FgAbGroup.cyclic(7))

    def test_rank_zero(self):
        assert twisted_k(Sphere3(9)).total.group.free_rank == 0


class TestSphereDisjointUnion:
    def test_product_versus_sum(self):
        union = SphereDisjointUnion()
        k = twisted_k(union)
        kh = twisted_k(union, homology=True)
        assert k.total == Verdict("countable-product", first=1)
        assert kh.total == Verdict("countable-sum", first=1)
        # both totals name the one family whose truncations they share
        assert k.graded.k1 == k.total and kh.graded.k1 == kh.total
        for upto in range(1, 13):
            assert truncated_product(union.family(), upto) == FgAbGroup.from_orders(
                range(1, upto + 1)
            )

    def test_truncation_values(self):
        family = SphereDisjointUnion().family()
        assert truncated_product(family, 2) == FgAbGroup.cyclic(2)
        assert truncated_product(family, 4) == FgAbGroup.from_orders([2, 3, 4])

    def test_custom_twists(self):
        union = SphereDisjointUnion(twist_of=lambda k: 2 * k, first=1)
        assert truncated_product(union.family(), 3) == FgAbGroup.from_orders([2, 4, 6])

    def test_even_degree_trivial(self):
        assert twisted_k(SphereDisjointUnion()).graded.k0 == group_verdict(FgAbGroup.trivial())


class TestSUInfinite:
    def test_trivial_at_level_three(self):
        out = twisted_k(SUInfinite(3))
        assert out.total.kind == "trivial"
        assert out.graded.k0.kind == "trivial"
        assert out.graded.k1.kind == "trivial"

    def test_khomology_trivial_at_level_two(self):
        out = twisted_k(SUInfinite(2), homology=True)
        assert out.total.kind == "trivial"

    def test_unproven_when_bound_too_small(self):
        out = twisted_k(SUInfinite(2), bound=2)
        assert out.total.kind == "unproven"
        assert out.total.bound == 2
        out_h = twisted_k(SUInfinite(2), bound=2, homology=True)
        assert out_h.total.kind == "unproven"

    def test_verdict_matches_table_first_one(self):
        # two independent code paths must agree on triviality
        for level in range(1, 17):
            verdict = twisted_k(SUInfinite(level), bound=64).total
            table = divisibility_table(level, 64)
            assert (verdict.kind == "trivial") == (table.first_one is not None)
            if table.first_one is not None:
                assert first_trivial_rank(level, 64) == table.first_one



class TestOneAnswerRecord:
    @pytest.mark.parametrize("homology", [False, True], ids=["k-theory", "k-homology"])
    def test_totals_and_degrees_are_verdicts(self, homology):
        cases = [
            (SUFinite(3, 4), 64),
            (SUInfinite(3), 64),
            (SUInfinite(2), 2),  # unproven at this bound
            (Sphere3(5), 64),
            (SphereDisjointUnion(), 64),
        ]
        for space, bound in cases:
            out = twisted_k(space, bound=bound, homology=homology)
            answers = [out.total] if out.graded is None else [out.total, out.graded.k0, out.graded.k1]
            for answer in answers:
                assert isinstance(answer, Verdict), (space, answer)
                assert answer.to_json()["kind"] == answer.kind
                assert "\n" not in answer.text()
