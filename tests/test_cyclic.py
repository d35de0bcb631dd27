import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktower.fgab import FgAbGroup
from ktower.ktwist import Sphere3, SUFinite, SUInfinite, twisted_k
from ktower.cyclic import (
    ChernCheck,
    ExteriorAlgebra,
    GradedDims,
    TwistedHpResult,
    chern_rank_check,
    graded_dims,
    hp_su_infinity,
    su_de_rham,
    twisted_hp,
)


def dims_by_enumeration(degrees):
    # walk every monomial and sort by actual total degree
    even = odd = 0
    for size in range(len(degrees) + 1):
        for subset in itertools.combinations(degrees, size):
            if sum(subset) % 2 == 0:
                even += 1
            else:
                odd += 1
    return GradedDims(even, odd)


class TestExteriorAlgebra:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExteriorAlgebra((2,))
        with pytest.raises(ValueError):
            ExteriorAlgebra((3, 3))
        with pytest.raises(ValueError):
            ExteriorAlgebra((5, 3))
        with pytest.raises(ValueError):
            ExteriorAlgebra((-3,))

    def test_su_generator_degrees(self):
        assert su_de_rham(2).generator_degrees == (3,)
        assert su_de_rham(3).generator_degrees == (3, 5)
        assert su_de_rham(4).generator_degrees == (3, 5, 7)
        with pytest.raises(ValueError):
            su_de_rham(1)


class TestGradedDims:
    def test_small_values(self):
        assert graded_dims(ExteriorAlgebra(())) == GradedDims(1, 0)
        assert graded_dims(ExteriorAlgebra((3,))) == GradedDims(1, 1)
        assert graded_dims(ExteriorAlgebra((3, 5))) == GradedDims(2, 2)

    def test_closed_form_for_su(self):
        for n in range(2, 17):
            d = graded_dims(su_de_rham(n))
            assert d.even == d.odd == 2 ** (n - 2)
            assert d.total == 2 ** (n - 1)

    def test_matches_enumeration(self):
        for n in range(2, 13):
            algebra = su_de_rham(n)
            assert graded_dims(algebra) == dims_by_enumeration(algebra.generator_degrees)

    @given(st.lists(st.integers(1, 25), unique=True, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_on_arbitrary_odd_degrees(self, halves):
        degrees = tuple(sorted(2 * h + 1 for h in halves))
        algebra = ExteriorAlgebra(degrees)
        assert graded_dims(algebra) == dims_by_enumeration(degrees)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GradedDims(-1, 0)


class TestRestriction:
    """SU(n-1) < SU(n) restricts su_de_rham(n) onto su_de_rham(n - 1): the
    top generator dies and the others map to their namesakes."""

    def test_kills_top_generator(self):
        src, tgt = su_de_rham(3), su_de_rham(2)
        assert src.generator_degrees == tgt.generator_degrees + (5,)
        img, full = graded_dims(tgt), graded_dims(src)
        assert img == GradedDims(1, 1)
        assert GradedDims(full.even - img.even, full.odd - img.odd) == GradedDims(1, 1)

    def test_halves_dims_at_every_level(self):
        for n in range(3, 14):
            src = graded_dims(su_de_rham(n))
            img = graded_dims(su_de_rham(n - 1))
            assert img == GradedDims(src.even // 2, src.odd // 2)
            assert src.total - img.total == src.total // 2

    def test_composite_kills_two_generators(self):
        assert su_de_rham(5).generator_degrees == su_de_rham(3).generator_degrees + (7, 9)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            su_de_rham(1)


class TestHpTower:
    def test_report_shape(self):
        report = hp_su_infinity(4)
        assert report.levels == (
            (2, GradedDims(1, 1)),
            (3, GradedDims(2, 2)),
            (4, GradedDims(4, 4)),
        )
        assert report.surjective_steps == (3, 4)

    def test_lim1_zero_rule(self):
        report = hp_su_infinity(16)
        assert report.lim1.kind == "zero"
        assert "surjective" in report.lim1.rule

    def test_dims_strictly_increase(self):
        report = hp_su_infinity(10)
        totals = [d.total for _, d in report.levels]
        assert all(b > a for a, b in zip(totals, totals[1:]))
        assert "not finite-dimensional" in report.limit_note

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            hp_su_infinity(1)


class TestChernRankCheck:
    def test_torsion_group_against_zero(self):
        out = chern_rank_check(twisted_k(SUFinite(2, 2)), 0)
        assert out.passed

    def test_torsion_invisible_to_rank(self):
        assert chern_rank_check(FgAbGroup(2, (3,)), 2).passed

    def test_rank_mismatch_fails(self):
        out = chern_rank_check(FgAbGroup.free(1), 0)
        assert not out.passed
        assert out.k_rank == 1 and out.hp_dim == 0

    def test_descriptor_only_input_rejected(self):
        unresolved = twisted_k(SUInfinite(2), bound=2)
        assert unresolved.total.kind == "unproven"
        with pytest.raises(ValueError):
            chern_rank_check(unresolved, 0)

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            chern_rank_check(FgAbGroup.trivial(), -1)


class TestTwistedHp:
    def test_finite_level_vanishes(self):
        out = twisted_hp(SUFinite(3, 5))
        assert out.dims == GradedDims(0, 0)
        assert any("torsion" in note for note in out.provenance)

    def test_infinite_union_vanishes(self):
        out = twisted_hp(SUInfinite(2))
        assert out.dims == GradedDims(0, 0)
        assert any("tower" in note for note in out.provenance)

    def test_unsupported_space_rejected(self):
        with pytest.raises(ValueError):
            twisted_hp(Sphere3(3))

    def test_consistency_with_rank_check(self):
        for n in range(2, 8):
            for level in range(1, 8):
                s = SUFinite(n, level)
                hp = twisted_hp(s)
                assert chern_rank_check(twisted_k(s), hp.dims.total).passed

    def test_provenance_required(self):
        with pytest.raises(ValueError):
            TwistedHpResult(GradedDims(0, 0), ())
