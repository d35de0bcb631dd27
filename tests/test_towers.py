import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ktower.fgab
from helpers import (
    element_order,
    kernel_inclusion,
    random_valid_hom,
    smith_presentation,
    zero_hom,
)
from ktower.fgab import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    check_exact,
    cokernel,
    group_to_json,
    hom_to_json,
    image,
    kernel,
    same_subgroup,
)
from ktower.intlin import IntMatrix
from ktower.towers import (
    CountableDescriptor,
    CyclicFamily,
    DirectTower,
    EventuallyConstant,
    General,
    InverseTower,
    LevelwiseFinite,
    Verdict,
    all_ones_order,
    builtin_graded_pair,
    builtin_tower,
    constant_tower,
    direct_limit,
    inverse_limit,
    is_mittag_leffler,
    lim1,
    milnor_assemble,
    tower_from_json,
    truncated_product,
    unbounded_torsion_witness,
)
from ktower.towers import _bound_composites, _is_isomorphism

Z = FgAbGroup.free(1)


def doubling_tower(bound=16):
    return builtin_tower("z-times-2", bound=bound)


class TestTowerAccess:
    def test_group_and_map_validation(self):
        t = doubling_tower()
        assert t.group_at(0) == Z
        assert t.map_at(3).matrix.entries == ((2,),)
        with pytest.raises(ValueError):
            t.group_at(-1)
        with pytest.raises(ValueError):
            t.map_at(0)

    def test_levelwise_finite_rejects_free_rank(self):
        t = InverseTower(
            group_at=lambda n: Z,
            map_at=lambda n: Homomorphism.identity(Z),
            tail=LevelwiseFinite(),
        )
        with pytest.raises(ValueError):
            t.group_at(0)

    def test_mismatched_map_rejected(self):
        t = InverseTower(
            group_at=lambda n: FgAbGroup.cyclic(3),
            map_at=lambda n: Homomorphism.identity(FgAbGroup.cyclic(5)),
            tail=LevelwiseFinite(),
        )
        with pytest.raises(ValueError):
            t.map_at(1)

    def test_eventually_constant_clamps(self):
        t = constant_tower(FgAbGroup.cyclic(6), bound=8)
        assert t.group_at(500) == FgAbGroup.cyclic(6)
        f = t.map_at(500)
        assert f.source == f.target == FgAbGroup.cyclic(6)

    def test_composite_identity_at_depth_zero(self):
        t = doubling_tower()
        f = t.composite(2, 0)
        assert f.matrix.entries == ((1,),)
        g = t.composite(1, 3)
        assert g.matrix.entries == ((8,),)


class TestMittagLeffler:
    def test_doubling_tower_fails_at_base(self):
        # every image is isomorphic to Z, yet the chain 2^k Z never stabilizes
        verdict = is_mittag_leffler(doubling_tower())
        assert verdict.kind == "ml-failed"
        assert verdict.witness_level == 0

    def test_doubling_image_chain_classes_are_constant(self):
        # the contrast that forces lattice comparison instead of classes
        t = doubling_tower()
        assert all(image(t.composite(0, k)) == Z for k in range(6))

    @pytest.mark.parametrize("group,tail", [(Z, General()), (FgAbGroup.cyclic(4), LevelwiseFinite())])
    def test_verdicts_respect_bound(self, group, tail):
        # no verdict fetches a map from above the certification bound
        def map_at(n):
            assert n <= 4, f"map at level {n} is past the bound"
            return Homomorphism(group, group, IntMatrix.from_rows([[2]]))

        t = InverseTower(group_at=lambda n: group, map_at=map_at, tail=tail, bound=4)
        is_mittag_leffler(t)
        inverse_limit(t)
        lim1(t)

    def test_finite_tower_forced(self):
        verdict = is_mittag_leffler(builtin_tower("mod2-powers", bound=8))
        assert verdict.kind == "ml-forced"
        assert "finite" in verdict.rule

    def test_constant_tower_forced(self):
        verdict = is_mittag_leffler(constant_tower(FgAbGroup.cyclic(4)))
        assert verdict.kind == "ml-forced"

    def test_general_tag_only_verified_up_to_bound(self):
        payload = {"prefix": [group_to_json(FgAbGroup.cyclic(4))], "tail": "general"}
        t = tower_from_json(payload, bound=12)
        verdict = is_mittag_leffler(t)
        assert verdict == Verdict("ml-verified", bound=12)


class TestLim1:
    def test_doubling_tower_nonzero(self):
        verdict = lim1(doubling_tower())
        assert verdict.kind == "nonzero-uncomputed"
        assert verdict.witness_level == 0

    def test_finite_tower_zero(self):
        verdict = lim1(builtin_tower("mod2-powers", bound=8))
        assert verdict.kind == "zero"

    def test_general_tag_stays_unproven(self):
        # looking stable within the window is not a proof
        payload = {"prefix": [group_to_json(FgAbGroup.cyclic(4))], "tail": "general"}
        assert lim1(tower_from_json(payload, bound=12)) == Verdict("unproven", bound=12)


class TestInverseLimit:
    def test_constant_tower_exact(self):
        v = inverse_limit(constant_tower(FgAbGroup.cyclic(6)))
        assert v.kind == "exact-limit"
        assert v.group == FgAbGroup.cyclic(6)

    def test_constant_trivial(self):
        v = inverse_limit(constant_tower(FgAbGroup.trivial()))
        assert v.kind == "trivial"

    def test_mod2_powers_profinite(self):
        v = inverse_limit(builtin_tower("mod2-powers", bound=8))
        assert v.kind == "profinite-nontrivial"
        assert v.evidence == (2, 4, 8, 16, 32, 64, 128)

    def test_doubling_tower_unproven(self):
        v = inverse_limit(doubling_tower(bound=16))
        assert v == Verdict("unproven", bound=16, note="no structural rule applies to a general tail")

    def test_finite_constant_via_stable_images(self):
        # declared levelwise finite, so the stable-image route must fire
        payload = {"prefix": [group_to_json(FgAbGroup.cyclic(5))], "tail": "finite"}
        v = inverse_limit(tower_from_json(payload, bound=10))
        assert v.kind == "exact-limit"
        assert v.group == FgAbGroup.cyclic(5)
        assert "stable images" in v.note

    def test_finite_cofinally_trivial(self):
        def level_group(n):
            return FgAbGroup.cyclic(3) if n < 2 else FgAbGroup.trivial()

        def level_map(n):
            return zero_hom(level_group(n), level_group(n - 1))

        t = InverseTower(group_at=level_group, map_at=level_map, tail=LevelwiseFinite(), bound=9)
        v = inverse_limit(t)
        assert v.kind == "trivial"
        assert "from 2" in v.note


class TestDirectLimit:
    def test_constant(self):
        v = direct_limit(constant_tower(FgAbGroup.cyclic(7), direct=True))
        assert v.kind == "exact-limit"
        assert v.group == FgAbGroup.cyclic(7)

    def test_eventually_iso_prefix(self):
        g, h = FgAbGroup.cyclic(2), FgAbGroup(1, (2,))
        inc = Homomorphism(g, h, IntMatrix.from_rows([[0], [1]]))
        payload = {
            "prefix": [group_to_json(g), group_to_json(h)],
            "maps": [hom_to_json(inc)],
            "tail": "general",
        }
        v = direct_limit(tower_from_json(payload, bound=10, direct=True))
        assert v.kind == "exact-limit"
        assert v.group == h

    def test_zero_maps_die(self):
        g = FgAbGroup.cyclic(2)
        t = DirectTower(
            group_at=lambda n: g,
            map_at=lambda n: zero_hom(g, g),
            tail=LevelwiseFinite(),
            bound=10,
        )
        v = direct_limit(t)
        assert v.kind == "trivial"
        assert "dies" in v.note

    def test_prufer_style_stays_unproven(self):
        # Z/2 -> Z/4 -> Z/8 -> ... colimit is not finitely generated
        v = direct_limit(builtin_tower("mod2-powers", bound=10, direct=True))
        assert v.kind == "unproven"

    def test_doubling_direct_unproven(self):
        v = direct_limit(builtin_tower("z-times-2", bound=10, direct=True))
        assert v.kind == "unproven"


class TestMilnorAssembly:
    def test_gating_is_cross_degree(self):
        deg0, deg1 = builtin_graded_pair("finite-vs-ztimes2", bound=16)
        out = milnor_assemble(deg0, deg1)
        # degree 0 is blocked by lim^1 of the degree-1 tower, not its own
        assert out.k0.kind == "unrepresentable"
        assert out.k0.lim.kind == "exact-limit"
        assert out.k0.lim.group == FgAbGroup.cyclic(6)
        assert out.k0.lim1.kind == "nonzero-uncomputed"
        # degree 1 assembles: its gate (lim^1 of degree 0) vanishes by rule
        assert out.k1.kind == "unproven"

    def test_constant_pair_assembles(self):
        out = milnor_assemble(*builtin_graded_pair("constant-pair", bound=8))
        assert out.k0.kind == "exact-limit" and out.k0.group == FgAbGroup.cyclic(4)
        assert out.k1.kind == "exact-limit" and out.k1.group == FgAbGroup.cyclic(9)
        assert out.degree(0) is out.k0
        assert out.degree(7) is out.k1

    def test_levelwise_finite_pair_assembles(self):
        out = milnor_assemble(*builtin_graded_pair("mod2-powers-pair", bound=8))
        assert out.k0.kind == "profinite-nontrivial"
        assert out.k1.kind == "trivial"


class TestTruncatedProducts:
    def test_small_truncation(self):
        fam = CyclicFamily(1, lambda n: n)
        assert truncated_product(fam, 2) == FgAbGroup.cyclic(2)
        assert truncated_product(fam, 4) == FgAbGroup.from_orders([2, 3, 4])

    def test_sum_and_product_truncations_agree(self):
        fam = CyclicFamily(1, lambda n: 2 * n + 1)
        ps = CountableDescriptor(fam, "countable-product")
        ss = CountableDescriptor(fam, "countable-sum")
        for upto in range(1, 8):
            assert ps.truncate(upto) == ss.truncate(upto)

    def test_all_ones_order_is_lcm(self):
        fam = CyclicFamily(1, lambda n: n)
        assert all_ones_order(fam, 10) == math.lcm(*range(1, 11))

    @given(st.lists(st.integers(1, 40), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_all_ones_order_matches_element_orders(self, orders):
        # the order of 1 in each component Z/m, joined by lcm
        fam = CyclicFamily(1, lambda n: orders[n - 1])
        components = [element_order(GroupElement(FgAbGroup.cyclic(m), (1,))) for m in orders if m > 1]
        assert all_ones_order(fam, len(orders)) == math.lcm(1, *components)

    def test_witness_growth(self):
        fam = CyclicFamily(2, lambda n: n)
        w = unbounded_torsion_witness(fam, 20)
        assert w[:5] == (2, 6, 12, 60, 420)
        assert all(b > a for a, b in zip(w, w[1:]))

    def test_no_witness_for_bounded_orders(self):
        assert unbounded_torsion_witness(CyclicFamily(1, lambda n: 2), 30) is None
        assert unbounded_torsion_witness(CyclicFamily(1, lambda n: 1), 30) is None

    @staticmethod
    def witness_by_definition(family, bound):
        """Records of all_ones_order over the truncations, each computed
        from scratch."""
        records = []
        for upto in range(family.first, bound + 1):
            o = all_ones_order(family, upto)
            if not records or o > records[-1]:
                records.append(o)
        return tuple(records) if len(records) >= 2 else None

    @given(st.integers(1, 4), st.lists(st.integers(1, 40), max_size=25), st.integers(-2, 3))
    @settings(max_examples=120, deadline=None)
    def test_running_lcm_witness_matches_definition(self, first, orders, extra):
        fam = CyclicFamily(first, lambda n: orders[(n - first) % len(orders)] if orders else 1)
        bound = first + len(orders) + extra
        assert unbounded_torsion_witness(fam, bound) == self.witness_by_definition(fam, bound)

    def test_witness_of_identity_family_matches_definition(self):
        fam = CyclicFamily(1, lambda n: n)
        assert unbounded_torsion_witness(fam, 100) == self.witness_by_definition(fam, 100)

    def test_rejects_bad_orders(self):
        fam = CyclicFamily(1, lambda n: 0)
        with pytest.raises(ValueError):
            truncated_product(fam, 3)
        with pytest.raises(ValueError):
            unbounded_torsion_witness(fam, 3)

    @given(st.integers(1, 9))
    @settings(max_examples=20, deadline=None)
    def test_projection_sequence_exact(self, upto):
        # 0 -> Z/(N+1) -> prod_{n<=N+1} -> prod_{n<=N} -> 0 in canonical coords
        fam = CyclicFamily(1, lambda n: n)
        src, _, src_reps = smith_presentation(IntMatrix.diagonal([n for n in range(1, upto + 2)]))
        tgt, tgt_to_canonical, _ = smith_presentation(IntMatrix.diagonal([n for n in range(1, upto + 1)]))
        proj = IntMatrix.from_rows(
            [[int(i == j) for j in range(upto + 1)] for i in range(upto)],
            cols=upto + 1,
        )
        f = Homomorphism(src, tgt, (tgt_to_canonical @ proj) @ src_reps)
        assert src == truncated_product(fam, upto + 1)
        ker_incl = kernel_inclusion(f)
        assert ker_incl.source == kernel(f) == FgAbGroup.cyclic(upto + 1)
        zero_in = zero_hom(FgAbGroup.trivial(), ker_incl.source)
        zero_out = zero_hom(tgt, FgAbGroup.trivial())
        assert check_exact([zero_in, ker_incl, f, zero_out]).exact


def count_compositions(monkeypatch):
    calls = []
    compose = Homomorphism.compose

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(Homomorphism, "compose", counted)
    return calls


class TestLinearCost:
    """Tower verdicts build each deepest composite once: O(bound) compositions."""

    @pytest.mark.parametrize("bound", [64, 128])
    def test_inverse_limit_compositions_linear(self, monkeypatch, bound):
        calls = count_compositions(monkeypatch)
        v = inverse_limit(builtin_tower("mod2-powers", bound=bound))
        assert v.kind == "profinite-nontrivial"
        assert len(calls) <= 2 * bound

    @pytest.mark.parametrize("bound", [16, 64])
    def test_lim1_failing_at_base_no_dearer(self, monkeypatch, bound):
        # a level-by-level scan stopping at the base level composed `bound` maps
        calls = count_compositions(monkeypatch)
        v = lim1(doubling_tower(bound=bound))
        assert v.witness_level == 0
        assert len(calls) <= bound

    def test_composite_single_pass(self, monkeypatch):
        t = doubling_tower(bound=64)
        calls = count_compositions(monkeypatch)
        assert t.composite(0, 64).matrix.entries == ((2**64,),)
        assert len(calls) == 64

    def test_composite_images_of_reductions(self):
        # reductions are onto, so every composite into level 3 has image Z/8
        t = builtin_tower("mod2-powers", bound=12)
        assert [image(t.composite(3, k)) for k in range(10)] == [FgAbGroup.cyclic(8)] * 10

    @pytest.mark.parametrize(
        "name,params",
        [("z-times-2", None), ("mod2-powers", None), ("trivial", None),
         ("constant", {"group": group_to_json(FgAbGroup(1, (2, 4)))})],
    )
    def test_direct_limit_never_takes_kernels(self, monkeypatch, name, params):
        def forbidden(f):
            raise AssertionError("direct_limit called fgab.kernel")

        original = ktower.fgab.kernel
        for mod in [m for n, m in sys.modules.items() if n.startswith("ktower")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, forbidden)
        direct_limit(builtin_tower(name, bound=32, direct=True, params=params))


small_groups = st.tuples(
    st.integers(0, 1),
    st.lists(st.sampled_from([2, 3, 4, 6]), max_size=2),
).map(lambda t: FgAbGroup.from_orders([0] * t[0] + t[1]))


@given(small_groups, small_groups, st.booleans(), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_isomorphism_by_cokernel_matches_kernel_oracle(a, b, endo, seed):
    # the oracle is the definition the cokernel-only test replaced
    target = a if endo else b
    f = random_valid_hom(random.Random(seed), a, target)
    oracle = kernel(f).is_trivial() and cokernel(f).is_trivial()
    assert _is_isomorphism(f) == oracle


tower_groups = st.lists(st.sampled_from([2, 3, 4, 6, 8]), max_size=2).map(FgAbGroup.from_orders)


@given(st.lists(tower_groups, min_size=2, max_size=6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_bound_composites_carry_images(levels, seed):
    # C_L = map_at(L+1) o C_{L+1} by construction, so map_at(L+1) carries
    # im(C_{L+1}) onto im(C_L) and inverse_limit need not compare them
    rng = random.Random(seed)
    maps = {n: random_valid_hom(rng, levels[n], levels[n - 1]) for n in range(1, len(levels))}
    t = InverseTower(levels.__getitem__, maps.__getitem__, tail=LevelwiseFinite(),
                     bound=len(levels) - 1)
    c = [c_level for _, c_level, _ in _bound_composites(t)]
    for level in range(len(c) - 1):
        assert same_subgroup(t.map_at(level + 1).compose(c[level + 1]), c[level])


class TestTowerJson:
    def test_builtin_roundtrip(self):
        t = tower_from_json({"builtin": "z-times-2"}, bound=8)
        assert isinstance(t, InverseTower)
        assert isinstance(t.tail, General)

    def test_constant_builtin_needs_group(self):
        with pytest.raises(ValueError):
            tower_from_json({"builtin": "constant"})

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            tower_from_json({"builtin": "no-such-tower"})

    def test_prefix_tower_extends_constantly(self):
        g = FgAbGroup.cyclic(6)
        payload = {
            "prefix": [group_to_json(g), group_to_json(g)],
            "maps": [hom_to_json(Homomorphism.identity(g))],
            "tail": "constant",
        }
        t = tower_from_json(payload, bound=40)
        assert isinstance(t.tail, EventuallyConstant)
        assert t.group_at(33) == g
        assert inverse_limit(t) == Verdict("exact-limit", group=g, note="eventually constant from level 1 on")

    def test_map_count_mismatch(self):
        g = FgAbGroup.cyclic(6)
        with pytest.raises(ValueError):
            tower_from_json({"prefix": [group_to_json(g)], "maps": [hom_to_json(Homomorphism.identity(g))]})

    def test_bad_tail_tag(self):
        g = FgAbGroup.cyclic(6)
        with pytest.raises(ValueError):
            tower_from_json({"prefix": [group_to_json(g)], "tail": "mystery"})

    def test_wrong_orientation_rejected_on_use(self):
        g, h = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
        down = Homomorphism(h, g, IntMatrix.from_rows([[1]]))
        payload = {
            "prefix": [group_to_json(g), group_to_json(h)],
            "maps": [hom_to_json(down)],
            "tail": "general",
        }
        t = tower_from_json(payload, bound=6, direct=True)
        with pytest.raises(ValueError):
            t.map_at(0)


@given(st.integers(2, 30))
@settings(max_examples=15, deadline=None)
def test_constant_tower_limits_match_group(order):
    g = FgAbGroup.from_orders([order, order * 2])
    expected = Verdict("exact-limit", group=g, note="eventually constant from level 0 on")
    assert inverse_limit(constant_tower(g)) == expected
    assert direct_limit(constant_tower(g, direct=True)) == expected
