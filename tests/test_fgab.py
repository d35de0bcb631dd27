import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_hom_data,
    cokernel_projection,
    element_order,
    elements_of,
    finite_group_catalog,
    image_inclusion,
    kernel_inclusion,
    random_valid_hom,
    smith_presentation,
    torsion_count,
    zero_hom,
)
from ktower.fgab import (
    MAX_POWER_GENERATORS,
    ExactnessReport,
    FgAbGroup,
    GroupElement,
    Homomorphism,
    check_exact,
    cokernel,
    direct_sum,
    from_presentation,
    group_from_json,
    group_to_json,
    hom_from_json,
    hom_to_json,
    image,
    kernel,
    kernel_lattice,
    power,
    same_subgroup,
)
from ktower import intlin
from ktower.intlin import IntMatrix, lattice_coordinates


def _chain(pairs):
    # build a divisibility chain from a first factor and multipliers
    out = []
    for first, mult in pairs:
        nxt = first if not out else out[-1] * mult
        if nxt >= 2:
            out.append(nxt)
    return tuple(out)


groups = st.tuples(
    st.integers(0, 2),
    st.lists(st.tuples(st.integers(2, 5), st.integers(1, 3)), max_size=3),
).map(lambda t: FgAbGroup(t[0], _chain(t[1])))
finite_groups = st.lists(
    st.tuples(st.integers(2, 5), st.integers(1, 3)), max_size=3
).map(lambda pairs: FgAbGroup(0, _chain(pairs)))


def _unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += q * m[j][k]
    return IntMatrix.from_rows(m, cols=n)


class TestCanonicalForm:
    def test_validation(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbGroup(-1, ())

    def test_cyclic_normalizes(self):
        assert FgAbGroup.cyclic(1) == FgAbGroup.trivial()
        assert FgAbGroup.cyclic(0) == FgAbGroup.free(1)
        assert FgAbGroup.cyclic(6).torsion == (6,)

    def test_from_orders(self):
        assert FgAbGroup.from_orders([2, 3]) == FgAbGroup(0, (6,))
        assert FgAbGroup.from_orders([1, 1]) == FgAbGroup.trivial()
        assert FgAbGroup.from_orders([0, 4, 6]) == FgAbGroup(1, (2, 12))

    def test_order(self):
        assert FgAbGroup(0, (2, 4)).order() == 8
        assert FgAbGroup(1, (2,)).order() == 0
        assert FgAbGroup.trivial().order() == 1


class TestPresentation:
    def test_known(self):
        assert from_presentation(IntMatrix.diagonal([2, 1, 0])) == FgAbGroup(1, (2,))
        assert from_presentation(IntMatrix.from_rows([[2, 4], [6, 8]])) == FgAbGroup(0, (2, 4))
        assert from_presentation(IntMatrix.zero(2, 0)) == FgAbGroup.free(2)
        assert from_presentation(IntMatrix.zero(0, 0)) == FgAbGroup.trivial()

    def test_transport_round_trip(self):
        g, to_canonical, generator_reps = smith_presentation(IntMatrix.diagonal([2, 1, 0]))
        prod = to_canonical @ generator_reps
        assert prod == IntMatrix.identity(g.generator_count)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda r: st.integers(0, 6).flatmap(
                lambda c: st.lists(
                    st.lists(st.integers(-12, 12), min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                ).map(lambda rows: IntMatrix.from_rows(rows, cols=c))
            )
        )
    )
    def test_factors_only_matches_present(self, rel):
        assert from_presentation(rel) == smith_presentation(rel)[0]

    def test_unimodular_invariance(self):
        rng = random.Random(7)
        rel = IntMatrix.from_rows([[2, 0], [0, 6], [4, 2]])
        base = from_presentation(rel)
        for _ in range(25):
            p = _unimodular(rng, rel.rows)
            q = _unimodular(rng, rel.cols)
            assert from_presentation(p @ rel @ q) == base


class TestSums:
    def test_direct_sum_known(self):
        assert direct_sum(FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)) == FgAbGroup(0, (6,))
        assert direct_sum(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)) == FgAbGroup(0, (2, 4))

    @settings(max_examples=60)
    @given(groups, groups)
    def test_direct_sum_commutes(self, g, h):
        assert direct_sum(g, h) == direct_sum(h, g)

    @settings(max_examples=40)
    @given(groups, st.integers(0, 4))
    def test_power_is_iterated_sum(self, g, k):
        acc = FgAbGroup.trivial()
        for _ in range(k):
            acc = direct_sum(acc, g)
        assert power(g, k) == acc

    def test_power_limit_is_checked_before_building(self):
        assert power(FgAbGroup.cyclic(3), MAX_POWER_GENERATORS).generator_count == MAX_POWER_GENERATORS
        with pytest.raises(ValueError, match="refused"):
            power(FgAbGroup.cyclic(3), MAX_POWER_GENERATORS + 1)
        # far too large to allocate: only an up-front check returns at all
        with pytest.raises(ValueError, match="refused"):
            power(FgAbGroup(0, (2, 4)), 2**60)
        # only the torsion tuple is built: a free rank is one integer, whatever k is
        assert power(FgAbGroup.free(1), 2**60) == FgAbGroup.free(2**60)
        assert power(FgAbGroup(1, (2,)), MAX_POWER_GENERATORS).free_rank == MAX_POWER_GENERATORS
        assert power(FgAbGroup.trivial(), 2**39) == FgAbGroup.trivial()

    def test_free_rank_is_the_rational_rank(self):
        assert FgAbGroup(3, (2, 2)).free_rank == 3


# cyclic orders as they arrive from users: 0 (free), 1 (trivial), repeats
# of small orders, and values far beyond anything a matrix route would enjoy
cyclic_orders = st.lists(
    st.one_of(
        st.sampled_from([0, 1, 2, 3, 4, 6, 12]),
        st.integers(0, 100),
        st.integers(2, 10**30),
    ),
    max_size=12,
)


def snf_reference(orders):
    """Canonical form of the sum of the Z/d through a Smith normal form."""
    return smith_presentation(IntMatrix.diagonal(list(orders)))[0]


def is_canonical(g):
    return FgAbGroup(g.free_rank, g.torsion) == g


class TestGcdLcmChains:
    """from_orders and direct_sum build invariant factors with gcd/lcm;
    the Smith normal form of the diagonal relation matrix is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(cyclic_orders)
    def test_from_orders_matches_snf(self, orders):
        g = FgAbGroup.from_orders(orders)
        assert is_canonical(g)
        assert g == snf_reference(orders)

    def test_from_orders_known(self):
        assert FgAbGroup.from_orders([]) == FgAbGroup.trivial()
        assert FgAbGroup.from_orders([1, 1, 0]) == FgAbGroup.free(1)
        assert FgAbGroup.from_orders([2, 2, 2]) == FgAbGroup(0, (2, 2, 2))
        assert FgAbGroup.from_orders([12, 18, 8]) == FgAbGroup(0, (2, 12, 72))
        assert FgAbGroup.from_orders(range(1, 11)) == snf_reference(range(1, 11))
        with pytest.raises(ValueError):
            FgAbGroup.from_orders([4, -2])

    @settings(max_examples=150, deadline=None)
    @given(cyclic_orders, cyclic_orders)
    def test_direct_sum_matches_snf(self, a, b):
        g, h = FgAbGroup.from_orders(a), FgAbGroup.from_orders(b)
        s = direct_sum(g, h)
        assert is_canonical(s)
        assert s == snf_reference(g.generator_orders() + h.generator_orders())
        assert s == FgAbGroup.from_orders(a + b)

    @settings(max_examples=80, deadline=None)
    @given(groups, st.integers(0, 5))
    def test_power_matches_validated_form(self, g, k):
        p = power(g, k)
        # validated construction raises unless each factor's repeats sit together
        expected = FgAbGroup(g.free_rank * k, tuple(d for d in g.torsion for _ in range(k)))
        assert p == expected
        assert p == snf_reference(g.generator_orders() * k)

    def test_power_keeps_repeats_together(self):
        assert power(FgAbGroup(1, (2, 4)), 2) == FgAbGroup(2, (2, 2, 4, 4))

    @pytest.mark.parametrize(
        "orders",
        [
            [2] * 120,
            [2, 4] * 60,
            [4, 2] * 60,
            [6, 4, 9] * 40,
            [3] * 50 + [9] * 50 + [27] * 20,
            [12] * 40 + [2] * 40 + [0, 1] * 10 + [12] * 40,
            [8, 4, 2, 1] * 30,
        ],
        ids=lambda orders: f"{len(orders)}-orders-from-{orders[0]}",
    )
    def test_long_runs_of_repeated_orders(self, orders):
        # orders that the chain already divides skip whole runs of factors
        g = FgAbGroup.from_orders(orders)
        assert is_canonical(g)
        assert g == snf_reference(orders)


class TestElements:
    def test_order_cases(self):
        z = FgAbGroup.free(1)
        assert element_order(GroupElement(z, (1,))) == 0
        assert element_order(GroupElement(z, (0,))) == 1
        g = FgAbGroup(0, (2, 12))
        assert element_order(GroupElement(g, (1, 4))) == 6
        assert element_order(GroupElement(g, (1, 1))) == 12

    def test_coordinate_reduction(self):
        g = FgAbGroup(1, (3,))
        e = GroupElement(g, (-2, 5))
        assert e.coords == (-2, 2)


class TestHomomorphisms:
    def test_validity_rejected(self):
        z2, z, z4 = FgAbGroup.cyclic(2), FgAbGroup.free(1), FgAbGroup.cyclic(4)
        with pytest.raises(ValueError):
            Homomorphism(z2, z, IntMatrix.from_rows([[1]]))
        with pytest.raises(ValueError):
            Homomorphism(z2, z4, IntMatrix.from_rows([[1]]))
        # 1 -> 2 in Z/4 is the valid embedding of Z/2
        Homomorphism(z2, z4, IntMatrix.from_rows([[2]]))

    def test_matrix_normalized(self):
        z4 = FgAbGroup.cyclic(4)
        f = Homomorphism(z4, z4, IntMatrix.from_rows([[5]]))
        assert f.matrix.entries == ((1,),)

    def test_apply_and_compose(self):
        z = FgAbGroup.free(1)
        z4 = FgAbGroup.cyclic(4)
        proj = Homomorphism(z, z4, IntMatrix.from_rows([[1]]))
        times2 = Homomorphism(z, z, IntMatrix.from_rows([[2]]))
        comp = proj.compose(times2)
        x = GroupElement(z, (3,))
        assert comp.apply(x).coords == (2,)

    @settings(max_examples=60, deadline=None)
    @given(groups, groups, st.integers(0, 10**6))
    def test_random_valid_homs_construct(self, g, h, seed):
        rng = random.Random(seed)
        f = random_valid_hom(rng, g, h)
        assert f.source == g and f.target == h

    @settings(max_examples=60, deadline=None)
    @given(groups, groups, groups, st.integers(0, 10**6))
    def test_trusted_composite_matches_validated(self, a, b, c, seed):
        # compose and identity skip validation; rebuilding their results
        # through the validating constructor must give equal maps
        rng = random.Random(seed)
        g, f = random_valid_hom(rng, a, b), random_valid_hom(rng, b, c)
        assert f.compose(g) == Homomorphism(a, c, f.matrix @ g.matrix)
        assert Homomorphism.identity(a) == Homomorphism(a, a, IntMatrix.identity(a.generator_count))

    @settings(max_examples=60, deadline=None)
    @given(groups, groups, st.integers(0, 10**6))
    def test_invalid_matrix_still_raises(self, g, h, seed):
        # one more than a valid entry breaks validity exactly where a torsion
        # generator of order d meets a target generator of order m with
        # m = 0 or m / gcd(d, m) > 1
        f = random_valid_hom(random.Random(seed), g, h)
        spots = [
            (i, j)
            for j, d in enumerate(g.generator_orders()) if d
            for i, m in enumerate(h.generator_orders()) if m == 0 or m // math.gcd(d, m) > 1
        ]
        assume(spots)
        i, j = spots[0]
        rows = [list(r) for r in f.matrix.entries]
        rows[i][j] += 1
        with pytest.raises(ValueError):
            Homomorphism(g, h, IntMatrix.from_rows(rows, cols=g.generator_count))


    @settings(max_examples=150, deadline=None)
    @given(groups, groups, st.integers(0, 10**6))
    def test_validity_matches_lattice_rule(self, g, h, seed):
        # The rule that divisibility replaced: d times the image column of
        # each generator of order d lies in the target relation lattice.
        rng = random.Random(seed)
        rows = [list(r) for r in random_valid_hom(rng, g, h).matrix.entries]
        for _ in range(rng.randint(0, 2)):
            if rows and rows[0]:
                rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += rng.randint(-3, 3)
        orders = g.generator_orders()
        torsion_cols = [j for j, d in enumerate(orders) if d]
        scaled = IntMatrix.from_rows(
            [[orders[j] * r[j] for j in torsion_cols] for r in rows], cols=len(torsion_cols)
        )
        valid = lattice_coordinates(h.relation_matrix(), scaled) is not None
        m = IntMatrix.from_rows(rows, cols=g.generator_count)
        if valid:
            Homomorphism(g, h, m)
        else:
            with pytest.raises(ValueError, match="does not define a homomorphism"):
                Homomorphism(g, h, m)


class TestKernelImageCokernel:
    def test_smith_forms_per_question(self, monkeypatch):
        # validation decides by divisibility; image and kernel each take
        # their coordinates from one lattice_coordinates call and read the
        # subgroup off transform-free factors; kernel also asks for an
        # integer kernel
        calls = []
        core = intlin._snf_core

        def counting(a):
            calls.append((a.rows, a.cols))
            return core(a)

        monkeypatch.setattr(intlin, "_snf_core", counting)
        src, tgt = FgAbGroup(1, (2, 4)), FgAbGroup(0, (4, 8))
        f = Homomorphism(src, tgt, IntMatrix.from_rows([[0, 2, 1], [0, 4, 2]]))
        assert calls == []
        im = image(f)
        assert len(calls) == 1
        calls.clear()
        ker = kernel(f)
        assert len(calls) == 2
        assert (im, ker) == (FgAbGroup(0, (4,)), FgAbGroup(1, (2,)))

    def test_times_two_on_z(self):
        z = FgAbGroup.free(1)
        f = Homomorphism(z, z, IntMatrix.from_rows([[2]]))
        assert kernel(f) == FgAbGroup.trivial()
        im_incl = image_inclusion(f)
        assert im_incl.source == image(f) == FgAbGroup.free(1)
        # the image is 2Z, not Z: inclusion carries the generator to 2
        assert im_incl.matrix.entries in (((2,),), ((-2,),))
        assert cokernel(f) == FgAbGroup.cyclic(2)

    def test_times_two_on_z4(self):
        z4 = FgAbGroup.cyclic(4)
        f = Homomorphism(z4, z4, IntMatrix.from_rows([[2]]))
        assert kernel(f) == FgAbGroup.cyclic(2)
        assert image(f) == FgAbGroup.cyclic(2)
        assert cokernel(f) == FgAbGroup.cyclic(2)

    def test_image_vs_kernel_as_subgroups(self):
        # in Z/4, the image of x2 and the kernel of x2 are the same subgroup
        z4 = FgAbGroup.cyclic(4)
        f = Homomorphism(z4, z4, IntMatrix.from_rows([[2]]))
        im_incl = image_inclusion(f)
        k_incl = kernel_inclusion(f)
        assert (im_incl.source, k_incl.source) == (image(f), kernel(f))
        assert same_subgroup(im_incl, k_incl)

    def test_distinct_subgroups_same_class(self):
        # Z/2 x Z/2 has three subgroups isomorphic to Z/2; they must not
        # be identified with one another
        g = FgAbGroup(0, (2, 2))
        a = Homomorphism(FgAbGroup.cyclic(2), g, IntMatrix.from_rows([[1], [0]]))
        b = Homomorphism(FgAbGroup.cyclic(2), g, IntMatrix.from_rows([[0], [1]]))
        assert not same_subgroup(a, b)

    @settings(max_examples=50, deadline=None)
    @given(groups, groups, st.integers(0, 10**6))
    def test_rank_nullity(self, g, h, seed):
        rng = random.Random(seed)
        f = random_valid_hom(rng, g, h)
        assert kernel(f).free_rank + image(f).free_rank == g.free_rank

    @settings(max_examples=150, deadline=None)
    @given(groups, groups, st.integers(0, 10**6))
    def test_image_is_source_mod_kernel(self, g, h, seed):
        # G / ker f = im f: the image read through the kernel lattice in the
        # source, not through the image lattice in the target
        f = random_valid_hom(random.Random(seed), g, h)
        assert image(f) == from_presentation(kernel_lattice(f))

    @settings(max_examples=100, deadline=None)
    @given(finite_groups, finite_groups, st.integers(0, 10**6))
    def test_orders_multiply_on_finite_groups(self, g, h, seed):
        f = random_valid_hom(random.Random(seed), g, h)
        assert kernel(f).order() * image(f).order() == g.order()
        assert image(f).order() * cokernel(f).order() == h.order()

    @settings(max_examples=80, deadline=None)
    @given(groups, groups, st.integers(0, 10**6))
    def test_cokernel_matches_projection(self, g, h, seed):
        f = random_valid_hom(random.Random(seed), g, h)
        assert cokernel(f) == cokernel_projection(f).target

    def test_enumeration_oracle_spot(self):
        rng = random.Random(11)
        catalog = [g for g in finite_group_catalog(16) if not g.is_trivial()]
        for _ in range(40):
            src = rng.choice(catalog)
            tgt = rng.choice(catalog)
            f = random_valid_hom(rng, src, tgt)
            ker_set, im_set, coker_counts = brute_force_hom_data(f)
            k_incl, im_incl = kernel_inclusion(f), image_inclusion(f)
            k, im = k_incl.source, im_incl.source
            assert (k, im) == (kernel(f), image(f))
            ck = cokernel(f)
            assert k.order() == len(ker_set)
            assert im.order() == len(im_set)
            assert ck.order() == tgt.order() // len(im_set)
            # inclusions land exactly on the enumerated subsets
            assert {k_incl.apply(x).coords for x in elements_of(k)} == ker_set
            assert {im_incl.apply(x).coords for x in elements_of(im)} == im_set
            # cokernel structure matches enumerated m-torsion counts
            for m in range(1, tgt.order() + 1):
                assert torsion_count(ck, m) == coker_counts[m]


class TestExactness:
    @staticmethod
    def _short_sequence(m: int):
        z = FgAbGroup.free(1)
        zm = FgAbGroup.cyclic(m)
        triv = FgAbGroup.trivial()
        return [
            zero_hom(triv, z),
            Homomorphism(z, z, IntMatrix.from_rows([[m]])),
            Homomorphism(z, zm, IntMatrix.from_rows([[1]])),
            zero_hom(zm, triv),
        ]

    def test_multiplication_sequences(self):
        for m in range(2, 10):
            report = check_exact(self._short_sequence(m))
            assert report.exact
            assert report.first_failure is None

    def test_perturbed_sequence_fails_between(self):
        # x2 into Z followed by projection to Z/4: the image 2Z is strictly
        # larger than the kernel 4Z, so node 2 (the middle Z) fails
        z = FgAbGroup.free(1)
        z4 = FgAbGroup.cyclic(4)
        triv = FgAbGroup.trivial()
        maps = [
            zero_hom(triv, z),
            Homomorphism(z, z, IntMatrix.from_rows([[2]])),
            Homomorphism(z, z4, IntMatrix.from_rows([[1]])),
            zero_hom(z4, triv),
        ]
        report = check_exact(maps)
        assert not report.exact
        assert report.first_failure == 2
        assert [r.exact for r in report.reports] == [True, False, True]

    def test_non_composable_rejected(self):
        z = FgAbGroup.free(1)
        z2 = FgAbGroup.cyclic(2)
        f = zero_hom(z, z)
        g = zero_hom(z2, z2)
        with pytest.raises(ValueError):
            check_exact([f, g])

    @settings(max_examples=40, deadline=None)
    @given(groups, groups, st.integers(0, 10**6))
    def test_cokernel_sequence_always_exact(self, g, h, seed):
        rng = random.Random(seed)
        f = random_valid_hom(rng, g, h)
        incl = image_inclusion(f)
        im = incl.source
        assert im == image(f)
        proj = cokernel_projection(f)
        ck = proj.target
        triv = FgAbGroup.trivial()
        maps = [
            zero_hom(triv, im),
            incl,
            proj,
            zero_hom(ck, triv),
        ]
        assert check_exact(maps).exact


class TestJson:
    def test_group_round_trip(self):
        g = FgAbGroup(2, (2, 6))
        assert group_from_json(group_to_json(g)) == g
        assert group_to_json(g)["torsion"] == ["2", "6"]

    def test_hom_round_trip(self):
        z = FgAbGroup.free(1)
        f = Homomorphism(z, FgAbGroup.cyclic(4), IntMatrix.from_rows([[3]]))
        assert hom_from_json(hom_to_json(f)) == f

    def test_invalid_hom_json_rejected(self):
        bad = {
            "source": group_to_json(FgAbGroup.cyclic(2)),
            "target": group_to_json(FgAbGroup.free(1)),
            "matrix": {"rows": 1, "cols": 1, "entries": [["1"]]},
        }
        with pytest.raises(ValueError):
            hom_from_json(bad)
