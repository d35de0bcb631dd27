"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line to the terminal (bypassing
capture) and enforces its own wall-clock budget, so a full run reads as
a nine-line scorecard.
"""

import itertools
import json
import math
import random
from time import perf_counter

from helpers import (
    brute_force_hom_data,
    elements_of,
    finite_group_catalog,
    image_inclusion,
    kernel_inclusion,
    minor_gcd_factors,
    random_valid_hom,
    torsion_count,
    zero_hom,
)
from ktower.cli import main as cli_main
from ktower.cyclic import (
    GradedDims,
    chern_rank_check,
    graded_dims,
    hp_su_infinity,
    su_de_rham,
    twisted_hp,
)
from ktower.fgab import (
    FgAbGroup,
    Homomorphism,
    check_exact,
    cokernel,
    group_to_json,
    image,
    kernel,
)
from ktower.intlin import IntMatrix, snf
from ktower.ktwist import (
    SphereDisjointUnion,
    SUFinite,
    SUInfinite,
    cyclic_order,
    divisibility_table,
    first_trivial_rank,
    twisted_k,
)
from ktower.towers import (
    CyclicFamily,
    all_ones_order,
    builtin_graded_pair,
    builtin_tower,
    inverse_limit,
    lim1,
    milnor_assemble,
    truncated_product,
    unbounded_torsion_witness,
)

SEED = 20260819


def _report(capsys, label, budget, fn):
    start = perf_counter()
    try:
        fn()
        elapsed = perf_counter() - start
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {label}")
        raise
    with capsys.disabled():
        print(f"[PASS] {label} ({elapsed:.2f}s < {budget}s)")


def _pascal_entry(n, k):
    # binomials rebuilt additively, independent of math.comb and of ktwist
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row[k]


def _pascal_order(n, level):
    g = 0
    for i in range(1, n):
        g = math.gcd(g, _pascal_entry(level + i, i) - 1)
    return g


def test_acceptance_1_snf_matches_minor_oracle(capsys):
    def body():
        rng = random.Random(SEED)
        for _ in range(500):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            a = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            factors = snf(a).factors
            oracle = minor_gcd_factors(a)
            nonzero = tuple(d for d in factors if d != 0)
            assert nonzero == oracle
            assert all(d == 0 for d in factors[len(nonzero) :])

    _report(capsys, "acceptance 1/9: SNF factors match the minor-gcd oracle on 500 random matrices", 10.0, body)


def test_acceptance_2_order_parameter_laws(capsys):
    def body():
        for level in range(1, 101):
            assert cyclic_order(2, level) == level
        table = {
            level: [cyclic_order(n, level) for n in range(2, 25)]
            for level in range(1, 25)
        }
        for level, orders in table.items():
            for m_i in range(len(orders)):
                for n_i in range(m_i, len(orders)):
                    assert orders[m_i] % orders[n_i] == 0
        spots = {(3, 2): 1, (3, 3): 3, (4, 3): 1, (4, 6): 1}
        for (n, level), expected in spots.items():
            assert cyclic_order(n, level) == expected
            assert _pascal_order(n, level) == expected

    _report(capsys, "acceptance 2/9: order-parameter laws (linearity, divisibility, spot values)", 5.0, body)


def test_acceptance_3_su_twisted_k_shape(capsys):
    def body():
        for n in range(2, 11):
            for level in range(1, 11):
                total = twisted_k(SUFinite(n, level)).total.group
                order = cyclic_order(n, level)
                if order == 1:
                    assert total == FgAbGroup.trivial()
                else:
                    assert total.free_rank == 0
                    assert total.torsion == (order,) * 2 ** (n - 1)

    _report(capsys, "acceptance 3/9: twisted K of SU(n) is 2^(n-1) cyclic factors of the order parameter", 5.0, body)


def test_acceptance_4_su_infinity_triviality(capsys):
    def body():
        for level in range(1, 17):
            n0 = first_trivial_rank(level, 64)
            assert n0 is not None and n0 <= 64
            k = twisted_k(SUInfinite(level), bound=64)
            kh = twisted_k(SUInfinite(level), bound=64, homology=True)
            assert k.total.kind == "trivial"
            assert kh.total.kind == "trivial"
            assert divisibility_table(level, 64).first_one == n0
        # a bound too small to reach the trivial rank must stay honest
        starved = twisted_k(SUInfinite(2), bound=2)
        assert starved.total.kind == "unproven"
        code = cli_main(
            ["ktwist", "--space", "su-inf", "--level", "2", "--bound", "2", "--format", "json"]
        )
        assert code == 3

    _report(capsys, "acceptance 4/9: SU(infinity) certified trivial for levels 1..16, Unproven when starved", 10.0, body)


def test_acceptance_5_milnor_assembly(capsys):
    def body():
        deg0, deg1 = builtin_graded_pair("mod2-powers-pair", bound=12)
        assert lim1(deg0).kind == "zero"
        assert lim1(deg1).kind == "zero"
        graded = milnor_assemble(deg0, deg1)
        assert graded.k0 == inverse_limit(builtin_tower("mod2-powers", bound=12))
        assert graded.k1 == inverse_limit(builtin_tower("trivial", bound=12))
        mixed0, mixed1 = builtin_graded_pair("finite-vs-ztimes2", bound=12)
        mixed = milnor_assemble(mixed0, mixed1)
        assert mixed.k0.kind == "unrepresentable"
        assert mixed.k1 == inverse_limit(builtin_tower("z-times-2", bound=12))
        assert mixed.k1.kind != "unrepresentable"

    _report(capsys, "acceptance 5/9: Milnor assembly collapses for finite towers, gates across degrees", 2.0, body)


def test_acceptance_6_product_sum_duality(capsys):
    def body():
        family = CyclicFamily(1, lambda n: n)
        assert all_ones_order(family, 10) == 2520
        orders = unbounded_torsion_witness(family, 30)
        assert orders is not None and len(orders) >= 2
        assert all(b > a for a, b in zip(orders, orders[1:]))
        union = SphereDisjointUnion()
        k = twisted_k(union)
        kh = twisted_k(union, homology=True)
        assert (k.total.kind, kh.total.kind) == ("countable-product", "countable-sum")
        assert k.total.first == kh.total.first == union.first
        for upto in range(1, 21):
            assert truncated_product(union.family(), upto) == FgAbGroup.from_orders(
                range(1, upto + 1)
            )

    _report(capsys, "acceptance 6/9: countable product/sum truncations agree, all-ones order 2520, growing witness", 2.0, body)


def test_acceptance_7_hp_dimensions(capsys):
    def body():
        for n in range(2, 17):
            dims = graded_dims(su_de_rham(n))
            assert dims == GradedDims(2 ** (n - 2), 2 ** (n - 2))
        for n in range(2, 13):
            degrees = su_de_rham(n).generator_degrees
            even = odd = 0
            for size in range(len(degrees) + 1):
                for subset in itertools.combinations(degrees, size):
                    if sum(subset) % 2 == 0:
                        even += 1
                    else:
                        odd += 1
            assert graded_dims(su_de_rham(n)) == GradedDims(even, odd)
        for n in range(3, 17):
            # SU(n-1) < SU(n) restricts onto the level below
            src = graded_dims(su_de_rham(n))
            assert graded_dims(su_de_rham(n - 1)) == GradedDims(src.even // 2, src.odd // 2)
        assert hp_su_infinity(16).lim1.kind == "zero"

    _report(capsys, "acceptance 7/9: HP dimensions match enumeration, restrictions halve, lim1 zero", 5.0, body)


def test_acceptance_8_chern_rank_consistency(capsys, tmp_path):
    def body():
        for n in range(2, 11):
            for level in range(1, 11):
                s = SUFinite(n, level)
                hp = twisted_hp(s)
                assert chern_rank_check(twisted_k(s), hp.dims.total).passed
        assert not chern_rank_check(FgAbGroup.free(1), 0).passed
        payload = tmp_path / "mismatch.json"
        payload.write_text(
            json.dumps({"k_total": group_to_json(FgAbGroup.free(1)), "hp_dim": 0})
        )
        code = cli_main(["hp", "--check", "--input", str(payload)])
        assert code == 2

    _report(capsys, "acceptance 8/9: Chern rank consistency across the SU grid, mismatch exits 2", 2.0, body)


def test_acceptance_9_exactness_suite(capsys):
    def body():
        z = FgAbGroup.free(1)
        trivial = FgAbGroup.trivial()
        for m in range(2, 21):
            maps = [
                zero_hom(trivial, z),
                Homomorphism(z, z, IntMatrix.from_rows([[m]])),
                Homomorphism(z, FgAbGroup.cyclic(m), IntMatrix.from_rows([[1]])),
                zero_hom(FgAbGroup.cyclic(m), trivial),
            ]
            assert check_exact(maps).exact
        perturbed = [
            zero_hom(trivial, z),
            Homomorphism(z, z, IntMatrix.from_rows([[2]])),
            Homomorphism(z, FgAbGroup.cyclic(4), IntMatrix.from_rows([[1]])),
            zero_hom(FgAbGroup.cyclic(4), trivial),
        ]
        report = check_exact(perturbed)
        assert not report.exact
        assert report.first_failure == 2
        rng = random.Random(SEED)
        catalog = [g for g in finite_group_catalog(48) if g.order() <= 48]
        for _ in range(200):
            f = random_valid_hom(rng, rng.choice(catalog), rng.choice(catalog))
            ker_set, img_set, coker_counts = brute_force_hom_data(f)
            ker_incl, img_incl = kernel_inclusion(f), image_inclusion(f)
            ker_group, img_group = ker_incl.source, img_incl.source
            assert (ker_group, img_group) == (kernel(f), image(f))
            cok = cokernel(f)
            assert ker_group.order() == len(ker_set)
            assert img_group.order() == len(img_set)
            assert cok.order() == f.target.order() // len(img_set)
            assert {ker_incl.apply(x).coords for x in elements_of(ker_group)} == ker_set
            assert {img_incl.apply(x).coords for x in elements_of(img_group)} == img_set
            for m, count in coker_counts.items():
                assert torsion_count(cok, m) == count

    _report(capsys, "acceptance 9/9: exact sequences verified, kernels/images/cokernels match enumeration", 10.0, body)
