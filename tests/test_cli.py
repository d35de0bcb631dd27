import io
import json
import math
import random
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from helpers import determinant, zero_hom
from ktower import cli, intlin
from ktower.cli import canonical_json, main
from ktower.fgab import (
    FgAbGroup,
    Homomorphism,
    group_text,
    group_to_json,
    hom_to_json,
)
from ktower.intlin import IntMatrix, matrix_to_json
from ktower.ktwist import MAX_SU_RANK, KTotal
from ktower.towers import (
    CountableDescriptor,
    CyclicFamily,
    Verdict,
    _COUNTABLE,
    _TEXT,
    inverse_limit,
    lim1,
    tower_from_json,
    verdict_json,
    verdict_text,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_payload(tmp_path, obj, name="payload.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def doubling():
    z = FgAbGroup.free(1)
    return Homomorphism(z, z, IntMatrix.from_rows([[2]]))


def quotient_map(m):
    z = FgAbGroup.free(1)
    return Homomorphism(z, FgAbGroup.cyclic(m), IntMatrix.from_rows([[1]]))


class TestGroupText:
    def test_compact_rendering(self):
        assert group_text(FgAbGroup.trivial()) == "0"
        assert group_text(FgAbGroup.free(1)) == "Z"
        assert group_text(FgAbGroup(2, (2, 2, 4))) == "Z^2 + (Z/2)^2 + Z/4"


class TestSnf:
    def test_factors(self, capsys, tmp_path):
        payload = write_payload(
            tmp_path, matrix_to_json(IntMatrix.from_rows([[2, 0], [0, 3]]))
        )
        code, out, _ = run(capsys, "snf", "--input", payload, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["factors"] == ["1", "6"]

    def test_table_format(self, capsys, tmp_path):
        payload = write_payload(
            tmp_path, matrix_to_json(IntMatrix.from_rows([[4]]))
        )
        code, out, _ = run(capsys, "snf", "--input", payload)
        assert code == 0
        assert "factors" in out and "4" in out

    def test_table_format_with_huge_transforms(self, capsys, monkeypatch):
        # the transforms of this matrix have entries past Python's 4300-digit
        # int-to-str limit; the table shows only factors and rank
        rng = random.Random(30)
        rows = [[rng.randint(-9, 9) for _ in range(30)] for _ in range(30)]
        payload = json.dumps(matrix_to_json(IntMatrix.from_rows(rows)))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, err = run(capsys, "snf", "--format", "table")
        assert code == 0 and err == ""
        lines = dict(line.split(None, 1) for line in out.splitlines()[1:])
        factors = [int(x) for x in lines["factors"].split(", ")]
        assert len(factors) == 30 and lines["rank"].strip() == "30"
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        assert math.prod(factors) == abs(determinant(IntMatrix.from_rows(rows)))


class TestGroup:
    def test_from_orders(self, capsys, tmp_path):
        payload = write_payload(tmp_path, {"orders": [2, 3, 4]})
        code, out, _ = run(capsys, "group", "--input", payload, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["group"] == {"free_rank": 0, "torsion": ["2", "12"]}
        assert data["order"] == "24"

    def test_from_relations(self, capsys, tmp_path):
        payload = write_payload(
            tmp_path, {"relations": matrix_to_json(IntMatrix.from_rows([[2], [0]]))}
        )
        code, out, _ = run(capsys, "group", "--input", payload, "--format", "json")
        data = json.loads(out)
        assert data["group"] == {"free_rank": 1, "torsion": ["2"]}
        assert data["order"] == "0"

    def test_infinite_order_in_table(self, capsys, tmp_path):
        payload = write_payload(tmp_path, group_to_json(FgAbGroup.free(2)))
        code, out, _ = run(capsys, "group", "--input", payload)
        assert "infinite" in out

    @pytest.mark.parametrize(
        "payload",
        [
            {"free_rank": [1], "torsion": []},
            {"free_rank": True, "torsion": []},
            {"free_rank": 1.5, "torsion": []},
            {"free_rank": "1", "torsion": []},
            {"free_rank": 0, "torsion": [[2]]},
            {"free_rank": 0, "torsion": [True]},
            {"free_rank": 0, "torsion": [2.0]},
            {"free_rank": 0, "torsion": ["two"]},
        ],
    )
    def test_malformed_group_json_exits_one(self, capsys, monkeypatch, payload):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out, err = run(capsys, "group", "--format", "json")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_group_json_accepts_numbers_and_strings(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"free_rank":1,"torsion":[2,"6"]}'))
        code, out, _ = run(capsys, "group", "--format", "json")
        assert code == 0
        assert json.loads(out)["group"] == {"free_rank": 1, "torsion": ["2", "6"]}

    def test_bad_orders_rejected(self, capsys, tmp_path):
        payload = write_payload(tmp_path, {"orders": [True]})
        code, _, err = run(capsys, "group", "--input", payload)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "order,expected",
        [
            ('"' + "7" * 5001 + '"', "error: order has more than 4300 digits\n"),
            ("7" * 5001, "error: a JSON number has more than 4300 digits\n"),
        ],
        ids=["decimal-string", "json-number"],
    )
    def test_order_past_the_digit_limit_exits_one(self, capsys, monkeypatch, order, expected):
        # Python's int() refuses more than 4300 digits; the user gets a
        # ktower line that names the limit, not Python's text
        monkeypatch.setattr("sys.stdin", io.StringIO('{"orders": [' + order + "]}"))
        code, out, err = run(capsys, "group")
        assert (code, out, err) == (1, "", expected)


class TestHom:
    def test_kernel_image_cokernel(self, capsys, tmp_path):
        payload = write_payload(tmp_path, hom_to_json(doubling()))
        code, out, _ = run(capsys, "hom", "--input", payload, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True
        assert data["kernel"] == {"free_rank": 0, "torsion": []}
        assert data["image"] == {"free_rank": 1, "torsion": []}
        assert data["cokernel"] == {"free_rank": 0, "torsion": ["2"]}

    def test_invalid_hom_exits_one(self, capsys, tmp_path):
        payload = write_payload(
            tmp_path,
            {
                "source": group_to_json(FgAbGroup.cyclic(2)),
                "target": group_to_json(FgAbGroup.free(1)),
                "matrix": matrix_to_json(IntMatrix.from_rows([[1]])),
            },
        )
        code, _, err = run(capsys, "hom", "--input", payload)
        assert code == 1
        assert "error" in err


class TestExact:
    def sequence(self, final_entry, m):
        z = FgAbGroup.free(1)
        zm = FgAbGroup.cyclic(m)
        trivial = FgAbGroup.trivial()
        maps = [
            zero_hom(trivial, z),
            Homomorphism(z, z, IntMatrix.from_rows([[m]])),
            Homomorphism(z, zm, IntMatrix.from_rows([[final_entry]])),
            zero_hom(zm, trivial),
        ]
        return {"maps": [hom_to_json(f) for f in maps]}

    def test_exact_passes(self, capsys, tmp_path):
        payload = write_payload(tmp_path, self.sequence(1, 3))
        code, out, _ = run(capsys, "exact", "--input", payload)
        assert code == 0
        assert "exact at all nodes" in out

    def test_failure_exits_two_at_correct_node(self, capsys, tmp_path):
        z = FgAbGroup.free(1)
        maps = [
            zero_hom(FgAbGroup.trivial(), z),
            Homomorphism(z, z, IntMatrix.from_rows([[2]])),
            Homomorphism(z, FgAbGroup.cyclic(4), IntMatrix.from_rows([[1]])),
            zero_hom(FgAbGroup.cyclic(4), FgAbGroup.trivial()),
        ]
        payload = write_payload(tmp_path, {"maps": [hom_to_json(f) for f in maps]})
        code, out, _ = run(capsys, "exact", "--input", payload, "--format", "json")
        assert code == 2
        data = json.loads(out)
        assert data["exact"] is False
        assert data["first_failure"] == 2


class TestTower:
    def test_lim1_doubling(self, capsys):
        code, out, _ = run(
            capsys, "tower", "lim1", "--builtin", "z-times-2", "--bound", "10",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["kind"] == "nonzero-uncomputed"
        assert data["verdict"]["witness_level"] == 0

    def test_lim_profinite(self, capsys):
        code, out, _ = run(
            capsys, "tower", "lim", "--builtin", "mod2-powers", "--bound", "8",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["kind"] == "profinite-nontrivial"
        assert data["verdict"]["evidence"][:3] == ["2", "4", "8"]

    def test_lim_unproven_exits_three(self, capsys, tmp_path):
        payload = write_payload(
            tmp_path, {"prefix": [group_to_json(FgAbGroup.cyclic(4))], "tail": "general"}
        )
        code, out, _ = run(capsys, "tower", "lim", "--input", payload, "--format", "json")
        assert code == 3
        assert json.loads(out)["verdict"]["kind"] == "unproven"

    def test_lim_past_a_trivial_start_is_unproven(self, capsys, tmp_path):
        # levels 0, 0, 0, Z/2: the levels are not trivial from 0 through bound 5
        levels = [FgAbGroup.trivial()] * 3 + [FgAbGroup.cyclic(2)]
        payload = {
            "prefix": [group_to_json(g) for g in levels],
            "maps": [hom_to_json(zero_hom(b, a)) for a, b in zip(levels, levels[1:])],
            "tail": "finite",
        }
        code, out, _ = run(
            capsys, "tower", "lim", "--bound", "5", "--format", "json",
            "--input", write_payload(tmp_path, payload),
        )
        assert (code, json.loads(out)["verdict"]["kind"]) == (3, "unproven")

    def test_colim_generators_alive_at_bound_is_unproven(self, capsys, tmp_path):
        # four Z/4 levels with x2 maps: a generator of the level at the
        # bound has not died by the bound
        z4 = FgAbGroup.cyclic(4)
        twice = Homomorphism(z4, z4, IntMatrix.from_rows([[2]]))
        payload = {
            "prefix": [group_to_json(z4)] * 4,
            "maps": [hom_to_json(twice)] * 3,
            "tail": "finite",
        }
        code, out, _ = run(
            capsys, "tower", "colim", "--bound", "2", "--format", "json",
            "--input", write_payload(tmp_path, payload),
        )
        assert (code, json.loads(out)["verdict"]["kind"]) == (3, "unproven")

    def test_colim_constant(self, capsys, tmp_path):
        payload = write_payload(
            tmp_path,
            {"builtin": "constant", "params": {"group": group_to_json(FgAbGroup.cyclic(5))}},
        )
        code, out, _ = run(capsys, "tower", "colim", "--input", payload, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"]["kind"] == "exact-limit"
        assert data["verdict"]["group"] == {"free_rank": 0, "torsion": ["5"]}

    def test_milnor_gating(self, capsys):
        code, out, _ = run(
            capsys, "tower", "milnor", "--builtin", "finite-vs-ztimes2",
            "--bound", "12", "--format", "json",
        )
        assert code == 3
        data = json.loads(out)
        assert data["degree0"]["kind"] == "unrepresentable"
        assert data["degree0"]["lim"]["group"] == {"free_rank": 0, "torsion": ["6"]}
        assert data["degree1"]["kind"] == "unproven"

    def test_milnor_payload(self, capsys, tmp_path):
        constant = {
            "builtin": "constant",
            "params": {"group": group_to_json(FgAbGroup.cyclic(3))},
        }
        payload = write_payload(tmp_path, {"degree0": constant, "degree1": constant})
        code, out, _ = run(capsys, "tower", "milnor", "--input", payload, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["degree0"]["kind"] == "exact-limit"

    @pytest.mark.parametrize(
        "verb,payload",
        [
            ("lim", {"prefix": 5}),
            ("lim", {"prefix": [group_to_json(FgAbGroup.cyclic(2))], "maps": 7}),
            ("colim", {"builtin": "constant", "params": 5}),
            ("lim", {"prefix": [group_to_json(FgAbGroup.cyclic(2))], "tail": ["x"]}),
            ("lim", {"prefix": [group_to_json(FgAbGroup.cyclic(2))], "tail": {}}),
            ("milnor", {"degree0": {"prefix": 3}, "degree1": {"builtin": "trivial"}}),
        ],
    )
    def test_malformed_payload_is_one_error_line(self, capsys, tmp_path, verb, payload):
        code, _, err = run(capsys, "tower", verb, "--input", write_payload(tmp_path, payload))
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Error" not in err and "Traceback" not in err


class TestKtwist:
    def test_su_finite_json(self, capsys):
        code, out, _ = run(
            capsys, "ktwist", "--space", "su", "--n", "2", "--level", "2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["k_total"]["group"] == {"free_rank": 0, "torsion": ["2", "2"]}
        assert data["graded"] is None
        assert data["provenance"]

    def test_sphere(self, capsys):
        code, out, _ = run(
            capsys, "ktwist", "--space", "s3", "--twist", "5", "--format", "json"
        )
        data = json.loads(out)
        assert data["graded"]["degree0"]["group"] == {"free_rank": 0, "torsion": []}
        assert data["graded"]["degree1"]["group"] == {"free_rank": 0, "torsion": ["5"]}

    def test_sphere_union_duality(self, capsys):
        code, out, _ = run(capsys, "ktwist", "--space", "s3-union", "--format", "json")
        assert json.loads(out)["k_total"]["kind"] == "countable-product"
        code, out, _ = run(
            capsys, "ktwist", "--space", "s3-union", "--homology", "--format", "json"
        )
        data = json.loads(out)
        assert data["k_total"]["kind"] == "countable-sum"
        assert data["theory"] == "k-homology"

    def test_su_infinite_trivial(self, capsys):
        code, out, _ = run(
            capsys, "ktwist", "--space", "su-inf", "--level", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["k_total"]["kind"] == "trivial"

    def test_su_infinite_unproven_exits_three(self, capsys):
        code, out, _ = run(
            capsys, "ktwist", "--space", "su-inf", "--level", "2", "--bound", "2",
            "--format", "json",
        )
        assert code == 3
        assert json.loads(out)["k_total"]["kind"] == "unproven"

    def test_grid_is_the_one_table_path(self, capsys):
        code, out, _ = run(capsys, "grid", "4", "3")
        assert code == 0
        assert "first-1" in out
        with pytest.raises(SystemExit) as exc:
            main(["ktwist", "--table", "4", "3"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --table" in capsys.readouterr().err

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "ktwist", "--space", "su", "--n", "3")
        assert code == 1
        assert "--level" in err


class TestHp:
    def test_su_dims(self, capsys):
        code, out, _ = run(capsys, "hp", "--space", "su", "--n", "5", "--format", "json")
        data = json.loads(out)
        assert data["dims"] == {"even": 8, "odd": 8}
        assert data["generator_degrees"] == [3, 5, 7, 9]

    def test_su_infinity_report(self, capsys):
        code, out, _ = run(
            capsys, "hp", "--space", "su-inf", "--truncate", "4", "--format", "json"
        )
        data = json.loads(out)
        assert data["levels"] == [
            {"n": 2, "even": 1, "odd": 1},
            {"n": 3, "even": 2, "odd": 2},
            {"n": 4, "even": 4, "odd": 4},
        ]
        assert data["lim1"]["kind"] == "zero"

    def test_su_infinity_at_the_rank_limit(self, capsys):
        # each level's dimensions are one power of two, so the whole tower
        # at the rank limit answers in about a second
        code, out, _ = run(
            capsys, "hp", "--space", "su-inf", "--truncate", str(MAX_SU_RANK),
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["levels"]) == MAX_SU_RANK - 1
        top = str(2 ** (MAX_SU_RANK - 2))
        assert data["levels"][-1] == {"n": MAX_SU_RANK, "even": int(top), "odd": int(top)}

    def test_twisted_vanishing(self, capsys):
        code, out, _ = run(
            capsys, "hp", "--twisted", "--space", "su", "--n", "3", "--level", "4",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["dims"] == {"even": 0, "odd": 0}

    def test_check_pass(self, capsys, tmp_path):
        payload = write_payload(
            tmp_path, {"k_total": group_to_json(FgAbGroup(0, (2, 2))), "hp_dim": 0}
        )
        code, out, _ = run(capsys, "hp", "--check", "--input", payload, "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_check_fail_exits_two(self, capsys, tmp_path):
        payload = write_payload(
            tmp_path, {"k_total": group_to_json(FgAbGroup.free(1)), "hp_dim": 0}
        )
        code, out, _ = run(capsys, "hp", "--check", "--input", payload)
        assert code == 2
        assert "FAIL" in out

    def test_missing_mode(self, capsys):
        code, _, err = run(capsys, "hp")
        assert code == 1


class TestProduct:
    def test_all_ones_order(self, capsys):
        code, out, _ = run(
            capsys, "product", "--truncate", "10", "--witness-bound", "12",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["all_ones_order"] == "2520"
        assert data["product"] == data["sum"]
        assert data["witness"]["orders"][-1] == "27720"

    @pytest.mark.parametrize("option", ["--truncate", "--witness-bound"])
    def test_over_the_limit_exits_one(self, capsys, option):
        # without the limit, --witness-bound 10000 ran the whole lcm and then
        # failed on Python's 4300-digit int-to-str limit
        code, out, err = run(capsys, "product", option, str(cli.MAX_PRODUCT_INDEX + 1))
        assert code == 1
        assert out == ""
        assert err == f"error: {option} must be at most {cli.MAX_PRODUCT_INDEX}\n"

    def test_limit_itself_is_answered(self, capsys):
        n = cli.MAX_PRODUCT_INDEX
        code, out, _ = run(
            capsys, "product", "--truncate", str(n), "--witness-bound", str(n),
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        lcm = str(math.lcm(*range(1, n + 1)))
        assert data["all_ones_order"] == lcm
        assert data["witness"]["orders"][-1] == lcm


class TestGrid:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "grid", "4", "3", "--format", "json")
        data = json.loads(out)
        assert data["rows"][2]["orders"] == ["3", "3", "1"]
        assert data["rows"][2]["first_one"] == 4
        assert data["rows"][0]["first_one"] == 2
        assert all(r["divisibility"] == "ok" for r in data["rows"])

    def test_unproven_cell_rendering(self, capsys):
        code, out, _ = run(capsys, "grid", "2", "2")
        assert "unproven@2" in out

    def test_bad_dimensions(self, capsys):
        code, _, err = run(capsys, "grid", "1", "3")
        assert code == 1


class TestPlumbing:
    def test_json_output_is_canonical_and_roundtrips(self, capsys):
        _, first, _ = run(
            capsys, "ktwist", "--space", "su", "--n", "4", "--level", "6",
            "--format", "json",
        )
        _, second, _ = run(
            capsys, "ktwist", "--space", "su", "--n", "4", "--level", "6",
            "--format", "json",
        )
        assert first == second
        assert canonical_json(json.loads(first)) == first

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "grid", "4", "2", "--format", "json", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert data["n_max"] == 4

    def test_small_bound_rejected(self, capsys):
        code, _, err = run(capsys, "tower", "lim", "--builtin", "z-times-2", "--bound", "1")
        assert code == 1
        assert "bound" in err

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "4", "3", "--no-such-flag"])
        assert exc.value.code == 1

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "snf", "--input", "/nonexistent/matrix.json")
        assert code == 1
        assert "error" in err

    def test_stdin_payload(self, capsys, monkeypatch):
        payload = json.dumps(matrix_to_json(IntMatrix.from_rows([[6, 4]])))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, _ = run(capsys, "snf", "--format", "json")
        assert code == 0
        assert json.loads(out)["factors"] == ["2"]

    def test_malformed_json_payload(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "snf", "--input", str(path))
        assert code == 1

    def test_verdict_json_covers_descriptors(self):
        assert verdict_json(Verdict("trivial", note="x"))["kind"] == "trivial"
        assert verdict_json(Verdict("unproven", bound=5, note=""))["bound"] == 5
        # one sample per kind; a kind without a text template fails here
        lim1_unproven = Verdict("unproven", bound=3)
        samples = [
            Verdict("exact-limit", group=FgAbGroup.cyclic(6), note="n"),
            Verdict("trivial", note=""),
            Verdict("profinite-nontrivial", evidence=(2, 4, 8, 16, 32, 64, 128), note="n"),
            Verdict("unproven", bound=7, note=""),
            lim1_unproven,
            Verdict("zero", rule="rule"),
            Verdict("nonzero-uncomputed", witness_level=4, note="n"),
            Verdict("unrepresentable", reason="r", lim=Verdict("trivial", note=""), lim1=lim1_unproven),
            Verdict("ml-forced", rule="rule"),
            Verdict("ml-verified", bound=3),
            Verdict("ml-failed", witness_level=0, note="n"),
        ]
        assert {v.kind for v in samples} == set(_TEXT)
        family = CyclicFamily(1, lambda n: n)
        countable = [CountableDescriptor(family, kind) for kind in _COUNTABLE]
        everything = [FgAbGroup(1, (2,)), *samples, *countable]
        assert {type(v) for v in everything} == set(typing.get_args(KTotal))
        for v in everything:
            rendered = verdict_json(v)
            assert isinstance(rendered["kind"], str) and rendered["kind"]
            assert json.loads(canonical_json(rendered)) == rendered
            text = verdict_text(v)
            assert text and "\n" not in text, v

    def test_unproven_keys_differ_between_lim_and_lim1(self):
        # "unproven" is the one tag two kinds of answer share: a lim^1
        # verdict carries no note, a limit verdict always does
        payload = {"prefix": [group_to_json(FgAbGroup.cyclic(4))], "tail": "general"}
        tower = tower_from_json(payload, bound=6)
        assert verdict_json(lim1(tower)) == {"kind": "unproven", "bound": 6}
        limit = verdict_json(inverse_limit(tower))
        assert limit["kind"] == "unproven" and set(limit) == {"kind", "bound", "note"}


class TestGeneratorLimit:
    """SU(40) at a level whose order is above 1 has 2^39 cyclic factors,
    beyond fgab.MAX_POWER_GENERATORS: refused up front, never built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ktwist", "--space", "su", "--n", "40", "--level", "997"],
            ["ktwist", "--space", "su", "--n", "40", "--level", "997", "--homology",
             "--format", "json"],
            ["hp", "--twisted", "--space", "su", "--n", "40", "--level", "997"],
            ["hp", "--twisted", "--space", "su", "--n", "40", "--level", "997",
             "--format", "json"],
        ],
    )
    def test_too_many_generators_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: a power with more than 1048576 torsion factors is refused\n"

    def test_order_one_totals_still_succeed(self, capsys):
        code, out, _ = run(capsys, "ktwist", "--space", "su", "--n", "40", "--level", "1",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["k_total"]["group"] == {"free_rank": 0, "torsion": []}
        assert "2^(n-1) = 549755813888 factors" in data["provenance"][1]
        code, out, _ = run(capsys, "hp", "--twisted", "--space", "su", "--n", "40",
                           "--level", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["dims"] == {"even": 0, "odd": 0}


class TestSuRankLimit:
    """n above ktwist.MAX_SU_RANK is refused before any arithmetic; at
    n = 20000 the answer would print 2^19999 in its notes, a number past
    Python's 4300-digit int-to-str limit."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ktwist", "--space", "su", "--n", "20000", "--level", "1"],
            ["ktwist", "--space", "su", "--n", "20000", "--level", "1", "--homology"],
            ["hp", "--twisted", "--space", "su", "--n", "20000", "--level", "1"],
            ["hp", "--space", "su", "--n", "20000", "--format", "json"],
            ["ktwist", "--space", "su", "--n", "4097", "--level", "1"],
            # 2^14999 generators: refused by the rank limit before power is reached
            ["ktwist", "--space", "su", "--n", "15000", "--level", "15013"],
            # refused before any of the 4,095 lower levels is built
            ["hp", "--space", "su-inf", "--truncate", "4097"],
        ],
    )
    def test_over_the_limit_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: n must be at most {MAX_SU_RANK}\n"

    def test_limit_itself_is_answered(self, capsys):
        n = str(MAX_SU_RANK)
        code, out, _ = run(capsys, "ktwist", "--space", "su", "--n", n, "--level", "1",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["k_total"]["group"] == {"free_rank": 0, "torsion": []}
        assert f"2^(n-1) = {2 ** (MAX_SU_RANK - 1)} factors" in data["provenance"][1]
        code, out, _ = run(capsys, "hp", "--twisted", "--space", "su", "--n", n,
                           "--level", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["dims"] == {"even": 0, "odd": 0}
        code, out, _ = run(capsys, "hp", "--space", "su", "--n", n, "--format", "json")
        assert code == 0
        half = str(2 ** (MAX_SU_RANK - 2))
        assert json.loads(out)["dims"] == {"even": int(half), "odd": int(half)}


class TestStrictMatrixSizes:
    """rows and cols are structural counts: JSON integers only."""

    @pytest.mark.parametrize("command", ["snf", "group"])
    @pytest.mark.parametrize("field", ["rows", "cols"])
    @pytest.mark.parametrize("value", [1.9, True, "1"])
    def test_non_integer_size_exits_one(self, command, field, value):
        matrix = {"rows": 1, "cols": 1, "entries": [["6"]], field: value}
        payload = json.dumps(matrix if command == "snf" else {"relations": matrix})
        code, out, err = call([command, "--format", "json"], payload)
        assert code == 1
        assert out == ""
        assert err == f"error: matrix {field} must be a JSON integer\n"

    def test_hom_matrix_size_exits_one(self):
        z = group_to_json(FgAbGroup.free(1))
        payload = {"source": z, "target": z, "matrix": {"rows": 1, "cols": 1.0, "entries": [[2]]}}
        code, out, err = call(["hom"], json.dumps(payload))
        assert (code, out) == (1, "")
        assert err == "error: matrix cols must be a JSON integer\n"


def call(argv, payload=None):
    """(exit code, stdout, stderr) of one main call; argparse errors exit."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(payload or ""), io.StringIO(), io.StringIO()
    try:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


SU = ["ktwist", "--space", "su", "--n", "4", "--level", "6", "--format", "json"]
SHARED_SEQUENCE = [
    (SU + ["--homology"], None),
    (SU, None),
    (["grid", "4", "3", "--no-such-flag"], None),
    (SU, None),
    (["tower", "lim", "--builtin", "z-times-2", "--bound", "1"], None),
    (["group", "--format", "json"], json.dumps({"orders": [4, 6, 0]})),
    (["ktwist", "--space", "su-inf", "--level", "2", "--bound", "2"], None),
    (["ktwist", "--space", "su-inf", "--level", "2"], None),
    (["product", "--truncate", "12", "--witness-bound", "5"], None),
    (["product"], None),
    (["hp", "--space", "su", "--n", "5", "--format", "json"], None),
    (["grid", "4", "3"], None),
    (["ktwist", "--space", "s3", "--twist", "5", "--homology"], None),
    (["ktwist", "--space", "s3", "--twist", "5"], None),
    (["ktwist", "--level", "3"], None),
]


class TestSharedParser:
    def test_parser_is_built_lazily(self):
        code = "import ktower.cli as c; assert c._PARSER is None; c._parser(); assert c._PARSER"
        env = {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_one_parser_serves_every_call(self, monkeypatch):
        fresh = []
        for argv, payload in SHARED_SEQUENCE:
            monkeypatch.setattr(cli, "_PARSER", None)
            fresh.append(call(argv, payload))

        built = []
        build = cli._build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "_build_parser", counting_build)
        shared = [call(argv, payload) for argv, payload in SHARED_SEQUENCE]
        assert len(built) == 1
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes[2] == 1 and "--no-such-flag" in shared[2][2]
        assert codes[4] == 1 and "--bound" in shared[4][2]
        assert codes[6] == 3 and codes[7] == 0

    def test_no_flag_leaks_between_calls(self, monkeypatch):
        monkeypatch.setattr(cli, "_PARSER", None)
        _, with_flag, _ = call(SU + ["--homology"])
        _, without, _ = call(SU)
        assert json.loads(with_flag)["theory"] == "k-homology"
        assert json.loads(without)["theory"] == "k-theory"
        first = cli._parser().parse_args(SU + ["--homology"])
        second = cli._parser().parse_args(SU)
        assert first is not second
        assert first.homology and not second.homology


class TestFileErrors:
    """An unreadable --input or unwritable --output is one stderr line and
    exit 1, never a traceback."""

    PAYLOAD = json.dumps({"orders": [2, 3]})

    def test_missing_input_file_keeps_its_message(self):
        code, out, err = call(["group", "--input", "/nonexistent/payload.json"])
        assert (code, out, err) == (1, "", "error: cannot read /nonexistent/payload.json\n")

    def test_input_is_a_directory(self, tmp_path):
        code, out, err = call(["group", "--input", str(tmp_path)])
        assert (code, out, err) == (1, "", f"error: cannot read {tmp_path}\n")

    def test_output_directory_missing(self, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = call(["group", "--output", str(target)], self.PAYLOAD)
        assert (code, out, err) == (1, "", f"error: cannot write {target}\n")
        assert not target.parent.exists()

    def test_output_is_a_directory(self, tmp_path):
        code, out, err = call(["group", "--output", str(tmp_path)], self.PAYLOAD)
        assert (code, out, err) == (1, "", f"error: cannot write {tmp_path}\n")

    def test_writable_output_still_works(self, tmp_path):
        target = tmp_path / "x.txt"
        code, out, err = call(["group", "--output", str(target)], self.PAYLOAD)
        assert (code, out, err) == (0, "", "")
        assert "Z/6" in target.read_text()


class TestFactorsOnlyPaths:
    """Requests that print only invariant factors run no transform-tracking
    Smith form for them; the JSON snf, which prints u and v, runs one."""

    @pytest.fixture
    def snf_calls(self, monkeypatch):
        calls = []
        core = intlin._snf_core

        def counting(a):
            calls.append((a.rows, a.cols))
            return core(a)

        monkeypatch.setattr(intlin, "_snf_core", counting)
        return calls

    MATRIX = json.dumps(matrix_to_json(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])))

    def test_snf_table(self, snf_calls):
        code, out, _ = call(["snf"], self.MATRIX)
        assert code == 0 and "2, 6, 12" in out
        assert snf_calls == []

    def test_snf_json_runs_one(self, snf_calls):
        code, out, _ = call(["snf", "--format", "json"], self.MATRIX)
        assert code == 0 and json.loads(out)["factors"] == ["2", "6", "12"]
        assert snf_calls == [(3, 3)]

    def test_group_relations(self, snf_calls):
        code, out, _ = call(["group", "--format", "json"], json.dumps({"relations": json.loads(self.MATRIX)}))
        assert code == 0 and json.loads(out)["group"] == {"free_rank": 0, "torsion": ["2", "6", "12"]}
        assert snf_calls == []

    def test_hom_cokernel_step(self, snf_calls, monkeypatch):
        during = []
        inner = cli.cokernel

        def watched(f):
            before = len(snf_calls)
            result = inner(f)
            during.append(len(snf_calls) - before)
            return result

        monkeypatch.setattr(cli, "cokernel", watched)
        z4 = FgAbGroup.cyclic(4)
        payload = json.dumps(hom_to_json(Homomorphism(z4, z4, IntMatrix.from_rows([[2]]))))
        code, out, _ = call(["hom", "--format", "json"], payload)
        assert code == 0 and json.loads(out)["cokernel"] == {"free_rank": 0, "torsion": ["2"]}
        assert during == [0]
        assert snf_calls  # kernel and image still ask lattice_coordinates

    def test_colim_isomorphism_test(self, snf_calls):
        code, out, _ = call(["tower", "colim", "--builtin", "z-times-2", "--format", "json"])
        assert code == 3 and json.loads(out)["verdict"]["kind"] == "unproven"
        assert snf_calls == []
