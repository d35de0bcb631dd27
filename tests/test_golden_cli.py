"""Golden outputs of the non-tower subcommands (``ktwist``, ``grid``,
``hp``, ``product``, ``group``): exit code, stdout and stderr, byte for
byte, in both output formats.

The expected bytes live in ``golden_cli.json``.  They were produced by
the implementation that computed every canonical form through a Smith
normal form and every order parameter from fresh binomials, so the test
pins the answers, notes and error messages across the rewrite to gcd/lcm
chains and running binomials.  Regenerate only for an intended output
change:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import io
import json
import sys
from itertools import product
from pathlib import Path

import pytest

from ktower.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

FORMATS = ("table", "json")
THEORIES = ((), ("--homology",))
# level 1 has order 1 at every n; the others keep orders above 1 for
# longer and longer (720720 still has order 26 at n = 12)
SU_LEVELS = (1, 2, 7, 360, 720720)
# at bound 64 levels 64, 127 and 251 never reach order 1; at 256 only
# 256 and 257 do not; at bound 2 every level above 1 stays open
SU_INF_LEVELS = (1, 2, 3, 6, 64, 127, 251, 256, 257, 720720)
SU_INF_BOUNDS = (2, 64, 256)
PRODUCT_TRUNCATIONS = (1, 2, 3, 5, 10, 17, 32, 50, 64, 99, 100)
WITNESS_BOUNDS = (1, 2, 30, 100)
ORDER_LISTS = (
    [],
    [0],
    [1],
    [1, 1, 1],
    [0, 0, 1],
    [2, 2, 2],
    [4, 6],
    [12, 18, 8],
    [0, 4, 0, 6, 1, 1],
    ["6", "10", "15"],
    ["1000000", 999999, 1000000],
    [2, 3, 5, 7, 11, 13, 17, 19],
    [8, 4, 2, 16, 4, 8],
    [1000000, 999983, 2, 500000, 0],
    list(range(1, 31)),
    list(range(30, 0, -1)),
    [-3],
    ["x"],
)
GROUP_PAYLOADS = (
    {"relations": {"rows": 2, "cols": 2, "entries": [["2", "0"], ["0", "3"]]}},
    {"free_rank": 1, "torsion": ["2", "4"]},
)
CHECK_PAYLOADS = (
    {"k_total": {"free_rank": 2, "torsion": ["3"]}, "hp_dim": 2},
    {"k_total": {"free_rank": 2, "torsion": ["3"]}, "hp_dim": "3"},
    {"k_total": {"free_rank": 0, "torsion": ["5", "5"]}, "hp_dim": 0},
    {"k_total": {"free_rank": 0, "torsion": []}, "hp_dim": -1},
    {"k_total": {"free_rank": 0, "torsion": []}},
)


def cases():
    """(case id, argv, stdin payload or None), in a fixed order."""
    out = []

    def add(argv, payload=None):
        out.append((" ".join(argv), list(argv), payload))

    for fmt, theory, level, n in product(FORMATS, THEORIES, SU_LEVELS, range(2, 13)):
        add(["ktwist", "--space", "su", "--n", str(n), "--level", str(level), *theory,
             "--format", fmt])
    for fmt, theory, bound, level in product(FORMATS, THEORIES, SU_INF_BOUNDS, SU_INF_LEVELS):
        add(["ktwist", "--space", "su-inf", "--level", str(level), "--bound", str(bound),
             *theory, "--format", fmt])
    for fmt, theory in product(FORMATS, THEORIES):
        for twist in (1, 2, 12, 1000000):
            add(["ktwist", "--space", "s3", "--twist", str(twist), *theory, "--format", fmt])
        add(["ktwist", "--space", "s3-union", *theory, "--format", fmt])
    for fmt in FORMATS:
        for n_max, level_max in ((2, 2), (5, 4), (20, 60)):
            add(["grid", str(n_max), str(level_max), "--format", fmt])
        add(["ktwist", "--table", "5", "4", "--format", fmt])
        for n in range(2, 11):
            add(["hp", "--space", "su", "--n", str(n), "--format", fmt])
        for truncate in (2, 3, 6, 12):
            add(["hp", "--space", "su-inf", "--truncate", str(truncate), "--format", fmt])
        for n, level in product((2, 5, 8), (1, 3, 360)):
            add(["hp", "--twisted", "--space", "su", "--n", str(n), "--level", str(level),
                 "--format", fmt])
        for level in (1, 5, 257):
            add(["hp", "--twisted", "--space", "su-inf", "--level", str(level), "--format", fmt])
        for payload in CHECK_PAYLOADS:
            out.append((f"hp --check {fmt} {json.dumps(payload, sort_keys=True)}",
                        ["hp", "--check", "--format", fmt], json.dumps(payload)))
        for truncate, witness in product(PRODUCT_TRUNCATIONS, WITNESS_BOUNDS):
            add(["product", "--truncate", str(truncate), "--witness-bound", str(witness),
                 "--format", fmt])
        for orders in ORDER_LISTS:
            out.append((f"group {fmt} orders {json.dumps(orders)}", ["group", "--format", fmt],
                        json.dumps({"orders": orders})))
        for payload in GROUP_PAYLOADS:
            out.append((f"group {fmt} {json.dumps(payload, sort_keys=True)}",
                        ["group", "--format", fmt], json.dumps(payload)))
    # invalid input is reported on one stderr line with exit 1
    add(["ktwist", "--space", "su", "--n", "1", "--level", "3"])
    add(["ktwist", "--space", "su", "--n", "3"])
    add(["ktwist", "--space", "su-inf", "--level", "3", "--bound", "1"])
    add(["ktwist"])
    add(["grid", "1", "5"])
    add(["hp", "--space", "su"])
    add(["hp"])
    add(["product", "--truncate", "0"])
    return out


def run_case(argv, payload):
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(payload or ""), io.StringIO(), io.StringIO()
    try:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses an unknown option this way
            code = exc.code
        return [code, sys.stdout.getvalue(), sys.stderr.getvalue()]
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


CASES = cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_case_ids_are_unique():
    assert len({case_id for case_id, _, _ in CASES}) == len(CASES)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize("case_id,argv,payload", CASES, ids=[c[0] for c in CASES])
def test_cli_output_is_frozen(golden, case_id, argv, payload):
    assert run_case(argv, payload) == golden[case_id]


if __name__ == "__main__":
    data = {case_id: run_case(argv, payload) for case_id, argv, payload in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
