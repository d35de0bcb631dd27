"""Golden outputs of the algebra subcommands (``snf``, ``hom``, ``exact``):
exit code, stdout and stderr, byte for byte, in both output formats.

The expected bytes live in ``golden_algebra.json``.  They pin the Smith
transforms, the kernel/image/cokernel forms, the exactness reports and
every one-line error message for malformed payloads.  Matrices whose
transforms pass Python's 4300-digit int-to-str limit are left out: their
JSON form is a known failure, not an answer to freeze.  Regenerate only
for an intended output change:

    PYTHONPATH=src python3 tests/test_golden_algebra.py
"""

import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

from ktower.cli import main

GOLDEN = Path(__file__).with_name("golden_algebra.json")

FORMATS = ("table", "json")


def mjson(rows, ncols=None):
    ncols = len(rows[0]) if ncols is None else ncols
    return {"rows": len(rows), "cols": ncols, "entries": [[str(x) for x in r] for r in rows]}


def gjson(free, torsion):
    return {"free_rank": free, "torsion": [str(d) for d in torsion]}


def hjson(src, tgt, rows):
    return {"source": src, "target": tgt, "matrix": mjson(rows, src["free_rank"] + len(src["torsion"]))}


def dense(seed, rows, cols, size):
    rng = random.Random(seed)
    return [[rng.randint(-size, size) for _ in range(cols)] for _ in range(rows)]


def valid_matrix(seed, src, tgt):
    """A map between finite canonical groups: the entry from a generator
    of order d to one of order m is a multiple of m / gcd(d, m)."""
    rng = random.Random(seed)
    return [[(m // math.gcd(d, m)) * rng.randrange(math.gcd(d, m)) for d in src] for m in tgt]


SNF_MATRICES = {
    "empty": {"rows": 0, "cols": 0, "entries": []},
    "zero-rows": {"rows": 0, "cols": 3, "entries": []},
    "zero-cols": {"rows": 2, "cols": 0, "entries": [[], []]},
    "one": mjson([[1]]),
    "minus-seven": mjson([[-7]]),
    "identity": mjson([[1, 0], [0, 1]]),
    "diag-2-3": mjson([[2, 0], [0, 3]]),
    "2-4-6-8": mjson([[2, 4], [6, 8]]),
    "zero-3x3": mjson([[0] * 3] * 3),
    "wide": mjson([[2, 4, 4], [-6, 6, 12]]),
    "tall": mjson([[3, 0], [0, 6], [9, 12]]),
    "rank-one": mjson([[2, 4, 6], [4, 8, 12], [6, 12, 18]]),
    "huge-entries": mjson([[10**30 + 7, 10**25], [3 * 10**20, -(10**40)]]),
    "numbers-and-strings": {"rows": 2, "cols": 2, "entries": [[4, "6"], ["-8", 10]]},
    **{f"dense-{r}x{c}-seed{s}": mjson(dense(s, r, c, 20), c)
       for s, (r, c) in enumerate(((3, 3), (4, 6), (6, 4), (8, 8), (5, 7)))},
    "dense-12x12": mjson(dense("snf-12", 12, 12, 9)),
    "dense-16x16": mjson(dense("snf-16", 16, 16, 9)),
}

MALFORMED_MATRICES = {
    "not-an-object": [[1, 2]],
    "missing-rows": {"cols": 1, "entries": [["1"]]},
    "missing-entries": {"rows": 1, "cols": 1},
    "entries-not-list": {"rows": 1, "cols": 1, "entries": "1"},
    "too-few-rows": {"rows": 2, "cols": 1, "entries": [["1"]]},
    "ragged": {"rows": 2, "cols": 2, "entries": [["1", "2"], ["3"]]},
    "row-not-list": {"rows": 1, "cols": 1, "entries": ["1"]},
    "bad-literal": {"rows": 1, "cols": 1, "entries": [["x"]]},
    "boolean-entry": {"rows": 1, "cols": 1, "entries": [[True]]},
    "float-entry": {"rows": 1, "cols": 1, "entries": [[1.5]]},
    "negative-rows": {"rows": -1, "cols": 0, "entries": []},
}

Z = gjson(1, [])
TRIVIAL = gjson(0, [])
CHAIN_PAIRS = (([2, 4], [4, 8]), ([6, 12], [3, 6, 12]), ([2, 2, 4], [2, 4]), ([30], [6, 30]))

HOMS = {
    "doubling": hjson(Z, Z, [[2]]),
    "z-onto-z3": hjson(Z, gjson(0, [3]), [[1]]),
    "z4-times-2": hjson(gjson(0, [4]), gjson(0, [4]), [[2]]),
    "zero-z2-to-z": hjson(gjson(0, [2]), Z, [[0]]),
    "trivial-to-z2": hjson(TRIVIAL, gjson(0, [2]), [[]]),
    "z2-to-trivial": hjson(gjson(0, [2]), TRIVIAL, []),
    "mixed": hjson(gjson(1, [2]), gjson(1, [4]), [[3, 0], [5, 2]]),
    "z-into-z-squared": hjson(Z, gjson(2, []), [[2], [3]]),
    **{f"chain-{i}": hjson(gjson(0, s), gjson(0, t), valid_matrix(i, s, t))
       for i, (s, t) in enumerate(CHAIN_PAIRS)},
}

MALFORMED_HOMS = {
    "not-a-homomorphism": hjson(gjson(0, [2]), Z, [[1]]),
    "not-an-object": [1],
    "missing-target": {"source": Z, "matrix": mjson([[1]])},
    "wrong-shape": hjson(Z, gjson(2, []), [[1]]),
    "not-canonical": hjson(Z, gjson(0, [4, 2]), [[1], [1]]),
    "bad-free-rank": {"source": {"free_rank": "1", "torsion": []}, "target": Z,
                      "matrix": mjson([[1]])},
}


def seq(pairs):
    return {"maps": [hjson(s, t, m) for s, t, m in pairs]}


def short_exact(a, b):
    """0 -> sum Z/a_i -> sum Z/(a_i b_i) -> sum Z/b_i -> 0."""
    k = len(a)
    A, B, C = gjson(0, a), gjson(0, [x * y for x, y in zip(a, b)]), gjson(0, b)
    return seq([
        (TRIVIAL, A, [[] for _ in a]),
        (A, B, [[b[i] if i == j else 0 for j in range(k)] for i in range(k)]),
        (B, C, [[int(i == j) for j in range(k)] for i in range(k)]),
        (C, TRIVIAL, []),
    ])


SEQUENCES = {
    "z-times-3-onto-z3": seq([(TRIVIAL, Z, [[]]), (Z, Z, [[3]]), (Z, gjson(0, [3]), [[1]]),
                              (gjson(0, [3]), TRIVIAL, [])]),
    "z-times-2-onto-z4": seq([(TRIVIAL, Z, [[]]), (Z, Z, [[2]]), (Z, gjson(0, [4]), [[1]]),
                              (gjson(0, [4]), TRIVIAL, [])]),
    "single-map": seq([(Z, Z, [[2]])]),
    "split-z2-z3": short_exact([2], [3]),
    "chain-2-4": short_exact([2, 4], [3, 6]),
    "not-injective": seq([(TRIVIAL, gjson(0, [4]), [[]]), (gjson(0, [4]), gjson(0, [4]), [[2]]),
                          (gjson(0, [4]), gjson(0, [2]), [[1]])]),
    "zero-then-iso": seq([(Z, Z, [[0]]), (Z, Z, [[1]]), (Z, Z, [[0]])]),
}

MALFORMED_SEQUENCES = {
    "maps-not-list": {"maps": "x"},
    "no-maps-key": {"sequence": []},
    "empty": {"maps": []},
    "not-composable": seq([(Z, Z, [[1]]), (gjson(0, [2]), Z, [[0]])]),
    "invalid-map": seq([(Z, Z, [[1]]), (Z, gjson(0, [2]), [[1]]), (gjson(0, [2]), Z, [[1]])]),
}


def cases():
    """(case id, argv, stdin payload), in a fixed order."""
    out = []
    groups = (
        ("snf", SNF_MATRICES), ("snf", MALFORMED_MATRICES),
        ("hom", HOMS), ("hom", MALFORMED_HOMS),
        ("exact", SEQUENCES), ("exact", MALFORMED_SEQUENCES),
    )
    for fmt in FORMATS:
        for command, payloads in groups:
            for name, payload in payloads.items():
                out.append((f"{command} {fmt} {name}", [command, "--format", fmt], json.dumps(payload)))
        for command in ("snf", "hom", "exact"):
            out.append((f"{command} {fmt} no-payload", [command, "--format", fmt], ""))
            out.append((f"{command} {fmt} bad-json", [command, "--format", fmt], "{not json"))
    return out


def run_case(argv, payload):
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(payload), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
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


def test_every_exit_code_is_covered(golden):
    assert {code for code, _, _ in golden.values()} == {0, 1, 2}


@pytest.mark.parametrize("case_id,argv,payload", CASES, ids=[c[0] for c in CASES])
def test_algebra_output_is_frozen(golden, case_id, argv, payload):
    assert run_case(argv, payload) == golden[case_id]


if __name__ == "__main__":
    data = {case_id: run_case(argv, payload) for case_id, argv, payload in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
