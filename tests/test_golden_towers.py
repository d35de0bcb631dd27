"""Golden outputs of ``ktower tower``: exit code, canonical JSON stdout and
stderr, byte for byte, for every builtin tower and graded pair and for a
set of explicit towers covering each tail tag and two base indices.

The expected bytes live in ``golden_towers.json``.  They were produced by
the level-by-level implementation that the linear sweeps replaced, so the
test pins the verdicts, notes and error messages across that rewrite.
Regenerate only for an intended output change:

    PYTHONPATH=src python3 tests/test_golden_towers.py
"""

import io
import json
import sys
from itertools import product
from pathlib import Path

import pytest

from ktower.cli import main
from ktower.fgab import FgAbGroup, Homomorphism, group_to_json, hom_to_json
from ktower.intlin import IntMatrix

GOLDEN = Path(__file__).with_name("golden_towers.json")

BUILTIN_NAMES = (
    "z-times-2", "mod2-powers", "constant", "trivial",
    "finite-vs-ztimes2", "constant-pair", "mod2-powers-pair",
)
VERBS = ("lim", "lim1", "colim", "milnor")
BUILTIN_BOUNDS = (2, 8, 33, 64)
EXPLICIT_BOUNDS = (2, 3, 8)
TAGS = ("constant", "finite", "general")
BASES = (0, 2)

Z = FgAbGroup.free(1)
ZERO = FgAbGroup.trivial()


def cyc(m):
    return FgAbGroup.cyclic(m)


def hom(source, target, rows):
    return Homomorphism(source, target, IntMatrix(target.generator_count, source.generator_count,
                                                  tuple(tuple(r) for r in rows)))


def chain(groups, matrices, inverse):
    """Prefix groups and the maps between neighbours: maps[i] runs from
    groups[i+1] to groups[i] when ``inverse``, else the other way."""
    maps = []
    for i, m in enumerate(matrices):
        lo, hi = groups[i], groups[i + 1]
        maps.append(hom(hi, lo, m) if inverse else hom(lo, hi, m))
    return groups, maps


ZT2 = FgAbGroup(1, (2,))
ZT4 = FgAbGroup(1, (4,))

# name -> (groups, maps) for inverse towers
INVERSE = {
    "reductions": chain([cyc(2), cyc(4), cyc(8)], [[[1]], [[1]]], True),
    "doubling": chain([Z, Z, Z, Z], [[[2]], [[2]], [[2]]], True),
    "zero-then-doubling": chain([Z, Z, Z, Z], [[[0]], [[2]], [[2]]], True),
    "dies": chain([cyc(3), cyc(3), ZERO], [[[2]], [[]]], True),
    "mixed": chain([ZT2, ZT4, ZT4], [[[2, 0], [1, 1]], [[1, 0], [0, 2]]], True),
}
# name -> (groups, maps) for direct towers
DIRECT = {
    "inclusions": chain([cyc(2), cyc(4), cyc(8)], [[[2]], [[2]]], False),
    "into-free": chain([cyc(2), ZT2], [[[0], [1]]], False),
    "zero-maps": chain([cyc(3), cyc(3), ZERO], [[[0]], []], False),
    "doubling": chain([Z, Z, Z], [[[2]], [[2]]], False),
    "automorphisms": chain([cyc(4), cyc(4), cyc(4)], [[[3]], [[3]]], False),
    "squash": chain([cyc(4), cyc(4), cyc(4)], [[[3]], [[2]]], False),
    "shear": chain([ZT2, ZT2, ZT2], [[[1, 0], [1, 1]], [[1, 0], [0, 1]]], False),
}


def tower_json(groups, maps, base, tag):
    return {
        "prefix": [group_to_json(g) for g in groups],
        "maps": [hom_to_json(f) for f in maps],
        "base": base,
        "tail": tag,
    }


def misconnected():
    """Z/2 <- Z/4 <- Z/8 <- Z/16 whose maps at levels 2 and 3 (counted from
    base 0) start from the wrong group; each map is valid on its own."""
    groups = [cyc(2), cyc(4), cyc(8), cyc(16)]
    maps = [hom(cyc(4), cyc(2), [[1]]), hom(cyc(4), cyc(4), [[1]]), hom(cyc(8), cyc(8), [[1]])]
    return tower_json(groups, maps, 0, "general"), tower_json(groups, maps, 0, "finite")


def cases():
    """(case id, argv, stdin payload or None), in a fixed order."""
    out = []
    for verb, name, bound in product(VERBS, BUILTIN_NAMES, BUILTIN_BOUNDS):
        argv = ["tower", verb, "--builtin", name, "--bound", str(bound), "--format", "json"]
        out.append((" ".join(argv[1:5] + [str(bound)]), argv, None))

    def explicit(verb, label, payload, bounds):
        for bound in bounds:
            argv = ["tower", verb, "--bound", str(bound), "--format", "json"]
            out.append((f"{verb} {label} {bound}", argv, json.dumps(payload, sort_keys=True)))

    for base, tag in product(BASES, TAGS):
        for name, (groups, maps) in INVERSE.items():
            payload = tower_json(groups, maps, base, tag)
            for verb in ("lim", "lim1"):
                explicit(verb, f"{name}/{tag}/base{base}", payload, EXPLICIT_BOUNDS)
        for name, (groups, maps) in DIRECT.items():
            explicit("colim", f"{name}/{tag}/base{base}", tower_json(groups, maps, base, tag),
                     EXPLICIT_BOUNDS)
    pairs = (("reductions", "doubling"), ("zero-then-doubling", "mixed"), ("dies", "reductions"))
    for (n0, n1), base, (t0, t1) in product(pairs, BASES, product(TAGS, TAGS)):
        payload = {
            "degree0": tower_json(*INVERSE[n0], base, t0),
            "degree1": tower_json(*INVERSE[n1], base, t1),
        }
        explicit("milnor", f"{n0}/{t0}+{n1}/{t1}/base{base}", payload, EXPLICIT_BOUNDS)
    general, finite = misconnected()
    for verb in ("lim", "lim1", "colim"):
        explicit(verb, "misconnected/general", general, (2, 8))
        explicit(verb, "misconnected/finite", finite, (2, 8))
    explicit("milnor", "misconnected", {"degree0": finite, "degree1": general}, (2, 8))
    return out


def run_case(argv, payload):
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(payload or ""), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return [code, sys.stdout.getvalue(), sys.stderr.getvalue()]
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


CASES = cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id for case_id, _, _ in CASES)


@pytest.mark.parametrize("case_id,argv,payload", CASES, ids=[c[0] for c in CASES])
def test_tower_output_is_frozen(golden, case_id, argv, payload):
    assert run_case(argv, payload) == golden[case_id]


if __name__ == "__main__":
    data = {case_id: run_case(argv, payload) for case_id, argv, payload in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
