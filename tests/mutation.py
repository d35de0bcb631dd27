"""Mutation check: would the tier-1 tests catch these small wrong changes?

Each mutant replaces one exact piece of text in one file.  For each, the
script writes the mutant into a copy of the repository under a temporary
directory, runs the tier-1 command there with ``-x -p no:cacheprovider``,
and prints one line: killed or survived, the time taken, and the first
failing test.  An old text that does not occur exactly once is a failure
of the list, not a skip.  A mutant marked equivalent changes no output on
any input the program can build; its line says why, and its survival is
expected.

Run from anywhere, with the standard library and the test tools only:

    python3 tests/mutation.py              # every mutant
    python3 tests/mutation.py NAME ...     # only the named mutants
    python3 tests/mutation.py --list       # names and reasons

Exit status 0 when every mutant that is not marked equivalent is killed
and every old text matches once; 1 otherwise.  The file has no ``test_``
prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-x", "-p", "no:cacheprovider"]
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    reason: str
    equivalent: Optional[str] = None  # why no output can change, if none can


MUTANTS = [
    # --- fgab ------------------------------------------------------------------
    Mutant(
        "hom-trusted-unreduced", "src/ktower/fgab.py",
        '        object.__setattr__(f, "matrix", matrix)\n        f._reduce()\n',
        '        object.__setattr__(f, "matrix", matrix)\n',
        "trusted maps (identities, composites) skip the torsion-row reduction",
    ),
    Mutant(
        "hom-unchecked", "src/ktower/fgab.py",
        "        self._reduce()\n        self._check_valid()\n",
        "        self._reduce()\n",
        "Homomorphism(...) no longer validates its matrix",
    ),
    Mutant(
        "insert-order-skips-chain", "src/ktower/fgab.py",
        "    j = len(chain)\n    while j:\n",
        "    j = 0\n    while j:\n",
        "_insert_order prepends the new order without merging it into the chain",
    ),
    Mutant(
        "insert-order-max", "src/ktower/fgab.py",
        "        chain[j] = c // g * a\n",
        "        chain[j] = max(c, a)\n",
        "a max in place of the lcm when an order is merged into the chain",
    ),
    Mutant(
        "insert-order-drops-carry", "src/ktower/fgab.py",
        "    chain.insert(0, a)\n",
        "    pass\n",
        "the gcd still carried at the bottom of the chain is dropped",
    ),
    Mutant(
        "subquotient-guard-deleted", "src/ktower/fgab.py",
        "    if found is None:\n"
        '        raise ValueError("generators do not contain the ambient relation lattice")\n',
        "",
        "_subquotient no longer checks that its generators contain the relations",
        equivalent="kernel_lattice and image_lattice both end with the ambient relation "
        "columns, so lattice_coordinates always finds them and the guard cannot fire",
    ),
    # --- towers ----------------------------------------------------------------
    Mutant(
        "iso-without-same-shape", "src/ktower/towers.py",
        "    return f.source == f.target and cokernel(f).is_trivial()\n",
        "    return cokernel(f).is_trivial()\n",
        "any surjection counts as an isomorphism, Z -> Z/2 included",
    ),
    Mutant(
        "maps-fetched-descending", "src/ktower/towers.py",
        "    maps = [t.map_at(n) for n in range(t.base + 1, t.bound + 1)]\n",
        "    maps = [t.map_at(n) for n in reversed(range(t.base + 1, t.bound + 1))][::-1]\n",
        "a misconnected tower is reported at its highest bad level, not its lowest",
    ),
    Mutant(
        "composite-without-last-map", "src/ktower/towers.py",
        "        c = d_level.compose(maps[-1])\n",
        "        c = d_level\n",
        "C_L stops one level short of the bound, so every image chain looks stable",
    ),
    Mutant(
        "first-trivial-no-reset", "src/ktower/towers.py",
        "        else:\n            n0 = None\n    return n0\n",
        "    return n0\n",
        "a trivial run that a nontrivial level interrupts still counts as trivial to the bound",
    ),
    Mutant(
        "dying-scan-past-bound", "src/ktower/towers.py",
        "                while not x.is_zero() and level < t.bound:\n",
        "                while not x.is_zero() and level <= t.bound:\n",
        "colim's generator-dying scan reads one level past the bound",
    ),
    # --- ktwist ----------------------------------------------------------------
    Mutant(
        "order-step-without-gcd", "src/ktower/ktwist.py",
        "        d = gcd(order, i // gcd(g, i))\n",
        "        d = gcd(order, i)\n",
        "the order-parameter step divides by a prime power that g already holds",
    ),
    Mutant(
        "chain-ok-always", "src/ktower/ktwist.py",
        "    chain_ok = all(a % b == 0 for a, b in zip(orders, orders[1:]))\n",
        "    chain_ok = True\n",
        "divisibility_table reports the chain intact without checking it",
    ),
    # --- answers as Verdict records ------------------------------------------------
    Mutant(
        "union-sum-as-product", "src/ktower/ktwist.py",
        '            total = Verdict("countable-sum", first=space.first)\n',
        '            total = Verdict("countable-product", first=space.first)\n',
        "K-homology of a union of 3-spheres reads as the countable product",
    ),
    Mutant(
        "rank-of-group-total-refused", "src/ktower/cyclic.py",
        '    if total.kind in ("group", "exact-limit"):\n',
        '    if total.kind == "exact-limit":\n',
        "chern_rank_check cannot read the rank of a finite K total",
    ),
    Mutant(
        "sum-template-says-product", "src/ktower/towers.py",
        '    "countable-sum": lambda v: f"countable direct sum of cyclic groups from index {v.first}",\n',
        '    "countable-sum": lambda v: f"countable product of cyclic groups from index {v.first}",\n',
        "the table form of a countable sum names a product",
    ),
    Mutant(
        "degree-json-swapped", "src/ktower/towers.py",
        '        return {"degree0": self.k0.to_json(), "degree1": self.k1.to_json()}\n',
        '        return {"degree0": self.k1.to_json(), "degree1": self.k0.to_json()}\n',
        "a graded answer prints its degrees the wrong way round",
    ),
    # --- cli -------------------------------------------------------------------
    Mutant(
        "space-message-generic", "src/ktower/cli.py",
        "    raise ValueError(f\"{'hp --twisted' if args.command == 'hp' else args.command} "
        'needs --space")\n',
        '    raise ValueError(f"{args.command} needs --space")\n',
        "hp --twisted without --space no longer says which mode needs it",
    ),
    Mutant(
        "int-option-limit-off-by-one", "src/ktower/cli.py",
        "    if sum(c.isdigit() for c in text) > limit > 0:\n",
        "    if sum(c.isdigit() for c in text) >= limit > 0:\n",
        "an integer option of exactly 4300 digits, which Python converts, is refused",
    ),
    Mutant(
        "int-option-python-text", "src/ktower/cli.py",
        '        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None\n',
        "        raise\n",
        "a non-numeric integer option prints argparse's text for the wrapper's name",
    ),
]


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "-"


def run_mutant(copy: Path, m: Mutant) -> tuple[str, float, str]:
    target = copy / m.path
    original = target.read_text(encoding="utf-8")
    target.write_text(original.replace(m.old, m.new, 1), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        status = "survived" if proc.returncode == 0 else "killed"
        failing = first_failure(proc.stdout) if proc.returncode else "-"
    except subprocess.TimeoutExpired:
        status, failing = "killed", f"timeout after {TIMEOUT_S}s"
    finally:
        target.write_text(original, encoding="utf-8")
    return status, time.perf_counter() - start, failing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="print names and reasons, run nothing")
    args = parser.parse_args(argv)
    known = {m.name for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutant {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    if args.list:
        for m in chosen:
            print(f"{m.name:30} {m.path:22} {m.reason}")
        return 0
    runnable, bad = [], 0
    for m in chosen:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count == 1:
            runnable.append(m)
        else:
            print(f"list failure: {m.name}: old text occurs {count} times in {m.path}")
            bad += 1
    with tempfile.TemporaryDirectory(prefix="ktower-mutation-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "runs"))
        for m in runnable:
            status, seconds, failing = run_mutant(copy, m)
            note = ""
            if m.equivalent:
                note = f"  (marked equivalent: {m.equivalent})"
            elif status == "survived":
                bad += 1
            print(f"{status:8} {seconds:6.1f}s  {m.name:30} {failing}{note}", flush=True)
    print(f"{len(runnable)} mutants run, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
