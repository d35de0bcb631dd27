"""Seeded request lists for the three workloads, each request with its check.

A request is one ``ktower`` command line plus the JSON payload it reads
on stdin.  Its check receives the exit code and the captured stdout and
compares them with facts computed in ``oracles`` (never with stored
outputs).  Checks that need the cyclic order look it up in one table,
built once from the Pascal diagonals.

Every class has a fixed number of requests; the seed picks the inputs
inside each class.  Parameters with heavy-tailed cost (matrix sizes,
tower bounds, truncations) are drawn one per stratum of their range, so
a seed changes the inputs but not how much work a round holds.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

import oracles


class CheckError(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckError(msg)


@dataclass
class Request:
    cls: str
    argv: list
    payload: str
    check: Callable  # check(code, out); raises CheckError
    expect_fail: bool = False


# Every level and rank whose cyclic order a request needs.
ORDER_LEVELS, ORDER_WIDTH = 1000, 256


@functools.cache
def _order_table():
    return oracles.cyclic_orders(ORDER_LEVELS, ORDER_WIDTH)


def cyclic_orders(level, n_max):
    """The cyclic orders of SU(n) at ``level`` for n = 2..n_max."""
    assert 1 <= level <= ORDER_LEVELS and n_max <= ORDER_WIDTH
    orders = _order_table()[level][: n_max - 1]
    return orders + [1] * (n_max - 1 - len(orders))


def first_one(orders):
    """The least n whose order is 1, or None."""
    return next((n for n, o in enumerate(orders, start=2) if o == 1), None)


# --- JSON helpers --------------------------------------------------------------


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def gjson(free, torsion):
    return {"free_rank": free, "torsion": [str(d) for d in torsion]}


def mjson(rows, ncols):
    return {"rows": len(rows), "cols": ncols, "entries": [[str(x) for x in r] for r in rows]}


def hjson(src, tgt, matrix):
    return {"source": gjson(0, src), "target": gjson(0, tgt), "matrix": mjson(matrix, len(src))}


def parse(out):
    try:
        return json.loads(out)
    except ValueError:
        raise CheckError("output is not JSON") from None


def match(expected, actual, path="$"):
    """Every key of ``expected`` must be present in ``actual`` with an
    equal value (recursively); extra keys such as notes are ignored."""
    if isinstance(expected, dict):
        expect(isinstance(actual, dict), f"{path}: expected an object, got {actual!r:.80}")
        for k, v in expected.items():
            expect(k in actual, f"{path}: missing {k}")
            match(v, actual[k], f"{path}.{k}")
    else:
        expect(expected == actual, f"{path}: expected {expected!r:.120}, got {actual!r:.120}")


def check_json(code_expected, expected):
    def check(code, out):
        expect(code == code_expected, f"exit {code}, expected {code_expected}")
        match(expected, parse(out))

    return check


# --- random inputs -------------------------------------------------------------


def spread(lo, hi, k, log=False):
    """k integers at the midpoints of k equal slices of [lo, hi].

    Sizes, bounds and truncations come from here rather than from the
    seed: their cost grows fast, so a seeded draw would change how much
    work a round holds.  The seed picks the inputs drawn at each size.
    """
    vals = []
    for i in range(k):
        u = (i + 0.5) / k
        vals.append(round(lo * (hi / lo) ** u if log else lo + (hi - lo) * u))
    return vals


def cycle(lo, hi, k):
    """k integers running through lo..hi evenly."""
    return [lo + i % (hi - lo + 1) for i in range(k)]


def dense(rng, r, c, amp):
    return [[rng.randint(-amp, amp) for _ in range(c)] for _ in range(r)]


def torsion_chain(rng, max_gens, cap):
    """A divisibility chain of orders >= 2 with product <= cap."""
    out, prod = [], 1
    d = rng.choice((2, 2, 3, 4, 5, 6))
    for _ in range(rng.randint(1, max_gens)):
        if prod * d > cap:
            break
        out.append(d)
        prod *= d
        d *= rng.choice((1, 1, 1, 2, 3))
    return out


def valid_matrix(rng, src, tgt):
    """Random map between finite canonical groups: the entry from a
    generator of order d to one of order m is a multiple of m / gcd(d, m)."""
    return [
        [(m // math.gcd(d, m)) * rng.randrange(math.gcd(d, m)) for d in src] for m in tgt
    ]


PRIMES_TO_1000 = [p for p in range(2, 1001) if all(p % q for q in range(2, math.isqrt(p) + 1))]


# --- groups ----------------------------------------------------------------------


def _check_group_out(free, torsion, got):
    match(
        {
            "group": gjson(free, torsion),
            "order": "0" if free else str(math.prod(torsion)),
            "rationalized_rank": free,
            "generator_count": free + len(torsion),
        },
        got,
    )


def group_relations(rng, rows, ncols):
    def check(code, out):
        expect(code == 0, f"exit {code}")
        got = parse(out)
        free, torsion = oracles.quotient_group(rows, ncols)
        _check_group_out(free, torsion, got)
        if len(rows) == ncols and free == 0:
            expect(abs(oracles.det(rows)) == math.prod(torsion), "order differs from |det|")

    payload = dumps({"relations": mjson(rows, ncols)})
    return Request("group.relations", ["group", "--format", "json"], payload, check)


def group_orders(orders):
    def check(code, out):
        expect(code == 0, f"exit {code}")
        free = orders.count(0)
        torsion = oracles.invariant_factors([o for o in orders if o >= 2])
        _check_group_out(free, torsion, parse(out))

    as_sent = [str(o) if i % 2 else o for i, o in enumerate(orders)]
    return Request("group.orders", ["group", "--format", "json"], dumps({"orders": as_sent}), check)


def _check_snf_json(rows, ncols, got):
    m = len(rows)
    u = [[int(x) for x in r] for r in got["u"]["entries"]]
    s = [[int(x) for x in r] for r in got["s"]["entries"]]
    v = [[int(x) for x in r] for r in got["v"]["entries"]]
    expect(oracles.matmul(oracles.matmul(u, rows), v) == s, "u a v != s")
    expect(abs(oracles.det(u)) == 1 and abs(oracles.det(v)) == 1, "u or v not unimodular")
    expect(oracles.is_diagonal_chain(s), "s is not a divisibility-chain diagonal")
    diag = [s[i][i] for i in range(min(m, ncols))]
    expect([int(x) for x in got["factors"]] == diag, "factors differ from diag(s)")
    if m == ncols and m:
        expect(abs(oracles.det(rows)) == math.prod(diag), "prod(factors) != |det a|")


def snf(cls, rows, ncols, fmt, expect_fail=False):
    def check(code, out):
        expect(code == 0, f"exit {code}")
        nz = oracles.smith_factors(rows, ncols)
        if fmt == "json":
            got = parse(out)
            _check_snf_json(rows, ncols, got)
            expect([int(x) for x in got["factors"] if x != "0"] == nz, "factors differ from elimination")
            return
        lines = dict(line.split(None, 1) for line in out.splitlines()[1:])
        full = nz + [0] * (min(len(rows), ncols) - len(nz))
        shown = ", ".join(str(d) for d in full)
        expect(lines.get("factors", "").strip() == shown, "table factors differ")
        expect(lines.get("rank", "").strip() == str(len(nz)), "table rank differs")

    payload = dumps(mjson(rows, ncols))
    return Request(cls, ["snf", "--format", fmt], payload, check, expect_fail)


def hom(src, tgt, matrix):
    def check(code, out):
        expect(code == 0, f"exit {code}")
        got = parse(out)
        ker, img, probes, coker = oracles.hom_data(src, tgt, matrix)
        size = lambda g: math.prod(int(d) for d in g["torsion"])  # noqa: E731
        tors = lambda g: [int(d) for d in g["torsion"]]  # noqa: E731
        for name in ("kernel", "image", "cokernel"):
            expect(got[name]["free_rank"] == 0, f"{name} of finite groups has free rank")
        expect(size(got["kernel"]) == len(ker), "|ker| differs from enumeration")
        expect(size(got["image"]) == len(img), "|im| differs from enumeration")
        expect(size(got["kernel"]) * size(got["image"]) == math.prod(src), "|ker||im| != |source|")
        expect(size(got["image"]) * size(got["cokernel"]) == math.prod(tgt), "|im||coker| != |target|")
        expect(oracles.torsion_counts(tors(got["kernel"]), probes)
               == oracles.subgroup_counts(ker, src, probes), "kernel type differs")
        expect(oracles.torsion_counts(tors(got["image"]), probes)
               == oracles.subgroup_counts(img, tgt, probes), "image type differs")
        expect(oracles.torsion_counts(tors(got["cokernel"]), probes) == coker, "cokernel type differs")
        expect(got["valid"] is True, "valid flag")

    return Request("hom", ["hom", "--format", "json"], dumps(hjson(src, tgt, matrix)), check)


def exact(groups, matrices):
    """Sequence groups[0] -> groups[1] -> ... with matrices[i] the i-th map."""

    def check(code, out):
        flags = []
        for k in range(1, len(matrices)):
            _, img, _, _ = oracles.hom_data(groups[k - 1], groups[k], matrices[k - 1])
            ker, _, _, _ = oracles.hom_data(groups[k], groups[k + 1], matrices[k])
            flags.append(img == set(ker))
        ok = all(flags)
        expect(code == (0 if ok else 2), f"exit {code} for exact={ok}")
        got = parse(out)
        expect(got["exact"] == ok, "exact flag")
        expect([n["exact"] for n in got["nodes"]] == flags, "node flags differ from enumeration")
        expect(got["first_failure"] == (None if ok else flags.index(False) + 1), "first failure")

    maps = [hjson(groups[i], groups[i + 1], m) for i, m in enumerate(matrices)]
    return Request("exact", ["exact", "--format", "json"], dumps({"maps": maps}), check)


def exact_by_construction(rng):
    """0 -> A -> B -> C -> 0 with A = sum Z/a_i, B = sum Z/(a_i b_i),
    C = sum Z/b_i, multiplication by b_i then reduction: exact everywhere."""
    a = torsion_chain(rng, rng.randint(1, 3), 24)
    b = torsion_chain(rng, len(a), 24)
    a = a[: len(b)]
    bsum = [x * y for x, y in zip(a, b)]
    groups = [[], a, bsum, b, []]
    k = len(b)
    matrices = [
        [[] for _ in a],
        [[b[i] if i == j else 0 for j in range(k)] for i in range(k)],
        [[int(i == j) for j in range(k)] for i in range(k)],
        [],
    ]
    return exact(groups, matrices)


def fixed_digit_limit_matrices():
    """Dense 24..30 square matrices, the same for every seed, whose Smith
    transforms carry entries past Python's 4300-digit str() limit."""
    out = []
    for n, k in ((24, 3), (26, 3), (28, 0), (30, 1)):
        rng = random.Random(f"snf-digit-limit-{n}-{k}")
        out.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
    return out


def groups_workload(rng):
    reqs = []
    n = 360
    cols_for = cycle(4, 20, n)
    for i, r in enumerate(cycle(4, 20, n)):
        c = r if i % 2 == 0 else cols_for[(i * 7) % n]
        reqs.append(group_relations(rng, dense(rng, r, c, 9), c))
    for length in cycle(1, 30, 300):
        orders = [
            rng.choice((0, 1)) if rng.random() < 0.1 else
            rng.randint(2, 60) if rng.random() < 0.9 else rng.randint(61, 10**6)
            for _ in range(length)
        ]
        reqs.append(group_orders(orders))
    for _ in range(200):
        src, tgt = torsion_chain(rng, 6, 256), torsion_chain(rng, 6, 256)
        reqs.append(hom(src, tgt, valid_matrix(rng, src, tgt)))
    for i in range(160):
        if i % 2:
            reqs.append(exact_by_construction(rng))
        else:
            gs = [torsion_chain(rng, 3, 64) for _ in range(rng.randint(3, 4))]
            reqs.append(exact(gs, [valid_matrix(rng, gs[j], gs[j + 1]) for j in range(len(gs) - 1)]))
    for i in range(180):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        reqs.append(snf("snf.small", dense(rng, r, c, 20), c, ("json", "table")[i % 2]))
    for m in fixed_digit_limit_matrices():
        for fmt in ("json", "table"):
            reqs.append(snf("snf.digit-limit", m, len(m), fmt, expect_fail=True))
    return reqs


# --- towers ----------------------------------------------------------------------


def _trivial_from(levels_groups):
    """Least n0 with every (level, group) from n0 on trivial, or None."""
    n0 = None
    for level, g in levels_groups:
        if not g:
            n0 = level if n0 is None else n0
        else:
            n0 = None
    return n0


def _carry(maps, tgt_groups, x):
    """Push x through the matrices in order; tgt_groups[i] is the target of maps[i]."""
    for m, t in zip(maps, tgt_groups):
        x = oracles.apply(m, t, x)
    return x


def _injective(matrix, src, tgt):
    return len({oracles.apply(matrix, tgt, x) for x in oracles.elements(src)}) == math.prod(src)


def _exact_or_trivial(group):
    if not group:
        return {"kind": "trivial"}
    return {"kind": "exact-limit", "group": gjson(0, group)}


def inverse_expectation(prefix, maps, base, tag, bound):
    """(lim, lim1) verdicts of an explicit inverse tower extended by identities.

    maps[i] runs from prefix[i+1] down to prefix[i].  The callers keep
    bound >= base + len(prefix) + 1, so the constant extension is inside
    the window and every stable image is the image of the top prefix group.
    """
    top = prefix[-1]
    if tag == "constant":
        return _exact_or_trivial(top), {"kind": "zero"}
    if tag == "general":
        return {"kind": "unproven", "bound": bound}, {"kind": "unproven", "bound": bound}
    levels = [(n, prefix[min(n - base, len(prefix) - 1)]) for n in range(base, bound + 1)]
    if _trivial_from(levels) is not None:
        return {"kind": "trivial"}, {"kind": "zero"}
    down = list(reversed(maps))
    targets = list(reversed(prefix[:-1]))
    image = {_carry(down, targets, x) for x in oracles.elements(top)}
    if len(image) == math.prod(top):
        return {"kind": "exact-limit", "group": gjson(0, top)}, {"kind": "zero"}
    return {"kind": "unproven", "bound": bound}, {"kind": "zero"}


def direct_expectation(prefix, maps, base, tag, bound):
    """Colimit verdict of an explicit direct tower extended by identities."""
    top = prefix[-1]
    if tag == "constant":
        return _exact_or_trivial(top)
    levels = [(n, prefix[min(n - base, len(prefix) - 1)]) for n in range(base, bound + 1)]
    if _trivial_from(levels) is not None:
        return {"kind": "trivial"}
    iso_from = 0
    for i, m in enumerate(maps):
        if not (math.prod(prefix[i]) == math.prod(prefix[i + 1]) and _injective(m, prefix[i], prefix[i + 1])):
            iso_from = i + 1
    return {"kind": "exact-limit", "group": gjson(0, prefix[iso_from])}


def random_prefix(rng, direct):
    """Short prefix of small finite groups with valid maps; half the
    time the maps are embeddings of cyclic groups so limits come out exact."""
    length = rng.randint(2, 4)
    if rng.random() < 0.5:
        d = rng.choice((2, 3, 4, 5, 6, 8))
        mults = [rng.choice((1, 2, 3)) for _ in range(length - 1)]
        sizes = [d]
        for r in mults:
            sizes.append(sizes[-1] * r)
        if not direct:
            sizes.reverse()
        prefix = [[s] for s in sizes]
        if direct:
            maps = [[[sizes[i + 1] // sizes[i]]] for i in range(length - 1)]
        else:
            maps = [[[sizes[i] // sizes[i + 1]]] for i in range(length - 1)]
        return prefix, maps
    prefix = [torsion_chain(rng, 2, 48) if rng.random() < 0.85 else [] for _ in range(length)]
    if direct:
        maps = [valid_matrix(rng, prefix[i], prefix[i + 1]) for i in range(length - 1)]
    else:
        maps = [valid_matrix(rng, prefix[i + 1], prefix[i]) for i in range(length - 1)]
    return prefix, maps


def tower_json(prefix, maps, base, tag, direct):
    if direct:
        hs = [hjson(prefix[i], prefix[i + 1], m) for i, m in enumerate(maps)]
    else:
        hs = [hjson(prefix[i + 1], prefix[i], m) for i, m in enumerate(maps)]
    return {"prefix": [gjson(0, g) for g in prefix], "maps": hs, "base": base, "tail": tag}


def _unproven(v):
    return v["kind"] == "unproven"


def milnor_expect(lims, gates):
    out = {}
    for i in (0, 1):
        gate = gates[1 - i]
        if gate["kind"] == "zero":
            out[f"degree{i}"] = lims[i]
        else:
            out[f"degree{i}"] = {"kind": "unrepresentable", "lim": lims[i], "lim1": gate}
    code = 3 if any(_unproven(v) for v in out.values()) else 0
    return code, out


def tower_explicit(rng, verb, bound, tags):
    """One explicit tower request; ``tags`` holds one tail tag, or two for milnor."""
    if verb == "milnor":
        lims, gates, payload = [], [], {}
        for deg, tag in enumerate(tags):
            base = rng.randint(0, 2)
            prefix, maps = random_prefix(rng, direct=False)
            lim, gate = inverse_expectation(prefix, maps, base, tag, bound)
            lims.append(lim)
            gates.append(gate)
            payload[f"degree{deg}"] = tower_json(prefix, maps, base, tag, False)
        code, out = milnor_expect(lims, gates)
        return Request("tower.explicit.milnor", ["tower", "milnor", "--bound", str(bound), "--format", "json"],
                       dumps(payload), check_json(code, out))
    base, (tag,) = rng.randint(0, 2), tags
    direct = verb == "colim"
    prefix, maps = random_prefix(rng, direct)
    if direct:
        verdict = direct_expectation(prefix, maps, base, tag, bound)
    else:
        verdict = inverse_expectation(prefix, maps, base, tag, bound)[verb == "lim1"]
    code = 3 if _unproven(verdict) else 0
    return Request(f"tower.explicit.{verb}", ["tower", verb, "--bound", str(bound), "--format", "json"],
                   dumps(tower_json(prefix, maps, base, tag, direct)), check_json(code, {"verdict": verdict}))


def tower_builtin(verb, name, bound):
    unproven = {"kind": "unproven", "bound": bound}
    profinite = {"kind": "profinite-nontrivial", "evidence": [str(2**k) for k in range(1, bound)]}
    table = {
        ("lim", "mod2-powers"): (0, {"verdict": profinite}),
        ("lim1", "mod2-powers"): (0, {"verdict": {"kind": "zero"}}),
        ("colim", "mod2-powers"): (3, {"verdict": unproven}),
        ("lim", "z-times-2"): (3, {"verdict": unproven}),
        ("lim1", "z-times-2"): (0, {"verdict": {"kind": "nonzero-uncomputed", "witness_level": 0}}),
        ("colim", "z-times-2"): (3, {"verdict": unproven}),
        ("lim", "trivial"): (0, {"verdict": {"kind": "trivial"}}),
        ("lim1", "trivial"): (0, {"verdict": {"kind": "zero"}}),
        ("colim", "trivial"): (0, {"verdict": {"kind": "trivial"}}),
        ("milnor", "mod2-powers-pair"): (0, {"degree0": profinite, "degree1": {"kind": "trivial"}}),
        ("milnor", "constant-pair"): (0, {
            "degree0": {"kind": "exact-limit", "group": gjson(0, [4])},
            "degree1": {"kind": "exact-limit", "group": gjson(0, [9])},
        }),
        ("milnor", "finite-vs-ztimes2"): (3, {
            "degree0": {
                "kind": "unrepresentable",
                "lim": {"kind": "exact-limit", "group": gjson(0, [6])},
                "lim1": {"kind": "nonzero-uncomputed", "witness_level": 0},
            },
            "degree1": unproven,
        }),
    }
    code, out = table[(verb, name)]
    cls = "tower.builtin.quadratic" if (verb, name) in (("lim", "mod2-powers"), ("milnor", "mod2-powers-pair")) \
        else "tower.builtin.linear"
    argv = ["tower", verb, "--builtin", name, "--bound", str(bound), "--format", "json"]
    return Request(cls, argv, "", check_json(code, out))


def tower_constant(rng, verb, bound):
    free = rng.choice((0, 0, 1, 2))
    tors = torsion_chain(rng, 3, 10**4) if rng.random() < 0.8 else []
    g = gjson(free, tors)
    if verb == "lim1":
        verdict = {"kind": "zero"}
    elif free == 0 and not tors:
        verdict = {"kind": "trivial"}
    else:
        verdict = {"kind": "exact-limit", "group": g}
    payload = dumps({"builtin": "constant", "params": {"group": g}})
    return Request("tower.builtin.constant", ["tower", verb, "--bound", str(bound), "--format", "json"],
                   payload, check_json(0, {"verdict": verdict}))


def towers_workload(rng):
    reqs = []
    for combo in (("lim", "mod2-powers"), ("milnor", "mod2-powers-pair")):
        reqs += [tower_builtin(*combo, b) for b in spread(8, 128, 6, log=True)]
    for combo in (
        ("lim1", "z-times-2"), ("colim", "z-times-2"), ("colim", "mod2-powers"),
        ("lim", "z-times-2"), ("lim1", "mod2-powers"), ("milnor", "finite-vs-ztimes2"),
        ("milnor", "constant-pair"), ("lim", "trivial"), ("lim1", "trivial"), ("colim", "trivial"),
    ):
        reqs += [tower_builtin(*combo, b) for b in spread(8, 128, 42, log=True)]
    for verb in ("lim", "lim1", "colim"):
        reqs += [tower_constant(rng, verb, b) for b in spread(8, 128, 40, log=True)]
    tags = ("constant", "finite", "general")
    cells = [(verb, (tag,), 40) for verb in ("lim", "lim1", "colim") for tag in tags]
    cells += [("milnor", (t0, t1), 12) for t0 in tags for t1 in tags]
    for verb, cell_tags, k in cells:
        reqs += [tower_explicit(rng, verb, b, cell_tags) for b in spread(8, 32, k, log=True)]
    return reqs


# --- ktheory ---------------------------------------------------------------------


def su_level(rng, n):
    """A level up to 1000; from n = 12 on a prime p >= n, whose order is a
    multiple of p, so the 2^(n-1) factors are really built."""
    return rng.choice([p for p in PRIMES_TO_1000 if p >= n]) if n >= 12 else rng.randint(1, 1000)


def ktwist_su(rng, n, homology, fmt):
    level = su_level(rng, n)
    argv = ["ktwist", "--space", "su", "--n", str(n), "--level", str(level), "--format", fmt]
    if homology:
        argv.append("--homology")
    count = 2 ** (n - 1)

    def check(code, out):
        expect(code == 0, f"exit {code}")
        if fmt == "json":
            got = parse(out)
            match({"space": {"family": "su", "n": n, "level": str(level)}, "graded": None,
                   "theory": "k-homology" if homology else "k-theory",
                   "k_total": {"kind": "group"}}, got)
            tors = got["k_total"]["group"]["torsion"]
            seen = (got["k_total"]["group"]["free_rank"], len(tors), set(tors))
        else:
            m = re.fullmatch(r"quantity\s+value\ntotal\s+(.*)\n", out)
            expect(m, "table shape")
            t = m.group(1).strip()
            tm = re.fullmatch(r"\(Z/(\d+)\)\^(\d+)", t)
            seen = (0, int(tm.group(2)), {tm.group(1)}) if tm else (0, 0, set()) if t == "0" else None
            expect(seen is not None, f"table total {t!r}")
        o = cyclic_orders(level, n)[-1]
        want = (0, count, {str(o)}) if o > 1 else (0, 0, set())
        expect(seen == want, f"total {seen[1]} x {sorted(seen[2])[:1]}, expected {want[1]} x Z/{o}")

    return Request("ktwist.su", argv, "", check)


def su_inf_levels(rng, k):
    """k levels in 1..1000, one drawn from each of k equal slices of the
    levels sorted by their first trivial rank (searched up to 256).

    That rank sets the cost of an su-inf request, and it jumps between
    neighbouring levels, so drawing levels freely would change how much
    work a round holds.
    """
    first = {level: first_one(cyclic_orders(level, ORDER_WIDTH)) for level in range(1, ORDER_LEVELS + 1)}
    ranked = sorted(first, key=lambda level: (first[level] is None, first[level] or 0, level))
    return [rng.choice(ranked[j * len(ranked) // k:(j + 1) * len(ranked) // k]) for j in range(k)]


def ktwist_su_inf(level, bound, homology):
    argv = ["ktwist", "--space", "su-inf", "--level", str(level), "--bound", str(bound), "--format", "json"]
    if homology:
        argv.append("--homology")

    def check(code, out):
        got = parse(out)
        n0 = first_one(cyclic_orders(level, bound))
        if n0 is None:
            expect(code == 3, f"exit {code}, expected 3")
            kind = {"kind": "unproven", "bound": bound}
        else:
            expect(code == 0, f"exit {code}")
            kind = {"kind": "trivial"}
            expect(got["k_total"]["note"] == f"all level groups trivial from n = {n0} on",
                   f"note {got['k_total']['note']!r}, expected n = {n0}")
        match({"k_total": kind, "graded": {"degree0": kind, "degree1": kind},
               "space": {"family": "su-infinite", "level": str(level)}}, got)

    return Request("ktwist.su-inf", argv, "", check)


def ktwist_s3(twist, homology):
    argv = ["ktwist", "--space", "s3", "--twist", str(twist), "--format", "json"]
    if homology:
        argv.append("--homology")
    g = {"kind": "group", "group": gjson(0, [twist] if twist > 1 else [])}
    out = {"k_total": g, "graded": {"degree0": {"kind": "group", "group": gjson(0, [])}, "degree1": g}}
    return Request("ktwist.s3", argv, "", check_json(0, out))


def ktwist_s3_union(homology):
    argv = ["ktwist", "--space", "s3-union", "--format", "json"]
    kind = "countable-sum" if homology else "countable-product"
    if homology:
        argv.append("--homology")
    total = {"kind": kind, "first": 1}
    return Request("ktwist.s3-union", argv, "", check_json(0, {"k_total": total, "graded": {"degree1": total}}))


def grid(n_max, level_max):
    argv = ["grid", str(n_max), str(level_max), "--format", "json"]

    def check(code, out):
        expect(code == 0, f"exit {code}")
        got = parse(out)
        expect([int(row["level"]) for row in got["rows"]] == list(range(1, level_max + 1)), "row levels")
        for row in got["rows"]:
            orders = cyclic_orders(int(row["level"]), n_max)
            match({"orders": [str(o) for o in orders],
                   "divisibility": "ok" if all(a % b == 0 for a, b in zip(orders, orders[1:])) else "violated",
                   "first_one": first_one(orders)}, row)

    return Request("grid", argv, "", check)


def hp_su(n):
    dims = {"even": 2 ** (n - 2), "odd": 2 ** (n - 2)}
    out = {"n": n, "dims": dims, "generator_degrees": list(range(3, 2 * n, 2))}
    return Request("hp.su", ["hp", "--space", "su", "--n", str(n), "--format", "json"], "", check_json(0, out))


def hp_su_inf(t):
    out = {
        "truncation": t,
        "levels": [{"n": n, "even": 2 ** (n - 2), "odd": 2 ** (n - 2)} for n in range(2, t + 1)],
        "surjective_steps": list(range(3, t + 1)),
        "lim1": {"kind": "zero"},
    }
    argv = ["hp", "--space", "su-inf", "--truncate", str(t), "--format", "json"]
    return Request("hp.su-inf", argv, "", check_json(0, out))


def hp_twisted(space, n, level):
    argv = ["hp", "--twisted", "--space", space, "--level", str(level), "--format", "json"]
    if n is not None:
        argv += ["--n", str(n)]
    return Request(f"hp.twisted.{space}", argv, "", check_json(0, {"dims": {"even": 0, "odd": 0}}))


def hp_check(rng):
    free = rng.randint(0, 6)
    dim = free if rng.random() < 0.5 else rng.randint(0, 6)
    payload = dumps({"k_total": gjson(free, torsion_chain(rng, 3, 1000)), "hp_dim": str(dim)})
    ok = free == dim
    out = {"passed": ok, "k_rank": free, "hp_dim": dim}
    return Request("hp.check", ["hp", "--check", "--format", "json"], payload, check_json(0 if ok else 2, out))


def product(upto, witness_bound):
    argv = ["product", "--truncate", str(upto), "--witness-bound", str(witness_bound), "--format", "json"]

    def check(code, out):
        expect(code == 0, f"exit {code}")
        got = parse(out)
        factors = oracles.invariant_factors(range(2, upto + 1))
        expect(math.prod(factors) == math.factorial(upto), "product order is not N!")
        records = []
        for k in range(1, witness_bound + 1):
            o = oracles.lcm_upto(k)
            if not records or o > records[-1]:
                records.append(o)
        witness = {"orders": [str(o) for o in records]} if len(records) >= 2 else None
        match({"truncate": upto, "product": gjson(0, factors), "sum": gjson(0, factors),
               "all_ones_order": str(oracles.lcm_upto(upto)), "witness": witness}, got)

    return Request("product", argv, "", check)


def ktheory_workload(rng):
    reqs = []
    for n in range(2, 20):
        for homology in (False, True):
            for fmt in ("json", "table"):
                reqs.append(ktwist_su(rng, n, homology, fmt))
    bounds = spread(64, 256, 160, log=True)
    for i, level in enumerate(su_inf_levels(rng, 160)):
        reqs.append(ktwist_su_inf(level, bounds[(61 * i) % 160], i % 2 == 1))
    for i in range(100):
        reqs.append(ktwist_s3(rng.randint(1, 10**6), i % 2 == 1))
    for i in range(40):
        reqs.append(ktwist_s3_union(i % 2 == 1))
    level_maxes = spread(2, 60, 120)
    for i, n_max in enumerate(spread(3, 20, 120)):
        reqs.append(grid(n_max, level_maxes[(7 * i) % 120]))
    for n in spread(2, 60, 120):
        reqs.append(hp_su(n))
    for t in spread(2, 60, 120):
        reqs.append(hp_su_inf(t))
    for n in cycle(2, 19, 36):
        reqs.append(hp_twisted("su", n, su_level(rng, n)))
    for _ in range(60):
        reqs.append(hp_twisted("su-inf", None, rng.randint(1, 1000)))
    for _ in range(170):
        reqs.append(hp_check(rng))
    for upto, wb in zip(spread(2, 100, 24), spread(2, 60, 24)):
        reqs.append(product(upto, wb))
    return reqs


WORKLOADS = {
    "groups": groups_workload,
    "towers": towers_workload,
    "ktheory": ktheory_workload,
}


def build(workload, seed):
    """The request list of one round: fixed class sizes, seeded inputs, seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = WORKLOADS[workload](rng)
    rng.shuffle(reqs)
    return reqs
