"""Command-line front end: exact linear algebra, group calculators,
tower verdicts, twisted K/HP computations, and batch tables.

Output is deterministic: JSON is emitted in canonical form (sorted keys,
compact separators, decimal-string integers for arithmetic values) so
identical invocations produce identical bytes.  Exit codes: 0 success,
1 invalid input, 2 a requested check failed, 3 an honest Unproven
verdict within the bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cyclic import (
    chern_rank_check,
    graded_dims,
    hp_su_infinity,
    su_de_rham,
    twisted_hp,
)
from .fgab import (
    FgAbGroup,
    check_exact,
    cokernel,
    from_presentation,
    group_from_json,
    group_text,
    group_to_json,
    hom_from_json,
    image,
    kernel,
    sequence_from_json,
)
from .intlin import _parse_int, matrix_from_json, matrix_to_json, smith_factors, snf
from .ktwist import (
    Sphere3,
    SphereDisjointUnion,
    SUFinite,
    SUInfinite,
    divisibility_table,
    twisted_k,
)
from .towers import (
    CyclicFamily,
    all_ones_order,
    builtin_graded_pair,
    direct_limit,
    inverse_limit,
    lim1,
    milnor_assemble,
    tower_from_json,
    truncated_product,
    unbounded_torsion_witness,
    verdict_json,
    verdict_text,
)


# --- rendering helpers --------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _exit_code(*verdicts: dict) -> int:
    """3 (an honest Unproven) if any JSON-rendered verdict is unproven."""
    return 3 if any(v["kind"] == "unproven" for v in verdicts) else 0


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


# --- payload handling ---------------------------------------------------------


def _read_payload(args) -> dict:
    if getattr(args, "input", None):
        try:
            text = Path(args.input).read_text()
        except OSError:  # missing, a directory, unreadable
            raise ValueError(f"cannot read {args.input}") from None
    else:
        text = sys.stdin.read()
    if not text.strip():
        raise ValueError("expected a JSON payload on stdin or via --input")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the one other ValueError: an integer past Python's digit limit
        raise ValueError(f"a JSON number has more than {sys.get_int_max_str_digits()} digits") from None
    if not isinstance(obj, dict):
        raise ValueError("payload must be a JSON object")
    return obj


# --- subcommand handlers ------------------------------------------------------


def _handle_snf(args):
    a = matrix_from_json(_read_payload(args))
    out = None
    if args.format == "json":
        # Only the JSON form prints the transforms, whose entries can pass
        # Python's limit on int-to-str digits; the table needs the factors.
        dec = snf(a)
        factors = dec.factors
        out = {
            "factors": [str(d) for d in factors],
            "s": matrix_to_json(dec.s),
            "u": matrix_to_json(dec.u),
            "v": matrix_to_json(dec.v),
        }
    else:
        factors = smith_factors(a)
    rank = sum(1 for d in factors if d != 0)
    table = _table(
        ["quantity", "value"],
        [
            ["factors", ", ".join(str(d) for d in factors) or "(none)"],
            ["rank", str(rank)],
        ],
    )
    return 0, out, table


def _group_from_payload(payload) -> FgAbGroup:
    if "relations" in payload:
        return from_presentation(matrix_from_json(payload["relations"]))
    if "orders" in payload:
        orders = payload["orders"]
        if not isinstance(orders, list):
            raise ValueError("orders must be a list")
        return FgAbGroup.from_orders([_parse_int(o, "order") for o in orders])
    return group_from_json(payload)


def _handle_group(args):
    g = _group_from_payload(_read_payload(args))
    order = g.order()
    out = {
        "group": group_to_json(g),
        "order": str(order),
        "rationalized_rank": g.free_rank,
        "generator_count": g.generator_count,
    }
    table = _table(
        ["quantity", "value"],
        [
            ["canonical form", group_text(g)],
            ["order", "infinite" if order == 0 else str(order)],
            ["rationalized rank", str(g.free_rank)],
        ],
    )
    return 0, out, table


def _handle_hom(args):
    f = hom_from_json(_read_payload(args))
    ker = kernel(f)
    img = image(f)
    cok = cokernel(f)
    out = {
        "valid": True,
        "kernel": group_to_json(ker),
        "image": group_to_json(img),
        "cokernel": group_to_json(cok),
    }
    table = _table(
        ["quantity", "value"],
        [
            ["valid", "yes"],
            ["kernel", group_text(ker)],
            ["image", group_text(img)],
            ["cokernel", group_text(cok)],
        ],
    )
    return 0, out, table


def _handle_exact(args):
    maps = sequence_from_json(_read_payload(args))
    report = check_exact(maps)
    out = {
        "exact": report.exact,
        "first_failure": report.first_failure,
        "nodes": [
            {"index": r.node, "group": group_to_json(r.group), "exact": r.exact}
            for r in report.reports
        ],
    }
    rows = [
        [str(r.node), group_text(r.group), "exact" if r.exact else "NOT EXACT"]
        for r in report.reports
    ]
    verdict = "exact at all nodes" if report.exact else f"fails first at node {report.first_failure}"
    table = _table(["node", "group", "status"], rows) + verdict + "\n"
    return (0 if report.exact else 2), out, table


def _tower_payload(args, direct: bool):
    if args.builtin:
        return tower_from_json({"builtin": args.builtin}, bound=args.bound, direct=direct)
    return tower_from_json(_read_payload(args), bound=args.bound, direct=direct)


def _handle_tower(args):
    verb = args.verb
    if verb == "milnor":
        if args.builtin:
            deg0, deg1 = builtin_graded_pair(args.builtin, bound=args.bound)
        else:
            payload = _read_payload(args)
            if "degree0" not in payload or "degree1" not in payload:
                raise ValueError("milnor payload needs degree0 and degree1 towers")
            deg0 = tower_from_json(payload["degree0"], bound=args.bound)
            deg1 = tower_from_json(payload["degree1"], bound=args.bound)
        graded = milnor_assemble(deg0, deg1)
        out = graded.to_json()
        table = _table(["degree", "verdict"], graded.text_rows())
        return _exit_code(out["degree0"], out["degree1"]), out, table
    answer = {"lim": inverse_limit, "lim1": lim1, "colim": direct_limit}[verb]
    verdict = answer(_tower_payload(args, direct=verb == "colim"))
    out = {"verdict": verdict.to_json()}
    table = f"verdict: {verdict.text()}\n"
    return _exit_code(out["verdict"]), out, table


def _space_from_args(args):
    if args.space == "su":
        if args.n is None or args.level is None:
            raise ValueError("--space su needs --n and --level")
        return SUFinite(args.n, args.level)
    if args.space == "su-inf":
        if args.level is None:
            raise ValueError("--space su-inf needs --level")
        return SUInfinite(args.level)
    if args.space == "s3":
        if args.twist is None:
            raise ValueError("--space s3 needs --twist")
        return Sphere3(args.twist)
    if args.space == "s3-union":
        return SphereDisjointUnion()
    raise ValueError(f"unknown space {args.space!r}")


def _handle_grid(args):
    n_max, level_max = args.n_max, args.level_max
    if n_max < 2 or level_max < 2:
        raise ValueError("grid needs n_max >= 2 and level_max >= 2")
    rows_json, rows_text = [], []
    for level in range(1, level_max + 1):
        t = divisibility_table(level, n_max)
        rows_json.append(
            {
                "level": str(level),
                "orders": [str(o) for o in t.orders],
                "divisibility": "ok" if t.chain_ok else "violated",
                "first_one": t.first_one,
            }
        )
        rows_text.append(
            [
                str(level),
                *[str(o) for o in t.orders],
                "ok" if t.chain_ok else "VIOLATED",
                str(t.first_one) if t.first_one is not None else f"unproven@{n_max}",
            ]
        )
    out = {"n_max": n_max, "level_max": level_max, "rows": rows_json}
    header = ["level", *[f"n={n}" for n in range(2, n_max + 1)], "divisibility", "first-1"]
    return 0, out, _table(header, rows_text)


def _handle_ktwist(args):
    if not args.space:
        raise ValueError("ktwist needs --space")
    space = _space_from_args(args)
    result = twisted_k(space, bound=args.bound, homology=args.homology)
    out = {
        "space": space.to_json(),
        "theory": "k-homology" if args.homology else "k-theory",
        "k_total": verdict_json(result.total),
        "graded": None if result.graded is None else result.graded.to_json(),
        "provenance": list(result.provenance),
    }
    rows = [["total", verdict_text(result.total)]]
    if result.graded is not None:
        rows += result.graded.text_rows("degree ")
    table = _table(["quantity", "value"], rows)
    return _exit_code(out["k_total"]), out, table


def _handle_hp(args):
    if args.check:
        payload = _read_payload(args)
        if "k_total" not in payload or "hp_dim" not in payload:
            raise ValueError("check payload needs k_total and hp_dim")
        g = group_from_json(payload["k_total"])
        result = chern_rank_check(g, _parse_int(payload["hp_dim"], "hp_dim"))
        out = {
            "passed": result.passed,
            "k_rank": result.k_rank,
            "hp_dim": result.hp_dim,
            "detail": result.detail,
        }
        table = f"{'PASS' if result.passed else 'FAIL'}: {result.detail}\n"
        return (0 if result.passed else 2), out, table
    if args.twisted:
        space = _space_from_args(args)
        result = twisted_hp(space, bound=args.bound)
        out = {
            "space": space.to_json(),
            "dims": {"even": result.dims.even, "odd": result.dims.odd},
            "provenance": list(result.provenance),
        }
        table = _table(
            ["quantity", "value"],
            [["even", str(result.dims.even)], ["odd", str(result.dims.odd)]],
        )
        return 0, out, table
    if args.space == "su":
        if args.n is None:
            raise ValueError("--space su needs --n")
        algebra = su_de_rham(args.n)
        dims = graded_dims(algebra)
        out = {
            "n": args.n,
            "generator_degrees": list(algebra.generator_degrees),
            "dims": {"even": dims.even, "odd": dims.odd},
        }
        table = _table(
            ["quantity", "value"],
            [
                ["generators", ", ".join(f"x{d}" for d in algebra.generator_degrees)],
                ["even", str(dims.even)],
                ["odd", str(dims.odd)],
            ],
        )
        return 0, out, table
    if args.space == "su-inf":
        if args.truncate is None:
            raise ValueError("--space su-inf needs --truncate")
        report = hp_su_infinity(args.truncate)
        out = {
            "truncation": report.truncation,
            "levels": [
                {"n": n, "even": d.even, "odd": d.odd} for n, d in report.levels
            ],
            "surjective_steps": list(report.surjective_steps),
            "lim1": report.lim1.to_json(),
            "limit_note": report.limit_note,
        }
        rows = [[str(n), str(d.even), str(d.odd)] for n, d in report.levels]
        table = _table(["n", "even", "odd"], rows) + (
            f"lim1: {report.lim1.text()}\n{report.limit_note}\n"
        )
        return 0, out, table
    raise ValueError("hp needs --check, --twisted, or --space su/su-inf")


# Largest --truncate and --witness-bound `product` accepts.  The record
# orders are lcm(1..n), whose digit count grows linearly in n: at 4096
# they have about 1,800 digits, inside Python's 4,300-digit limit on
# int-to-str conversion, and the command answers in well under a second.
MAX_PRODUCT_INDEX = 4096


def _handle_product(args):
    for option, value in (("--truncate", args.truncate), ("--witness-bound", args.witness_bound)):
        if value > MAX_PRODUCT_INDEX:
            raise ValueError(f"{option} must be at most {MAX_PRODUCT_INDEX}")
    family = CyclicFamily(1, lambda n: n)
    upto = args.truncate
    if upto < 1:
        raise ValueError("--truncate must be at least 1")
    # finite direct sums and products coincide: one truncation serves both
    truncation = truncated_product(family, upto)
    order = all_ones_order(family, upto)
    witness = unbounded_torsion_witness(family, args.witness_bound)
    out = {
        "truncate": upto,
        "product": group_to_json(truncation),
        "sum": group_to_json(truncation),
        "all_ones_order": str(order),
        "witness": None if witness is None else {"orders": [str(o) for o in witness]},
    }
    rows = [
        ["product", group_text(truncation)],
        ["sum", group_text(truncation)],
        ["all-ones order", str(order)],
        [
            "witness orders",
            "none" if witness is None else ", ".join(str(o) for o in witness),
        ],
    ]
    return 0, out, _table(["quantity", "value"], rows)


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # exit 2 is reserved for failed checks, so argument errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--bound", type=int, default=64, help="certification bound (>= 2)")
    common.add_argument("--format", choices=("table", "json"), default="table")
    common.add_argument("--output", help="write the rendered output to this file")
    common.add_argument("--input", help="read the JSON payload from this file instead of stdin")

    parser = _Parser(prog="ktower", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("snf", parents=[common], help="Smith normal form of an integer matrix")
    sub.add_parser("group", parents=[common], help="canonical form of a finitely generated abelian group")
    sub.add_parser("hom", parents=[common], help="kernel, image, cokernel of a homomorphism")
    sub.add_parser("exact", parents=[common], help="check exactness of a finite sequence")

    tower = sub.add_parser("tower", parents=[common], help="limit verdicts for countable towers")
    tower.add_argument("verb", choices=("lim", "lim1", "colim", "milnor"))
    tower.add_argument("--builtin", help="named tower (or graded pair for milnor)")

    ktw = sub.add_parser("ktwist", parents=[common], help="twisted K-theory and K-homology")
    ktw.add_argument("--space", choices=("su", "su-inf", "s3", "s3-union"))
    ktw.add_argument("--n", type=int)
    ktw.add_argument("--level", type=int)
    ktw.add_argument("--twist", type=int)
    ktw.add_argument("--homology", action="store_true", help="compute K-homology instead")

    hp = sub.add_parser("hp", parents=[common], help="periodic cyclic dimensions")
    hp.add_argument("--space", choices=("su", "su-inf"))
    hp.add_argument("--n", type=int)
    hp.add_argument("--level", type=int)
    hp.add_argument("--truncate", type=int)
    hp.add_argument("--twisted", action="store_true", help="twisted dimensions via the rule chain")
    hp.add_argument("--check", action="store_true", help="rank-consistency check on a JSON payload")

    product = sub.add_parser(
        "product", parents=[common], help="truncations of the countable product of Z/n"
    )
    product.add_argument("--truncate", type=int, default=10)
    product.add_argument("--witness-bound", type=int, default=30, dest="witness_bound")

    grid = sub.add_parser("grid", parents=[common], help="order-parameter grid over n and level")
    grid.add_argument("n_max", type=int)
    grid.add_argument("level_max", type=int)

    return parser


_PARSER = None


def _parser() -> _Parser:
    """The parser, built on the first call and shared by every later one.

    Parsing leaves no state on the parser (each parse fills a fresh
    Namespace), so reuse cannot carry a flag from one call to the next.
    It is not built at import, which keeps interpreter start-up lean.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


_HANDLERS = {
    "snf": _handle_snf,
    "group": _handle_group,
    "hom": _handle_hom,
    "exact": _handle_exact,
    "tower": _handle_tower,
    "ktwist": _handle_ktwist,
    "hp": _handle_hp,
    "product": _handle_product,
    "grid": _handle_grid,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.bound < 2:
        print("error: --bound must be at least 2", file=sys.stderr)
        return 1
    try:
        code, out, table = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = canonical_json(out) if args.format == "json" else table
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError:  # a missing directory, a directory, no permission
            print(f"error: cannot write {args.output}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
