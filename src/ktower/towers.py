"""Countable towers of finitely generated abelian groups: inverse and
direct limits, lim^1 verdicts, Milnor-sequence assembly, and truncations
of countable products of cyclic groups.

Every verdict names its rule, and anything that would need an unbounded
search comes back unproven instead of guessed.  Rules that read only the
levels up to the tower's bound say "through bound B" in their note; see
``Verdict`` for what such a verdict does and does not certify.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Optional, Union

from .fgab import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    cokernel,
    group_text,
    group_to_json,
    image,
    same_subgroup,
)
from .intlin import IntMatrix


DEFAULT_BOUND = 64


# --- tail classes ----------------------------------------------------------


@dataclass(frozen=True)
class EventuallyConstant:
    """Groups and maps are constant (identity) above ``level``."""

    level: int


@dataclass(frozen=True)
class LevelwiseFinite:
    """Every level is a finite group; checked on each query."""


@dataclass(frozen=True)
class General:
    """No structural promise; only bound-certified verdicts available."""


TailClass = Union[EventuallyConstant, LevelwiseFinite, General]


# --- verdicts ----------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """One limit, lim^1 or Mittag-Leffler answer, tagged by ``kind``.

    The other fields are optional and named after their JSON keys:
    to_json() renders the fields that are set (not None), and text()
    reads the template of the kind.

    kind                  fields                answers
    exact-limit           group, note           lim, colim
    trivial               note                  lim, colim
    profinite-nontrivial  evidence, note        lim
    unproven              bound, note           lim, colim
    unproven              bound                 lim^1
    zero                  rule                  lim^1
    nonzero-uncomputed    witness_level, note   lim^1
    unrepresentable       reason, lim, lim1     a Milnor degree
    ml-forced             rule                  Mittag-Leffler
    ml-verified           bound                 Mittag-Leffler
    ml-failed             witness_level, note   Mittag-Leffler

    Only the eventually-constant rules and the Mittag-Leffler rules for
    lim^1 = 0 hold for the whole tower.  On finite and general tails the
    rules "levels trivial ... through bound", "stable images carried
    isomorphically through bound", "stable image orders strictly
    increase", "connecting maps are isomorphisms ... through bound" and
    "every generator ... dies by bound" answer from the inspected window
    only, though their kind reads as a whole-tower answer: levels Z/2,
    Z/4 tagged "finite" give profinite-nontrivial, yet their limit is Z/4
    (ROADMAP item K).
    """

    kind: str
    _: KW_ONLY
    note: Optional[str] = None
    group: Optional[FgAbGroup] = None
    evidence: Optional[tuple[int, ...]] = None
    bound: Optional[int] = None
    rule: Optional[str] = None
    witness_level: Optional[int] = None
    reason: Optional[str] = None
    lim: Optional[Verdict] = None
    lim1: Optional[Verdict] = None

    def to_json(self) -> dict:
        out = {}
        for key, value in vars(self).items():  # "kind" first, then the set fields
            if value is None:
                continue
            if key == "group":
                value = group_to_json(value)
            elif key == "evidence":
                value = [str(e) for e in value]
            elif key in ("lim", "lim1"):
                value = value.to_json()
            out[key] = value
        return out

    def text(self) -> str:
        return _TEXT[self.kind](self)


_TEXT: dict[str, Callable[[Verdict], str]] = {
    "exact-limit": lambda v: f"{group_text(v.group)} ({v.note})",
    "trivial": lambda v: f"trivial ({v.note})" if v.note else "trivial",
    "profinite-nontrivial": lambda v: "profinite, nontrivial (stable image orders "
    + ", ".join(str(e) for e in v.evidence[:6]) + ", ...)",
    "unproven": lambda v: f"unproven at bound {v.bound}" + (f" ({v.note})" if v.note else ""),
    "zero": lambda v: f"zero ({v.rule})",
    "nonzero-uncomputed": lambda v: f"nonzero, not computed (witness level {v.witness_level})",
    "unrepresentable": lambda v: f"unrepresentable: {v.reason}",
    "ml-forced": lambda v: f"Mittag-Leffler ({v.rule})",
    "ml-verified": lambda v: f"Mittag-Leffler verified through bound {v.bound}",
    "ml-failed": lambda v: f"not Mittag-Leffler at level {v.witness_level} ({v.note})",
}


def verdict_json(v) -> dict:
    """JSON form of a verdict: a bare group or any descriptor."""
    if isinstance(v, FgAbGroup):
        return {"kind": "group", "group": group_to_json(v)}
    return v.to_json()


def verdict_text(v) -> str:
    """Text form of a verdict: a bare group or any descriptor."""
    return group_text(v) if isinstance(v, FgAbGroup) else v.text()


# --- towers -----------------------------------------------------------------


class _TowerBase:
    def __init__(
        self,
        group_at: Callable[[int], FgAbGroup],
        map_at: Callable[[int], Homomorphism],
        base: int = 0,
        tail: TailClass = General(),
        bound: int = DEFAULT_BOUND,
    ) -> None:
        if bound < base:
            raise ValueError("bound must be at least the base index")
        if isinstance(tail, EventuallyConstant) and tail.level < base:
            raise ValueError("eventually-constant level precedes the base index")
        self._group_fn = group_at
        self._map_fn = map_at
        self.base = base
        self.tail = tail
        self.bound = bound
        self._groups: dict[int, FgAbGroup] = {}
        self._maps: dict[int, Homomorphism] = {}

    def group_at(self, n: int) -> FgAbGroup:
        if n < self.base:
            raise ValueError(f"level {n} precedes the base index {self.base}")
        if isinstance(self.tail, EventuallyConstant):
            n = min(n, self.tail.level)
        if n not in self._groups:
            g = self._group_fn(n)
            if isinstance(self.tail, LevelwiseFinite) and g.free_rank:
                raise ValueError(
                    f"tower declared levelwise finite but level {n} has free rank {g.free_rank}"
                )
            self._groups[n] = g
        return self._groups[n]


class InverseTower(_TowerBase):
    """..., G_{n+1} -> G_n -> ..., with map_at(n): G_n -> G_{n-1}."""

    def map_at(self, n: int) -> Homomorphism:
        if n <= self.base:
            raise ValueError(f"inverse tower maps are indexed from {self.base + 1}")
        if isinstance(self.tail, EventuallyConstant) and n > self.tail.level:
            g = self.group_at(self.tail.level)
            return Homomorphism.identity(g)
        if n not in self._maps:
            f = self._map_fn(n)
            if f.source != self.group_at(n) or f.target != self.group_at(n - 1):
                raise ValueError(f"map at level {n} does not connect level {n} to level {n - 1}")
            self._maps[n] = f
        return self._maps[n]

    def composite(self, level: int, depth: int) -> Homomorphism:
        """The connecting map G_{level+depth} -> G_level."""
        f = Homomorphism.identity(self.group_at(level))
        for k in range(1, depth + 1):
            f = f.compose(self.map_at(level + k))
        return f


class DirectTower(_TowerBase):
    """G_base -> G_{base+1} -> ..., with map_at(n): G_n -> G_{n+1}."""

    def map_at(self, n: int) -> Homomorphism:
        if n < self.base:
            raise ValueError(f"direct tower maps are indexed from {self.base}")
        if isinstance(self.tail, EventuallyConstant) and n >= self.tail.level:
            g = self.group_at(self.tail.level)
            return Homomorphism.identity(g)
        if n not in self._maps:
            f = self._map_fn(n)
            if f.source != self.group_at(n) or f.target != self.group_at(n + 1):
                raise ValueError(f"map at level {n} does not connect level {n} to level {n + 1}")
            self._maps[n] = f
        return self._maps[n]

    def composite(self, level: int, depth: int) -> Homomorphism:
        """The connecting map G_level -> G_{level+depth}."""
        f = Homomorphism.identity(self.group_at(level))
        for k in range(depth):
            f = self.map_at(level + k).compose(f)
        return f


def constant_tower(
    g: FgAbGroup, base: int = 0, bound: int = DEFAULT_BOUND, direct: bool = False
):
    cls = DirectTower if direct else InverseTower
    return cls(
        group_at=lambda n: g,
        map_at=lambda n: Homomorphism.identity(g),
        base=base,
        tail=EventuallyConstant(base),
        bound=bound,
    )


# --- Mittag-Leffler ----------------------------------------------------------


def _bound_composites(t: InverseTower):
    """Yield (L, C_L, stable) for L = base..bound-1, ascending.

    C_L: G_bound -> G_L is the deepest composite the bound allows, and
    ``stable`` says whether im(C_L) equals the image of the one-shorter
    composite D_L: G_{bound-1} -> G_L, compared as subgroups of G_L.
    One backward sweep builds every D_L (D_{bound-1} = id and
    D_L = map_at(L+1) o D_{L+1}); C_L = D_L o map_at(bound) is built only
    when the caller asks for level L.  Every map is fetched in ascending
    order first, so a misconnected tower is reported at its lowest bad
    level.
    """
    if t.bound <= t.base:
        return
    maps = [t.map_at(n) for n in range(t.base + 1, t.bound + 1)]
    d = [Homomorphism.identity(t.group_at(t.bound - 1))]
    for f in reversed(maps[:-1]):
        d.append(f.compose(d[-1]))
    for level, d_level in zip(range(t.base, t.bound), reversed(d)):
        c = d_level.compose(maps[-1])
        yield level, c, same_subgroup(d_level, c)


def is_mittag_leffler(t: InverseTower) -> Verdict:
    """Whether image chains stabilize, as far as can be certified:
    an ml-forced, ml-failed or ml-verified verdict.

    Stabilization is tested on the realizing lattices (the actual
    subgroups), never on abstract isomorphism classes: the (Z, x2) tower
    has all images isomorphic to Z yet strictly decreasing, and must
    fail here.
    """
    if isinstance(t.tail, EventuallyConstant):
        return Verdict(
            "ml-forced",
            rule="eventually-constant tail: image chains are constant from the tail on",
        )
    if isinstance(t.tail, LevelwiseFinite):
        return Verdict(
            "ml-forced",
            rule="levelwise finite: decreasing subgroup chains in a finite group stabilize",
        )
    for level, _, stable in _bound_composites(t):
        if not stable:
            return Verdict(
                "ml-failed",
                witness_level=level,
                note=f"image chain at level {level} is still strictly decreasing at depth {t.bound - level}",
            )
    return Verdict("ml-verified", bound=t.bound)


def lim1(t: InverseTower) -> Verdict:
    """lim^1 verdict; never fabricated for general tails.

    Zero needs a structural rule (eventually constant or levelwise
    finite towers are Mittag-Leffler for real, not just within the
    bound).  A general tower that merely looks stable within the bound
    stays Unproven.
    """
    ml = is_mittag_leffler(t)
    if ml.kind == "ml-forced":
        return Verdict("zero", rule=f"Mittag-Leffler ({ml.rule})")
    if ml.kind == "ml-failed":
        return Verdict("nonzero-uncomputed", witness_level=ml.witness_level, note=ml.note)
    return Verdict("unproven", bound=t.bound)


# --- inverse limit -----------------------------------------------------------


def _first_all_trivial(t, lo: int, hi: int) -> Optional[int]:
    """Least n0 with every level in [n0, hi] trivial, or None."""
    n0 = None
    for n in range(lo, hi + 1):
        if t.group_at(n).is_trivial():
            if n0 is None:
                n0 = n
        else:
            n0 = None
    return n0


def _constant_tail_limit(t) -> Verdict:
    """The (co)limit of an eventually constant tower: its constant value,
    since the tail is cofinal."""
    g = t.group_at(t.tail.level)
    if g.is_trivial():
        return Verdict("trivial", note=f"constant trivial from level {t.tail.level} on")
    return Verdict("exact-limit", group=g, note=f"eventually constant from level {t.tail.level} on")


def inverse_limit(t: InverseTower) -> Verdict:
    """Inverse limit verdict.

    Eventually constant towers have the constant value as their limit
    (the tail is cofinal); this is the only structural rule.  Levelwise
    finite towers are answered from the levels up to the bound: all
    trivial from n0 on gives trivial, stable images carried
    isomorphically give exact-limit, strictly growing stable image orders
    give profinite-nontrivial.  These three read the window only, and
    their kind does not hold for the whole tower (ROADMAP item K).
    Everything else is Unproven.
    """
    if isinstance(t.tail, EventuallyConstant):
        return _constant_tail_limit(t)
    if isinstance(t.tail, LevelwiseFinite):
        n0 = _first_all_trivial(t, t.base, t.bound)
        if n0 is not None:
            return Verdict("trivial", note=f"levels trivial from {n0} through bound {t.bound}")
        if t.bound - t.base < 1:
            return Verdict("unproven", bound=t.bound, note="bound too small to analyze stable images")
        groups = []
        for level, c, is_stable in _bound_composites(t):
            if not is_stable:
                return Verdict(
                    "unproven",
                    bound=t.bound,
                    note=f"image chain at level {level} not stabilized within bound",
                )
            groups.append(image(c))
        # map_at(L+1) carries im(C_{L+1}) onto im(C_L), since
        # C_L = map_at(L+1) o C_{L+1} by construction; the carrying is
        # isomorphic exactly when the two (finite) images have equal orders.
        orders = [g.order() for g in groups]
        if all(a == b for a, b in zip(orders, orders[1:])):
            return Verdict(
                "exact-limit",
                group=groups[0],
                note=f"stable images carried isomorphically through bound {t.bound}",
            )
        if all(b > a for a, b in zip(orders, orders[1:])):
            return Verdict(
                "profinite-nontrivial",
                evidence=tuple(orders),
                note="stable image orders strictly increase level by level",
            )
        return Verdict(
            "unproven",
            bound=t.bound,
            note="stable images neither carried isomorphically nor growing",
        )
    return Verdict("unproven", bound=t.bound, note="no structural rule applies to a general tail")


# --- direct limit ------------------------------------------------------------


def _is_isomorphism(f: Homomorphism) -> bool:
    # A surjective endomorphism of a finitely generated abelian group is
    # injective (such groups are Hopfian), so no kernel is needed.
    return f.source == f.target and cokernel(f).is_trivial()


def direct_limit(t: DirectTower) -> Verdict:
    """Colimit verdict.

    Eventually constant towers give the constant value; this is the only
    structural rule.  Other towers are answered from the levels up to
    the bound: all trivial from n0 on gives trivial, connecting maps that
    are isomorphisms from some level on give exact-limit, and on a
    levelwise finite tower every generator dying by the bound gives
    trivial.  These read the window only, and their kind does not hold
    for the whole tower (ROADMAP item K).  Everything else is Unproven.
    """
    if isinstance(t.tail, EventuallyConstant):
        return _constant_tail_limit(t)
    n0 = _first_all_trivial(t, t.base, t.bound)
    if n0 is not None:
        return Verdict("trivial", note=f"levels trivial from {n0} through bound {t.bound}")
    iso_from = None
    iso: dict[Homomorphism, bool] = {}  # one test per distinct connecting map
    for n in range(t.base, t.bound):
        f = t.map_at(n)
        if f not in iso:
            iso[f] = _is_isomorphism(f)
        if iso[f]:
            if iso_from is None:
                iso_from = n
        else:
            iso_from = None
    if iso_from is not None:
        return Verdict(
            "exact-limit",
            group=t.group_at(iso_from),
            note=f"connecting maps are isomorphisms from level {iso_from} through bound {t.bound}",
        )
    if isinstance(t.tail, LevelwiseFinite):
        # Generators at the bound itself have no room left to die, so the
        # scan stops one short; the verdict is window-certified like the rest.
        all_die = True
        for n in range(t.base, t.bound):
            g = t.group_at(n)
            for j in range(g.generator_count):
                coords = tuple(int(i == j) for i in range(g.generator_count))
                x = GroupElement(g, coords)
                level = n
                while not x.is_zero() and level < t.bound:
                    x = t.map_at(level).apply(x)
                    level += 1
                if not x.is_zero():
                    all_die = False
                    break
            if not all_die:
                break
        if all_die:
            return Verdict("trivial", note=f"every generator of every level dies by bound {t.bound}")
    return Verdict("unproven", bound=t.bound, note="no structural rule applies within the bound")


# --- Milnor assembly ---------------------------------------------------------


@dataclass(frozen=True)
class KGradedGroup:
    """Z/2-graded result; each degree is a group, a verdict or a
    countable descriptor."""

    k0: Union[FgAbGroup, Verdict, CountableDescriptor]
    k1: Union[FgAbGroup, Verdict, CountableDescriptor]

    def degree(self, i: int):
        return self.k0 if i % 2 == 0 else self.k1

    def to_json(self) -> dict:
        return {"degree0": verdict_json(self.k0), "degree1": verdict_json(self.k1)}

    def text_rows(self, label: str = "") -> list[list[str]]:
        """One table row per degree, the degree named by label + index."""
        return [[f"{label}{i}", verdict_text(self.degree(i))] for i in (0, 1)]


def milnor_assemble(deg0: InverseTower, deg1: InverseTower) -> KGradedGroup:
    """Assemble graded limits through the Milnor sequence.

    Degree i is an extension of lim by lim^1 of the *other* degree
    (degree 1-i), so degree i is only representable once that lim^1
    vanishes by rule; otherwise the verdict is unrepresentable and
    carries both sides of the undetermined extension.
    """
    towers = {0: deg0, 1: deg1}
    gates = {i: lim1(towers[i]) for i in (0, 1)}
    limits = {i: inverse_limit(towers[i]) for i in (0, 1)}
    out = {}
    for i in (0, 1):
        gate = gates[1 - i]
        if gate.kind == "zero":
            out[i] = limits[i]
        else:
            out[i] = Verdict(
                "unrepresentable",
                reason="extension of the level limit by a possibly nonzero lim^1 is undetermined",
                lim=limits[i],
                lim1=gate,
            )
    return KGradedGroup(k0=out[0], k1=out[1])


# --- countable products of cyclic groups -------------------------------------


@dataclass(frozen=True, eq=False)
class CyclicFamily:
    """index |-> cyclic order, indices from ``first`` upward.

    Orders must be >= 1 (order 1 contributes nothing).
    """

    first: int
    order_at: Callable[[int], int]

    def order(self, n: int) -> int:
        if n < self.first:
            raise ValueError(f"index {n} precedes the family start {self.first}")
        m = int(self.order_at(n))
        if m < 1:
            raise ValueError(f"cyclic order at index {n} must be positive")
        return m


def truncated_product(family: CyclicFamily, upto: int) -> FgAbGroup:
    """Canonical form of the finite product over indices first..upto.

    >>> fam = CyclicFamily(1, lambda n: n)
    >>> truncated_product(fam, 2)
    FgAbGroup(free_rank=0, torsion=(2,))
    """
    orders = [family.order(n) for n in range(family.first, upto + 1)]
    return FgAbGroup.from_orders(orders)


def all_ones_order(family: CyclicFamily, upto: int) -> int:
    """Order of (1, 1, ..., 1) in the truncated product: the lcm of the
    component orders."""
    return math.lcm(*(family.order(n) for n in range(family.first, upto + 1)))


def unbounded_torsion_witness(family: CyclicFamily, bound: int) -> Optional[tuple[int, ...]]:
    """Evidence of unbounded torsion within the window: the strictly
    increasing all-ones orders observed at the truncations, or None.

    Records the order of the all-ones element at each truncation and
    keeps the strictly increasing records; a single record means the
    orders never grew, which is no evidence at all.

    >>> unbounded_torsion_witness(CyclicFamily(2, lambda n: n), 6)
    (2, 6, 12, 60)
    """
    records: list[int] = []
    o = 1  # all_ones_order(family, upto), kept as a running lcm
    for upto in range(family.first, bound + 1):
        o = math.lcm(o, family.order(upto))
        if not records or o > records[-1]:
            records.append(o)
    return tuple(records) if len(records) >= 2 else None


_COUNTABLE = {"countable-product": "countable product", "countable-sum": "countable direct sum"}


@dataclass(frozen=True, eq=False)
class CountableDescriptor:
    """Symbolic countable product or direct sum of cyclic groups, by
    ``kind`` ("countable-product" or "countable-sum"); truncations of the
    two agree."""

    family: CyclicFamily
    kind: str

    def truncate(self, upto: int) -> FgAbGroup:
        return truncated_product(self.family, upto)

    def to_json(self) -> dict:
        return {"kind": self.kind, "first": self.family.first}

    def text(self) -> str:
        return f"{_COUNTABLE[self.kind]} of cyclic groups from index {self.family.first}"


# --- named towers and JSON decoding ------------------------------------------


def builtin_tower(
    name: str,
    *,
    bound: int = DEFAULT_BOUND,
    direct: bool = False,
    params: Optional[dict] = None,
):
    """Towers addressable by name from the command line.

    z-times-2      Z <-x2- Z <-x2- ... (or Z -x2-> ... when direct)
    mod2-powers    Z/2^n with reductions (inclusions x2 when direct)
    constant       constant tower on params["group"]
    trivial        constant trivial tower
    """
    from .fgab import group_from_json

    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ValueError("tower params must be an object")
    cls = DirectTower if direct else InverseTower
    if name == "z-times-2":
        z = FgAbGroup.free(1)
        doubling = Homomorphism(z, z, IntMatrix.from_rows([[2]]))
        return cls(group_at=lambda n: z, map_at=lambda n: doubling, tail=General(), bound=bound)
    if name == "mod2-powers":
        def level_group(n: int) -> FgAbGroup:
            return FgAbGroup.cyclic(2**n)

        step, factor = (1, 2) if direct else (-1, 1)  # inclusions x2, or reductions

        def connecting(n: int) -> Homomorphism:
            return Homomorphism(
                level_group(n), level_group(n + step), IntMatrix.from_rows([[factor]])
            )

        return cls(
            group_at=level_group, map_at=connecting, base=1, tail=LevelwiseFinite(), bound=bound
        )
    if name == "constant":
        if "group" not in params:
            raise ValueError("constant tower needs params.group")
        return constant_tower(group_from_json(params["group"]), bound=bound, direct=direct)
    if name == "trivial":
        return constant_tower(FgAbGroup.trivial(), bound=bound, direct=direct)
    raise ValueError(f"unknown builtin tower {name!r}")


def builtin_graded_pair(
    name: str, *, bound: int = DEFAULT_BOUND
) -> tuple[InverseTower, InverseTower]:
    """Named (degree 0, degree 1) inverse-tower pairs for Milnor assembly."""
    if name == "finite-vs-ztimes2":
        deg0 = constant_tower(FgAbGroup.cyclic(6), bound=bound)
        deg1 = builtin_tower("z-times-2", bound=bound)
        return deg0, deg1
    if name == "constant-pair":
        return (
            constant_tower(FgAbGroup.cyclic(4), bound=bound),
            constant_tower(FgAbGroup.cyclic(9), bound=bound),
        )
    if name == "mod2-powers-pair":
        return (
            builtin_tower("mod2-powers", bound=bound),
            builtin_tower("trivial", bound=bound),
        )
    raise ValueError(f"unknown builtin graded pair {name!r}")


_TAIL_TAGS = {"constant", "finite", "general"}


def tower_from_json(obj, *, bound: int = DEFAULT_BOUND, direct: bool = False):
    """Decode a tower from either form:

    {"builtin": name, "params": {...}}
    {"prefix": [group, ...], "maps": [hom, ...], "base": 0, "tail": tag}

    maps[i] connects prefix[i+1] to prefix[i] for inverse towers and
    prefix[i] to prefix[i+1] for direct ones; each map carries its own
    source and target, so a wrong orientation is rejected on first use.
    Explicit towers extend constantly (identity maps) past their prefix;
    the tail tag decides which verdict rules are allowed to fire, so tag
    "general" keeps everything bound-certified even though the extension
    happens to be constant.
    """
    from .fgab import group_from_json, hom_from_json

    if not isinstance(obj, dict):
        raise ValueError("tower JSON must be an object")
    if "builtin" in obj:
        return builtin_tower(
            obj["builtin"], bound=bound, direct=direct, params=obj.get("params")
        )
    if "prefix" not in obj:
        raise ValueError("tower JSON needs either builtin or prefix")
    for key in ("prefix", "maps"):
        if not isinstance(obj.get(key, []), list):
            raise ValueError(f"tower {key} must be a list")
    prefix = [group_from_json(g) for g in obj["prefix"]]
    if not prefix:
        raise ValueError("tower prefix must be nonempty")
    maps = [hom_from_json(m) for m in obj.get("maps", [])]
    if len(maps) != len(prefix) - 1:
        raise ValueError("tower needs exactly one map per adjacent pair of prefix groups")
    base = obj.get("base", 0)
    if not isinstance(base, int) or isinstance(base, bool):
        raise ValueError("tower base must be an integer")
    tag = obj.get("tail", "constant")
    if not isinstance(tag, str):
        raise ValueError("tower tail must be a string")
    if tag not in _TAIL_TAGS:
        raise ValueError(f"unknown tail tag {tag!r}")
    last = base + len(prefix) - 1
    if tag == "constant":
        tail: TailClass = EventuallyConstant(last)
    elif tag == "finite":
        tail = LevelwiseFinite()
    else:
        tail = General()

    def group_fn(n: int) -> FgAbGroup:
        return prefix[min(n - base, len(prefix) - 1)]

    first_map = base if direct else base + 1  # the level whose map is maps[0]

    def map_fn(n: int) -> Homomorphism:
        if n - first_map < len(maps):
            return maps[n - first_map]
        return Homomorphism.identity(prefix[-1])

    cls = DirectTower if direct else InverseTower
    return cls(group_at=group_fn, map_at=map_fn, base=base, tail=tail, bound=bound)
