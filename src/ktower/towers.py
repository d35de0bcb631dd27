"""Countable towers of finitely generated abelian groups: inverse and
direct limits, lim^1 verdicts, Milnor-sequence assembly, and truncations
of countable products of cyclic groups.

Verdicts are honest: every "eventually ..." claim is certified only up
to the tower's bound, structural rules (eventually constant tails,
levelwise finiteness) are named in the verdict, and anything that would
need an unbounded search comes back Unproven instead of guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


# --- limit descriptors ------------------------------------------------------
#
# Each descriptor renders itself: to_json() is its canonical JSON object,
# tagged by "kind", and text() its one-line human form.


@dataclass(frozen=True)
class ExactLimit:
    """The limit (or colimit) is this group, by the stated rule."""

    group: FgAbGroup
    note: str = ""

    def to_json(self) -> dict:
        return {"kind": "exact-limit", "group": group_to_json(self.group), "note": self.note}

    def text(self) -> str:
        return f"{group_text(self.group)} ({self.note})"


@dataclass(frozen=True)
class TrivialLimit:
    note: str = ""

    def to_json(self) -> dict:
        return {"kind": "trivial", "note": self.note}

    def text(self) -> str:
        return f"trivial ({self.note})" if self.note else "trivial"


@dataclass(frozen=True)
class ProfiniteNontrivial:
    """Stable image orders grow without stabilizing; the limit is a
    nontrivial profinite-style object not representable here exactly."""

    evidence: tuple[int, ...]
    note: str = ""

    def to_json(self) -> dict:
        return {
            "kind": "profinite-nontrivial",
            "evidence": [str(e) for e in self.evidence],
            "note": self.note,
        }

    def text(self) -> str:
        shown = ", ".join(str(e) for e in self.evidence[:6])
        return f"profinite, nontrivial (stable image orders {shown}, ...)"


@dataclass(frozen=True)
class UnprovenLimit:
    bound: int
    note: str = ""

    def to_json(self) -> dict:
        return {"kind": "unproven", "bound": self.bound, "note": self.note}

    def text(self) -> str:
        return f"unproven at bound {self.bound}" + (f" ({self.note})" if self.note else "")


@dataclass(frozen=True)
class Lim1Zero:
    rule: str

    def to_json(self) -> dict:
        return {"kind": "zero", "rule": self.rule}

    def text(self) -> str:
        return f"zero ({self.rule})"


@dataclass(frozen=True)
class Lim1NonzeroUncomputed:
    witness_level: int
    note: str = ""

    def to_json(self) -> dict:
        return {"kind": "nonzero-uncomputed", "witness_level": self.witness_level, "note": self.note}

    def text(self) -> str:
        return f"nonzero, not computed (witness level {self.witness_level})"


@dataclass(frozen=True)
class Lim1Unproven:
    bound: int

    def to_json(self) -> dict:
        return {"kind": "unproven", "bound": self.bound}

    def text(self) -> str:
        return f"unproven at bound {self.bound}"


Lim1Descriptor = Union[Lim1Zero, Lim1NonzeroUncomputed, Lim1Unproven]


@dataclass(frozen=True)
class Unrepresentable:
    """A Milnor extension blocked by a possibly nonzero lim^1."""

    reason: str
    lim: "LimitDescriptor"
    lim1: Lim1Descriptor

    def to_json(self) -> dict:
        return {
            "kind": "unrepresentable",
            "reason": self.reason,
            "lim": self.lim.to_json(),
            "lim1": self.lim1.to_json(),
        }

    def text(self) -> str:
        return f"unrepresentable: {self.reason}"


LimitDescriptor = Union[
    ExactLimit, TrivialLimit, ProfiniteNontrivial, UnprovenLimit, Unrepresentable
]


def verdict_json(v) -> dict:
    """JSON form of a verdict: a bare group or any descriptor."""
    if isinstance(v, FgAbGroup):
        return {"kind": "group", "group": group_to_json(v)}
    return v.to_json()


def verdict_text(v) -> str:
    """Text form of a verdict: a bare group or any descriptor."""
    return group_text(v) if isinstance(v, FgAbGroup) else v.text()


# --- Mittag-Leffler verdicts ------------------------------------------------


@dataclass(frozen=True)
class MLForced:
    rule: str


@dataclass(frozen=True)
class MLVerifiedUpTo:
    bound: int


@dataclass(frozen=True)
class MLFailedAt:
    level: int
    note: str


MLVerdict = Union[MLForced, MLVerifiedUpTo, MLFailedAt]


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


def is_mittag_leffler(t: InverseTower) -> MLVerdict:
    """Whether image chains stabilize, as far as can be certified.

    Stabilization is tested on the realizing lattices (the actual
    subgroups), never on abstract isomorphism classes: the (Z, x2) tower
    has all images isomorphic to Z yet strictly decreasing, and must
    fail here.
    """
    if isinstance(t.tail, EventuallyConstant):
        return MLForced("eventually-constant tail: image chains are constant from the tail on")
    if isinstance(t.tail, LevelwiseFinite):
        return MLForced("levelwise finite: decreasing subgroup chains in a finite group stabilize")
    for level, _, stable in _bound_composites(t):
        if not stable:
            return MLFailedAt(
                level,
                f"image chain at level {level} is still strictly decreasing at depth {t.bound - level}",
            )
    return MLVerifiedUpTo(t.bound)


def lim1(t: InverseTower) -> Lim1Descriptor:
    """lim^1 verdict; never fabricated for general tails.

    Zero needs a structural rule (eventually constant or levelwise
    finite towers are Mittag-Leffler for real, not just within the
    bound).  A general tower that merely looks stable within the bound
    stays Unproven.
    """
    ml = is_mittag_leffler(t)
    if isinstance(ml, MLForced):
        return Lim1Zero(rule=f"Mittag-Leffler ({ml.rule})")
    if isinstance(ml, MLFailedAt):
        return Lim1NonzeroUncomputed(witness_level=ml.level, note=ml.note)
    return Lim1Unproven(t.bound)


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


def inverse_limit(t: InverseTower) -> LimitDescriptor:
    """Inverse limit verdict by structural rules.

    Eventually constant towers have the constant value as their limit
    (the tail is cofinal).  Levelwise finite towers are decided from
    their stable images when those stabilize within the bound: carried
    isomorphically they give the limit exactly; strictly growing orders
    are profinite-style evidence.  Everything else is Unproven.
    """
    if isinstance(t.tail, EventuallyConstant):
        g = t.group_at(t.tail.level)
        if g.is_trivial():
            return TrivialLimit(note=f"constant trivial from level {t.tail.level} on")
        return ExactLimit(g, note=f"eventually constant from level {t.tail.level} on")
    if isinstance(t.tail, LevelwiseFinite):
        n0 = _first_all_trivial(t, t.base, t.bound)
        if n0 is not None:
            return TrivialLimit(note=f"levels trivial from {n0} through bound {t.bound}")
        if t.bound - t.base < 1:
            return UnprovenLimit(t.bound, note="bound too small to analyze stable images")
        groups = []
        for level, c, is_stable in _bound_composites(t):
            if not is_stable:
                return UnprovenLimit(
                    t.bound, note=f"image chain at level {level} not stabilized within bound"
                )
            groups.append(image(c)[0])
        # map_at(L+1) carries im(C_{L+1}) onto im(C_L), since
        # C_L = map_at(L+1) o C_{L+1} by construction; the carrying is
        # isomorphic exactly when the two (finite) images have equal orders.
        orders = [g.order() for g in groups]
        if all(a == b for a, b in zip(orders, orders[1:])):
            return ExactLimit(
                groups[0],
                note=f"stable images carried isomorphically through bound {t.bound}",
            )
        if all(b > a for a, b in zip(orders, orders[1:])):
            return ProfiniteNontrivial(
                evidence=tuple(orders),
                note="stable image orders strictly increase level by level",
            )
        return UnprovenLimit(t.bound, note="stable images neither carried isomorphically nor growing")
    return UnprovenLimit(t.bound, note="no structural rule applies to a general tail")


# --- direct limit ------------------------------------------------------------


def _is_isomorphism(f: Homomorphism) -> bool:
    # A surjective endomorphism of a finitely generated abelian group is
    # injective (such groups are Hopfian), so no kernel is needed.
    return f.source == f.target and cokernel(f).is_trivial()


def direct_limit(t: DirectTower) -> LimitDescriptor:
    """Colimit verdict by structural rules.

    Eventually constant (or eventually isomorphic) towers give the
    stable value; cofinally trivial towers are trivial; a levelwise
    finite tower whose every generator dies at some later level within
    the bound is trivial.  Everything else is Unproven.
    """
    if isinstance(t.tail, EventuallyConstant):
        g = t.group_at(t.tail.level)
        if g.is_trivial():
            return TrivialLimit(note=f"constant trivial from level {t.tail.level} on")
        return ExactLimit(g, note=f"eventually constant from level {t.tail.level} on")
    n0 = _first_all_trivial(t, t.base, t.bound)
    if n0 is not None:
        return TrivialLimit(note=f"levels trivial from {n0} through bound {t.bound}")
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
        return ExactLimit(
            t.group_at(iso_from),
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
            return TrivialLimit(
                note=f"every generator of every level dies by bound {t.bound}"
            )
    return UnprovenLimit(t.bound, note="no structural rule applies within the bound")


# --- Milnor assembly ---------------------------------------------------------


@dataclass(frozen=True)
class KGradedGroup:
    """Z/2-graded result; each degree is a group or a limit descriptor."""

    k0: Union[FgAbGroup, LimitDescriptor]
    k1: Union[FgAbGroup, LimitDescriptor]

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
    vanishes by rule; otherwise the verdict is Unrepresentable and
    carries both sides of the undetermined extension.
    """
    towers = {0: deg0, 1: deg1}
    gates = {i: lim1(towers[i]) for i in (0, 1)}
    limits = {i: inverse_limit(towers[i]) for i in (0, 1)}
    out = {}
    for i in (0, 1):
        gate = gates[1 - i]
        if isinstance(gate, Lim1Zero):
            out[i] = limits[i]
        else:
            out[i] = Unrepresentable(
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


@dataclass(frozen=True)
class TorsionWitness:
    """Strictly increasing all-ones orders observed at truncations."""

    orders: tuple[int, ...]


def unbounded_torsion_witness(
    family: CyclicFamily, bound: int
) -> Optional[TorsionWitness]:
    """Evidence of unbounded torsion within the window, or None.

    Records the order of the all-ones element at each truncation and
    keeps the strictly increasing records; a single record means the
    orders never grew, which is no evidence at all.
    """
    records: list[int] = []
    o = 1  # all_ones_order(family, upto), kept as a running lcm
    for upto in range(family.first, bound + 1):
        o = math.lcm(o, family.order(upto))
        if not records or o > records[-1]:
            records.append(o)
    if len(records) < 2:
        return None
    return TorsionWitness(orders=tuple(records))


@dataclass(frozen=True, eq=False)
class CountableProductDescriptor:
    """Symbolic countable product of cyclic groups, truncatable."""

    family: CyclicFamily

    def truncate(self, upto: int) -> FgAbGroup:
        return truncated_product(self.family, upto)

    def to_json(self) -> dict:
        return {"kind": "countable-product", "first": self.family.first}

    def text(self) -> str:
        return f"countable product of cyclic groups from index {self.family.first}"


@dataclass(frozen=True, eq=False)
class CountableSumDescriptor:
    """Symbolic countable direct sum; truncations agree with the product."""

    family: CyclicFamily

    def truncate(self, upto: int) -> FgAbGroup:
        return truncated_product(self.family, upto)

    def to_json(self) -> dict:
        return {"kind": "countable-sum", "first": self.family.first}

    def text(self) -> str:
        return f"countable direct sum of cyclic groups from index {self.family.first}"


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
    z = FgAbGroup.free(1)
    if name == "z-times-2":
        doubling = Homomorphism(z, z, IntMatrix.from_rows([[2]]))
        cls = DirectTower if direct else InverseTower
        return cls(
            group_at=lambda n: z,
            map_at=lambda n: doubling,
            base=0,
            tail=General(),
            bound=bound,
        )
    if name == "mod2-powers":
        def level_group(n: int) -> FgAbGroup:
            return FgAbGroup.cyclic(2**n)

        if direct:
            def inclusion(n: int) -> Homomorphism:
                return Homomorphism(
                    level_group(n), level_group(n + 1), IntMatrix.from_rows([[2]])
                )

            return DirectTower(
                group_at=level_group,
                map_at=inclusion,
                base=1,
                tail=LevelwiseFinite(),
                bound=bound,
            )

        def reduction(n: int) -> Homomorphism:
            return Homomorphism(
                level_group(n), level_group(n - 1), IntMatrix.from_rows([[1]])
            )

        return InverseTower(
            group_at=level_group,
            map_at=reduction,
            base=1,
            tail=LevelwiseFinite(),
            bound=bound,
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

    if direct:
        def map_fn(n: int) -> Homomorphism:
            if n - base < len(maps):
                return maps[n - base]
            return Homomorphism.identity(prefix[-1])

        return DirectTower(group_at=group_fn, map_at=map_fn, base=base, tail=tail, bound=bound)

    def inv_map_fn(n: int) -> Homomorphism:
        if n - base - 1 < len(maps):
            return maps[n - base - 1]
        return Homomorphism.identity(prefix[-1])

    return InverseTower(group_at=group_fn, map_at=inv_map_fn, base=base, tail=tail, bound=bound)
