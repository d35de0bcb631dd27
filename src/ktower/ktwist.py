"""Twisted K-theory and K-homology for the supported space families:
special unitary groups at a fixed twist level, their countable union,
the 3-sphere, and countable disjoint unions of 3-spheres.

Only formulas with a structural justification are applied; anything that
would require connecting maps we do not possess is decided by
map-independent rules (cofinal triviality) or reported Unproven.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd
from typing import Callable, Iterator, Optional, Union

from .fgab import FgAbGroup, power
from .towers import (
    DEFAULT_BOUND,
    CyclicFamily,
    KGradedGroup,
    Verdict,
    constant_tower,
    direct_limit,
    milnor_assemble,
)


# --- spaces -------------------------------------------------------------------

# Largest n accepted for SU(n), checked before any arithmetic.  SU(n) has
# 2^(n-1) cyclic factors, and 2^4095 still prints in 1,233 digits, well
# inside Python's 4,300-digit limit on int-to-str conversion.
MAX_SU_RANK = 4096


def _check_su_rank(n: int) -> None:
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > MAX_SU_RANK:
        raise ValueError(f"n must be at most {MAX_SU_RANK}")


@dataclass(frozen=True)
class SUFinite:
    """SU(n) with a fixed nonzero twist level."""

    n: int
    level: int

    def __post_init__(self):
        _check_su_rank(self.n)
        if self.level < 1:
            raise ValueError("level must be at least 1 (untwisted is out of scope)")

    def to_json(self) -> dict:
        return {"family": "su", "n": self.n, "level": str(self.level)}


@dataclass(frozen=True)
class SUInfinite:
    """The union of all SU(n) at a fixed nonzero twist level."""

    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be at least 1 (untwisted is out of scope)")

    def to_json(self) -> dict:
        return {"family": "su-infinite", "level": str(self.level)}


@dataclass(frozen=True)
class Sphere3:
    """The 3-sphere with a nonzero integer twist."""

    twist: int

    def __post_init__(self):
        if self.twist < 1:
            raise ValueError("twist must be at least 1 (untwisted is out of scope)")

    def to_json(self) -> dict:
        return {"family": "s3", "twist": str(self.twist)}


@dataclass(frozen=True, eq=False)
class SphereDisjointUnion:
    """Countably many 3-spheres, component k twisted by twist_of(k)."""

    twist_of: Callable[[int], int] = lambda k: k
    first: int = 1

    def __post_init__(self):
        if self.first < 1:
            raise ValueError("component indices must start at 1 or later")

    def family(self) -> CyclicFamily:
        return CyclicFamily(self.first, self.twist_of)

    def to_json(self) -> dict:
        return {"family": "s3-union", "first": self.first}


TwistedSpace = Union[SUFinite, SUInfinite, Sphere3, SphereDisjointUnion]


# --- the order parameter ------------------------------------------------------


def _running_orders(level: int) -> Iterator[int]:
    """cyclic_order(n, level) for n = 2, 3, ... in turn: level / g with
    g = gcd(level, lcm(1..n-1)), stepped by gcds with the small number i."""
    if level < 1:
        raise ValueError("level must be at least 1")
    # su.order-closed-form; the next g is gcd(level, lcm(g, i)), which is
    # g * gcd(level / g, i / gcd(g, i)) since g divides level
    g, order, i = 1, level, 1
    while order != 1:
        yield order
        i += 1
        d = gcd(order, i // gcd(g, i))
        if d != 1:
            g, order = g * d, order // d
    while True:
        yield 1


def cyclic_order(n: int, level: int) -> int:
    """Common order of the cyclic factors in the twisted K-theory of
    SU(n) at the given level: gcd of C(level+i, i) - 1 over i = 1..n-1,
    which is level / gcd(level, lcm(1..n-1)).

    >>> cyclic_order(2, 7)
    7
    >>> cyclic_order(3, 3)
    3
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return next(islice(_running_orders(level), n - 2, None))


def first_trivial_rank(level: int, bound: int) -> Optional[int]:
    """Least n in [2, bound] with cyclic_order(n, level) == 1, or None.

    The orders divide backwards (larger n divides smaller n), so once 1
    is reached every later level is 1 as well; a hit certifies cofinal
    triviality outright, not merely within the window.
    """
    orders = zip(range(2, bound + 1), _running_orders(level))
    return next((n for n, order in orders if order == 1), None)


@dataclass(frozen=True)
class DivisibilityTable:
    """Orders for n = 2..n_max at one level, with the divisibility
    verdict and the least n whose order is 1 (None if none in range)."""

    level: int
    n_max: int
    orders: tuple[int, ...]
    chain_ok: bool
    first_one: Optional[int]


def divisibility_table(level: int, n_max: int) -> DivisibilityTable:
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    orders = tuple(islice(_running_orders(level), n_max - 1))
    # su.order-closed-form makes each order divide the one before; check it
    # on the emitted orders all the same (neighbours suffice by transitivity)
    chain_ok = all(a % b == 0 for a, b in zip(orders, orders[1:]))
    first_one = orders.index(1) + 2 if 1 in orders else None
    return DivisibilityTable(
        level=level, n_max=n_max, orders=orders, chain_ok=chain_ok, first_one=first_one
    )


# --- results ------------------------------------------------------------------


@dataclass(frozen=True)
class KResult:
    """A twisted K-group: the total, an optional graded split, and the
    chain of rules that produced it."""

    space: TwistedSpace
    total: Verdict
    graded: Optional[KGradedGroup]
    provenance: tuple[str, ...]

    def __post_init__(self):
        if not self.provenance:
            raise ValueError("every result must name the rules it applied")


def _su_finite_total(space: SUFinite) -> tuple[Verdict, tuple[str, ...]]:
    order = cyclic_order(space.n, space.level)
    count = 2 ** (space.n - 1)
    total = Verdict("group", group=power(FgAbGroup.cyclic(order), count))
    notes = (
        f"each factor is cyclic of order gcd(C(level+i,i)-1, i=1..n-1) = {order}",
        f"2^(n-1) = {count} factors; the parity split is not asserted",
    )
    return total, notes


def _su_infinite_graded(
    level: int, bound: int, direct: bool
) -> tuple[Verdict, KGradedGroup, tuple[str, ...]]:
    n0 = first_trivial_rank(level, bound)
    if n0 is None:
        verdict = Verdict(
            "unproven", bound=bound, note=f"order parameter never reached 1 for n <= {bound}"
        )
        return (
            verdict,
            KGradedGroup(verdict, verdict),
            (
                "connecting maps are not pinned down; only map-independent rules apply",
                f"no n <= {bound} has trivial order parameter: verdict stays open",
            ),
        )
    notes = (
        f"order parameter is 1 from n = {n0} on (it divides backwards), so every "
        "cofinal level group is trivial",
        "verdict is map-independent: towers of trivial groups have trivial (co)limits",
    )
    trivial_tower = constant_tower(
        FgAbGroup.trivial(), base=n0, bound=max(bound, n0), direct=direct
    )
    if direct:
        deg = direct_limit(trivial_tower)
        graded = KGradedGroup(deg, deg)
        notes = notes + ("colimit taken degreewise over the level tower",)
    else:
        graded = milnor_assemble(trivial_tower, trivial_tower)
        notes = notes + (
            "Milnor assembly applied degreewise; lim^1 vanishes by the "
            "eventually-constant rule",
        )
    assert graded.k0.kind == graded.k1.kind == "trivial"
    total = Verdict("trivial", note=f"all level groups trivial from n = {n0} on")
    return total, graded, notes


def twisted_k(
    space: TwistedSpace, bound: int = DEFAULT_BOUND, *, homology: bool = False
) -> KResult:
    """Twisted K-theory of a supported space, or with ``homology`` its
    twisted K-homology.

    The two differ only in bookkeeping: K-homology totals agree with
    K-theory on the compact families, the countable union dualizes
    product to sum, and the infinite union is a direct limit instead of an
    inverse one.  Bound exhaustion (only possible for the infinite union)
    surfaces as an Unproven total, never as an error or a guess.
    """
    agrees = ("K-homology total agrees with the K-theory total",) if homology else ()
    if isinstance(space, SUFinite):
        total, notes = _su_finite_total(space)
        return KResult(space=space, total=total, graded=None, provenance=notes + agrees)
    if isinstance(space, Sphere3):
        g = Verdict("group", group=FgAbGroup.cyclic(space.twist))
        return KResult(
            space=space,
            total=g,
            graded=KGradedGroup(Verdict("group", group=FgAbGroup.trivial()), g),
            provenance=(
                "one cyclic factor of order equal to the twist, in odd degree only",
            ) + agrees,
        )
    if isinstance(space, SphereDisjointUnion):
        if homology:
            total = Verdict("countable-sum", first=space.first)
            note = (
                "K-homology of a countable union is the countable direct sum "
                "(dual to the K-theory product; finite truncations coincide)"
            )
        else:
            total = Verdict("countable-product", first=space.first)
            note = (
                "componentwise odd-degree cyclic groups; K-theory of a countable "
                "union is the countable product (kept symbolic, truncate to inspect)"
            )
        return KResult(
            space=space,
            total=total,
            graded=KGradedGroup(Verdict("group", group=FgAbGroup.trivial()), total),
            provenance=(note,),
        )
    if isinstance(space, SUInfinite):
        total, graded, notes = _su_infinite_graded(space.level, bound, direct=homology)
        return KResult(space=space, total=total, graded=graded, provenance=notes)
    raise ValueError(f"unsupported space {space!r}")

