"""Graded exterior-algebra dimensions standing in for periodic cyclic
homology of the special unitary family, plus the rank-consistency
predicate relating K-theory to those dimensions after tensoring with C.

Dimensions are tracked as naturals, never as vector spaces with bases;
vanishing results are derived through their rule chains, not hardcoded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .fgab import FgAbGroup
from .ktwist import KResult, SUFinite, SUInfinite, _check_su_rank, twisted_k
from .towers import DEFAULT_BOUND, Verdict


@dataclass(frozen=True)
class GradedDims:
    even: int
    odd: int

    def __post_init__(self):
        if self.even < 0 or self.odd < 0:
            raise ValueError("dimensions must be naturals")

    @property
    def total(self) -> int:
        return self.even + self.odd


@dataclass(frozen=True)
class ExteriorAlgebra:
    """Free graded-commutative algebra on generators of odd degree."""

    generator_degrees: tuple[int, ...]

    def __post_init__(self):
        degs = self.generator_degrees
        if any(d < 1 or d % 2 == 0 for d in degs):
            raise ValueError("generator degrees must be odd naturals")
        if any(b <= a for a, b in zip(degs, degs[1:])):
            raise ValueError("generator degrees must be strictly increasing")


def graded_dims(a: ExteriorAlgebra) -> GradedDims:
    """Monomial counts by parity of total degree: (1, 0) on no generators,
    else 2^(g-1) each, since every generator has odd degree.

    >>> graded_dims(ExteriorAlgebra((3,)))
    GradedDims(even=1, odd=1)
    >>> graded_dims(ExteriorAlgebra((3, 5, 7)))
    GradedDims(even=4, odd=4)
    """
    return _exterior_dims(len(a.generator_degrees))


def _exterior_dims(g: int) -> GradedDims:
    # hp.exterior-halves: even + odd = (1 + 1)^g and even - odd = (1 - 1)^g
    if g == 0:
        return GradedDims(even=1, odd=0)
    half = 1 << (g - 1)
    return GradedDims(even=half, odd=half)


def su_de_rham(n: int) -> ExteriorAlgebra:
    """De Rham model of SU(n): one generator in each odd degree
    3, 5, ..., 2n-1."""
    _check_su_rank(n)
    return ExteriorAlgebra(tuple(range(3, 2 * n, 2)))


@dataclass(frozen=True)
class HpTowerReport:
    """The restriction tower of graded dimensions up to a truncation."""

    truncation: int
    levels: tuple[tuple[int, GradedDims], ...]
    surjective_steps: tuple[int, ...]
    lim1: Verdict
    limit_note: str


def hp_su_infinity(truncation: int) -> HpTowerReport:
    """Inverse-system report for the union of all SU(n).

    Every restriction is surjective and every level is a
    finite-dimensional vector space, which is exactly the situation
    where the derived-limit obstruction vanishes; the limit itself is
    kept formal because the dimensions grow without bound.
    """
    if truncation < 2:
        raise ValueError("truncation must be at least 2")
    # every level's generators are a prefix of the top level's: one check
    su_de_rham(truncation)
    levels = tuple((n, _exterior_dims(n - 1)) for n in range(2, truncation + 1))
    return HpTowerReport(
        truncation=truncation,
        levels=levels,
        # restriction along SU(n-1) in SU(n) keeps the generators of degree
        # below 2n-1 and kills the top one, so every step n -> n-1 is onto;
        # comparing dimensions here would only test graded_dims against itself
        surjective_steps=tuple(range(3, truncation + 1)),
        lim1=Verdict("zero", rule="levelwise finite-dimensional with surjective restrictions"),
        limit_note=(
            "formal inverse limit; graded dimensions double with each level, "
            "so the limit is not finite-dimensional"
        ),
    )


# --- rank consistency ---------------------------------------------------------


@dataclass(frozen=True)
class ChernCheck:
    passed: bool
    k_rank: int
    hp_dim: int
    detail: str


def _rank_of_total(total) -> int:
    if isinstance(total, FgAbGroup):
        return total.free_rank
    if total.kind == "trivial":
        return 0
    if total.kind == "exact-limit":
        return total.group.free_rank
    raise ValueError(
        "cannot rationalize an unresolved limit descriptor; rerun with a bound "
        "that settles the K-group first"
    )


def chern_rank_check(k: Union[KResult, FgAbGroup], hp_total_dim: int) -> ChernCheck:
    """Rank-level shadow of the character isomorphism after tensoring
    with C: the rationalized rank of the K-total must equal the total
    HP dimension.

    >>> chern_rank_check(FgAbGroup(2, (3,)), 2).passed
    True
    """
    if hp_total_dim < 0:
        raise ValueError("hp_total_dim must be a natural")
    total = k.total if isinstance(k, KResult) else k
    rank = _rank_of_total(total)
    if rank == hp_total_dim:
        return ChernCheck(True, rank, hp_total_dim, "ranks agree")
    return ChernCheck(
        False,
        rank,
        hp_total_dim,
        f"rationalized K-rank {rank} differs from HP dimension {hp_total_dim}",
    )


# --- twisted HP ----------------------------------------------------------------


@dataclass(frozen=True)
class TwistedHpResult:
    dims: GradedDims
    provenance: tuple[str, ...]

    def __post_init__(self):
        if not self.provenance:
            raise ValueError("every result must name the rules it applied")


_TORSION_CHAIN = (
    "twisted K-total is pure torsion (rationalized rank 0)",
    "tensoring with C kills torsion, so the rationalized K-group is 0",
    "the character becomes a rank isomorphism after tensoring with C, forcing "
    "both HP parities to vanish",
)


def _vanishing_from_torsion(total: FgAbGroup) -> GradedDims:
    if total.free_rank != 0:
        raise ValueError("vanishing rule chain needs a pure-torsion K-group")
    return GradedDims(0, 0)


def twisted_hp(
    space: Union[SUFinite, SUInfinite], bound: int = DEFAULT_BOUND
) -> TwistedHpResult:
    """Twisted periodic cyclic dimensions, derived by rule chain.

    Finite level: the twisted K-total is finite torsion, so everything
    vanishes after tensoring with C.  Infinite union: the same rule
    applies at every level, and the level tower of zero spaces has zero
    limit and zero derived limit.
    """
    if isinstance(space, SUFinite):
        dims = _vanishing_from_torsion(twisted_k(space).total)
        return TwistedHpResult(dims=dims, provenance=_TORSION_CHAIN)
    if isinstance(space, SUInfinite):
        for n in range(2, 7):
            # raises if any sampled level were not pure torsion
            _vanishing_from_torsion(twisted_k(SUFinite(n, space.level)).total)
        chain = _TORSION_CHAIN + (
            "the finite-level rule applies at every n (each level total is finite "
            "torsion); sample window n = 2..6 checked explicitly",
            "the level tower of twisted HP is the zero tower: limit and derived "
            "limit both vanish, so the graded limit sequence collapses to 0",
        )
        return TwistedHpResult(dims=GradedDims(0, 0), provenance=chain)
    raise ValueError(f"twisted HP is only modeled for the SU family, not {space!r}")
