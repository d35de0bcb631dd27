"""Finitely generated abelian groups in canonical form, homomorphisms
between them, and exact-sequence checking.

A group is Z^free_rank + Z/d_1 + ... + Z/d_t with each d_i >= 2 and
d_i | d_{i+1}, which makes equality of canonical forms the same thing as
isomorphism.  Elements and homomorphisms are written against the
canonical generators, free generators first, then torsion generators in
chain order.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .intlin import (
    IntMatrix,
    _parse_int,
    integer_kernel,
    lattice_coordinates,
    lattice_equal,
    matrix_from_json,
    matrix_to_json,
    smith_factors,
)


@dataclass(frozen=True)
class FgAbGroup:
    """Canonical form of a finitely generated abelian group.

    >>> FgAbGroup(1, (2, 4))
    FgAbGroup(free_rank=1, torsion=(2, 4))
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion orders must be at least 2 in canonical form")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion orders must form a divisibility chain")

    @staticmethod
    def trivial() -> "FgAbGroup":
        return FgAbGroup(0, ())

    @staticmethod
    def free(rank: int) -> "FgAbGroup":
        return FgAbGroup(rank, ())

    @staticmethod
    def cyclic(order: int) -> "FgAbGroup":
        """Z/order; order 0 means Z and order 1 the trivial group."""
        if order < 0:
            raise ValueError("cyclic order must be nonnegative")
        if order == 0:
            return FgAbGroup(1, ())
        if order == 1:
            return FgAbGroup(0, ())
        return FgAbGroup(0, (order,))

    @classmethod
    def _trusted(cls, free_rank: int, torsion: tuple[int, ...]) -> "FgAbGroup":
        """A group already in canonical form (a tuple of ints, each >= 2,
        forming a divisibility chain): validation is skipped."""
        g = object.__new__(cls)
        object.__setattr__(g, "free_rank", free_rank)
        object.__setattr__(g, "torsion", torsion)
        return g

    @staticmethod
    def from_orders(orders: Sequence[int]) -> "FgAbGroup":
        """Canonical form of a direct sum of cyclic groups of given orders.

        >>> FgAbGroup.from_orders([0, 4, 6, 1])
        FgAbGroup(free_rank=1, torsion=(2, 12))
        """
        acc = [int(x) for x in orders]
        if any(x < 0 for x in acc):
            raise ValueError("cyclic orders must be nonnegative")
        chain: list[int] = []
        for x in acc:
            _insert_order(chain, x)
        return FgAbGroup(acc.count(0), tuple(chain))

    @property
    def generator_count(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int:
        """Number of elements; 0 means infinite."""
        if self.free_rank:
            return 0
        return math.prod(self.torsion)

    def generator_orders(self) -> tuple[int, ...]:
        """Order of each canonical generator, 0 for the free ones."""
        return (0,) * self.free_rank + self.torsion

    def relation_matrix(self) -> IntMatrix:
        """Columns are the defining relations d_i * e_{free_rank + i}."""
        p = self.generator_count
        t = len(self.torsion)
        rows = []
        for i in range(p):
            rows.append(
                tuple(
                    self.torsion[j] if i == self.free_rank + j else 0 for j in range(t)
                )
            )
        return IntMatrix(p, t, tuple(rows))


def _insert_order(chain: list[int], a: int) -> None:
    """Add Z/a to the group whose invariant factors are ``chain``.

    Sweeps the chain from its largest factor down with
    Z/a + Z/c = Z/gcd(a, c) + Z/lcm(a, c): each factor becomes the lcm,
    the gcd is carried to the next smaller factor, and whatever is still
    carried at the bottom becomes a new smallest factor.  Orders 0 and 1
    leave the torsion unchanged.

    A factor that the carried order divides stays as it is, and in a
    divisibility chain those factors form a suffix of the part not yet
    swept, so a binary search skips the whole run at once.
    """
    if a < 2:
        return
    j = len(chain)
    while j:
        c = chain[j - 1]
        g = math.gcd(a, c)
        if g == a:
            j = bisect.bisect_left(chain, True, 0, j, key=lambda x: x % a == 0)
            continue
        j -= 1
        chain[j] = c // g * a
        a = g
        if a == 1:
            return
    chain.insert(0, a)


def direct_sum(g: FgAbGroup, h: FgAbGroup) -> FgAbGroup:
    """Canonical form of G + H.

    >>> direct_sum(FgAbGroup.cyclic(2), FgAbGroup.cyclic(3))
    FgAbGroup(free_rank=0, torsion=(6,))
    """
    chain = list(g.torsion)
    for d in h.torsion:
        _insert_order(chain, d)
    return FgAbGroup(g.free_rank + h.free_rank, tuple(chain))


# Most torsion factors a power may produce; SU(19) has 2^18 cyclic factors.
MAX_POWER_GENERATORS = 2**20


def power(g: FgAbGroup, k: int) -> FgAbGroup:
    """k-fold direct sum of G with itself.

    Repeating each invariant factor k times keeps the divisibility chain,
    so the result is already canonical.  A result with more than
    MAX_POWER_GENERATORS torsion factors is refused before anything is
    built; the free rank is a single integer and is not limited, and a
    power of a free or trivial group has no torsion, whatever k is.
    """
    if k < 0:
        raise ValueError("power requires k >= 0")
    if len(g.torsion) * k > MAX_POWER_GENERATORS:
        # the count itself is not printed: it can have too many digits for str()
        raise ValueError(
            f"a power with more than {MAX_POWER_GENERATORS} torsion factors is refused"
        )
    torsion = tuple(itertools.chain.from_iterable((d,) * k for d in g.torsion))
    return FgAbGroup._trusted(g.free_rank * k, torsion)


@dataclass(frozen=True)
class GroupElement:
    """Element written against the canonical generators of its group.

    Torsion coordinates are reduced into [0, d_i) on construction.
    """

    group: FgAbGroup
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.group.generator_count:
            raise ValueError("coordinate length must match generator count")
        f = self.group.free_rank
        fixed = tuple(
            int(c) % d if i >= f else int(c)
            for i, (c, d) in enumerate(
                zip(self.coords, (0,) * f + self.group.torsion)
            )
        )
        object.__setattr__(self, "coords", fixed)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def scale(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * c for c in self.coords))


def from_presentation(relations: IntMatrix) -> FgAbGroup:
    """Canonical form of Z^rows modulo the column lattice of ``relations``.

    Only the invariant factors are computed, not the change of basis.

    >>> from_presentation(IntMatrix.diagonal([2, 1, 0]))
    FgAbGroup(free_rank=1, torsion=(2,))
    """
    factors = smith_factors(relations)
    rank = sum(1 for d in factors if d)
    return FgAbGroup(relations.rows - rank, tuple(d for d in factors if d >= 2))


@dataclass(frozen=True)
class Homomorphism:
    """Map between canonical groups, as a target x source generator matrix.

    Validity is checked eagerly: for a source generator of order d, d
    times its image column must fall in the target's relation lattice,
    otherwise the matrix does not define a homomorphism and construction
    raises.  Only ``identity`` and ``compose``, whose results are valid by
    construction, skip the check.  Torsion rows are reduced modulo their
    generator order, so equal maps have equal matrices.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self) -> None:
        self._reduce()
        self._check_valid()

    @classmethod
    def _trusted(cls, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix) -> "Homomorphism":
        """A map valid by construction (an identity, a composite of valid
        maps): torsion rows are reduced as usual, validation is skipped."""
        f = object.__new__(cls)
        object.__setattr__(f, "source", source)
        object.__setattr__(f, "target", target)
        object.__setattr__(f, "matrix", matrix)
        f._reduce()
        return f

    def _reduce(self) -> None:
        if self.matrix.rows != self.target.generator_count:
            raise ValueError("matrix row count must match target generator count")
        if self.matrix.cols != self.source.generator_count:
            raise ValueError("matrix column count must match source generator count")
        ft = self.target.free_rank
        reduced = tuple(
            tuple(
                x % self.target.torsion[i - ft] if i >= ft else x
                for x in row
            )
            for i, row in enumerate(self.matrix.entries)
        )
        object.__setattr__(self, "matrix", IntMatrix(self.matrix.rows, self.matrix.cols, reduced))

    def _check_valid(self) -> None:
        # d times the image of a generator of order d must lie in the
        # target's relation lattice, spanned by t_i * e_{free_rank + i}:
        # its free rows must vanish and torsion row i must be a multiple of
        # t_i.  Free source generators (d = 0) are unconstrained.
        orders = self.source.generator_orders()
        for t, row in zip(self.target.generator_orders(), self.matrix.entries):
            if any(d and (d * x % t if t else x) for d, x in zip(orders, row)):
                raise ValueError(
                    "matrix does not define a homomorphism: some torsion generator's "
                    "image violates its order"
                )

    @staticmethod
    def identity(g: FgAbGroup) -> "Homomorphism":
        return Homomorphism._trusted(g, g, IntMatrix.identity(g.generator_count))

    def apply(self, x: GroupElement) -> GroupElement:
        if x.group != self.source:
            raise ValueError("element is not in the source group")
        col = self.matrix @ IntMatrix.column(x.coords)
        return GroupElement(self.target, col.col(0))

    def compose(self, other: "Homomorphism") -> "Homomorphism":
        """self after other (self.compose(g) is x -> self(g(x)))."""
        if other.target != self.source:
            raise ValueError("composition shape mismatch")
        return Homomorphism._trusted(other.source, self.target, self.matrix @ other.matrix)


def image_lattice(f: Homomorphism) -> IntMatrix:
    """Generators (columns) of the sublattice of Z^target_gens realizing im f.

    Contains the target relation lattice, so two image lattices agree
    exactly when the image subgroups agree.
    """
    return f.matrix.hstack(f.target.relation_matrix())


def kernel_lattice(f: Homomorphism) -> IntMatrix:
    """Generators of the sublattice of Z^source_gens realizing ker f."""
    r_t = f.target.relation_matrix()
    stacked = f.matrix.hstack(r_t)
    ker = integer_kernel(stacked)
    p = f.source.generator_count
    proj = ker.submatrix(list(range(p)), list(range(ker.cols)))
    return proj.hstack(f.source.relation_matrix())


def _subquotient(ambient: FgAbGroup, gens: IntMatrix) -> FgAbGroup:
    """Canonical form of (lattice of gens)/(ambient relations).

    gens must contain the ambient relation lattice.
    """
    # the basis has full column rank, so the coordinates of the ambient
    # relations in it are the relations of the subquotient
    found = lattice_coordinates(gens, ambient.relation_matrix())
    if found is None:
        raise ValueError("generators do not contain the ambient relation lattice")
    return from_presentation(found[1])


def kernel(f: Homomorphism) -> FgAbGroup:
    """Kernel of f as a subgroup of the source, in canonical form.

    >>> two = Homomorphism(FgAbGroup.cyclic(4), FgAbGroup.cyclic(4), IntMatrix.from_rows([[2]]))
    >>> kernel(two)
    FgAbGroup(free_rank=0, torsion=(2,))
    """
    return _subquotient(f.source, kernel_lattice(f))


def image(f: Homomorphism) -> FgAbGroup:
    """Image of f as a subgroup of the target, in canonical form."""
    return _subquotient(f.target, image_lattice(f))


def cokernel(f: Homomorphism) -> FgAbGroup:
    """target / im(f) in canonical form, without the projection."""
    return from_presentation(image_lattice(f))


def same_subgroup(a: Homomorphism, b: Homomorphism) -> bool:
    """Whether two inclusions carve out the same subgroup of one ambient
    group, decided by mutual lattice containment, not isomorphism type."""
    if a.target != b.target:
        raise ValueError("subgroups of different ambient groups")
    amb = a.target.relation_matrix()
    la = a.matrix.hstack(amb)
    lb = b.matrix.hstack(amb)
    return lattice_equal(la, lb)


@dataclass(frozen=True)
class NodeReport:
    """Exactness verdict at one interior node of a sequence."""

    node: int
    group: FgAbGroup
    exact: bool


@dataclass(frozen=True)
class ExactnessReport:
    nodes: tuple[FgAbGroup, ...]
    reports: tuple[NodeReport, ...]
    exact: bool
    first_failure: Optional[int]


def check_exact(maps: Sequence[Homomorphism]) -> ExactnessReport:
    """Check im(f_i) = ker(f_{i+1}) at every interior node.

    Node k sits between maps[k-1] and maps[k]; the endpoints are not
    checked (nothing constrains them).  Image and kernel are compared as
    subgroups through their lattices, so an image that is abstractly
    isomorphic to the kernel but sits differently still fails.
    """
    if not maps:
        raise ValueError("check_exact needs at least one map")
    for f, g in zip(maps, maps[1:]):
        if f.target != g.source:
            raise ValueError("consecutive maps do not compose")
    nodes = (maps[0].source,) + tuple(f.target for f in maps)
    reports = []
    first_failure = None
    for k in range(1, len(maps)):
        f, g = maps[k - 1], maps[k]
        ok = lattice_equal(image_lattice(f), kernel_lattice(g))
        reports.append(NodeReport(node=k, group=nodes[k], exact=ok))
        if not ok and first_failure is None:
            first_failure = k
    return ExactnessReport(
        nodes=nodes,
        reports=tuple(reports),
        exact=first_failure is None,
        first_failure=first_failure,
    )


# --- JSON and text forms -------------------------------------------------
#
# Torsion orders are decimal strings for the same reason matrix entries
# are; free_rank is a structural count and stays a plain number.


def group_to_json(g: FgAbGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": [str(d) for d in g.torsion]}


def group_text(g: FgAbGroup) -> str:
    """Compact human form, e.g. Z^2 + (Z/3)^4."""
    if g.is_trivial():
        return "0"
    parts = []
    if g.free_rank == 1:
        parts.append("Z")
    elif g.free_rank > 1:
        parts.append(f"Z^{g.free_rank}")
    run_value, run_len = None, 0
    for d in g.torsion + (None,):
        if d == run_value:
            run_len += 1
            continue
        if run_value is not None:
            parts.append(f"Z/{run_value}" if run_len == 1 else f"(Z/{run_value})^{run_len}")
        run_value, run_len = d, 1
    return " + ".join(parts)


def group_from_json(obj) -> FgAbGroup:
    if not isinstance(obj, dict) or "free_rank" not in obj or "torsion" not in obj:
        raise ValueError("group JSON must carry free_rank and torsion")
    free_rank, torsion = obj["free_rank"], obj["torsion"]
    if not isinstance(free_rank, int) or isinstance(free_rank, bool):
        raise ValueError("group free_rank must be a JSON integer")
    if not isinstance(torsion, list):
        raise ValueError("group torsion must be a list")
    return FgAbGroup(free_rank, tuple(_parse_int(d, "torsion order") for d in torsion))


def hom_to_json(f: Homomorphism) -> dict:
    return {
        "source": group_to_json(f.source),
        "target": group_to_json(f.target),
        "matrix": matrix_to_json(f.matrix),
    }


def hom_from_json(obj) -> Homomorphism:
    if not isinstance(obj, dict):
        raise ValueError("homomorphism JSON must be an object")
    try:
        source = group_from_json(obj["source"])
        target = group_from_json(obj["target"])
        matrix = matrix_from_json(obj["matrix"])
    except KeyError as exc:
        raise ValueError(f"homomorphism JSON missing field: {exc}") from exc
    return Homomorphism(source, target, matrix)


def sequence_from_json(obj) -> list[Homomorphism]:
    if not isinstance(obj, dict) or not isinstance(obj.get("maps"), list):
        raise ValueError('sequence JSON must be {"maps": [...]}')
    return [hom_from_json(h) for h in obj["maps"]]
