"""Exact computations with finitely generated abelian groups and countable
towers, driving twisted K-theory and periodic cyclic homology examples for
SU(n), SU(infinity), the 3-sphere, and countable disjoint unions.

The layers build on each other:

- `intlin`: integer matrices, Smith normal form, lattice coordinates.
- `fgab`: finitely generated abelian groups, homomorphisms, exactness.
- `towers`: inverse and direct towers, limit, lim^1 and Mittag-Leffler
  verdicts, countable product and sum bookkeeping.
- `ktwist`: the twisted K-theory and K-homology computations for the
  supported spaces.
- `cyclic`: exterior-algebra dimension counts and the periodic cyclic
  homology side, including the rank comparison against K-theory.
- `cli`: the `ktower` command line front end.
"""

from .intlin import (
    IntMatrix,
    SmithDecomposition,
    integer_kernel,
    lattice_coordinates,
    lattice_equal,
    matrix_from_json,
    matrix_to_json,
    smith_factors,
    snf,
)
from .fgab import (
    ExactnessReport,
    FgAbGroup,
    GroupElement,
    Homomorphism,
    check_exact,
    cokernel,
    direct_sum,
    from_presentation,
    group_from_json,
    group_to_json,
    hom_from_json,
    hom_to_json,
    image,
    kernel,
    power,
    same_subgroup,
)
from .towers import (
    CyclicFamily,
    DirectTower,
    EventuallyConstant,
    General,
    InverseTower,
    KGradedGroup,
    LevelwiseFinite,
    Verdict,
    all_ones_order,
    builtin_graded_pair,
    builtin_tower,
    constant_tower,
    direct_limit,
    inverse_limit,
    is_mittag_leffler,
    lim1,
    milnor_assemble,
    tower_from_json,
    truncated_product,
    unbounded_torsion_witness,
)
from .ktwist import (
    DivisibilityTable,
    KResult,
    Sphere3,
    SphereDisjointUnion,
    SUFinite,
    SUInfinite,
    cyclic_order,
    divisibility_table,
    first_trivial_rank,
    twisted_k,
)
from .cyclic import (
    ChernCheck,
    ExteriorAlgebra,
    GradedDims,
    HpTowerReport,
    TwistedHpResult,
    chern_rank_check,
    graded_dims,
    hp_su_infinity,
    su_de_rham,
    twisted_hp,
)

__version__ = "0.1.0"

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "integer_kernel",
    "lattice_coordinates",
    "lattice_equal",
    "matrix_from_json",
    "matrix_to_json",
    "smith_factors",
    "snf",
    "ExactnessReport",
    "FgAbGroup",
    "GroupElement",
    "Homomorphism",
    "check_exact",
    "cokernel",
    "direct_sum",
    "from_presentation",
    "group_from_json",
    "group_to_json",
    "hom_from_json",
    "hom_to_json",
    "image",
    "kernel",
    "power",
    "same_subgroup",
    "CyclicFamily",
    "DirectTower",
    "EventuallyConstant",
    "General",
    "InverseTower",
    "KGradedGroup",
    "LevelwiseFinite",
    "Verdict",
    "all_ones_order",
    "builtin_graded_pair",
    "builtin_tower",
    "constant_tower",
    "direct_limit",
    "inverse_limit",
    "is_mittag_leffler",
    "lim1",
    "milnor_assemble",
    "tower_from_json",
    "truncated_product",
    "unbounded_torsion_witness",
    "DivisibilityTable",
    "KResult",
    "Sphere3",
    "SphereDisjointUnion",
    "SUFinite",
    "SUInfinite",
    "cyclic_order",
    "divisibility_table",
    "first_trivial_rank",
    "twisted_k",
    "ChernCheck",
    "ExteriorAlgebra",
    "GradedDims",
    "HpTowerReport",
    "TwistedHpResult",
    "chern_rank_check",
    "graded_dims",
    "hp_su_infinity",
    "su_de_rham",
    "twisted_hp",
]
