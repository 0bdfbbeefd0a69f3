"""Exact-arithmetic stability conditions and maximal green sequences.

Covers linear quivers A_n, affine cyclic quivers (given by a periodic
sign word) and the nilpotent oriented cycle: string modules, central
charges, three equivalent stability criteria, enumeration of the
maximum-size stable sets, a linearity decision procedure and verified
witness constructions, arrow collapsing, and SVG diagram emitters.
"""

__version__ = "0.1.0"

from .charges import (
    CentralCharge,
    charge_from_json,
    critical_heights,
    critical_slope,
    essential_pairs,
    height_order,
    is_finite,
    make_charge,
    normalize,
    slope,
)
from .collapse import ProjectionMap, collapse, project_charge, project_module, project_set
from .errors import (
    GreenseqError,
    InfiniteStableSet,
    InvalidCharge,
    InvalidModule,
    InvalidQuiver,
    NonGeneric,
    SpliceInvalid,
    VerificationFailed,
    WitnessSearchFailed,
)
from .linearity import (
    LinearityVerdict,
    dn_charge,
    is_linear_set,
    linear_pairs,
    reineke_charge,
    witness_linear,
    witness_spliced,
)
from .maxsets import (
    MaxSetDescriptor,
    build_Sk,
    build_Skl,
    enumerate_max_sets,
    max_mgs_length,
    valid_pairs,
)
from .quivers import (
    MINUS,
    PLUS,
    Quiver,
    QuiverKind,
    StringModule,
    affine_a,
    all_sign_words,
    canonicalize,
    cycle_quiver,
    finite_a,
    hom_dim,
    indecomposable_submodules,
    parse_quiver,
    string_module,
)
from .render import render_chord_svg, render_wire_svg
from .rng import XorShift64Star, substream
from .stability import (
    GreenSequence,
    SplicedPath,
    WallMembership,
    candidate_modules,
    equivalence_mismatches,
    fuzz_quiver,
    in_wall,
    is_semistable_chord,
    is_semistable_oracle,
    is_semistable_wire,
    is_stable_chord,
    is_stable_oracle,
    is_stable_wire,
    mgs,
    random_charge,
    spliced_mgs,
    spliced_stable_set,
    stable_set,
)

from types import ModuleType as _ModuleType

# the imports above also bind the submodules here; they are not public names
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
