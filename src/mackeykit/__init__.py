"""Exact computational algebra for finite-group equivariant mathematics.

The layers, from the ground up:

- groups:      finite groups, subgroup classes, double cosets
- gsets:       finite G-sets with products, pullbacks and canonical forms
- burnside:    the span category, its tensor structure, duality and marks
- mackey:      Mackey functors with exact integer levels
- convolution: box products and Green functors
- homalg:      modules, resolutions, Tor and spectral sequences
- ktheory:     K0 of G-sets over orbits and the Burnside comparison
"""

from .abgroups import FinPresAbGroup
from .burnside import (
    BurnsideElement,
    burnside_ring_table,
    compose,
    dual,
    hom_basis,
    table_of_marks,
    tensor,
)
from .convolution import (
    GreenFunctor,
    GreenModule,
    box,
    box_assoc_iso,
    box_comm_iso,
    box_unit_iso,
    burnside_green,
    green_from_levelwise,
    internal_hom_rep,
    validate_green,
    validate_module,
)
from .groups import BUILTIN_GROUP_NAMES, FiniteGroup, builtin_group, load_group
from .gsets import (
    GMap,
    GSet,
    coproduct,
    find_isomorphism,
    orbit_decompose,
    point_gset,
    product,
    pullback,
    standard_orbit,
)
from .homalg import (
    ChainComplex,
    FilteredComplex,
    FreeModule,
    free_module,
    module_resolution,
    rel_box,
    skeletal_filtration,
    ss_pages,
    tor,
)
from .intmat import smith_normal_form
from .jsonio import code_from_json
from .ktheory import bpq_verify, k0_green, k0_mackey, k0_of_slice
from .mackey import (
    MackeyFunctor,
    MackeyMorphism,
    burnside_mackey,
    cokernel,
    direct_sum,
    fixed_point_mackey,
    hom_mackey,
    image,
    kernel,
    mackey_from_levels,
    representable,
)

__version__ = "0.1.0"
