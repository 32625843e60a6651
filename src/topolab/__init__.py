"""Finite T0 spaces, hyperspaces of closed sets, and the sober, d-space,
and well-filtered reflections, with exhaustive finite checkers and
closed-form computation on two symbolically presented infinite spaces."""

from .caps import Caps, default_caps
from .core_space import (
    ContinuousMap,
    FiniteSpace,
    check_continuous,
    continuous_map,
    enumerate_continuous_maps,
    find_homeomorphism,
    from_poset,
    identity_map,
    is_homeomorphic,
)
from .errors import (
    ContractViolation,
    DslError,
    ResourceCapError,
    TopolabError,
    UnsupportedSpaceError,
    ValidationError,
)
from .families import (
    ALL_CATEGORIES,
    CategoryTag,
    RudinSets,
    RudinWitness,
    TopologicalRudinResult,
    directed_closures,
    irreducible_closed,
    is_irreducible_closed_set,
    is_irreducible_subset,
    k_family,
    point_closures,
    rudin_sets,
    rudin_witness_search,
)
from .hyperspaces import (
    ClosedFamily,
    HyperSpace,
    SmythSpace,
    box,
    diamond,
    eta,
    lower_vietoris,
    smyth_power,
    xi,
)
from .products_properties import (
    PropertyReport,
    check_kspace_product,
    check_product_reflection,
    check_smyth_category,
    predicates,
    product,
    projections,
    satisfies_category,
    way_below,
)
from .reflections import (
    DcpoCompletion,
    Reflection,
    UniversalPropertyReport,
    d_completion,
    extend,
    functor_map,
    reflect,
    sober_target_catalog,
    universal_property_report,
)
from .symbolic import (
    COFINITE,
    OMEGA_CHAIN,
    SymbolicPredicates,
    SymbolicReflection,
    SymbolicSpace,
    SymbolicVariant,
    sym_family,
    sym_predicates,
    sym_product_irr,
    sym_reflect,
    sym_space_iso,
)
from .cli_io import (
    SplitMix64,
    VerifyConfig,
    VerifyReport,
    parse,
    random_space,
    render,
    render_dot,
    render_json,
    verify,
    zoo,
    zoo_space,
)

__version__ = "0.1.0"
