"""Closure-operator toolkit for families of partial orders.

Library surface: relation algebra on a labelled ground set, the scaled
attribute context with both routes to its closure operator, union-free
generic family detection plus two enumerators, and a connectedness lab
with a seeded falsification search.  ``ufgkit.cli`` exposes the same
machinery on the command line.
"""

from .errors import (
    CombinatorialBudgetExceeded,
    DuplicateLabel,
    EmptyFamily,
    EmptyGroundSet,
    FamilyTooSmall,
    GroundSetTooLarge,
    InconsistentAttributes,
    IndexOutOfRange,
    InvalidFormat,
    MemberNotInFamily,
    MixedGroundSets,
    NotAntisymmetric,
    NotTransitive,
    NotUfgInput,
    ObjectNotInContext,
    ReflexivePairRejected,
    UfgkitError,
    UnknownLabel,
)
from .orders import (
    CAP_ENV_VAR,
    DEFAULT_GROUND_CAP,
    BinaryRelation,
    GroundSet,
    Poset,
    PosetInterval,
    canonical_family,
    canonical_key,
    complete_relation,
    empty_poset,
    enumerate_all_posets,
    intersect_family,
    make_poset,
    resolve_cap,
    transitive_closure,
    union_family,
)
from .context import (
    ALL_POSETS,
    LEQ,
    NLEQ,
    Attribute,
    DistinguishingSet,
    FormalContext,
    PhiExtent,
    all_attributes,
    distinguishing,
    gamma_explicit,
    gamma_interval,
    implication_valid,
    incidence,
    parse_attribute,
    partition_distinguishing,
    phi,
    psi,
)
from .ufg import (
    DEFAULT_SUBSET_BUDGET,
    UfgCatalog,
    UfgCertificate,
    candidate_filter,
    default_max_family_size,
    enumerate_ufg_connected,
    enumerate_ufg_exhaustive,
    explain_not_ufg,
    family_key,
    is_generic,
    is_ufg,
    is_ufg_by_distinguishing,
    is_union_free,
    is_union_free_bruteforce,
    is_witness,
    iter_witnesses,
)
from .connectedness import (
    SCENARIO_CHECK_ORDER,
    ConnectednessReport,
    CorrigendumScenario,
    FalsificationReport,
    ScenarioCheck,
    ConnectednessViolation,
    corrigendum_inputs,
    falsification_search,
    has_predecessor,
    random_pool,
    random_poset,
    run_corrigendum,
    verify_connectedness,
)

__version__ = "0.1.0"
