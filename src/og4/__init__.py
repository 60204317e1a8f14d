"""og4: finite oriented 4-valent edge-transitive graph-group pairs.

Construct certified pairs (Cayley, coset, and cycle families), verify the
defining conditions, classify normal quotients, reduce to basic pairs, and
analyze alternating cycles, s-arcs, and stabilizers.
"""

from ._kernels import BACKEND
from .analysis import (
    AlternatingStructure,
    SArcReport,
    StabilizerReport,
    alternating_structure,
    attachment_sets,
    nilpotency_class,
    s_arc_report,
    stabilizer_report,
)
from .constructions import (
    CayleySpec,
    CosetSpace,
    CosetSpec,
    alternating_group,
    build_cayley,
    build_coset_graph,
    conjugation_inventory,
    coset_simple,
    coset_space,
    cyclic_group,
    double_coset_graph,
    embed_pair,
    lexicographic_cycle,
    pa_construction,
    pgl2,
    simple_cayley,
    sym_bigstab,
    symmetric_group,
    tw_cayley,
)
from .graph import (
    Certificate,
    Connectivity,
    ConstructionRefuted,
    OGPair,
    OrientedGraph,
    VerifyOutcome,
    arc_orbit_count,
    certify_og,
    connectivity,
    export_dot,
    is_connected,
    orbital_graph,
    orientation_status,
    reverify,
    reverse_arcs,
    verify_og,
)
from .perm import (
    DEFAULT_CAP,
    BlockPartition,
    DegreeMismatch,
    EnumerationCapExceeded,
    GroupAutomorphism,
    OG4Error,
    ParseError,
    PermGroup,
    Permutation,
    TableBudgetExceeded,
    TransitivityProfile,
    all_normal_subgroups,
    compose,
    conjugacy_classes,
    conjugate,
    cycle_strings,
    enumerate_group,
    format_cycles,
    identity,
    induced_block_action,
    inverse,
    is_nonabelian_simple,
    is_normal_in,
    minimal_normal_subgroups,
    normal_closure,
    orbits,
    paired_order_bound,
    parse_permutation,
    point_stabilizer,
    quasiprimitivity_type,
    transitivity_profile,
)
from .quotient import (
    InvariantViolation,
    QuotientOutcome,
    basic_chain,
    basic_quotients,
    basic_type,
    classify_all_quotients,
    classify_og4_quotient,
    normal_quotient,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
