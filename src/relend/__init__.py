"""Workbench for coset-graph geometry of group pairs and coinduced shifts.

Build finite balls of the coset graph of a finitely generated pair (G, K),
estimate how many ends the pair has, trivialise block-coded cocycles over
one-ended pairs, and collect non-coboundary evidence when the end count
exceeds one.
"""

from .coset_graph import (
    BallCache,
    CosetGraph,
    Path,
    ball_around,
    build_ball,
    distance,
    geodesic_to,
    neighborhood,
    two_sided_geodesic,
)
from .cocycles import (
    CocycleSpec,
    EdgeWitness,
    constant_cocycle,
    edge_witness,
    evaluate,
    evaluate_word,
    locality_check,
    path_difference,
    pattern_key,
    plant_cocycle,
    verify_relations,
    window_patterns,
    window_region,
)
from .ends import (
    EndsReport,
    capacity,
    components_outside_ball,
    cross_check_quotient,
    estimate_ends,
)
from .groups import (
    BsGroup,
    CosetId,
    FreeGroup,
    Group,
    GroupElement,
    ProductGroup,
    Witness,
    ZdGroup,
    ZmodGroup,
    ball_elements,
    coset_cocycle,
    coset_of,
    iter_ball,
    k_ball,
    verify_witness,
    witness,
)
from .obstruction import (
    AlmostInvariantSet,
    bounded_coboundary_search,
    builtin_set,
    generator_boundaries,
    rho_forcing_check,
    sign_cocycle,
    sign_cocycle_spec,
    verify_sign_identity,
)
from .patterns import (
    Alphabet,
    Pattern,
    act,
    empty_pattern,
    make_pattern,
    pattern_norm,
    random_pattern,
    restrict,
    trivial_alphabet,
    verify_coinduced_fixed_point,
)
from .trivialize import TransferTable, Trivializer, TrivializeReport

__all__ = [name for name in dir() if not name.startswith("_")]
