"""Exact machinery for Hadwiger-type conjectures on graphs with
independence number two: bitset graphs, matchings, fractional
clique-cover certificates, named constructions, and conjecture checkers.
"""

from .graphs import (
    Graph,
    InflationSpec,
    INFINITE,
    adjacent_twins,
    alpha_at_most_2,
    blow_up,
    complement,
    diameter,
    girth,
    induced_subgraph,
    inflate,
    is_connected,
    odd_girth,
    twins,
    vertex_connectivity,
)
from .graph6 import read_graph6, write_graph6
from .matching import (
    Matching,
    chromatic_number_alpha2,
    gallai_edmonds,
    is_factor_critical,
    is_vertex_critical_alpha2,
    matching_number,
    maximum_matching,
)
from .cliques import clique_number, max_clique
from .certificates import (
    CliqueFamilyCertificate,
    GoodBadPartition,
    aktf_bound,
    clebsch_certificate,
    classify_good_bad_outcome,
    four_cover_check,
    good_bad_partition,
    kneser_certificate,
    lift_certificate,
    lift_cover,
    mesner_certificate,
    theta_f_lower_via_omega,
    theta_f_upper,
    verify_certificate,
)
from .constructions import (
    ConstructionError,
    andrasfai,
    cayley_abelian,
    clebsch,
    complete,
    cycle,
    eberhard,
    generalized_kneser_geq,
    generalized_kneser_leq,
    hoffman_singleton,
    hypercube,
    kneser,
    kneser_labels,
    petersen,
    sum_free_checks,
    triangle_free_process,
    wheel5,
)
from .steiner import SteinerSystem, gewirtz, higman_sims, mesner, steiner_3_6_22
from .conjectures import (
    KModel,
    Outcome,
    connected_dominating_matching,
    connected_matching_max,
    connected_matching_number,
    connected_perfect_matching_search,
    dominating_edge,
    eberhard_model,
    girth5_cdm_construct,
    had2,
    k_model_size2_max,
    seagull_conditions,
    seagull_pack_exact,
    unavoidable_scan,
    verify_k_model,
)
from .screening import ScreeningReport, table1_screen
from .generation import connected_alpha2_graphs, triangle_free_graphs

__version__ = "0.1.0"
