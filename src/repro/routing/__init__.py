"""FPSS interdomain routing: graphs, LCP oracle, payments, protocol.

Implements the substrate of the paper's Section 4 case study: the AS
graph model, the centralized lowest-cost-path and VCG payment oracle,
the DATA1-DATA4 mechanism tables (with the DATA3* identity-tag
extension), and the distributed, trusting FPSS protocol.
"""

from .convergence import (
    ConvergenceStats,
    build_network,
    link_delay,
    measure_convergence,
    run_construction_phases,
    run_phase,
    run_plain_fpss,
    topology_from_graph,
    verify_against_oracle,
)
from .kernel import (
    KernelStats,
    MirrorKernelPool,
    ReplayKernel,
    SharedKernel,
    kernel_fixed_point,
)
from .fpss import (
    KIND_COST_DECL,
    KIND_PRICE_UPDATE,
    KIND_RT_UPDATE,
    FPSSNode,
    decode_avoid_vector,
    decode_route_vector,
    encode_avoid_vector,
    encode_route_vector,
)
from .formal import (
    FORMAL_DEVIATIONS,
    classification_of,
    formal_deviation,
    fpss_actions,
    fpss_state_machine,
    suggested_specification,
    suggested_update_round,
)
from .dynamic import (
    ChurnRunResult,
    DynamicTopologyEngine,
    EpochReport,
    run_dynamic_fpss,
    verify_epoch_equivalence,
)
from .engine import RoutingEngine, engine_for, fixed_point_digests
from .graph import ASGraph, PathCost, figure1_graph
from .lcp import (
    all_pairs_lcp,
    lcp_cost,
    lcp_tree,
    lowest_cost_path,
    total_routing_cost,
)
from .tables import (
    INFINITY,
    PaymentList,
    PricingEntry,
    PricingTable,
    RouteEntry,
    RoutingTable,
    TransitCostTable,
)
from .vcg_payments import (
    NodeEconomics,
    RoutePayments,
    all_pairs_payments,
    economics_under_traffic,
    route_payments,
    utility_of_misreport,
    vcg_transit_payment,
)

__all__ = [
    "ASGraph",
    "FORMAL_DEVIATIONS",
    "classification_of",
    "formal_deviation",
    "fpss_actions",
    "fpss_state_machine",
    "suggested_specification",
    "suggested_update_round",
    "ChurnRunResult",
    "ConvergenceStats",
    "DynamicTopologyEngine",
    "EpochReport",
    "run_dynamic_fpss",
    "verify_epoch_equivalence",
    "FPSSNode",
    "INFINITY",
    "KernelStats",
    "MirrorKernelPool",
    "ReplayKernel",
    "SharedKernel",
    "kernel_fixed_point",
    "KIND_COST_DECL",
    "KIND_PRICE_UPDATE",
    "KIND_RT_UPDATE",
    "NodeEconomics",
    "PathCost",
    "PaymentList",
    "PricingEntry",
    "PricingTable",
    "RouteEntry",
    "RoutePayments",
    "RoutingEngine",
    "RoutingTable",
    "TransitCostTable",
    "all_pairs_lcp",
    "all_pairs_payments",
    "build_network",
    "decode_avoid_vector",
    "decode_route_vector",
    "economics_under_traffic",
    "encode_avoid_vector",
    "encode_route_vector",
    "engine_for",
    "fixed_point_digests",
    "figure1_graph",
    "lcp_cost",
    "lcp_tree",
    "link_delay",
    "lowest_cost_path",
    "measure_convergence",
    "route_payments",
    "run_construction_phases",
    "run_phase",
    "run_plain_fpss",
    "topology_from_graph",
    "total_routing_cost",
    "utility_of_misreport",
    "verify_against_oracle",
]
