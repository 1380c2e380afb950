"""Monochromatic-connectivity colorings, bounds, and random-graph threshold experiments."""

from .coloring import (
    EdgeColoring,
    McBounds,
    analyze,
    exact_mc_small,
    exactness_certificate,
    first_uncovered_pair,
    mc_lower_bound,
    mc_upper_bound,
    spanning_tree_coloring,
    verify_mc_coloring,
)
from .errors import CapExceededError, FormatError, NotConnectedError
from .files import read_coloring, read_edge_list, write_coloring, write_edge_list
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    petersen_graph,
    star_graph,
)
from .sampling import RngSeed, sample_gnp
from .threshold import (
    SweepConfig,
    SweepReport,
    ThresholdSpec,
    TrialOutcome,
    chernoff_lower_tail,
    chernoff_upper_tail,
    connectivity_prob_limit,
    decide_mc_at_least,
    run_trial,
    sweep,
    threshold_p,
    trial_seed,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "EdgeColoring",
    "FormatError",
    "Graph",
    "McBounds",
    "NotConnectedError",
    "RngSeed",
    "SweepConfig",
    "SweepReport",
    "ThresholdSpec",
    "TrialOutcome",
    "analyze",
    "chernoff_lower_tail",
    "chernoff_upper_tail",
    "complete_graph",
    "connectivity_prob_limit",
    "cycle_graph",
    "decide_mc_at_least",
    "exact_mc_small",
    "exactness_certificate",
    "first_uncovered_pair",
    "is_connected",
    "mc_lower_bound",
    "mc_upper_bound",
    "path_graph",
    "petersen_graph",
    "read_coloring",
    "read_edge_list",
    "run_trial",
    "sample_gnp",
    "spanning_tree_coloring",
    "star_graph",
    "sweep",
    "threshold_p",
    "trial_seed",
    "verify_mc_coloring",
    "write_coloring",
    "write_edge_list",
]
