"""linkdecay: scoring and evaluating the decay of links in evolving
directed networks.

The package turns classic link-prediction measures into decay scores in
two ways — negating them, or evaluating them on the complement graph via
closed forms — and ships the machinery around that idea: temporal event
streams and snapshots, an exhaustive complement oracle for validating the
closed forms, an average-precision evaluation protocol with a
creation-side mirror, edge-survival analysis, and a seeded synthetic
generator with plantable decay signals.
"""

from .datasets import (SWIM_SURF_NODES, random_directed_graph,
                       random_reciprocal_graph, swim_surf, swim_surf_events)
from .events import (EdgeEvent, EventFormatError, IngestStats, PresenceIntervals,
                     TemporalEdgeList, read_events, read_id_map)
from .evaluation import (APResult, EdgeLifetimes, EvaluationSplit,
                         SurvivalFit, average_precision, edge_ages,
                         edge_lifetimes, evaluate, evaluate_link_prediction,
                         fit_exponential_half_life, random_baseline,
                         survival_curve, sweep, temporal_split)
from .generate import GenConfig, deletion_share, generate, solve_window_span
from .graph import DegreeCombination, Graph, PairFeatures, pair_features, snapshot_at
from .oracle import (OracleReport, brute_force_g2, check_closed_form,
                     materialize_complement, raw_measure, symmetrize)
from .scoring import (Measure, ScoredEdge, ScoreModel, ScoreSpec, all_specs,
                      complement_network_score, complement_score, decay_score,
                      link_prediction_score, score_batch, score_matrix)

__version__ = "0.1.0"

__all__ = [
    "APResult",
    "DegreeCombination",
    "EdgeEvent",
    "EdgeLifetimes",
    "EvaluationSplit",
    "EventFormatError",
    "GenConfig",
    "Graph",
    "IngestStats",
    "Measure",
    "OracleReport",
    "PairFeatures",
    "PresenceIntervals",
    "SWIM_SURF_NODES",
    "ScoreModel",
    "ScoreSpec",
    "ScoredEdge",
    "SurvivalFit",
    "TemporalEdgeList",
    "all_specs",
    "average_precision",
    "brute_force_g2",
    "check_closed_form",
    "complement_network_score",
    "complement_score",
    "decay_score",
    "deletion_share",
    "edge_ages",
    "edge_lifetimes",
    "evaluate",
    "evaluate_link_prediction",
    "fit_exponential_half_life",
    "generate",
    "link_prediction_score",
    "materialize_complement",
    "pair_features",
    "random_baseline",
    "random_directed_graph",
    "random_reciprocal_graph",
    "raw_measure",
    "read_events",
    "read_id_map",
    "score_batch",
    "score_matrix",
    "snapshot_at",
    "solve_window_span",
    "survival_curve",
    "swim_surf",
    "swim_surf_events",
    "sweep",
    "symmetrize",
    "temporal_split",
]
