"""Evaluation substrate: NPMI coherence, diversity, clustering, intrusion.

This package implements every metric in the paper's §V.B plus the NPMI
matrix precomputation that the ContraTopic regularizer consumes as its
similarity kernel K(·).
"""

from repro.metrics.cooccurrence import DocumentCooccurrence
from repro.metrics.npmi import NpmiMatrix, NpmiWorkspace, compute_npmi_matrix
from repro.metrics.streaming import StreamingNpmiEngine
from repro.metrics.coherence import (
    topic_coherence,
    topic_npmi_scores,
    coherence_by_percentage,
)
from repro.metrics.diversity import topic_diversity, diversity_by_percentage
from repro.metrics.clustering_metrics import purity, normalized_mutual_information
from repro.metrics.intrusion import (
    SimulatedAnnotator,
    IntrusionTask,
    build_intrusion_tasks,
    word_intrusion_score,
)
from repro.metrics.perplexity import heldout_perplexity
from repro.metrics.cv_coherence import cv_coherence, cv_per_topic

__all__ = [
    "cv_coherence",
    "cv_per_topic",
    "DocumentCooccurrence",
    "NpmiMatrix",
    "NpmiWorkspace",
    "compute_npmi_matrix",
    "StreamingNpmiEngine",
    "topic_coherence",
    "topic_npmi_scores",
    "coherence_by_percentage",
    "topic_diversity",
    "diversity_by_percentage",
    "purity",
    "normalized_mutual_information",
    "SimulatedAnnotator",
    "IntrusionTask",
    "build_intrusion_tasks",
    "word_intrusion_score",
    "heldout_perplexity",
]
