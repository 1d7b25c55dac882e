"""Concurrent buffer and nTSV insertion (Section III-C of the paper).

This package contains the paper's primary contribution:

* :mod:`repro.insertion.patterns` — the six edge patterns P1..P6 (Fig. 6) and
  the full / intra-side insertion modes.
* :mod:`repro.insertion.candidate` — DP candidate solutions carrying
  effective capacitance, max/min path delay, buffer and nTSV counts.
* :mod:`repro.insertion.pruning` — per-side inferior-solution pruning (the
  van Ginneken dominance rule extended to two sides) and the max-cap filter.
* :mod:`repro.insertion.dp_tree` — building the heterogeneous DP tree from a
  routed clock tree (one DP node per trunk edge, with optional segmentation
  of long edges) and per-node insertion-mode configuration.
* :mod:`repro.insertion.moes` — the multi-objective enhancement score used to
  pick the final root solution, plus the min-latency selector used in the
  Fig. 10 comparison.
* :mod:`repro.insertion.concurrent` — the multi-objective dynamic program:
  bottom-up generation, multi-objective selection, top-down decision, and
  realisation of the chosen patterns on the clock tree.
* :mod:`repro.insertion.frontier` — the vectorized DP backend: the
  candidate sets of every DP node of one tree height as one
  :class:`CandidateFrontier` struct-of-arrays, with segmented merges,
  batched pattern costs, and segmented pruning sweeps.  Selected via
  ``InsertionConfig.dp_backend`` / ``REPRO_DP_BACKEND`` (default
  ``vectorized``); the object DP in ``concurrent`` is the executable spec.
* :mod:`repro.insertion.vanginneken` — classic single-side buffer insertion
  (the paper's "Our Buffered Clock Tree" uses the same DP restricted to
  front-side patterns; this module also provides the textbook van Ginneken
  algorithm on a single wire for testing and teaching).
"""

from repro.insertion.patterns import EdgePattern, InsertionMode, PATTERNS, patterns_for
from repro.insertion.candidate import CandidateSolution
from repro.insertion.pruning import prune_per_side, prune_dominated, filter_max_cap
from repro.insertion.dp_tree import DpNode, DpTree, build_dp_tree
from repro.insertion.frontier import (
    CandidateFrontier,
    DP_BACKEND_NAMES,
    VectorizedInsertionDp,
    default_dp_backend,
    resolve_dp_backend,
)
from repro.insertion.moes import MoesWeights, select_by_moes, select_min_latency
from repro.insertion.concurrent import ConcurrentInserter, InsertionResult
from repro.insertion.vanginneken import SingleSideBufferInserter

__all__ = [
    "EdgePattern",
    "InsertionMode",
    "PATTERNS",
    "patterns_for",
    "CandidateSolution",
    "prune_per_side",
    "prune_dominated",
    "filter_max_cap",
    "DpNode",
    "DpTree",
    "build_dp_tree",
    "CandidateFrontier",
    "DP_BACKEND_NAMES",
    "VectorizedInsertionDp",
    "default_dp_backend",
    "resolve_dp_backend",
    "MoesWeights",
    "select_by_moes",
    "select_min_latency",
    "ConcurrentInserter",
    "InsertionResult",
    "SingleSideBufferInserter",
]
