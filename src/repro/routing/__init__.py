"""Clock routing: topology generation and deferred-merge embedding (DME).

Implements Section III-B of the paper:

* :mod:`repro.routing.topology` — abstract binary topologies over terminals
  and the greedy nearest-neighbour *matching* topology generator (Fig. 5(c)).
* :mod:`repro.routing.dme` — the scalar DME router (the executable spec):
  bottom-up merging-region construction with Elmore-balanced edge allotment,
  then top-down embedding that minimises wirelength.
* :mod:`repro.routing.dme_arrays` — the level-batched array DME backend
  (decision-identical to the scalar router) plus the shared
  :func:`~repro.routing.dme_arrays.create_dme_router` factory through which
  flow code selects backends (``BackendSelection.dme`` via
  ``CtsConfig.backends`` / ``--dme-backend`` / ``REPRO_DME_BACKEND``).
* :mod:`repro.routing.hierarchical` — the paper's hierarchical clock routing:
  dual-level clustering + per-cluster DME + top-level DME, producing the
  initial (unbuffered) :class:`~repro.ir.DesignArrays` design.
"""

from repro.routing.topology import TopologyNode, matching_topology, balanced_bipartition_topology
from repro.routing.dme import DmeRouter, DmeTerminal, EmbeddedNode
from repro.routing.dme_arrays import (
    DEFAULT_DME_BACKEND,
    DME_BACKEND_NAMES,
    VectorizedDmeRouter,
    create_dme_router,
    default_dme_backend,
    resolve_dme_backend,
)
from repro.routing.hierarchical import DesignRoutingResult, HierarchicalClockRouter

__all__ = [
    "TopologyNode",
    "matching_topology",
    "balanced_bipartition_topology",
    "DmeRouter",
    "DmeTerminal",
    "EmbeddedNode",
    "DEFAULT_DME_BACKEND",
    "DME_BACKEND_NAMES",
    "VectorizedDmeRouter",
    "create_dme_router",
    "default_dme_backend",
    "resolve_dme_backend",
    "DesignRoutingResult",
    "HierarchicalClockRouter",
]
