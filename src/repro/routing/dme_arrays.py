"""Level-batched array backend for DME clock routing (the fast engine).

Mirrors the two-engine pattern of :mod:`repro.timing` and
:mod:`repro.insertion.frontier`: the per-node scalar
:class:`~repro.routing.dme.DmeRouter` is the executable spec, and this
module is the production backend.  The abstract topology is flattened once
into struct-of-arrays form and every topology *level* is processed as whole
numpy vectors:

* the bottom-up phase computes merging-segment endpoints, Elmore
  edge-length balancing (a 64-step vector bisection with detour/saturation
  masks), and merged cap/delay for all same-level merge records at once
  through the batched TRR helpers in :mod:`repro.geometry.trr`,
* the top-down phase embeds each level by clamping the parents' rotated
  coordinates against the children's merging regions in one shot, and
* the :class:`~repro.routing.dme.EmbeddedNode` tree is realised from the
  child/edge back-pointer arrays in the scalar router's exact node order.

Levels smaller than ``min_batch`` fall back to the shared scalar merge
arithmetic (:func:`repro.routing.dme.merge_step`), so degenerate chain
topologies run at scalar speed instead of paying per-level numpy dispatch.

Both backends are kept *decision-identical*: the vector code replicates the
scalar balance/detour/region arithmetic operation for operation (bit-equal
floats, including the bisection trajectory), leaves are embedded at their
terminal's exact location, and the realised children order matches the
scalar embedding, so the two backends return node-for-node identical trees.
``tests/test_routing_dme_vectorized.py`` enforces this on seeded and
hypothesis-generated designs through the differential harness.

Backends are selected through ``BackendSelection.dme`` (on
``CtsConfig.backends``) / ``dscts --dme-backend`` / the ``REPRO_DME_BACKEND``
environment variable, defaulting to ``vectorized``; flow code obtains routers
through :func:`create_dme_router` rather than instantiating either class ad
hoc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Point
from repro.geometry.trr import (
    TiltedRect,
    merging_region_arrays,
    nearest_point_arrays,
    rect_distance_arrays,
)
from repro.routing.dme import DmeRouter, DmeTerminal, EmbeddedNode, merge_step
from repro.routing.topology import TopologyNode, matching_topology
from repro.tech.layers import LayerRC

#: Backend used when neither the caller, the config, nor the environment
#: chooses one.  Mirrors ``repro.flow.config.DME_BACKEND_CHOICE`` (kept as
#: literals here because importing ``repro.flow.config`` at module scope
#: would pull the flow package into every routing import).
DEFAULT_DME_BACKEND = "vectorized"

DME_BACKEND_NAMES = ("reference", "vectorized")

#: Levels with fewer merge records than this run the shared scalar
#: arithmetic instead of numpy (vector dispatch overhead dominates there).
DEFAULT_MIN_BATCH = 8


def default_dme_backend() -> str:
    """The DME backend used for ``backend=None`` (env override included)."""
    # Deferred import: repro.flow.config transitively imports heavy packages.
    from repro.flow.config import DME_BACKEND_CHOICE

    return DME_BACKEND_CHOICE.default_name()


def resolve_dme_backend(name: str | None) -> str:
    """Resolve an explicit/None backend name against the environment default."""
    from repro.flow.config import DME_BACKEND_CHOICE

    return DME_BACKEND_CHOICE.resolve(name)


def create_dme_router(
    layer: LayerRC,
    detour_allowed: bool = True,
    backend: str | None = None,
) -> "DmeRouter | VectorizedDmeRouter":
    """Build the requested DME router (the shared factory).

    Flow code must obtain DME routers here (or via the config surfaces that
    feed ``backend``) so the whole library can be switched between the
    level-batched array router and the per-node reference implementation —
    per call site, per flow (``BackendSelection.dme``), from the CLI
    (``--dme-backend``), or globally via ``REPRO_DME_BACKEND``.
    """
    name = resolve_dme_backend(backend)
    if name == "reference":
        return DmeRouter(layer, detour_allowed=detour_allowed)
    return VectorizedDmeRouter(layer, detour_allowed=detour_allowed)


@dataclass
class _TopologyArrays:
    """A binary topology flattened to struct-of-arrays (pre-order indices).

    ``left`` / ``right`` / ``parent`` are node indices (``-1`` when absent),
    ``term`` is the terminal index for leaves (``-1`` for merge nodes),
    ``height`` is the distance from the deepest leaf (leaves are 0), and
    ``depth`` the distance from the root.  Pre-order numbering guarantees
    every child index is greater than its parent's.
    """

    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    term: np.ndarray
    height: np.ndarray
    depth: np.ndarray

    @property
    def size(self) -> int:
        return int(self.term.size)


def _flatten(root: TopologyNode) -> _TopologyArrays:
    """Flatten ``root`` iteratively (deep chains are legal topologies)."""
    left: list[int] = []
    right: list[int] = []
    parent: list[int] = []
    term: list[int] = []
    stack: list[tuple[TopologyNode, int, bool]] = [(root, -1, False)]
    while stack:
        node, par, is_right = stack.pop()
        index = len(term)
        left.append(-1)
        right.append(-1)
        parent.append(par)
        term.append(node.terminal_index if node.is_leaf else -1)
        if par >= 0:
            if is_right:
                right[par] = index
            else:
                left[par] = index
        if not node.is_leaf:
            if len(node.children) != 2:
                raise ValueError(
                    "DME topologies must be binary; internal node has "
                    f"{len(node.children)} children"
                )
            # Right pushed first so the left child pops (and numbers) first.
            stack.append((node.children[1], index, True))
            stack.append((node.children[0], index, False))
    n = len(term)
    left_arr = np.asarray(left, dtype=np.int64)
    right_arr = np.asarray(right, dtype=np.int64)
    parent_arr = np.asarray(parent, dtype=np.int64)
    term_arr = np.asarray(term, dtype=np.int64)
    height = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):  # children have larger indices
        if term_arr[i] < 0:
            height[i] = 1 + max(height[left_arr[i]], height[right_arr[i]])
    depth = np.zeros(n, dtype=np.int64)
    for i in range(1, n):  # parents have smaller indices
        depth[i] = depth[parent_arr[i]] + 1
    return _TopologyArrays(
        left=left_arr,
        right=right_arr,
        parent=parent_arr,
        term=term_arr,
        height=height,
        depth=depth,
    )


def _group_by(values: np.ndarray) -> list[np.ndarray]:
    """Index groups ``[values == 0, values == 1, ...]`` up to the maximum."""
    order = np.argsort(values, kind="stable")
    bounds = np.searchsorted(values[order], np.arange(int(values.max()) + 2))
    return [order[bounds[k] : bounds[k + 1]] for k in range(len(bounds) - 1)]


@dataclass
class DmeEmbedding:
    """A routed DME solution kept in array form (the IR-native result).

    Holds the flattened topology plus the bottom-up merge state and the
    top-down embedding coordinates — everything :meth:`VectorizedDmeRouter.route`
    computes *before* realising :class:`~repro.routing.dme.EmbeddedNode`
    objects.  IR-flow callers materialise design rows straight from these
    arrays; :meth:`realise` recovers the exact object tree at boundaries.

    ``arrays`` is ``None`` for single-terminal nets (no merge happened); the
    root accessors then fall through to the lone terminal.
    """

    terminals: list[DmeTerminal]
    arrays: _TopologyArrays | None
    state: dict[str, np.ndarray] | None
    x: np.ndarray | None
    y: np.ndarray | None

    @property
    def is_single(self) -> bool:
        return self.arrays is None

    @property
    def root_location(self) -> Point:
        if self.arrays is None:
            return self.terminals[0].location
        return Point(float(self.x[0]), float(self.y[0]))

    @property
    def root_capacitance(self) -> float:
        if self.arrays is None:
            return self.terminals[0].capacitance
        return float(self.state["cap"][0])

    @property
    def root_delay(self) -> float:
        if self.arrays is None:
            return self.terminals[0].delay
        return float(self.state["delay"][0])

    def realise(self) -> EmbeddedNode:
        """Build the object embedding (identical to :meth:`route`'s return)."""
        if self.arrays is None:
            term = self.terminals[0]
            return EmbeddedNode(
                location=term.location,
                terminal=term,
                subtree_capacitance=term.capacitance,
                subtree_delay=term.delay,
            )
        return VectorizedDmeRouter._realise(
            self.arrays, self.terminals, self.state, self.x, self.y
        )


class VectorizedDmeRouter:
    """Elmore-balanced DME over a single metal layer, one level per batch.

    Drop-in decision-identical replacement for :class:`DmeRouter`; see the
    module docstring for the batching scheme and the identity contract.

    Args:
        layer: metal layer whose unit RC balances the merges.
        detour_allowed: add wire detour when no split balances (the scalar
            router's knob, same semantics).
        min_batch: levels with fewer merge records run the shared scalar
            arithmetic; tests set 1 to force every lane through numpy.
    """

    def __init__(
        self,
        layer: LayerRC,
        detour_allowed: bool = True,
        min_batch: int = DEFAULT_MIN_BATCH,
    ) -> None:
        self.layer = layer
        self.detour_allowed = detour_allowed
        self.min_batch = max(1, int(min_batch))

    # -------------------------------------------------------------- public
    def route(
        self,
        terminals: list[DmeTerminal],
        root_location: Point | None = None,
        topology: TopologyNode | None = None,
    ) -> EmbeddedNode:
        """Route the terminals and return the embedded tree.

        Same contract as :meth:`DmeRouter.route`; the returned tree is
        node-for-node identical to the scalar router's.
        """
        return self.embed(terminals, root_location, topology).realise()

    def embed(
        self,
        terminals: list[DmeTerminal],
        root_location: Point | None = None,
        topology: TopologyNode | None = None,
    ) -> DmeEmbedding:
        """Route the terminals and return the solution in array form.

        The IR-native entry point: identical decisions to :meth:`route`
        (same topology, merge state, and embedding coordinates) without
        realising :class:`EmbeddedNode` objects.  ``embed(...).realise()``
        equals ``route(...)`` node for node.
        """
        if not terminals:
            raise ValueError("DME needs at least one terminal")
        if len(terminals) == 1:
            return DmeEmbedding(
                terminals=list(terminals), arrays=None, state=None, x=None, y=None
            )
        if topology is None:
            topology = matching_topology([t.location for t in terminals])
        arrays = _flatten(topology)
        state = self._bottom_up(arrays, terminals)
        x, y = self._top_down(arrays, state, root_location)
        return DmeEmbedding(
            terminals=list(terminals), arrays=arrays, state=state, x=x, y=y
        )

    # ----------------------------------------------------------- bottom-up
    def _bottom_up(
        self, arrays: _TopologyArrays, terminals: list[DmeTerminal]
    ) -> dict[str, np.ndarray]:
        """Merge every topology level as one batch, leaves upward."""
        n = arrays.size
        ulo = np.empty(n)
        vlo = np.empty(n)
        uhi = np.empty(n)
        vhi = np.empty(n)
        cap = np.empty(n)
        delay = np.empty(n)
        e_left = np.zeros(n)
        e_right = np.zeros(n)

        leaves = arrays.term >= 0
        leaf_terms = arrays.term[leaves]
        tx = np.asarray([terminals[t].location.x for t in leaf_terms])
        ty = np.asarray([terminals[t].location.y for t in leaf_terms])
        ulo[leaves] = uhi[leaves] = tx + ty
        vlo[leaves] = vhi[leaves] = tx - ty
        cap[leaves] = [terminals[t].capacitance for t in leaf_terms]
        delay[leaves] = [terminals[t].delay for t in leaf_terms]

        unit_r = self.layer.unit_resistance
        unit_c = self.layer.unit_capacitance
        levels = _group_by(arrays.height)
        for level in levels[1:]:  # level 0 is the leaves
            li = arrays.left[level]
            ri = arrays.right[level]
            if level.size < self.min_batch:
                for i, l, r in zip(level.tolist(), li.tolist(), ri.tolist()):
                    region, m_cap, m_delay, e_l, e_r = merge_step(
                        unit_r,
                        unit_c,
                        TiltedRect(ulo[l], vlo[l], uhi[l], vhi[l]),
                        cap[l],
                        delay[l],
                        TiltedRect(ulo[r], vlo[r], uhi[r], vhi[r]),
                        cap[r],
                        delay[r],
                        self.detour_allowed,
                    )
                    ulo[i], vlo[i] = region.ulo, region.vlo
                    uhi[i], vhi[i] = region.uhi, region.vhi
                    cap[i], delay[i] = m_cap, m_delay
                    e_left[i], e_right[i] = e_l, e_r
                continue
            dl, cl = delay[li], cap[li]
            dr, cr = delay[ri], cap[ri]
            left_regions = (ulo[li], vlo[li], uhi[li], vhi[li])
            right_regions = (ulo[ri], vlo[ri], uhi[ri], vhi[ri])
            distance = rect_distance_arrays(*left_regions, *right_regions)
            e_l, e_r = self._balance_edges_arrays(
                unit_r, unit_c, dl, cl, dr, cr, distance
            )
            ulo[level], vlo[level], uhi[level], vhi[level] = merging_region_arrays(
                *left_regions, *right_regions, e_l, e_r
            )
            delay[level] = np.maximum(
                dl + unit_r * e_l * (unit_c * e_l + cl),
                dr + unit_r * e_r * (unit_c * e_r + cr),
            )
            cap[level] = cl + cr + unit_c * (e_l + e_r)
            e_left[level] = e_l
            e_right[level] = e_r
        return {
            "ulo": ulo,
            "vlo": vlo,
            "uhi": uhi,
            "vhi": vhi,
            "cap": cap,
            "delay": delay,
            "e_left": e_left,
            "e_right": e_right,
        }

    def _balance_edges_arrays(
        self,
        unit_r: float,
        unit_c: float,
        dl: np.ndarray,
        cl: np.ndarray,
        dr: np.ndarray,
        cr: np.ndarray,
        distance: np.ndarray,
        detour_allowed: bool | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vector lanes of :func:`repro.routing.dme.balance_edges`.

        Every lane follows the same branch structure and the same arithmetic
        (including the 64-step bisection trajectory) as the scalar spec, so
        results are bit-identical.
        """
        if detour_allowed is None:
            detour_allowed = self.detour_allowed
        n = distance.shape[0]
        e_l = np.zeros(n)
        e_r = np.zeros(n)

        degenerate = distance <= 0
        active = ~degenerate
        if np.any(degenerate) and detour_allowed:
            gap0 = dl - dr
            need = degenerate & (np.abs(gap0) >= 1e-12)
            deg_right = need & (dl > dr)
            deg_left = need & ~deg_right
            e_r = np.where(
                deg_right, _solve_detour_arrays(unit_r, unit_c, dl, dr, cr), e_r
            )
            e_l = np.where(
                deg_left, _solve_detour_arrays(unit_r, unit_c, dr, dl, cl), e_l
            )

        # Imbalance at the split boundaries (delay_l(0) simplifies to dl and
        # delay_r(0) to dr; the products the scalar spec adds are exact
        # zeros, so the simplification is bit-preserving).
        imb_at_zero = dl - (dr + unit_r * distance * (unit_c * distance + cr))
        imb_at_dist = (dl + unit_r * distance * (unit_c * distance + cl)) - dr
        saturate_right = active & (imb_at_zero > 0)
        saturate_left = active & ~saturate_right & (imb_at_dist < 0)
        interior = active & ~saturate_right & ~saturate_left

        if detour_allowed:
            e_r = np.where(
                saturate_right,
                np.maximum(distance, _solve_detour_arrays(unit_r, unit_c, dl, dr, cr)),
                e_r,
            )
            e_l = np.where(
                saturate_left,
                np.maximum(distance, _solve_detour_arrays(unit_r, unit_c, dr, dl, cl)),
                e_l,
            )
        else:
            e_r = np.where(saturate_right, distance, e_r)
            e_l = np.where(saturate_left, distance, e_l)

        if np.any(interior):
            idx = np.nonzero(interior)[0]
            d_i = distance[idx]
            dl_i, cl_i = dl[idx], cl[idx]
            dr_i, cr_i = dr[idx], cr[idx]
            lo = np.zeros(idx.size)
            hi = d_i.copy()
            for _ in range(64):
                mid = (lo + hi) / 2.0
                rhs = d_i - mid
                imb = (dl_i + unit_r * mid * (unit_c * mid + cl_i)) - (
                    dr_i + unit_r * rhs * (unit_c * rhs + cr_i)
                )
                gt = imb > 0
                hi = np.where(gt, mid, hi)
                lo = np.where(gt, lo, mid)
            e = (lo + hi) / 2.0
            e_l[idx] = e
            e_r[idx] = d_i - e
        return e_l, e_r

    # ------------------------------------------------------------ top-down
    def _top_down(
        self,
        arrays: _TopologyArrays,
        state: dict[str, np.ndarray],
        root_location: Point | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Embed every level by clamping against the merging regions."""
        ulo, vlo = state["ulo"], state["vlo"]
        uhi, vhi = state["uhi"], state["vhi"]
        n = arrays.size
        x = np.empty(n)
        y = np.empty(n)
        root_region = TiltedRect(ulo[0], vlo[0], uhi[0], vhi[0])
        if root_location is not None:
            root_point = root_region.nearest_point_to(root_location)
        else:
            root_point = root_region.center()
        x[0], y[0] = root_point.x, root_point.y

        for level in _group_by(arrays.depth)[1:]:
            parents = arrays.parent[level]
            if level.size < self.min_batch:
                for i, p in zip(level.tolist(), parents.tolist()):
                    point = TiltedRect(ulo[i], vlo[i], uhi[i], vhi[i]).nearest_point_to(
                        Point(x[p], y[p])
                    )
                    x[i], y[i] = point.x, point.y
                continue
            pu = x[parents] + y[parents]
            pv = x[parents] - y[parents]
            cu, cv = nearest_point_arrays(
                ulo[level], vlo[level], uhi[level], vhi[level], pu, pv
            )
            x[level] = (cu + cv) / 2.0
            y[level] = (cu - cv) / 2.0
        return x, y

    # ------------------------------------------------------------- realise
    @staticmethod
    def _realise(
        arrays: _TopologyArrays,
        terminals: list[DmeTerminal],
        state: dict[str, np.ndarray],
        x: np.ndarray,
        y: np.ndarray,
    ) -> EmbeddedNode:
        """Build the EmbeddedNode tree in the scalar router's stack order."""
        cap, delay = state["cap"], state["delay"]
        e_left, e_right = state["e_left"], state["e_right"]
        term = arrays.term

        def make(index: int, planned: float) -> EmbeddedNode:
            t = int(term[index])
            if t >= 0:
                terminal = terminals[t]
                return EmbeddedNode(
                    location=terminal.location,
                    terminal=terminal,
                    planned_edge_length=planned,
                    subtree_capacitance=float(cap[index]),
                    subtree_delay=float(delay[index]),
                )
            return EmbeddedNode(
                location=Point(float(x[index]), float(y[index])),
                planned_edge_length=planned,
                subtree_capacitance=float(cap[index]),
                subtree_delay=float(delay[index]),
            )

        root = make(0, 0.0)
        stack: list[tuple[int, EmbeddedNode]] = [(0, root)]
        while stack:
            index, embedded = stack.pop()
            if term[index] >= 0:
                continue
            planned = (float(e_left[index]), float(e_right[index]))
            children = (int(arrays.left[index]), int(arrays.right[index]))
            for child, child_planned in zip(children, planned):
                child_embedded = make(child, child_planned)
                embedded.children.append(child_embedded)
                stack.append((child, child_embedded))
        return root


def _solve_detour_arrays(
    unit_r: float,
    unit_c: float,
    target: np.ndarray,
    base: np.ndarray,
    cap: np.ndarray,
) -> np.ndarray:
    """Vector lanes of :func:`repro.routing.dme.solve_detour`."""
    gap = target - base
    a = unit_r * unit_c
    b = unit_r * cap
    # Clamp only the lanes the scalar spec would never evaluate (gap <= 0
    # returns 0 before touching the square root), keeping sqrt finite.
    disc = b * b + 4 * a * np.maximum(gap, 0.0)
    return np.where(gap <= 0, 0.0, (-b + np.sqrt(disc)) / (2 * a))
