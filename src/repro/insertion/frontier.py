"""Array-based DP backend for the concurrent insertion (the fast engine).

Mirrors the two-engine pattern of :mod:`repro.timing`: the object DP in
:mod:`repro.insertion.concurrent` (per-candidate
:class:`~repro.insertion.candidate.CandidateSolution` objects) is the
executable spec, and this module is the production backend.

**Level-batched.**  A DP node's frontier depends only on its predecessors'
frontiers, so every node of one DP-tree height is evaluated together.  The
candidate sets of all nodes of a height live in one set of flat
struct-of-arrays columns (a :class:`CandidateFrontier`), each node owning a
contiguous *segment*, and every DP step is one segmented numpy pass over the
height instead of one call per node:

* the merge is a ragged, row-major cross-product of the predecessor
  segments under the side-match mask,
* pattern application expands every merged candidate by the patterns of its
  (insertion mode, down-side) key, with the edge length as a per-candidate
  column, and evaluates each pattern's (candidate x corner) costs in one
  shot through the batched cell models
  (:meth:`~repro.tech.cells.BufferCell.delay_batch`),
* the maximum driven-capacitance filter is a boolean mask, and
* dominance pruning is one stable ``lexsort`` by (segment, side, worst cap,
  worst delay, resources), then one sweep per (segment, side) group: a
  padded running-minimum staircase for nominal runs, a tiled ``(n, n, K)``
  vector-dominance test for corner batches, and the beam.  Groups with
  near-ties inside the 1e-9 tolerance band, and the resource-diversity rule,
  take the exact sequential scan for that group only.

The pruned frontiers land in a :class:`FrontierStore`: one array block per
height, every DP node mapped to its row range.  The trees are shallow (the
Table II designs are 8-11 levels deep), so a whole DP costs a few hundred
numpy calls instead of a few per node.

Backends are selected through ``InsertionConfig.dp_backend`` /
``BackendSelection.dp`` / ``dscts --dp-backend`` / the ``REPRO_DP_BACKEND``
environment variable, defaulting to ``vectorized``.

Both backends are kept *decision-identical*: candidate values are computed
with the same element-wise operation order (bit-identical floats),
candidate ordering follows the same stable sort keys, pruning implements the
single rule documented in :mod:`repro.insertion.pruning`, and the top-down
realisation walks the recorded back-pointers in the same stack order, so
inserted nodes receive identical names.  ``tests/test_insertion_vectorized.py``
enforces identical selected trees and 1e-9-equal root candidate fronts.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from repro.clocktree import ClockTree
from repro.insertion.candidate import CandidateSolution
from repro.insertion.dp_tree import DpNode, DpTree
from repro.insertion.patterns import PATTERNS, EdgePattern, InsertionMode, patterns_for
from repro.tech.layers import Side
from repro.tech.pdk import Pdk

#: Backend used when neither the caller, the config, nor the environment
#: chooses one.  Mirrors ``repro.flow.config.DP_BACKEND_CHOICE`` (kept as
#: literals here because importing ``repro.flow.config`` at module scope
#: would cycle back into this package through ``repro.insertion.moes``).
DEFAULT_DP_BACKEND = "vectorized"

DP_BACKEND_NAMES = ("reference", "vectorized")

#: Compact side codes used by the frontier arrays.
SIDE_FRONT = 0
SIDE_BACK = 1
_SIDE_CODES = {Side.FRONT: SIDE_FRONT, Side.BACK: SIDE_BACK}

#: Compact insertion-mode codes (pattern expansion keys are mode * 2 + side).
_MODE_CODES = {InsertionMode.FULL: 0, InsertionMode.INTRA_SIDE: 1}

#: Pattern name -> compact pattern id (index into ``PATTERNS``).
_PATTERN_INDEX = {pattern.name: i for i, pattern in enumerate(PATTERNS)}

#: Per pattern id: up-side code, added buffers, added nTSVs.
_PATTERN_UP_SIDE = np.asarray([_SIDE_CODES[p.up_side] for p in PATTERNS], np.int8)
_PATTERN_BUFFERS = np.asarray([p.buffer_count for p in PATTERNS], np.int64)
_PATTERN_NTSVS = np.asarray([p.ntsv_count for p in PATTERNS], np.int64)

#: The candidate columns a merge reads from predecessor frontiers.
_GATHERED = ("side", "cap", "max_delay", "min_delay", "buffers", "ntsvs")

#: Tolerance shared with the object backend's dominance and load checks.
_TOL = 1e-9

#: Bound of the pairwise dominance test: one tile compares at most
#: ``_PAIRWISE_LIMIT ** 2`` candidate pairs (times the corner count), and a
#: group larger than this is tested in column blocks.
_PAIRWISE_LIMIT = 512


def default_dp_backend() -> str:
    """The DP backend used for ``dp_backend=None`` (env override included)."""
    # Deferred import: repro.flow.config imports this package at module scope.
    from repro.flow.config import DP_BACKEND_CHOICE

    return DP_BACKEND_CHOICE.default_name()


def resolve_dp_backend(name: str | None) -> str:
    """Resolve an explicit/None backend name against the environment default."""
    from repro.flow.config import DP_BACKEND_CHOICE

    return DP_BACKEND_CHOICE.resolve(name)


@dataclass
class CandidateFrontier:
    """Candidate sets as struct-of-arrays: one DP node's, or a whole height's.

    The arrays mirror :class:`CandidateSolution` fields, with the per-corner
    tuples widened to a leading scenario axis: ``cap`` / ``max_delay`` /
    ``min_delay`` are ``(K, n)`` matrices (``K = 1`` for nominal runs; the
    primary row mirrors the object backend's scalar fields).

    Attributes:
        side: ``(n,)`` upstream-side codes (``SIDE_FRONT`` / ``SIDE_BACK``).
        cap: ``(K, n)`` effective capacitance (fF) per corner.
        max_delay: ``(K, n)`` worst path delay (ps) per corner.
        min_delay: ``(K, n)`` best path delay (ps) per corner.
        buffers: ``(n,)`` buffers used by the subtree under each candidate.
        ntsvs: ``(n,)`` nTSVs used by the subtree under each candidate.
        pattern: ``(n,)`` compact pattern ids (``-1`` before insertion).
        choice: ``(n, P)`` back-pointers — the candidate index chosen in each
            of the node's ``P`` predecessor frontiers (the recorded
            dependencies the top-down decision retraces).

    Frontier arrays may alias other frontiers (views / shared constants) and
    must therefore never be mutated in place; every DP step builds new arrays.
    """

    side: np.ndarray
    cap: np.ndarray
    max_delay: np.ndarray
    min_delay: np.ndarray
    buffers: np.ndarray
    ntsvs: np.ndarray
    pattern: np.ndarray
    choice: np.ndarray

    @property
    def size(self) -> int:
        return int(self.side.size)

    def take(self, idx: np.ndarray) -> "CandidateFrontier":
        """Gather a sub-frontier (preserving the order of ``idx``)."""
        return CandidateFrontier(
            side=self.side[idx],
            cap=self.cap[:, idx],
            max_delay=self.max_delay[:, idx],
            min_delay=self.min_delay[:, idx],
            buffers=self.buffers[idx],
            ntsvs=self.ntsvs[idx],
            pattern=self.pattern[idx],
            choice=self.choice[idx],
        )

    def rows(self, start: int, stop: int, width: int) -> "CandidateFrontier":
        """Views of rows ``start:stop`` with the first ``width`` back-pointers."""
        return CandidateFrontier(
            side=self.side[start:stop],
            cap=self.cap[:, start:stop],
            max_delay=self.max_delay[:, start:stop],
            min_delay=self.min_delay[:, start:stop],
            buffers=self.buffers[start:stop],
            ntsvs=self.ntsvs[start:stop],
            pattern=self.pattern[start:stop],
            choice=self.choice[start:stop, :width],
        )

    @staticmethod
    def concatenate(parts: Sequence["CandidateFrontier"]) -> "CandidateFrontier":
        """Concatenate frontiers with identical K and back-pointer width."""
        if len(parts) == 1:
            return parts[0]
        return CandidateFrontier(
            side=np.concatenate([p.side for p in parts]),
            cap=np.concatenate([p.cap for p in parts], axis=1),
            max_delay=np.concatenate([p.max_delay for p in parts], axis=1),
            min_delay=np.concatenate([p.min_delay for p in parts], axis=1),
            buffers=np.concatenate([p.buffers for p in parts]),
            ntsvs=np.concatenate([p.ntsvs for p in parts]),
            pattern=np.concatenate([p.pattern for p in parts]),
            choice=np.concatenate([p.choice for p in parts], axis=0),
        )


class FrontierStore(Mapping):
    """The pruned frontier of every DP node, keyed by DP node index.

    The level pass writes one :class:`CandidateFrontier` block per DP-tree
    height; each node maps to a row range of one block plus its
    back-pointer width (its predecessor count).  Indexing returns a
    frontier of views into the block, so treat it as read-only.
    """

    def __init__(self) -> None:
        self.blocks: list[CandidateFrontier] = []
        #: DP node index -> (block, first row, end row, back-pointer width).
        self.spans: dict[int, tuple[int, int, int, int]] = {}

    def add_block(
        self,
        block: CandidateFrontier,
        indices: Sequence[int],
        counts: np.ndarray,
        widths: Sequence[int],
    ) -> None:
        """Register ``block`` whose consecutive segments of ``counts`` rows
        belong to the DP nodes ``indices`` (in that order)."""
        number = len(self.blocks)
        self.blocks.append(block)
        start = 0
        for index, stop, width in zip(indices, np.cumsum(counts).tolist(), widths):
            self.spans[index] = (number, start, stop, width)
            start = stop

    def add(self, index: int, frontier: CandidateFrontier) -> None:
        """Register one node's standalone frontier (a shipped subtree's)."""
        self.add_block(frontier, [index], [frontier.size], [frontier.choice.shape[1]])

    def decision(self, index: int, i: int) -> tuple[int, list[int]]:
        """(pattern id, predecessor back-pointers) of candidate ``i`` of a node."""
        number, start, _stop, width = self.spans[index]
        block = self.blocks[number]
        return int(block.pattern[start + i]), block.choice[start + i, :width].tolist()

    def __getitem__(self, index: int) -> CandidateFrontier:
        number, start, stop, width = self.spans[index]
        return self.blocks[number].rows(start, stop, width)

    def __contains__(self, index: object) -> bool:
        return index in self.spans

    def __iter__(self) -> Iterator[int]:
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: the first row of each segment of ``counts``."""
    starts = np.zeros(counts.size, np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def _is_chain(node: DpNode) -> bool:
    """A segmentation Steiner: one predecessor, no load of its own."""
    return (
        len(node.predecessors) == 1
        and node.base_capacitance == 0.0
        and not node.has_direct_sinks
    )


def _size_classes(
    gstart: np.ndarray, gsize: np.ndarray, power: int = 1
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Groups of two or more rows, padded per size class.

    Yields ``(groups, rows, valid)``: the group numbers, a ``(G, L)`` matrix
    of their row positions (padding repeats a group's last row) and the
    ``(G, L)`` mask of real entries.  A class holds the groups whose size to
    the ``power`` shares a power of two, so padding at most doubles the rows
    (``power=1``) or the row pairs (``power=2``) a matrix holds.
    """
    multi = np.nonzero(gsize >= 2)[0]
    if multi.size == 0:
        return
    size_class = np.frexp((gsize[multi] - 1) ** power)[1]
    for value in np.flatnonzero(np.bincount(size_class)).tolist():
        groups = multi[size_class == value]
        sizes = gsize[groups]
        offsets = np.arange(int(sizes.max()))
        valid = offsets[None, :] < sizes[:, None]
        last = sizes[:, None] - 1
        rows = gstart[groups][:, None] + np.minimum(offsets[None, :], last)
        yield groups, rows, valid


def _sequential_keep(
    dominance: list[list[bool]], resources: list[int] | None = None
) -> list[int]:
    """The exact kept-set rule over a precomputed within-tolerance dominance
    matrix (``dominance[i][j]``: candidate ``i`` dominates ``j``).

    A candidate is dropped when a kept earlier candidate dominates it — unless
    ``resources`` is given and it uses fewer resources than every kept
    dominator (the resource-diversity exception).
    """
    kept: list[int] = []
    for j in range(len(dominance)):
        dominators = [i for i in kept if dominance[i][j]]
        if dominators and (
            resources is None or resources[j] >= min(resources[i] for i in dominators)
        ):
            continue
        kept.append(j)
    return kept


def _scan_keep(
    caps: np.ndarray, delays: np.ndarray, resources: np.ndarray | None = None
) -> np.ndarray:
    """The same rule one candidate at a time (no pairwise matrix)."""
    kept: list[int] = []
    for pos in range(caps.shape[1]):
        if kept:
            cols = np.asarray(kept)
            dominated = np.all(caps[:, cols] <= caps[:, pos : pos + 1] + _TOL, axis=0)
            dominated &= np.all(
                delays[:, cols] <= delays[:, pos : pos + 1] + _TOL, axis=0
            )
            if dominated.any() and (
                resources is None
                or int(resources[pos]) >= int(resources[cols[dominated]].min())
            ):
                continue
        kept.append(pos)
    return np.asarray(kept, np.int64)


def _dominance(
    caps: np.ndarray,
    delays: np.ndarray,
    tol: float | None,
    columns: slice = slice(None),
) -> np.ndarray:
    """``(..., L, C)`` vector dominance over gathered ``(K, ..., L)`` columns:
    entry ``[i, j]`` is true when candidate ``i`` is no worse than candidate
    ``j`` of ``columns`` at every corner (within ``tol`` when given)."""
    cap_j = caps[..., None, columns]
    delay_j = delays[..., None, columns]
    if tol is not None:
        cap_j = cap_j + tol
        delay_j = delay_j + tol
    # One corner at a time: no (K, ..., L, L) temporary.
    dominated = caps[0, ..., :, None] <= cap_j[0]
    dominated &= delays[0, ..., :, None] <= delay_j[0]
    for k in range(1, caps.shape[0]):
        dominated &= caps[k, ..., :, None] <= cap_j[k]
        dominated &= delays[k, ..., :, None] <= delay_j[k]
    return dominated


class VectorizedInsertionDp:
    """The array-based insertion DP: level-batched merges, costs and sweeps.

    Instantiated by :class:`~repro.insertion.concurrent.ConcurrentInserter`
    with the engine-resolved corner PDK list (``[pdk]`` for nominal runs), so
    both DP backends share one corner order and one technology.
    """

    def __init__(
        self,
        pdk: Pdk,
        config,
        corner_pdks: Sequence[Pdk],
        primary_index: int = 0,
        corner_aware: bool = False,
    ) -> None:
        self.pdk = pdk
        self.config = config
        self.corner_aware = corner_aware
        self.primary = primary_index
        self._buffers = [corner_pdk.buffer for corner_pdk in corner_pdks]
        self._k = len(corner_pdks)
        # Kept for the subtree-parallel path: workers rebuild an equivalent
        # DP instance from (pdk, config, corner pdks) in their own process.
        self._corner_pdks = list(corner_pdks)
        # Filled by run(): pool tasks shipped and recovery events recorded
        # for them (the inserter surfaces these on its result).
        self.parallel_tasks = 0
        self.parallel_diagnostics: list = []

        def column(values: list[float]) -> np.ndarray:
            return np.asarray(values, dtype=float)[:, None]

        front = [corner_pdk.front_layer for corner_pdk in corner_pdks]
        self.f_ur = column([layer.unit_resistance for layer in front])
        self.f_uc = column([layer.unit_capacitance for layer in front])
        self.buf_incap = column([buf.input_capacitance for buf in self._buffers])
        self.buf_intr = column([buf.intrinsic_delay for buf in self._buffers])
        self.buf_drive = column([buf.drive_resistance for buf in self._buffers])
        self.max_cap = column([p.max_capacitance for p in corner_pdks])
        if pdk.has_backside:
            back = [corner_pdk.back_layer for corner_pdk in corner_pdks]
            self.b_ur = column([layer.unit_resistance for layer in back])
            self.b_uc = column([layer.unit_capacitance for layer in back])
            ntsvs = [corner_pdk.ntsv for corner_pdk in corner_pdks]
            self.ntsv_r = column([ntsv.resistance for ntsv in ntsvs])
            self.ntsv_c = column([ntsv.capacitance for ntsv in ntsvs])
        else:
            self.b_ur = self.b_uc = self.ntsv_r = self.ntsv_c = None

        # Pattern expansion table keyed by mode * 2 + down-side code: the
        # allowed pattern ids in P1..P6 order, and how many there are.
        self._expand_ids = np.zeros((2 * len(_MODE_CODES), len(PATTERNS)), np.int16)
        self._expand_count = np.zeros(2 * len(_MODE_CODES), np.int64)
        for mode, mode_code in _MODE_CODES.items():
            for side, side_code in _SIDE_CODES.items():
                allowed = patterns_for(mode, pdk.has_backside, required_down_side=side)
                key = 2 * mode_code + side_code
                self._expand_count[key] = len(allowed)
                self._expand_ids[key, : len(allowed)] = [
                    _PATTERN_INDEX[p.name] for p in allowed
                ]
        self._triu_cache: dict[int, np.ndarray] = {}

    def _triu(self, n: int) -> np.ndarray:
        """Shared strict upper-triangle mask (earlier-candidate pairs)."""
        cached = self._triu_cache.get(n)
        if cached is None:
            rows = np.arange(n)
            cached = rows[:, None] < rows[None, :]
            self._triu_cache[n] = cached
        return cached

    # ------------------------------------------------------------------ driver
    def run(
        self,
        dp_tree: DpTree,
        workers: int = 1,
        parallel_policy=None,
    ) -> tuple[FrontierStore, CandidateFrontier]:
        """Bottom-up generation: the pruned frontier of every DP node plus
        the combined root frontier (Steps 2 and the root part of Step 3).

        With ``workers > 1`` the DP ships disjoint bottom subtrees to a
        process pool first (each node's frontier depends only on its
        predecessors' frontiers, so a whole subtree evaluates without any
        cross-subtree data) and finishes the remaining spine serially.  A
        node's frontier does not depend on which other nodes share its level
        pass, so the result is bit-identical at every worker count.

        The pool hops go through the fault-tolerant
        :func:`~repro.parallel.run_tasks` map under ``parallel_policy``
        (``None`` resolves the usual knob precedence); recovery events and
        the shipped-task count are exposed as :attr:`parallel_diagnostics`
        and :attr:`parallel_tasks` after the call, so the inserter can
        surface them on its result.
        """
        self.parallel_tasks = 0
        self.parallel_diagnostics = []
        store = FrontierStore()
        remaining = dp_tree.nodes
        if workers > 1:
            subtrees = self._partition_dp_subtrees(dp_tree, workers)
            if len(subtrees) >= 2:
                shipped = self._run_subtrees_parallel(
                    subtrees,
                    workers,
                    policy=parallel_policy,
                    diagnostics=self.parallel_diagnostics,
                )
                for index, frontier in shipped.items():
                    store.add(index, frontier)
                self.parallel_tasks = len(subtrees)
                remaining = [n for n in dp_tree.nodes if n.index not in store]
        self._run_levels(remaining, store)
        return store, self._root_frontier(dp_tree, store)

    # ------------------------------------------------------ subtree parallelism
    @staticmethod
    def _partition_dp_subtrees(dp_tree: DpTree, workers: int) -> list[list[DpNode]]:
        """Disjoint bottom subtrees big enough to amortise a process hop.

        A node roots a shipped subtree iff its subtree holds at least
        ``target`` DP nodes while every predecessor's subtree is still below
        the target.  No strict descendant of such a root reaches the target
        (so no nested root below) and every ancestor has a >= target
        predecessor on the path down (so no nested root above): the selected
        subtrees are provably disjoint.  Each returned list is in the global
        bottom-up order, so a worker can evaluate it front to back.
        """
        nodes = dp_tree.nodes
        target = max(32, len(nodes) // (workers * 4))
        size: dict[int, int] = {}
        for node in nodes:
            size[node.index] = 1 + sum(size[p.index] for p in node.predecessors)
        position = {node.index: i for i, node in enumerate(nodes)}
        subtrees: list[list[DpNode]] = []
        for root in nodes:
            if size[root.index] < target:
                continue
            if any(size[p.index] >= target for p in root.predecessors):
                continue
            members = []
            stack = [root]
            while stack:
                node = stack.pop()
                members.append(node)
                stack.extend(node.predecessors)
            members.sort(key=lambda n: position[n.index])
            subtrees.append(members)
        return subtrees

    @staticmethod
    def _subtree_tables(nodes: list[DpNode]) -> list[tuple]:
        """Flatten a subtree into primitive rows for the process boundary.

        Recursive :class:`DpNode` graphs and live clock-tree references never
        cross into a worker: each row carries the node's own scalars, the
        resolved direct-sink flag, and predecessor links as positions into
        this same table.
        """
        local = {node.index: i for i, node in enumerate(nodes)}
        return [
            (
                node.index,
                node.length,
                node.mode,
                node.fanout,
                node.base_capacitance,
                node.base_max_delay,
                node.base_min_delay,
                node.corner_base_capacitance,
                node.corner_base_max_delay,
                node.corner_base_min_delay,
                node.tree_row,
                bool(node.has_direct_sinks),
                [local[p.index] for p in node.predecessors],
            )
            for node in nodes
        ]

    @staticmethod
    def _nodes_from_tables(tables: list[tuple]) -> list[DpNode]:
        """Rebuild worker-side :class:`DpNode` objects from flat rows."""
        nodes: list[DpNode] = []
        for (
            index,
            length,
            mode,
            fanout,
            base_cap,
            base_max,
            base_min,
            corner_cap,
            corner_max,
            corner_min,
            tree_row,
            direct_sinks,
            preds,
        ) in tables:
            nodes.append(
                DpNode(
                    index=index,
                    tree_child=None,
                    length=length,
                    predecessors=[nodes[p] for p in preds],
                    mode=mode,
                    fanout=fanout,
                    base_capacitance=base_cap,
                    base_max_delay=base_max,
                    base_min_delay=base_min,
                    corner_base_capacitance=corner_cap,
                    corner_base_max_delay=corner_max,
                    corner_base_min_delay=corner_min,
                    tree_row=tree_row,
                    direct_sinks=direct_sinks,
                )
            )
        return nodes

    def _run_subtrees_parallel(
        self,
        subtrees: list[list[DpNode]],
        workers: int,
        policy=None,
        diagnostics: list | None = None,
    ) -> dict[int, CandidateFrontier]:
        """Evaluate shipped subtrees on the shared pool, frontiers keyed by
        the original DP node indices (the serial spine reads them directly).

        Each subtree is one fault-tolerant :func:`~repro.parallel.run_tasks`
        task: a failed worker is retried and finally recomputed inline by
        the very same :func:`_dp_subtree_worker` (bit-identical by
        construction) under the ``degrade`` policy, or raises a typed
        :class:`~repro.parallel.ParallelError` under ``strict``.
        """
        from repro.parallel import run_tasks

        payloads = [
            (
                self.pdk,
                self.config,
                self._corner_pdks,
                self.primary,
                self.corner_aware,
                self._subtree_tables(nodes),
            )
            for nodes in subtrees
        ]
        results = run_tasks(
            "insertion",
            _dp_subtree_worker,
            payloads,
            min(workers, len(payloads)),
            policy=policy,
            validate=_validate_subtree_frontiers,
            diagnostics=diagnostics,
            label=lambda i, payload: f"subtree {i} ({len(payload[5])} nodes)",
        )
        merged: dict[int, CandidateFrontier] = {}
        for result in results:
            merged.update(result)
        return merged

    def materialize_root(self, root: CandidateFrontier) -> list[CandidateSolution]:
        """Root frontier rows as :class:`CandidateSolution` objects.

        The objects carry no children (the vectorized top-down walks the
        back-pointer arrays instead); scalar fields mirror the primary corner
        exactly as in the object backend.
        """
        out: list[CandidateSolution] = []
        primary = self.primary
        for i in range(root.size):
            corner_cap = corner_max = corner_min = None
            if self.corner_aware:
                corner_cap = tuple(float(v) for v in root.cap[:, i])
                corner_max = tuple(float(v) for v in root.max_delay[:, i])
                corner_min = tuple(float(v) for v in root.min_delay[:, i])
            out.append(
                CandidateSolution(
                    up_side=Side.FRONT,
                    capacitance=float(root.cap[primary, i]),
                    max_delay=float(root.max_delay[primary, i]),
                    min_delay=float(root.min_delay[primary, i]),
                    buffer_count=int(root.buffers[i]),
                    ntsv_count=int(root.ntsvs[i]),
                    corner_capacitance=corner_cap,
                    corner_max_delay=corner_max,
                    corner_min_delay=corner_min,
                )
            )
        return out

    def realize(
        self,
        dp_tree: DpTree,
        frontiers: FrontierStore,
        root_choice: np.ndarray,
        realize_pattern: Callable[[ClockTree, DpNode, EdgePattern], None],
    ) -> None:
        """Top-down decision (Step 4): retrace back-pointers, realise patterns.

        The stack order matches the object backend's ``_top_down`` exactly, so
        inserted buffers/nTSVs receive identical generated names.
        """
        stack: list[tuple[DpNode, int]] = [
            (root_dp, int(idx))
            for root_dp, idx in zip(dp_tree.root_nodes, root_choice)
        ]
        while stack:
            dp_node, i = stack.pop()
            pattern_id, choices = frontiers.decision(dp_node.index, i)
            if pattern_id < 0:
                raise RuntimeError(
                    f"top-down decision reached {dp_node.name} without a pattern"
                )
            realize_pattern(dp_tree.clock_tree, dp_node, PATTERNS[pattern_id])
            stack.extend(zip(dp_node.predecessors, choices))
        # Pattern realisation rewrites wire sides directly on the nodes, which
        # the tree's edit log cannot see — record an unscoped change so that
        # incremental timing engines recompile instead of serving stale data.
        dp_tree.clock_tree.touch()

    # ------------------------------------------------------------ level pass
    def _run_levels(self, nodes: Sequence[DpNode], store: FrontierStore) -> None:
        """Evaluate ``nodes`` (bottom-up order) one DP-tree height at a time.

        A node's height is one more than its highest predecessor's; a
        predecessor already in ``store`` (a shipped subtree's root) counts as
        available, like a leaf's missing predecessors.
        """
        height: dict[int, int] = {}
        levels: list[list[DpNode]] = []
        for node in nodes:
            level = 1 + max(
                (height.get(p.index, -1) for p in node.predecessors), default=-1
            )
            height[node.index] = level
            if level == len(levels):
                levels.append([])
            levels[level].append(node)
        for level_nodes in levels:
            self._run_level(level_nodes, store)

    def _run_level(self, nodes: list[DpNode], store: FrontierStore) -> None:
        """One height: merge, insert, prune and relax every node at once.

        Segments are ordered leaves, chain nodes, then the rest by
        predecessor count, so each kind of merge yields a contiguous run of
        segments; a node's frontier does not depend on the order.
        """
        leaves = [n for n in nodes if n.is_leaf]
        chains = [n for n in nodes if _is_chain(n)]
        general = sorted(
            (n for n in nodes if n.predecessors and not _is_chain(n)),
            key=lambda n: len(n.predecessors),
        )
        ordered = leaves + chains + general
        widths = [len(n.predecessors) for n in ordered]
        width = max(widths)
        parts: list[tuple[CandidateFrontier, np.ndarray]] = []
        if leaves:
            parts.append(self._leaf_rows(leaves))
        if chains:
            # Chain node: the merged frontier IS the predecessor's pruned
            # frontier, value for value, and pruning is idempotent on an
            # already-pruned, already-sorted set — skip it.
            parts.append(self._gather(store, [n.predecessors[0] for n in chains]))
        for _count, group in groupby(general, key=lambda n: len(n.predecessors)):
            parts.append(self._merge(list(group), store))
        merged = CandidateFrontier.concatenate(
            [self._pad_choice(frontier, width) for frontier, _ in parts]
        )
        counts = np.concatenate([count for _, count in parts])
        seg = np.repeat(np.arange(len(ordered)), counts)
        lengths = np.asarray([n.length for n in ordered], float)
        modes = np.asarray([_MODE_CODES[n.mode] for n in ordered], np.int64)

        inserted, inserted_seg = self._insert(merged, seg, lengths, modes)
        kept = self._prune(
            inserted, inserted_seg, max_capacitance=self.pdk.max_capacitance
        )
        block = inserted.take(kept)
        block_seg = inserted_seg[kept]
        counts = np.bincount(block_seg, minlength=len(ordered))
        if not counts.all():
            # Mirror the object backend: retain unchecked candidates when
            # even a buffer cannot legalise the load.
            rows = np.nonzero(counts[seg] == 0)[0]
            relaxed, relaxed_seg = self._insert(
                merged.take(rows), seg[rows], lengths, modes, enforce_driver_load=False
            )
            kept = self._prune(relaxed, relaxed_seg)
            block_seg = np.concatenate([block_seg, relaxed_seg[kept]])
            order = np.argsort(block_seg, kind="stable")
            block = CandidateFrontier.concatenate([block, relaxed.take(kept)])
            block = block.take(order)
            block_seg = block_seg[order]
            counts = np.bincount(block_seg, minlength=len(ordered))
            if not counts.all():
                node = ordered[int(np.argmin(counts))]
                raise RuntimeError(
                    f"DP node {node.name} has no feasible candidate solutions"
                )
        store.add_block(block, [n.index for n in ordered], counts, widths)

    @staticmethod
    def _pad_choice(frontier: CandidateFrontier, width: int) -> CandidateFrontier:
        """Widen the back-pointer matrix to the level's width (zero columns)."""
        missing = width - frontier.choice.shape[1]
        if missing == 0:
            return frontier
        padding = np.zeros((frontier.size, missing), np.int64)
        choice = np.concatenate([frontier.choice, padding], axis=1)
        return replace(frontier, choice=choice)

    # --------------------------------------------------------------- DP steps
    def _base_columns(
        self, nodes: list[DpNode]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(K, S) columns of the nodes' static leaf-net base quantities."""
        if self.corner_aware:
            return (
                np.asarray([n.corner_base_capacitance for n in nodes], float).T,
                np.asarray([n.corner_base_max_delay for n in nodes], float).T,
                np.asarray([n.corner_base_min_delay for n in nodes], float).T,
            )
        return (
            np.asarray([[n.base_capacitance for n in nodes]], float),
            np.asarray([[n.base_max_delay for n in nodes]], float),
            np.asarray([[n.base_min_delay for n in nodes]], float),
        )

    def _leaf_rows(self, leaves: list[DpNode]) -> tuple[CandidateFrontier, np.ndarray]:
        """Leaf DP nodes: one front-side candidate each, the leaf-net load."""
        count = len(leaves)
        base_cap, base_max, base_min = self._base_columns(leaves)
        zeros = np.zeros(count, np.int64)
        frontier = CandidateFrontier(
            side=np.zeros(count, np.int8),
            cap=base_cap,
            max_delay=base_max,
            min_delay=base_min,
            buffers=zeros,
            ntsvs=zeros,
            pattern=np.full(count, -1, np.int16),
            choice=np.empty((count, 0), np.int64),
        )
        return frontier, np.ones(count, np.int64)

    def _gather(
        self, store: FrontierStore, preds: list[DpNode]
    ) -> tuple[CandidateFrontier, np.ndarray]:
        """Concatenate the frontiers of ``preds`` (one segment each).

        The back-pointer column holds each row's index within its own
        predecessor frontier.  Returns the rows and the per-segment counts.
        """
        located = np.asarray([store.spans[p.index][:3] for p in preds], np.int64)
        numbers, begins, ends = located[:, 0], located[:, 1], located[:, 2]
        counts = ends - begins
        local = np.arange(int(counts.sum())) - np.repeat(_starts(counts), counts)
        source = local + np.repeat(begins, counts)
        present = np.flatnonzero(np.bincount(numbers))
        row_block = np.repeat(numbers, counts)
        values: dict[str, np.ndarray] = {}
        for number in present.tolist():
            block = store.blocks[number]
            at = slice(None)
            if present.size > 1:
                at = np.nonzero(row_block == number)[0]
            for name in _GATHERED:
                column = getattr(block, name)
                if name not in values:
                    shape = column.shape[:-1] + (local.size,)
                    values[name] = np.empty(shape, column.dtype)
                values[name][..., at] = column[..., source[at]]
        frontier = CandidateFrontier(
            **values,
            pattern=np.full(local.size, -1, np.int16),
            choice=local[:, None],
        )
        return frontier, counts

    def _merge(
        self, nodes: list[DpNode], store: FrontierStore
    ) -> tuple[CandidateFrontier, np.ndarray]:
        """Merge nodes with the same predecessor count at their downstream
        vertices: ragged cross-products, static load, then a merge prune."""
        combo, combo_counts = self._gather(store, [n.predecessors[0] for n in nodes])
        segments = np.arange(len(nodes))
        for j in range(1, len(nodes[0].predecessors)):
            frontier, counts = self._gather(store, [n.predecessors[j] for n in nodes])
            # Row-major pair enumeration matches the object backend's nested
            # loop (combo-major, candidate-minor, side mismatches skipped).
            pairs = combo_counts * counts
            pair_seg = np.repeat(segments, pairs)
            t = np.arange(pair_seg.size) - np.repeat(_starts(pairs), pairs)
            per_row = counts[pair_seg]
            ia = t // per_row
            ib = t - ia * per_row
            ia += _starts(combo_counts)[pair_seg]
            rows = ib + _starts(counts)[pair_seg]
            match = np.nonzero(combo.side[ia] == frontier.side[rows])[0]
            ia, ib, rows, pair_seg = ia[match], ib[match], rows[match], pair_seg[match]
            combo_counts = np.bincount(pair_seg, minlength=len(nodes))
            if not combo_counts.all():
                node = nodes[int(np.argmin(combo_counts))]
                raise RuntimeError(
                    f"DP node {node.name}: predecessors have no "
                    "side-compatible candidate combination"
                )
            combo = CandidateFrontier(
                side=combo.side[ia],
                cap=combo.cap[:, ia] + frontier.cap[:, rows],
                max_delay=np.maximum(
                    combo.max_delay[:, ia], frontier.max_delay[:, rows]
                ),
                min_delay=np.minimum(
                    combo.min_delay[:, ia], frontier.min_delay[:, rows]
                ),
                buffers=combo.buffers[ia] + frontier.buffers[rows],
                ntsvs=combo.ntsvs[ia] + frontier.ntsvs[rows],
                pattern=combo.pattern[ia],
                choice=np.concatenate([combo.choice[ia], ib[:, None]], axis=1),
            )
        seg = np.repeat(segments, combo_counts)
        combo, seg = self._add_base(nodes, combo, seg)
        kept = self._prune(combo, seg)
        return combo.take(kept), np.bincount(seg[kept], minlength=len(nodes))

    def _add_base(
        self, nodes: list[DpNode], combo: CandidateFrontier, seg: np.ndarray
    ) -> tuple[CandidateFrontier, np.ndarray]:
        """Add the static load at each vertex (pin cap + direct leaf net).

        Nodes with no pin cap and no direct sinks skip the arithmetic
        entirely, exactly like the object backend.
        """
        loaded = np.asarray(
            [n.base_capacitance != 0.0 or n.has_direct_sinks for n in nodes]
        )
        if not loaded.any():
            return combo, seg
        base_cap, base_max, base_min = self._base_columns(nodes)
        cap = np.where(loaded[seg], combo.cap + base_cap[:, seg], combo.cap)
        combo = replace(combo, cap=cap)
        direct = np.asarray([n.has_direct_sinks for n in nodes])
        if direct.any():
            # Leaf nets are front-side: a direct-sink vertex must be front.
            keep = np.nonzero((combo.side == SIDE_FRONT) | ~direct[seg])[0]
            if keep.size != combo.size:
                combo, seg = combo.take(keep), seg[keep]
                counts = np.bincount(seg, minlength=len(nodes))
                if not counts.all():
                    node = nodes[int(np.argmin(counts))]
                    raise RuntimeError(
                        f"DP node {node.name}: no merged candidate satisfies "
                        "the front-side leaf-net constraint"
                    )
            # max(x, -inf) and min(x, inf) are x: only direct-sink vertices
            # see their leaf-net delays.
            combo = replace(
                combo,
                max_delay=np.maximum(
                    combo.max_delay, np.where(direct, base_max, -np.inf)[:, seg]
                ),
                min_delay=np.minimum(
                    combo.min_delay, np.where(direct, base_min, np.inf)[:, seg]
                ),
            )
        return combo, seg

    def _insert(
        self,
        merged: CandidateFrontier,
        seg: np.ndarray,
        lengths: np.ndarray,
        modes: np.ndarray,
        enforce_driver_load: bool = True,
    ) -> tuple[CandidateFrontier, np.ndarray]:
        """Apply every allowed pattern to every merged candidate, batched.

        Each candidate expands by the patterns of its (segment mode,
        down-side) key in P1..P6 order.  Merged frontiers list front-side
        candidates before back-side ones, so the base-major / pattern-minor
        result order is the object backend's.
        """
        key = modes[seg] * 2 + merged.side
        count = self._expand_count[key]
        base = np.repeat(np.arange(merged.size), count)
        slot = np.arange(base.size) - np.repeat(_starts(count), count)
        pattern = self._expand_ids[key[base], slot]
        length = lengths[seg[base]][None, :]
        base_cap = merged.cap[:, base]
        delay = np.empty_like(base_cap)
        cap = np.empty_like(base_cap)
        valid: np.ndarray | None = None
        for pattern_id in np.nonzero(np.bincount(pattern, minlength=len(PATTERNS)))[0]:
            rows = np.nonzero(pattern == pattern_id)[0]
            delay[:, rows], cap[:, rows], pattern_valid = self._pattern_cost_batch(
                PATTERNS[pattern_id],
                length[:, rows],
                base_cap[:, rows],
                enforce_driver_load,
            )
            if pattern_valid is not None:
                if valid is None:
                    valid = np.ones(base.size, bool)
                valid[rows] = pattern_valid
        inserted = CandidateFrontier(
            side=_PATTERN_UP_SIDE[pattern],
            cap=cap,
            max_delay=merged.max_delay[:, base] + delay,
            min_delay=merged.min_delay[:, base] + delay,
            buffers=merged.buffers[base] + _PATTERN_BUFFERS[pattern],
            ntsvs=merged.ntsvs[base] + _PATTERN_NTSVS[pattern],
            pattern=pattern,
            choice=merged.choice[base],
        )
        inserted_seg = seg[base]
        if valid is not None and not valid.all():
            keep = np.nonzero(valid)[0]
            return inserted.take(keep), inserted_seg[keep]
        return inserted, inserted_seg

    def _pattern_cost_batch(
        self,
        pattern: EdgePattern,
        length: np.ndarray,
        cap: np.ndarray,
        enforce_driver_load: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(added delay, new upstream cap, validity) of one pattern, batched.

        Mirrors ``ConcurrentInserter._pattern_cost`` operation for operation
        (bit-identical element-wise arithmetic) with the candidate axis
        vectorized (``length`` is a ``(1, n)`` per-candidate row) and the
        corner axis broadcast.  The returned validity mask is ``None`` unless
        the pattern can reject candidates (P1's maximum driven-capacitance
        check, enforced at every corner).
        """
        name = pattern.name
        if name == "P2_Wiring_F":
            delay = self._wire_delay(self.f_ur, self.f_uc, length, cap)
            return delay, cap + self.f_uc * length, None
        if name == "P3_Wiring_B":
            delay = self._wire_delay(self.b_ur, self.b_uc, length, cap)
            return delay, cap + self.b_uc * length, None
        if name == "P1_Buffer":
            half = length / 2.0
            delay = self._wire_delay(self.f_ur, self.f_uc, half, cap)
            cap = cap + self.f_uc * half
            valid = None
            if enforce_driver_load:
                valid = ~(cap > self.max_cap + _TOL).any(axis=0)
            delay = delay + self._buffer_delay(cap)
            cap = np.broadcast_to(self.buf_incap, cap.shape)
            delay = delay + self._wire_delay(self.f_ur, self.f_uc, half, cap)
            return delay, cap + self.f_uc * half, valid
        if name == "P4_nTSV1":
            delay = self.ntsv_r * (self.ntsv_c + cap)
            cap = cap + self.ntsv_c
            delay = delay + self._wire_delay(self.b_ur, self.b_uc, length, cap)
            cap = cap + self.b_uc * length
            delay = delay + self.ntsv_r * (self.ntsv_c + cap)
            return delay, cap + self.ntsv_c, None
        if name == "P5_nTSV2":
            delay = self.ntsv_r * (self.ntsv_c + cap)
            cap = cap + self.ntsv_c
            delay = delay + self._wire_delay(self.b_ur, self.b_uc, length, cap)
            return delay, cap + self.b_uc * length, None
        if name == "P6_nTSV3":
            delay = self._wire_delay(self.b_ur, self.b_uc, length, cap)
            cap = cap + self.b_uc * length
            delay = delay + self.ntsv_r * (self.ntsv_c + cap)
            return delay, cap + self.ntsv_c, None
        raise ValueError(f"unknown pattern {name!r}")  # pragma: no cover

    @staticmethod
    def _wire_delay(
        unit_r: np.ndarray, unit_c: np.ndarray, length: np.ndarray, load: np.ndarray
    ) -> np.ndarray:
        """Batched ``LayerRC.wire_delay`` (same operation order)."""
        resistance = unit_r * length
        capacitance = unit_c * length
        return resistance * (capacitance + load)

    def _buffer_delay(self, caps: np.ndarray) -> np.ndarray:
        """Per-corner batched buffer delay (the DP uses no slew input, so the
        batched cell model resolves to the linear model, exactly like the
        object backend's ``buffer.delay(cap)`` calls)."""
        if self._k == 1:
            return self._buffers[0].delay_batch(caps[0])[None, :]
        # Corner batches broadcast the per-corner linear coefficients in one
        # shot — element-wise identical to per-corner ``delay_batch`` calls.
        return self.buf_intr + self.buf_drive * caps

    # ---------------------------------------------------------------- pruning
    def _prune(
        self,
        frontier: CandidateFrontier,
        seg: np.ndarray,
        max_capacitance: float | None = None,
    ) -> np.ndarray:
        """Segmented ``prune_per_side``: mask filter, per-side sweep, beam.

        ``seg`` assigns every row to a segment (one DP node's candidate
        set).  Returns the kept row indices ordered by segment, front side
        before back side, each side in the object backend's sorted order.
        """
        scalar = self._k == 1
        worst_cap = frontier.cap[0] if scalar else frontier.cap.max(axis=0)
        if max_capacitance is None:
            rows = np.arange(frontier.size)
        else:
            rows = np.nonzero(worst_cap <= max_capacitance + _TOL)[0]
        if rows.size == 0:
            return rows
        worst_delay = (
            frontier.max_delay[0] if scalar else frontier.max_delay.max(axis=0)
        )
        resources = frontier.buffers + frontier.ntsvs
        order = rows[
            np.lexsort(
                (
                    resources[rows],
                    worst_delay[rows],
                    worst_cap[rows],
                    frontier.side[rows],
                    seg[rows],
                )
            )
        ]
        group_key = seg[order] * 2 + frontier.side[order]
        is_start = np.empty(order.size, bool)
        is_start[0] = True
        np.not_equal(group_key[1:], group_key[:-1], out=is_start[1:])
        gstart = np.nonzero(is_start)[0]
        gsize = np.diff(np.append(gstart, order.size))
        caps = frontier.cap[:, order]
        delays = frontier.max_delay[:, order]
        if self.config.keep_resource_diversity or not scalar:
            keep = self._pairwise_sweep(caps, delays, resources[order], gstart, gsize)
        else:
            keep = self._staircase_sweep(delays[0], is_start, gstart, gsize)
        kept = np.nonzero(keep)[0]
        beam = self.config.max_candidates_per_side
        if beam is not None:
            group = np.cumsum(is_start) - 1
            kept = self._beam_select(
                kept, group[kept], gsize.size, worst_delay[order], beam
            )
        return order[kept]

    @staticmethod
    def _staircase_sweep(
        delays: np.ndarray,
        is_start: np.ndarray,
        gstart: np.ndarray,
        gsize: np.ndarray,
    ) -> np.ndarray:
        """Scalar staircase over sorted groups: a keep mask.

        Every true keeper is a strict running-min record of its group's delay
        sequence (a dropped candidate's delay is always >= some earlier
        delay), so a padded running minimum finds the records; a record is
        then kept iff it beats the previous kept delay by more than the
        tolerance.  When every record beats the previous *record* that way,
        all records are kept; groups with a near-tie rerun the exact scan.
        Single-candidate groups are kept as they are.
        """
        previous = np.full(delays.size, np.inf)
        for _groups, rows, valid in _size_classes(gstart, gsize):
            running = np.minimum.accumulate(
                np.where(valid, delays[rows], np.inf), axis=1
            )
            later = valid[:, 1:]
            previous[rows[:, 1:][later]] = running[:, :-1][later]
        keep = is_start | (delays < previous)
        records = np.nonzero(keep)[0]
        values = delays[records]
        best = np.empty_like(values)
        best[0] = np.inf
        best[1:] = values[:-1]
        best[is_start[records]] = np.inf
        beats = values < best - _TOL
        if beats.all():
            return keep
        group = np.cumsum(is_start) - 1
        for g in sorted(set(group[records[~beats]].tolist())):
            if gsize[g] < 2:
                continue
            start, stop = int(gstart[g]), int(gstart[g] + gsize[g])
            mine = records[(records >= start) & (records < stop)]
            keep[start:stop] = False
            best_value = float("inf")
            for pos, value in zip(mine.tolist(), delays[mine].tolist()):
                if value < best_value - _TOL:
                    keep[pos] = True
                    best_value = value
        return keep

    def _pairwise_sweep(
        self,
        caps: np.ndarray,
        delays: np.ndarray,
        resources: np.ndarray,
        gstart: np.ndarray,
        gsize: np.ndarray,
    ) -> np.ndarray:
        """Vector-dominance sweep (and the diversity rule) over sorted groups.

        Groups are compared in ``(G, L, L)`` tiles of at most
        ``_PAIRWISE_LIMIT ** 2`` pairs.  Without the diversity rule the tile
        decides almost every candidate at once: a candidate with an earlier
        tolerance-free dominator is provably dropped by the kept-set rule (the
        dominator is either kept, or its own kept dominator absorbs the single
        tolerance hop), and a candidate with no earlier within-tolerance
        dominator at all is trivially kept.  Groups with a candidate between
        the two bounds (a near-tie in the 1e-9 band), and every group under
        the diversity rule, run the exact sequential scan on the tile.
        """
        diversity = self.config.keep_resource_diversity
        keep = np.ones(caps.shape[1], bool)
        budget = _PAIRWISE_LIMIT * _PAIRWISE_LIMIT
        for groups, rows, valid in _size_classes(gstart, gsize, power=2):
            width = rows.shape[1]
            if width > _PAIRWISE_LIMIT:
                for g in groups.tolist():
                    start, stop = int(gstart[g]), int(gstart[g] + gsize[g])
                    keep[start:stop] = False
                    kept = self._large_group_keep(
                        caps[:, start:stop],
                        delays[:, start:stop],
                        resources[start:stop],
                    )
                    keep[start + kept] = True
                continue
            step = max(1, budget // (width * width))
            for first in range(0, len(groups), step):
                tile = rows[first : first + step]
                real = valid[first : first + step]
                dominance = _dominance(caps[:, tile], delays[:, tile], _TOL)
                if diversity:
                    scan = range(len(tile))
                else:
                    earlier = self._triu(width)[None, :, :] & real[:, :, None]
                    flag0 = (
                        _dominance(caps[:, tile], delays[:, tile], None) & earlier
                    ).any(axis=1)
                    flagt = (dominance & earlier).any(axis=1)
                    keep[tile[real]] = ~flagt[real]
                    scan = np.nonzero((flagt & ~flag0 & real).any(axis=1))[0].tolist()
                for i in scan:
                    size = int(real[i].sum())
                    members = tile[i, :size]
                    kept = _sequential_keep(
                        dominance[i, :size, :size].tolist(),
                        resources[members].tolist() if diversity else None,
                    )
                    keep[members] = False
                    keep[members[kept]] = True
        return keep

    def _large_group_keep(
        self, caps: np.ndarray, delays: np.ndarray, resources: np.ndarray
    ) -> np.ndarray:
        """Kept positions of one group past the pairwise bound.

        Candidates with an earlier tolerance-free dominator are always
        dropped (see :meth:`_pairwise_sweep`); a column-blocked test removes
        them, and the exact scan decides the rest.
        """
        if self.config.keep_resource_diversity:
            return _scan_keep(caps, delays, resources)
        n = caps.shape[1]
        earlier = np.zeros(n, dtype=bool)
        rows = np.arange(n)[:, None]
        block = max(1, _PAIRWISE_LIMIT * _PAIRWISE_LIMIT // n)
        for start in range(0, n, block):
            stop = min(start + block, n)
            dominated = _dominance(caps, delays, None, slice(start, stop))
            dominated &= rows < np.arange(start, stop)[None, :]
            earlier[start:stop] = dominated.any(axis=0)
        survivors = np.nonzero(~earlier)[0]
        return survivors[_scan_keep(caps[:, survivors], delays[:, survivors])]

    @staticmethod
    def _beam_select(
        kept: np.ndarray,
        group: np.ndarray,
        groups: int,
        worst_delay: np.ndarray,
        beam_width: int,
    ) -> np.ndarray:
        """Vectorized ``_beam_select``: sample each group's staircase evenly.

        ``kept`` (sorted positions, ``group`` their group numbers) is already
        sorted by (worst cap, worst delay, resources) within each group,
        which the object backend's stable re-sort by (worst cap, worst delay)
        leaves unchanged.  Groups within the beam keep everything.
        """
        sizes = np.bincount(group, minlength=groups)
        over = np.nonzero(sizes > beam_width)[0]
        if over.size == 0:
            return kept
        select = sizes[group] <= beam_width
        starts = _starts(sizes)
        if beam_width <= 1:
            for g in over.tolist():
                start = int(starts[g])
                members = kept[start : start + int(sizes[g])]
                select[start + int(np.argmin(worst_delay[members]))] = True
        else:
            # round(i * last / (beam - 1)) with the object backend's
            # round-half-even; the indices are distinct because each group
            # holds more than beam_width candidates.
            last = sizes[over] - 1
            local = np.rint(
                np.arange(beam_width)[None, :] * last[:, None] / (beam_width - 1)
            ).astype(np.int64)
            select[(starts[over][:, None] + local).ravel()] = True
        return kept[select]

    # ------------------------------------------------------------------- root
    def _root_frontier(
        self, dp_tree: DpTree, frontiers: FrontierStore
    ) -> CandidateFrontier:
        """Cross-combine the root DP nodes at the clock source (front only)."""
        combo: CandidateFrontier | None = None
        for root_dp in dp_tree.root_nodes:
            frontier = frontiers[root_dp.index]
            sel = np.nonzero(frontier.side == SIDE_FRONT)[0]
            if sel.size == 0:
                raise RuntimeError(
                    f"root DP node {root_dp.name} has no front-side candidate"
                )
            if combo is None:
                combo = CandidateFrontier(
                    side=frontier.side[sel],
                    cap=frontier.cap[:, sel],
                    max_delay=frontier.max_delay[:, sel],
                    min_delay=frontier.min_delay[:, sel],
                    buffers=frontier.buffers[sel],
                    ntsvs=frontier.ntsvs[sel],
                    pattern=frontier.pattern[sel],
                    choice=sel[:, None].astype(np.int64),
                )
                continue
            m, n = combo.size, sel.size
            ia = np.repeat(np.arange(m), n)
            ib = np.tile(np.arange(n), m)
            combo = CandidateFrontier(
                side=np.zeros(ia.size, np.int8),
                cap=combo.cap[:, ia] + frontier.cap[:, sel][:, ib],
                max_delay=np.maximum(
                    combo.max_delay[:, ia], frontier.max_delay[:, sel][:, ib]
                ),
                min_delay=np.minimum(
                    combo.min_delay[:, ia], frontier.min_delay[:, sel][:, ib]
                ),
                buffers=combo.buffers[ia] + frontier.buffers[sel][ib],
                ntsvs=combo.ntsvs[ia] + frontier.ntsvs[sel][ib],
                pattern=np.full(ia.size, -1, np.int16),
                choice=np.concatenate(
                    [combo.choice[ia], sel[ib][:, None].astype(np.int64)],
                    axis=1,
                ),
            )
        # The clock source drives the root load; the drive resistance is
        # corner-independent but the driven load is not, so every corner row
        # gets its own source delay.
        source_delay = self.config.root_resistance * combo.cap
        return CandidateFrontier(
            side=combo.side,
            cap=combo.cap,
            max_delay=combo.max_delay + source_delay,
            min_delay=combo.min_delay + source_delay,
            buffers=combo.buffers,
            ntsvs=combo.ntsvs,
            pattern=combo.pattern,
            choice=combo.choice,
        )


def _dp_subtree_worker(payload) -> dict[int, CandidateFrontier]:
    """Evaluate one shipped DP subtree in a worker process.

    Rebuilds an equivalent :class:`VectorizedInsertionDp` and the subtree's
    nodes, then runs the same level pass as the serial DP.  The returned
    frontiers are keyed by the original DP node indices.
    """
    pdk, config, corner_pdks, primary, corner_aware, tables = payload
    dp = VectorizedInsertionDp(
        pdk,
        config,
        corner_pdks,
        primary_index=primary,
        corner_aware=corner_aware,
    )
    store = FrontierStore()
    dp._run_levels(VectorizedInsertionDp._nodes_from_tables(tables), store)
    return dict(store.items())


def _validate_subtree_frontiers(result, payload) -> None:
    """``run_tasks`` validate hook: probe a worker's frontier dict pre-merge.

    Cheap structural checks on the main process — exact key coverage of the
    shipped subtree, non-empty frontiers, finite cost columns — so a
    corrupting worker counts as a failed attempt (retried, then recomputed
    inline) instead of poisoning the serial spine above it.
    """
    tables = payload[5]
    expected = {row[0] for row in tables}
    if not isinstance(result, dict) or set(result) != expected:
        got = sorted(result) if isinstance(result, dict) else type(result).__name__
        raise RuntimeError(
            f"worker frontier keys mismatch: expected {sorted(expected)}, "
            f"got {got}"
        )
    for index, frontier in result.items():
        if frontier.size == 0:
            raise RuntimeError(f"DP node {index}: empty frontier from worker")
        for name in ("cap", "max_delay", "min_delay"):
            if not np.all(np.isfinite(getattr(frontier, name))):
                raise RuntimeError(
                    f"DP node {index}: non-finite {name} values in a "
                    "worker frontier"
                )
