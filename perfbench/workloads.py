"""The benchmark's three workloads.

Each workload is built from its seed alone and exposes the same steps:
``setup()`` (everything before the first timed sample), ``sample()`` (one
timed unit of work, returning ``(seconds, attempted, failed)``), ``check()``
(the output correctness check, outside the timed region), ``qor()`` (the
quality-of-result sums) and ``close()``.

The designs are the Table II designs C1-C5 at full scale, whose placement
seeds are part of the Table II definition: re-seeding the placements moved
the summed skew of the suite by a quarter from seed to seed, which would
make the QoR metrics useless as a gate.  The workload seed therefore drives
what a user chooses: the order designs and sweep points are run in, and the
serve request mix.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import random
import socket
import threading
import time
from dataclasses import dataclass

from repro import designs
from repro.dse import DesignSpaceExplorer
from repro.flow import BackendSelection, CtsConfig, DoubleSideCTS
from repro.ir.design import KIND_BUFFER, KIND_SINK
from repro.serve import CtsServer, encode_reply, ok_reply, one_shot_reply
from repro.tech.pdk import asap7_backside

from percentiles import median, percentile

#: Quality-of-result columns, summed over designs, sweep points or sessions.
QOR = {
    "latency_ps": "ps",
    "skew_ps": "ps",
    "wirelength_um": "um",
    "buffers": "count",
    "ntsvs": "count",
}

FLOW_IDS = ("C1", "C2", "C3", "C4", "C5")
DSE_ID = "C3"
DSE_THRESHOLDS = (0, 4, 8, 16, 32, 64, 128, 1000)
SERVE_IDS = ("C1", "C3", "C5")
CORNERS = "tt,ss,ff"
#: Per session and serve round: read-only what-ifs, three-corner what-ifs,
#: and two commits (a change and its inverse) -- 80%, 10% and 10%.
READS = 16
CORNER_READS = 2
#: Distinct rounds generated per run; the loop cycles through them.
ROUNDS = 64


def load(bench_id: str):
    return designs.load_design(bench_id, include_combinational=False)


def qor_sum(rows: list[dict]) -> dict[str, float]:
    """Sum the QoR columns of metrics rows (given in a fixed order)."""
    return {key: sum(row[key] for row in rows) for key in QOR}


def _row(metrics) -> dict:
    row = dict(metrics.as_row())
    row.pop("runtime_s")
    return row


class FlowSuite:
    """One-shot double-side CTS over Table II C1-C5, as a designer runs it."""

    name = "flow_suite"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.passes: list[dict[str, dict]] = []

    def setup(self) -> None:
        self.pdk = asap7_backside()
        self.designs = {bench_id: load(bench_id) for bench_id in FLOW_IDS}
        DoubleSideCTS(self.pdk, CtsConfig()).run(self.designs["C4"])

    def sample(self) -> tuple[float, int, int]:
        order = self.rng.sample(FLOW_IDS, len(FLOW_IDS))
        results = {}
        start = time.perf_counter()
        for bench_id in order:
            results[bench_id] = DoubleSideCTS(self.pdk, CtsConfig()).run(
                self.designs[bench_id]
            )
        elapsed = time.perf_counter() - start
        self.passes.append({k: _row(r.metrics) for k, r in results.items()})
        return elapsed, len(order), 0

    def check(self) -> list[str]:
        problems = []
        first = self.passes[0]
        if any(rows != first for rows in self.passes[1:]):
            problems.append("flow_suite: metrics rows differ between passes")
        reference = CtsConfig(
            backends=BackendSelection(
                timing="reference", dp="reference", dme="reference"
            )
        )
        for bench_id in FLOW_IDS:
            spec = _row(
                DoubleSideCTS(self.pdk, reference).run(self.designs[bench_id]).metrics
            )
            if spec != first[bench_id]:
                problems.append(
                    f"flow_suite: {bench_id} row {first[bench_id]} differs from "
                    f"the reference-backend row {spec}"
                )
        return problems

    def qor(self) -> dict[str, float]:
        return qor_sum([self.passes[0][k] for k in FLOW_IDS])

    def close(self) -> None:
        pass


class DseSweep:
    """Fanout-threshold design-space sweep of C3 on the serial path."""

    name = "dse_sweep"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.sweeps: list[dict[int, dict]] = []
        self.problems: list[str] = []

    def setup(self) -> None:
        self.pdk = asap7_backside()
        self.design = load(DSE_ID)
        DesignSpaceExplorer(self.pdk, CtsConfig()).explore(
            load("C4"), (0, 1000), workers=1
        )

    def sample(self) -> tuple[float, int, int]:
        thresholds = self.rng.sample(DSE_THRESHOLDS, len(DSE_THRESHOLDS))
        start = time.perf_counter()
        result = DesignSpaceExplorer(self.pdk, CtsConfig()).explore(
            self.design, thresholds, workers=1
        )
        elapsed = time.perf_counter() - start
        retried = [p.parameter for p in result.points if p.retried]
        if len(result.points) != len(thresholds):
            self.problems.append(
                f"dse_sweep: {len(result.points)} points for {len(thresholds)} "
                "thresholds"
            )
        if result.failures or retried or result.parallel_diagnostics:
            self.problems.append(
                f"dse_sweep: failures {result.failures}, retried {retried}, "
                f"pool events {result.parallel_diagnostics}"
            )
        self.sweeps.append(
            {int(p.parameter): _row(p.metrics) for p in result.points}
        )
        return elapsed, len(thresholds), len(result.failures) + len(retried)

    def check(self) -> list[str]:
        problems = list(self.problems)
        if any(rows != self.sweeps[0] for rows in self.sweeps[1:]):
            problems.append("dse_sweep: point rows differ between sweeps")
        return problems

    def qor(self) -> dict[str, float]:
        first = self.sweeps[0]
        return qor_sum([first[t] for t in sorted(first)])

    def close(self) -> None:
        pass


# ------------------------------------------------------------------ serve
@dataclass(frozen=True)
class SessionNodes:
    """The node names of one built session that requests may edit."""

    key: str
    sinks: tuple[str, ...]
    buffers: tuple[str, ...]
    parent_of: dict[str, str]

    @classmethod
    def of(cls, key: str, design) -> "SessionNodes":
        rows = [int(r) for r in design.alive_rows()]
        sinks = sorted(design.names[r] for r in rows if design.kind[r] == KIND_SINK)
        buffers = sorted(
            design.names[r] for r in rows if design.kind[r] == KIND_BUFFER
        )
        parent_of = {
            design.names[r]: design.names[int(design.parent_row[r])]
            for r in rows
            if design.kind[r] == KIND_SINK
        }
        return cls(key, tuple(sinks), tuple(buffers), parent_of)


@dataclass(frozen=True)
class Request:
    kind: str  # "read", "corner" or "commit"
    label: str  # benchmark id of the session
    id: str
    edits: tuple
    corners: str | None
    line: bytes


def _request(kind, label, request_id, key, edits, corners=None) -> Request:
    payload = {"op": "what_if", "id": request_id, "session": key, "edits": edits}
    if kind == "commit":
        payload["commit"] = True
    if corners is not None:
        payload["corners"] = corners
    line = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return Request(kind, label, request_id, tuple(edits), corners, line)


def _retarget_target(rng: random.Random, nodes: SessionNodes, sink: str) -> str:
    while True:
        target = rng.choice(nodes.buffers)
        if target != nodes.parent_of[sink]:
            return target


def _read_edits(rng: random.Random, nodes: SessionNodes) -> list[dict]:
    """1-3 edits on distinct nodes: buffer a sink or buffer, or move a sink
    under another buffer (sinks are leaves, so no move forms a cycle)."""
    used: set[str] = set()
    edits = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            pool = nodes.sinks if rng.random() < 0.5 else nodes.buffers
            node = rng.choice(pool)
            while node in used:
                node = rng.choice(pool)
            edits.append({"kind": "insert_buffer", "node": node})
        else:
            node = rng.choice(nodes.sinks)
            while node in used:
                node = rng.choice(nodes.sinks)
            target = _retarget_target(rng, nodes, node)
            edits.append({"kind": "retarget", "node": node, "new_parent": target})
        used.add(node)
    return edits


def serve_rounds(
    seed: int, sessions: dict[str, SessionNodes], count: int
) -> list[list[Request]]:
    """``count`` request rounds drawn from ``seed``.

    A round sends every session the same mix, so rounds differ in their
    edit targets but not in how much work they hold: per session
    :data:`READS` read-only what-ifs, :data:`CORNER_READS` three-corner
    what-ifs, and a commit moving 1-3 sinks under other buffers whose
    inverse is committed later in the round.  Each round therefore leaves
    every session's committed topology as it found it: the loop may stop
    after any round and the final QoR is the same.
    """
    rng = random.Random(seed)
    labels = sorted(sessions)
    rounds = []
    for r in range(count):
        plain = []
        for label in labels:
            plain += [("read", label)] * READS + [("corner", label)] * CORNER_READS
        rng.shuffle(plain)
        size = len(plain) + 2 * len(labels)
        forward = dict(zip(labels, rng.sample(range(size // 2), len(labels))))
        inverse = dict(zip(labels, rng.sample(range(size // 2, size), len(labels))))
        commit_at = {i: ("forward", label) for label, i in forward.items()}
        commit_at.update({i: ("inverse", label) for label, i in inverse.items()})
        moves = {}
        for label in labels:
            nodes = sessions[label]
            moves[label] = [
                (sink, _retarget_target(rng, nodes, sink))
                for sink in rng.sample(nodes.sinks, rng.randint(1, 3))
            ]
        requests = []
        for i in range(size):
            request_id = f"{r}.{i}"
            if i in commit_at:
                direction, label = commit_at[i]
                nodes = sessions[label]
                if direction == "forward":
                    pairs = moves[label]
                else:
                    pairs = [
                        (sink, nodes.parent_of[sink])
                        for sink, _target in reversed(moves[label])
                    ]
                edits = [
                    {"kind": "retarget", "node": sink, "new_parent": target}
                    for sink, target in pairs
                ]
                requests.append(_request("commit", label, request_id, nodes.key, edits))
                continue
            kind, label = plain.pop()
            requests.append(
                _request(
                    kind,
                    label,
                    request_id,
                    sessions[label].key,
                    _read_edits(rng, sessions[label]),
                    CORNERS if kind == "corner" else None,
                )
            )
        rounds.append(requests)
    return rounds


class ServeWhatIf:
    """What-if traffic from one closed-loop client to an in-process server."""

    name = "serve_whatif"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server: CtsServer | None = None
        self.thread: threading.Thread | None = None
        self.sock: socket.socket | None = None
        self.address: tuple[str, int] | None = None
        #: Executed rounds in order: (per-request latencies, reply lines).
        self.log: list[tuple[list[float], list[bytes]]] = []

    # ----------------------------------------------------------- transport
    def _start_server(self) -> tuple[str, int]:
        self.server = CtsServer(self.pdk, CtsConfig(), workers=1)
        banner = io.StringIO()
        self.thread = threading.Thread(
            target=asyncio.run,
            args=(self.server.serve_tcp("127.0.0.1", 0),),
            name="perfbench-serve",
            daemon=True,
        )
        # The server announces its port on stdout; keep that line out of the
        # benchmark's own output.
        with contextlib.redirect_stdout(banner):
            self.thread.start()
            deadline = time.monotonic() + 60
            while "serving on " not in banner.getvalue():
                if not self.thread.is_alive() or time.monotonic() > deadline:
                    raise RuntimeError("serve thread did not come up")
                time.sleep(0.005)
        address = banner.getvalue().split("serving on ", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        return host, int(port)

    def _call(self, payload: dict) -> dict:
        self.sock.sendall((json.dumps(payload) + "\n").encode())
        reply = json.loads(self._readline())
        if not reply.get("ok"):
            raise RuntimeError(f"{payload.get('op')} failed: {reply.get('error')}")
        return reply["result"]

    def _readline(self) -> bytes:
        line = self.reader.readline()
        if not line:
            raise RuntimeError("server closed the connection")
        return line

    # ------------------------------------------------------------- steps
    def setup(self) -> None:
        self.pdk = asap7_backside()
        self.address = self._start_server()
        self.sock = socket.create_connection(self.address, timeout=120)
        self.reader = self.sock.makefile("rb")
        self.keys = {}
        for label in SERVE_IDS:
            built = self._call({"op": "build", "id": f"build-{label}", "design": label})
            self.keys[label] = built["session"]
        sessions = {}
        for label, key in self.keys.items():
            nodes = SessionNodes.of(key, self.server.sessions.get(key).design)
            sessions[label] = nodes
            # Compile the nominal and three-corner engines and take one trip
            # through the incremental path before the first timed request.
            for corners in (None, CORNERS):
                self._call(
                    {
                        "op": "what_if",
                        "session": key,
                        "edits": [{"kind": "insert_buffer", "node": nodes.sinks[0]}],
                        "corners": corners,
                    }
                )
        self.rounds = serve_rounds(self.seed, sessions, ROUNDS)

    def sample(self) -> tuple[float, int, int]:
        requests = self._round(len(self.log))
        latencies = []
        replies = []
        start = time.perf_counter()
        for request in requests:
            sent = time.perf_counter()
            self.sock.sendall(request.line)
            replies.append(self._readline())
            latencies.append(time.perf_counter() - sent)
        elapsed = time.perf_counter() - start
        self.log.append((latencies, replies))
        failed = sum(1 for reply in replies if not json.loads(reply)["ok"])
        return elapsed, len(requests), failed

    def executed(self, positions: list[int]) -> tuple[list[str], list[float]]:
        """Kinds and latencies (s) of the requests of the executed rounds at
        ``positions``."""
        kinds, latencies = [], []
        for position in positions:
            for request, latency in zip(self._round(position), self.log[position][0]):
                kinds.append(request.kind)
                latencies.append(latency)
        return kinds, latencies

    def request_metrics(self, positions: list[int], seconds: float) -> dict[str, float]:
        """The serve client's view of the executed rounds at ``positions``
        (which took ``seconds``), in ms and 1/s."""
        by_kind: dict[str, list[float]] = {"read": [], "corner": [], "commit": []}
        for kind, latency in zip(*self.executed(positions)):
            by_kind[kind].append(latency)
        requests = sum(len(v) for v in by_kind.values())
        return {
            "serve.whatif_p50_ms": median(by_kind["read"]) * 1e3,
            "serve.whatif_p90_ms": percentile(by_kind["read"], 90) * 1e3,
            "serve.commit_p50_ms": median(by_kind["commit"]) * 1e3,
            "serve.corner_whatif_p50_ms": median(by_kind["corner"]) * 1e3,
            "serve.requests_per_s": requests / seconds,
        }

    def check(self) -> list[str]:
        """Every reply ok, and a seeded sample byte-equal to the cold spec."""
        problems = []
        for _latencies, replies in self.log:
            for reply in replies:
                if not json.loads(reply)["ok"]:
                    problems.append(f"serve_whatif: error reply {reply[:200]!r}")
        rng = random.Random(self.seed)
        first, last = 0, len(self.log) - 1
        picks = []
        for position, kinds in ((first, ("read", "corner")), (last, ("read",))):
            requests = self._round(position)
            for kind in kinds:
                candidates = [i for i, r in enumerate(requests) if r.kind == kind]
                picks.append((position, rng.choice(candidates)))
        for position, slot in picks:
            problems.extend(self._check_reply(position, slot))
        return problems

    def _round(self, position: int) -> list[Request]:
        return self.rounds[position % len(self.rounds)]

    def _check_reply(self, position: int, slot: int) -> list[str]:
        request = self._round(position)[slot]
        committed = []
        for earlier_position in range(position + 1):
            executed = self._round(earlier_position)
            if earlier_position == position:
                executed = executed[:slot]
            for earlier in executed:
                if earlier.kind == "commit" and earlier.label == request.label:
                    committed.extend(earlier.edits)
        design = load(request.label)
        spec = one_shot_reply(
            self.pdk,
            design.require_clock_net(),
            CtsConfig(),
            design.name,
            edits=list(request.edits),
            corners=request.corners,
            committed=committed,
        )
        expected = encode_reply(ok_reply(request.id, spec)).encode()
        got = self.log[position][1][slot].rstrip(b"\n")
        if got != expected:
            return [
                f"serve_whatif: reply {request.id} differs from one_shot_reply: "
                f"{got[:300]!r} != {expected[:300]!r}"
            ]
        return []

    def qor(self) -> dict[str, float]:
        return qor_sum(
            [
                self._call({"op": "query", "session": self.keys[k]})["metrics"]
                for k in SERVE_IDS
            ]
        )

    def close(self) -> None:
        if self.thread is None:
            return
        try:
            if self.sock is None and self.address is not None:
                self.sock = socket.create_connection(self.address, timeout=30)
                self.reader = self.sock.makefile("rb")
            if self.sock is not None:
                self._call({"op": "shutdown"})
        except (OSError, RuntimeError):
            pass  # the thread is a daemon: it ends with the process
        finally:
            if self.sock is not None:
                self.reader.close()
                self.sock.close()
                self.sock = None
        self.thread.join(timeout=60)
        if self.thread.is_alive():
            raise RuntimeError("serve thread did not stop")
        self.thread = None


WORKLOADS = {w.name: w for w in (FlowSuite, DseSweep, ServeWhatIf)}
