"""In-memory spans around each layer's entry points (traced runs only).

The program under test carries no tracing of its own, so the traced run
replaces the attributes listed in :data:`ENTRY_POINTS` with thin
wrappers that record ``(name, start, end, parent, op)`` into parallel
lists.  Nothing is written until the run ends.  The untraced run — the
one every end-to-end metric comes from — never imports a wrapper into
the program: :func:`install` is called only under ``--trace 1``.

A span's *layer* is its name up to the last dot (``core.engine.compile``
belongs to ``core.engine``); a span's *self time* is its duration minus
the durations of its direct children.  The harness opens one root span
per timed operation (:meth:`Tracer.open_root`) whose two clock readings
*are* its timing of the operation, and every span recorded while a root
is open carries the root's index as its operation id.  If spans nest
properly the self times of an operation's spans therefore sum to its
wall time; :func:`ledger` re-derives that sum from the recorded spans
so a span that leaked across operations or closed out of order shows.
Spans with operation id -1 ran between operations (warm-up, the
correctness oracle) and are left out of every metric.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

#: root spans the harness opens itself; their self time is whatever no
#: wrapped entry point covered (``ledger.unattributed_frac``)
ROOT_LAYER = "ledger"


class Tracer:
    """Parallel-list span store; single-threaded by design."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self.stack: List[int] = []
        #: index of the root span in progress, -1 between operations
        self.op = -1

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        popped = self.stack.pop()
        assert popped == index, "spans must close in LIFO order"

    def open_root(self, phase: str) -> int:
        """Begin one harness operation: ``ledger.<phase>`` plus an op id.

        The root's two clock readings are the harness's own timing of
        the operation (:meth:`close_root` returns the duration), so the
        ledger and the reported latency measure the same interval.
        """
        assert self.op == -1, "operations do not nest"
        index = self.open(f"{ROOT_LAYER}.{phase}")
        self.ops[index] = index
        self.op = index
        return index

    def close_root(self, index: int) -> float:
        self.close(index)
        self.op = -1
        return self.ends[index] - self.starts[index]

    def wrap(self, fn: Callable, name: Union[str, Callable]) -> Callable:
        """``fn`` with a span around every call.

        ``name`` may be a callable taking the call's arguments; it
        returns the span name, or a zero-argument callable evaluated
        *after* the call when the name depends on what the call did
        (a cache hit and a rebuild are different rows of the ledger).
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self.stack
        clock = time.perf_counter
        tracer = self

        if isinstance(name, str):

            def traced(*args, **kwargs):
                index = len(names)
                names.append(name)
                parents.append(stack[-1] if stack else -1)
                ops.append(tracer.op)
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()

        else:

            def traced(*args, **kwargs):
                label = name(*args, **kwargs)
                index = len(names)
                names.append(label if isinstance(label, str) else "")
                parents.append(stack[-1] if stack else -1)
                ops.append(tracer.op)
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                    if not isinstance(label, str):
                        names[index] = label()

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced


# ----------------------------------------------------------------------
# Span names that depend on the call
# ----------------------------------------------------------------------


def _switch_message_name(switch, channel, message, *args, **kwargs) -> str:
    kind = type(message).__name__
    if kind == "FlowMod":
        return "openflow.switch.flowmod"
    if kind == "PacketOut":
        return "openflow.switch.packet_out"
    return "openflow.switch.control"


def _monitor_snapshot_name(monitor, *args, **kwargs):
    built = monitor.metrics.snapshots_built
    return lambda: (
        "core.monitor.snapshot_freeze"
        if monitor.metrics.snapshots_built != built
        else "core.monitor.snapshot_reuse"
    )


def _engine_compile_name(engine, *args, **kwargs):
    builds = engine.metrics.network_tf_builds
    return lambda: (
        "core.engine.compile"
        if engine.metrics.network_tf_builds != builds
        else "core.engine.compile_hit"
    )


def _atom_space_name(table, *args, **kwargs):
    builds = table.builds
    return lambda: (
        "hsa.atoms.space_build" if table.builds != builds else "hsa.atoms.space_hit"
    )


# ----------------------------------------------------------------------
# The one table of wrapped entry points
# ----------------------------------------------------------------------

#: (span name or namer, module, class or None for a module function,
#: attribute).  Underscore-named attributes are the callbacks a layer
#: hands to the simulator, a host or a channel — its entry point from
#: the event loop — never an internal helper reached from a public one.
ENTRY_POINTS: Tuple[Tuple[Union[str, Callable], str, Optional[str], str], ...] = (
    # client library and per-host auth daemon
    ("core.client.submit", "repro.core.client", "RVaaSClient", "submit"),
    ("core.client.on_response", "repro.core.client", "RVaaSClient", "_on_response_packet"),
    ("core.client.on_challenge", "repro.core.client", "AuthResponder", "_on_challenge"),
    # sealing
    ("core.protocol.seal_request", "repro.core.protocol", None, "seal_request"),
    ("core.protocol.unseal_request", "repro.core.protocol", None, "unseal_request"),
    ("core.protocol.seal_response", "repro.core.protocol", None, "seal_response"),
    ("core.protocol.unseal_response", "repro.core.protocol", None, "unseal_response"),
    ("core.protocol.seal_notice", "repro.core.protocol", None, "seal_notice"),
    ("core.protocol.sign_challenge", "repro.core.protocol", None, "sign_challenge"),
    ("core.protocol.verify_challenge", "repro.core.protocol", None, "verify_challenge"),
    ("core.protocol.sign_auth_reply", "repro.core.protocol", None, "sign_auth_reply"),
    ("core.protocol.verify_auth_reply", "repro.core.protocol", None, "verify_auth_reply"),
    # crypto primitives
    ("crypto.sign", "repro.crypto.sign", None, "sign"),
    ("crypto.verify", "repro.crypto.sign", None, "verify"),
    ("crypto.hybrid_encrypt", "repro.crypto.cipher", None, "hybrid_encrypt"),
    ("crypto.hybrid_decrypt", "repro.crypto.cipher", None, "hybrid_decrypt"),
    ("crypto.channel_protect", "repro.crypto.cipher", "SecureChannelKeys", "protect"),
    ("crypto.channel_unprotect", "repro.crypto.cipher", "SecureChannelKeys", "unprotect"),
    ("crypto.generate_keypair", "repro.crypto.keys", None, "generate_keypair"),
    # control channel
    ("openflow.channel.send", "repro.openflow.channel", "ControlChannel", "send_to_switch"),
    ("openflow.channel.send", "repro.openflow.channel", "ControlChannel", "send_to_controller"),
    ("openflow.channel.send", "repro.openflow.channel", "ControlChannel", "transmit_to_switch"),
    ("openflow.channel.deliver", "repro.openflow.channel", "ControlChannel", "_deliver"),
    # switch
    (_switch_message_name, "repro.openflow.switch", "OpenFlowSwitch", "handle_controller_message"),
    ("openflow.switch.packet", "repro.openflow.switch", "OpenFlowSwitch", "receive_packet"),
    # event loop, hosts, controller dispatch
    ("dataplane.simulator.step", "repro.dataplane.simulator", "Simulator", "step"),
    ("dataplane.host.send", "repro.dataplane.host", "Host", "send_packet"),
    ("dataplane.host.deliver", "repro.dataplane.host", "Host", "deliver"),
    ("controlplane.controller.dispatch", "repro.controlplane.controller", "ControllerApp", "_dispatch"),
    ("controlplane.provider.deploy", "repro.controlplane.provider", "ProviderController", "deploy"),
    # monitor, snapshots, history
    ("core.monitor.update", "repro.core.monitor", "ConfigurationMonitor", "handle_monitor_update"),
    (_monitor_snapshot_name, "repro.core.monitor", "ConfigurationMonitor", "snapshot_with_delta"),
    ("core.monitor.speculative_snapshot", "repro.core.monitor", "ConfigurationMonitor", "speculative_snapshot"),
    ("core.monitor.poll", "repro.core.monitor", "ConfigurationMonitor", "_poll_tick"),
    ("core.monitor.poll", "repro.core.monitor", "ConfigurationMonitor", "_on_poll_reply"),
    ("core.snapshot.content_hash", "repro.core.snapshot", "NetworkSnapshot", "content_hash"),
    ("core.snapshot.switch_rules_hash", "repro.core.snapshot", None, "switch_rules_hash"),
    ("core.history.record", "repro.core.history", "SnapshotHistory", "record"),
    # engine and HSA kernels
    ("core.engine.apply_delta", "repro.core.engine", "VerificationEngine", "apply_delta"),
    (_engine_compile_name, "repro.core.engine", "VerificationEngine", "compile"),
    ("core.engine.analyze", "repro.core.engine", "VerificationEngine", "analyze"),
    ("core.engine.atom_rows", "repro.core.engine", "VerificationEngine", "atom_rows"),
    ("hsa.transfer.compile_switch", "repro.hsa.transfer", None, "compile_switch_tf"),
    (_atom_space_name, "repro.hsa.atoms", "AtomTable", "space_for"),
    ("hsa.atoms.network_build", "repro.hsa.atoms", "AtomNetwork", "__init__"),
    ("hsa.atoms.row_propagate", "repro.hsa.atoms", "AtomNetwork", "propagate"),
    ("hsa.atoms.matrix_build", "repro.hsa.reachability", None, "build_reachability_matrix"),
    ("hsa.atoms.matrix_repair", "repro.hsa.reachability", None, "repair_reachability_matrix"),
    ("hsa.reachability.analyze", "repro.hsa.reachability", "ReachabilityAnalyzer", "analyze"),
    # verifier (``answer`` for client queries; the rest are what the
    # watch check and the gate's contract sweep call directly)
    ("core.verifier.answer", "repro.core.verifier", "LogicalVerifier", "answer"),
    ("core.verifier.isolation", "repro.core.verifier", "LogicalVerifier", "isolation"),
    ("core.verifier.reachable_destinations", "repro.core.verifier", "LogicalVerifier", "reachable_destinations"),
    ("core.verifier.reaching_sources", "repro.core.verifier", "LogicalVerifier", "reaching_sources"),
    ("core.verifier.geo_location", "repro.core.verifier", "LogicalVerifier", "geo_location"),
    ("core.verifier.waypoint_avoidance", "repro.core.verifier", "LogicalVerifier", "waypoint_avoidance"),
    ("core.verifier.traversal_switches", "repro.core.verifier", "LogicalVerifier", "traversal_switches"),
    ("core.verifier.forwarding_loops", "repro.core.verifier", "LogicalVerifier", "forwarding_loops"),
    ("core.verifier.auth_targets", "repro.core.verifier", "LogicalVerifier", "auth_targets"),
    # service front end, serving tier, in-band auth
    ("core.service.packet_in", "repro.core.service", "RVaaSController", "on_packet_in"),
    ("core.service.monitor_update", "repro.core.service", "RVaaSController", "on_monitor_update"),
    ("core.service.watch_check", "repro.core.service", "RVaaSController", "_run_watch_check"),
    ("serving.scheduler.submit", "repro.serving.scheduler", "QueryScheduler", "submit"),
    ("serving.scheduler.pump", "repro.serving.scheduler", "QueryScheduler", "pump"),
    ("core.inband.start_round", "repro.core.inband", "InBandTester", "start_round"),
    ("core.inband.auth_reply", "repro.core.inband", "InBandTester", "handle_auth_reply"),
    ("core.inband.round_deadline", "repro.core.inband", "InBandTester", "_round_deadline"),
    ("core.inband.send_response", "repro.core.inband", "InBandTester", "send_response"),
    # gate and federation
    ("core.gate.intercept", "repro.core.gate", "PreventiveGate", "intercept"),
    ("core.gate.pump", "repro.core.gate", "PreventiveGate", "_pump"),
    ("core.multiprovider.federated_query", "repro.core.multiprovider", "RVaaSFederation", "federated_query"),
    ("dataplane.asgraph.topology", "repro.dataplane.asgraph", None, "as_graph_topology"),
    ("dataplane.asgraph.snapshot", "repro.dataplane.asgraph", None, "build_snapshot"),
    ("dataplane.asgraph.registration", "repro.dataplane.asgraph", None, "client_registration"),
    ("dataplane.asgraph.federation", "repro.dataplane.asgraph", None, "federation_from_asgraph"),
)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point; returns the function that restores them.

    Call after importing the program (module functions are re-bound in
    every ``repro`` module that imported them by name) and before
    building a testbed (objects capture bound methods when constructed).
    """
    undo: List[Tuple[object, str, object]] = []
    for name, module_name, class_name, attribute in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(module, class_name)
            original = owner.__dict__[attribute]
            undo.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(original, name))
            continue
        original = getattr(module, attribute)
        wrapped = tracer.wrap(original, name)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            if loaded.__dict__.get(attribute) is original:
                undo.append((loaded, attribute, original))
                setattr(loaded, attribute, wrapped)

    def restore() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return restore


# ----------------------------------------------------------------------
# Reading the spans back
# ----------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class SpanView:
    """Durations, self times and per-name indexes over a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        assert not tracer.stack, "trace read while spans are open"
        self.tracer = tracer
        n = len(tracer.names)
        self.durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
        self.self_times = list(self.durations)
        for index, parent in enumerate(tracer.parents):
            if parent >= 0:
                self.self_times[parent] -= self.durations[index]
        #: name -> indexes of the spans that ran inside an operation
        self.by_name: Dict[str, List[int]] = {}
        for index, name in enumerate(tracer.names):
            if tracer.ops[index] >= 0:
                self.by_name.setdefault(name, []).append(index)

    def durations_of(self, name: str) -> List[float]:
        return [self.durations[i] for i in self.by_name.get(name, ())]

    def self_times_of(self, name: str) -> List[float]:
        return [self.self_times[i] for i in self.by_name.get(name, ())]

    def median(self, name: str, *, self_time: bool = False, scale: float = 1.0) -> float:
        """Median duration (or self time) of ``name`` spans; 0.0 if none ran."""
        values = self.self_times_of(name) if self_time else self.durations_of(name)
        return statistics.median(values) * scale if values else 0.0

    def has_ancestor(self, index: int, name: str) -> bool:
        names, parents = self.tracer.names, self.tracer.parents
        parent = parents[index]
        while parent >= 0:
            if names[parent] == name:
                return True
            parent = parents[parent]
        return False

    def child_time(self, index_set, layer: str) -> Dict[int, float]:
        """Per span in ``index_set``: time in direct children of ``layer``."""
        wanted = set(index_set)
        totals = {index: 0.0 for index in wanted}
        names, parents = self.tracer.names, self.tracer.parents
        for index, parent in enumerate(parents):
            if parent in wanted and layer_of(names[index]) == layer:
                totals[parent] += self.durations[index]
        return totals


def ledger(view: SpanView, phase: str) -> Tuple[Dict[str, float], List[float], List[float]]:
    """Self time by layer over every ``ledger.<phase>`` operation.

    Returns ``(seconds by layer, per-operation sum of self times,
    per-operation wall time)``; the root's own self time is the
    ``unattributed`` row.  The two lists line up operation by operation
    so the caller can check that the first re-derives the second.
    """
    tracer = view.tracer
    roots = view.by_name.get(f"{ROOT_LAYER}.{phase}", [])
    position = {root: i for i, root in enumerate(roots)}
    by_layer: Dict[str, float] = {}
    sums = [0.0] * len(roots)
    for index, op in enumerate(tracer.ops):
        slot = position.get(op)
        if slot is None:
            continue
        self_time = view.self_times[index]
        sums[slot] += self_time
        layer = "unattributed" if index == op else layer_of(tracer.names[index])
        by_layer[layer] = by_layer.get(layer, 0.0) + self_time
    return by_layer, sums, [view.durations[root] for root in roots]


def dump(tracer: Tracer) -> dict:
    """The trace as JSON-ready columns (names interned)."""
    table: Dict[str, int] = {}
    ids = [table.setdefault(name, len(table)) for name in tracer.names]
    return {
        "names": list(table),
        "columns": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [
            [ids[i], tracer.starts[i], tracer.ends[i], tracer.parents[i], tracer.ops[i]]
            for i in range(len(ids))
        ],
    }
