"""Per-layer metrics and the ledger table, from one traced run.

Three sources, kept apart on purpose:

* **timings** come only from the harness's spans (:mod:`spans`).  A
  metric named ``<layer>.<what>_<unit>`` is the median *inclusive*
  duration of one call of that entry point, wherever in the run it was
  called; names with ``_self_`` are self times.  A layer that a
  workload never enters reports 0.
* **ratios and counts** are deltas of the layers' own public counters
  over the timed window, divided as the name says.
* **the ledger** is self time by layer, summed over the timed
  operations and divided by their number: its rows plus
  ``unattributed`` add up to the mean wall time of one operation.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import List, Optional, Sequence

from benchmarks.ledger import spans

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Σ self times of an operation's spans may differ from the operation's
#: wall time (its root span, the harness's clock pair) by this share
IDENTITY_TOLERANCE = 0.01


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``values`` need not be sorted."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)  # ceiling
    return ordered[max(1, int(rank)) - 1]


def supported_tail(n: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: List[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def report(run) -> dict:
    """Everything the traced run adds to a workload's result."""
    view = spans.SpanView(run.tracer)
    ops = max(1, len(run.op_s))

    def delta(key: str) -> float:
        return run.after.get(key, 0) - run.before.get(key, 0)

    def med(name: str, scale: float) -> float:
        return view.median(name, scale=scale)

    # -- derived from span geometry ------------------------------------
    pumps = view.by_name.get("serving.scheduler.pump", [])
    pump_starts = [run.tracer.starts[i] for i in pumps]
    waits: List[float] = []
    cursor = 0
    for index in view.by_name.get("serving.scheduler.submit", []):
        end = run.tracer.ends[index]
        while cursor < len(pump_starts) and pump_starts[cursor] < end:
            cursor += 1
        if cursor < len(pump_starts):
            waits.append(pump_starts[cursor] - end)

    starts = view.by_name.get("core.inband.start_round", [])
    deadlines = view.by_name.get("core.inband.round_deadline", [])
    # one client: rounds never overlap, so the n-th deadline closes the n-th round
    rounds = [
        run.tracer.ends[close] - run.tracer.starts[open_]
        for open_, close in zip(starts, deadlines)
    ]

    parents = set(run.tracer.parents)
    # a pump that found its queue empty has no children; one that
    # decided called the monitor, the verifier and the signer
    decided = [i for i in view.by_name.get("core.gate.pump", []) if i in parents]
    sweeps = view.child_time(decided, "core.verifier")

    compiles = view.by_name.get("core.engine.compile", [])
    domain_compiles = [
        view.durations[i]
        for i in compiles
        if view.has_ancestor(i, "core.multiprovider.federated_query")
    ]
    federated = set(view.by_name.get("core.multiprovider.federated_query", []))
    fallbacks = sum(
        1 for i in view.by_name.get("core.engine.analyze", [])
        if run.tracer.parents[i] in federated
    )
    matrix_items = sum(
        1 for i in view.by_name.get("core.engine.atom_rows", [])
        if run.tracer.parents[i] in federated
    )

    # -- the ledgers, and the identity Σ self times == operation wall ---
    ledgers = {}
    worst = 0.0
    for phase, count in run.ledger_ops.items():
        rows, sums, walls = spans.ledger(view, phase)
        ledgers[phase] = {
            "operations": count,
            "wall_s": sum(walls) / count,
            "rows_s": {layer: seconds / count for layer, seconds in sorted(rows.items())},
        }
        worst = max([worst] + [abs(total - wall) / wall for total, wall in zip(sums, walls)])
    op_rows = ledgers["op"]["rows_s"]  # already per operation

    metrics = {
        "core.client.submit_us": med("core.client.submit", 1e6),
        "core.client.verify_response_us": med("core.client.on_response", 1e6),
        "core.protocol.seal_request_us": med("core.protocol.seal_request", 1e6),
        "core.protocol.unseal_request_us": med("core.protocol.unseal_request", 1e6),
        "core.protocol.seal_response_us": med("core.protocol.seal_response", 1e6),
        "core.protocol.unseal_response_us": med("core.protocol.unseal_response", 1e6),
        "crypto.sign_us": med("crypto.sign", 1e6),
        "crypto.verify_us": med("crypto.verify", 1e6),
        # per control message: one protect at the sender, one unprotect
        # at the receiver
        "crypto.channel_protect_us": med("crypto.channel_protect", 1e6)
        + med("crypto.channel_unprotect", 1e6),
        "openflow.channel.msgs_per_op": delta("channel.messages") / ops,
        "openflow.channel.deliver_us": view.median(
            "openflow.channel.deliver", self_time=True, scale=1e6
        ),
        "openflow.switch.flowmod_us": med("openflow.switch.flowmod", 1e6),
        "openflow.switch.packet_us": med("openflow.switch.packet", 1e6),
        "dataplane.simulator.events_per_op": delta("sim.events") / ops,
        "dataplane.simulator.step_self_us": view.median(
            "dataplane.simulator.step", self_time=True, scale=1e6
        ),
        "core.monitor.update_us": med("core.monitor.update", 1e6),
        "core.monitor.snapshot_freeze_us": med("core.monitor.snapshot_freeze", 1e6),
        "core.monitor.snapshot_reuse_frac": _ratio(
            delta("monitor.snapshots_reused"),
            delta("monitor.snapshots_reused") + delta("monitor.snapshots_built"),
        ),
        # hashing is memoised per snapshot, so a per-call median would
        # read the cache hit: report the layer's self time per operation
        "core.snapshot.content_hash_us": op_rows.get("core.snapshot", 0.0) * 1e6,
        "core.engine.apply_delta_us": med("core.engine.apply_delta", 1e6),
        "core.engine.compile_ms": med("core.engine.compile", 1e3),
        "core.engine.switch_tf_hit_frac": _ratio(
            delta("engine.switch_tf_hits"),
            delta("engine.switch_tf_hits") + delta("engine.switch_tf_misses"),
        ),
        "core.engine.matrix_repair_frac": _ratio(
            delta("engine.matrix_repairs"),
            delta("engine.matrix_repairs")
            + delta("engine.atom_matrix_builds")
            + delta("engine.matrix_repair_fallbacks"),
        ),
        "core.engine.rows_reused_frac": _ratio(
            delta("engine.rows_reused"),
            delta("engine.rows_reused") + delta("engine.rows_repaired"),
        ),
        "hsa.transfer.compile_switch_ms": med("hsa.transfer.compile_switch", 1e3),
        "hsa.atoms.space_build_ms": med("hsa.atoms.space_build", 1e3),
        "hsa.atoms.matrix_build_s": med("hsa.atoms.matrix_build", 1.0),
        "hsa.atoms.row_propagate_ms": med("hsa.atoms.row_propagate", 1e3),
        "hsa.reachability.analyze_ms": med("hsa.reachability.analyze", 1e3),
        "hsa.reachability.worklist_peak": run.after.get("engine.worklist_peak", 0),
        "core.verifier.answer_us": med("core.verifier.answer", 1e6),
        "core.verifier.atom_served_frac": _ratio(
            delta("engine.atom_served_queries"),
            delta("engine.atom_served_queries") + delta("engine.atom_fallbacks"),
        ),
        "core.verifier.row_cache_hit_frac": _ratio(
            delta("verifier.row_cache_hits"),
            delta("verifier.row_cache_hits") + delta("verifier.row_cache_misses"),
        ),
        "serving.scheduler.submit_us": med("serving.scheduler.submit", 1e6),
        "serving.scheduler.pump_ms": med("serving.scheduler.pump", 1e3),
        "serving.scheduler.queue_wait_ms": _median(waits, 1e3),
        "serving.scheduler.coalesced_frac": _ratio(
            delta("scheduler.coalesced"), delta("scheduler.admitted")
        ),
        "serving.scheduler.answer_cache_hit_frac": _ratio(
            delta("scheduler.answer_cache_hits"),
            delta("scheduler.answer_cache_hits") + delta("scheduler.engine_calls"),
        ),
        "serving.scheduler.engine_calls_per_query": _ratio(
            delta("scheduler.engine_calls"), delta("scheduler.served")
        ),
        "core.inband.auth_round_ms": _median(rounds, 1e3),
        "core.inband.challenges_per_query": delta("inband.challenges_sent") / ops,
        # harness-timed (install_flow call -> signed decision visible),
        # taken in the traced run so they sit beside the gate's spans
        "core.gate.decision_p50_ms": _median(run.gate_decision_s, 1e3),
        "core.gate.decision_p95_ms": (
            percentile(run.gate_decision_s, 95) * 1e3 if run.gate_decision_s else 0.0
        ),
        "core.gate.decide_self_ms": _median([view.self_times[i] for i in decided], 1e3),
        "core.gate.speculative_snapshot_us": med("core.monitor.speculative_snapshot", 1e6),
        "core.gate.contract_sweep_ms": _median(list(sweeps.values()), 1e3),
        "core.gate.noop_allow_frac": _ratio(
            delta("gate.noop_allowed"), delta("gate.intercepted")
        ),
        "core.multiprovider.domain_compile_ms": _median(domain_compiles, 1e3),
        "core.multiprovider.messages_per_query": (
            statistics.fmean(run.federated_messages) if run.federated_messages else 0.0
        ),
        "core.multiprovider.item_fallback_frac": _ratio(fallbacks, matrix_items),
        "ledger.unattributed_frac": _ratio(
            op_rows.get("unattributed", 0.0), ledgers["op"]["wall_s"]
        ),
        # filled in by run.py, which also has the untraced run's median
        "ledger.trace_overhead_frac": 0.0,
    }

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{run.spec.name}.json")
    with open(trace_path, "w") as handle:
        json.dump(spans.dump(run.tracer), handle)

    return {
        "per_layer": metrics,
        "ledgers": ledgers,
        "identity_worst": worst,
        "identity_ok": worst <= IDENTITY_TOLERANCE,
        "spans": len(run.tracer.names),
        "trace_file": os.path.relpath(trace_path),
        "traced_op_median_s": statistics.median(run.op_s) if run.op_s else 0.0,
    }
