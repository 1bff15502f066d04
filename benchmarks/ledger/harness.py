"""Runs one workload in this process and returns what it measured.

One call to :func:`run_workload` is one workload subprocess: it builds
the deployment (several times, for a set-up median), takes the first
verdict of each fresh service as a cold sample, warms up, then drives
the seeded operation stream in a closed loop — every simulated client
waits for its signature-verified reply before sending again — timing
each operation with ``perf_counter``.  Correctness checks run outside
the timed intervals and feed ``failed``.

The program is driven only through its public surface
(``build_testbed``, ``RVaaSClient.submit``, ``Simulator.step``,
``provider.install_flow`` / ``remove_flow``, ``federated_query``);
ratios and counts are deltas of the layers' own public counters over
the timed window, timings of layers come from :mod:`spans` in the
traced run.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import BACKEND_ENV_VAR, VerificationEngine
from repro.core.gate import GATE_ALLOW, GateConfig, GatePolicy, verify_gate_record
from repro.core.protocol import STATUS_OK, ClientRegistration
from repro.core.queries import IsolationQuery
from repro.core.verifier import LogicalVerifier
from repro.dataplane import asgraph
from repro.faults import ground_truth_snapshot
from repro.hsa.wildcard import Wildcard
from repro.serving import ServingConfig
from repro.testbed import Testbed, build_testbed

from benchmarks.ledger import layers, spans, workloads
from benchmarks.ledger.layers import percentile, supported_tail

#: virtual seconds an in-band operation may take before it counts as lost
MAX_WAIT = 5.0

#: share of the nominal operation count run untimed before the window
WARMUP_FRACTION = 0.05

#: share of query answers recomputed against the oracle
ORACLE_SAMPLE = 0.05

#: every n-th churn round is checked against ground truth, up to a cap
#: that keeps the (untimed) oracle from dominating a time-limited run
CHURN_ORACLE_EVERY = 10
CHURN_ORACLE_MAX = 12

FORBIDDEN_REGIONS = ("offshore",)

#: ``build_testbed``'s own seed (simulator RNG, key generation) is held
#: constant: ``--seed`` varies the workload's inputs, and a per-seed key
#: pair would move set-up time and every signature by a few percent
BED_SEED = 0


@dataclasses.dataclass(frozen=True)
class Spec:
    """Fixed shape of one workload (``--quick`` divides the sizes)."""

    name: str
    backend: str
    #: nominal operations in the timed stream (the issue's sizes)
    ops: int
    #: fresh deployments built per run (set-up and cold-verdict samples)
    setups: int
    #: simulated clients with a request outstanding
    clients: int = 1


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("steady-dup", "atom", ops=4000, setups=5, clients=16),
        Spec("fig1-auth", "wildcard", ops=1000, setups=5),
        Spec("churn-watch", "atom", ops=400, setups=5),
        Spec("churn-gated", "atom", ops=400, setups=5),
        Spec("cold-ft6", "atom", ops=400, setups=1),
        Spec("federation-80", "atom", ops=1000, setups=3),
    )
}


class Run:
    """Accumulates one workload's samples, failures and counters."""

    def __init__(self, spec: Spec, seed: int, seconds: Optional[float], quick: bool,
                 tracer: Optional[spans.Tracer]) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.scale = 20 if quick else 1
        self.tracer = tracer
        self.setup_s: List[float] = []
        self.cold_s: List[float] = []
        self.op_s: List[float] = []
        self.window_s = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        #: operations each ledger phase's roots stand for
        self.ledger_ops: Dict[str, int] = {}
        self.before: Dict[str, float] = {}
        self.after: Dict[str, float] = {}
        self.info: Dict[str, float] = {}
        self.gate_decision_s: List[float] = []
        self.federated_messages: List[int] = []

    @property
    def ops(self) -> int:
        return max(self.spec.clients * 2, self.spec.ops // self.scale)

    @property
    def warmup(self) -> int:
        return max(1, int(self.ops * WARMUP_FRACTION))

    @property
    def setups(self) -> int:
        return 1 if self.scale > 1 else self.spec.setups

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def timed(self, phase: str, fn: Callable[[], object]):
        """``fn()`` as one timed operation; returns (seconds, result)."""
        if self.tracer is None:
            start = time.perf_counter()
            result = fn()
            return time.perf_counter() - start, result
        root = self.tracer.open_root(phase)
        try:
            result = fn()
        finally:
            elapsed = self.tracer.close_root(root)
        self.ledger_ops[phase] = self.ledger_ops.get(phase, 0) + 1
        return elapsed, result

    def deadline(self) -> float:
        if self.seconds is None:
            return float("inf")
        return time.perf_counter() + self.seconds


# ----------------------------------------------------------------------
# Testbed plumbing shared by the five in-band workloads
# ----------------------------------------------------------------------


def add_counters(out: Dict[str, float], prefix: str, counters: Dict[str, object]) -> None:
    """Sum the numeric entries of one counters dict into ``out``."""
    for key, value in counters.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"{prefix}.{key}"] = out.get(f"{prefix}.{key}", 0) + value


def read_counters(bed: Testbed) -> Dict[str, float]:
    """Every public counter the per-layer ratios are built from."""
    service = bed.service
    out: Dict[str, float] = {}

    def take(prefix: str, counters: Dict[str, object]) -> None:
        add_counters(out, prefix, counters)

    take("engine", service.engine.metrics.snapshot_counters())
    take("monitor", dataclasses.asdict(service.monitor.metrics))
    if service.scheduler is not None:
        take("scheduler", service.scheduler.metrics.snapshot_counters())
    if bed.gate is not None:
        take("gate", bed.gate.stats())
    out["verifier.row_cache_hits"] = service.verifier.row_cache_hits
    out["verifier.row_cache_misses"] = service.verifier.row_cache_misses
    out["inband.challenges_sent"] = service.inband.challenges_sent
    out["sim.events"] = bed.network.sim.events_executed
    out["channel.messages"] = sum(c.total_messages() for c in bed.network.channels)
    return out


def ask(run: Run, bed: Testbed, tenant: str, query) -> Optional[object]:
    """One in-band query to a verified response, or ``None`` on failure.

    ``RVaaSClient`` drops any reply that fails decryption or the service
    signature, so a forged reply shows up here as a timeout.
    """
    try:
        handle = bed.ask(tenant, query, max_wait=MAX_WAIT)
    except TimeoutError:
        run.fail(f"{tenant}: {type(query).__name__} unanswered")
        return None
    response = handle.response
    if response is None or response.status != STATUS_OK or response.answer is None:
        run.fail(f"{tenant}: {type(query).__name__} refused ({response and response.status})")
        return None
    return response


class Oracle:
    """A wildcard-backend verifier over the data plane's actual rules.

    Shares nothing with the service under test but the registrations:
    its own engine, the frozen ground truth instead of the mirror, and
    the propagation backend even where the service serves from atoms.
    """

    def __init__(self, bed: Testbed) -> None:
        self.bed = bed
        self.engine = VerificationEngine(backend="wildcard")
        self._verifier: Optional[LogicalVerifier] = None
        self._truth = None

    def refresh(self) -> None:
        """Forget the frozen ground truth (the rules changed)."""
        self._verifier = None

    def _fresh(self) -> Tuple[LogicalVerifier, object]:
        # Ground-truth snapshots all carry version -1 and the verifier's
        # analysis view is cached by version: one verifier per freeze.
        truth = ground_truth_snapshot(self.bed.service.monitor, self.bed.network)
        return LogicalVerifier(self.bed.registrations, engine=self.engine), truth

    def agrees(self, tenant: str, query, answer) -> bool:
        if self._verifier is None:
            self._verifier, self._truth = self._fresh()
        expected = self._verifier.answer(
            query, self.bed.registrations[tenant], self._truth
        )
        if getattr(answer, "auth", None) is not None:
            answer = dataclasses.replace(answer, auth=None)
        return answer == expected

    def contracts(self) -> Dict[str, tuple]:
        """Every tenant's contract answers on the current ground truth."""
        verifier, truth = self._fresh()
        answers = {}
        for name, registration in sorted(self.bed.registrations.items()):
            answers[name] = (
                verifier.reachable_destinations(registration, truth),
                verifier.isolation(registration, truth),
                verifier.waypoint_avoidance(registration, truth, FORBIDDEN_REGIONS),
            )
        return answers


def sampled(seed: int, index: int) -> bool:
    """A seeded ``ORACLE_SAMPLE`` share of operation indexes."""
    return (index * 2654435761 + seed * 40503) % 1000 < ORACLE_SAMPLE * 1000


def build_fresh(run: Run, build: Callable[[], object], first: Callable[[object], object]):
    """Build ``run.setups`` fresh deployments (testbeds or federations).

    Each contributes one ``setup_s`` sample and, through ``first`` (the
    first operation on the fresh service), one ``cold_verdict_s``
    sample.  Returns the last deployment and its first result.
    """
    deployment = result = None
    for _ in range(run.setups):
        if deployment is not None:
            deployment.close()
        elapsed, deployment = run.timed("setup", build)
        run.setup_s.append(elapsed)
        run.attempted += 1
        elapsed, result = run.timed("cold", lambda: first(deployment))
        run.cold_s.append(elapsed)
    return deployment, result


def query_workload(run: Run, inputs: workloads.QueryInputs, *, serving: bool) -> None:
    """steady-dup, fig1-auth and cold-ft6: a stream of in-band queries."""

    def build() -> Testbed:
        bed = build_testbed(
            inputs.topology,
            isolate_clients=True,
            seed=BED_SEED,
            serving=ServingConfig() if serving else None,
        )
        if inputs.scope_ports:
            # Register the stream's scope constants so scoped queries are
            # unions of atoms (the E21 operating regime), not fallbacks.
            bed.service.engine.seed_atoms(
                Wildcard.from_fields(tp_dst=port) for port in inputs.scope_ports
            )
        return bed

    requests = inputs.requests
    cold = inputs.cold
    bed, _ = build_fresh(run, build, lambda b: ask(run, b, cold.tenant, cold.query))
    oracle = Oracle(bed)
    warm, stream = requests[: run.warmup], requests[run.warmup :]
    drive = drive_serial if run.spec.clients == 1 else drive_overlapped
    drive(run, bed, warm, record=False)
    run.before = read_counters(bed)
    answered = drive(run, bed, stream, record=True, deadline=run.deadline())
    run.after = read_counters(bed)
    run.info["duplicate_frac"] = (
        sum(1 for request, _ in answered if request.duplicate) / max(1, len(answered))
    )
    for index, (request, response) in enumerate(answered):
        if sampled(run.seed, index) and not oracle.agrees(
            request.tenant, request.query, response.answer
        ):
            run.fail(f"answer {index} ({type(request.query).__name__}) differs from oracle")
        evidence = getattr(response.answer, "auth", None)
        if getattr(request.query, "authenticate", False) and (
            evidence is None or not evidence.complete or evidence.requests_issued == 0
        ):
            run.fail(f"answer {index}: authentication round incomplete")
    bed.close()


def drive_serial(run: Run, bed: Testbed, requests: Sequence[workloads.Request], *,
                 record: bool, deadline: float = float("inf")) -> List[tuple]:
    """One client: each query is its own operation (and ledger root)."""
    answered: List[tuple] = []
    for request in requests:
        if time.perf_counter() > deadline:
            break
        if not record:
            ask(run, bed, request.tenant, request.query)
            continue
        run.attempted += 1
        elapsed, response = run.timed(
            "op", lambda: ask(run, bed, request.tenant, request.query)
        )
        if response is not None:
            run.op_s.append(elapsed)
            run.window_s += elapsed
            answered.append((request, response))
    return answered


def drive_overlapped(run: Run, bed: Testbed, requests: Sequence[workloads.Request], *,
                     record: bool, deadline: float = float("inf")) -> List[tuple]:
    """Closed loop at ``run.spec.clients`` outstanding requests.

    Returns ``(request, response)`` for every verified reply.  With
    ``record`` each reply's latency — ``submit`` call to the client
    library accepting the signed response, queue wait included — joins
    ``run.op_s``, and the whole loop is one ledger root: requests
    overlap, so the ledger divides the window by the replies it served.
    """
    if not record:
        return _closed_loop(run, bed, requests, False, deadline)
    served = len(run.op_s)
    run.window_s, answered = run.timed(
        "op", lambda: _closed_loop(run, bed, requests, True, deadline)
    )
    if run.tracer is not None:
        run.ledger_ops["op"] = len(run.op_s) - served
    return answered


def _closed_loop(run: Run, bed: Testbed, requests: Sequence[workloads.Request],
                 record: bool, deadline: float) -> List[tuple]:
    sim = bed.network.sim
    pending: Dict[int, Tuple[workloads.Request, float, float]] = {}
    order: deque = deque()
    arrived: List[Tuple[object, float]] = []
    answered: List[tuple] = []
    position = 0

    def on_answer(handle) -> None:
        arrived.append((handle, time.perf_counter()))

    def submit() -> None:
        nonlocal position
        request = requests[position]
        position += 1
        start = time.perf_counter()
        handle = bed.clients[request.tenant].submit(request.query, on_answer)
        pending[handle.nonce] = (request, start, sim.now)
        order.append(handle.nonce)
        if record:
            run.attempted += 1

    def lost(request: workloads.Request, why: str) -> None:
        if record:
            run.fail(f"{request.tenant}: {type(request.query).__name__} {why}")

    while position < min(run.spec.clients, len(requests)):
        submit()
    while pending and sim.step():
        for handle, at in arrived:
            request, start, _ = pending.pop(handle.nonce)
            response = handle.response
            if response is None or response.status != STATUS_OK or response.answer is None:
                lost(request, "refused")
            else:
                answered.append((request, response))
                if record:
                    run.op_s.append(at - start)
            if position < len(requests) and time.perf_counter() < deadline:
                submit()
        arrived.clear()
        while order and order[0] not in pending:
            order.popleft()
        if order and sim.now - pending[order[0]][2] > MAX_WAIT:
            lost(pending.pop(order.popleft())[0], "unanswered")
    for request, _, _ in pending.values():
        lost(request, "unanswered (event queue empty)")
    return answered


# ----------------------------------------------------------------------
# churn-watch / churn-gated
# ----------------------------------------------------------------------


def step_until(bed: Testbed, done: Callable[[], bool]) -> bool:
    """Step the simulator event by event until ``done()``; False on timeout."""
    sim = bed.network.sim
    limit = sim.now + MAX_WAIT
    while not done():
        if sim.now > limit or not sim.step():
            return False
    return True


def churn_workload(run: Run, inputs: workloads.ChurnInputs, *, gated: bool) -> None:
    gate_config = (
        GateConfig(policy=GatePolicy(forbidden_regions=FORBIDDEN_REGIONS)) if gated else None
    )
    tenants = sorted({round_.asker for round_ in inputs.rounds})
    probe = IsolationQuery(authenticate=False)

    def build() -> Testbed:
        bed = build_testbed(
            inputs.topology, isolate_clients=True, seed=BED_SEED, gate=gate_config
        )
        for tenant in tenants:
            bed.service.watch_isolation(tenant)
        return bed

    bed, _ = build_fresh(run, build, lambda b: ask(run, b, tenants[0], probe))
    oracle = Oracle(bed)
    baseline = oracle.contracts()
    monitor = bed.service.monitor
    gate = bed.gate
    checks = 0

    def send(round_: workloads.Round) -> None:
        if round_.add:
            bed.provider.install_flow(
                round_.switch, round_.match, round_.actions, priority=round_.priority
            )
        else:
            bed.provider.remove_flow(
                round_.switch, round_.match, priority=round_.priority, strict=True
            )

    def decisions() -> int:
        return len(gate.decisions) if gate is not None else 0

    def operation(round_: workloads.Round, record: bool):
        """FlowMod -> (gate verdict ->) mirror advance -> verified query."""
        version = monitor.version
        decided = decisions()
        start = time.perf_counter()
        send(round_)
        if gate is not None:
            if not step_until(bed, lambda: decisions() > decided):
                run.fail(f"{round_.kind}: no gate decision")
                return None
            if record:
                run.gate_decision_s.append(time.perf_counter() - start)
        if round_.violating:
            return None
        if not step_until(bed, lambda: monitor.version > version):
            run.fail(f"{round_.kind}: mirror never advanced")
            return None
        version = monitor.version
        response = ask(run, bed, round_.asker, probe)
        if response is not None and response.snapshot_version < version:
            run.fail(f"{round_.kind}: reply from snapshot {response.snapshot_version} < {version}")
        return response

    def after(round_: workloads.Round, decided: int, response, sample: bool) -> None:
        """Untimed: verdict class, signature, cleanup, ground-truth sample."""
        nonlocal checks
        if decisions() > decided:
            decision = gate.decisions[decided]
            allowed = decision.verdict == GATE_ALLOW
            if allowed != (round_.expect == workloads.EXPECT_ALLOW):
                run.fail(f"{round_.kind}: gate said {decision.verdict}, expected {round_.expect}")
            if not verify_gate_record(decision, bed.service.keypair.public):
                run.fail(f"{round_.kind}: gate decision signature invalid")
        if round_.violating and round_.add:
            # A REPAIR verdict installs the rule demoted; sweep it out so
            # the tables (and the per-round cost) do not drift.
            bed.provider.remove_flow(round_.switch, round_.match)
            bed.run(0.05)
        oracle.refresh()
        if sample and response is not None and checks < CHURN_ORACLE_MAX:
            checks += 1
            if not oracle.agrees(round_.asker, probe, response.answer):
                run.fail(f"{round_.kind}: answer differs from ground truth")

    warm, stream = inputs.rounds[: run.warmup], inputs.rounds[run.warmup :]
    for round_ in warm:
        decided = decisions()
        after(round_, decided, operation(round_, record=False), sample=False)
    run.before = read_counters(bed)
    deadline = run.deadline()
    for index, round_ in enumerate(stream):
        if time.perf_counter() > deadline:
            break
        decided = decisions()
        run.attempted += 1
        # Refused mods are probes: their decision latency is sampled, but
        # they are not refreshed verdicts and stay out of the window.
        phase = "probe" if round_.violating else "op"
        elapsed, response = run.timed(phase, lambda: operation(round_, record=True))
        if response is not None:
            run.op_s.append(elapsed)
            run.window_s += elapsed
        paused = time.perf_counter()
        after(round_, decided, response, sample=index % CHURN_ORACLE_EVERY == 0)
        deadline += time.perf_counter() - paused
    run.after = read_counters(bed)
    bed.run(0.5)
    if oracle.contracts() != baseline:
        run.fail("ground-truth contract answers differ from the pre-run baseline")
    bed.close()


# ----------------------------------------------------------------------
# federation-80
# ----------------------------------------------------------------------


def federation_workload(run: Run, inputs: workloads.FederationInputs) -> None:
    domains = max(10, inputs.domains // (4 if run.scale > 1 else 1))
    built: dict = {}

    def build():
        # Called through the module so the traced run's wrappers apply.
        graph = asgraph.as_graph_topology(
            domains, seed=inputs.graph_seed, client_sites=inputs.client_sites
        )
        snapshot = asgraph.build_snapshot(graph)
        federation = asgraph.federation_from_asgraph(graph, snapshot=snapshot, backend="atom")
        built.update(snapshot=snapshot, registration=asgraph.client_registration(graph))
        return federation

    def single_site(registration: ClientRegistration) -> ClientRegistration:
        return dataclasses.replace(registration, hosts=(registration.hosts[inputs.site],))

    def query(federation, registration):
        answer = federation.federated_query(registration, scope=inputs.scope, mode="matrix")
        if answer.truncated:
            run.fail("federated answer truncated")
        return answer

    federation, cold = build_fresh(
        run, build, lambda fresh: query(fresh, single_site(built["registration"]))
    )
    single = single_site(built["registration"])

    def engine_counters() -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for domain in federation.domains.values():
            add_counters(
                totals, "engine", domain.verification_engine().metrics.snapshot_counters()
            )
        return totals

    for _ in range(run.warmup):
        query(federation, single)
    run.before = engine_counters()
    deadline = run.deadline()
    warm = cold
    for _ in range(run.ops):
        if time.perf_counter() > deadline:
            break
        run.attempted += 1
        elapsed, warm = run.timed("op", lambda: query(federation, single))
        run.op_s.append(elapsed)
        run.window_s += elapsed
        run.federated_messages.append(warm.federated_messages)
    run.after = engine_counters()

    # Oracle: one wildcard propagation over the whole internetwork, no
    # federation code involved (composed == whole-network).
    registration = built["registration"]
    verifier = LogicalVerifier(
        {registration.name: registration},
        engine=VerificationEngine(backend="wildcard"),
        exclude_own_interception=False,
    )

    def ports(endpoints) -> List[Tuple[str, int]]:
        return sorted((e.switch, e.port) for e in endpoints)

    expected = verifier.reachable_destinations(single, built["snapshot"], inputs.scope)
    for label, answer in (("cold", cold), ("warm", warm)):
        if ports(answer.endpoints) != ports(expected.endpoints):
            run.fail(f"{label} single-site endpoints differ from whole-network oracle")
    # All client sites at once: new ip_src atoms force a re-seed, so this
    # is a second kind of cold query; checked, reported, not a metric.
    run.attempted += 1
    elapsed, full = run.timed("cold-3site", lambda: query(federation, registration))
    run.info["cold_3site_s"] = elapsed
    expected = verifier.reachable_destinations(registration, built["snapshot"], inputs.scope)
    if ports(full.endpoints) != ports(expected.endpoints):
        run.fail("3-site endpoints differ from whole-network oracle")
    federation.close()


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, *, seconds: Optional[float] = None,
                 quick: bool = False, traced: bool = False) -> dict:
    """Run one workload here; returns the JSON-ready result."""
    spec = SPECS[name]
    os.environ[BACKEND_ENV_VAR] = spec.backend
    tracer = spans.Tracer() if traced else None
    restore = spans.install(tracer) if tracer is not None else None
    run = Run(spec, seed, seconds, quick, tracer)
    try:
        if name == "steady-dup":
            query_workload(run, workloads.steady_dup(seed, run.ops + run.warmup), serving=True)
        elif name == "fig1-auth":
            query_workload(run, workloads.fig1_auth(seed, run.ops + run.warmup), serving=False)
        elif name == "cold-ft6":
            inputs = workloads.cold_fat_tree(seed, run.ops + run.warmup, k=4 if quick else 6)
            query_workload(run, inputs, serving=False)
        elif name in ("churn-watch", "churn-gated"):
            gated = name == "churn-gated"
            inputs = workloads.churn(seed, run.ops + run.warmup, violations=gated)
            churn_workload(run, inputs, gated=gated)
        else:
            federation_workload(run, workloads.federation(seed))
    finally:
        if restore is not None:
            restore()
    return summarise(run)


def summarise(run: Run) -> dict:
    result = {
        "workload": run.spec.name,
        "seed": run.seed,
        "traced": run.tracer is not None,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:10],
        "info": dict(run.info),
    }
    if not run.op_s or not run.setup_s or not run.cold_s:
        result["failed"] += 1
        result["failures"].append("no timed operation completed")
        return result
    ops = len(run.op_s)
    result["end_to_end"] = {
        "setup_s": statistics.median(run.setup_s),
        "cold_verdict_s": statistics.median(run.cold_s),
        "verdict_p50_ms": statistics.median(run.op_s) * 1e3,
        "verdict_p90_ms": percentile(run.op_s, 90) * 1e3,
        "verdicts_per_s": ops / run.window_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result["samples"] = {
        "setup_s": len(run.setup_s),
        "cold_verdict_s": len(run.cold_s),
        "verdict_p50_ms": ops,
        "verdict_p90_ms": ops,
        "verdicts_per_s": ops,
        "peak_rss_mb": 1,
    }
    tail = supported_tail(ops)
    if tail is not None:
        result["info"]["tail_percentile"] = tail
        result["info"]["tail_ms"] = percentile(run.op_s, tail) * 1e3
    if run.gate_decision_s:
        result["info"]["gate_decision_p50_ms"] = statistics.median(run.gate_decision_s) * 1e3
        result["info"]["gate_decision_p95_ms"] = percentile(run.gate_decision_s, 95) * 1e3
        result["samples"]["gate_decision"] = len(run.gate_decision_s)
    if run.tracer is not None:
        result.update(layers.report(run))
    return result
