"""Seeded inputs for the six ledger workloads.

Everything the program receives — topology, catalog, scope pool,
arrival order, FlowMod stream with each mod's expected gate verdict —
is built here from ``--seed`` alone and handed to the harness as plain
values.  Deliberately independent of ``repro.serving.workload`` (that
module is product code, and its catalog tops out at 844 pairs for four
tenants, too few for a 4,000-request stream at 50% duplicates).

The seed varies *which* scopes, ports, pairs and orderings a run uses,
never the size or shape of the problem: every end-to-end metric has to
repeat across seeds within its bound, so fat-tree sizes, tenant counts,
mix proportions and the AS graph are fixed per workload.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.inband import INTERCEPT_PRIORITY, interception_matches
from repro.core.queries import (
    BandwidthQuery,
    FairnessQuery,
    GeoLocationQuery,
    IsolationQuery,
    PathLengthQuery,
    Query,
    ReachableDestinationsQuery,
    ReachingSourcesQuery,
    TrafficScope,
    TransferFunctionQuery,
    WaypointAvoidanceQuery,
)
from repro.dataplane.topologies import fat_tree_topology
from repro.dataplane.topology import HostSpec, Topology
from repro.netlib.constants import ETH_TYPE_LLDP
from repro.openflow.actions import Action, Drop, GotoTable, Output
from repro.openflow.match import Match

TENANTS_4 = ("alice", "bob", "carol", "dave")
TENANTS_2 = ("alice", "bob")

#: waypoint policies a tenant might hold; all derive from the same geo
#: rows, so they are distinct catalog keys that share row-cache entries
REGION_SETS: Tuple[Tuple[str, ...], ...] = (
    ("offshore",),
    ("apac",),
    ("us-east",),
    ("us-west",),
    ("eu-west",),
    ("us-east", "us-west"),
    ("eu-central", "eu-west"),
    ("apac", "offshore"),
)

SCOPE_POOL = 32
ZIPF_S = 1.1

#: the AS graph is pinned (E22's seed): its shape alone moves warm
#: federated latency by ±10% between generator seeds, wider than the
#: metric's regression bound
FEDERATION_GRAPH_SEED = 11
FEDERATION_DOMAINS = 80


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def hosts_by_tenant(topology: Topology) -> Dict[str, List[HostSpec]]:
    grouped: Dict[str, List[HostSpec]] = {}
    for host in topology.hosts.values():
        if host.client:
            grouped.setdefault(host.client, []).append(host)
    for hosts in grouped.values():
        hosts.sort(key=lambda h: h.name)
    return grouped


# ----------------------------------------------------------------------
# Query streams
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    tenant: str
    query: Query
    #: True when this (tenant, query) pair was issued earlier in the stream
    duplicate: bool = False


@dataclass(frozen=True)
class QueryInputs:
    topology: Topology
    #: the first query a fresh service sees; the same class on every seed,
    #: because a cold isolation and a cold reachability differ by half
    cold: Request
    requests: Tuple[Request, ...]
    #: tp_dst constants the harness seeds into the atom universe
    scope_ports: Tuple[int, ...] = ()


def steady_dup(seed: int, requests: int) -> QueryInputs:
    """Fat-tree-4, four tenants: a monitoring-heavy mix at 50% duplicates.

    The duplicate share is stationary, not only exact at the end: the
    stream alternates (in seeded order within each pair of requests) a
    never-issued catalog key with a repeat drawn zipf(1.1) over the keys
    issued so far, so a run cut short by ``--seconds`` sees the same
    hit rates as a full one.
    """
    rng = _rng("steady-dup", seed)
    topology = fat_tree_topology(4, clients=TENANTS_4)
    scope_ports = tuple(rng.sample(range(20000, 60000), SCOPE_POOL))
    scopes = [TrafficScope()] + [TrafficScope(tp_dst=p) for p in scope_ports]
    catalog: List[Tuple[str, Query]] = []
    for tenant, hosts in sorted(hosts_by_tenant(topology).items()):
        for scope in scopes:
            catalog.append((tenant, IsolationQuery(scope=scope, authenticate=False)))
            catalog.append(
                (tenant, ReachableDestinationsQuery(scope=scope, authenticate=False))
            )
            catalog.append((tenant, ReachingSourcesQuery(scope=scope)))
            for host in hosts:
                catalog.append(
                    (tenant, ReachingSourcesQuery(scope=scope, destination_host=host.name))
                )
            catalog.append((tenant, GeoLocationQuery(scope=scope)))
            for regions in REGION_SETS:
                catalog.append(
                    (tenant, WaypointAvoidanceQuery(scope=scope, forbidden_regions=regions))
                )
        # Audit classes: once per tenant, unscoped (operator cadence).
        for host in hosts:
            catalog.append((tenant, PathLengthQuery(destination_host=host.name)))
        catalog.append((tenant, FairnessQuery()))
        catalog.append((tenant, BandwidthQuery(minimum_mbps=500)))
        catalog.append((tenant, TransferFunctionQuery()))
    rng.shuffle(catalog)

    cumulative: List[float] = []
    total = 0.0
    for rank in range(len(catalog)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cumulative.append(total)

    stream: List[Request] = []
    issued = 0
    while len(stream) < requests and issued < len(catalog):
        pair = [False, True]  # one fresh key, one duplicate
        rng.shuffle(pair)
        for duplicate in pair:
            if len(stream) >= requests:
                break
            if duplicate and issued:
                rank = bisect.bisect_left(
                    cumulative, rng.random() * cumulative[issued - 1], 0, issued - 1
                )
                tenant, query = catalog[rank]
                stream.append(Request(tenant, query, duplicate=True))
            elif issued < len(catalog):
                tenant, query = catalog[issued]
                issued += 1
                stream.append(Request(tenant, query))
    cold = Request(TENANTS_4[0], IsolationQuery(authenticate=False))
    return QueryInputs(topology, cold, tuple(stream), scope_ports)


def fig1_auth(seed: int, requests: int) -> QueryInputs:
    """Fat-tree-4, four tenants: authenticated, never-repeated scopes.

    Two isolation queries to each reachable-destinations query, so the
    median sits inside the isolation mode instead of on the boundary
    between two query classes (a boundary median flips with noise).
    """
    rng = _rng("fig1-auth", seed)
    topology = fat_tree_topology(4, clients=TENANTS_4)
    ports = rng.sample(range(1024, 65536), requests + 1)
    cold = Request(
        TENANTS_4[0], IsolationQuery(scope=TrafficScope(tp_dst=ports.pop()), authenticate=True)
    )
    stream: List[Request] = []
    tenants = list(TENANTS_4)
    while len(stream) < requests:
        rng.shuffle(tenants)
        kinds = [IsolationQuery, IsolationQuery, ReachableDestinationsQuery] * 4
        rng.shuffle(kinds)
        for index, kind in enumerate(kinds):
            if len(stream) >= requests:
                break
            scope = TrafficScope(tp_dst=ports[len(stream)])
            stream.append(
                Request(tenants[index % len(tenants)], kind(scope=scope, authenticate=True))
            )
    return QueryInputs(topology, cold, tuple(stream))


def warm_isolation(topology: Topology, seed: int, requests: int, label: str) -> Tuple[Request, ...]:
    """Unscoped isolation queries, tenants in seeded balanced order."""
    rng = _rng(label, seed)
    tenants = sorted(hosts_by_tenant(topology))
    stream: List[Request] = []
    while len(stream) < requests:
        rng.shuffle(tenants)
        for tenant in tenants:
            stream.append(Request(tenant, IsolationQuery(authenticate=False)))
    return tuple(stream[:requests])


def cold_fat_tree(seed: int, requests: int, k: int = 6) -> QueryInputs:
    """Fat-tree-k (k=6: 45 switches, 54 hosts, ~7k rules), two tenants."""
    topology = fat_tree_topology(k, clients=TENANTS_2)
    cold = Request(TENANTS_2[0], IsolationQuery(authenticate=False))
    return QueryInputs(topology, cold, warm_isolation(topology, seed, requests, "cold-ft6"))


# ----------------------------------------------------------------------
# FlowMod streams
# ----------------------------------------------------------------------

EXPECT_ALLOW = "allow"
EXPECT_REFUSE = "refuse"  # anything but ALLOW: block, repair or quarantine


@dataclass(frozen=True)
class Round:
    """One provider FlowMod plus the tenant that asks afterwards."""

    kind: str  # benign-add | split-add | delete | blackhole | leak | punt-delete
    switch: str
    add: bool  # install_flow, else strict remove_flow
    match: Match
    priority: int
    actions: Tuple[Action, ...]
    expect: str
    asker: str

    @property
    def violating(self) -> bool:
        return self.expect == EXPECT_REFUSE


@dataclass(frozen=True)
class ChurnInputs:
    topology: Topology
    rounds: Tuple[Round, ...]


#: ADDs installed and not yet strictly deleted, once the stream is in
#: steady state: every table stays within +4 rules of its baseline
OUTSTANDING = 4

#: one ADD in four carries a never-seen ``tp_dst`` (an atom split; its
#: DELETE four rounds later merges the universe back)
SPLIT_EVERY = 4

#: with violations, one round in ten carries a mod the gate must refuse
VIOLATION_EVERY = 10


def churn(seed: int, rounds: int, *, violations: bool) -> ChurnInputs:
    """Fat-tree-4, two tenants: one provider FlowMod per round.

    The schedule is fixed and only its contents are seeded: after a ramp
    of ``OUTSTANDING`` ADDs, rounds alternate a strict DELETE of the
    oldest outstanding ADD with a fresh ADD, so the configuration after
    every round is one the engine has never seen (a DELETE straight after
    its own ADD would restore a cached content hash and cost a fifth of
    a real refresh).  The issue's ½ ADD / ¼ split ADD / ¼ DELETE cannot
    keep tables bounded (¾ of rounds would add); here ADDs and DELETEs
    are each half, and a quarter of either touch a split rule.

    Benign rules match a cross-tenant (src, dst) pair in table 0 and,
    alternately, drop it or send it on to table 1 — where the isolation
    policy has no route for it and discards it anyway — so no contract
    answer changes.  (The gate skips its loop sweep for drop-only ADDs
    and for nothing else; with half the ADDs forwarding, three quarters
    of the gated rounds cost the same and the median sits inside that
    mode, while the drop-only fast path still runs.)  They land on the
    edge switches in seeded rotation:
    that is where tenant ACL churn lands, and a mod on an aggregation or
    core switch dirties a third fewer matrix rows, which would make the
    latency distribution bimodal with the median on the boundary.
    """
    label = "churn-gated" if violations else "churn-watch"
    rng = _rng(label, seed)
    topology = fat_tree_topology(4, clients=TENANTS_2)
    tenants = hosts_by_tenant(topology)
    first, second = (tenants[name] for name in TENANTS_2)
    switches = sorted(topology.switches)
    edges = sorted({host.switch for host in first + second})
    rng.shuffle(edges)
    fresh_ports = iter(rng.sample(range(1024, 65536), rounds + 1))
    outstanding: List[Round] = []
    stream: List[Round] = []
    adds = 0
    split_slot = violation_slot = forward_slot = 0

    def violation(index: int, asker: str) -> Round:
        kind = ("blackhole", "leak", "punt-delete")[rng.randrange(3)]
        if kind == "blackhole":
            victim, peer = rng.sample(rng.choice((first, second)), 2)
            return Round(
                kind, victim.switch, True, Match(ip_src=victim.ip, ip_dst=peer.ip),
                200 + index % 512, (Drop(),), EXPECT_REFUSE, asker,
            )
        if kind == "leak":
            # Every fat-tree-4 edge switch hosts one machine per tenant.
            source = rng.choice(first + second)
            target = next(
                h for h in first + second
                if h.switch == source.switch and h.client != source.client
            )
            return Round(
                kind, source.switch, True, Match(in_port=source.port, ip_dst=target.ip),
                200 + index % 512, (Output(target.port),), EXPECT_REFUSE, asker,
            )
        punt = next(m for m in interception_matches() if m.eth_type != ETH_TYPE_LLDP)
        return Round(
            kind, rng.choice(switches), False, punt, INTERCEPT_PRIORITY, (),
            EXPECT_REFUSE, asker,
        )

    for index in range(rounds):
        asker = TENANTS_2[index % 2]
        if violations:
            if index % VIOLATION_EVERY == 0:
                violation_slot = rng.randrange(VIOLATION_EVERY)
            if index % VIOLATION_EVERY == violation_slot:
                stream.append(violation(index, asker))
                continue
        if len(outstanding) >= OUTSTANDING:
            earlier = outstanding.pop(0)
            stream.append(
                Round(
                    "delete", earlier.switch, False, earlier.match, earlier.priority,
                    (), EXPECT_ALLOW, asker,
                )
            )
            continue
        if adds % SPLIT_EVERY == 0:
            split_slot = rng.randrange(SPLIT_EVERY)
        split = adds % SPLIT_EVERY == split_slot
        if adds % 2 == 0:
            forward_slot = rng.randrange(2)
        actions = (GotoTable(1),) if adds % 2 == forward_slot else (Drop(),)
        src, dst = rng.choice(first), rng.choice(second)
        if rng.random() < 0.5:
            src, dst = dst, src
        added = Round(
            "split-add" if split else "benign-add",
            edges[adds % len(edges)],
            True,
            Match(ip_src=src.ip, ip_dst=dst.ip, tp_dst=next(fresh_ports) if split else None),
            100 + index % 512,
            actions,
            EXPECT_ALLOW,
            asker,
        )
        adds += 1
        outstanding.append(added)
        stream.append(added)
    return ChurnInputs(topology, tuple(stream))


# ----------------------------------------------------------------------
# Federation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FederationInputs:
    domains: int
    graph_seed: int
    client_sites: int
    #: the traffic scope every federated query of this run carries
    scope: TrafficScope
    #: which of the client's sites the single-site queries start from
    site: int


def federation(seed: int, domains: int = FEDERATION_DOMAINS) -> FederationInputs:
    rng = _rng("federation-80", seed)
    return FederationInputs(
        domains=domains,
        graph_seed=FEDERATION_GRAPH_SEED,
        client_sites=3,
        scope=TrafficScope(tp_dst=rng.randrange(1024, 65536)),
        site=0,
    )
