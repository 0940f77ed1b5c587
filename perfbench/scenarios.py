"""The benchmark's three workloads, driven through the public fabric APIs.

Each workload turns ``--seed`` into its inputs up front (flow arrival
gaps, destination ranks, roam targets), so the measured phase runs the
program only.  One :meth:`run_round` builds a fresh network, brings it
up (timed as set-up), runs the measured phase, checks the outputs and
returns a :class:`Round`.  Sizes are fixed per workload, so a seed gives
the same simulation, the same work counts and the same counter ledger
on every round and on every commit whose model is unchanged.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random

from measure import Interval, percentile
from repro.fabric.network import FabricConfig, FabricNetwork
from repro.multisite.network import MultiSiteConfig, MultiSiteNetwork
from repro.wireless.deployment import (
    MultiSiteWireless,
    WirelessConfig,
    WirelessFabric,
)


class NullTracer:
    """Stands in for :class:`layers.LayerTracer` on untraced rounds."""

    op = 0

    def reset(self):
        pass


class Round:
    """What one round measured, counted and checked."""

    def __init__(self):
        self.setup_s = 0.0           # reference seconds of bring-up
        self.measured_s = 0.0        # reference seconds (see measure.py)
        self.measured_wall_s = 0.0   # wall seconds, gauge samples excluded
        self.factor = 1.0            # reference seconds per wall second
        self.ops = 0                 # units of work in the measured phase
        self.op_wall_us = []         # host µs per op (tail samples)
        self.early_us = []           # per-op samples, first phase
        self.late_us = []            # per-op samples, last phase
        #: simulated delay per op in sim ms: (p50, p99, samples)
        self.model_ms = (0.0, 0.0, 0)
        self.events = 0              # simulator events, measured phase
        self.counts = {}
        self.digest = None           # sha256 of the counter ledger
        self.failures = []           # failed output checks

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def end_measured(self, interval):
        """Close the measured phase's interval."""
        self.measured_wall_s, self.factor = interval.end()
        self.measured_s = self.measured_wall_s * self.factor

    def set_model(self, delays_s):
        if delays_s:
            ms = [1e3 * delay for delay in delays_s]
            self.model_ms = (percentile(ms, 0.50), percentile(ms, 0.99),
                             len(ms))

    def set_ledger(self, ledger):
        payload = json.dumps(ledger, sort_keys=True)
        self.digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()


def zipf_cdf(n, skew):
    """Cumulative Zipf weights over ranks 0..n-1."""
    total, cdf = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** skew
        cdf.append(total)
    return [value / total for value in cdf]


def zipf_pick(cdf, u):
    return min(bisect.bisect_left(cdf, u), len(cdf) - 1)


def fabric_ledger(fabric, prefix=""):
    """Every device counter of one fabric, keyed deterministically."""
    ledger = {}
    for device in list(fabric.edges) + list(fabric.borders):
        key = prefix + device.name
        for field, value in device.counters.as_dict().items():
            ledger["%s.%s" % (key, field)] = value
    for edge in fabric.edges:
        ledger["%s%s.acl_hits" % (prefix, edge.name)] = edge.acl.hits
        ledger["%s%s.acl_drops" % (prefix, edge.name)] = edge.acl.drops
    return ledger


def endpoint_ledger(endpoints):
    ledger = {}
    for endpoint in endpoints:
        ledger["%s.sent" % endpoint.identity] = endpoint.packets_sent
        ledger["%s.received" % endpoint.identity] = endpoint.packets_received
    return ledger


def wireless_ledger(wireless_fabric, prefix=""):
    ledger = {}
    for field, value in wireless_fabric.wlc.stats.as_dict().items():
        ledger["%swlc.%s" % (prefix, field)] = value
    for ap in wireless_fabric.aps:
        for field, value in ap.counters.as_dict().items():
            ledger["%s%s.%s" % (prefix, ap.name, field)] = value
    return ledger


def forwarded(edges):
    return sum(edge.counters.packets_in for edge in edges)


def run_sliced(sim, edges, t0, duration_s, slices, gauge):
    """Run ``duration_s`` of simulated time from ``t0`` in equal slices.

    Returns the reference µs per forwarded packet of every slice that
    forwarded any, for the first and the second half of the slices: the
    per-op samples of an open-loop workload.  Each slice is scaled by the
    machine speed of the two gauge samples on either side of it, so a
    burst of load from other tenants does not read as a slow slice.
    """
    clock = gauge.clock
    halves = ([], [])
    for index in range(1, slices + 1):
        before_pkts = forwarded(edges)
        before = clock()
        sim.run(until=t0 + index * duration_s / slices)
        wall = clock() - before
        pkts = forwarded(edges) - before_pkts
        gauge.sample()
        if pkts:
            factor = gauge.factor(gauge.mark() - 2, window=2)
            halves[index > slices // 2].append(1e6 * wall * factor / pkts)
    return halves


class SetupTimer:
    """Times a bring-up in reference seconds.

    Nearly all of a bring-up is ``settle``, which runs the simulator in
    steps of 1 s of simulated time.  While the timer watches a simulator,
    a gauge sample follows each ``Simulator.run`` call, and the call is
    scaled by the samples on either side of it, like a slice of the
    measured phase; the rest of the bring-up is scaled by the gauge over
    the whole interval.  A burst of load from other tenants in the middle
    of a several-second bring-up then does not read as a slow set-up.
    """

    def __init__(self, gauge):
        self.gauge = gauge
        self.interval = Interval(gauge)
        self.sims = []
        self.run_wall = 0.0          # wall seconds inside watched runs
        self.run_reference = 0.0     # the same, in reference seconds

    def watch(self, sim):
        """Sample the gauge after every ``sim.run`` until :meth:`reference`."""
        run = sim.run
        gauge = self.gauge

        def sampled_run(*args, **kwargs):
            started = gauge.clock()
            try:
                return run(*args, **kwargs)
            finally:
                wall = gauge.clock() - started
                gauge.sample()
                self.run_wall += wall
                self.run_reference += wall * gauge.factor(gauge.mark() - 2,
                                                          window=2)

        sim.run = sampled_run        # shadows Simulator.run on this instance
        self.sims.append(sim)

    def reference(self):
        """Stop watching; the bring-up's reference seconds."""
        for sim in self.sims:
            del sim.run
        wall, factor = self.interval.end()
        return (wall - self.run_wall) * factor + self.run_reference


# ---------------------------------------------------------------------- wired_flows
class WiredFlows:
    """Single-site wired fabric, all flags off, Zipf flows as packets.

    Open loop in simulated time: every client starts flows with Poisson
    arrivals; each flow is ``PACKETS_PER_FLOW`` individual packet
    events.  Destinations are Zipf-ranked over servers and a denied
    ``iot`` group.  No mobility, so the registration path is idle.
    """

    name = "wired_flows"
    NUM_EDGES = 8
    CLIENTS, SERVERS, IOT = 40, 6, 4
    FLOW_RATE = 40.0            # flows per client per simulated second
    PACKETS_PER_FLOW = 16
    DURATION_S = 3.0            # simulated seconds of traffic per round
    SLICES = 150                # per-op samples per round
    SKEW = 1.1
    VN = 4098
    op_unit = "forwarded packet"
    sample_every = 32           # traced: full spans of every 32nd flow

    def __init__(self, seed, gauge):
        self.seed = seed
        self.gauge = gauge
        rng = random.Random("wired_flows/%d" % seed)
        cdf = zipf_cdf(self.SERVERS + self.IOT, self.SKEW)
        #: per client: [(gap s, destination rank)], the flow schedule
        self.schedule = []
        for _client in range(self.CLIENTS):
            flows, t = [], 0.0
            while True:
                gap = rng.expovariate(self.FLOW_RATE)
                t += gap
                if t >= self.DURATION_S:
                    break
                flows.append((gap, zipf_pick(cdf, rng.random())))
            self.schedule.append(flows)
        self.flows = sum(len(flows) for flows in self.schedule)
        self.iot_flows = sum(1 for flows in self.schedule
                             for _gap, rank in flows if rank >= self.SERVERS)

    def run_round(self, tracer=None):
        tracer = tracer or NullTracer()
        result = Round()
        setup = SetupTimer(self.gauge)
        net = FabricNetwork(FabricConfig(num_edges=self.NUM_EDGES,
                                         num_borders=1, seed=self.seed))
        setup.watch(net.sim)
        net.define_vn("campus", self.VN, "10.64.0.0/14")
        net.define_group("users", 10, self.VN)
        net.define_group("servers", 30, self.VN)
        net.define_group("iot", 20, self.VN)
        net.allow("users", "servers")
        net.deny("users", "iot")
        delays = []

        def sink(_endpoint, packet, now):
            delays.append(now - packet.payload)

        groups = {}
        for group, prefix, count in (("users", "cli", self.CLIENTS),
                                     ("servers", "srv", self.SERVERS),
                                     ("iot", "iot", self.IOT)):
            members = groups[group] = []
            for index in range(count):
                endpoint = net.create_endpoint(
                    "%s-%d" % (prefix, index), group, self.VN,
                    sink=sink if group != "users" else None)
                net.admit(endpoint, index % self.NUM_EDGES)
                members.append(endpoint)
        net.settle()
        result.setup_s = setup.reference()

        clients = groups["users"]
        targets = groups["servers"] + groups["iot"]
        sim = net.sim
        next_op = [0]

        def fire(client, flows, position):
            _gap, rank = flows[position]
            next_op[0] += 1
            tracer.op = next_op[0]
            net.send(client, targets[rank].ip, size=600,
                     payload=sim.now, count=self.PACKETS_PER_FLOW)
            tracer.op = 0
            if position + 1 < len(flows):
                sim.schedule(flows[position + 1][0], fire, client, flows,
                             position + 1)

        t0 = sim.now
        for client, flows in zip(clients, self.schedule):
            if flows:
                sim.schedule_at(t0 + flows[0][0], fire, client, flows, 0)
        edges = net.edges
        events_before = sim.events_processed
        tracer.reset()
        measured = Interval(self.gauge)
        result.early_us, result.late_us = run_sliced(
            sim, edges, t0, self.DURATION_S, self.SLICES, self.gauge)
        result.op_wall_us = result.early_us + result.late_us
        net.settle()
        result.end_measured(measured)
        result.events = sim.events_processed - events_before

        sent = sum(c.packets_sent for c in clients)
        delivered = sum(t.packets_received for t in targets)
        denied = sum(edge.counters.policy_drops for edge in edges)
        iot_sent = self.iot_flows * self.PACKETS_PER_FLOW
        result.ops = forwarded(edges)
        result.set_model(delays)
        result.counts = {
            "flows": self.flows, "pkts_sent": sent,
            "pkts_delivered": delivered, "pkts_denied": denied,
            "pkts_lost": sent - delivered - denied, "pkts_forwarded":
            result.ops, "roams": 0, "roams_failed": 0,
        }
        result.check(sent == self.flows * self.PACKETS_PER_FLOW,
                     "sent %d packets, scheduled %d"
                     % (sent, self.flows * self.PACKETS_PER_FLOW))
        result.check(delivered + denied == sent,
                     "delivered %d + denied %d != sent %d"
                     % (delivered, denied, sent))
        result.check(all(t.packets_received == 0 for t in groups["iot"]),
                     "an iot endpoint received packets")
        result.check(denied == iot_sent,
                     "denied %d packets, %d were iot-bound"
                     % (denied, iot_sent))
        ledger = fabric_ledger(net)
        ledger.update(endpoint_ledger(net.endpoints()))
        result.set_ledger(ledger)
        return result


# ---------------------------------------------------------------------- roam_growth
class RoamGrowth:
    """Single-site wireless campuses, flags off, closed-loop roams only.

    Two campuses of the same shape are brought up, one with ``SMALL``
    and one with ``LARGE`` stations.  The measured phase alternates one
    roam on each (each to a random other AP, the next starting once that
    campus settles), so a drift in machine speed hits both sizes alike
    and the growth ratio between them stays a property of the code.
    """

    name = "roam_growth"
    NUM_EDGES, APS_PER_EDGE = 8, 2
    SMALL, LARGE = 1000, 4000
    ROAMS = 2500                # per campus
    VN = 4100
    op_unit = "roam"
    sample_every = 1

    def __init__(self, seed, gauge):
        self.seed = seed
        self.gauge = gauge
        rng = random.Random("roam_growth/%d" % seed)
        aps = self.NUM_EDGES * self.APS_PER_EDGE
        #: per campus: [(station index, AP offset 1..aps-1)]
        self.plans = [
            [(rng.randrange(population), rng.randrange(1, aps))
             for _ in range(self.ROAMS)]
            for population in (self.SMALL, self.LARGE)
        ]

    def _campus(self, population, setup):
        """Bring up one campus, ready for closed-loop roams."""
        net = FabricNetwork(FabricConfig(num_edges=self.NUM_EDGES,
                                         num_borders=1, seed=self.seed))
        setup.watch(net.sim)
        wireless = WirelessFabric(net, WirelessConfig(
            aps_per_edge=self.APS_PER_EDGE))
        net.define_vn("wifi", self.VN, "10.96.0.0/14")
        net.define_group("stations", 10, self.VN)
        net.define_group("servers", 30, self.VN)
        net.allow("stations", "servers")
        aps = wireless.aps
        stations = []
        for index in range(population):
            station = wireless.create_station(
                "sta-%d" % index, "stations", self.VN)
            wireless.associate(station, index % len(aps))
            stations.append(station)
        net.settle(max_time=300.0)
        return _Campus(net, wireless, stations)

    def run_round(self, tracer=None):
        tracer = tracer or NullTracer()
        result = Round()
        setup = SetupTimer(self.gauge)
        campuses = [self._campus(self.SMALL, setup),
                    self._campus(self.LARGE, setup)]
        result.setup_s = setup.reference()

        samples = ([], [])
        events_before = [c.net.sim.events_processed for c in campuses]
        clock = self.gauge.clock
        tracer.reset()
        measured = Interval(self.gauge)
        block = ([], [])
        for step in range(self.ROAMS):
            for size, campus in enumerate(campuses):
                station_index, offset = self.plans[size][step]
                tracer.op = 2 * step + size + 1
                block[size].append(campus.roam(station_index, offset, clock))
                tracer.op = 0
            if step % 8 == 7 or step == self.ROAMS - 1:
                # A gauge sample every ~25 ms.  The roams of the block
                # are scaled by the samples on either side of it, so a
                # burst of load from other tenants does not read as slow
                # roams.
                self.gauge.sample()
                factor = self.gauge.factor(self.gauge.mark() - 2, window=2)
                for size in (0, 1):
                    samples[size].extend(1e6 * wall * factor
                                         for wall in block[size])
                    block[size].clear()
        result.end_measured(measured)
        roams = 2 * self.ROAMS
        failed = sum(c.failed for c in campuses)
        result.events = sum(c.net.sim.events_processed - before
                            for c, before in zip(campuses, events_before))
        result.ops = roams
        result.early_us, result.late_us = samples
        result.op_wall_us = result.late_us
        result.set_model([delay for c in campuses
                          for delay in c.wireless.wlc.registration_delays[
                              c.delays_before:]])
        result.counts = {
            "roams": roams, "roams_failed": failed,
            "roams_registered": sum(len(c.wireless.wlc.registration_delays)
                                    - c.delays_before for c in campuses),
            "stations": self.SMALL + self.LARGE,
            "pkts_forwarded": sum(forwarded(c.net.edges) for c in campuses),
        }
        result.check(failed == 0, "%d of %d roams not acked" % (failed, roams))
        ledger = {}
        for campus in campuses:
            stale = campus.stale_registrations(self.VN)
            result.check(stale == 0, "%d of %d stations' map-server RLOC is "
                         "not their AP's edge"
                         % (stale, len(campus.stations)))
            prefix = "n%d." % len(campus.stations)
            ledger.update(fabric_ledger(campus.net, prefix=prefix))
            ledger.update(wireless_ledger(campus.wireless, prefix=prefix))
        result.set_ledger(ledger)
        return result


class _Campus:
    """One wireless campus under closed-loop roams."""

    def __init__(self, net, wireless, stations):
        self.net = net
        self.wireless = wireless
        self.stations = stations
        self.failed = 0
        self._ap_index = {ap: i for i, ap in enumerate(wireless.aps)}
        self._complete = self._acked = False
        self.delays_before = len(wireless.wlc.registration_delays)
        wireless.wlc.on_registered = self._on_registered

    def _on_complete(self, _station, accepted):
        self._complete = accepted

    def _on_registered(self, _station, _delay):
        self._acked = True

    def roam(self, station_index, offset, clock):
        """Roam one station to the AP ``offset`` places on and settle;
        returns the wall seconds it took."""
        aps = self.wireless.aps
        station = self.stations[station_index]
        target = aps[(self._ap_index[station.ap] + offset) % len(aps)]
        inter_edge = target.edge is not station.ap.edge
        self._complete = self._acked = False
        started = clock()
        self.wireless.roam(station, target, on_complete=self._on_complete)
        self.net.settle()
        elapsed = clock() - started
        if not self._complete or (inter_edge and not self._acked):
            self.failed += 1
        return elapsed

    def stale_registrations(self, vn):
        """Stations whose map-server RLOC is not their AP's edge."""
        server = self.net.routing_server
        stale = 0
        for station in self.stations:
            record = server.database.lookup(vn, station.ip)
            if record is None or record.rloc != station.ap.edge.rloc:
                stale += 1
        return stale


# ---------------------------------------------------------------------- intersite_churn
class IntersiteChurn:
    """Two-site wireless campus with every fast-path flag on, under churn.

    Open loop: every station walks (exponential dwell, a share of moves
    crossing sites) while firing Zipf flows as 16-packet trains, a share
    of them to the other site's servers.
    """

    name = "intersite_churn"
    SITES, EDGES_PER_SITE, APS_PER_EDGE = 2, 4, 2
    STATIONS_PER_SITE, SERVERS_PER_SITE = 400, 3
    DWELL_MEAN_S = 10.0
    INTERSITE_ROAM = 0.3
    FLOW_INTERVAL_S = 0.5
    INTERSITE_FLOW = 0.3
    PACKETS_PER_FLOW = 16
    DURATION_S = 12.0
    SLICES = 150
    SKEW = 1.1
    VN = 4101
    op_unit = "forwarded packet"
    sample_every = 64

    def __init__(self, seed, gauge):
        self.seed = seed
        self.gauge = gauge
        rng = random.Random("intersite_churn/%d" % seed)
        stations = self.SITES * self.STATIONS_PER_SITE
        cdf = zipf_cdf(self.SERVERS_PER_SITE, self.SKEW)

        def arrivals(rate, draw):
            out, t = [], 0.0
            while True:
                gap = rng.expovariate(rate)
                t += gap
                if t >= self.DURATION_S:
                    return out
                out.append((gap,) + draw())

        #: per station: [(gap, cross-site?, AP draw)] and
        #: [(gap, cross-site?, server rank)]
        self.walks = [
            arrivals(1.0 / self.DWELL_MEAN_S,
                     lambda: (rng.random() < self.INTERSITE_ROAM,
                              rng.random()))
            for _ in range(stations)
        ]
        self.flows = [
            arrivals(1.0 / self.FLOW_INTERVAL_S,
                     lambda: (rng.random() < self.INTERSITE_FLOW,
                              zipf_pick(cdf, rng.random())))
            for _ in range(stations)
        ]

    def run_round(self, tracer=None):
        tracer = tracer or NullTracer()
        result = Round()
        setup = SetupTimer(self.gauge)
        net = MultiSiteNetwork(MultiSiteConfig(
            num_sites=self.SITES, edges_per_site=self.EDGES_PER_SITE,
            seed=self.seed, megaflow=True, batching=True,
            session_cache=True))
        setup.watch(net.sim)
        wireless = MultiSiteWireless(net, WirelessConfig(
            aps_per_edge=self.APS_PER_EDGE, batching=True))
        net.define_vn("wifi", self.VN, "10.160.0.0/13")
        net.define_group("stations", 10, self.VN)
        net.define_group("servers", 30, self.VN)
        net.allow("stations", "servers")
        aps_per_site = self.EDGES_PER_SITE * self.APS_PER_EDGE
        servers, stations = [], []
        for site in range(self.SITES):
            bucket = []
            for index in range(self.SERVERS_PER_SITE):
                server = net.create_endpoint(
                    "s%d-srv-%d" % (site, index), "servers", self.VN)
                net.admit(server, site, index % self.EDGES_PER_SITE)
                bucket.append(server)
            servers.append(bucket)
        net.settle(max_time=300.0)
        for site in range(self.SITES):
            for index in range(self.STATIONS_PER_SITE):
                station = wireless.create_station(
                    "s%d-sta-%d" % (site, index), "stations", self.VN)
                wireless.associate(
                    station, site * aps_per_site + index % aps_per_site)
                stations.append(station)
        net.settle(max_time=300.0)
        result.setup_s = setup.reference()

        sim = net.sim
        wlcs = wireless.wlcs
        next_op = [0]
        #: station identity -> [completed?] of its latest roam; a roam
        #: started before the previous one completed supersedes it
        latest = {}
        tally = {"roams": 0, "intersite": 0, "superseded": 0}

        def roam(station, steps, position):
            if station.ap is None:
                return
            _gap, cross, draw = steps[position]
            current = wireless.ap_index(station.ap)
            site = current // aps_per_site
            if cross:
                site = (site + 1) % self.SITES
                target = site * aps_per_site + int(draw * aps_per_site)
            else:
                pick = int(draw * (aps_per_site - 1))
                target = site * aps_per_site + pick
                if target >= current:
                    target += 1
            record = latest.get(station.identity)
            if record is not None and not record[0]:
                tally["superseded"] += 1
            tally["roams"] += 1
            if target // aps_per_site != current // aps_per_site:
                tally["intersite"] += 1
            entry = latest[station.identity] = [False]

            def done(_station, accepted):
                entry[0] = accepted

            next_op[0] += 1
            tracer.op = next_op[0]
            wireless.roam(station, target, on_complete=done)
            tracer.op = 0
            if position + 1 < len(steps):
                sim.schedule(steps[position + 1][0], roam, station, steps,
                             position + 1)

        def fire(station, flows, position):
            _gap, cross, rank = flows[position]
            if station.ap is not None and station.onboarded:
                site = wireless.site_of_ap(station.ap)
                if cross:
                    site = (site + 1) % self.SITES
                next_op[0] += 1
                tracer.op = next_op[0]
                net.send(station, servers[site][rank].ip, size=600,
                         count=self.PACKETS_PER_FLOW, as_train=True)
                tracer.op = 0
            if position + 1 < len(flows):
                sim.schedule(flows[position + 1][0], fire, station, flows,
                             position + 1)

        t0 = sim.now
        for station, steps, flows in zip(stations, self.walks, self.flows):
            if steps:
                sim.schedule_at(t0 + steps[0][0], roam, station, steps, 0)
            if flows:
                sim.schedule_at(t0 + flows[0][0], fire, station, flows, 0)
        edges = [edge for site in net.sites for edge in site.edges]
        delays_before = [len(w.registration_delays) for w in wlcs]
        transit_before = net.transit_message_count()
        events_before = sim.events_processed
        tracer.reset()
        measured = Interval(self.gauge)
        result.early_us, result.late_us = run_sliced(
            sim, edges, t0, self.DURATION_S, self.SLICES, self.gauge)
        result.op_wall_us = result.early_us + result.late_us
        net.settle(max_time=300.0)
        result.end_measured(measured)
        result.events = sim.events_processed - events_before

        model = []
        for wlc, before in zip(wlcs, delays_before):
            model.extend(wlc.registration_delays[before:])
        sent = sum(s.packets_sent for s in stations)
        delivered = sum(s.packets_received for b in servers for s in b)
        denied = net.total_policy_drops()
        failed = sum(1 for entry in latest.values() if not entry[0])
        result.ops = forwarded(edges)
        result.set_model(model)
        result.counts = {
            "flows": next_op[0] - tally["roams"], "pkts_sent": sent,
            "pkts_delivered": delivered, "pkts_denied": denied,
            "pkts_lost": sent - delivered - denied,
            "pkts_forwarded": result.ops, "roams": tally["roams"],
            "roams_intersite": tally["intersite"],
            "roams_superseded": tally["superseded"], "roams_failed": failed,
            "transit_msgs": net.transit_message_count() - transit_before,
        }
        result.check(failed == 0, "%d stations' latest roam never completed"
                     % failed)
        result.check(not net.transit.host_routes(),
                     "the transit holds host routes")
        stale = []
        for station in stations:
            site = wireless.site_of_ap(station.ap)
            record = net.sites[site].routing_server.database.lookup(
                self.VN, station.ip)
            if record is None or record.rloc != station.ap.edge.rloc:
                stale.append("%s at site %d %s resolves to %s" % (
                    station.identity, site, station.ap.edge.rloc,
                    "nothing" if record is None else "%s via %s" % (
                        record.rloc, record.eid)))
        result.check(not stale, "%d stations do not resolve at their site "
                     "to their AP's edge (%s)"
                     % (len(stale), "; ".join(stale[:3])))
        ledger = {}
        for index, site in enumerate(net.sites):
            ledger.update(fabric_ledger(site, prefix="site%d." % index))
            ledger.update(wireless_ledger(wireless.site_wireless[index],
                                          prefix="site%d." % index))
        ledger.update(endpoint_ledger(net.endpoints()))
        ledger["transit_msgs"] = net.transit_message_count()
        result.set_ledger(ledger)
        return result


WORKLOADS = {cls.name: cls for cls in (WiredFlows, RoamGrowth, IntersiteChurn)}
