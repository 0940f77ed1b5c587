"""The SDA edge router.

Implements the four edge functions of sec. 3.3:

1. encapsulate/decapsulate endpoint traffic (VXLAN-GPO);
2. inter-VN isolation via VRFs populated by LISP;
3. roaming detection + location registration;
4. group-permission enforcement (egress by default; ingress available
   for the sec. 5.3 ablation).

Plus the lessons-learned machinery: default route to the border during
resolution (sec. 3.2.2), underlay reachability tracking with fallback
(sec. 5.1), reboot behaviour (sec. 5.2), and data-triggered SMRs for
stale-mapping refresh (fig. 6).

Location registration (function 3) goes through the Map-Register client
every registering device shares, :class:`repro.lisp.registrar.Registrar`;
the edge keeps the VRF revalidation of its retries and the refresh tick.
"""

from __future__ import annotations

from repro.core.counters import Counters
from repro.core.errors import ConfigurationError
from repro.lisp.mapcache import MapCache
from repro.net.fastpath import (
    ACT_DROP,
    ACT_ENCAP,
    ACT_LOCAL,
    DIR_EGRESS,
    DIR_INGRESS,
    MegaflowCache,
    MegaflowEntry,
)
from repro.lisp.messages import (
    EidRecord,
    MapNotify,
    MapReply,
    MapRequest,
    SolicitMapRequest,
    control_packet,
)
from repro.lisp.registrar import Registrar
from repro.net.packet import UdpHeader
from repro.net.vxlan import (
    VXLAN_PORT,
    EncapTemplate,
    decapsulate,
    encapsulate,
    flow_entropy_port,
)
from repro.policy.acl import GroupAcl
from repro.policy.matrix import PolicyAction
from repro.policy.server import AccessRequest, AccessResult
from repro.fabric.vrf import LocalEndpointEntry, VrfTable
from repro.sim.rng import SeededRng

#: Enforcement point selection (sec. 5.3 trade-off).
ENFORCE_EGRESS = "egress"
ENFORCE_INGRESS = "ingress"

#: Local port-to-endpoint delivery delay (switching latency).
PORT_DELAY_S = 20e-6


class EdgeRouterCounters(Counters):
    """Per-edge data/control plane statistics."""

    FIELDS = (
        "packets_in",
        "packets_out",
        "local_deliveries",
        "encapsulated",
        "to_border_default",
        "policy_drops",
        "ingress_policy_drops",
        "ttl_drops",
        "stale_deliveries",
        "reforwarded",
        "smr_sent",
        "smr_received",
        "map_requests_sent",
        "map_registers_sent",
        "wireless_in",
        "wireless_installs",
        "notifies_received",
        "auth_requests_sent",
        "unreachable_fallbacks",
        "map_request_retries_sent",
        "map_request_timeouts",
        "miss_drops",
        "register_acks_received",
        "register_retries_sent",
        "register_retry_exhausted",
        "register_refreshes_sent",
        "border_failovers",
    )

    # Normalized metric-registry spellings for the ad-hoc legacy names;
    # the legacy attributes stay real (hot paths and the workload
    # ledger digests read them), the normalized names are aliases.
    METRIC_NAMES = {
        "wireless_in": "wireless_packets_in",
        "encapsulated": "packets_encapsulated",
        "local_deliveries": "packets_delivered",
        "notifies_received": "map_notifies_received",
    }


class EdgeRouter:
    """One fabric edge: pipelines, map-cache, VRFs, onboarding, mobility."""

    def __init__(self, sim, name, rloc, node, underlay,
                 routing_server_rloc, policy_server_rloc, border_rloc,
                 dhcp=None, enforcement=ENFORCE_EGRESS,
                 map_cache_ttl=1200.0, negative_ttl=15.0,
                 detection_delay_s=2e-3, watch_underlay=True,
                 register_families=("ipv4", "ipv6", "mac"),
                 register_rlocs=None,
                 map_request_timeout_s=1.0, map_request_retries=2,
                 default_route_to_border=True,
                 batching=False, register_flush_s=2e-3,
                 megaflow=False, megaflow_max_entries=4096,
                 register_retry=None, register_refresh_s=None,
                 backup_border_rlocs=(), seed=29,
                 backpressure=False, breaker=None, serve_stale_s=None):
        self.sim = sim
        self.name = name
        self.rloc = rloc
        self.node = node
        self.underlay = underlay
        self.routing_server_rloc = routing_server_rloc
        self.policy_server_rloc = policy_server_rloc
        self.border_rloc = border_rloc
        self.dhcp = dhcp
        if enforcement not in (ENFORCE_EGRESS, ENFORCE_INGRESS):
            raise ConfigurationError("unknown enforcement point %r" % enforcement)
        self.enforcement = enforcement
        #: time for the edge to detect a newly attached endpoint
        self.detection_delay_s = detection_delay_s
        #: which EID families to register (warehouse runs register IPv4
        #: only, matching the paper's two-queries-per-move accounting)
        self.register_families = tuple(register_families)
        #: where Map-Registers go.  With horizontally scaled routing
        #: servers (sec. 4.1), requests go to this edge's assigned server
        #: (``routing_server_rloc``) while "route updates [are performed]
        #: on all servers" — so registrations fan out to every server.
        self.register_rlocs = (
            tuple(register_rlocs) if register_rlocs else (routing_server_rloc,)
        )
        #: reactive resolution robustness: resend an unanswered
        #: Map-Request after this long, up to ``map_request_retries``
        #: times.  Retries alternate across the known routing servers,
        #: giving failover when the control plane is clustered.
        self.map_request_timeout_s = map_request_timeout_s
        self.map_request_retries = map_request_retries
        #: the sec. 3.2.2 design decision: forward unresolved traffic to
        #: the border.  Disabling it (for the ablation) makes the edge
        #: drop on miss, exposing the raw initial-connection loss a
        #: reactive protocol would otherwise have.
        self.default_route_to_border = default_route_to_border
        #: re-register every local endpoint on this period — soft-state
        #: refresh that repopulates a cold-restarted routing server and
        #: feeds its registration TTL sweep.
        self.register_refresh_s = register_refresh_s
        #: data packets forwarded on a stale (expired, in the
        #: serve-stale window) map-cache entry while re-resolving
        self.stale_served = 0
        self._rng = SeededRng(seed).spawn(name)
        #: VRRP-less border redundancy: when the IGP declares the
        #: current border dead, rotate to the next reachable backup.
        self._border_rlocs = (border_rloc,) + tuple(backup_border_rlocs)
        self._border_index = 0
        #: data-plane fast path: memoize complete forwarding decisions
        #: (resolved RLOC + policy verdict + encap template) per
        #: (VN, src group, dst EID); see :mod:`repro.net.fastpath`.
        #: Off by default so the per-packet pipeline stays the ablation
        #: baseline.
        self.megaflow = MegaflowCache(megaflow_max_entries) if megaflow else None

        self.vrf = VrfTable()
        self.map_cache = MapCache(sim, default_ttl=map_cache_ttl,
                                  negative_ttl=negative_ttl,
                                  serve_stale_s=serve_stale_s)
        self.acl = GroupAcl()
        self.counters = EdgeRouterCounters()
        #: the Map-Register client; its knobs are all off by default.
        #: ``register_retry`` (a :class:`repro.core.RetryPolicy`) asks
        #: every server for an ack and resends unacked messages, so a
        #: lost Map-Register no longer strands an endpoint forever.
        self.registrar = Registrar(
            sim, rloc, self._send_control, self.register_rlocs,
            ack_servers=self.register_rlocs if register_retry else (),
            batching=batching, flush_s=register_flush_s,
            retry=register_retry, rng=self._rng,
            resend=self._retry_register, breaker=breaker,
            backpressure=backpressure, counters=self.counters,
            track=self._track_register, halted=lambda: self.rebooting,
        )
        self._pending_registers = {}   # nonce -> (server rloc, records)
        self.l2_gateway = None    # set by repro.fabric.l2 when L2 services are on

        self.rebooting = False
        self._ports = {}          # port -> endpoint
        self._aps = {}            # name -> FabricAp VXLAN-tunneling here
        self._next_port = 1
        self._pending_auth = {}   # nonce -> (endpoint, port, roaming, callback)
        self._pending_resolution = {}  # (vn int, eid) -> count of packets since request

        underlay.attach(rloc, node, self._on_packet)
        if watch_underlay and underlay.igp is not None:
            underlay.subscribe_reachability(node, self._on_reachability)
        if register_refresh_s is not None:
            sim.schedule_daemon(register_refresh_s, self._refresh_tick)

    # ------------------------------------------------------------------ attachment
    def allocate_port(self):
        port = self._next_port
        self._next_port += 1
        return port

    def attach_endpoint(self, endpoint, port=None, on_complete=None):
        """Begin host onboarding (fig. 3) for a newly connected endpoint.

        The flow is asynchronous: detection delay, then Access-Request to
        the policy server, then (on accept) DHCP + VRF install +
        Map-Register.  ``on_complete(endpoint, accepted)`` fires at the
        end.  A roaming endpoint (one that already has an IP) keeps it —
        L3 mobility — and its registration is flagged ``mobility=True``.
        """
        if self.rebooting:
            raise ConfigurationError("%s is rebooting" % self.name)
        if port is None:
            port = self.allocate_port()
        if port in self._ports:
            raise ConfigurationError("port %d on %s already in use" % (port, self.name))
        self._ports[port] = endpoint
        endpoint.edge = self
        endpoint.port = port
        roaming = endpoint.onboarded
        self.sim.schedule(
            self.detection_delay_s, self._start_auth, endpoint, port, roaming, on_complete
        )

    def _start_auth(self, endpoint, port, roaming, on_complete):
        if self._ports.get(port) is not endpoint:
            return  # endpoint left before detection completed
        request = AccessRequest(endpoint.identity, endpoint.secret,
                                reply_to=self.rloc, enforcement=self.enforcement)
        self._pending_auth[request.nonce] = ("attach", endpoint, port, roaming, on_complete)
        self.counters.auth_requests_sent += 1
        self._send_control(self.policy_server_rloc, request)

    def reauthenticate(self, endpoint, on_complete=None):
        """Re-run authentication for an attached endpoint.

        This is the egress-enforcement refresh of sec. 5.3: when endpoint
        data changes (e.g. a group reassignment), re-auth updates the
        (Overlay IP, GroupId) pair in the VRF and downloads the new rule
        rows — no extra signaling mechanism needed.
        """
        if self.vrf.lookup_identity(endpoint.identity) is None:
            raise ConfigurationError(
                "%s: cannot re-auth %s (not attached)" % (self.name, endpoint.identity)
            )
        request = AccessRequest(endpoint.identity, endpoint.secret,
                                reply_to=self.rloc, enforcement=self.enforcement)
        self._pending_auth[request.nonce] = ("reauth", endpoint, None, None, on_complete)
        self.counters.auth_requests_sent += 1
        self._send_control(self.policy_server_rloc, request)

    def _finish_auth(self, result):
        pending = self._pending_auth.pop(result.nonce, None)
        if pending is None:
            return
        mode, endpoint, port, roaming, on_complete = pending
        if mode == "reauth":
            self._finish_reauth(endpoint, result, on_complete)
            return
        if self._ports.get(port) is not endpoint:
            return  # roamed away mid-auth
        if not result.accepted:
            del self._ports[port]
            endpoint.edge = None
            endpoint.port = None
            if on_complete is not None:
                on_complete(endpoint, False)
            return
        endpoint.vn = result.vn
        endpoint.group = result.group
        if not roaming:
            if self.dhcp is not None:
                endpoint.ip, endpoint.ipv6 = self.dhcp.lease(result.vn, endpoint.identity)
            elif endpoint.ip is None:
                raise ConfigurationError(
                    "endpoint %s has no IP and edge %s has no DHCP"
                    % (endpoint.identity, self.name)
                )
        entry = LocalEndpointEntry(
            endpoint, result.vn, result.group, port,
            endpoint.ip, ipv6=endpoint.ipv6, mac=endpoint.mac,
        )
        self.vrf.add(entry)
        # Egress enforcement: install the rules for this destination group.
        self.acl.program(result.rules)
        self._mf_flush()
        self._register_endpoint(endpoint, roaming)
        if on_complete is not None:
            on_complete(endpoint, True)

    def _finish_reauth(self, endpoint, result, on_complete):
        if not result.accepted:
            # A now-rejected endpoint is cut off.
            self.detach_endpoint(endpoint, deregister=True)
            if on_complete is not None:
                on_complete(endpoint, False)
            return
        old_group = endpoint.group
        endpoint.group = result.group
        self.vrf.update_group(endpoint.identity, result.group)
        self.acl.program(result.rules)
        self._mf_flush()
        if old_group is not None and int(old_group) != int(result.group):
            # The registration's stored group is refreshed too.
            self._register_endpoint(endpoint, roaming=False)
        if on_complete is not None:
            on_complete(endpoint, True)

    def _register_endpoint(self, endpoint, roaming, refresh=False):
        """Map-Register all three EIDs (IPv4, IPv6, MAC) — sec. 4.1.

        IP registrations carry the endpoint MAC so the routing server can
        answer ARP-style IP-to-MAC lookups (sec. 3.5).  With batching on
        the families ride one multi-record message per server (plus
        whatever other endpoints register within the flush window).
        ``refresh`` marks periodic keepalives so a bounded map server
        can shed them first under overload.
        """
        for eid in self._endpoint_eids(endpoint):
            if eid.family not in self.register_families:
                continue
            self.registrar.register(EidRecord(
                endpoint.vn, eid, self.rloc, group=endpoint.group,
                mac=endpoint.mac if eid.family != "mac" else None,
                mobility=roaming, refresh=refresh,
            ))

    # -- registration acks & retries (chaos suite) --------------------------------
    def _track_register(self, server_rloc, register):
        self._pending_registers[register.nonce] = (
            server_rloc, register.eid_records,
        )

    def _retry_register(self, nonce, attempt):
        pending = self._pending_registers.get(nonce)
        if pending is None:
            return  # acked in time (or state was reset)
        server_rloc, records = pending
        # Revalidate against the *current* VRF: retrying a snapshot
        # taken before a roam-away would resurrect stale state the new
        # edge's registration already superseded.  Withdrawals survive
        # as-is (RLOC-guarded, hence idempotent).
        survivors = tuple(
            record for record in records
            if record.withdraw or self._still_local(record)
        )
        if (self.registrar.exhausted(attempt)
                or not any(not record.withdraw for record in survivors)):
            del self._pending_registers[nonce]
            return  # out of attempts, or nothing acked is left to claim
        if self.registrar.admit_retry(server_rloc, nonce, attempt):
            del self._pending_registers[nonce]
            self.registrar.resend(server_rloc, survivors, attempt + 1)

    def _still_local(self, record):
        """Does this EID still belong to an endpoint attached here?"""
        if record.eid.family == "mac":
            entry = self.vrf.lookup_mac(record.vn, record.eid.address)
        else:
            entry = self.vrf.lookup_ip(record.vn, record.eid.address)
        return entry is not None and entry.endpoint.edge is self

    def _refresh_tick(self):
        """Soft-state registration refresh (daemon).

        Re-registers every locally attached endpoint so a routing server
        that lost its database (crash + cold restart) converges back to
        truth, and so its TTL sweep sees live endpoints as fresh.  The
        batching pipeline, when on, absorbs the refresh storm.
        """
        if not self.rebooting:
            self.counters.register_refreshes_sent += 1
            for entry in list(self.vrf.entries()):
                if entry.endpoint.edge is self:
                    self._register_endpoint(entry.endpoint, roaming=False,
                                            refresh=True)
        # Backpressure stretches the refresh period by the current
        # factor (1.0 — a float no-op — unless the server signaled
        # overload on a recent ack).
        self.sim.schedule_daemon(
            self.register_refresh_s * self.registrar.bp_factor,
            self._refresh_tick)

    def detach_endpoint(self, endpoint, deregister=False):
        """Endpoint left this edge (roam-away or shutdown).

        Mobility does *not* deregister: the new edge's register supersedes
        ours and triggers the Map-Notify redirect.  Explicit departure
        (user leaves the office) passes ``deregister=True``.
        """
        if endpoint.port is not None:
            self._ports.pop(endpoint.port, None)
        self.vrf.remove(endpoint.identity)
        self._mf_flush()
        if endpoint.edge is self:
            endpoint.edge = None
            endpoint.port = None
        if deregister and endpoint.onboarded:
            for eid in self._endpoint_eids(endpoint):
                if eid.family in self.register_families:
                    self.registrar.withdraw(endpoint.vn, eid, self.rloc)

    @staticmethod
    def _endpoint_eids(endpoint):
        eids = [endpoint.ip.to_prefix()]
        if endpoint.ipv6 is not None:
            eids.append(endpoint.ipv6.to_prefix())
        if endpoint.mac is not None:
            eids.append(endpoint.mac.to_prefix())
        return eids

    # ------------------------------------------------------------------ fabric wireless
    def attach_ap(self, ap):
        """A fabric-enabled AP VXLAN-tunnels station traffic to this edge.

        The AP is a data-plane extension of the edge: it encapsulates
        locally (no controller hairpin) and its stations appear in this
        edge's VRF exactly like wired endpoints — but their control-plane
        onboarding is driven by the WLC, not by the edge's own
        authentication path.
        """
        if ap.name in self._aps:
            raise ConfigurationError(
                "AP %s already attached to %s" % (ap.name, self.name)
            )
        self._aps[ap.name] = ap

    def receive_from_ap(self, packet):
        """Upstream station traffic, VXLAN-GPO-encapsulated at the AP."""
        if self.rebooting:
            return
        vxlan = decapsulate(packet)
        self.counters.packets_in += packet.train
        self.counters.wireless_in += packet.train
        self._forward_overlay(vxlan.vni, vxlan.group, packet)

    def install_wireless_endpoint(self, station, vn, group, rules, port=None):
        """WLC-proxied onboarding: install forwarding state only.

        The WLC already ran authentication, SGT assignment, DHCP and the
        Map-Register (as registrar); the edge's part is the VRF entry,
        the egress rule rows, and — because the station is local now —
        dropping any map-cache leftovers that still claim it is remote.
        """
        if self.rebooting:
            raise ConfigurationError("%s is rebooting" % self.name)
        existing = self.vrf.lookup_identity(station.identity)
        if existing is not None:
            self.vrf.update_group(station.identity, group)
            self.acl.program(rules)
            self._mf_flush()
            station.edge = self
            return existing
        entry = LocalEndpointEntry(
            station, vn, group, port or self.allocate_port(),
            station.ip, ipv6=station.ipv6, mac=station.mac,
        )
        self.vrf.add(entry)
        self.acl.program(rules)
        for eid in self._endpoint_eids(station):
            self.map_cache.invalidate(vn, eid)
        self._mf_flush()
        station.edge = self
        self.counters.wireless_installs += 1
        return entry

    def remove_wireless_endpoint(self, station):
        """Station left the wireless fabric (WLC-driven disassociation)."""
        removed = self.vrf.remove(station.identity)
        self._mf_flush()
        if station.edge is self:
            station.edge = None
        return removed

    # ------------------------------------------------------------------ ingress pipeline
    def inject_from_endpoint(self, endpoint, packet):
        """Entry point for endpoint traffic (fig. 4 ingress pipeline)."""
        if self.rebooting:
            return
        entry = self.vrf.lookup_identity(endpoint.identity)
        if entry is None:
            return  # not onboarded yet; a real switch floods to auth VLAN
        self.counters.packets_in += packet.train
        self._forward_overlay(entry.vn, entry.group, packet)

    # -- megaflow fast path ----------------------------------------------------------
    def _mf_flush(self):
        """A control-plane event happened: forget every cached decision."""
        if self.megaflow is not None:
            self.megaflow.flush()

    def _mf_hit_ingress(self, key, entry, packet, train):
        """Replay a cached ingress decision; False falls to the slow path."""
        action = entry.action
        if action == ACT_ENCAP:
            # Reachability can flip without a message reaching this edge
            # (sec. 5.1); the slow path checks it per packet, so must we.
            if not self.underlay.reachable(self.rloc, entry.rloc):
                self.megaflow.drop(key)
                return False
            if entry.acl_key is not None:
                self.acl.account(entry.acl_key, entry.acl_action, train)
            entry.template.apply(packet)
            self.counters.encapsulated += train
            self.counters.packets_out += train
            self.underlay.send(self.rloc, entry.rloc, packet)
            return True
        if action == ACT_LOCAL:
            local = entry.local
            if local.endpoint.edge is not self:
                # Wireless roam window: the endpoint left but our VRF
                # entry lingers until the fig. 5 notify.  Same per-packet
                # re-check the slow path's short-circuit does.
                self.megaflow.drop(key)
                return False
            self.acl.account(entry.acl_key, entry.acl_action, train)
            if entry.acl_action == PolicyAction.DENY:
                self.counters.policy_drops += train
                return True
            self.counters.local_deliveries += train
            self.sim.schedule(PORT_DELAY_S, self._deliver, local.endpoint, packet)
            return True
        # ACT_DROP: ingress-enforcement deny — the packet never leaves.
        self.acl.account(entry.acl_key, entry.acl_action, train)
        self.counters.policy_drops += train
        self.counters.ingress_policy_drops += train
        return True

    def _forward_overlay(self, vn, src_group, packet):
        inner = packet.inner_ip()
        if inner is None:
            return
        dst = inner.dst
        train = packet.train
        mf = self.megaflow
        key = None
        if mf is not None:
            key = (DIR_INGRESS, int(vn), int(src_group), dst)
            entry = mf.lookup(key, self.sim.now)
            if entry is not None and self._mf_hit_ingress(key, entry, packet, train):
                return

        # Local destination: short-circuit through the egress stage.
        # A VRF entry whose endpoint already left (a wireless radio gone
        # mid-roam — the entry lingers until the fig. 5 notify) is not
        # local anymore; fall through to the overlay path instead.
        local = self.vrf.lookup_ip(vn, dst)
        if local is not None and local.endpoint.edge is self:
            if mf is not None:
                acl_key, acl_action = self.acl.action_for(src_group, local.group)
                mf.install(key, MegaflowEntry(
                    ACT_LOCAL, local=local,
                    acl_key=acl_key, acl_action=acl_action,
                ))
            self._egress_deliver(vn, src_group, local, packet)
            return

        cache_entry = self.map_cache.lookup(vn, dst)
        if cache_entry is not None and not cache_entry.negative:
            # Stale-while-revalidate (overload armor): the cache only
            # returns an expired entry when the serve-stale knob is on.
            # Keep forwarding on it — the liveness re-check below still
            # applies — and re-resolve in the background instead of
            # demoting the flow to the border default.
            stale = cache_entry.expires_at <= self.sim.now
            if stale:
                self.stale_served += train
                self._resolve(vn, dst)
            # Ingress enforcement ablation: we know the destination group
            # from the cached record, so policy can be applied here and
            # denied traffic never crosses the underlay.
            ingress_enforced = (self.enforcement == ENFORCE_INGRESS
                                and cache_entry.group is not None)
            if ingress_enforced:
                if not self.acl.allows(src_group, cache_entry.group, train):
                    self.counters.policy_drops += train
                    self.counters.ingress_policy_drops += train
                    if mf is not None and not stale:
                        acl_key, acl_action = self.acl.action_for(
                            src_group, cache_entry.group)
                        mf.install(key, MegaflowEntry(
                            ACT_DROP, acl_key=acl_key, acl_action=acl_action,
                            expires_at=cache_entry.expires_at,
                        ))
                    return
            target = cache_entry.rloc
            if self.underlay.reachable(self.rloc, target):
                applied = self.enforcement == ENFORCE_INGRESS
                # A stale decision is never megaflow-cached: staleness
                # must be re-judged (and re-resolution re-triggered)
                # per packet, like the miss path.
                if mf is not None and not stale:
                    acl_key = acl_action = None
                    if ingress_enforced:
                        acl_key, acl_action = self.acl.action_for(
                            src_group, cache_entry.group)
                    mf.install(key, MegaflowEntry(
                        ACT_ENCAP, rloc=target,
                        template=EncapTemplate(
                            self.rloc, target, vn, src_group,
                            policy_applied=applied,
                            src_port=flow_entropy_port(inner.src, inner.dst),
                        ),
                        acl_key=acl_key, acl_action=acl_action,
                        expires_at=cache_entry.expires_at,
                    ))
                self._encap_to(target, vn, src_group, packet, applied=applied)
                return
            # Sec. 5.1: target RLOC unreachable in the underlay — delete
            # the route and fall back to the border default.
            self.map_cache.invalidate(vn, cache_entry.eid)
            self._mf_flush()
            self.counters.unreachable_fallbacks += 1
        elif cache_entry is None:
            # Miss: trigger resolution; traffic keeps flowing via border.
            self._resolve(vn, dst)

        # Miss/negative/fallback decisions are deliberately *not*
        # megaflow-cached: they must keep re-triggering resolution and
        # re-reading the negative TTL per packet, exactly as the slow
        # path does.
        if not self.default_route_to_border:
            # Ablation mode: no fallback — the packet is lost while the
            # mapping resolves (the "initial packet loss" of sec. 3.2.2).
            self.counters.miss_drops += train
            return
        # Default route to border (covers miss, negative and fallback).
        self.counters.to_border_default += train
        self._encap_to(self.border_rloc, vn, src_group, packet, applied=False)

    def _resolve(self, vn, dst):
        key = (int(vn), dst)
        if key in self._pending_resolution:
            self._pending_resolution[key] += 1
            return
        self._pending_resolution[key] = 1
        self._send_map_request(vn, dst, attempt=0)

    def _send_map_request(self, vn, dst, attempt):
        request = MapRequest(vn, dst.to_prefix(), reply_to=self.rloc)
        self.counters.map_requests_sent += 1
        # Attempt 0 goes to this edge's assigned server; retries walk the
        # server list (failover in clustered control planes).
        servers = (self.routing_server_rloc,) + tuple(
            rloc for rloc in self.register_rlocs
            if rloc != self.routing_server_rloc
        )
        target = servers[attempt % len(servers)]
        self._send_control(target, request)
        self.sim.schedule(self.map_request_timeout_s,
                          self._check_resolution, vn, dst, attempt)

    def _check_resolution(self, vn, dst, attempt):
        key = (int(vn), dst)
        if key not in self._pending_resolution or self.rebooting:
            return  # answered (or state reset) in the meantime
        if attempt >= self.map_request_retries:
            # Give up; the next data packet restarts resolution.  Traffic
            # kept flowing via the border default route throughout.
            del self._pending_resolution[key]
            self.counters.map_request_timeouts += 1
            return
        self.counters.map_request_retries_sent += 1
        self._send_map_request(vn, dst, attempt + 1)

    def _encap_to(self, target_rloc, vn, src_group, packet, applied=False):
        encapsulate(packet, self.rloc, target_rloc, vn, src_group)
        vxlan = packet.headers[2]
        vxlan.policy_applied = applied
        self.counters.encapsulated += packet.train
        self.counters.packets_out += packet.train
        self.underlay.send(self.rloc, target_rloc, packet)

    # ------------------------------------------------------------------ egress pipeline
    def _on_packet(self, packet):
        if self.rebooting:
            return
        udp = packet.find(UdpHeader)
        if udp is not None and udp.dst_port == VXLAN_PORT:
            self._handle_data(packet)
        else:
            self._handle_control(packet.payload, packet)

    def _handle_data(self, packet):
        outer_src = packet.outer().src
        vxlan = decapsulate(packet)
        vn, src_group = vxlan.vni, vxlan.group
        inner = packet.inner_ip()
        if inner is None:
            self._handle_l2_frame(vn, src_group, packet, outer_src)
            return
        dst = inner.dst
        train = packet.train
        mf = self.megaflow
        key = None
        if mf is not None:
            key = (DIR_EGRESS, int(vn), int(src_group), dst)
            entry = mf.lookup(key, self.sim.now)
            if entry is not None:
                local = entry.local
                if local.endpoint.edge is self:
                    # The cached verdict only applies when this edge is
                    # the enforcement point; an upstream "policy applied"
                    # bit skips the check exactly like the slow path.
                    if not vxlan.policy_applied:
                        self.acl.account(entry.acl_key, entry.acl_action,
                                         train)
                        if entry.acl_action == PolicyAction.DENY:
                            self.counters.policy_drops += train
                            return
                    self.counters.local_deliveries += train
                    self.sim.schedule(PORT_DELAY_S, self._deliver,
                                      local.endpoint, packet)
                    return
                mf.drop(key)
        local = self.vrf.lookup_ip(vn, dst)
        if local is not None and local.endpoint.edge is self:
            if mf is not None:
                acl_key, acl_action = self.acl.action_for(src_group, local.group)
                mf.install(key, MegaflowEntry(
                    ACT_LOCAL, local=local,
                    acl_key=acl_key, acl_action=acl_action,
                ))
            self._egress_deliver(vn, src_group, local, packet,
                                 policy_applied=vxlan.policy_applied)
            return
        # Stale delivery: the endpoint is not here (it moved — possibly
        # with its VRF entry still lingering until the Map-Notify lands,
        # the wireless roam window — or we rebooted and lost our state).
        # Fig. 6: tell the sender to refresh, and forward the packet
        # towards the new location.  One SMR per *event* — a train is a
        # back-to-back burst, and a real edge would collapse its SMRs
        # exactly the same way.
        self.counters.stale_deliveries += train
        if outer_src != self.border_rloc:
            self.counters.smr_sent += 1
            self._send_control(outer_src, SolicitMapRequest(vn, dst.to_prefix()))
        if inner.ttl <= 1:
            self.counters.ttl_drops += train
            return
        inner.ttl -= 1
        cache_entry = self.map_cache.lookup(vn, dst)
        if cache_entry is not None and not cache_entry.negative \
                and cache_entry.rloc != self.rloc \
                and self.underlay.reachable(self.rloc, cache_entry.rloc):
            self.counters.reforwarded += train
            self._encap_to(cache_entry.rloc, vn, src_group, packet)
            return
        # No better information: default route (sec. 5.2's transient loop
        # arises exactly here when the border still points at us).
        if cache_entry is None:
            self._resolve(vn, dst)
        self.counters.to_border_default += train
        self._encap_to(self.border_rloc, vn, src_group, packet)

    def _handle_l2_frame(self, vn, src_group, packet, outer_src):
        """Non-IP payloads (L2 service frames) go to the L2 gateway."""
        if self.l2_gateway is not None:
            self.l2_gateway.handle_overlay_frame(vn, src_group, packet, outer_src)

    def _egress_deliver(self, vn, src_group, local, packet, policy_applied=False):
        """Second egress stage (fig. 4): group ACL, then the access port.

        The check is skipped only when the VXLAN-GPO "policy applied" bit
        says an upstream device (ingress-enforcement mode) already ran it.
        """
        train = packet.train
        if not policy_applied:
            if not self.acl.allows(src_group, local.group, train):
                self.counters.policy_drops += train
                return
        self.counters.local_deliveries += train
        endpoint = local.endpoint
        self.sim.schedule(PORT_DELAY_S, self._deliver, endpoint, packet)

    def _deliver(self, endpoint, packet):
        if endpoint.edge is self:
            endpoint.receive(packet, self.sim.now)

    # ------------------------------------------------------------------ control plane
    def _handle_control(self, message, packet):
        kind = message.kind
        if kind == MapReply.kind:
            self._handle_map_reply(message)
        elif kind == MapNotify.kind:
            self._handle_map_notify(message)
        elif kind == SolicitMapRequest.kind:
            self._handle_smr(message)
        elif kind == AccessResult.kind:
            self._finish_auth(message)
        elif kind == "sxp-update":
            self._handle_sxp(message)
        elif kind == "sxp-batch":
            for update in message.updates:
                self._handle_sxp(update)
        # Unknown kinds are ignored (forward compatibility).

    def _handle_map_reply(self, reply):
        # Clear pending-resolution markers covered by this reply.
        resolved = [
            key for key in self._pending_resolution
            if key[0] == int(reply.vn)
            and key[1].family == reply.eid.family
            and reply.eid.contains(key[1])
        ]
        for key in resolved:
            del self._pending_resolution[key]
        if reply.is_negative:
            self.map_cache.install_negative(reply.vn, reply.eid, ttl=reply.negative_ttl)
            self._mf_flush()
            if self.l2_gateway is not None:
                self.l2_gateway.on_map_reply(reply)
            return
        record = reply.record
        # Cache lifetime: the server's advisory TTL capped by this edge's
        # own cache policy (the knob the FIB-state experiments turn).
        ttl = min(record.ttl, self.map_cache.default_ttl)
        self.map_cache.install(
            reply.vn, record.eid, record.rloc,
            group=record.group, version=record.version, ttl=ttl,
            mac=record.mac,
        )
        self._mf_flush()
        if self.l2_gateway is not None:
            self.l2_gateway.on_map_reply(reply)

    def _handle_map_notify(self, notify):
        """Fig. 5 steps 2-3: pull the roamed endpoint's new location.

        One message may carry several records (aggregated batch notify);
        each record is processed independently.
        """
        self.counters.notifies_received += 1
        pending = self._pending_registers.pop(notify.nonce, None)
        if pending is not None:
            # Aggregated ack for one of our own acked registrations:
            # the records are our state echoed back, nothing to apply.
            self.counters.register_acks_received += 1
            self.registrar.acked(pending[0], notify.overloaded)
            return
        with self.sim.tracer.span("edge_map_notify", device=self,
                                  parent=notify.trace_ctx,
                                  records=notify.record_count):
            for record in notify.mapping_records:
                self._apply_notify_record(record)

    def _apply_notify_record(self, record):
        # Any notify can move an endpoint we hold decisions for (roam
        # withdrawal of a local entry, or a map-cache version bump).
        self._mf_flush()
        # The endpoint may still be in our VRF if the move raced detection.
        entry = self.vrf.lookup_ip(record.vn, record.eid.address)
        if entry is not None and record.rloc != self.rloc:
            if entry.endpoint.edge is self:
                # Delayed notify from an *earlier* move: the endpoint
                # already came back and was re-installed here.  Evicting
                # the fresh entry would blackhole it at its own edge.
                return
            self.vrf.remove(entry.endpoint.identity)
        if record.rloc != self.rloc:
            ttl = min(record.ttl, self.map_cache.default_ttl)
            self.map_cache.install(
                record.vn, record.eid, record.rloc,
                group=record.group, version=record.version, ttl=ttl,
                mac=record.mac,
            )

    def _handle_smr(self, smr):
        """Fig. 6 step 4: drop the stale mapping and re-resolve."""
        self.counters.smr_received += 1
        self.map_cache.invalidate(smr.vn, smr.eid)
        self._mf_flush()
        self._resolve(smr.vn, smr.eid.address)

    def _handle_sxp(self, update):
        if update.rule is not None:
            self.acl.program([update.rule])
            self._mf_flush()

    def _send_control(self, dst_rloc, message):
        self.underlay.send(
            self.rloc, dst_rloc, control_packet(self.rloc, dst_rloc, message)
        )

    # ------------------------------------------------------------------ underlay events
    def _on_reachability(self, rloc, reachable):
        """Sec. 5.1: IGP says an RLOC went away — delete routes to it."""
        if reachable or rloc == self.rloc:
            return
        removed = self.map_cache.invalidate_rloc(rloc)
        self._mf_flush()
        if removed:
            self.counters.unreachable_fallbacks += removed
        if rloc == self.border_rloc and len(self._border_rlocs) > 1:
            self._fail_over_border()

    def _fail_over_border(self):
        """Rotate the default route to the next reachable backup border.

        Sticky: when the failed border heals we stay on the survivor —
        failing back would churn in-flight traffic for no correctness
        gain (both borders serve the same external routes).
        """
        order = self._border_rlocs
        n = len(order)
        for step in range(1, n + 1):
            index = (self._border_index + step) % n
            candidate = order[index]
            if candidate == self.border_rloc:
                continue
            if self.underlay.reachable(self.rloc, candidate):
                self._border_index = index
                self.border_rloc = candidate
                self.counters.border_failovers += 1
                self._mf_flush()
                return
        # Every border is unreachable right now; keep the current one so
        # the next reachability flap re-evaluates from a stable point.

    # ------------------------------------------------------------------ reboot (sec. 5.2)
    def reboot(self, duration_s=30.0, silent_in_igp=True):
        """Reboot: lose all overlay state; optionally go silent in the IGP.

        ``silent_in_igp=False`` disables the first mitigation of sec. 5.2
        so tests can demonstrate the transient loop it prevents.
        """
        self.rebooting = True
        self.map_cache = MapCache(
            self.sim, default_ttl=self.map_cache.default_ttl,
            negative_ttl=self.map_cache.negative_ttl,
            serve_stale_s=self.map_cache.serve_stale_s,
        )
        self.vrf = VrfTable()
        self._mf_flush()
        self._pending_resolution = {}
        self._pending_auth = {}
        self._pending_registers = {}
        self.registrar.reset()
        self._ports = {}
        if silent_in_igp:
            self.underlay.set_announced(self.rloc, False)
        self.sim.schedule(duration_s, self._reboot_done, silent_in_igp)

    def _reboot_done(self, was_silent):
        self.rebooting = False
        if was_silent:
            self.underlay.set_announced(self.rloc, True)

    # ------------------------------------------------------------------ metrics
    def fib_occupancy(self, family="ipv4"):
        """Overlay-to-underlay mappings held right now (fig. 9 metric)."""
        return self.map_cache.occupancy(family=family)

    def local_endpoint_count(self):
        return len(self.vrf)

    def __repr__(self):
        return "EdgeRouter(%s, rloc=%s, endpoints=%d, cache=%d)" % (
            self.name, self.rloc, len(self.vrf), self.map_cache.occupancy()
        )
