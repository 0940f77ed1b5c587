"""The SDA routing server (LISP map-server + map-resolver + pubsub).

Responsibilities (paper sec. 3.2.2):

* keep endpoint location state — pairs of (VN + overlay EID) -> underlay
  RLOC — in a :class:`MappingDatabase` (Patricia tries);
* answer Map-Requests reactively;
* accept Map-Registers, and on a *mobility* re-register, notify the
  previous edge router so it can redirect in-flight traffic (fig. 5);
* push every change to pub/sub subscribers (the border routers).

Performance model
-----------------
The server processes messages through a single FIFO queue.  Per-message
service time is::

    service = base + per_bit * key_bits + jitter

``key_bits`` is the trie key width (32/48/128) — *not* a function of how
many routes are installed.  This reproduces the fig. 7a/7b observation
(flat delay vs. #routes: Patricia trie depth bounds the work) while giving
the fig. 7c behaviour (delay grows with queries/s as the queue builds).
"""

from __future__ import annotations

from repro.core.counters import Counters
from repro.core.errors import ConfigurationError
from repro.core.queueing import (
    PRIO_BULK,
    PRIO_CRITICAL,
    PRIO_NORMAL,
    SerialQueue,
)
from repro.lisp.messages import (
    MapNotify,
    MapRegister,
    MapReply,
    MapRequest,
    MapUnregister,
    PublishUpdate,
    SubscribeRequest,
    control_packet,
)
from repro.lisp.records import MappingDatabase, MappingRecord
from repro.sim.rng import SeededRng


class RoutingServerStats(Counters):
    """Counters exposed for the experiments."""

    FIELDS = (
        "requests",
        "registers",
        "register_records",
        "batched_registers",
        "mobility_registers",
        "unregisters",
        "negative_replies",
        "notifies_sent",
        "publishes_sent",
        "registrar_acks",
        "max_queue_depth",
        "crashes",
        "restarts",
        "dropped_while_down",
        "expired_registrations",
    )


class RoutingServer:
    """The centralized routing server, attached to the underlay as a device.

    Parameters
    ----------
    sim / underlay:
        Simulation kernel and the underlay to attach to.  ``underlay`` may
        be ``None`` for direct benchmarking of the database/service model
        (fig. 7 uses :meth:`service_time` and :meth:`handle_message`
        through a synthetic driver).
    rloc / node:
        The server's underlay address and attachment point.
    base_service_s / per_bit_service_s / service_jitter_s:
        The service time model; defaults calibrated so a lone request
        takes ~200 microseconds, matching the order of magnitude of a
        software map-server, though only *relative* delays are reported.
    max_pending / max_backlog_s:
        Overload armor (default off = the seed's unbounded FIFO).  When
        either bound is set, arriving messages pass priority-aware
        admission control: periodic refresh registers shed first, then
        first-time registers, and Map-Requests / roam registers are
        served until the queue is truly full (tail drop).  Shed messages
        are simply never answered — senders recover through their
        retry/refresh machinery once load subsides.
    backpressure_threshold:
        Queue pressure (fraction of the tightest bound) above which
        registrar acks carry the in-band ``overloaded`` bit so edges /
        WLCs widen their batching windows and stretch refreshes.
    """

    def __init__(self, sim, underlay=None, rloc=None, node=None,
                 base_service_s=300e-6, per_bit_service_s=1.5e-6,
                 service_jitter_s=30e-6, seed=11,
                 max_pending=None, max_backlog_s=None,
                 backpressure_threshold=0.5):
        self.sim = sim
        self.underlay = underlay
        self.rloc = rloc
        self.database = MappingDatabase()
        self.stats = RoutingServerStats()
        self.base_service_s = base_service_s
        self.per_bit_service_s = per_bit_service_s
        self.service_jitter_s = service_jitter_s
        self._rng = SeededRng(seed)
        #: the control-plane FIFO (bounded when the overload knobs are
        #: set); shed/pressure accounting lives on the queue itself
        self.queue = SerialQueue(sim, max_depth=max_pending,
                                 max_backlog_s=max_backlog_s)
        self.queue.on_stale = self._on_stale_work
        self.backpressure_threshold = backpressure_threshold
        #: registrar acks that carried the overloaded bit (plain attr —
        #: not a ledger field, so default-off runs stay bit-identical)
        self.overload_signals = 0
        #: delayed registrations skipped because a registration at
        #: another RLOC is newer (plain attr, like overload_signals)
        self.stale_registers_skipped = 0
        self._subscribers = {}   # rloc -> vn filter (None = all)
        #: crash/restart state (chaos suite): while down, every arriving
        #: message is dropped; the queue's epoch guard discards work
        #: that was already queued when the process died.
        self.crashed = False
        #: non-volatile configuration replayed on a cold restart —
        #: delegations are installed by the operator, not learned.
        self._config_delegates = []
        #: optional hook ``(message, finish_time)`` fired after processing;
        #: the fig. 7 driver uses it to measure per-message response delay.
        self.on_processed = None
        #: trace context of the message currently being processed; every
        #: message _send()t from inside a handler inherits it, which is
        #: how notifies/acks/replies/publishes join the caller's trace
        self._active_ctx = None
        if underlay is not None:
            if rloc is None or node is None:
                raise ConfigurationError("attached server needs rloc and node")
            underlay.attach(rloc, node, self._on_packet)

    # -- service model -------------------------------------------------------------
    def service_time(self, message):
        """Service time for one message; independent of table occupancy.

        A batched register pays the base (and jitter) once and the
        per-bit trie work once *per record* — the amortization the
        control-plane fast path exists for.
        """
        records = getattr(message, "records", None)
        if records:
            key_bits = sum(record.eid.bits for record in records)
        else:
            key_bits = 32
            eid = getattr(message, "eid", None)
            if eid is not None:
                key_bits = eid.bits
        jitter = self._rng.uniform(0, self.service_jitter_s)
        return self.base_service_s + self.per_bit_service_s * key_bits + jitter

    def _classify(self, message):
        """Admission priority class (only consulted on a bounded queue)."""
        if message.kind == MapRegister.kind:
            if message.refresh:
                # Periodic keepalive: the state it re-asserts is still
                # there; losing one costs nothing until the TTL sweep.
                return PRIO_BULK
            if message.records is None:
                return PRIO_CRITICAL if message.mobility else PRIO_NORMAL
            for record in message.records:
                if record.mobility:
                    return PRIO_CRITICAL
            return PRIO_NORMAL
        # Map-Requests (a user is waiting), unregisters, subscribes.
        return PRIO_CRITICAL

    def _enqueue(self, message, completion):
        """FIFO queue: compute when this message's processing finishes."""
        queue = self.queue
        if queue.bounded and not queue.admit(self._classify(message)):
            # Shed before the service-time draw: a dropped message is
            # never serviced, so it must not consume RNG state either.
            return
        wait = queue.backlog_s
        service = self.service_time(message)
        tracer = self.sim.tracer
        span = None
        if tracer.enabled:
            # The FIFO model knows both queue wait and service time at
            # enqueue time — stamp them on the span up front.
            span = tracer.span(
                "mapserver." + message.kind, device=self,
                parent=message.trace_ctx,
                queue_wait_s=wait, service_s=service,
                records=getattr(message, "record_count", 1),
            )
        queue.submit(service, self._complete, message, completion, span)
        if queue.depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = queue.depth

    def _on_stale_work(self, fn, args):
        # Queued before a crash: the process that owed this work is
        # gone (its queue state was reset with it).
        span = args[2] if len(args) > 2 else None
        if span is not None:
            span.finish(outcome="lost_in_crash")

    def _complete(self, message, completion, span=None):
        if span is not None:
            self._active_ctx = span.ctx
            try:
                completion(message)
            finally:
                self._active_ctx = None
                span.finish()
        else:
            completion(message)
        if self.on_processed is not None:
            self.on_processed(message, self.sim.now)

    @property
    def _queue_depth(self):
        """Back-compat alias (observability gauges read it)."""
        return self.queue.depth

    def _overloaded(self):
        """True while the bounded queue is past the backpressure bar."""
        return (self.queue.bounded
                and self.queue.pressure >= self.backpressure_threshold)

    # -- transport ---------------------------------------------------------------------
    def _on_packet(self, packet):
        message = packet.payload
        self.handle_message(message)

    def handle_message(self, message):
        """Entry point for all control messages (queued, then dispatched)."""
        if self.crashed:
            # In-flight packets can still arrive after the IGP withdrew
            # the announcement; a dead process answers nothing.
            self.stats.dropped_while_down += 1
            return
        handler = {
            MapRequest.kind: self._process_request,
            MapRegister.kind: self._process_register,
            MapUnregister.kind: self._process_unregister,
            SubscribeRequest.kind: self._process_subscribe,
        }.get(message.kind)
        if handler is None:
            raise ConfigurationError("routing server got %r" % message.kind)
        self._enqueue(message, handler)

    def _send(self, dst_rloc, message):
        if self.underlay is None or dst_rloc is None:
            return
        if self._active_ctx is not None:
            message.trace_ctx = self._active_ctx
        self.underlay.send(self.rloc, dst_rloc, control_packet(self.rloc, dst_rloc, message))

    # -- message processing --------------------------------------------------------------
    def _process_request(self, request):
        self.stats.requests += 1
        record = self.database.lookup(request.vn, request.eid)
        reply_record = record.copy() if record is not None else None
        if reply_record is None:
            self.stats.negative_replies += 1
        reply = MapReply(request.vn, request.eid, reply_record, nonce=request.nonce)
        self._send(request.reply_to, reply)

    def _process_register(self, register):
        """Apply a register message — single-record or batched.

        A batch is applied atomically within one service slot, record by
        record in submission order (so an in-band withdrawal cannot be
        reordered against the registration it supersedes), with exactly
        one version bump per record.  Fig. 5 notifies to previous edges
        are aggregated per edge, and the registrar — if it asked for an
        ack — gets a single Map-Notify carrying every committed record.
        """
        self.stats.registers += 1
        batched = register.records is not None
        if batched:
            self.stats.batched_registers += 1
        committed = []             # record copies for the aggregated ack
        pending_notifies = {}      # previous rloc -> [record copies]
        for eid_record in register.eid_records:
            eid = eid_record.eid
            if eid_record.withdraw:
                self.stats.unregisters += 1
                removed = self.database.unregister(
                    eid_record.vn, eid, eid_record.rloc
                )
                if removed is not None:
                    self._publish(eid_record.vn, eid, None)
                continue
            if eid_record.initiated_at is not None:
                # The away-anchor ordering guard, run where registrations
                # serialize (see EidRecord.initiated_at).
                current = self.database.lookup_exact(eid_record.vn, eid)
                if current is not None \
                        and current.rloc != eid_record.rloc \
                        and current.registered_at > eid_record.initiated_at:
                    self.stale_registers_skipped += 1
                    continue
            self.stats.register_records += 1
            record = MappingRecord(
                eid_record.vn, eid, eid_record.rloc, group=eid_record.group,
                mac=eid_record.mac,
                registered_at=self.sim.now,
                ttl=eid_record.ttl,
            )
            previous = self.database.register(record)
            moved = previous is not None and previous.rloc != eid_record.rloc
            if moved:
                self.stats.mobility_registers += 1
                # Fig. 5 step 2: tell the previous edge to pull the new
                # location and redirect in-flight traffic (aggregated
                # per previous edge when several records moved off it).
                pending_notifies.setdefault(previous.rloc, []).append(
                    record.copy()
                )
            if previous is None or moved:
                self._publish(eid_record.vn, eid, record)
            committed.append(record.copy())
        for previous_rloc, records in pending_notifies.items():
            self.stats.notifies_sent += 1
            if len(records) == 1:
                notify = MapNotify(records[0].vn, records[0].eid, records[0])
            else:
                notify = MapNotify(records=records)
            self._send(previous_rloc, notify)
        if register.registrar_rloc is not None and committed:
            # Proxied registration (fabric wireless): ack the registrar
            # with the committed record(s) so it can fan the
            # authoritative version out to edges holding stale state.
            # The register's nonce is echoed so the registrar can match
            # the ack to the exact registration instance (not just the
            # EID/RLOC pair).
            self.stats.registrar_acks += 1
            if not batched:
                ack = MapNotify(register.vn, register.eid, committed[0],
                                nonce=register.nonce)
            else:
                ack = MapNotify(records=committed, nonce=register.nonce)
            if self._overloaded():
                # In-band backpressure: tell the registrar to widen its
                # batch window / stretch its refresh period.
                ack.overloaded = True
                self.overload_signals += 1
            self._send(register.registrar_rloc, ack)

    def _process_unregister(self, unregister):
        self.stats.unregisters += 1
        removed = self.database.unregister(unregister.vn, unregister.eid, unregister.rloc)
        if removed is not None:
            self._publish(unregister.vn, unregister.eid, None)

    def _process_subscribe(self, subscribe):
        self._subscribers[subscribe.subscriber_rloc] = subscribe.vn
        # Initial full-state push so a late subscriber converges.
        for record in list(self.database.records(vn=subscribe.vn)):
            self.stats.publishes_sent += 1
            self._send(
                subscribe.subscriber_rloc,
                PublishUpdate(record.vn, record.eid, record.copy()),
            )

    def _publish(self, vn, eid, record):
        for subscriber_rloc, vn_filter in self._subscribers.items():
            if vn_filter is not None and int(vn_filter) != int(vn):
                continue
            self.stats.publishes_sent += 1
            payload = record.copy() if record is not None else None
            self._send(subscriber_rloc, PublishUpdate(vn, eid, payload))

    # -- crash / cold restart (chaos suite) -----------------------------------------------
    def crash(self):
        """The server process dies: volatile map state is gone.

        The mapping database, the pub/sub subscriber table and the FIFO
        queue are all process memory — a cold restart starts from
        nothing but configuration.  The only thing carried across is
        the per-EID version floor (:meth:`MappingDatabase
        .adopt_versions`), modelling the stable-storage version epoch
        real map-versioning needs: without it, every cache holding a
        pre-crash version would reject the fresher post-restart mapping
        as stale, forever.
        """
        if self.crashed:
            return
        self.crashed = True
        self.stats.crashes += 1
        fresh = MappingDatabase()
        fresh.adopt_versions(self.database)
        self.database = fresh
        self._subscribers = {}
        self.queue.reset()
        if self.underlay is not None:
            self.underlay.set_announced(self.rloc, False)

    def restart(self):
        """Cold restart: replay configuration, rejoin the IGP, serve.

        Learned state comes back only through recovery traffic — the
        borders' re-subscription and the edges'/registrars' registration
        refresh storm (the PR 3 batching pipeline absorbs it).
        """
        if not self.crashed:
            return
        self.crashed = False
        self.stats.restarts += 1
        for vn, prefix, rloc, ttl in self._config_delegates:
            record = MappingRecord(vn, prefix, rloc,
                                   registered_at=self.sim.now, ttl=ttl)
            self.database.register(record)
        if self.underlay is not None:
            self.underlay.set_announced(self.rloc, True)

    # -- registration TTL (soft state) ----------------------------------------------------
    def expire_stale_registrations(self, ttl_s=None):
        """Drop host registrations not refreshed within their TTL.

        ``ttl_s`` caps every record's own advisory TTL (the sweep knob
        chaos runs pair with the edges' registration refresh).  Only
        host routes expire — delegations and aggregates are
        configuration.  Returns the number of expired records.
        """
        now = self.sim.now
        expired = [
            record for record in self.database.records()
            if record.eid.is_host
            and record.registered_at
            + (record.ttl if ttl_s is None else min(record.ttl, ttl_s))
            <= now
        ]
        for record in expired:
            removed = self.database.unregister(record.vn, record.eid,
                                               record.rloc)
            if removed is not None:
                self.stats.expired_registrations += 1
                self._publish(record.vn, record.eid, None)
        return len(expired)

    def start_registration_sweep(self, interval_s, ttl_s=None):
        """Run :meth:`expire_stale_registrations` periodically (daemon)."""
        self.sim.schedule_daemon(interval_s, self._sweep_tick,
                                 interval_s, ttl_s)

    def _sweep_tick(self, interval_s, ttl_s):
        if not self.crashed:
            self.expire_stale_registrations(ttl_s)
        self.sim.schedule_daemon(interval_s, self._sweep_tick,
                                 interval_s, ttl_s)

    # -- direct API (setup & benchmarks) --------------------------------------------------
    def install_delegate(self, vn, prefix, rloc, ttl=None):
        """Delegate a coarse EID prefix to another device (multi-site).

        Any lookup under ``prefix`` without a more-specific registration
        resolves to ``rloc`` — in a multi-site fabric that is the local
        border, which owns transit-side resolution.  Installed at
        configuration time (not via the message queue) and pushed to
        pub/sub subscribers so borders learn their own delegation.
        """
        if prefix.is_host:
            raise ConfigurationError(
                "delegate prefix %s is a host route; delegation is for aggregates"
                % prefix
            )
        record = MappingRecord(vn, prefix, rloc, registered_at=self.sim.now,
                               ttl=ttl)
        self._config_delegates.append((record.vn, prefix, rloc, ttl))
        self.database.register(record)
        self._publish(record.vn, prefix, record)
        return record

    def preload(self, records):
        """Install mappings without simulation (experiment setup)."""
        for record in records:
            self.database.register(record)

    @property
    def route_count(self):
        return len(self.database)
