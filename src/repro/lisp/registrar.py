"""The Map-Register client that edges, WLCs and borders share.

RFC 9301 specifies one register/notify client behaviour (the paper's
sec. 4.1 registration flow); :class:`Registrar` is that client for every
device that registers EIDs.  It fans each registration out to every
routing server, optionally batches records per server in a flush window
(withdrawals ride the same FIFO batch, so they cannot overtake a buffered
registration), asks ``ack_servers`` for Map-Notify acks, retries after
``RetryPolicy.delay_s``, gates retries behind a per-server circuit
breaker, and widens the flush window AIMD-style on overloaded acks.

What a retry resends is the owner's call: the timer fires the owner's
``resend(token, attempt)``, and the owner keeps its own pending table.
An edge pins whole messages as they leave (``track``) and resends what
its VRF still holds as one batch (:meth:`Registrar.resend`); the WLC
pins single records (``retry_key``) and re-registers them everywhere.
Counters go to the owner's ledger under the names it already has.
"""

from __future__ import annotations

from repro.core.batching import Batcher
from repro.core.breaker import CircuitBreaker
from repro.lisp.messages import EidRecord, MapRegister, MapUnregister, next_nonce


class Registrar:
    """One device's Map-Register client.

    ``send(dst_rloc, message)`` is the owner's transport and ``rloc``
    where acks come back to.  ``retry``/``breaker`` are the owner's
    :class:`repro.core.RetryPolicy`/:class:`repro.core.BreakerPolicy`,
    drawing jitter from the owner's seeded ``rng``.  ``counters`` is the
    owner's :class:`repro.core.counters.Counters` ledger; events it has
    no field for are not counted.  ``track(server, register)`` sees every
    ack-requesting message just before it is sent, and its retry is then
    armed with the message nonce as the token.  While ``halted()`` is
    true, batch flushes are dropped: the owner was reset and the records
    are from before.
    """

    def __init__(self, sim, rloc, send, servers=(), ack_servers=(),
                 batching=False, flush_s=2e-3, retry=None, rng=None,
                 resend=None, breaker=None, backpressure=False,
                 counters=None, track=None, halted=None):
        self.sim = sim
        self.rloc = rloc
        self._send = send
        self.servers = tuple(servers)
        self.ack_servers = tuple(ack_servers)
        self.batching = batching
        self.flush_s = flush_s
        self.retry = retry
        self._rng = rng
        self._resend = resend
        self.breaker_policy = breaker
        self.backpressure = backpressure
        self._counters = counters
        self._fields = frozenset(counters.FIELDS if counters else ())
        self._track = track
        self._halted = halted
        self.batchers = {}        # server rloc -> Batcher of EidRecord
        self._batch_nonce = {}    # server rloc -> nonce of the open batch
        self.breakers = {}        # server rloc -> CircuitBreaker
        #: AIMD flush-window multiplier (1.0 unless acks said overloaded)
        self.bp_factor = 1.0
        self.bp_max_factor = 8.0
        self.bp_overload_acks = 0
        self.breaker_deferrals = 0
        #: observability hook: Histogram wired onto every Batcher this
        #: registrar creates (None = off; see repro.obs.instrument)
        self.flush_hist = None

    def _count(self, *names):
        for name in names:
            if name in self._fields:
                setattr(self._counters, name,
                        getattr(self._counters, name) + 1)

    # ------------------------------------------------------------------ sending
    def register(self, record, trace_ctx=None, retry_key=None, attempt=0):
        """Register one record with every server; returns the first
        copy's nonce (a batch nonce when batched).

        ``retry_key`` arms a retry for the ack-requesting copy, with the
        token ``(retry_key, nonce)``.  A retry (``attempt`` > 0) is sent
        at once, never re-batched.  ``trace_ctx`` rides single-record
        messages only: a batch mixes records of many operations.
        """
        nonce = None
        for server in self.servers:
            key = retry_key if server in self.ack_servers else None
            if self.batching and not attempt:
                sent = self._submit(server, record, key)
            else:
                sent = self._send_one(server, record, trace_ctx, key, attempt)
            if nonce is None:
                nonce = sent
        return nonce

    def withdraw(self, vn, eid, rloc, trace_ctx=None):
        """Withdraw (VN, EID) from every server while it points at ``rloc``."""
        for server in self.servers:
            self._count("unregisters_sent")
            if self.batching:
                # In-band: the record rides the same FIFO batch as any
                # still-buffered registration, so the server can never
                # apply them out of order.
                self._submit(server, EidRecord(vn, eid, rloc, withdraw=True),
                             None)
                continue
            unregister = MapUnregister(vn, eid, rloc)
            unregister.trace_ctx = trace_ctx
            self._send(server, unregister)

    def resend(self, server, records, attempt):
        """Resend ``records`` as one acked batch to one server (retry)."""
        self._emit(server, MapRegister(records=records,
                                       registrar_rloc=self.rloc), attempt)

    def _send_one(self, server, record, trace_ctx, retry_key, attempt):
        register = MapRegister(
            record.vn, record.eid, record.rloc, record.group, mac=record.mac,
            mobility=record.mobility, refresh=record.refresh,
            initiated_at=record.initiated_at,
            registrar_rloc=self.rloc if server in self.ack_servers else None,
        )
        register.trace_ctx = trace_ctx
        if retry_key is not None:
            self.arm((retry_key, register.nonce), attempt)
        self._emit(server, register, attempt)
        return register.nonce

    def _submit(self, server, record, retry_key):
        batcher = self.batchers.get(server)
        if batcher is None:
            batcher = Batcher(
                self.sim,
                lambda records, server=server: self._flush(server, records),
                window_s=self.flush_s * self.bp_factor,
            )
            batcher.flush_hist = self.flush_hist
            self.batchers[server] = batcher
        if batcher.pending == 0:
            self._batch_nonce[server] = next_nonce()
        # Capture before submit(): a synchronous flush (max_items, or an
        # explicit flush_now) pops the open-batch nonce.
        nonce = self._batch_nonce[server]
        batcher.submit(record)
        if not record.withdraw:
            self._count("register_records_sent")
        if retry_key is not None:
            self.arm((retry_key, nonce), 0)
        return nonce

    def _flush(self, server, records):
        if self._halted is not None and self._halted():
            return  # the owner was reset; these records are from before
        # A withdrawal-only batch stays unacked: the server only acks
        # committed registrations, and guarded withdrawals are
        # idempotent — a lost one is repaired by the TTL sweep.
        acked = (server in self.ack_servers
                 and any(not record.withdraw for record in records))
        register = MapRegister(
            records=records,
            registrar_rloc=self.rloc if acked else None,
            nonce=self._batch_nonce.pop(server, None),
        )
        self._count("register_batches_sent")
        self._emit(server, register, 0)

    def _emit(self, server, register, attempt):
        # The edge's ledger calls a sent register map_registers_sent,
        # the WLC's registers_sent.
        self._count("map_registers_sent", "registers_sent")
        if register.registrar_rloc is not None and self._track is not None:
            self._track(server, register)
            self.arm(register.nonce, attempt)
        self._send(server, register)

    # ------------------------------------------------------------------ retries
    def arm(self, token, attempt):
        """Schedule ``resend(token, attempt)`` after the backoff delay."""
        if self.retry is not None:
            self.sim.schedule(self.retry.delay_s(attempt, self._rng),
                              self._resend, token, attempt)

    def exhausted(self, attempt):
        """True (and counted) once ``attempt`` retries have been spent."""
        if not self.retry.exhausted(attempt):
            return False
        self._count("register_retry_exhausted")
        return True

    def admit_retry(self, server, token, attempt):
        """May a due retry to ``server`` go out now?

        A due retry is a failure on the server's breaker.  While it is
        open the retry is deferred to the half-open probe, keeping its
        attempt, so retriers cannot storm a dead or drowning server.
        """
        if self.breaker_policy is not None:
            breaker = self.breaker(server)
            breaker.record_failure()
            if not breaker.allow():
                self.breaker_deferrals += 1
                self.sim.schedule(
                    max(breaker.remaining_s, self.retry.base_s),
                    self._resend, token, attempt,
                )
                return False
        self._count("register_retries_sent")
        return True

    def breaker(self, server):
        """The circuit breaker guarding retries to ``server``."""
        breaker = self.breakers.get(server)
        if breaker is None:
            breaker = CircuitBreaker(self.sim, self.breaker_policy,
                                     rng=self._rng)
            self.breakers[server] = breaker
        return breaker

    # ------------------------------------------------------------------ acks
    def acked(self, server, overloaded):
        """An ack from ``server`` closes its breaker; with backpressure,
        an overloaded ack doubles the flush window and a clean one
        halves it, within 1x..``bp_max_factor``."""
        if self.breaker_policy is not None:
            self.breaker(server).record_success()
        if not self.backpressure:
            return
        factor = self.bp_factor
        if overloaded:
            self.bp_overload_acks += 1
            factor = min(self.bp_max_factor, factor * 2.0)
        else:
            factor = max(1.0, factor * 0.5)
        if factor != self.bp_factor:
            self.bp_factor = factor
            for batcher in self.batchers.values():
                batcher.window_s = self.flush_s * factor

    def reset(self):
        """Owner reboot: drop open batches, breakers and backpressure."""
        self.breakers = {}
        self.bp_factor = 1.0
        for batcher in self.batchers.values():
            batcher.discard()
            batcher.window_s = self.flush_s
