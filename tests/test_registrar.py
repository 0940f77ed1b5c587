"""Unit tests for the shared Map-Register client (repro.lisp.registrar)."""

import pytest

from repro import obs
from repro.core.breaker import BreakerPolicy
from repro.core.counters import Counters
from repro.core.retry import RetryPolicy
from repro.fabric import FabricConfig, FabricNetwork
from repro.lisp import EidRecord, MapRegister
from repro.lisp.registrar import Registrar
from repro.net.addresses import IPv4Address, Prefix
from repro.wireless import WirelessConfig, WirelessFabric

OWN = IPv4Address.parse("192.168.50.1")
SERVER_A = IPv4Address.parse("192.168.60.1")
SERVER_B = IPv4Address.parse("192.168.60.2")


class _Ledger(Counters):
    FIELDS = ("registers_sent", "register_records_sent",
              "register_batches_sent", "register_retries_sent")


def _record(host=5):
    return EidRecord(100, Prefix.parse("10.9.0.%d/32" % host), OWN, group=1)


def _registrar(sim, sent, **kwargs):
    kwargs.setdefault("servers", (SERVER_A,))
    kwargs.setdefault("ack_servers", kwargs["servers"][:1])
    kwargs.setdefault("counters", _Ledger())
    return Registrar(sim, OWN, lambda dst, msg: sent.append((dst, msg)),
                     **kwargs)


def test_batch_nonce_survives_a_synchronous_flush(sim):
    sent = []
    registrar = _registrar(sim, sent, batching=True)
    nonce = registrar.register(_record(5))
    # The nonce is minted when the batch opens, so it is known before
    # any message exists...
    assert sent == []
    assert registrar.register(_record(6)) == nonce
    # ...and a flush forced from outside the flush timer still sends
    # the batch under it.
    registrar.batchers[SERVER_A].flush_now()
    assert len(sent) == 1
    dst, register = sent[0]
    assert dst == SERVER_A and register.nonce == nonce
    assert register.record_count == 2
    assert register.registrar_rloc == OWN
    # A batch that flushes inside submit() (max_items) keeps its nonce
    # too: it was captured before the flush popped it.
    registrar.batchers[SERVER_A].max_items = 1
    nonce = registrar.register(_record(7))
    assert sent[-1][1].nonce == nonce
    sim.run()
    assert len(sent) == 2


def test_backpressure_factor_is_bounded_and_drives_the_window(sim):
    sent = []
    registrar = _registrar(sim, sent, batching=True, flush_s=1e-3,
                           backpressure=True)
    registrar.register(_record())          # opens the server's batcher
    batcher = registrar.batchers[SERVER_A]
    factors = []
    for overloaded in [True] * 5 + [False] * 5:
        registrar.acked(SERVER_A, overloaded)
        factors.append(registrar.bp_factor)
        assert batcher.window_s == registrar.flush_s * registrar.bp_factor
    assert factors == [2.0, 4.0, 8.0, 8.0, 8.0, 4.0, 2.0, 1.0, 1.0, 1.0]
    assert registrar.bp_overload_acks == 5
    # A batcher opened while the factor is up starts with the wide window.
    registrar.acked(SERVER_A, True)
    registrar.servers = (SERVER_A, SERVER_B)
    registrar.register(_record(8))
    assert registrar.batchers[SERVER_B].window_s == 2e-3


def test_backpressure_off_ignores_the_overloaded_bit(sim):
    registrar = _registrar(sim, [], batching=True)
    registrar.acked(SERVER_A, True)
    assert registrar.bp_factor == 1.0
    assert registrar.bp_overload_acks == 0


def test_breaker_deferral_keeps_the_attempt(sim):
    due = []
    ledger = _Ledger()
    retry = RetryPolicy(base_s=0.1, max_attempts=3, jitter=0.0)
    registrar = _registrar(
        sim, [], retry=retry, counters=ledger,
        breaker=BreakerPolicy(failure_threshold=1, reset_timeout_s=0.5,
                              jitter=0.0),
        resend=lambda token, attempt: due.append((sim.now, token, attempt)),
    )
    # First due retry trips the (threshold-1) breaker: deferred, and the
    # re-check arrives with the same attempt once the breaker half-opens.
    assert not registrar.admit_retry(SERVER_A, "tok", 2)
    assert registrar.breaker_deferrals == 1
    assert registrar.breaker(SERVER_A).opens == 1
    sim.run()
    assert due == [(0.5, "tok", 2)]
    # The half-open probe is admitted and counted as a retry.
    assert registrar.admit_retry(SERVER_A, "tok", 2)
    assert ledger.register_retries_sent == 1
    assert not registrar.exhausted(2)
    assert registrar.exhausted(3)


def test_reset_discards_the_open_batch_and_restores_the_window(sim):
    sent = []
    registrar = _registrar(
        sim, sent, batching=True, backpressure=True,
        breaker=BreakerPolicy(jitter=0.0),
    )
    registrar.register(_record(5))
    registrar.acked(SERVER_A, True)
    registrar.breaker(SERVER_A).record_failure()
    batcher = registrar.batchers[SERVER_A]
    assert batcher.pending == 1 and batcher.window_s == 4e-3
    registrar.reset()
    assert batcher.pending == 0
    assert batcher.window_s == registrar.flush_s
    assert registrar.bp_factor == 1.0
    assert registrar.breakers == {}
    sim.run()
    assert sent == []                       # the discarded batch never flushes
    # The next batch opens under a fresh nonce and flushes normally.
    nonce = registrar.register(_record(6))
    sim.run()
    assert [msg.nonce for _, msg in sent] == [nonce]


def test_ack_scope_and_counters(sim):
    sent = []
    ledger = _Ledger()
    registrar = _registrar(sim, sent, servers=(SERVER_A, SERVER_B),
                           counters=ledger)
    registrar.register(_record(5))
    registrar.withdraw(100, Prefix.parse("10.9.0.5/32"), OWN)
    registers = [(dst, msg) for dst, msg in sent if isinstance(msg, MapRegister)]
    assert [(dst, msg.registrar_rloc) for dst, msg in registers] == [
        (SERVER_A, OWN), (SERVER_B, None)]
    assert [msg.kind for _, msg in sent[2:]] == ["map-unregister"] * 2
    assert ledger.registers_sent == 2
    assert ledger.register_records_sent == 0      # batched only
    # A withdraw-only batch never asks for an ack.
    ledger = _Ledger()
    batched = _registrar(sim, sent, batching=True, counters=ledger)
    batched.withdraw(100, Prefix.parse("10.9.0.5/32"), OWN)
    sim.run()
    assert sent[-1][1].registrar_rloc is None
    assert ledger.register_batches_sent == 1
    assert ledger.register_records_sent == 0


# ------------------------------------------------------------------ owners
# With two routing servers, the edge and the WLC differ in which copies
# ask for an ack and in what a retry resends.

RETRY = RetryPolicy(base_s=0.05, multiplier=2.0, max_delay_s=0.2,
                    max_attempts=6, jitter=0.0)


def _two_server_fabric(batching=False, register_retry=None, wireless=False):
    net = FabricNetwork(FabricConfig(
        num_edges=2, num_routing_servers=2, seed=5, batching=batching,
        register_retry=register_retry,
    ))
    wifi = None
    if wireless:
        wifi = WirelessFabric(net, WirelessConfig(
            batching=batching, register_retry=register_retry))
    net.define_vn("corp", 100, "10.30.0.0/16")
    net.define_group("users", 1, 100)
    registers = {index: [] for index in range(2)}
    for index, server in enumerate(net.routing_servers):
        server.on_processed = (
            lambda message, _now, log=registers[index]:
                log.append(message) if message.kind == "map-register" else None)
    return net, wifi, registers


@pytest.mark.parametrize("batching", [False, True])
@pytest.mark.parametrize("register_retry", [None, RETRY])
def test_edge_asks_every_server_for_an_ack_only_with_retry(batching,
                                                          register_retry):
    net, _, registers = _two_server_fabric(batching, register_retry)
    edge = net.edges[0]
    net.admit(net.create_endpoint("ep", "users", 100), 0)
    net.settle()
    expected = edge.rloc if register_retry else None
    for log in registers.values():
        assert log and all(m.registrar_rloc == expected for m in log)
    acks = edge.counters.register_acks_received
    assert acks == (sum(len(log) for log in registers.values())
                    if register_retry else 0)


@pytest.mark.parametrize("batching", [False, True])
def test_edge_retry_resends_one_batch_to_the_silent_server(batching):
    net, _, registers = _two_server_fabric(batching, RETRY)
    edge = net.edges[0]
    net.crash_routing_server(1)
    net.admit(net.create_endpoint("ep", "users", 100), 0)
    net.run_for(0.3)
    first_copies = list(registers[0])
    net.restart_routing_server(1)
    net.settle()
    assert edge.counters.register_retries_sent >= 1
    # The server that acked never sees a retry...
    assert registers[0] == first_copies
    # ...the silent one gets the still-local records back as acked
    # batch-form messages, one per unacked original.
    assert registers[1]
    for retry in registers[1]:
        assert retry.records is not None
        assert retry.registrar_rloc == edge.rloc
    records = [r for m in registers[1] for r in m.records]
    assert sorted(str(r.eid) for r in records) == sorted(
        str(r.eid) for m in first_copies for r in m.eid_records)


@pytest.mark.parametrize("batching", [False, True])
@pytest.mark.parametrize("register_retry", [None, RETRY])
def test_wlc_asks_only_the_first_server_for_an_ack(batching, register_retry):
    net, wifi, registers = _two_server_fabric(batching, register_retry,
                                              wireless=True)
    sta = wifi.create_station("sta", "users", 100)
    wifi.associate(sta, 0)
    net.settle()
    wlc = wifi.wlc
    assert registers[0] and registers[1]
    assert all(m.registrar_rloc == wlc.rloc for m in registers[0])
    assert all(m.registrar_rloc is None for m in registers[1])
    # One ack per EID (IPv4 + MAC), both from the first server.
    assert wlc.stats.registrar_acks_received == 2
    assert len(wlc.registration_delays) == 1


@pytest.mark.parametrize("batching", [False, True])
def test_wlc_retry_reregisters_each_eid_to_every_server(batching):
    net, wifi, registers = _two_server_fabric(batching, RETRY, wireless=True)
    wlc = wifi.wlc
    net.crash_routing_server(0)
    sta = wifi.create_station("sta", "users", 100)
    wifi.associate(sta, 0)
    net.run_for(0.3)
    originals = len(registers[1])
    net.restart_routing_server(0)
    net.settle()
    assert wlc.stats.register_retries_sent >= 1
    # Retries are single-record registers from the registered edge,
    # never re-batched, fanned out to both servers with the ack
    # requested from the first only.
    retries = registers[1][originals:]
    assert retries and all(m.records is None for m in retries)
    assert all(m.rloc == net.edges[0].rloc for m in retries)
    assert all(m.registrar_rloc is None for m in retries)
    acked = [m for m in registers[0] if m.records is None]
    assert acked and all(m.registrar_rloc == wlc.rloc for m in acked)
    assert sorted(str(m.eid) for m in acked) == sorted(
        str(m.eid) for m in retries)
    assert wlc.stats.registrar_acks_received == 2
    assert len(wlc.registration_delays) == 1


def test_edge_register_batches_are_instrumented():
    net = FabricNetwork(FabricConfig(num_edges=2, batching=True))
    bundle = obs.enable(net, tracing=False, metrics=True)
    net.define_vn("corp", 100, "10.30.0.0/16")
    net.define_group("users", 1, 100)
    net.admit(net.create_endpoint("ep", "users", 100), 0)
    net.settle()
    snapshot = bundle.metrics.snapshot()
    edge = net.edges[0].name
    assert snapshot["gauges"][edge + ".batch_backlog"] == 0
    # One flushed batch carrying the endpoint's three EIDs.
    hist = snapshot["histograms"][edge + ".register_batch"]
    assert hist["count"] == 1 and hist["total"] == 3
