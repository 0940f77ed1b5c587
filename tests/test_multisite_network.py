"""Unit-level tests for the MultiSiteNetwork facade."""

import pytest

from repro.core.errors import ConfigurationError
from repro.lisp.messages import AwayRegister, AwayUnregister
from repro.multisite import MultiSiteConfig, MultiSiteNetwork, split_prefix
from repro.net.addresses import Prefix
from repro.policy.sxp import SxpBinding


@pytest.fixture
def duo():
    """Two sites, one VN, employees<->printers allowed."""
    net = MultiSiteNetwork(MultiSiteConfig(num_sites=2, edges_per_site=2, seed=11))
    net.define_vn("corp", 100, "10.4.0.0/16")
    net.define_group("employees", 1, 100)
    net.define_group("printers", 2, 100)
    net.allow("employees", "printers")
    net.settle()
    return net


def test_split_prefix_shapes():
    p = Prefix.parse("10.0.0.0/16")
    assert split_prefix(p, 1) == [p]
    quarters = split_prefix(p, 4)
    assert [str(q) for q in quarters] == [
        "10.0.0.0/18", "10.0.64.0/18", "10.0.128.0/18", "10.0.192.0/18"]
    # Non-power-of-two rounds the split up; pieces stay disjoint.
    thirds = split_prefix(p, 3)
    assert len(thirds) == 3
    assert len({str(t) for t in thirds}) == 3
    with pytest.raises(ConfigurationError):
        split_prefix(Prefix.parse("10.0.0.2/31"), 4)


def test_vn_definition_reaches_every_site_and_transit(duo):
    aggregates = duo.site_aggregates(100)
    assert [str(a) for a in aggregates] == ["10.4.0.0/17", "10.4.128.0/17"]
    # Transit learned exactly the two aggregates.
    records = list(duo.transit.database.records())
    assert sorted(str(r.eid) for r in records) == ["10.4.0.0/17", "10.4.128.0/17"]
    # Every site's routing servers delegate the whole VN to their border.
    for site in duo.sites:
        for server in site.routing_servers:
            record = server.database.lookup(100, Prefix.parse("10.4.200.1/32"))
            assert record is not None
            assert record.rloc == site.borders[0].rloc


def test_endpoints_lease_from_their_sites_aggregate(duo):
    a = duo.create_endpoint("a", "employees", 100)
    b = duo.create_endpoint("b", "employees", 100)
    duo.admit(a, 0)
    duo.admit(b, 1)
    duo.settle()
    assert duo.site_aggregates(100)[0].contains(a.ip)
    assert duo.site_aggregates(100)[1].contains(b.ip)
    assert duo.home_site_index(a) == 0
    assert duo.home_site_index(b) == 1
    # MAC blocks are disjoint across sites even for facade-minted devices.
    assert a.mac != b.mac


def test_cross_site_traffic_and_counters(duo):
    a = duo.create_endpoint("a", "employees", 100)
    p = duo.create_endpoint("p", "printers", 100)
    duo.admit(a, 0)
    duo.admit(p, 1)
    duo.settle()
    duo.send(a, p)
    duo.settle()
    assert p.packets_received == 1
    border0 = duo.transit_borders[0]
    border1 = duo.transit_borders[1]
    assert border0.counters.transit_reencapsulated == 1
    assert border0.counters.transit_requests_sent == 1
    assert border1.counters.transit_in == 1
    # Second packet rides the cached aggregate: no new transit request.
    duo.send(a, p)
    duo.settle()
    assert p.packets_received == 2
    assert border0.counters.transit_requests_sent == 1


def test_unknown_destination_drops_at_transit_granularity(duo):
    a = duo.create_endpoint("a", "employees", 100)
    duo.admit(a, 0)
    duo.settle()
    # In the remote site's aggregate but never onboarded anywhere.
    duo.send(a, Prefix.parse("10.4.128.77/32").address)
    duo.settle()
    assert duo.transit_borders[1].counters.transit_drops == 1


def test_unassigned_space_negative_cached_at_border():
    """Traffic to VN space no site owns must not melt the transit.

    With 3 sites the VN splits into four aggregates and the fourth is
    unassigned: the first packet triggers one transit request (negative),
    later packets die on the cached negative without new requests.
    """
    net = MultiSiteNetwork(MultiSiteConfig(num_sites=3, edges_per_site=2, seed=17))
    net.define_vn("corp", 100, "10.4.0.0/16")
    net.define_group("employees", 1, 100)
    net.allow("employees", "employees")
    a = net.create_endpoint("a", "employees", 100)
    net.admit(a, 0)
    net.settle()
    unassigned = Prefix.parse("10.4.192.9/32").address
    for _ in range(5):
        net.send(a, unassigned)
        net.settle()
    border = net.transit_borders[0]
    assert border.counters.transit_requests_sent == 1
    assert net.transit.stats.negative_replies == 1
    # all five dropped: one on the negative reply, four on the cache
    assert border.counters.transit_drops == 5


def test_duplicate_identity_rejected(duo):
    duo.create_endpoint("a", "employees", 100)
    with pytest.raises(ConfigurationError):
        duo.create_endpoint("a", "employees", 100)


def test_sxp_bindings_export_between_sites(duo):
    binding = SxpBinding(100, Prefix.parse("10.4.0.0/24"), 1)
    duo.sites[0].sxp.publish_binding(binding)
    # The remote site's speaker can classify with the exported binding.
    remote = duo.sites[1].sxp
    hit = remote.binding_for(100, Prefix.parse("10.4.0.9/32").address)
    assert hit is not None and int(hit.group) == 1
    assert duo.sites[0].sxp.export_updates_sent >= 1
    # Withdrawal propagates too, and does not echo back (split horizon).
    duo.sites[0].sxp.publish_binding(binding)
    assert duo.sites[0].sxp.withdraw_binding(100, binding.prefix)
    assert remote.binding_for(100, Prefix.parse("10.4.0.9/32").address) is None


def test_sxp_local_republish_reclaims_ownership(duo):
    """A local publish of a once-imported key exports again, and a stale
    remote withdrawal no longer tears down the local override."""
    site0, site1 = duo.sites[0].sxp, duo.sites[1].sxp
    original = SxpBinding(100, Prefix.parse("10.4.2.0/24"), 1)
    site0.publish_binding(original)
    # Operator overrides the classification at site 1.
    override = SxpBinding(100, Prefix.parse("10.4.2.0/24"), 2)
    site1.publish_binding(override)
    # The override propagated back to site 0 (ownership reclaimed).
    hit = site0.binding_for(100, Prefix.parse("10.4.2.9/32").address)
    assert hit is not None and int(hit.group) == 2
    # Site 0 withdrawing its long-gone original cannot delete the
    # override site 1 now owns.
    site0.withdraw_binding(100, original.prefix)
    hit = site1.binding_for(100, Prefix.parse("10.4.2.9/32").address)
    assert hit is not None and int(hit.group) == 2


def test_single_site_federation_stays_local():
    net = MultiSiteNetwork(MultiSiteConfig(num_sites=1, edges_per_site=2, seed=13))
    net.define_vn("corp", 100, "10.4.0.0/16")
    net.define_group("employees", 1, 100)
    net.allow("employees", "employees")
    a = net.create_endpoint("a", "employees", 100)
    b = net.create_endpoint("b", "employees", 100)
    net.admit(a, 0, 0)
    net.admit(b, 0, 1)
    net.settle()
    net.send(a, b)
    net.settle()
    assert b.packets_received == 1
    # Nothing crossed the transit.
    assert net.transit_borders[0].counters.transit_reencapsulated == 0
    assert net.transit.stats.requests == 0


def test_intra_site_roam_of_roamed_out_endpoint_sends_no_new_away(duo):
    """Regression for ROADMAP race (c): an endpoint that already roamed
    to a foreign site and then roams *within* that site must not re-send
    an AwayRegister — the home anchor already points at the foreign
    border, and the duplicate inflated the transit message metric."""
    a = duo.create_endpoint("a", "employees", 100)
    p = duo.create_endpoint("p", "printers", 100)
    duo.admit(a, 0, 0)
    duo.admit(p, 0, 1)
    duo.settle()

    duo.roam(a, 1, 0)   # cross-site: one away announcement
    duo.settle()
    border1 = duo.transit_borders[1]
    away_after_cross = border1.counters.away_announcements_sent
    assert away_after_cross >= 1
    assert duo.transit_borders[0].away_count() == 1

    duo.roam(a, 1, 1)   # intra-site roam inside the foreign site
    duo.settle()
    # No new away announcement, anchor intact and traffic still flows.
    assert border1.counters.away_announcements_sent == away_after_cross
    assert duo.transit_borders[0].away_count() == 1
    before = a.packets_received
    duo.send(p, a)
    duo.settle()
    assert a.packets_received == before + 1

    duo.roam(a, 0, 0)   # home again: the anchor withdrawal still works
    duo.settle()
    assert duo.transit_borders[0].away_count() == 0


def test_quick_away_and_back_roam_does_not_blackhole(duo):
    """Regression for ROADMAP race (a): an AwayRegister delayed behind
    transit resolution must not overwrite the fresher registration of an
    endpoint that already roamed back home — previously the late anchor
    install clobbered the home record and the follow-up AwayUnregister
    then deleted it, blackholing the endpoint."""
    a = duo.create_endpoint("a", "employees", 100)
    p = duo.create_endpoint("p", "printers", 100)
    duo.admit(a, 0, 0)
    duo.admit(p, 0, 1)
    duo.settle()

    # Roam to site 1 and back the instant the foreign attach completes —
    # while its AwayRegister is still stuck behind transit resolution.
    duo.roam(a, 1, 0, on_complete=lambda ep, ok: duo.roam(ep, 0, 0))
    duo.settle(max_time=120.0)

    # The endpoint is home: its host record points at the home edge,
    record = duo.sites[0].routing_server.database.lookup_exact(
        100, a.ip.to_prefix())
    assert record is not None
    assert record.rloc == duo.sites[0].edges[0].rloc
    # no anchor state lingers,
    assert duo.transit_borders[0].away_count() == 0
    # and traffic still reaches it.
    before = a.packets_received
    duo.send(p, a)
    duo.settle()
    assert a.packets_received == before + 1


def test_anchor_decided_on_a_lagging_synced_copy_loses_at_the_server(duo):
    """Regression for the seed-67 ``intersite_churn`` blackhole: the home
    border's ordering guard reads its pub/sub copy, which lags the map
    server.  An away announcement arriving just after the server
    committed the endpoint's fresher home registration — before the
    publish reached the border — used to anchor the EID anyway; the
    anchor register then overwrote the home record, and the release
    deleted it.  The server now runs the same guard on the anchor's
    ``initiated_at``."""
    a = duo.create_endpoint("a", "employees", 100)
    p = duo.create_endpoint("p", "printers", 100)
    duo.admit(a, 0, 0)
    duo.admit(p, 1, 0)
    duo.settle()
    home = duo.transit_borders[0]
    server = duo.sites[0].routing_server
    new_edge = duo.sites[0].edges[1]
    eid = a.ip.to_prefix()
    away_rloc = duo.transit_borders[1].transit_rloc
    # The endpoint roamed away now; the announcement is held up in the
    # transit while it roams straight back to another home edge.
    roamed_away_at = duo.sim.now
    away = AwayRegister(100, eid, away_rloc, group=a.group, mac=a.mac,
                        initiated_at=roamed_away_at)
    duo.run_for(0.001)

    def deliver_when_committed(message, _now):
        if message.kind == "map-register" and message.eid == eid \
                and message.rloc == new_edge.rloc:
            server.on_processed = None
            # The border's copy still shows the old home record.
            assert home.synced.lookup_exact(100, eid).rloc != new_edge.rloc
            home._handle_away_register(away)

    server.on_processed = deliver_when_committed
    duo.roam(a, 0, 1)
    duo.settle()
    assert server.on_processed is None, "announcement never delivered"
    assert server.stale_registers_skipped == 1
    # The foreign site's release follows; it finds no anchor record of
    # the border's to withdraw.
    home._handle_away_unregister(AwayUnregister(
        100, eid, away_rloc, initiated_at=duo.sim.now))
    duo.settle()
    record = server.database.lookup_exact(100, eid)
    assert record is not None and record.rloc == new_edge.rloc
    assert home.away_count() == 0
    before = a.packets_received
    duo.send(p, a, count=5)
    duo.settle()
    assert a.packets_received == before + 5


def test_rejected_cross_site_roam_rolls_back_location_state():
    """Regression for ROADMAP race (b): a rejected cross-site roam must
    roll back the facade's location/foreign-site bookkeeping and retract
    the home anchor, mirroring FabricWlc._withdraw — previously the
    anchor kept hairpinning into a site that no longer served the
    endpoint and the facade still claimed the old location."""
    net = MultiSiteNetwork(MultiSiteConfig(num_sites=3, edges_per_site=2,
                                           seed=11))
    net.define_vn("corp", 100, "10.8.0.0/16")
    net.define_group("employees", 1, 100)
    net.define_group("printers", 2, 100)
    net.allow("employees", "printers")
    a = net.create_endpoint("a", "employees", 100)
    p = net.create_endpoint("p", "printers", 100)
    net.admit(a, 0, 0)
    net.admit(p, 0, 1)
    net.settle()

    net.roam(a, 1, 0)
    net.settle()
    assert net.transit_borders[0].away_count() == 1

    # Site 2 rejects the roam (credentials disabled there only).
    net.sites[2].policy_server.disable("a")
    outcome = []
    net.roam(a, 2, 0, on_complete=lambda ep, ok: outcome.append(ok))
    net.settle()
    assert outcome == [False]

    # The facade no longer claims a location, the home anchor pointing
    # at site 1 was withdrawn, and no stale host record survives.
    assert net.site_of_endpoint(a) is None
    assert net.transit_borders[0].away_count() == 0
    assert net.sites[0].routing_server.database.lookup_exact(
        100, a.ip.to_prefix()) is None

    # A clean re-admission at home works end to end afterwards.
    net.admit(a, 0, 0)
    net.settle()
    before = a.packets_received
    net.send(p, a)
    net.settle()
    assert a.packets_received == before + 1
