"""Per-layer host-time attribution for the traced benchmark run.

The tracer patches timing wrappers, from the benchmark's own files,
around the public entry points of every ``repro`` layer package.  Each
wrapper is one span.  A span's self time is its duration minus the time
of the wrapped spans it encloses; work in unwrapped callees stays with
the nearest wrapped caller.  So ``IPv4Address.__eq__`` called from
``PolicyServer.groups_at`` is charged to ``policy``, not to ``net``.

Work handed from one layer to another for later execution is wrapped at
the hand-off, with the span of the layer that owns the callable:

* every simulator event (``EventQueue.push``) — the event fires inside a
  span of its callback's layer, and carries the op id that was current
  when it was scheduled, so all spans caused by one roam or one flow
  share that op's id;
* work queued on a ``SerialQueue`` and a ``Batcher``'s flush callback;
* the delivery callback a device registers with ``UnderlayNetwork``.

The layer of a callable is the package of its defining module; for a
bound method it is the package of the instance's class, so an inherited
``RoutingServer`` method running on the transit control plane is
charged to ``multisite``.  Code outside ``repro`` (the benchmark's own
load generator) is the ``workloads`` layer, as is ``repro.workloads``; any
other ``repro`` package (``obs``, ``stats`` ...) is ``other``.

Aggregates (self time, call counts) are exact over every span.  Full
span records — op id, span id, parent span id, layer, entry point,
start, end — are kept in memory for sampled ops only (op id divisible
by ``sample_every``) and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

#: reported layers, in table order
LAYERS = ("sim", "net", "fabric", "lisp", "policy", "underlay", "wireless",
          "multisite", "core", "workloads", "other")
_INDEX = {name: index for index, name in enumerate(LAYERS)}
_WORKLOADS = _INDEX["workloads"]
_OTHER = _INDEX["other"]

#: public entry points wrapped per layer: (layer, module, class, methods);
#: a methods value of ``None`` means every public function of the class,
#: a class of ``None`` means module-level functions (patched wherever a
#: loaded ``repro`` module imported them by name).
#: ``EventQueue.push``, ``SerialQueue.submit`` and ``UnderlayNetwork.attach``
#: are wrapped as hand-offs (see ``LayerTracer._install_handoffs``).
ENTRY_POINTS = (
    ("sim", "repro.sim.simulator", "Simulator", ("run",)),
    ("sim", "repro.sim.events", "EventQueue", ("pop",)),
    ("net", "repro.net.trie", "PatriciaTrie", None),
    ("net", "repro.net.fastpath", "MegaflowCache", None),
    ("net", "repro.net.vxlan", "EncapTemplate", ("apply",)),
    ("net", "repro.net.vxlan", None, ("encapsulate", "decapsulate")),
    ("net", "repro.net.packet", None, ("make_udp_packet",)),
    ("fabric", "repro.fabric.network", "FabricNetwork", ("send",)),
    ("fabric", "repro.fabric.edge", "EdgeRouter",
     ("inject_from_endpoint", "receive_from_ap")),
    ("fabric", "repro.fabric.vrf", "VrfTable", None),
    ("lisp", "repro.lisp.mapcache", "MapCache", None),
    ("lisp", "repro.lisp.mapserver", "RoutingServer", ("handle_message",)),
    ("policy", "repro.policy.server", "PolicyServer",
     ("authenticate", "groups_at")),
    ("policy", "repro.policy.acl", "GroupAcl", ("evaluate",)),
    ("underlay", "repro.underlay.network", "UnderlayNetwork", ("send",)),
    ("wireless", "repro.wireless.ap", "FabricAp", None),
    ("wireless", "repro.wireless.wlc", "FabricWlc", ("on_associate",)),
    ("wireless", "repro.wireless.deployment", "WirelessFabric",
     ("associate",)),
    ("wireless", "repro.wireless.deployment", "MultiSiteWireless",
     ("associate",)),
    ("core", "repro.core.batching", "Batcher", ("submit", "flush_now")),
    ("multisite", "repro.multisite.network", "MultiSiteNetwork",
     ("send", "roam")),
    ("multisite", "repro.multisite.transit", "TransitControlPlane", None),
    # The transit control plane's inherited message entry point is
    # multisite work, not lisp work.
    ("multisite", "repro.multisite.transit", "TransitControlPlane",
     ("handle_message",)),
)

#: classes whose instances are collected (for counter deltas)
TRACKED = (
    ("repro.net.fastpath", "MegaflowCache"),
    ("repro.lisp.mapcache", "MapCache"),
    ("repro.policy.server", "PolicyServer"),
    ("repro.wireless.wlc", "FabricWlc"),
    ("repro.core.queueing", "SerialQueue"),
    ("repro.core.batching", "Batcher"),
)

#: counter name -> (tracked class, public counter read off each instance)
COUNTERS = {
    "megaflow_hits": ("MegaflowCache", lambda o: o.hits),
    "megaflow_misses": ("MegaflowCache", lambda o: o.misses),
    "megaflow_flushes": ("MegaflowCache", lambda o: o.flushes),
    "mapcache_hits": ("MapCache", lambda o: o.hits),
    "mapcache_misses": ("MapCache", lambda o: o.misses),
    "auths": ("PolicyServer", lambda o: o.auth_accepts + o.auth_rejects),
    "auth_cache_hits": ("PolicyServer", lambda o: o.auth_cache_hits),
    "auth_cache_misses": ("PolicyServer", lambda o: o.auth_cache_misses),
    "wlc_registers": ("FabricWlc", lambda o: o.stats.registers_sent),
    "queue_sheds": ("SerialQueue", lambda o: o.shed_total),
    "batch_records": ("Batcher", lambda o: o.items_submitted),
    "batch_flushes": ("Batcher", lambda o: o.batches_flushed),
}


def layer_of_module(module):
    """Layer index for a module name."""
    if not module or not module.startswith("repro."):
        return _WORKLOADS
    package = module.split(".", 2)[1]
    return _INDEX.get(package, _OTHER)


def layer_of_callable(fn):
    """Layer index owning a callable (bound methods: the instance's class)."""
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, type):
        module = type(owner).__module__
    else:
        module = getattr(fn, "__module__", None)
    return layer_of_module(module)


def _import(module):
    return __import__(module, fromlist=["_"])


class LayerTracer:
    """Stack-based self-time accounting over patched entry points."""

    def __init__(self, sample_every=1, max_spans=200_000,
                 clock=time.perf_counter):
        self.clock = clock
        self.sample_every = max(1, int(sample_every))
        self.max_spans = max_spans
        #: the op id charged for spans started now (0 = no op)
        self.op = 0
        self.names = []                  # entry point names, by index
        self._name_index = {}
        self._patches = []               # (owner, attr, original)
        self._stack = []                 # open frames: [child s, span id]
        #: wrapper cost per span, by kind (plain, hand-off); see calibrate
        self.bias_in = [0.0, 0.0]
        self.bias_out = [0.0, 0.0]
        #: cost of wrapping one hand-off; see calibrate and handed_off
        self.bias_handoff = 0.0
        #: hand-off callable key -> (layer, name index); see deferred
        self._handoffs = {}
        self.instances = {cls: [] for _module, cls in TRACKED}
        self.reset()

    # ------------------------------------------------------------------ accounting
    def reset(self):
        """Drop aggregates and spans (call between phases, at top level)."""
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.entry_calls = {}
        self.spans = []
        self.spans_dropped = 0
        #: (queue owner layer, sim wait seconds) per SerialQueue submit
        self.queue_waits = []
        #: duration of top-level spans (called by the load generator itself)
        self.top_s = 0.0
        self._next_span = 1
        self._started = self.clock()
        self._baseline = self.counter_totals()

    def counter_totals(self):
        """Current sums of :data:`COUNTERS` over the tracked instances."""
        return {
            name: sum(read(obj) for obj in self.instances[cls])
            for name, (cls, read) in COUNTERS.items()
        }

    def counter_deltas(self):
        """Counter increments since :meth:`reset`."""
        now = self.counter_totals()
        return {name: now[name] - self._baseline[name] for name in now}

    def _name(self, name):
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def span(self, fn, layer, name):
        """Wrap ``fn`` so every call is one span of ``layer``."""
        wrapper = functools.wraps(fn)(
            self._wrapper(fn, layer, self._name(name), None))
        wrapper.__wrapped_layer__ = layer
        return wrapper

    def deferred(self, fn, op):
        """Wrap a callable handed off for later: a span of its owner's
        layer, run under the op id current at hand-off time.

        This runs for every simulator event, so the layer and name are
        cached per method (or code object) and the wrapper is a bare
        closure; what it still costs is excluded by :meth:`handed_off`.
        """
        owner = getattr(fn, "__self__", None)
        if owner is None:
            key = getattr(fn, "__code__", fn)
        else:
            key = (owner if isinstance(owner, type) else type(owner),
                   getattr(fn, "__name__", None))
        meta = self._handoffs.get(key)
        if meta is None:
            meta = self._handoffs[key] = (layer_of_callable(fn),
                                          self._name(_qualname(fn)))
        return self._wrapper(fn, meta[0], meta[1], op)

    def handed_off(self):
        """Charge the calibrated cost of one :meth:`deferred` call to no
        layer; call it inside the span that made the hand-off."""
        self._stack[-1][0] += self.bias_handoff

    def _wrapper(self, fn, layer, name_index, op):
        """A span of ``layer`` around ``fn``; with ``op`` given (a
        hand-off), the call also runs as that op."""
        clock = self.clock
        stack = self._stack
        tracer = self

        if op is None:
            def wrapper(*args, **kwargs):
                frame = [0.0, tracer._next_span]
                tracer._next_span += 1
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    tracer._close(frame, layer, name_index, start, end, 0)
        else:
            def wrapper(*args, **kwargs):
                saved = tracer.op
                tracer.op = op
                frame = [0.0, tracer._next_span]
                tracer._next_span += 1
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    tracer._close(frame, layer, name_index, start, end, 1)
                    tracer.op = saved
        return wrapper

    def _close(self, frame, layer, name_index, start, end, kind):
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[layer] += duration - frame[0] - self.bias_in[kind]
        self.calls[layer] += 1
        entry = self.entry_calls
        entry[name_index] = entry.get(name_index, 0) + 1
        parent = 0
        if stack:
            top = stack[-1]
            top[0] += duration + self.bias_out[kind]
            parent = top[1]
        else:
            self.top_s += duration + self.bias_out[kind]
        op = self.op
        if op and op % self.sample_every == 0:
            if len(self.spans) < self.max_spans:
                self.spans.append((op, frame[1], parent, layer, name_index,
                                   start, end))
            else:
                self.spans_dropped += 1

    def calibrate(self, calls=100_000, repeats=5):
        """Measure the wrappers' own cost, so it is charged to no layer.

        ``bias_in`` is the part of a span's measured duration that is the
        wrapper itself; ``bias_out`` is the wrapper cost its caller sees
        outside the span.  Both are medians over ``repeats`` loops of
        ``calls`` wrapped no-op calls, per wrapper kind (plain, hand-off).
        ``bias_handoff`` is the median cost of one :meth:`deferred` and
        :meth:`handed_off` pair on a bound method, beyond making the
        bound method.
        """
        clock = self.clock

        def noop():
            return None

        def loop_time(fn):
            started = clock()
            for _ in range(calls):
                fn()
            return clock() - started

        started = clock()
        for _ in range(calls):
            pass
        empty = clock() - started
        bare = loop_time(noop) - empty
        name_index = self._name("calibration")
        for kind, op in ((0, None), (1, 0)):
            wrapped = self._wrapper(noop, _OTHER, name_index, op)
            inside, outside = [], []
            for _ in range(repeats):
                frame = [0.0, 0]
                self._stack.append(frame)
                total = loop_time(wrapped) - empty
                self._stack.pop()
                inside.append((frame[0] - bare) / calls)
                outside.append((total - frame[0]) / calls)
            self.bias_in[kind] = max(0.0, statistics.median(inside))
            self.bias_out[kind] = max(0.0, statistics.median(outside))

        probe = _Probe()

        def bind():
            return probe.noop

        def handoff():
            wrapped = self.deferred(probe.noop, 0)
            self.handed_off()
            return wrapped

        self._stack.append([0.0, 0])
        costs = [(loop_time(handoff) - loop_time(bind)) / calls
                 for _ in range(repeats)]
        self._stack.pop()
        self.bias_handoff = max(0.0, statistics.median(costs))
        self.reset()

    # ------------------------------------------------------------------ install
    def install(self):
        """Patch every entry point and hand-off; returns missing targets."""
        missing = []
        for layer_name, module, cls_name, methods in ENTRY_POINTS:
            if cls_name is None:
                missing.extend(self._install_functions(
                    _INDEX[layer_name], module, methods))
                continue
            cls = getattr(_import(module), cls_name, None)
            if cls is None:
                missing.append("%s.%s" % (module, cls_name))
                continue
            layer = _INDEX[layer_name]
            names = methods or [
                attr for attr, value in vars(cls).items()
                if callable(value) and not attr.startswith("_")
                and not isinstance(value, (staticmethod, classmethod, type))
            ]
            for attr in names:
                original = getattr(cls, attr, None)
                if original is None or not callable(original):
                    missing.append("%s.%s" % (cls_name, attr))
                    continue
                # A subclass re-wrapping an inherited entry point takes
                # the span over instead of nesting inside the parent's.
                if hasattr(original, "__wrapped_layer__"):
                    original = original.__wrapped__
                self._patch(cls, attr, self.span(
                    original, layer, "%s.%s" % (cls_name, attr)))
        self._install_handoffs()
        for module, cls_name in TRACKED:
            cls = getattr(_import(module), cls_name, None)
            if cls is None:
                missing.append("%s.%s" % (module, cls_name))
                continue
            self._track(cls, self.instances[cls_name])
        return missing

    def _install_functions(self, layer, module, names):
        missing = []
        home = _import(module)
        for name in names:
            original = getattr(home, name, None)
            if original is None:
                missing.append("%s.%s" % (module, name))
                continue
            wrapper = self.span(original, layer, name)
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and vars(loaded).get(name) is original):
                    self._patch(loaded, name, wrapper)
        return missing

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def _install_handoffs(self):
        tracer = self
        sim_layer = _INDEX["sim"]
        core_layer = _INDEX["core"]
        underlay_layer = _INDEX["underlay"]

        events = _import("repro.sim.events").EventQueue
        push = events.push

        def traced_push(queue, time_, callback, args=(), daemon=False):
            wrapped = tracer.deferred(callback, tracer.op)
            tracer.handed_off()
            return push(queue, time_, wrapped, args, daemon)

        self._patch(events, "push",
                    self.span(traced_push, sim_layer, "EventQueue.push"))

        serial = _import("repro.core.queueing").SerialQueue
        submit = serial.__dict__["submit"]

        def traced_submit(queue, service_s, fn, *args):
            now = queue.sim.now
            wrapped = tracer.deferred(fn, tracer.op)
            tracer.handed_off()
            event = submit(queue, service_s, wrapped, *args)
            tracer.queue_waits.append((layer_of_callable(fn),
                                       event.time - service_s - now))
            return event

        self._patch(serial, "submit",
                    self.span(traced_submit, core_layer, "SerialQueue.submit"))

        batching = _import("repro.core.batching").Batcher
        batcher_init = batching.__init__

        def traced_batcher_init(batcher, sim, flush, *args, **kwargs):
            wrapped = tracer.span(flush, layer_of_callable(flush),
                                  _qualname(flush))
            batcher_init(batcher, sim, wrapped, *args, **kwargs)

        self._patch(batching, "__init__", traced_batcher_init)

        underlay = _import("repro.underlay.network").UnderlayNetwork
        attach = underlay.attach

        def traced_attach(network, rloc, node, deliver):
            return attach(network, rloc, node, tracer.span(
                deliver, layer_of_callable(deliver), _qualname(deliver)))

        self._patch(underlay, "attach",
                    self.span(traced_attach, underlay_layer,
                              "UnderlayNetwork.attach"))

    def _track(self, cls, bucket):
        init = cls.__init__

        def tracked_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            bucket.append(obj)

        self._patch(cls, "__init__", tracked_init)

    def uninstall(self):
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ output
    def entry_count(self, name):
        index = self._name_index.get(name)
        return 0 if index is None else self.entry_calls.get(index, 0)

    def write_spans(self, path):
        """Write the sampled spans as CSV (times in µs from the phase start)."""
        base = self._started
        with open(path, "w", encoding="utf-8") as out:
            out.write("op,span,parent,layer,entry,start_us,end_us\n")
            for op, span_id, parent, layer, name, start, end in self.spans:
                out.write("%d,%d,%d,%s,%s,%.3f,%.3f\n" % (
                    op, span_id, parent, LAYERS[layer], self.names[name],
                    (start - base) * 1e6, (end - base) * 1e6))


class _Probe:
    """A bound-method owner for calibrating hand-offs."""

    def noop(self):
        return None


def _qualname(fn):
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, type):
        return "%s.%s" % (type(owner).__name__, getattr(fn, "__name__", "?"))
    return getattr(fn, "__qualname__", type(fn).__name__)
