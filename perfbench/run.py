"""Repo benchmark: host-time cost of simulating SD-Access workloads.

Usage (from the repository root)::

    python3 perfbench/run.py        # every workload, untraced and traced
    python3 perfbench/run.py --workload roam_growth --seed 1 --seconds 25
    python3 perfbench/run.py --workload wired_flows --trace 1

One workload run repeats fresh rounds (build, bring-up, measured phase,
output checks) while the next round would still end within
``--seconds`` of measured-phase wall time, and at least ``MIN_ROUNDS``
times.  ``--trace 1`` instead runs one untraced and one traced round and
reports the per-layer split (see ``layers.py``).  The last line of
standard output is one JSON object; the exit code is nonzero when any
output check fails.  Host times are in reference seconds (see
``measure.py``); simulated quantities carry the unit ``sim_ms``.  See
``perfbench/NOTES.md`` for the workloads, metrics and expected effects.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

from measure import SpeedGauge, percentile, ratio

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
MIN_ROUNDS = 3
WORKLOADS = ("wired_flows", "roam_growth", "intersite_churn")


# ---------------------------------------------------------------------- provenance
def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(("git", "-C", ROOT) + args, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over every ``src/**/*.py`` file (path + bytes), sorted."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(args, gauge):
    sha = None
    dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "git_sha": sha, "git_dirty": dirty, "src_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "seed": args.seed, "seconds": args.seconds,
        # The speed gauge's fixed pure-Python loop over the whole run: a
        # slow or busy machine lowers it, a code change does not.
        "calibration_mevents_per_s": (gauge.factor()
                                      * gauge.REFERENCE_EVENTS_PER_S / 1e6),
        "reference_s_per_wall_s": gauge.factor(),
    }


# ---------------------------------------------------------------------- metrics
def end_to_end(rounds):
    """The untraced end-to-end metrics: name -> (value, unit, samples)."""
    setup = [r.setup_s for r in rounds]
    op_wall = [x for r in rounds for x in r.op_wall_us]
    early = [x for r in rounds for x in r.early_us]
    late = [x for r in rounds for x in r.late_us]
    model_p50, model_p99, model_n = rounds[0].model_ms
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "ops_per_s": (ratio(sum(r.ops for r in rounds),
                            sum(r.measured_s for r in rounds)),
                      "1/s", len(rounds)),
        "op_wall_us.p50": (percentile(op_wall, 0.50), "us", len(op_wall)),
        "op_wall_us.p95": (percentile(op_wall, 0.95), "us", len(op_wall)),
        "op_cost_growth": (ratio(percentile(late, 0.5),
                                 percentile(early, 0.5)),
                           "ratio", len(late) + len(early)),
        "model.op_delay_ms.p50": (model_p50, "sim_ms", model_n),
        "model.op_delay_ms.p99": (model_p99, "sim_ms", model_n),
    }


def workload_view(workload, rounds):
    """This workload's own metric names (packets or roams per second,
    roam times, loss and failure ratios), derived from the rounds:
    name -> (value, unit, samples).  Printed, not part of the JSON."""
    first = rounds[0]
    counts = first.counts
    measured = statistics.median(r.measured_s for r in rounds)
    total_s = sum(r.measured_s for r in rounds)
    view = {}
    if workload.op_unit == "forwarded packet":
        view["pkts_per_s"] = (ratio(sum(r.ops for r in rounds), total_s),
                              "1/s", len(rounds))
    if counts.get("roams"):
        view["roams_per_s"] = (ratio(sum(r.counts["roams"] for r in rounds),
                                     total_s), "1/s", len(rounds))
    if workload.op_unit == "roam":
        late = [x / 1e3 for r in rounds for x in r.late_us]
        early = [x / 1e3 for r in rounds for x in r.early_us]
        view["roam_wall_ms.p50"] = (percentile(late, 0.5), "ms", len(late))
        view["roam_wall_ms.p99"] = (percentile(late, 0.99), "ms", len(late))
        view["roam_cost_growth"] = (
            ratio(percentile(late, 0.5), percentile(early, 0.5)), "ratio",
            len(late) + len(early))
    if "pkts_sent" in counts:
        view["pkt_loss_ratio"] = (ratio(counts["pkts_lost"],
                                        counts["pkts_sent"]),
                                  "ratio", counts["pkts_sent"])
    if counts.get("roams"):
        view["roam_fail_ratio"] = (ratio(counts["roams_failed"],
                                         counts["roams"]),
                                   "ratio", counts["roams"])
        p50, p99, samples = first.model_ms
        view["model.roam_delay_ms.p50"] = (p50, "sim_ms", samples)
        view["model.roam_delay_ms.p99"] = (p99, "sim_ms", samples)
    view["measured_s"] = (measured, "s", len(rounds))
    return view


def per_layer(untraced, traced, tracer):
    """The traced per-layer metrics: name -> (value, unit)."""
    from layers import LAYERS

    ops = traced.ops
    counts = traced.counts
    pkts = counts.get("pkts_forwarded", 0)
    roams = counts.get("roams", 0)
    # Time outside every span is the load generator's own.
    self_s = list(tracer.self_s)
    workloads = LAYERS.index("workloads")
    self_s[workloads] += max(0.0, traced.measured_wall_s - tracer.top_s)
    self_s = [seconds * traced.factor for seconds in self_s]
    total = sum(self_s)
    metrics = {}
    for index, layer in enumerate(LAYERS[:-1]):
        metrics[layer + ".self_share"] = (ratio(self_s[index], total),
                                          "ratio")
        metrics[layer + ".self_us_per_op"] = (
            1e6 * ratio(self_s[index], ops), "us")
        metrics[layer + ".calls_per_op"] = (
            ratio(tracer.calls[index], ops), "count")
    deltas = tracer.counter_deltas()
    lisp_waits = [1e3 * wait for layer, wait in tracer.queue_waits
                  if layer == LAYERS.index("lisp")]
    trie = (tracer.entry_count("PatriciaTrie.lookup_longest")
            + tracer.entry_count("PatriciaTrie.lookup_exact"))
    metrics.update({
        "sim.events_per_op": (ratio(untraced.events, ops), "count"),
        "sim.events_per_s": (ratio(untraced.events, untraced.measured_s),
                             "1/s"),
        "net.megaflow_hit_ratio": (ratio(
            deltas["megaflow_hits"],
            deltas["megaflow_hits"] + deltas["megaflow_misses"]), "ratio"),
        "net.megaflow_flushes_per_roam": (
            ratio(deltas["megaflow_flushes"], roams), "count"),
        "net.trie_lookups_per_pkt": (ratio(trie, pkts), "count"),
        "lisp.mapcache_hit_ratio": (ratio(
            deltas["mapcache_hits"],
            deltas["mapcache_hits"] + deltas["mapcache_misses"]), "ratio"),
        "lisp.server_msgs_per_roam": (ratio(
            tracer.entry_count("RoutingServer.handle_message"), roams),
            "count"),
        "lisp.server_wait_ms.p99": (
            percentile(lisp_waits, 0.99) if lisp_waits else 0.0, "sim_ms"),
        "policy.auths_per_roam": (ratio(deltas["auths"], roams), "count"),
        "policy.auth_cache_hit_ratio": (ratio(
            deltas["auth_cache_hits"],
            deltas["auth_cache_hits"] + deltas["auth_cache_misses"]),
            "ratio"),
        "wireless.registers_per_roam": (
            ratio(deltas["wlc_registers"], roams), "count"),
        "core.records_per_flush": (ratio(deltas["batch_records"],
                                         deltas["batch_flushes"]), "count"),
        "core.queue_sheds": (deltas["queue_sheds"], "count"),
        "multisite.transit_msgs_per_intersite_roam": (ratio(
            counts.get("transit_msgs", 0), counts.get("roams_intersite", 0)),
            "count"),
        "underlay.sends_per_pkt": (ratio(
            tracer.entry_count("UnderlayNetwork.send"), pkts), "count"),
        "trace.overhead_ratio": (ratio(traced.measured_s,
                                       untraced.measured_s), "ratio"),
    })
    return metrics


# ---------------------------------------------------------------------- printing
def show(title, rows):
    print("\n" + title)
    for row in rows:
        print("  " + row)


def print_metrics(title, metrics):
    rows = []
    for name, value in metrics.items():
        number, unit = value[0], value[1]
        samples = "  n=%d" % value[2] if len(value) > 2 else ""
        rows.append("%-44s %16.6g %-7s%s" % (name, number, unit, samples))
    show(title, rows)


def print_layer_table(metrics):
    from layers import LAYERS

    rows = ["%-10s %9s %14s %14s" % ("layer", "self %", "self us/op",
                                      "calls/op (count)")]
    for layer in LAYERS[:-1]:
        rows.append("%-10s %8.1f%% %14.3f %14.3f" % (
            layer, 100 * metrics[layer + ".self_share"][0],
            metrics[layer + ".self_us_per_op"][0],
            metrics[layer + ".calls_per_op"][0]))
    show("per-layer split (traced round; calls/op is a deterministic count)",
         rows)


def checks_and_digests(rounds):
    failures = []
    for index, result in enumerate(rounds):
        failures.extend("round %d: %s" % (index, f) for f in result.failures)
    digests = sorted({r.digest for r in rounds})
    if len(digests) > 1:
        failures.append("rounds of one seed (traced or not) disagree on "
                        "the counter ledger")
    return failures, digests


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value[0], "unit": value[1]}
                    for name, value in metrics.items()},
    }))


# ---------------------------------------------------------------------- runs
def attempted_and_failed(rounds):
    attempted = failed = 0
    for result in rounds:
        counts = result.counts
        attempted += counts.get("pkts_sent", 0) + counts.get("roams", 0)
        failed += counts.get("roams_failed", 0) + len(result.failures)
    return attempted, failed


def run_untraced(workload, args):
    """Rounds until the next one would end past ``--seconds`` of measured
    time, and at least ``MIN_ROUNDS``."""
    rounds = []
    spent = 0.0
    while (len(rounds) < MIN_ROUNDS
           or spent + spent / len(rounds) <= args.seconds):
        gc.collect()   # free the previous round's network before the next
        result = workload.run_round()
        rounds.append(result)
        spent += result.measured_wall_s
    metrics = end_to_end(rounds)
    print_metrics("end-to-end (untraced; %d rounds; op = %s)"
                  % (len(rounds), workload.op_unit), metrics)
    print_metrics("workload view", workload_view(workload, rounds))
    show("counts (round 0)", ["%s = %s" % kv
                              for kv in sorted(rounds[0].counts.items())])
    return rounds, metrics


def run_traced(workload, args):
    from layers import LayerTracer

    untraced = workload.run_round()
    gc.collect()
    tracer = LayerTracer(sample_every=workload.sample_every)
    tracer.calibrate()
    missing = tracer.install()
    try:
        traced = workload.run_round(tracer)
    finally:
        tracer.uninstall()
    if missing:
        print("warning: entry points not found, left unwrapped: %s"
              % ", ".join(missing), file=sys.stderr)
    rounds = [untraced, traced]
    metrics = per_layer(untraced, traced, tracer)
    print_layer_table(metrics)
    print_metrics("per-layer metrics", metrics)
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "spans-%s-seed%d.csv"
                        % (workload.name, args.seed))
    tracer.write_spans(path)
    show("spans", ["%d sampled spans (every %d-th op; %d dropped past the "
                   "cap) written to %s" % (len(tracer.spans),
                                            tracer.sample_every,
                                            tracer.spans_dropped,
                                            os.path.relpath(path, ROOT))])
    return rounds, metrics


def run_one(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import scenarios
    except ImportError as error:
        print("cannot import the simulator from %s: %s"
              % (os.path.join(ROOT, "src"), error), file=sys.stderr)
        return 2
    gauge = SpeedGauge()
    workload = scenarios.WORKLOADS[args.workload](args.seed, gauge)
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                              args.trace))
    if args.trace:
        rounds, metrics = run_traced(workload, args)
    else:
        rounds, metrics = run_untraced(workload, args)
    stamp = provenance(args, gauge)
    failures, digests = checks_and_digests(rounds)
    show("provenance", ["%s = %s" % kv for kv in stamp.items()])
    show("ledger sha256", digests)
    show("output checks", failures or ["all passed"])
    for failure in failures:
        print("output check failed: " + failure, file=sys.stderr)
    attempted, failed = attempted_and_failed(rounds)
    emit(not failures, attempted, failed, metrics)
    return 1 if failures else 0


def run_all(args):
    """Every workload in its own process, untraced then traced (unless
    ``--trace`` picks one); nonzero if any run fails."""
    status = 0
    traces = (0, 1) if args.trace is None else (args.trace,)
    for name in WORKLOADS:
        for trace in traces:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            print("=" * 72 + "\n$ " + " ".join(command[1:]), flush=True)
            code = subprocess.run(command).returncode
            if code:
                print("%s (trace %d) failed with exit code %d"
                      % (name, trace, code))
                status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %d; held-out seed %d)"
                        % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured-phase wall seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: traced per-layer run (default: 0 for one "
                        "workload, both for all)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    args.trace = args.trace or 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
