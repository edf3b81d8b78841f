"""Run one benchmark workload against the program in ``src/``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload amazon-matchjoin --seed 1 \
        --seconds 20 --trace 0

The program is driven the way its users drive it: an in-process
``QueryServer`` over a ``QueryEngine``, two closed-loop clients and, on
``citation-rw``, one open-loop updater, all on one asyncio loop.  A run:

1. generates the workload's inputs from ``--seed`` (once per workload
   and seed; reused afterwards, never timed);
2. starts the host sampler (``probe.py``), which runs until the end of
   the measured phase;
3. boots the server from the input files ``SETUP_REPS`` times -- all
   but the last in fresh child interpreters, the last in this process,
   which then serves -- and reports the median process CPU time of a
   boot, scaled to the reference host speed, as ``setup_s``;
4. warms up, then measures for ``--seconds``, charging each query the
   server CPU time spent on it (``loadgen.MeteredLoop``);
5. checks a fixed sample of answers against the reference engines; a
   wrong answer fails the run (exit status 1);
6. with ``--trace 1``, records benchmark-side spans throughout, adds a
   serial layer replay (``replay.py``) and reports per-layer metrics
   instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
are a human-readable report; the full result (environment, input sizes,
every metric with its sample count) is also written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _env import RESULT_ROOT, ROOT, WORK_ROOT, prepare_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Boots per run; ``setup_s`` is their median.
SETUP_REPS = 3


def quantile(values, q: float) -> float:
    """The ``q`` quantile (``0 < q < 1``, inclusive method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def environment(args, workload, sizes) -> dict:
    # Only ask git inside a git checkout: elsewhere it would search the
    # directories above the checkout.
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": sizes,
        "persistence": "every epoch, full snapshot rewrite" if workload.writes else "never",
    }


def ensure_inputs(workload: str, seed: int) -> Path:
    """Generate inputs in a child process (kept out of this process's
    peak RSS) unless a previous run with this seed left them."""
    import inputs

    out = inputs.input_dir(workload, seed)
    if not (out / "sizes.json").exists():
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("inputs.py")),
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
    return out


def _requests(server) -> dict:
    stats = server.stats()
    counters = dict(stats["requests"])
    counters["swaps"] = stats["epoch"]["swaps"]
    hist = stats["metrics"]["histograms"].get("repro_server_queue_wait_seconds", {})
    counters["queue_wait"] = hist.get("")
    return counters


def _hist_median(before, after) -> float:
    """Median of the observations between two histogram snapshots,
    interpolated geometrically inside its bucket."""
    if after is None:
        return 0.0
    counts = list(after["buckets"])
    if before is not None:
        counts = [a - b for a, b in zip(counts, before["buckets"])]
    total = sum(counts)
    if not total:
        return 0.0
    bounds = after["boundaries"]
    seen = 0
    for index, count in enumerate(counts):
        if seen + count >= total / 2 and count:
            hi = bounds[index] if index < len(bounds) else bounds[-1]
            lo = bounds[index - 1] if index else hi / 4
            frac = (total / 2 - seen) / count
            return lo * (hi / lo) ** frac
        seen += count
    return bounds[-1]


def _calibration(records) -> dict:
    """The planner's calibration from its plan log: per strategy, the
    median and spread of ``elapsed / cost_estimate`` over evaluated
    answers, each strategy's share of all delivered answers, and the
    median ``|log2(elapsed / cost_estimate)|`` (0 when every estimate
    was exact)."""
    shares, ratios = {}, {}
    for record in records:
        shares[record.strategy] = shares.get(record.strategy, 0) + 1
        if not record.cache_hit and record.cost_estimate:
            ratios.setdefault(record.strategy, []).append(
                record.elapsed / record.cost_estimate
            )
    total = sum(shares.values()) or 1
    out = {"records": sum(shares.values()), "shares": {}, "ratio": {}}
    for strategy, count in shares.items():
        out["shares"][strategy] = count / total
    for strategy, values in ratios.items():
        p50 = statistics.median(values)
        out["ratio"][strategy] = {
            "n": len(values),
            "p50": p50,
            "iqr_frac": (quantile(values, 0.75) - quantile(values, 0.25)) / p50 if p50 else 0.0,
        }
    everything = [r for values in ratios.values() for r in values]
    out["ratio_p50"] = statistics.median(everything) if everything else 0.0
    out["log2_err_p50"] = (
        statistics.median(abs(math.log2(r)) for r in everything) if everything else 0.0
    )
    return out


def boot_elsewhere(args) -> dict:
    """One boot in a fresh interpreter (``--setup-only``), so every boot
    starts from the same state and the measured process holds exactly
    one deployment, as a real server does."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        check=True, capture_output=True, text=True, timeout=170,
    )
    return json.loads(done.stdout.splitlines()[-1])


async def boot(workload, spans):
    """Boot the workload's server from its input files; returns it with
    the boot's process CPU time (``setup_s``) and wall time."""
    from workloads import reset_work

    reset_work(workload.work)
    gc.collect()
    began, cpu = perf_counter(), time.process_time()
    with spans.span("setup"):
        deployment = await workload.setup(spans)
    return deployment, {"setup_s": time.process_time() - cpu,
                        "setup_wall_s": perf_counter() - began}


async def setup_only(workload) -> dict:
    from spans import SpanRecorder

    spans = SpanRecorder()
    deployment, timing = await boot(workload, spans)
    await deployment.server.stop()
    return {**timing, "layers": spans.self_time_medians("setup")}


async def follow_plan_log(engine, records: list, period: float = 0.05) -> None:
    """Append every new ``plan_log()`` record to ``records`` until
    cancelled.  The engine keeps only the newest 256; polling faster
    than that many answers arrive keeps the whole phase's log."""
    newest = None
    try:
        while True:
            fresh = []
            for record in engine.plan_log():
                if record is newest:
                    break
                fresh.append(record)
            if fresh:
                newest = fresh[0]
                records.extend(reversed(fresh))
            await asyncio.sleep(period)
    except asyncio.CancelledError:
        pass


async def drive(args, workload, streams, spans):
    """Setup, live phase(s), and (traced) replay; returns raw results."""
    from loadgen import QueryStream, run_phase, warmup
    from probe import HostSampler
    from workloads import CLIENTS, UPDATE_RATE

    with HostSampler() as sampler:
        began = perf_counter()
        boots = [boot_elsewhere(args) for _ in range(SETUP_REPS - 1)]
        deployment, timing = await boot(workload, spans)
        boots.append({**timing,
                      "layers": spans.self_time_medians("setup") if spans.active else {}})
        setup_window = (began, perf_counter())

        server = deployment.server
        stream = QueryStream(streams, args.seed)
        rate = UPDATE_RATE if workload.writes else 0.0
        await warmup(server, stream, CLIENTS)
        plan_records = []
        follower = None
        if spans.active:
            follower = asyncio.create_task(follow_plan_log(deployment.engine, plan_records))
        before = _requests(server)
        began = perf_counter()
        phase = await run_phase(server, stream, CLIENTS, args.seconds, spans,
                                deltas=streams.deltas, rate=rate)
        phase_window = (began, perf_counter())
        after = _requests(server)
    if follower is not None:
        follower.cancel()
        await follower
    persisted = 0
    if deployment.persist is not None:
        from repro.graph.snapshot import snapshot_on_disk_bytes

        persisted = snapshot_on_disk_bytes(deployment.persist)
    await server.stop()
    replay_info = None
    if spans.active:
        from replay import replay

        replay_info = replay(workload, deployment, streams, spans, phase.updates_sent)
    return {
        "boots": boots,
        "setup_slowdown": sampler.slowdown(*setup_window),
        "phase_slowdown": sampler.slowdown(*phase_window),
        "phase": phase,
        "before": before,
        "after": after,
        "plan_records": plan_records,
        "cache_stats": deployment.engine.cache_stats(),
        "persisted_bytes": persisted,
        "deployment": deployment,
        "replay": replay_info,
    }


def view_sizes(deployment) -> dict:
    engine = deployment.engine
    views = engine.views
    pairs = sum(views.extension(n).num_pairs for n in views.names()
                if views.is_materialized(n))
    graph = engine.graph
    frac = views.extension_size / graph.size if views.cardinality and graph.size else 0.0
    return {"extension_size": views.extension_size, "extension_pairs": pairs,
            "extension_frac": frac}


#: The end-to-end metrics BENCHMARK.json gates.  Their times are CPU
#: times, which leave out the stretches in which the host or another
#: process held the CPU, scaled to a reference host speed by the run's
#: host sampler (``probe.py``).  The unscaled CPU times, the wall-clock
#: figures (set-up, client latency, throughput, update latency) and the
#: error rate are printed and recorded too; on a shared virtual machine
#: they move by more than the bounds from one run to the next.
GATED = ("setup_s", "eval_cpu_p50_ms", "eval_cpu_p90_ms", "evals_per_cpu_s",
         "peak_rss_mb")


def end_to_end(raw) -> dict:
    phase = raw["phase"]
    lat = phase.latencies
    ms = [x * 1e3 for x in lat]
    cpu_ms = [cpu * 1e3 for cpu, evaluated in phase.query_cpu if evaluated]
    upd = [x * 1e3 for x in phase.update_latencies]
    attempted = phase.queries_attempted + phase.updates_sent
    boots = len(raw["boots"])
    setup_cpu = statistics.median(b["setup_s"] for b in raw["boots"])
    # Evaluated answers only: how many of citation-rw's answers come from
    # the cache depends on how many the readers get through per epoch,
    # and so on the speed of the host.
    rate = len(cpu_ms) / phase.cpu_elapsed if phase.cpu_elapsed else 0.0
    p50, p90 = quantile(cpu_ms, 0.5), quantile(cpu_ms, 0.9)
    # How much slower than the reference the host ran set-up and phase.
    setup_slow, setup_slices = raw["setup_slowdown"]
    slow, slices = raw["phase_slowdown"]
    return {
        "setup_s": (setup_cpu / setup_slow, "s", boots),
        "eval_cpu_p50_ms": (p50 / slow, "ms", len(cpu_ms)),
        "eval_cpu_p90_ms": (p90 / slow, "ms", len(cpu_ms)),
        "evals_per_cpu_s": (rate * slow, "1/s", len(cpu_ms)),
        "peak_rss_mb": (phase.peak_rss_mb, "MiB", 1),
        "host_slowdown_setup": (setup_slow, "ratio", setup_slices),
        "host_slowdown_phase": (slow, "ratio", slices),
        "setup_cpu_raw_s": (setup_cpu, "s", boots),
        "eval_cpu_raw_p50_ms": (p50, "ms", len(cpu_ms)),
        "eval_cpu_raw_p90_ms": (p90, "ms", len(cpu_ms)),
        "evals_per_cpu_raw_s": (rate, "1/s", len(cpu_ms)),
        "setup_wall_s": (statistics.median(b["setup_wall_s"] for b in raw["boots"]), "s",
                         boots),
        "query_p50_ms": (quantile(ms, 0.5), "ms", len(ms)),
        "query_p90_ms": (quantile(ms, 0.9), "ms", len(ms)),
        "query_qps": (len(lat) / phase.elapsed if phase.elapsed else 0.0, "1/s", len(lat)),
        "update_p50_ms": (quantile(upd, 0.5), "ms", len(upd)),
        "error_rate": (phase.failed / attempted if attempted else 0.0, "fraction", attempted),
    }


def per_layer(raw, spans, sizes) -> dict:
    phase = raw["phase"]
    before, after = raw["before"], raw["after"]
    dep = raw["deployment"]

    setup = {}
    for name in {name for b in raw["boots"] for name in b["layers"]}:
        setup[name] = statistics.median(b["layers"].get(name, 0.0) for b in raw["boots"])
    rep = {}
    for root in ("replay.query", "replay.update", "replay.persist"):
        for name, value in spans.self_time_medians(root).items():
            rep.setdefault(name, value)
    ingest = dep.ingest

    def served(key):
        return after[key] - before[key]

    completed = served("completed") or 1
    records = _calibration(raw["plan_records"])
    cache = raw["cache_stats"]

    def frac(stats):
        total = stats.get("hits", 0) + stats.get("misses", 0)
        return stats.get("hits", 0) / total if total else 0.0

    strategy = records["shares"]
    replay_info = raw["replay"]
    pairs = replay_info["result_pairs"]
    live_spans = sum(1 for s in spans.spans if s["name"].startswith("loadgen."))
    updates = phase.update_latencies
    snapshot_load = setup.get("graph.snapshot_load", rep.get("graph.snapshot_load", 0.0))
    return {
        "graph.read_s": (setup.get("graph.read", 0.0), "s"),
        "graph.freeze_s": (setup.get("graph.freeze", 0.0), "s"),
        "graph.ingest_s": (setup.get("graph.ingest", 0.0), "s"),
        "graph.ingest_spill_mb": (ingest.spill_bytes / 2**20 if ingest else 0.0, "MiB"),
        "graph.ingest_peak_rss_mb": (ingest.peak_rss_bytes / 2**20 if ingest else 0.0, "MiB"),
        "graph.snapshot_load_s": (snapshot_load, "s"),
        "graph.snapshot_save_ms": (rep.get("graph.snapshot_save", 0.0) * 1e3, "ms"),
        "graph.snapshot_mb": (replay_info["snapshot_bytes"] / 2**20, "MiB"),
        "graph.persist_mb_per_update": (raw["persisted_bytes"] / 2**20, "MiB"),
        "views.materialize_s": (setup.get("views.materialize", 0.0), "s"),
        "views.extension_pairs": (sizes["extension_pairs"], "count"),
        "views.extension_frac": (sizes["extension_frac"], "fraction"),
        "views.extension_mb": (replay_info["extension_bytes"] / 2**20, "MiB"),
        "views.tracker_build_s": (setup.get("views.tracker_build", 0.0), "s"),
        "views.attach_s": (setup.get("views.attach", 0.0), "s"),
        "views.apply_delta_ms": (rep.get("engine.apply_delta", 0.0) * 1e3, "ms"),
        "core.contain_ms": (rep.get("core.contain", 0.0) * 1e3, "ms"),
        "core.matchjoin_ms": (rep.get("core.matchjoin", 0.0) * 1e3, "ms"),
        "core.result_pairs": (statistics.median(pairs) if pairs else 0, "count"),
        "simulation.match_ms": (rep.get("simulation.match", 0.0) * 1e3, "ms"),
        "engine.boot_s": (setup.get("engine.boot", 0.0), "s"),
        "engine.plan_ms": (rep.get("engine.plan", 0.0) * 1e3, "ms"),
        "engine.execute_ms": (rep.get("engine.execute", 0.0) * 1e3, "ms"),
        "engine.checkpoint_ms": (rep.get("engine.checkpoint", 0.0) * 1e3, "ms"),
        "engine.answer_cache_hit_frac": (frac(cache["answers"]), "fraction"),
        "engine.containment_cache_hit_frac": (frac(cache["containment"]), "fraction"),
        "engine.strategy_matchjoin_frac": (strategy.get("matchjoin", 0.0), "fraction"),
        "engine.strategy_direct_frac": (strategy.get("direct", 0.0), "fraction"),
        "engine.strategy_hybrid_frac": (strategy.get("hybrid", 0.0), "fraction"),
        "engine.cost_log2_err_p50": (records["log2_err_p50"], "log2"),
        "serve.start_s": (setup.get("serve.start", 0.0), "s"),
        "serve.queue_wait_p50_ms": (
            _hist_median(before["queue_wait"], after["queue_wait"]) * 1e3, "ms"),
        "serve.cache_hit_frac": (served("cache_hits") / completed, "fraction"),
        "serve.coalesced_frac": (served("coalesced") / completed, "fraction"),
        "serve.evaluated": (served("evaluated"), "count"),
        "serve.shed": (served("shed"), "count"),
        "serve.epochs_published": (after["swaps"] - before["swaps"], "count"),
        "serve.update_p50_ms": (quantile([u * 1e3 for u in updates], 0.5), "ms"),
        "loadgen.queries": (len(phase.latencies), "count"),
        "loadgen.updates": (len(updates), "count"),
        "loadgen.update_late_ms": (quantile([u * 1e3 for u in phase.update_late], 0.5), "ms"),
        "trace.overhead_frac": (
            spans.cost_per_span() * live_spans / phase.elapsed, "fraction"),
    }, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare_env()

    from loadgen import MeteredLoop
    from spans import NullRecorder, SpanRecorder
    from workloads import check_answers

    inputs_path = ensure_inputs(args.workload, args.seed)
    with open(inputs_path / "sizes.json", encoding="utf-8") as handle:
        sizes = json.load(handle)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, inputs_path, work)
    if args.setup_only:
        try:
            with asyncio.Runner(loop_factory=MeteredLoop) as runner:
                print(json.dumps(runner.run(setup_only(workload))))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    streams = workload.streams()
    spans = SpanRecorder() if args.trace else NullRecorder()
    try:
        with asyncio.Runner(loop_factory=MeteredLoop) as runner:
            raw = runner.run(drive(args, workload, streams, spans))
        sizes.update(view_sizes(raw["deployment"]))
        if raw["replay"] is not None:
            sizes["extension_bytes"] = raw["replay"]["extension_bytes"]
        phase = raw["phase"]
        checked, mismatches = check_answers(
            workload, raw["deployment"], streams.pool, phase.observations,
            phase.epoch_deltas, args.seed,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(raw)
    env = environment(args, workload, sizes)
    attempted = phase.queries_attempted + phase.updates_sent
    doc = {
        "workload": args.workload,
        "why": workload.why,
        "trace": args.trace,
        "env": env,
        "oracle": {"checked": checked, "mismatches": mismatches},
        "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
        "errors": {"queries": phase.query_errors, "updates": phase.update_errors},
    }
    answered = len(phase.observations)
    nonempty = sum(1 for _, _, pairs in phase.observations if any(pairs.values()))
    doc["nonempty_answers"] = nonempty / answered if answered else 0.0
    lines = [f"workload {args.workload} seed {args.seed}: {workload.why}",
             f"  env {json.dumps({k: env[k] for k in env if k != 'sizes'})}",
             f"  sizes {json.dumps(sizes)}",
             f"  answers: {answered}, {doc['nonempty_answers']:.0%} nonempty; "
             f"oracle: {checked} checked, {len(mismatches)} wrong"]
    for name, (value, unit, n) in e2e.items():
        lines.append(f"  {name:<22} {value:14.4f} {unit:<9} n={n}")
    if args.trace:
        layers, calibration = per_layer(raw, spans, sizes)
        doc["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        doc["calibration"] = calibration
        lines.append("  per-layer (traced run; self times from the serial replay):")
        for name, (value, unit) in layers.items():
            lines.append(f"    {name:<34} {value:14.4f} {unit}")
        lines.append(f"  planner calibration {json.dumps(calibration)}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()
                   if k in GATED}
    RESULT_ROOT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    with open(RESULT_ROOT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
    if args.trace:
        spans.write(RESULT_ROOT / f"{stem}-spans.json")
    for line in mismatches:
        lines.append(f"  WRONG ANSWER: {line}")
    print("\n".join(lines))
    correct = not mismatches
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": phase.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
