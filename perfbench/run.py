#!/usr/bin/env python3
"""End-to-end fault-grading benchmark.

Builds perfbench/femu_bench (and the femu library) from the checkout's
sources, runs one workload as a closed loop of cold campaigns for --seconds,
checks every campaign against the serial reference engines, and prints the
metrics. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 it carries the end-to-end metrics, with --trace 1 the
per-layer ones. Everything above that line is a human-readable report.

    python3 perfbench/run.py --workload b14-seu --seed 2005 --seconds 25 --trace 0
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --pin   # regenerate perfbench/pinned.json

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "femu_bench"
PINNED = HERE / "pinned.json"

WORKLOADS = ("b14-seu", "pipe32x128-seu", "b14-site", "b14-seu-durable")
# The durable workload grades b14-seu's inputs, so it shares its reference.
REFERENCE_WORKLOAD = {"b14-seu-durable": "b14-seu"}
DEFAULT_SEED = 2005

# Input sets. On b14 the instructions a campaign executes move by up to 1.8x
# between testbenches, so a run cycles through several and averages them. Set 0 is
# generated from --seed itself; the rest are drawn by the seed from a pool of
# fixed set seeds whose serial reference digests are pinned, so only set 0
# needs a reference grading before timing. workload -> (pool size, draws).
SET_POOLS = {
    "b14-seu": (24, 11),
    "b14-seu-durable": (24, 11),
    "b14-site": (8, 3),
    "pipe32x128-seu": (0, 0),  # its work moves by about 1% between seeds
}
POOL_STRIDE = 0x9e3779b97f4a7c15
# Slack beyond --seconds for input generation, warm-up and reporting.
TIMEOUT_SLACK_S = 150

# Constructor span -> standalone layer timings that account for it. A span
# with no entry (e.g. cache_store) lands in fault.setup_unattributed_s.
CTOR_SPAN_LAYERS = {
    "cache_load": ["fault.cache_load_s"],
    "compile": ["sim.compile_s"],
    "golden_trace": ["sim.golden_s"],
    "cone_build": ["netlist.cone_build_s", "netlist.ff_order_s"],
    "optimize": ["sim.optimize_s"],
    "word_image": ["sim.word_image_s"],
}

END_TO_END_UNITS = {
    "faults_per_s": "faults/s",
    "campaign_s_p50": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Exact work counts: (metric, key in femu_bench's per-campaign counts).
COUNT_METRICS = [
    ("sim.kernel_instrs", "kernel_instrs"),
    ("sim.opt_instrs", "opt_instrs"),
    ("sim.eval_instrs", "eval_instrs"),
    ("sim.eval_slot_bytes", "eval_slot_bytes"),
    ("sim.eval_cycles", "eval_cycles"),
    ("fault.narrowings", "narrowings"),
    ("fault.groups", "groups"),
    ("fault.cache_bytes_read", "cache_bytes_read"),
    ("fault.journal_bytes", "journal_bytes"),
    ("fault.dictionary_bytes", "dictionary_bytes"),
]

PER_LAYER_UNITS = {
    "netlist.cone_build_s": "s",
    "netlist.ff_order_s": "s",
    "netlist.site_cones_s": "s",
    "sim.compile_s": "s",
    "sim.golden_s": "s",
    "sim.word_image_s": "s",
    "sim.optimize_s": "s",
    "sim.kernel_instrs": "count",
    "sim.opt_instrs": "count",
    "sim.eval_instrs": "count",
    "sim.eval_slot_bytes": "B",
    "sim.eval_cycles": "count",
    "fault.grade_s": "s",
    "fault.setup_unattributed_s": "s",
    "fault.narrowings": "count",
    "fault.groups": "count",
    "fault.lane_occupancy": "ratio",
    "fault.parallel_efficiency": "ratio",
    "fault.group_s_p50": "s",
    "fault.group_s_p90": "s",
    "fault.cache_load_s": "s",
    "fault.cache_hit_frac": "ratio",
    "fault.cache_bytes_read": "B",
    "fault.journal_flush_s": "s",
    "fault.journal_bytes": "B",
    "fault.dictionary_s": "s",
    "fault.dictionary_bytes": "B",
    "obs.trace_overhead_frac": "ratio",
}


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: CMakeLists.txt and src/ of the repository "
                         "are missing next to perfbench/; nothing to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "femu_bench"], check=True, stdout=sys.stderr)


def femu_bench(*args, seconds=0.0):
    proc = subprocess.run([str(BINARY), *map(str, args)], capture_output=True,
                          text=True, timeout=TIMEOUT_SLACK_S + seconds)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: femu_bench failed "
                         f"({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def pool_seeds(workload):
    size, _ = SET_POOLS[workload]
    return [(DEFAULT_SEED + (j + 1) * POOL_STRIDE) % 2**64 for j in range(size)]


def set_seeds(workload, seed):
    """The seeds of a run's input sets: the run's own seed, then the pool
    seeds it draws."""
    _, draws = SET_POOLS[workload]
    return [seed] + random.Random(seed).sample(pool_seeds(workload), draws)


def reference_digests(workload, seeds):
    """Grades the input sets of `seeds` with the serial reference engines."""
    print(f"perfbench: grading {len(seeds)} {workload} input set(s) with the "
          f"serial reference", file=sys.stderr, flush=True)
    result = femu_bench("reference", "--workload", workload, "--set-seeds",
                        ",".join(map(str, seeds)))
    return dict(zip(map(str, seeds), result["digests"]))


def expected_digests(workload, seeds, pinned):
    """The serial reference's outcome digest of each input set: pinned for the
    pool and the default seed, otherwise computed by the serial reference
    engines before timing. Computed digests are kept under .bench_build, keyed
    by a hash of the femu_bench binary, so a rebuilt program never reuses
    them."""
    ref = REFERENCE_WORKLOAD.get(workload, workload)
    known = dict(pinned["digests"][ref])
    binary = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    cache = BUILD / "reference" / binary / ref
    for seed in seeds:
        cached = cache / f"{seed}.txt"
        if str(seed) not in known and cached.is_file():
            known[str(seed)] = cached.read_text().strip()
    missing = [seed for seed in seeds if str(seed) not in known]
    if missing:
        computed = reference_digests(ref, missing)
        cache.mkdir(parents=True, exist_ok=True)
        for seed, digest in computed.items():
            (cache / f"{seed}.txt").write_text(digest)
        known.update(computed)
    return [known[str(seed)] for seed in seeds]


def cpu_ticks():
    """(total, steal) jiffies of the host from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    fields += [0] * (8 - len(fields))
    return sum(fields), fields[7]


def median(values):
    return statistics.median(values) if values else 0.0


def set_mean(campaigns, key):
    """Mean over the input sets of each set's median: the time of one
    campaign on each set, so the figure does not hinge on which sets sit
    next to a pooled median."""
    per_set = {}
    for c in campaigns:
        per_set.setdefault(c["set"], []).append(c[key])
    return statistics.fmean(map(median, per_set.values())) if per_set else 0.0


def percentile_90(values):
    """p90 and the number of samples beyond it."""
    if len(values) < 2:
        p90 = values[0] if values else 0.0
    else:
        p90 = statistics.quantiles(values, n=10)[8]
    return p90, sum(1 for v in values if v > p90)


def set_counts(campaigns):
    """Exact work counts of the first good campaign of each input set."""
    counts = {}
    for c in campaigns:
        if c["digest_ok"] and not c["error"]:
            counts.setdefault(c["set"], c["counts"])
    return counts


def campaign_ok(c, counts):
    return (c["digest_ok"] and not c["error"]
            and c["counts"] == counts.get(c["set"]))


def summed_counts(counts, sets):
    """One campaign on each input set: the counts the metrics report. None
    when some input set had no good campaign."""
    if len(counts) != sets:
        return None
    return {key: sum(c[key] for c in counts.values())
            for key in next(iter(counts.values()))}


def trace_stats(path, campaigns):
    """Reads the Chrome traces the engine emitted: constructor span
    durations by name, per-campaign parallel efficiency and journal-flush
    time, and the pooled per-group slice durations (all in seconds)."""
    ctor_spans, efficiencies, flushes, groups = {}, [], [], []
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            events = [e for e in record["trace"]["traceEvents"]
                      if e.get("ph") == "X"]
            if record["kind"] == "ctor":
                for e in events:
                    if e["tid"] == 0:
                        ctor_spans[e["name"]] = (ctor_spans.get(e["name"], 0.0)
                                                 + 1e-6 * e["dur"])
                continue
            threads = campaigns[record["index"]]["threads"]
            grade = sum(e["dur"] for e in events
                        if e["tid"] == 0 and e["name"] == "grade")
            slices = [e["dur"] for e in events if e["name"] == "group"]
            if grade > 0 and threads > 0:
                efficiencies.append(sum(slices) / (threads * grade))
            flushes.append(1e-6 * sum(e["dur"] for e in events
                                      if e["name"] == "journal_flush"))
            groups.extend(1e-6 * d for d in slices)
    return ctor_spans, efficiencies, flushes, groups


def end_to_end_metrics(raw, timed):
    walls = [c["wall_s"] for c in timed]
    p50 = set_mean(timed, "wall_s")
    p90, beyond = percentile_90(walls)
    # p90 is reported, not gated: on a shared host its run-to-run spread
    # reaches 0.3-0.4 of the median, past any bound the format allows.
    print(f"  campaign_s_p90 {p90:.6g} s, with {beyond} of {len(walls)} "
          f"campaigns beyond it" + ("" if beyond >= 10 else " (fewer than 10)"))
    return {
        "faults_per_s": raw["faults"] / p50 if p50 > 0 else 0.0,
        "campaign_s_p50": p50,
        "setup_s": set_mean(timed, "setup_s"),
        "cpu_s": set_mean(timed, "cpu_s"),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer_metrics(raw, timed, counts, trace_path):
    untraced = [c for c in timed if not c["traced"]]
    traced = [c for c in timed if c["traced"]]
    layers = {name: median(values) for name, values in raw["layers"].items()}
    ctor_spans, effs, flushes, groups = trace_stats(trace_path,
                                                    raw["campaigns"])
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    metrics.update(layers)

    setup = set_mean(untraced, "setup_s")
    accounted = sorted({layer for span in ctor_spans
                        for layer in CTOR_SPAN_LAYERS.get(span, [])})
    unattributed = setup - sum(layers.get(name, 0.0) for name in accounted)
    metrics["fault.setup_unattributed_s"] = unattributed
    metrics["fault.grade_s"] = set_mean(untraced, "grade_s")
    metrics["fault.dictionary_s"] = set_mean(untraced, "dictionary_s")
    for metric, key in COUNT_METRICS:
        metrics[metric] = counts[key]
    if counts["lane_slots"]:
        metrics["fault.lane_occupancy"] = counts["faults"] / counts["lane_slots"]
    lookups = sum(c["cache_hits"] + c["cache_misses"] for c in timed)
    if lookups:
        metrics["fault.cache_hit_frac"] = (sum(c["cache_hits"] for c in timed)
                                           / lookups)
    metrics["fault.parallel_efficiency"] = median(effs)
    metrics["fault.group_s_p50"] = median(groups)
    metrics["fault.group_s_p90"] = percentile_90(groups)[0]
    metrics["fault.journal_flush_s"] = median(flushes)
    plain = set_mean(untraced, "wall_s")
    if plain > 0:
        metrics["obs.trace_overhead_frac"] = (
            set_mean(traced, "wall_s") - plain) / plain

    probes = max((len(v) for v in raw["layers"].values()), default=0)
    print(f"  traced run: {len(untraced)} untraced + {len(traced)} traced "
          f"campaigns and {probes} standalone layer probes, interleaved")
    spans = ", ".join(f"{k} {v:.6f} s" for k, v in sorted(ctor_spans.items()))
    print(f"  setup accounting; one traced constructor's own spans: {spans}")
    for name in accounted:
        print(f"    {name:<30} {layers[name]:.6f} s")
    print(f"  + fault.setup_unattributed_s     {unattributed:.6f} s")
    print(f"  = setup_s                        {setup:.6f} s")
    if raw.get("cache_probe_hit") is False and "cache_load" in ctor_spans:
        print("  note: the standalone cache probe missed; fault.cache_load_s "
              "timed a miss")
    return metrics


def check_recorded_counts(workload, seed, pinned, counts):
    """Compares exact work counts with the ones recorded for the default
    seed. A difference is a work change to report as counts, not a failure."""
    recorded = pinned["work_counts"].get(workload)
    if seed != DEFAULT_SEED or recorded is None or counts is None:
        return
    diffs = [f"{k} {recorded[k]} -> {counts.get(k)}" for k in recorded
             if counts.get(k) != recorded[k]]
    if diffs:
        print("  work counts differ from perfbench/pinned.json: "
              + "; ".join(diffs))
    else:
        print("  work counts equal the ones recorded in perfbench/pinned.json")


def grade(workload, seeds, digests, seconds, trace, work):
    """Runs the timed loop. Returns its raw output, the summed exact work
    counts (None when some set had no good campaign) and the good
    campaigns."""
    raw = femu_bench("run", "--workload", workload,
                     "--set-seeds", ",".join(map(str, seeds)),
                     "--seconds", seconds, "--trace", trace,
                     "--expect-digest", ",".join(digests), "--work-dir", work,
                     seconds=seconds)
    per_set = set_counts(raw["campaigns"])
    counts = summed_counts(per_set, raw["input_sets"])
    good = [c for c in raw["campaigns"] if campaign_ok(c, per_set)]
    return raw, counts, good


def run(args):
    build()
    pinned = json.loads(PINNED.read_text())
    seeds = set_seeds(args.workload, args.seed)
    digests = (args.expect_digest.split(",") if args.expect_digest
               else expected_digests(args.workload, seeds, pinned))
    work = Path(tempfile.mkdtemp(prefix="work-", dir=BUILD))
    try:
        before = cpu_ticks()
        raw, counts, good = grade(args.workload, seeds, digests, args.seconds,
                                  args.trace, work)
        after = cpu_ticks()
        campaigns = raw["campaigns"]
        failed = len(campaigns) - len(good)
        timed = good or campaigns

        steal = "n/a"
        if before and after and after[0] > before[0]:
            steal = f"{100.0 * (after[1] - before[1]) / (after[0] - before[0]):.2f}%"
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
              f"{len(campaigns)} campaigns on {raw['input_sets']} input "
              f"sets, {failed} failed (failed_frac "
              f"{failed / len(campaigns):.4f})")
        print("run conditions: " + json.dumps({
            "nproc": os.cpu_count(),
            "hardware_concurrency": raw["hardware_concurrency"],
            "workers_used": sorted({c["threads"] for c in campaigns}),
            "word512_simd_path": raw["simd"],
            "build_type": raw["build_type"],
            "host_steal": steal,
        }))
        for c in campaigns:
            if c["error"]:
                print(f"  campaign error: {c['error']}")
                break
        if any(not c["digest_ok"] for c in campaigns):
            print(f"  outcome digest differs from the serial reference "
                  f"{','.join(digests)} on "
                  f"{sum(not c['digest_ok'] for c in campaigns)} campaigns")
        check_recorded_counts(args.workload, args.seed, pinned, counts)

        if args.trace:
            metrics = per_layer_metrics(raw, timed,
                                        counts or campaigns[0]["counts"],
                                        work / "traces.jsonl")
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end_metrics(raw, timed)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(campaigns),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


def selfcheck():
    """A wrong reference digest must fail every campaign and exit non-zero."""
    sets = len(set_seeds("b14-seu", DEFAULT_SEED))
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", "b14-seu", "--seconds", "1",
         "--expect-digest", ",".join(["0123456789abcdef"] * sets)],
        capture_output=True, text=True, timeout=2 * TIMEOUT_SLACK_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = (proc.returncode != 0 and result["correct"] is False
          and result["failed"] == result["attempted"] >= 1)
    print(f"selfcheck {'passed' if ok else 'FAILED'}: exit {proc.returncode}, "
          f"{result['failed']}/{result['attempted']} campaigns failed")
    return 0 if ok else 1


def pin():
    """Regenerates pinned.json: the serial reference digests of every pool
    set and of the default seed's own set, then the exact work counts of a
    short run of each workload on the default seed."""
    build()
    pinned = {"digests": {}, "work_counts": {}}
    for workload in WORKLOADS:
        if workload not in REFERENCE_WORKLOAD:
            seeds = [DEFAULT_SEED] + pool_seeds(workload)
            pinned["digests"][workload] = reference_digests(workload, seeds)
    for workload in WORKLOADS:
        seeds = set_seeds(workload, DEFAULT_SEED)
        digests = expected_digests(workload, seeds, pinned)
        work = Path(tempfile.mkdtemp(prefix="work-", dir=BUILD))
        try:
            raw, counts, good = grade(workload, seeds, digests, 1, 0, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if counts is None or len(good) != len(raw["campaigns"]):
            raise SystemExit(f"perfbench: {workload} failed campaigns on the "
                             f"default seed; pinned.json left unchanged")
        pinned["work_counts"][workload] = counts
    PINNED.write_text(json.dumps(pinned, indent=2) + "\n")
    print(f"perfbench: wrote {PINNED.relative_to(ROOT)}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-digest", default="",
                        help="override the reference digests, one per input "
                             "set, comma-separated (self-check)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="check that a wrong digest fails the run")
    parser.add_argument("--pin", action="store_true",
                        help="regenerate perfbench/pinned.json")
    args = parser.parse_args()
    if args.selfcheck:
        return selfcheck()
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
