#!/usr/bin/env python3
"""Study benchmark for ruwhere: end-to-end study time and a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload conflict-daily --seed 1 --seconds 30 --trace 0

The script builds the `study` and `trace` binaries of the `perfbench` package
(into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs each study as a
fresh process and prints one JSON line as the last line of standard output:
`{"correct", "attempted", "failed", "metrics"}`.

Workloads (one study per process, a closed loop with nothing beside it):

* `conflict-daily`: the condensed `repro` study (2021-11-01 -> 2022-05-25,
  154 sweeps), checkpoints off.
* `checkpointed-daily`: the same study writing one durable segment per day.
* `reanalysis`: `--resume` over a complete checkpoint directory of the same
  study, written untimed by the traced run before the timed runs.

`--trace 0` first runs the traced study once, untimed, as the reference. It
then repeats the untraced study at min(nproc, 2) workers until `--seconds`
have passed. Each repetition is one attempted operation. It fails when it
errors, when its report differs by one byte from the reference report, or when
its `total_queries` differs from the traced `scan.queries`. The script prints
the interquartile mean (see `iqm`) of `study_cpu_s` and `setup_s` and the
median `peak_rss_mb`. The times are process CPU time (see `process_cpu_s` in
`src/lib.rs` for why); the median wall time goes to standard error.

`--trace 1` runs one untraced study and two traced studies at 1 worker. It
checks that all three reports are byte-identical, that the exact counters
repeat, and that the spans cover the traced study. It prints the per-layer
metrics and the tracing overhead.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
WORKLOADS = ("conflict-daily", "checkpointed-daily", "reanalysis")
# Seconds one child process may take before it is killed and counted failed
# (a study takes a few seconds; this keeps a whole run under 180 s).
CHILD_TIMEOUT_S = 60
MIN_REPS = 3

END_TO_END = {
    "study_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trace.study_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
    "world.publish_share": "ratio",
    "world.new_ms": "ms",
    "world.advance_ms_per_day": "ms",
    "world.publish_ms_per_day": "ms",
    "registry.zone_snapshot_ms_per_day": "ms",
    "scan.fanout_ms_per_day": "ms",
    "scan.queries": "count",
    "scan.ns_cache_hit_rate": "ratio",
    "scan.timeouts": "count",
    "scan.retries_spent": "count",
    "scan.ip_scan_ms": "ms",
    "scan.cert_dataset_ms": "ms",
    "authdns.resolve_us": "us",
    "authdns.resolver_self_us": "us",
    "authdns.answer_us": "us",
    "netsim.request_us": "us",
    "netsim.requests_per_resolution": "count",
    "dns.decode_ns": "ns",
    "dns.encode_ns": "ns",
    "dns.bytes_per_msg": "B",
    "alloc.per_query": "count",
    "alloc.bytes_per_query": "B",
    "store.write_ms_per_day": "ms",
    "store.segment_bytes_per_day": "B",
    "store.load_ms": "ms",
    "store.replay_ms_per_day": "ms",
    "core.observe_frame_ms_per_day": "ms",
    "core.record_visits": "count",
    "core.cert_analyses_ms": "ms",
    "core.render_ms": "ms",
}

# Work counters that must repeat exactly across two traced runs.
EXACT = (
    "scan.queries",
    "scan.timeouts",
    "scan.retries_spent",
    "core.record_visits",
    "alloc.per_query",
    "alloc.bytes_per_query",
    "store.segment_bytes_per_day",
)
# The traced spans must cover at least this share of the traced study.
MIN_SPAN_COVERAGE = 0.97


def iqm(values):
    """Mean of the middle half of `values`.

    Per-process CPU time sits on one of two levels about 1.4x apart,
    depending on what else the host runs at the time. A median jumps from
    one level to the other once the slow share passes one half, and a low
    quantile once a whole run lands on the slow level; the interquartile
    mean moves smoothly with the slow share and drops outliers."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut:len(v) - cut])


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Build both binaries; return the directory holding them."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--offline", "--release", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml"), "--bins"]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: build failed (cargo exit {proc.returncode})")
    return Path(env["CARGO_TARGET_DIR"]).resolve() / "release"


class Runner:
    def __init__(self, bins, seed):
        self.bins = bins
        self.seed = seed
        self.runs = 0

    def _run(self, binary, workload, ckpt, extra):
        """Run one child study; return (parsed JSON line, report bytes) or None."""
        self.runs += 1
        report = WORK / f"report-{self.runs}.txt"
        cmd = [str(self.bins / binary), "--workload", workload, "--seed", str(self.seed),
               "--report", str(report)] + extra
        if ckpt is not None:
            cmd += ["--checkpoint-dir", str(ckpt)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                  timeout=CHILD_TIMEOUT_S, text=True)
        except subprocess.TimeoutExpired:
            log(f"{binary} {workload} timed out")
            return None
        if proc.returncode != 0:
            log(f"{binary} {workload} exited with {proc.returncode}")
            return None
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            text = report.read_bytes()
        except (IndexError, ValueError, OSError) as e:
            log(f"{binary} {workload}: unreadable output ({e})")
            return None
        report.unlink()
        return out, text

    def study(self, workload, workers, ckpt=None):
        return self._run("study", workload, ckpt, ["--workers", str(workers)])

    def trace(self, workload, ckpt=None, tag="trace"):
        spans = WORK / f"spans-{workload}-{tag}.jsonl"
        out = self._run("trace", workload, ckpt, ["--spans", str(spans)])
        if out is not None and out[0].get("check_failures", 1) != 0:
            log(f"trace {workload}: {out[0].get('check_failures')} wire-replay checks failed")
            return None
        return out


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def reference(runner, workload):
    """The traced 1-worker run whose report every timed run must reproduce.
    For `reanalysis` it is the checkpointed study that writes the segments."""
    if workload == "conflict-daily":
        return runner.trace(workload, tag="reference"), None
    ckpt = fresh_dir(WORK / "ckpt-reference")
    return runner.trace("checkpointed-daily", ckpt, tag="reference"), ckpt


def run_end_to_end(runner, workload, seconds, workers):
    ref, ref_ckpt = reference(runner, workload)
    if ref is None:
        raise SystemExit("perfbench: the traced reference run failed")
    ref_layers, ref_report = ref
    attempted = failed = 0
    samples = {k: [] for k in END_TO_END}
    walls = []
    start = time.monotonic()
    while attempted < MIN_REPS or time.monotonic() - start < seconds:
        if workload == "checkpointed-daily":
            ckpt = fresh_dir(WORK / "ckpt-run")
        else:
            ckpt = ref_ckpt
        attempted += 1
        got = runner.study(workload, workers, ckpt)
        ok = got is not None
        if ok:
            out, report = got
            if report != ref_report:
                log(f"run {attempted}: report differs from the traced reference")
                ok = False
            if out["total_queries"] != ref_layers["scan.queries"]:
                log(f"run {attempted}: total_queries {out['total_queries']} != traced "
                    f"scan.queries {ref_layers['scan.queries']}")
                ok = False
        if not ok:
            failed += 1
            continue
        samples["study_cpu_s"].append(out["study_cpu_s"])
        samples["setup_s"].extend(out["setup_s"])
        samples["peak_rss_mb"].append(out["peak_rss_mb"])
        walls.append(out["study_wall_s"])
        log(f"run {attempted}: study {out['study_cpu_s']:.3f} CPU s, "
            f"{out['study_wall_s']:.3f} wall s, {out['total_queries']} queries")
    if walls:
        log(f"median wall time {statistics.median(walls):.3f}s over {len(walls)} studies")
    stat = {"study_cpu_s": iqm, "setup_s": iqm, "peak_rss_mb": statistics.median}
    metrics = {k: stat[k](v) for k, v in samples.items() if v}
    return attempted, failed, metrics, END_TO_END


def run_traced(runner, workload):
    attempted = failed = 0
    checks = []
    reports = set()
    ref_ckpt = None
    if workload == "reanalysis":
        attempted += 1
        writer, ref_ckpt = reference(runner, workload)
        if writer is None:
            raise SystemExit("perfbench: the traced checkpoint writer failed")
        reports.add(writer[1])

    def ckpt():
        if workload == "checkpointed-daily":
            return fresh_dir(WORK / "ckpt-run")
        return ref_ckpt

    attempted += 1
    plain = runner.study(workload, 1, ckpt())
    traced = []
    for tag in ("a", "b"):
        attempted += 1
        t = runner.trace(workload, ckpt(), tag=tag)
        if t is None:
            failed += 1
        else:
            traced.append(t)
    if plain is None:
        failed += 1
    if plain is None or len(traced) < 2:
        checks.append("a run failed")
    else:
        reports.update((plain[1], traced[0][1], traced[1][1]))
        if len(reports) != 1:
            checks.append("traced and untraced reports differ")
        a, b = traced[0][0], traced[1][0]
        for key in EXACT:
            if a[key] != b[key]:
                checks.append(f"{key} differs across traced runs: {a[key]} vs {b[key]}")
        if plain[0]["total_queries"] != a["scan.queries"]:
            checks.append("untraced total_queries != traced scan.queries")
        for t in (a, b):
            if not MIN_SPAN_COVERAGE <= t["trace.span_coverage"] <= 1.0:
                checks.append(f"spans cover {t['trace.span_coverage']:.4f} of the study")
    for c in checks:
        log(f"check failed: {c}")
    if checks and failed == 0:
        failed = attempted
    if not traced:
        return attempted, failed, {}, PER_LAYER
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        metrics[name] = statistics.median(t[0][name] for t in traced)
    if plain is not None:
        metrics["trace.overhead_s"] = metrics["trace.study_s"] - plain[0]["study_wall_s"]
    return attempted, failed, metrics, PER_LAYER


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bins = build()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    runner = Runner(bins, args.seed)
    try:
        if args.trace:
            attempted, failed, values, units = run_traced(runner, args.workload)
        else:
            workers = min(len(os.sched_getaffinity(0)), 2)
            attempted, failed, values, units = run_end_to_end(
                runner, args.workload, args.seconds, workers)
    finally:
        for d in ("ckpt-reference", "ckpt-run"):
            shutil.rmtree(WORK / d, ignore_errors=True)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
