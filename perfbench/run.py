"""Run one workload of the benchmark and print its metrics.

Usage::

    python3 perfbench/run.py --workload miter_unsat --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout; the solver package is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
replays the same inputs with spans around the calls into each layer and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit and
sample count, the environment, and where the full report and the spans
were written (``.perfbench/`` in the checkout).

Every run pins ``PYTHONHASHSEED=0`` (re-executing itself if needed) and
fails when an input differs from ``perfbench/manifest.json``.  A wrong
answer makes ``correct`` false; an answer that is missing (UNKNOWN,
error, refusal) counts in ``failed``.  See ``perfbench/LAYERS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

T0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")

BATCH = ("miter_unsat", "vliw_sat", "cube_mult")
WORKLOADS = BATCH + ("serve_mixed",)
#: Set-ups measured per run: the run's own plus this many probes, each
#: in a fresh process; ``setup_s`` is their median.
SETUP_PROBES = 4

END_TO_END = {"setup_s": "s", "verdict_p50_s": "s", "verdict_tail_s": "s",
              "decided_per_s": "1/s", "check_p50_s": "s",
              "answered_share": "share", "peak_rss_mb": "MB"}

#: Per-layer metrics and units, of every workload.  A layer that a
#: workload bypasses reports 0 there.
PER_LAYER = {
    "gen.build_s": "s",
    "sim.correlate_s": "s", "sim.pairs": "count", "sim.constants": "count",
    "explicit.self_s": "s", "explicit.subproblems_run": "count",
    "explicit.refuted_share": "share", "explicit.learned_gates": "count",
    "engine.search_s": "s", "engine.decision_s": "s", "engine.bcp_s": "s",
    "engine.analyze_s": "s", "engine.clause_db_s": "s",
    "engine.conflicts": "count", "engine.decisions": "count",
    "engine.implications_per_s": "1/s", "engine.restarts": "count",
    "engine.jnode_decision_share": "share",
    "engine.correlation_decision_share": "share",
    "proof.steps": "count", "proof.check_s": "s", "proof.steps_per_s": "1/s",
    "verify.model_check_s": "s",
    "cube.cut_s": "s", "cube.cubes": "count", "cube.cube_p50_s": "s",
    "cube.pruned_share": "share", "cube.lemmas_shared": "count",
    "cube.worker_busy_share": "share", "cube.attempts_per_cube": "count",
    "runtime.supervised_ms": "ms", "runtime.child_solve_ms": "ms",
    "runtime.overhead_ms": "ms", "runtime.failures": "count",
    "serve.parse_ms": "ms", "serve.fingerprint_ms": "ms",
    "serve.cache_lookup_ms": "ms", "serve.cache_hit_share": "share",
    "serve.queue_wait_ms": "ms", "serve.unattributed_ms": "ms",
    "inc.prepass_ms": "ms", "inc.prepass_useful_share": "share",
    "inc.sweep_s": "s",
    "durable.journal_append_ms": "ms", "durable.records_per_job": "count",
    "trace.residual_share": "share", "trace.overhead_share": "share",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds, exit")
    return parser.parse_args(argv)


def pin_hash_seed() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

def setup(workload: str, tag: str):
    """Imports, input generation, a warm-up solve, and for serve_mixed
    server boot and store seeding.  Returns a context dict."""
    import inputs
    if workload in BATCH:
        import batch
        pool, build_s = batch.build_pool(inputs.batch_pool(workload))
        batch.warm_up(workload)
        return {"pool": pool, "build_s": build_s}
    import serve
    t0 = time.perf_counter()
    requests = inputs.serve_requests()
    build_s = time.perf_counter() - t0
    server = serve.ServerProcess(ROOT, os.path.join(
        WORKDIR, "{}-{}".format(tag, os.getpid())))
    server.start()
    try:
        serve.warm_up(server, inputs.warm_sweep_text())
    except BaseException:
        server.stop()
        raise
    return {"requests": requests, "server": server, "build_s": build_s}


def setup_probe(args) -> float:
    """Set up in a fresh process and return its set-up seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError("set-up probe failed: " + out.stderr[-500:])
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


# ----------------------------------------------------------------------
# Manifest check
# ----------------------------------------------------------------------

def check_inputs(workload: str, ctx) -> dict:
    """Fail on any input that differs from the manifest; returns the
    parsed serve circuits (by label) for the answer checks."""
    import inputs
    manifest = inputs.load_manifest()[workload]
    if workload in BATCH:
        for inst, circuit in ctx["pool"]:
            inputs.check_entry(manifest, inst.name, circuit)
        return {}
    parsed = {}
    for request in ctx["requests"]:
        circuit = inputs.parse_request(request)
        entry = inputs.check_entry(manifest, request.label, circuit)
        parsed[request.label] = (circuit, entry["expect"])
    return parsed


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def summarize(samples, attempted: int):
    """End-to-end metrics from ``(input, verdict_s, check_s or None,
    host_ms)`` of the correct answers.  Each time is first taken to the
    reference speed (``measure.at_reference``), then to the median over
    each input's visits: ``verdict_p50_s`` is the median input's,
    ``verdict_tail_s`` the slowest input's, and ``decided_per_s`` is the
    inputs over the sum of their times."""
    from measure import at_reference, input_medians, median
    verdicts = input_medians((name, at_reference(v, host))
                             for name, v, _, host in samples)
    checks = input_medians((name, at_reference(c, host))
                           for name, _, c, host in samples if c is not None)
    n = len(samples)
    return {
        "verdict_p50_s": (median(verdicts), n),
        "verdict_tail_s": (max(verdicts, default=0.0), n),
        "decided_per_s": (len(verdicts) / sum(verdicts) if verdicts
                          else 0.0, n),
        "check_p50_s": (median(checks),
                        sum(1 for _, _, c, _ in samples if c is not None)),
        "answered_share": (n / attempted, attempted),
    }


def batch_result(workload, ctx, args, recorder):
    import batch
    if args.trace:
        run = batch.run_traced(workload, ctx["pool"], args.seed,
                               args.seconds, recorder)
    else:
        run = batch.run_untraced(workload, ctx["pool"], args.seed,
                                 args.seconds)
    ok = [v for v in run.visits if v.ok]
    wrong = [v for v in run.visits if v.wrong]
    e2e = summarize([(v.name, v.verdict_s, v.check_s, v.host_ms)
                     for v in ok], len(run.visits))
    layers = dict(run.layers)
    layers["gen.build_s"] = ctx["build_s"]
    detail = {"passes": run.passes, "timed_s": run.timed_s,
              "notes": run.notes,
              "visits": [(v.name, v.verdict_s, v.check_s, v.host_ms)
                         for v in run.visits],
              "failures": [(v.name, v.detail) for v in run.visits
                           if not v.ok]}
    return e2e, layers, len(run.visits), len(run.visits) - len(ok), \
        not wrong, detail


def serve_result(ctx, args, parsed, recorder):
    import serve
    server = ctx["server"]
    passes = serve.pass_count(args.seconds)
    if args.trace:
        # The stage replay adds one more pass of in-process work.
        passes = max(1, passes // 2)
    def check(sent):
        circuit, expect = parsed[sent.request.label]
        return serve.check_reply(sent, circuit, expect)

    run = serve.run_closed(server, ctx["requests"], args.seed, passes,
                           scrape=bool(args.trace), check=check)
    layers = {}
    if args.trace:
        import inputs
        layers = serve.traced_layers(
            run, ctx["requests"], args.seed, inputs.warm_sweep_text(),
            recorder, os.path.join(WORKDIR, "replay-{}".format(os.getpid())),
            server.journal)
        layers["gen.build_s"] = ctx["build_s"]
    server.stop()
    samples, failures, wrong = [], [], []
    for sent in run["sends"]:
        ok, detail, check_s = sent.check
        if ok:
            samples.append((sent.request.label, sent.latency_s, check_s,
                            sent.host_ms))
            continue
        failures.append((sent.request.label, detail))
        status = (sent.snapshot.get("result") or {}).get("status")
        if status in ("SAT", "UNSAT"):
            wrong.append((sent.request.label, detail))
    attempted = len(run["sends"])
    e2e = summarize(samples, attempted)
    detail = {"passes": passes, "timed_s": run["timed_s"],
              "failures": failures, "wrong": wrong,
              "requests": [(s.request.label, s.latency_s, s.check[2],
                            s.host_ms, bool(s.snapshot.get("cached")))
                           for s in run["sends"]]}
    return e2e, layers, attempted, attempted - len(samples), not wrong, \
        detail


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_hash_seed()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print("error: cannot import the solver package from {}: {}".format(
            os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    imported = time.perf_counter() - T0
    from measure import Recorder
    os.makedirs(WORKDIR, exist_ok=True)
    if args.setup_only:
        ctx = setup(args.workload, "probe")
        setup_s = time.perf_counter() - T0
        if "server" in ctx:
            ctx["server"].stop()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from measure import HostClock, at_reference, reference_ms
    load_at_start = os.getloadavg()
    reference_at_start = reference_ms()
    # Set-up times are taken to the reference speed like every other
    # time (see measure.HostClock); the raw seconds go to the report.
    clock = HostClock()
    raw, samples = [], []
    for _ in range(SETUP_PROBES):
        raw.append(setup_probe(args))
        samples.append(at_reference(raw[-1], clock.around()))
    began = time.perf_counter()
    ctx = setup(args.workload, "run")
    raw.append(imported + time.perf_counter() - began)
    samples.append(at_reference(raw[-1], clock.around()))
    try:
        import inputs
        try:
            parsed = check_inputs(args.workload, ctx)
        except inputs.ManifestError as exc:
            print("error: {}".format(exc), file=sys.stderr)
            return 3
        recorder = Recorder()
        if args.workload in BATCH:
            e2e, layers, attempted, failed, correct, detail = batch_result(
                args.workload, ctx, args, recorder)
        else:
            e2e, layers, attempted, failed, correct, detail = serve_result(
                ctx, args, parsed, recorder)
    finally:
        if "server" in ctx:
            ctx["server"].stop()
    from measure import median
    e2e["setup_s"] = (median(samples), len(samples))
    e2e["peak_rss_mb"] = (peak_rss_mb(), 1)

    from repro.obs import environment_info
    environment = environment_info()
    environment.update(nproc=len(os.sched_getaffinity(0)),
                       loadavg_at_start=load_at_start,
                       reference_ms_at_start=reference_at_start,
                       reference_ms_at_end=reference_ms())
    if args.trace:
        units = PER_LAYER
        chosen = {name: (layers.get(name, 0.0), None) for name in units}
    else:
        chosen = e2e
        units = END_TO_END
    stem = os.path.join(WORKDIR, "{}-seed{}-trace{}".format(
        args.workload, args.seed, args.trace))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "setup_samples_s": samples,
              "setup_raw_s": raw,
              "end_to_end": {k: {"value": v, "samples": n}
                             for k, (v, n) in e2e.items()},
              "per_layer": layers, "detail": detail}
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if args.trace:
        recorder.dump(stem + ".spans.jsonl")
    for name, (value, n) in chosen.items():
        note = "" if n is None else "  (n={})".format(n)
        print("{:36s} {:>14.6g} {:6s}{}".format(name, value, units[name],
                                                note))
    print("environment: " + json.dumps(environment, sort_keys=True))
    print("report: " + os.path.relpath(stem + ".json", ROOT))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
