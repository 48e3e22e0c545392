"""The ``serve_mixed`` workload: a closed loop against ``repro serve``.

The server runs in its own process with 2 workers and a fresh journal
and knowledge store in a temporary directory of the checkout.  Set-up
warms the store with one sweep of the mutated miters' base.  One client
then sends the fixed request pool of :func:`inputs.serve_requests` pass
after pass, one request at a time, each in a seeded order; a request's
latency is timed from its send to its reply.

Each pass sends its requests under its own budget class (the answer
cache keys on it, see ``repro.serve.cache.limits_class``), so every pass
solves the fresh requests again instead of answering them from the
cache.  The budget, tens of seconds, is far above any request's solve
time, so it does not change the work.  Each pass sends the renamed
duplicates after all fresh requests, so the cache answers them.

The traced run makes the same passes, scraping ``/metrics`` before and
after them, then replays one pass of the requests in-process through
the scheduler's stage functions, in the scheduler's order.
"""

from __future__ import annotations

import http.client
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from inputs import SAT, Request
from measure import HostClock, Recorder, median

SERVER_WORKERS = 2
#: The budget of pass k is ``BASE_SECONDS + k`` seconds.
BASE_SECONDS = 60
#: Nominal seconds of one pass over the pool on the 2-core x86 container
#: the benchmark was introduced on (Python 3.11).
PASS_SECONDS = 1.25


@dataclass
class Sent:
    """One request as the client saw it."""

    request: Request
    sent: float = 0.0
    done: Optional[float] = None
    snapshot: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    #: The answer check: (ok, detail, seconds of the model replay).
    check: Tuple[bool, str, Optional[float]] = (False, "unchecked", None)
    host_ms: float = 0.0   # the reference loop's time around the request

    @property
    def latency_s(self) -> Optional[float]:
        return None if self.done is None else self.done - self.sent


def request_limits(index: int) -> Dict[str, int]:
    return {"max_seconds": BASE_SECONDS + index}


class ServerProcess:
    """``repro serve`` in its own process, with a fresh state directory."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.journal = os.path.join(workdir, "journal.jsonl")
        self.store = os.path.join(workdir, "store.jsonl")
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        errpath = os.path.join(self.workdir, "server.err")
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        with open(errpath, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(SERVER_WORKERS), "--journal",
                 self.journal, "--store", self.store],
                stdout=subprocess.DEVNULL, stderr=err, env=env,
                cwd=self.root)
        deadline = time.monotonic() + timeout
        marker = "listening on http://"
        while time.monotonic() < deadline:
            with open(errpath) as fh:
                text = fh.read()
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                self.host, self.port = host, int(port)
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("repro serve did not start: " + text[-500:])

    def client(self):
        from repro.serve.client import ServeClient
        return ServeClient(self.host, self.port, timeout=60.0, retries=0)

    def metrics(self) -> Dict[str, float]:
        """``/metrics`` flattened to ``name{labels} -> value``."""
        from repro.obs import parse_exposition
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        flat: Dict[str, float] = {}
        for family in parse_exposition(text).values():
            for name, labels, value in family["samples"]:
                if labels:
                    name += "{" + ",".join(
                        "{}={}".format(k, v)
                        for k, v in sorted(labels.items())) + "}"
                flat[name] = float(value)
        return flat

    def stop(self) -> None:
        """Stop without draining the queue, wait for the process, and
        delete its state directory."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.client().shutdown(drain=False)
            except Exception:  # noqa: BLE001 — fall back to signals
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        shutil.rmtree(self.workdir, ignore_errors=True)


def warm_up(server: ServerProcess, sweep_text: str) -> None:
    """Seed the knowledge store with one sweep of ``sweep_text``, then
    solve one small miter so the solve path's lazy imports are paid
    before the first timed request."""
    from repro.circuit.bench_io import write_bench
    from inputs import masked_multiplier
    client = server.client()
    for text, engine in ((sweep_text, "sweep"),
                         (write_bench(masked_multiplier(2, None)), "csat")):
        snap = client.submit(circuit_text=text, engine=engine,
                             label="warm-" + engine, wait=60.0)
        if snap.get("state") != "DONE":
            snap = client.wait_for(snap["job"], timeout=120.0)
        result = snap.get("result") or {}
        if result.get("failures") or "error" in (result.get("absorbed")
                                                 or {}):
            raise RuntimeError("warm-up {} failed: {}".format(engine,
                                                              result))


def pass_count(seconds: float) -> int:
    return max(1, int(seconds // PASS_SECONDS))


def pass_order(requests: List[Request], seed: int, index: int
               ) -> List[Request]:
    """Fresh requests in a seeded order, then the duplicates, so each
    duplicate's original has been answered in the same budget class."""
    rng = random.Random(seed * 1_000_003 + index)
    fresh = [r for r in requests if r.cls != "duplicate"]
    twins = [r for r in requests if r.cls == "duplicate"]
    rng.shuffle(fresh)
    rng.shuffle(twins)
    return fresh + twins


def send(client, request: Request, index: int) -> Sent:
    """Submit one request and wait for its reply."""
    from repro.serve.client import ServeError
    sent = Sent(request, sent=time.perf_counter())
    try:
        snap = client.submit(circuit_text=request.text, engine="csat",
                             preset="explicit", label=request.label,
                             limits=request_limits(index), wait=60.0,
                             retries=0)
        if snap.get("state") not in ("DONE", "CANCELLED", "ERROR"):
            snap = client.wait_for(snap["job"], timeout=120.0, poll=30.0)
    except ServeError as exc:
        sent.done = time.perf_counter()
        sent.error = str(exc)
        return sent
    sent.done = time.perf_counter()
    sent.snapshot = snap
    sent.error = snap.get("error", "")
    return sent


def run_closed(server: ServerProcess, requests: List[Request], seed: int,
               passes: int, scrape: bool,
               check: Callable[[Sent], Tuple]) -> Dict[str, Any]:
    """Send the pool ``passes`` times, checking each reply as it arrives
    (so the checks, like the requests, are spread over the run); returns
    the replies and the wall seconds of the passes.  With ``scrape``,
    ``/metrics`` is read before and after the passes."""
    client = server.client()
    run: Dict[str, Any] = {"sends": [], "scrape_s": 0.0}
    if scrape:
        t0 = time.perf_counter()
        run["metrics_before"] = server.metrics()
        run["scrape_s"] += time.perf_counter() - t0
    clock = HostClock()
    started = time.perf_counter()
    for index in range(passes):
        for request in pass_order(requests, seed, index):
            sent = send(client, request, index)
            sent.check = check(sent)
            sent.host_ms = clock.around()
            run["sends"].append(sent)
    run["timed_s"] = time.perf_counter() - started
    if scrape:
        t0 = time.perf_counter()
        run["metrics_after"] = server.metrics()
        run["scrape_s"] += time.perf_counter() - t0
    run["wall_s"] = run["timed_s"] + run["scrape_s"]
    return run


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------

def check_reply(sent: Sent, circuit, expect: Optional[str]):
    """(ok, detail, seconds of the SAT model replay or None)."""
    from repro.verify.certify import certify_sat_model
    if sent.done is None:
        return False, "no reply", None
    if sent.error:
        return False, sent.error, None
    result = sent.snapshot.get("result") or {}
    if sent.snapshot.get("state") != "DONE":
        return False, "state {}".format(sent.snapshot.get("state")), None
    if result.get("failures"):
        return False, "failures {}".format(result["failures"]), None
    status = result.get("status")
    if status != expect:
        return False, "expected {}, got {}".format(expect, status), None
    if status != SAT:
        return True, "", None
    by_name = {circuit.name_of(pi) or "n{}".format(pi): pi
               for pi in circuit.inputs}
    model = {by_name[name]: bool(bit)
             for name, bit in (result.get("model_inputs") or {}).items()}
    t0 = time.perf_counter()
    cert = certify_sat_model(circuit, model)
    return cert.ok, cert.detail, time.perf_counter() - t0


# ----------------------------------------------------------------------
# The traced replay of the scheduler's stages
# ----------------------------------------------------------------------

class StageReplay:
    """The scheduler's per-request stages, called in its order, with a
    local answer cache, knowledge store and journal."""

    def __init__(self, workdir: str, warm_text: str):
        from repro.circuit.source import read_circuit_text
        from repro.durable.journal import Journal
        from repro.inc.store import KnowledgeStore
        from repro.serve.cache import AnswerCache
        os.makedirs(workdir, exist_ok=True)
        self.cache = AnswerCache()
        self.store = KnowledgeStore(os.path.join(workdir, "store.jsonl"))
        self.journal = Journal(os.path.join(workdir, "journal.jsonl"))
        self.jobs = 0
        t0 = time.perf_counter()
        self._sweep(read_circuit_text(warm_text, name="warm"), "warm")
        self.sweep_s = time.perf_counter() - t0

    def close(self) -> None:
        self.journal.close()

    def _supervise(self, job):
        from repro.runtime.supervisor import run_supervised
        return run_supervised(job, wall_seconds=BASE_SECONDS, certify="sat")

    def _sweep(self, circuit, label: str) -> None:
        """What the scheduler's sweep job does: sweep on a worker, then
        absorb the reduction into the store."""
        from repro.circuit.source import read_circuit_text
        from repro.core.sweep import SweepResult
        from repro.inc.replay import absorb_sweep
        from repro.runtime.worker import KIND_SWEEP, WorkerJob
        outcome = self._supervise(WorkerJob(
            circuit=circuit, name=KIND_SWEEP, kind=KIND_SWEEP,
            preset_name="explicit"))
        payload = outcome.payload or {}
        reduced = read_circuit_text(str(payload.get("sweep_bench") or ""),
                                    name=label + ".swept", fmt="bench")
        absorb_sweep(self.store, circuit, SweepResult(
            circuit=reduced,
            substitutions=dict(payload.get("sweep_substitutions") or {}),
            lemmas=[list(c) for c in payload.get("lemmas") or []]))

    def replay(self, request: Request, rec: Recorder) -> Dict[str, Any]:
        from repro.circuit.source import read_circuit_text
        from repro.inc.replay import incremental_prepass
        from repro.result import Limits
        from repro.runtime.worker import WorkerJob
        from repro.serve.fingerprint import fingerprint
        limits = Limits(max_seconds=BASE_SECONDS)
        self.jobs += 1
        key = "{}#{}".format(request.label, self.jobs)
        out: Dict[str, Any] = {"label": request.label, "key": key,
                               "prepass": None, "useful": False,
                               "outcome": None}
        with rec.span("request", key):
            with rec.span("serve.parse", key):
                circuit = read_circuit_text(request.text,
                                            name=request.label)
            with rec.span("serve.fingerprint", key):
                fp = fingerprint(circuit)
            with rec.span("serve.cache_lookup", key):
                hit = self.cache.lookup(circuit, fp, limits, "csat")
            self._append("admitted", rec, key, job=key, digest=fp.digest,
                         source={"circuit": request.text})
            if hit is not None:
                status = hit["status"]
            else:
                self._append("started", rec, key, job=key)
                with rec.span("inc.prepass", key):
                    prepass = incremental_prepass(circuit, self.store)
                out["prepass"] = prepass.seconds
                out["useful"] = prepass.useful
                target = prepass.circuit if prepass.useful else circuit
                seeds = list(prepass.seed_lemmas) if prepass.useful \
                    else None
                with rec.span("runtime.supervised", key):
                    outcome = self._supervise(WorkerJob(
                        circuit=target, name="csat:explicit", kind="csat",
                        preset_name="explicit", limits=limits,
                        seed_lemmas=seeds))
                out["outcome"] = outcome
                status = (outcome.result.status if outcome.ok
                          else "UNKNOWN")
                if status in ("SAT", "UNSAT"):
                    model = outcome.result.model
                    if status == SAT and prepass.useful:
                        model = prepass.map_model(model)
                    self.cache.store(fp, limits, "csat", status,
                                     model=model)
            self._append("finished", rec, key, job=key, status=status)
        out["status"] = status
        return out

    def _append(self, kind: str, rec: Recorder, key: str, **fields) -> None:
        with rec.span("durable.journal_append", key):
            self.journal.append(kind, **fields)


def _delta(before: Dict[str, float], after: Dict[str, float], prefix: str,
           label: str = "") -> float:
    return sum(v - before.get(k, 0.0) for k, v in after.items()
               if k.startswith(prefix) and label in k)


def traced_layers(run: Dict[str, Any], requests: List[Request], seed: int,
                  warm_text: str, rec: Recorder, workdir: str,
                  journal_path: str) -> Dict[str, float]:
    """Per-layer metrics of the traced run: a stage replay of one pass,
    matched to the live replies, plus the live server's ``/metrics``
    deltas over the passes and its journal."""
    replay = StageReplay(workdir, warm_text)
    try:
        replays = [replay.replay(r, rec)
                   for r in pass_order(requests, seed, 0)]
    finally:
        replay.close()
        shutil.rmtree(workdir, ignore_errors=True)

    def stage_ms(name: str) -> List[float]:
        return [d * 1e3 for d in rec.durations(name)]

    spans: Dict[str, Dict[str, float]] = {}
    for span in rec.spans:
        per = spans.setdefault(span.request, {})
        per[span.name] = per.get(span.name, 0.0) + span.seconds
    supervised, child, failures = [], [], 0
    for item in replays:
        outcome = item["outcome"]
        if outcome is None:
            continue
        if not outcome.ok or outcome.result is None:
            failures += 1
            continue
        supervised.append(spans[item["key"]]["runtime.supervised"] * 1e3)
        child.append(outcome.result.time_seconds * 1e3)
    # Live latency not covered by the replayed stages or the queue wait:
    # HTTP, the long poll and the server's own bookkeeping.  Each
    # request's median live reply is set against its replay.
    live: Dict[str, List[float]] = {}
    for sent in run["sends"]:
        if sent.latency_s is not None and not sent.error:
            live.setdefault(sent.request.label, []).append(
                sent.latency_s
                - float(sent.snapshot.get("queue_seconds", 0.0)))
    unattributed = [(median(live[item["label"]])
                     - spans[item["key"]]["request"]) * 1e3
                    for item in replays if item["label"] in live]
    ran = [r for r in replays if r["prepass"] is not None]
    before, after = run["metrics_before"], run["metrics_after"]
    hits = _delta(before, after, "repro_serve_cache_lookups_total",
                  "outcome=hit")
    lookups = _delta(before, after, "repro_serve_cache_lookups_total")
    solved = [s for s in run["sends"]
              if s.snapshot and not s.snapshot.get("cached")]
    with open(journal_path) as fh:
        records = sum(1 for line in fh if '"kind": "journal"' not in line)
    request_s = sum(rec.durations("request"))
    self_s = rec.self_seconds().get("request", 0.0)
    return {
        "runtime.supervised_ms": median(supervised),
        "runtime.child_solve_ms": median(child),
        "runtime.overhead_ms": median(supervised) - median(child),
        "runtime.failures": float(failures),
        "serve.parse_ms": median(stage_ms("serve.parse")),
        "serve.fingerprint_ms": median(stage_ms("serve.fingerprint")),
        "serve.cache_lookup_ms": median(stage_ms("serve.cache_lookup")),
        "serve.cache_hit_share": hits / lookups if lookups else 0.0,
        "serve.queue_wait_ms": median([
            float(s.snapshot.get("queue_seconds", 0.0)) * 1e3
            for s in solved]),
        "serve.unattributed_ms": median(unattributed),
        "inc.prepass_ms": median([r["prepass"] * 1e3 for r in ran]),
        "inc.prepass_useful_share": (sum(1 for r in ran if r["useful"])
                                     / len(ran) if ran else 0.0),
        "inc.sweep_s": replay.sweep_s,
        "durable.journal_append_ms": median(
            stage_ms("durable.journal_append")),
        # The warm-up's two jobs are in the journal too.
        "durable.records_per_job": records / (len(run["sends"]) + 2),
        "trace.residual_share": self_s / request_s if request_s else 0.0,
        "trace.overhead_share": run["scrape_s"] / run["wall_s"],
    }
