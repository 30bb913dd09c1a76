"""The ``gateway-mixed`` workload: generated ``run`` jobs against one
``fleet-serve`` gateway, from a closed loop of client threads.

The gateway runs as ``python -m repro fleet-serve`` in its own process
group with at most ``nproc`` pool workers and a fresh cache directory.
Each client thread keeps one keep-alive connection and sends its next
request when the previous one has answered.  The request schedule comes
from :func:`workloads.gateway_round`; the gateway's hit, miss and
single-flight counts must equal the ones it predicts.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.config import RunConfig
from repro.service.jobs import JobSpec, execute_job
from repro.workload import generate_source

import golden
import metrics
import workloads

READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


class Gateway:
    """One ``fleet-serve`` process and its pool workers."""

    def __init__(self, root: str, cache_dir: str, workers: int,
                 log_path: str):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet-serve", "--port", "0",
             "--workers", str(workers), "--cache-dir", cache_dir],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
            start_new_session=True)
        self.workers = workers
        self.port: Optional[int] = None
        self._lines: "queue.Queue[bytes]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(b"")

    def wait_ready(self) -> None:
        """Block until the gateway announces its port and answers
        ``/healthz``."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while self.port is None:
            try:
                line = self._lines.get(
                    timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("gateway did not announce its port")
            if not line:
                raise RuntimeError(
                    f"gateway exited with code {self.proc.wait()}")
            text = line.decode("utf-8", "replace")
            if "http://" in text:
                address = text.split("http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
        while True:
            try:
                status, body = self.call("GET", "/healthz")
                if status == 200 and body.get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("gateway never became healthy")
            time.sleep(0.01)

    def call(self, method: str, path: str, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            data = None if body is None else json.dumps(body).encode()
            connection.request(method, path, body=data,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def metrics(self) -> Dict[str, object]:
        status, body = self.call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return body["metrics"]

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (``VmHWM``) of the gateway and its workers."""
        pids = [self.proc.pid]
        task_dir = f"/proc/{self.proc.pid}/task"
        for task in os.listdir(task_dir):
            with open(os.path.join(task_dir, task, "children")) as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def close(self) -> None:
        """Ask the gateway to stop; kill its process group if it does
        not, and wait for it either way."""
        try:
            if self.port is not None and self.proc.poll() is None:
                self.call("POST", "/v1/shutdown")
            self.proc.wait(timeout=15)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            self._reader.join(timeout=5)
            self.proc.stdout.close()
            self.log.close()


def warm_up(gateway: Gateway) -> None:
    """One small job per worker, concurrently, on programs no round
    uses, so every worker has imported the pipeline before timing."""
    rng = random.Random("gateway-warm-up")
    specs = [JobSpec("run", source=generate_source(
        rng, "list", "balanced"), args=[3, 1]).to_dict()
        for _ in range(gateway.workers)]
    failures = []

    def send(spec):
        status, body = gateway.call("POST", "/v1/jobs", spec)
        if status != 200:
            failures.append(body)

    threads = [threading.Thread(target=send, args=(spec,))
               for spec in specs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT_S)
    if failures or any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"gateway warm-up failed: {failures}")


def launch(root: str, cache_dir: str, workers: int, log_path: str):
    """Start a gateway and warm it up; returns ``(gateway, setup_s)``."""
    began = time.perf_counter()
    gateway = Gateway(root, cache_dir, workers, log_path)
    try:
        gateway.wait_ready()
        warm_up(gateway)
    except BaseException:
        gateway.close()
        raise
    return gateway, time.perf_counter() - began


# ---------------------------------------------------------------------------
# Closed-loop clients
# ---------------------------------------------------------------------------


class Phase:
    """Whole rounds of the schedule until ``seconds`` have passed.

    Within a round, ``clients`` threads each send their next request
    when the previous one has answered.  Between rounds the clients
    wait for each other and the host's speed is sampled while nothing
    of the benchmark runs.  Round numbers start at ``first_round`` and
    name the round in every source's header comment."""

    def __init__(self, gateway: Gateway, programs, schedule,
                 first_round: int, seconds: float,
                 recorder: Optional[metrics.SpanRecorder]):
        self.gateway = gateway
        self.programs = programs
        self.schedule = schedule
        self.first_round = first_round
        self.seconds = seconds
        self.recorder = recorder
        self.speed = metrics.HostSpeed()
        self.lock = threading.Lock()
        self.records: List[Dict[str, object]] = []
        self.errors: List[str] = []
        self.round_times: List[tuple] = []

    def _body(self, round_no: int, request) -> bytes:
        program = self.programs[request["program"]]
        spec = JobSpec("run", source=workloads.tagged(
            program["source"], f"round {round_no}"),
            filename=f"{program['name']}.ec", nodes=request["nodes"],
            args=program["args"])
        return json.dumps(spec.to_dict()).encode("utf-8")

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.gateway.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def _client(self, index: int, round_no: int, cursor: List[int],
                done: List[threading.Event]) -> None:
        connection = self.connections[index]
        recorder = self.recorder
        while True:
            with self.lock:
                position = cursor[0]
                if position == len(self.schedule):
                    return
                cursor[0] += 1
            request = self.schedule[position]
            try:
                for earlier in request["after"]:
                    if not done[earlier].wait(REQUEST_TIMEOUT_S):
                        raise RuntimeError(
                            f"waited too long for request {earlier}")
                job_start = time.perf_counter()
                body = self._body(round_no, request)
                began = time.perf_counter()
                connection.request(
                    "POST", "/v1/jobs", body=body,
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                envelope = json.loads(response.read())
                ended = time.perf_counter()
                record = _record(round_no, position, request,
                                 response.status, envelope, began,
                                 ended - began)
                with self.lock:
                    self.records.append(record)
                if recorder is not None:
                    job = f"r{round_no}/{position}"
                    root = recorder.add("job", job_start,
                                        time.perf_counter(), job)
                    call = recorder.add("client.request", began, ended,
                                        job, root)
                    wall = min(record["wall_s"], ended - began)
                    offset = (ended - began - wall) / 2
                    recorder.add("worker.execute_job", began + offset,
                                 began + offset + wall, job, call)
            except (OSError, ValueError, RuntimeError,
                    http.client.HTTPException) as exc:
                with self.lock:
                    self.errors.append(f"r{round_no}/{position}: {exc}")
                connection.close()
                connection = self.connections[index] = self._connect()
            finally:
                done[position].set()

    def _round(self, round_no: int, clients: int) -> None:
        cursor = [0]
        done = [threading.Event() for _ in self.schedule]
        threads = [threading.Thread(
            target=self._client, args=(index, round_no, cursor, done),
            name=f"client-{index}") for index in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def run(self, clients: int) -> None:
        self.connections = [self._connect() for _ in range(clients)]
        started = time.perf_counter()
        round_no = self.first_round
        try:
            while True:
                self.speed.sample()
                began = time.perf_counter()
                self._round(round_no, clients)
                self.round_times.append((began, time.perf_counter()))
                round_no += 1
                if time.perf_counter() - started >= self.seconds:
                    break
            self.speed.sample()
        finally:
            for connection in self.connections:
                connection.close()
        self.rounds = round_no - self.first_round

    def normalized_elapsed(self) -> float:
        """Summed round time at reference host speed."""
        return self.speed.normalize(sum(end - began
                                        for began, end in self.round_times))


def _record(round_no, position, request, status, envelope, began,
            latency):
    result = envelope.get("result") or {}
    record = {"round": round_no, "position": position,
              "cls": request["cls"], "program": request["program"],
              "began": began, "latency": latency, "status": status,
              "ok": status == 200 and bool(envelope.get("ok")),
              "cache": result.get("cache"),
              "singleflight": envelope.get("singleflight"),
              "wall_s": float(result.get("wall_s") or 0.0)}
    if record["ok"]:
        run = result["payload"]["run"]
        record.update(
            value=run["value"], output=run["output"],
            digest=hashlib.sha256(json.dumps(
                run, sort_keys=True).encode("utf-8")).hexdigest())
    return record


def _delta(after: Dict[str, object], before: Dict[str, object],
           name: str):
    return after[name] - before[name]


# ---------------------------------------------------------------------------
# Checks and figures
# ---------------------------------------------------------------------------


def check_phase(phase: Phase, expected: Dict[str, int],
                before: Dict[str, object], after: Dict[str, object],
                references: Dict[int, tuple], digests: Dict[str, str],
                problems: List[str]) -> int:
    """Checks every response of a phase against its reference, its
    cache disposition, and ``digests`` (run payload per schedule
    position, filled from the first response seen); returns the number
    of wrong or failed requests."""
    wrong = len(phase.errors)
    problems.extend(phase.errors)
    for record in phase.records:
        tag = f"r{record['round']}/{record['position']}"
        if not record["ok"]:
            wrong += 1
            problems.append(f"{tag}: status {record['status']}")
            continue
        value, output = references[record["program"]]
        if record["value"] != value or list(record["output"]) != output:
            wrong += 1
            problems.append(f"{tag}: value {record['value']!r}, "
                            f"reference {value!r}")
        first = digests.setdefault(str(record["position"]),
                                   record["digest"])
        if first != record["digest"]:
            wrong += 1
            problems.append(f"{tag}: payload differs between rounds")
        want = "hit" if record["cls"] == "repeat" else "miss"
        if record["cache"] != want or record["singleflight"]:
            problems.append(f"{tag}: cache {record['cache']}, "
                            f"expected {want}")
    rounds = phase.rounds
    observed = {
        "hits": _delta(after, before, "cache_hits"),
        "misses": _delta(after, before, "cache_misses"),
        "singleflight_joins": _delta(after, before, "singleflight_hits"),
        "rejected_busy": _delta(after, before, "rejected_busy"),
    }
    for name, value in observed.items():
        if value != expected[name] * rounds:
            problems.append(f"gateway {name} {value}, expected "
                            f"{expected[name]} x {rounds} rounds")
    if len(phase.records) + len(phase.errors) \
            != rounds * len(phase.schedule):
        problems.append("not every scheduled request was sent")
    return wrong


def reference_values(programs) -> Dict[int, tuple]:
    return {index: golden.reference_run(
        program["source"], f"{program['name']}.ec", program["args"],
        RunConfig().max_stmts) for index, program in enumerate(programs)}


def quality(programs, references, problems: List[str]):
    """Table III and Figure 10 figures of the round's programs (four
    configurations at the fresh requests' node count), each leg checked
    against the reference run; returns ``(figures, failed programs)``."""
    payloads = []
    for index, program in enumerate(programs):
        result = execute_job(JobSpec(
            "four-way", source=program["source"],
            filename=f"{program['name']}.ec",
            nodes=workloads.GATEWAY_NODES, args=program["args"]))
        if not result.ok:
            problems.append(f"{program['name']} four-way: {result.error}")
            continue
        value, output = references[index]
        mismatches = golden.leg_mismatches(program["name"], result.payload,
                                           value, output)
        if mismatches:
            problems.extend(mismatches)
            continue
        payloads.append(result.payload)
    if len(payloads) != len(programs):
        return {}, len(programs) - len(payloads)
    return metrics.table3_figures(payloads), 0


def run(root: str, work_dir: str, seed: int, seconds: float, traced: bool,
        setup_samples: int, workers: int, trace_path: str) -> dict:
    programs = workloads.gateway_programs(seed)
    schedule = workloads.gateway_round(seed, len(programs))
    expected = workloads.expected_counts(schedule)
    log_path = os.path.join(work_dir, "gateway.log")
    speed = metrics.HostSpeed()
    raw_setups = []
    for sample in range(setup_samples):
        cache_dir = os.path.join(work_dir, f"cache-{sample}")
        speed.sample()
        gateway, setup_s = launch(root, cache_dir, workers, log_path)
        raw_setups.append(setup_s)
        if sample < setup_samples - 1:
            gateway.close()
    problems: List[str] = []
    try:
        if traced:
            result = _run_traced(gateway, programs, schedule, expected,
                                 seconds, problems, trace_path)
        else:
            result = _run_untraced(gateway, programs, schedule, expected,
                                   seconds, problems)
    finally:
        gateway.close()
    result.update(setup_samples_s=[speed.normalize(s) for s in raw_setups],
                  raw_setup_samples_s=raw_setups,
                  problems=problems, expected_per_round=expected)
    return result


def _run_untraced(gateway, programs, schedule, expected, seconds,
                  problems) -> dict:
    before = gateway.metrics()
    phase = Phase(gateway, programs, schedule, 0, seconds, None)
    phase.run(workloads.GATEWAY_CLIENTS)
    after = gateway.metrics()
    peak_rss = gateway.peak_rss_mb()
    references = reference_values(programs)
    digests: Dict[str, str] = {}
    wrong = check_phase(phase, expected, before, after, references,
                        digests, problems)
    ok = [r for r in phase.records if r["ok"]]
    summary = metrics.timing_summary(
        [phase.speed.normalize(r["latency"]) for r in ok])
    summary["raw_p50_ms"] = metrics.percentile(
        [r["latency"] for r in ok], 50) * 1e3
    figures, gate_failed = quality(programs, references, problems)
    wrong += gate_failed
    attempted = len(phase.records) + len(phase.errors) + len(programs)
    values = {
        "jobs_per_s": len(ok) / phase.normalized_elapsed(),
        "job_p50_ms": summary["p50_ms"],
        "job_p95_ms": summary["p95_ms"],
        "ok_ratio": (attempted - wrong) / attempted,
        "peak_rss_mb": peak_rss,
    }
    values.update(figures)
    return {"values": values, "summary": summary, "rounds": phase.rounds,
            "attempted": attempted, "failed": wrong,
            "digests": digests,
            "timings": [(r["began"], r["latency"], r["position"])
                        for r in ok],
            "round_times": phase.round_times,
            "speed_samples": phase.speed.samples}


def _run_traced(gateway, programs, schedule, expected, seconds, problems,
                trace_path) -> dict:
    """Half the time untraced, half traced, on one gateway; the round
    numbers continue, so the traced half misses the cache just like the
    untraced half."""
    references = reference_values(programs)
    snapshot0 = gateway.metrics()
    plain = Phase(gateway, programs, schedule, 0, seconds / 2, None)
    plain.run(workloads.GATEWAY_CLIENTS)
    snapshot1 = gateway.metrics()
    recorder = metrics.SpanRecorder()
    traced = Phase(gateway, programs, schedule, plain.rounds, seconds / 2,
                   recorder)
    traced.run(workloads.GATEWAY_CLIENTS)
    snapshot2 = gateway.metrics()
    digests: Dict[str, str] = {}
    wrong = check_phase(plain, expected, snapshot0, snapshot1, references,
                        digests, problems)
    wrong += check_phase(traced, expected, snapshot1, snapshot2,
                         references, digests, problems)
    layer_self, unattributed, total, _ = metrics.account(recorder.spans)
    if abs(sum(layer_self.values()) + unattributed - total) \
            > 1e-6 * max(total, 1.0):
        problems.append("layer self times do not add up to the traced "
                        "total")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": recorder.to_json()}, handle)
    ok = [r for r in traced.records if r["ok"]]

    def median_ms(cls):
        values = [r["latency"] for r in ok if r["cls"] == cls]
        return statistics.median(values) * 1e3 if values else 0.0

    hits = _delta(snapshot2, snapshot1, "cache_hits")
    misses = _delta(snapshot2, snapshot1, "cache_misses")
    values = {
        "client.hit_ms": median_ms("repeat"),
        "client.miss_ms": median_ms("fresh"),
        "client.variant_ms": median_ms("variant"),
        "worker.compute_ms": statistics.fmean(
            r["wall_s"] for r in ok) * 1e3,
        "gateway.overhead_ms": statistics.fmean(
            r["latency"] - r["wall_s"] for r in ok) * 1e3,
        "artifact_cache.hit_ratio": hits / (hits + misses),
        "gateway.singleflight_joins": _delta(snapshot2, snapshot1,
                                             "singleflight_hits"),
        "gateway.rejected_busy": _delta(snapshot2, snapshot1,
                                        "rejected_busy"),
        "gateway.peak_queue_depth": snapshot2["peak_queue_depth"],
        "pool.busy_ratio": _delta(snapshot2, snapshot1, "busy_s")
        / (gateway.workers * sum(end - began
                                 for began, end in traced.round_times)),
        "trace.unattributed_s": unattributed / traced.rounds,
        "trace.overhead_ratio": (traced.normalized_elapsed() / traced.rounds)
        / (plain.normalized_elapsed() / plain.rounds),
    }
    attempted = sum(len(p.records) + len(p.errors)
                    for p in (plain, traced))
    return {"values": values, "rounds": plain.rounds + traced.rounds,
            "attempted": attempted, "failed": wrong, "digests": digests,
            "spans": len(recorder.spans)}
