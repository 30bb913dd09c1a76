"""The in-process workloads, run in a fresh child process.

``run.py`` starts this file once per set-up sample.  The child imports
the program, warms up, prints ``{"ready": ...}`` and, unless started
with ``--setup-only``, runs its workload and prints ``{"result": ...}``
as its last line.  Jobs go through :func:`repro.service.jobs.execute_job`
with no artifact cache, from one closed-loop caller.

* ``olden-table3`` -- one ``four-way`` job per Olden benchmark at its
  full ``default_args`` on 4 nodes: the paper's Table III sweep.
* ``compile-mix`` -- ``compile`` jobs: every Olden source under both
  ``OptConfig`` presets plus generated programs of every shape and mix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.config import RunConfig  # noqa: E402
from repro.harness.pipeline import PIPELINE_VERSION  # noqa: E402
from repro.olden.loader import catalog  # noqa: E402
from repro.service.jobs import JobSpec, execute_job  # noqa: E402
from repro.workload import generate_source  # noqa: E402

import golden  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from stepwise import StepwiseJob, payload_bytes  # noqa: E402

LEGS = ("sequential", "simple", "optimized", "rcached")


def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up() -> None:
    """Import and exercise every layer once on a program no workload
    uses, so lazily imported modules load before timing starts."""
    source = generate_source(random.Random("warm-up"),
                             "list", "balanced")
    result = execute_job(JobSpec("four-way", source=source, args=[3, 1]))
    if not result.ok:
        raise RuntimeError(f"warm-up job failed: {result.error}")


def _four_way_spec(name: str) -> JobSpec:
    return JobSpec("four-way", benchmark=name, nodes=4)


def _compile_spec(job: dict, tag: str) -> JobSpec:
    return JobSpec("compile", source=workloads.tagged(job["source"], tag),
                   filename=job["filename"], inline=job["inline"],
                   opt=job["opt"])


#: Seconds of work between two host-speed samples.
SPEED_INTERVAL_S = 0.25


class Outcome:
    """What one run observed: raw latencies with their start times,
    failures, deterministic digests per job, and the problems found."""

    def __init__(self):
        self.timings = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def record(self, key: str, began: float, latency: float,
               result) -> None:
        self.attempted += 1
        self.timings.append((began, latency, key))
        if not result.ok:
            self.failed += 1
            self.problems.append(f"{key}: {result.error}")
            return
        digest = hashlib.sha256(
            payload_bytes(result.payload).encode("utf-8")).hexdigest()
        previous = self.digests.setdefault(key, digest)
        if previous != digest:
            self.problems.append(f"{key}: payload differs between rounds")

    def wrong(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


# ---------------------------------------------------------------------------
# Untraced runs
# ---------------------------------------------------------------------------


def _timed_rounds(jobs, seconds: float, outcome: Outcome,
                  speed: metrics.HostSpeed):
    """Run whole rounds of ``jobs`` (``(key, make_spec(round))``
    pairs) until ``seconds`` have passed, sampling the host's speed
    every :data:`SPEED_INTERVAL_S`; returns (rounds, last payload per
    key)."""
    payloads = {}
    start = time.perf_counter()
    speed.sample()
    last_sample = time.perf_counter()
    rounds = 0
    while True:
        for key, make_spec in jobs:
            spec = make_spec(rounds)
            began = time.perf_counter()
            result = execute_job(spec)
            done = time.perf_counter()
            outcome.record(key, began, done - began, result)
            if result.ok:
                payloads[key] = result.payload
            if done - last_sample >= SPEED_INTERVAL_S:
                speed.sample()
                last_sample = time.perf_counter()
        rounds += 1
        if time.perf_counter() - start >= seconds:
            speed.sample()
            return rounds, payloads


def _common_metrics(outcome: Outcome, speed: metrics.HostSpeed) -> dict:
    """Closed loop, one caller: throughput is jobs over the time spent
    inside ``execute_job``; both it and the latencies are at reference
    host speed."""
    latencies = [speed.normalize(latency)
                 for _, latency, _ in outcome.timings]
    summary = metrics.timing_summary(latencies)
    summary["raw_p50_ms"] = metrics.percentile(
        [latency for _, latency, _ in outcome.timings], 50) * 1e3
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": summary["p50_ms"],
        "job_p95_ms": summary["p95_ms"],
        "ok_ratio": (outcome.attempted - outcome.failed)
        / outcome.attempted,
        "peak_rss_mb": _peak_rss_mb(),
    }, summary


def _check_legs(name: str, payload: dict, value, output,
                outcome: Outcome, jobs: int = 1) -> None:
    """Fails ``jobs`` jobs (those that returned ``payload``) when any
    leg differs from the reference."""
    mismatches = golden.leg_mismatches(name, payload, value, output)
    if mismatches:
        outcome.failed += jobs
        outcome.problems.extend(mismatches)


def run_olden(seed: int, seconds: float) -> dict:
    reference = golden.load_golden()
    order = workloads.olden_order(seed, [s.name for s in catalog()])
    outcome = Outcome()
    speed = metrics.HostSpeed()
    jobs = [(name, lambda r, name=name: _four_way_spec(name))
            for name in order]
    rounds, payloads = _timed_rounds(jobs, seconds, outcome, speed)
    # Every round of a benchmark returned the same payload (checked by
    # digest), so checking the last one checks them all.
    for name in order:
        if name in payloads:
            entry = reference[name]
            _check_legs(name, payloads[name], entry["value"],
                        entry["output"], outcome, jobs=rounds)
    values, summary = _common_metrics(outcome, speed)
    if len(payloads) == len(order):
        values.update(metrics.table3_figures(
            [payloads[name] for name in order]))
    return {"values": values, "summary": summary, "rounds": rounds,
            "outcome": outcome, "speed_samples": speed.samples}


def _olden_compile_inputs() -> dict:
    return {spec.name: {"source": spec.source(),
                        "filename": spec.filename,
                        "inline": sorted(spec.inline)
                        if not isinstance(spec.inline, bool)
                        else spec.inline}
            for spec in catalog()}


def run_compile_mix(seed: int, seconds: float) -> dict:
    round_jobs = workloads.compile_mix_round(seed, _olden_compile_inputs())
    outcome = Outcome()
    speed = metrics.HostSpeed()
    jobs = [(job["name"],
             lambda r, job=job: _compile_spec(job, f"round {r}"))
            for job in round_jobs]
    rounds, _ = _timed_rounds(jobs, seconds, outcome, speed)
    values, summary = _common_metrics(outcome, speed)
    # Correctness gate, outside the timed phase: each generated program
    # runs all four Table III configurations (the optimized leg runs
    # the program the compile job listed) and every leg must match the
    # 1-node AST run of the unoptimized compile.
    gate = []
    for job in round_jobs:
        if job["origin"] != "generated":
            continue
        outcome.attempted += 1
        value, output = golden.reference_run(
            job["source"], job["filename"], job["args"],
            RunConfig().max_stmts)
        result = execute_job(JobSpec("four-way", source=job["source"],
                                     filename=job["filename"],
                                     args=job["args"], opt=job["opt"]))
        if not result.ok:
            outcome.wrong(f"{job['name']} four-way: {result.error}")
            continue
        _check_legs(job["name"], result.payload, value, output, outcome)
        gate.append(result.payload)
    if len(gate) == sum(1 for j in round_jobs
                        if j["origin"] == "generated"):
        values.update(metrics.table3_figures(gate))
    return {"values": values, "summary": summary, "rounds": rounds,
            "outcome": outcome, "gate_programs": len(gate),
            "speed_samples": speed.samples}


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------


def run_traced(workload: str, seed: int, seconds: float,
               trace_path: str) -> dict:
    """Per job: the untraced ``execute_job`` call, then the stepwise
    re-execution under spans; the two payloads must be identical."""
    if workload == "olden-table3":
        reference = golden.load_golden()
        order = workloads.olden_order(seed, [s.name for s in catalog()])
        jobs = [(name, lambda r, name=name: _four_way_spec(name))
                for name in order]
    else:
        round_jobs = workloads.compile_mix_round(
            seed, _olden_compile_inputs())
        jobs = [(job["name"],
                 lambda r, job=job: _compile_spec(job, f"round {r}"))
                for job in round_jobs]
    recorder = metrics.SpanRecorder()
    stepwise = StepwiseJob(recorder)
    outcome = Outcome()
    untraced = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        for key, make_spec in jobs:
            spec = make_spec(rounds)
            began = time.perf_counter()
            result = execute_job(spec)
            latency = time.perf_counter() - began
            untraced += latency
            outcome.record(key, began, latency, result)
            traced = stepwise.run(spec, f"r{rounds}/{key}")
            if not result.ok:
                continue
            if traced != payload_bytes(result.payload):
                outcome.wrong(f"{key}: stepwise payload differs from "
                              f"execute_job")
            if workload == "olden-table3":
                entry = reference[key]
                _check_legs(key, result.payload, entry["value"],
                            entry["output"], outcome)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    layer_self, unattributed, total, probes = metrics.account(
        recorder.spans)
    accounted = sum(layer_self.values()) + unattributed
    if abs(accounted - total) > 1e-6 * max(total, 1.0):
        outcome.problems.append(
            f"layer self times sum to {accounted}, traced total {total}")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": recorder.to_json()}, handle)
    legs = metrics.durations_by_name(recorder.spans)
    return {"values": layer_metrics(layer_self, unattributed, total,
                                    probes, legs, stepwise.counts,
                                    untraced, rounds),
            "rounds": rounds, "outcome": outcome,
            "spans": len(recorder.spans)}


def layer_metrics(layer_self, unattributed, total, probes, inclusive,
                  counts, untraced, rounds) -> dict:
    """Per-round per-layer figures of a traced in-process run."""
    def self_s(name):
        return layer_self.get(name, 0.0) / rounds

    def count(name):
        return counts.get(name, 0) / rounds

    lex = probes.get("lexer", 0.0) / rounds
    run_s = self_s("machine.run")
    stmts = count("machine.basic_stmts_executed")
    generated = count("optimizer.tuples_generated")
    hits, misses = count("machine.rcache_hits"), count("machine.rcache_misses")
    figures = {f"leg.{leg}_s": inclusive.get(f"leg.{leg}", 0.0) / rounds
               for leg in LEGS}
    return figures | {
        "lexer.self_s": lex,
        "lexer.tokens_per_s": count("lexer.tokens") / lex if lex else 0.0,
        "parser.self_s": self_s("parser") - lex,
        "goto_elim.self_s": self_s("goto_elim"),
        "inline.self_s": self_s("inline"),
        "typecheck.self_s": self_s("typecheck"),
        "simplify.self_s": self_s("simplify"),
        "validate.self_s": self_s("validate"),
        "inline.calls": count("inline.calls"),
        "simplify.basic_stmts": count("simplify.basic_stmts"),
        "optimizer.self_s": self_s("optimizer"),
        "optimizer.locality_s": self_s("optimizer.locality"),
        "optimizer.forwarding_s": self_s("optimizer.forwarding"),
        "optimizer.reads_s": self_s("optimizer.reads"),
        "optimizer.writes_s": self_s("optimizer.writes"),
        "optimizer.split_phase_s": self_s("optimizer.split_phase"),
        "optimizer.private_lines_s": self_s("optimizer.private_lines"),
        "optimizer.validate_s": self_s("optimizer.validate"),
        "optimizer.tuples_generated": generated,
        "optimizer.tuples_killed": count("optimizer.tuples_killed"),
        "optimizer.tuples_kill_ratio":
            count("optimizer.tuples_killed") / generated
            if generated else 0.0,
        "optimizer.reads_forwarded": count("optimizer.reads_forwarded"),
        "optimizer.pipelined_reads": count("optimizer.pipelined_reads"),
        "optimizer.pipelined_writes": count("optimizer.pipelined_writes"),
        "optimizer.blocked_groups": count("optimizer.blocked_read_groups")
        + count("optimizer.blocked_write_groups"),
        "optimizer.redundant_reads_merged":
            count("optimizer.redundant_reads_merged"),
        "payload.self_s": self_s("payload"),
        "engine.build_s": probes.get("engine.build", 0.0) / rounds,
        "machine.setup_s": self_s("machine.setup"),
        "machine.run_s": run_s,
        "machine.finish_s": self_s("machine.finish"),
        "machine.stmts": stmts,
        "machine.host_ns_per_stmt": run_s * 1e9 / stmts if stmts else 0.0,
        "machine.context_switches": count("machine.context_switches"),
        "machine.fibers": count("machine.fibers_spawned"),
        "earth.remote_reads": count("machine.remote_reads"),
        "earth.remote_writes": count("machine.remote_writes"),
        "earth.remote_blkmovs": count("machine.remote_blkmovs"),
        "earth.remote_blkmov_words": count("machine.remote_blkmov_words"),
        "earth.remote_calls": count("machine.remote_calls"),
        "rcache.hits": hits,
        "rcache.misses": misses,
        "rcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "rcache.invalidations": count("machine.rcache_invalidations"),
        "rcache.private_skips": count("machine.rcache_private_skips"),
        "trace.unattributed_s": unattributed / rounds,
        "trace.overhead_ratio": total / untraced,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("olden-table3", "compile-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    opts = parser.parse_args(argv)
    warm_up()
    _emit({"ready": True, "pipeline_version": PIPELINE_VERSION})
    if opts.setup_only:
        return 0
    if opts.trace:
        run = run_traced(opts.workload, opts.seed, opts.seconds,
                         opts.trace_out)
    elif opts.workload == "olden-table3":
        run = run_olden(opts.seed, opts.seconds)
    else:
        run = run_compile_mix(opts.seed, opts.seconds)
    outcome = run.pop("outcome")
    run.update(attempted=outcome.attempted, failed=outcome.failed,
               problems=outcome.problems, digests=outcome.digests,
               timings=outcome.timings)
    _emit({"result": run})
    return 0


if __name__ == "__main__":
    sys.exit(main())
