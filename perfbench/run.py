"""Benchmark of the EARTH-C compiler, simulator and serving stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload olden-table3 --seed 1 \\
        --seconds 20 --trace 0

Workloads (why each was chosen, and every metric with its unit and
bound: ``BENCHMARK.json``; what each layer should move:
``perfbench/LAYERS.md``):

* ``olden-table3`` -- the paper's Table III sweep in process;
* ``compile-mix`` -- compile jobs in process, no simulation;
* ``gateway-mixed`` -- generated run jobs through the HTTP gateway.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give sample counts and provenance, and the full report
(and, for traced runs, every span) is written under ``perfbench/out``.
The exit code is 0 only when every output was correct.

Every run starts from fresh processes and a fresh cache directory.
Set-up (process start, imports, gateway launch to ``/healthz``,
warm-up) is sampled :data:`SETUP_SAMPLES` times and reported as the
median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("olden-table3", "compile-mix", "gateway-mixed")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0


def declared_metrics():
    """``(end_to_end, per_layer)`` name -> unit maps from
    ``BENCHMARK.json``, the one list of metrics.  A per-layer metric
    that a workload does not exercise reads 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") \
            as handle:
        declared = json.load(handle)
    return ({m["name"]: m["unit"] for m in declared["end_to_end"]},
            {m["name"]: m["unit"] for m in declared["per_layer"]})


def provenance(seed: int, pipeline_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "git_commit": _git_commit(), "seed": seed,
            "pipeline_version": pipeline_version}


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git
    (a benchmark checkout is usually not a repository)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source tree (paths and bytes)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def check_repeats(out_dir: str, workload: str, seed: int,
                  digests: dict, problems: list) -> None:
    """Every run of one program, workload and seed, traced or not, must
    produce the same payload per job: compare with the digests earlier
    runs in this checkout recorded, then add this run's."""
    path = os.path.join(out_dir, f"determinism-{workload}-seed{seed}-"
                                 f"{source_digest()[:16]}.json")
    earlier = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
    for job, digest in sorted(digests.items()):
        if earlier.get(job, digest) != digest:
            problems.append(f"{job}: payload differs from an earlier run "
                            f"with this seed")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**digests, **earlier}, handle, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# In-process workloads: one child process per set-up sample
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    # The child puts this checkout's src/ on its path itself; an
    # inherited PYTHONPATH could shadow it with another copy.
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def _run_child(args, timeout: float):
    """Start ``inproc.py``; returns ``(setup_s, ready, result)``.  The
    child is always waited for."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "inproc.py")] + args,
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=None, text=True)
    try:
        ready_line = proc.stdout.readline()
        setup_s = time.perf_counter() - began
        rest = proc.stdout.read()
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if not ready_line or proc.returncode != 0:
        raise RuntimeError(f"inproc.py {' '.join(args)} exited with "
                           f"code {proc.returncode}")
    ready = json.loads(ready_line)
    result = None
    for line in rest.splitlines():
        if line.startswith('{"result"'):
            result = json.loads(line)["result"]
    return setup_s, ready, result


def run_inprocess(opts, trace_path: str) -> dict:
    import metrics
    base = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    speed = metrics.HostSpeed()
    raw_setups = []
    for sample in range(SETUP_SAMPLES):
        speed.sample()
        if sample < SETUP_SAMPLES - 1:
            setup_s, _, _ = _run_child(base + ["--setup-only"], 60.0)
        else:
            setup_s, ready, result = _run_child(
                base + ["--trace-out", trace_path], CHILD_TIMEOUT_S)
        raw_setups.append(setup_s)
    result["setup_samples_s"] = [speed.normalize(s) for s in raw_setups]
    result["raw_setup_samples_s"] = raw_setups
    result["pipeline_version"] = ready["pipeline_version"]
    return result


def run_gateway(opts, work_dir: str, trace_path: str) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gateway
    from repro.harness.pipeline import PIPELINE_VERSION
    # One pool worker: gateway, worker and client threads then need
    # about 1.3 cores, so the benchmark does not oversubscribe a
    # 2-core host, and the second client keeps the worker's queue
    # non-empty.
    result = gateway.run(ROOT, work_dir, opts.seed, opts.seconds,
                         bool(opts.trace), SETUP_SAMPLES, workers=1,
                         trace_path=trace_path)
    result["pipeline_version"] = PIPELINE_VERSION
    return result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="EARTH-C compiler/simulator/service benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is "
              f"missing", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{opts.workload}-seed{opts.seed}-"
                                 f"trace{opts.trace}")
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        if opts.workload == "gateway-mixed":
            result = run_gateway(opts, work_dir, stem + "-spans.json")
        else:
            result = run_inprocess(opts, stem + "-spans.json")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    end_to_end, per_layer = declared_metrics()
    values = dict(result["values"])
    if opts.trace:
        for name in per_layer:
            values.setdefault(name, 0.0)
    else:
        values["setup_s"] = statistics.median(result["setup_samples_s"])
    wanted = per_layer if opts.trace else end_to_end
    problems = list(result.get("problems", []))
    check_repeats(out_dir, opts.workload, opts.seed,
                  result.get("digests") or {}, problems)
    missing = [name for name in wanted if name not in values]
    if missing and not problems:
        problems.append(f"metrics not measured: {missing}")
    report = {"workload": opts.workload, "seconds": opts.seconds,
              "trace": opts.trace,
              "provenance": provenance(opts.seed,
                                       result["pipeline_version"]),
              "rounds": result.get("rounds"),
              "timing_samples": result.get("summary"),
              "setup_samples_s": result["setup_samples_s"],
              "raw_setup_samples_s": result["raw_setup_samples_s"],
              "attempted": result["attempted"], "failed": result["failed"],
              "problems": problems, "values": values,
              "digests": result.get("digests"),
              "timings": result.get("timings"),
              "round_times": result.get("round_times"),
              "speed_samples": result.get("speed_samples")}
    with open(stem + "-report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    for problem in problems[:20]:
        print(f"FAIL {problem}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    summary = result.get("summary")
    for name, unit in wanted.items():
        if name not in values:
            continue
        note = ""
        if name in ("job_p50_ms", "job_p95_ms", "jobs_per_s") and summary:
            note = f"  (n={summary['n']} jobs)"
            if name == "job_p95_ms":
                note += (f", {summary['p95_beyond']} beyond the 95th "
                         f"percentile")
        elif name == "setup_s":
            note = f"  (median of {len(result['setup_samples_s'])})"
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    correct = not problems and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
