"""Unit tests of the benchmark's own logic.

Run from the root of the repository::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import golden  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402


# -- percentiles ---------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert metrics.percentile(samples, 0) == 1.0
    assert metrics.percentile(samples, 100) == 4.0
    assert metrics.percentile(samples, 50) == 2.5
    assert metrics.percentile([7.0], 95) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        metrics.percentile([], 50)
    with pytest.raises(ValueError):
        metrics.percentile([1.0], 101)


def test_ten_samples_beyond_rule():
    # 200 samples: the 95th percentile sits between ranks 189 and 190,
    # leaving exactly ten samples above it.
    assert metrics.samples_beyond(200, 95) == 10
    assert metrics.tail_meets_rule(200, 95)
    assert metrics.samples_beyond(199, 95) == 10
    assert not metrics.tail_meets_rule(180, 95)
    # A ten-benchmark sweep twice over has one sample beyond its p95.
    assert metrics.samples_beyond(20, 95) == 1
    assert metrics.samples_beyond(20, 50) == 10
    assert metrics.samples_beyond(0, 50) == 0


def test_timing_summary_reports_milliseconds_and_rule():
    samples = [i / 1000.0 for i in range(1, 201)]
    summary = metrics.timing_summary(samples)
    assert summary["n"] == 200
    assert math.isclose(summary["p50_ms"], 100.5)
    assert summary["p95_beyond"] == 10
    assert summary["p95_meets_rule"] is True


def test_geomean():
    assert math.isclose(metrics.geomean([1.0, 4.0]), 2.0)
    with pytest.raises(ValueError):
        metrics.geomean([1.0, 0.0])


def _leg(time_ns, reads=0, calls=0, value=7):
    return {"value": value, "output": [], "time_ns": time_ns,
            "stats": {"remote_reads": reads, "remote_writes": 1,
                      "remote_blkmovs": 0, "remote_calls": calls}}


def test_table3_figures_and_leg_check():
    payloads = [
        {"sequential": _leg(1.0), "simple": _leg(400.0),
         "optimized": _leg(100.0, reads=5, calls=1),
         "rcached": _leg(50.0)},
        {"sequential": _leg(1.0), "simple": _leg(100.0),
         "optimized": _leg(100.0, reads=2), "rcached": _leg(100.0)},
    ]
    figures = metrics.table3_figures(payloads)
    assert math.isclose(figures["sim_speedup_geomean"], 2.0)
    assert math.isclose(figures["rcache_speedup_geomean"], math.sqrt(2))
    assert figures["remote_ops"] == (5 + 1 + 1) + (2 + 1)
    assert golden.leg_mismatches("p", payloads[0], 7, []) == []
    payloads[0]["rcached"]["value"] = 8
    assert [m.split(":")[0] for m in
            golden.leg_mismatches("p", payloads[0], 7, [])] == ["p/rcached"]


def test_host_speed_scales_to_the_reference_loop():
    loops = iter([0.002, 0.004, 0.003, 0.001, 0.001, 0.001])
    speed = metrics.HostSpeed(loops=3, loop=lambda: next(loops))
    with pytest.raises(ValueError):
        speed.factor()
    assert speed.sample() == 0.003
    assert speed.sample() == 0.001
    # Mean loop time 2 ms against the 1 ms reference: times halve.
    assert math.isclose(speed.normalize(0.5), 0.25)


# -- spans -----------------------------------------------------------------------


def _tree():
    recorder = metrics.SpanRecorder()
    root = recorder.add("job", 0.0, 10.0, "j")
    leg = recorder.add("leg.simple", 1.0, 9.0, "j", root)
    parse = recorder.add("parser", 1.0, 4.0, "j", leg)
    optimizer = recorder.add("optimizer", 4.0, 8.0, "j", leg)
    recorder.add("optimizer.reads", 4.0, 5.0, "j", optimizer)
    recorder.add("optimizer.writes", 5.0, 7.5, "j", optimizer)
    recorder.add("lexer", 11.0, 12.5, "j")  # probe, outside the job
    return recorder, parse


def test_self_time_subtracts_children():
    recorder, parse = _tree()
    own = metrics.self_times(recorder.spans)
    by_name = {span.name: own[span.id] for span in recorder.spans}
    assert by_name["job"] == 2.0
    assert by_name["leg.simple"] == 1.0
    assert by_name["parser"] == 3.0
    assert by_name["optimizer"] == 0.5
    assert by_name["optimizer.writes"] == 2.5


def test_overlapping_children_are_covered_once():
    recorder = metrics.SpanRecorder()
    root = recorder.add("job", 0.0, 10.0, "j")
    recorder.add("a", 1.0, 5.0, "j", root)
    recorder.add("b", 3.0, 7.0, "j", root)
    recorder.add("c", 9.0, 12.0, "j", root)  # clipped to the parent
    own = metrics.self_times(recorder.spans)
    assert own[root.id] == 10.0 - 6.0 - 1.0


def test_account_splits_layers_glue_and_probes():
    recorder, _ = _tree()
    layers, unattributed, total, probes = metrics.account(recorder.spans)
    assert total == 10.0
    assert unattributed == 2.0 + 1.0  # job self + leg self
    assert layers == {"parser": 3.0, "optimizer": 0.5,
                      "optimizer.reads": 1.0, "optimizer.writes": 2.5}
    assert math.isclose(sum(layers.values()) + unattributed, total)
    assert probes == {"lexer": 1.5}


def test_span_context_manager_uses_clock():
    ticks = iter([1.0, 2.0, 3.5, 6.0])
    recorder = metrics.SpanRecorder(clock=lambda: next(ticks))
    with recorder.span("job", "j") as root:
        with recorder.span("parser", "j", root):
            pass
    assert [(s.name, s.start, s.end, s.parent) for s in recorder.spans] \
        == [("job", 1.0, 6.0, None), ("parser", 2.0, 3.5, 0)]
    assert recorder.to_json()[1]["parent"] == 0


# -- seeded inputs -----------------------------------------------------------------

OLDEN = {"alpha": {"source": "int main() { return 1; }\n",
                   "filename": "alpha.ec", "inline": False},
         "beta": {"source": "int main() { return 2; }\n",
                  "filename": "beta.ec", "inline": ["f"]}}


def test_generation_is_byte_identical_for_a_seed():
    assert workloads.compile_mix_round(7, OLDEN) \
        == workloads.compile_mix_round(7, OLDEN)
    assert workloads.gateway_programs(7) == workloads.gateway_programs(7)
    assert workloads.gateway_round(7, 9) == workloads.gateway_round(7, 9)
    assert workloads.olden_order(7, ["b", "a", "c"]) \
        == workloads.olden_order(7, ["c", "b", "a"])
    assert workloads.compile_mix_round(7, OLDEN) \
        != workloads.compile_mix_round(8, OLDEN)
    assert workloads.gateway_programs(7) != workloads.gateway_programs(8)


def test_compile_mix_round_covers_every_stratum():
    jobs = workloads.compile_mix_round(3, OLDEN)
    olden = [job for job in jobs if job["origin"] == "olden"]
    assert sorted(job["name"] for job in olden) == [
        "alpha/legacy", "alpha/probabilistic",
        "beta/legacy", "beta/probabilistic"]
    generated = [job for job in jobs if job["origin"] == "generated"]
    strata = {(job["shape"], job["mix"]) for job in generated}
    assert len(strata) == 9
    assert len(generated) == 9 * workloads.COMPILE_MIX_PER_STRATUM
    programs = workloads.gateway_programs(3)
    assert len(programs) == 9 * workloads.GATEWAY_PER_STRATUM
    assert len({(p["shape"], p["mix"]) for p in programs}) == 9


def test_tagged_sources_differ_only_in_the_header():
    a = workloads.tagged("int main() { return 0; }\n", "round 0")
    b = workloads.tagged("int main() { return 0; }\n", "round 1")
    assert a != b
    assert a.split("\n", 1)[1] == b.split("\n", 1)[1]


# -- gateway expected counts ---------------------------------------------------------


def test_expected_counts_by_hand():
    requests = [
        {"cls": "fresh", "program": 0, "nodes": 4},
        {"cls": "fresh", "program": 1, "nodes": 4},
        {"cls": "repeat", "program": 0, "nodes": 4},
        {"cls": "variant", "program": 0, "nodes": 2},
        {"cls": "repeat", "program": 1, "nodes": 4},
        {"cls": "repeat", "program": 0, "nodes": 2},
    ]
    assert workloads.expected_counts(requests) == {
        "hits": 3, "misses": 3, "variants": 1,
        "singleflight_joins": 0, "rejected_busy": 0}


@pytest.mark.parametrize("seed", range(20))
def test_gateway_round_invariants(seed):
    clients = workloads.GATEWAY_CLIENTS
    programs = len(workloads.gateway_programs(seed))
    requests = workloads.gateway_round(seed, programs, clients)
    counts = workloads.expected_counts(requests)
    classes = [r["cls"] for r in requests]
    assert classes.count("fresh") == programs == 54
    assert counts["hits"] == classes.count("repeat") == 18
    assert counts["misses"] == 54 + classes.count("variant") == 54 + 9
    seen_programs = set()
    for position, request in enumerate(requests):
        key = (request["program"], request["nodes"])
        if request["cls"] == "fresh":
            assert request["program"] not in seen_programs
            seen_programs.add(request["program"])
        else:
            # The referenced request is at least `clients` positions
            # back, so a closed loop has finished it.
            assert request["origin"] <= position - clients
            origin = requests[request["origin"]]
            assert origin["program"] == request["program"]
        assert request["after"] == [
            i for i in range(position)
            if (requests[i]["program"], requests[i]["nodes"]) == key]
    variants = [r for r in requests if r["cls"] == "variant"]
    assert len({r["program"] for r in variants}) == len(variants)
    assert all(r["nodes"] == workloads.VARIANT_NODES for r in variants)
