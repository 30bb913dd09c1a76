"""The unified RunConfig surface and its deprecation story.

One options object now drives the CLI, ``execute``, the three/four-way
harness, and the service job executor.  These tests pin the value-object
contract (validation, JSON round-trip, digest stability), the exact
deprecation behaviour of the old loose kwargs, and the stable public
names exported from :mod:`repro`.
"""

import argparse
import json
import re
import warnings
from pathlib import Path

import pytest

import repro
from repro.comm.optimizer import CommConfig
from repro.config import (
    DEFAULT_MAX_STMTS,
    ENGINES,
    PARAMS_PRESETS,
    RunConfig,
    config_digest,
)
from repro.earth.faults import FaultPlan
from repro.errors import ReproError
from repro.harness.pipeline import (
    compile_earthc,
    compile_source,
    execute,
    run,
    run_three_ways,
)

SOURCE = """
int main()
{
    int *p;
    int x;
    p = (int *) malloc(sizeof(int)) @ 1;
    *p = 21;
    x = *p;
    return x + x;
}
"""


@pytest.fixture(scope="module")
def compiled():
    return compile_earthc(SOURCE, optimize=False)


class TestValueObject:
    def test_defaults(self):
        config = RunConfig()
        assert config.nodes == 1
        assert config.entry == "main"
        assert config.engine == "codegen"
        assert config.rcache_capacity == 0
        assert config.max_stmts == DEFAULT_MAX_STMTS
        assert config.faults is None

    def test_frozen_and_hashable_by_value(self):
        a = RunConfig(nodes=4, args=(2, 3))
        b = RunConfig(nodes=4, args=(2, 3))
        assert a == b and hash(a) == hash(b)
        with pytest.raises(dataclasses_frozen_error()):
            a.nodes = 8

    def test_args_coerced_to_tuple(self):
        assert RunConfig(args=[1, 2]).args == (1, 2)

    @pytest.mark.parametrize("bad", [
        dict(nodes=0),
        dict(engine="jit"),
        dict(params="turbo"),
        dict(rcache_capacity=-1),
        dict(rcache_line_words=0),
        dict(rcache_policy="mru"),
        dict(max_stmts=0),
        dict(trace_capacity=0),
        dict(faults={"seed": 1, "warp_factor": 9}),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ReproError):
            RunConfig(**bad)

    def test_replace_revalidates(self):
        config = RunConfig(nodes=4)
        assert config.replace(nodes=2).nodes == 2
        assert config.nodes == 4  # original untouched
        with pytest.raises(ReproError):
            config.replace(engine="jit")

    def test_machine_params_applies_rcache_geometry(self):
        params = RunConfig(rcache_capacity=32, rcache_line_words=8,
                           rcache_policy="fifo").machine_params()
        assert params.rcache_capacity == 32
        assert params.rcache_line_words == 8
        assert params.rcache_policy == "fifo"
        seq = RunConfig(params="sequential-c").machine_params()
        assert seq.ctx_switch_ns == 0.0 and seq.spawn_ns == 0.0

    def test_fault_plan_mints_fresh_plans(self):
        spec = FaultPlan.from_profile("mild", 3).spec()
        config = RunConfig(faults=spec)
        assert config.fault_plan() is not config.fault_plan()
        assert RunConfig().fault_plan() is None

    def test_engines_and_presets_constants(self):
        assert ENGINES == ("ast", "codegen")
        assert "default" in PARAMS_PRESETS


class TestSerialization:
    def test_json_round_trip(self):
        config = RunConfig(nodes=4, args=(10, 2.5), engine="ast",
                           rcache_capacity=64,
                           faults=FaultPlan.from_profile("mild", 1).spec(),
                           trace=True, trace_capacity=100)
        blob = json.dumps(config.to_json(), sort_keys=True)
        assert RunConfig.from_json(json.loads(blob)) == config

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="unknown run config"):
            RunConfig.from_json({"nodes": 2, "warp": True})
        with pytest.raises(ReproError):
            RunConfig.from_json([1, 2])

    def test_digest_is_stable_and_field_sensitive(self):
        a = RunConfig(nodes=4)
        assert config_digest(a) == config_digest(RunConfig(nodes=4))
        assert config_digest(a) != config_digest(a.replace(nodes=2))
        assert config_digest(a) != config_digest(
            a.replace(rcache_capacity=64))
        assert len(config_digest(a)) == 12

    def test_from_cli_args_tolerates_sparse_namespaces(self):
        opts = argparse.Namespace(nodes=4, engine="ast",
                                  rcache_capacity=16, rcache_line=8)
        config = RunConfig.from_cli_args(opts, args=(5,))
        assert config.nodes == 4
        assert config.engine == "ast"
        assert config.rcache_capacity == 16
        assert config.rcache_line_words == 8
        assert config.args == (5,)
        bare = RunConfig.from_cli_args(argparse.Namespace())
        assert bare == RunConfig()


class TestDeprecationShims:
    def test_loose_kwargs_warn_but_still_work(self, compiled):
        with pytest.warns(DeprecationWarning, match="RunConfig"):
            legacy = execute(compiled, num_nodes=2)
        modern = execute(compiled, config=RunConfig(nodes=2))
        assert legacy.value == modern.value == 42
        assert legacy.time_ns == modern.time_ns
        assert legacy.stats.snapshot() == modern.stats.snapshot()

    def test_config_plus_loose_kwarg_is_an_error(self, compiled):
        with pytest.raises(TypeError, match="num_nodes"):
            execute(compiled, num_nodes=2, config=RunConfig(nodes=2))

    def test_run_three_ways_loose_kwargs_warn(self):
        with pytest.warns(DeprecationWarning):
            results = run_three_ways(SOURCE, num_nodes=2)
        assert results["optimized"].value == 42

    def test_run_three_ways_explicit_config_nodes_respected(self):
        # config= must not be bumped to the historical 4-node default:
        # on one node everything is local.
        single = run_three_ways(SOURCE, config=RunConfig(nodes=1))
        assert single["simple"].stats.remote_reads == 0
        multi = run_three_ways(SOURCE)  # legacy default stays 4 nodes
        assert multi["simple"].stats.remote_reads > 0

    def test_run_three_ways_commconfig_positional_warns(self):
        with pytest.warns(DeprecationWarning, match="comm_config"):
            results = run_three_ways(SOURCE, config=CommConfig())
        assert results["optimized"].value == 42

    def test_quiet_when_config_only(self, compiled):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            execute(compiled, config=RunConfig(nodes=2))
            run_three_ways(SOURCE, config=RunConfig(nodes=2))

    def test_live_overrides_are_not_deprecated(self, compiled):
        from repro.obs.trace import Tracer
        tracer = Tracer()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = execute(compiled, tracer=tracer,
                             config=RunConfig(nodes=2))
        assert result.value == 42
        assert len(tracer.sorted_events()) > 0


class TestPublicSurface:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_stable_entry_points(self):
        assert repro.compile_source is compile_source
        assert compile_source is compile_earthc
        assert repro.RunConfig is RunConfig
        assert repro.run is run
        assert repro.__version__.count(".") == 2

    def test_version_lives_in_one_place(self):
        """pyproject.toml reads the package version from
        ``repro.__version__`` instead of repeating it."""
        root = Path(__file__).resolve().parents[2]
        pyproject = (root / "pyproject.toml").read_text()
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = {attr = "repro.__version__"}' in pyproject
        assert not re.search(r'(?m)^version\s*=\s*"', pyproject)

    def test_run_one_stop(self):
        result = run(SOURCE, config=RunConfig(nodes=2,
                                              rcache_capacity=8))
        assert result.value == 42
        assert result.stats.rcache_hits >= 0


def dataclasses_frozen_error():
    import dataclasses
    return dataclasses.FrozenInstanceError
