"""Regression tests for the codegen engine's fallback to the AST walker.

Any function the code generator cannot prove it emits faithfully falls
back *whole* to the AST walker, and generated and walked functions call
each other through the engine cells.  Real programs rarely trip the
fallback, so these tests force it: every assign/call/alloc/blkmov/
shared emitter is made to fail, or single named functions are refused,
and the mixed execution must still be bit-identical -- value, output,
simulated time, and statistics -- to the pure AST engine, with and
without fault injection.
"""

import pytest

from repro.earth import codegen as codegen_mod
from repro.earth.faults import FaultPlan
from repro.harness.pipeline import compile_earthc, execute
from repro.olden.loader import catalog, get_benchmark
from repro.config import RunConfig

from tests.chaos.scripted import RMW_LOOP

#: Making these emitters raise forces per-function codegen -> AST
#: fallback for every function that uses the statement form.
CODEGEN_FALLBACK_SETS = [
    ("_gen_assign",),
    ("_gen_call",),
    ("_gen_alloc", "_gen_blkmov", "_gen_shared"),
    ("_gen_assign", "_gen_call", "_gen_alloc",
     "_gen_blkmov", "_gen_shared"),
]


def _record_fallbacks(monkeypatch):
    """Record the functions that actually fall back to the AST walker."""
    fallbacks = []
    original = codegen_mod.CodegenEngine.function

    def counting(self, name):
        result = original(self, name)
        fallbacks[:] = sorted(self.fallbacks)
        return result

    monkeypatch.setattr(codegen_mod.CodegenEngine, "function", counting)
    return fallbacks


def _force_codegen_fallback(monkeypatch, methods):
    """Make the chosen codegen emitters always raise ``_Uncompilable``."""
    for name in methods:
        def boom(self, stmt, *args, _name=name, **kwargs):
            raise codegen_mod._Uncompilable(f"forced: {_name}")
        monkeypatch.setattr(codegen_mod._CodeGenerator, name, boom)
    return _record_fallbacks(monkeypatch)


def _refuse_functions(monkeypatch, names):
    """Make the generator refuse exactly the named functions."""
    original = codegen_mod._CodeGenerator.generate

    def generate(self):
        if self.func.name in names:
            raise codegen_mod._Uncompilable(f"forced: {self.func.name}")
        return original(self)

    monkeypatch.setattr(codegen_mod._CodeGenerator, "generate", generate)
    return _record_fallbacks(monkeypatch)


def _identical(a, b):
    assert a.value == b.value
    assert a.output == b.output
    assert a.time_ns == b.time_ns
    assert a.stats.snapshot() == b.stats.snapshot()


def _power():
    spec = get_benchmark("power")
    compiled = compile_earthc(spec.source(), spec.filename,
                              optimize=True, inline=spec.inline)
    return compiled, RunConfig(nodes=4, args=tuple(spec.small_args))


@pytest.mark.parametrize("methods", CODEGEN_FALLBACK_SETS,
                         ids=lambda m: "+".join(n.replace("_gen_", "")
                                                for n in m))
class TestForcedCodegenFallback:
    def test_rmw_loop_bit_identical_to_ast(self, monkeypatch, methods):
        compiled = compile_earthc(RMW_LOOP, "rmw_loop.ec",
                                  optimize=True)
        reference = execute(compiled,
                            config=RunConfig(nodes=2, engine="ast"))
        fallbacks = _force_codegen_fallback(monkeypatch, methods)
        hybrid = execute(compiled,
                         config=RunConfig(nodes=2, engine="codegen"))
        _identical(hybrid, reference)
        assert fallbacks  # the AST walker actually took over

    def test_power_bit_identical_to_ast(self, monkeypatch, methods):
        compiled, config = _power()
        reference = execute(compiled, config=config.replace(engine="ast"))
        fallbacks = _force_codegen_fallback(monkeypatch, methods)
        hybrid = execute(compiled, config=config.replace(engine="codegen"))
        _identical(hybrid, reference)
        assert fallbacks


def test_codegen_fallback_agrees_under_faults(monkeypatch):
    """A codegen run with functions delegated to the AST walker must
    stay bit-identical to pure AST on the resilient network path too."""
    compiled = compile_earthc(RMW_LOOP, "rmw_loop.ec", optimize=True)
    plan = FaultPlan.from_profile("chaos", 6)
    reference = execute(compiled, faults=plan.clone(),
                        config=RunConfig(nodes=2, engine="ast"))
    fallbacks = _force_codegen_fallback(monkeypatch,
                                        CODEGEN_FALLBACK_SETS[-1])
    hybrid = execute(compiled, faults=plan.clone(),
                     config=RunConfig(nodes=2, engine="codegen"))
    _identical(hybrid, reference)
    assert fallbacks


POWER_FUNCTIONS = sorted(_power()[0].simple.functions)


@pytest.mark.parametrize("name", POWER_FUNCTIONS)
def test_one_walked_function_among_generated_ones(monkeypatch, name):
    """Mixed runs: exactly one power function runs on the AST walker,
    called from (and calling into) generated code -- plain calls and
    placed invocations alike -- with and without faults."""
    compiled, config = _power()
    plan = FaultPlan.from_profile("chaos", 3)
    reference = execute(compiled, config=config.replace(engine="ast"))
    faulty_reference = execute(compiled, faults=plan.clone(),
                               config=config.replace(engine="ast"))
    fallbacks = _refuse_functions(monkeypatch, {name})
    hybrid = execute(compiled, config=config.replace(engine="codegen"))
    _identical(hybrid, reference)
    assert fallbacks == [name]
    faulty = execute(compiled, faults=plan.clone(),
                     config=config.replace(engine="codegen"))
    _identical(faulty, faulty_reference)


@pytest.mark.parametrize("name", [spec.name for spec in catalog()])
def test_unforced_codegen_engine_does_not_fall_back(monkeypatch, name):
    """Every Olden function lowers to generated source: on an unpatched
    generator the AST fallback stays cold for all ten benchmarks (100%
    codegen coverage)."""
    fallbacks = _record_fallbacks(monkeypatch)
    spec = get_benchmark(name)
    compiled = compile_earthc(spec.source(), spec.filename,
                              optimize=True, inline=spec.inline)
    execute(compiled,
            config=RunConfig(nodes=4, args=tuple(list(spec.small_args)),
                             engine="codegen"))
    assert fallbacks == []


@pytest.mark.parametrize("name", [spec.name for spec in catalog()])
def test_half_walked_benchmark_under_faults(monkeypatch, name):
    """Every other function (in name order) of each Olden benchmark runs
    on the AST walker; under a chaos fault plan the mixed run must
    match the pure AST run bit for bit."""
    spec = get_benchmark(name)
    compiled = compile_earthc(spec.source(), spec.filename,
                              optimize=True, inline=spec.inline)
    config = RunConfig(nodes=4, args=tuple(spec.small_args))
    plan = FaultPlan.from_profile("chaos", 11)
    reference = execute(compiled, faults=plan.clone(),
                        config=config.replace(engine="ast"))
    walked = set(sorted(compiled.simple.functions)[::2])
    fallbacks = _refuse_functions(monkeypatch, walked)
    hybrid = execute(compiled, faults=plan.clone(),
                     config=config.replace(engine="codegen"))
    _identical(hybrid, reference)
    assert fallbacks and set(fallbacks) <= walked
