"""Simulator wall-clock speed: the engine ladder on the Olden set.

One bench per (Olden benchmark, engine) pair across both engines (AST
walker, per-function codegen).  Each compiles the benchmark once
(optimized, 4 nodes) and measures pure *execution* wall-clock at the
catalog's full problem size, so the pairs directly yield codegen's
speedup over the reference tree walker.  The codegen runs also assert
bit-identical results against the AST run -- a speedup that changes
the answer is a bug, not a win.

``--engine NAME`` (repeatable, from benchmarks/conftest.py) restricts
the axis, e.g. ``--engine codegen``.
``--opt PRESET`` compiles the programs under that OptConfig preset
(e.g. ``--opt probabilistic`` for the CI opt leg); the cross-engine
bit-identity asserts hold per preset.

Regenerate the committed ``BENCH_sim_speed.json``::

    PYTHONPATH=src python -m pytest benchmarks/bench_sim_speed.py \
        --benchmark-only --benchmark-disable-gc \
        --benchmark-json=BENCH_sim_speed.json
"""

import pytest

from repro.earth.interpreter import ENGINES
from repro.harness.pipeline import compile_earthc, execute
from repro.olden.loader import catalog
from repro.config import RunConfig

#: Per-benchmark compiled programs and AST reference results, shared
#: across the engine parametrization so each program compiles once.
_COMPILED = {}
_REFERENCE = {}


def _compiled(spec, opt):
    key = (spec.name, opt)
    if key not in _COMPILED:
        _COMPILED[key] = compile_earthc(
            spec.source(), spec.filename, optimize=True,
            inline=spec.inline, opt=opt)
    return _COMPILED[key]


def _run(spec, engine, opt):
    return execute(_compiled(spec, opt),
                   config=RunConfig(nodes=4, args=tuple(spec.default_args),
                                    max_stmts=spec.max_stmts, engine=engine))


@pytest.mark.parametrize("engine", sorted(ENGINES))  # ast first
@pytest.mark.parametrize("name", [spec.name for spec in catalog()])
def test_engine_speed(benchmark, engine_axis, opt_axis, name, engine):
    if engine_axis and engine not in engine_axis:
        pytest.skip(f"--engine restricted to {engine_axis}")
    spec = next(s for s in catalog() if s.name == name)
    # Warm up once outside the timer: compiles the program and, for the
    # codegen engine, generates and compiles the per-function code.
    warm = _run(spec, engine, opt_axis)
    result = benchmark.pedantic(lambda: _run(spec, engine, opt_axis),
                                rounds=3, iterations=1,
                                warmup_rounds=0)
    assert result.value == warm.value
    if engine == "ast":
        _REFERENCE[name] = warm
    elif name in _REFERENCE:
        ref = _REFERENCE[name]
        assert result.value == ref.value
        assert result.time_ns == ref.time_ns
        assert result.output == ref.output
        assert result.stats.snapshot() == ref.stats.snapshot()
