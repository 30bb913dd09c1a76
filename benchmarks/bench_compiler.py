"""Compiler-throughput benches: how fast is the toolchain itself.

These measure the host-side cost of the pipeline stages: lexing,
parsing and one alias-analysis build (points-to plus read/write
effects, what the optimizer rebuilds before each pass) over all ten
Olden sources, and the frontend and optimizer on the largest one
(possible-placement analysis is a single traversal and should stay
cheap).
"""

import pytest

from repro.analysis.points_to import analyze_points_to
from repro.analysis.rw_sets import EffectsAnalysis
from repro.comm.optimizer import optimize_program
from repro.frontend.goto_elim import eliminate_gotos
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_program
from repro.frontend.simplify import simplify_program
from repro.frontend.typecheck import check_program
from repro.harness.pipeline import compile_earthc
from repro.olden.loader import catalog, get_benchmark

SOURCES = {spec.name: spec.source() for spec in catalog()}
BIGGEST = max(SOURCES, key=lambda name: len(SOURCES[name]))


def test_lex_all_benchmarks(benchmark):
    def lex_all():
        return [tokenize(src, name) for name, src in SOURCES.items()]

    streams = benchmark(lex_all)
    assert all(tokens[-1].kind == "eof" for tokens in streams)


def test_alias_build_all_benchmarks(benchmark):
    programs = [compile_earthc(spec.source(), spec.name, optimize=False,
                               inline=spec.inline).simple
                for spec in catalog()]

    def build_all():
        return [EffectsAnalysis(program, analyze_points_to(program))
                for program in programs]

    analyses = benchmark(build_all)
    assert len(analyses) == len(SOURCES)


def test_parse_all_benchmarks(benchmark):
    def parse_all():
        return [parse_program(src, name)
                for name, src in SOURCES.items()]

    programs = benchmark(parse_all)
    assert len(programs) == len(SOURCES)


def test_frontend_to_simple(benchmark):
    source = SOURCES[BIGGEST]

    def frontend():
        program = parse_program(source, BIGGEST)
        eliminate_gotos(program)
        symbols = check_program(program)
        return simplify_program(program, symbols)

    simple = benchmark(frontend)
    assert simple.functions


def test_full_optimizing_compile(benchmark):
    spec = get_benchmark(BIGGEST)

    def build():
        return compile_earthc(spec.source(), spec.name, optimize=True,
                              inline=spec.inline)

    compiled = benchmark(build)
    assert compiled.optimized


def test_optimizer_alone(benchmark):
    spec = get_benchmark(BIGGEST)

    def run():
        compiled = compile_earthc(spec.source(), spec.name,
                                  optimize=False, inline=spec.inline)
        return optimize_program(compiled.simple)

    report = benchmark(run)
    assert report.selections
