"""Traced re-execution of one job, layer by layer.

:class:`StepwiseJob` redoes what :func:`repro.service.jobs.execute_job`
does for a ``compile`` or ``four-way`` job, but calls each layer's
public function itself and wraps every call in a span.  The payload it
builds must be byte-identical to the one ``execute_job`` returns for
the same spec; otherwise the spans would time a different program, and
the caller fails the run.

Two measurements are *probes*, taken after the job's root span ends and
left out of the layer sum:

* ``lexer`` -- a separate :func:`~repro.frontend.lexer.tokenize` call
  per parse; its time is subtracted from the parser's self time;
* ``engine.build`` -- a throwaway build of every function for each
  simulated run; the real build happens lazily inside ``machine.run``.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional

from repro.comm.optimizer import CommConfig, CommunicationOptimizer
from repro.config import RunConfig
from repro.earth.interpreter import Interpreter
from repro.earth.machine import Machine
from repro.earth.params import MachineParams
from repro.earth.rcache import DEFAULT_CAPACITY, DEFAULT_LINE_WORDS
from repro.frontend.goto_elim import eliminate_gotos
from repro.frontend.inline import inline_functions
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_program
from repro.frontend.simplify import simplify_program
from repro.frontend.typecheck import check_program
from repro.harness.pipeline import (
    CompiledProgram,
    resolve_config,
    simple_baseline_config,
)
from repro.comm.optconfig import resolve_opt
from repro.service.jobs import JobSpec, compile_payload, run_payload
from repro.simple.validate import validate_program

from metrics import SpanRecorder

#: Optimizer pass names (``OptimizationReport.passes``) -> layer span
#: names.
PASS_SPANS = {
    "locality": "optimizer.locality",
    "forwarding": "optimizer.forwarding",
    "place/select reads": "optimizer.reads",
    "place/select writes": "optimizer.writes",
    "split-phase": "optimizer.split_phase",
    "private lines": "optimizer.private_lines",
    "validate": "optimizer.validate",
}

#: Optimizer pass counters summed into per-layer counts.
OPTIMIZER_COUNTERS = ("tuples_generated", "tuples_killed",
                      "reads_forwarded", "pipelined_reads",
                      "pipelined_writes", "blocked_read_groups",
                      "blocked_write_groups", "redundant_reads_merged")

#: Machine counters summed into per-layer counts.
MACHINE_COUNTERS = ("remote_reads", "remote_writes", "remote_blkmovs",
                    "remote_blkmov_words", "remote_calls",
                    "basic_stmts_executed", "context_switches",
                    "fibers_spawned", "rcache_hits", "rcache_misses",
                    "rcache_invalidations", "rcache_private_skips")


#: Names numbered by process-wide counters, each with the group that
#: holds the number: statement labels with the padding that right-aligns
#: them (``repro.simple.nodes.fresh_label``), inlined locals
#: (``repro.frontend.inline``) and goto-elimination flags
#: (``repro.frontend.goto_elim``).
_COUNTED = (
    (re.compile(r"(?m)^ *S(\d+):"), lambda n, m: f"S{n}:"),
    (re.compile(r"__inl(\d+)_"), lambda n, m: f"__inl{n}_"),
    (re.compile(r"__(brk|cont|goto_\w+?)_(\d+)\b"),
     lambda n, m: f"__{m.group(1)}_{n}"),
)


def _renumber(text: str) -> str:
    """The same compile names statements, inlined locals and goto flags
    with different numbers, and pads labels to different widths,
    depending on what the process compiled before, because those
    numbers come from process-wide counters.  This renumbers each kind
    in order of first appearance and drops the padding; every other
    byte stays under comparison."""
    for pattern, render in _COUNTED:
        numbers: Dict[str, int] = {}

        def renumber(match, render=render, numbers=numbers) -> str:
            number = numbers.setdefault(match.group(match.lastindex),
                                        len(numbers) + 1)
            return render(number, match)

        text = pattern.sub(renumber, text)
    return text


def _canonical_value(value):
    if isinstance(value, str):
        return _renumber(value)
    if isinstance(value, dict):
        return {key: _canonical_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_canonical_value(item) for item in value]
    return value


def canonical(encoded: str) -> str:
    """``encoded`` JSON with counter-numbered names renumbered."""
    return payload_bytes(json.loads(encoded))


def payload_bytes(payload: Dict[str, object]) -> str:
    """The canonical encoding payloads are compared in."""
    return json.dumps(_canonical_value(payload), sort_keys=True)


def _engine_class(engine: str):
    if engine == "closure":
        from repro.earth.compile import ClosureEngine
        return ClosureEngine
    if engine == "codegen":
        from repro.earth.codegen import CodegenEngine
        return CodegenEngine
    return None  # the AST walker has nothing to build


class StepwiseJob:
    """Re-executes jobs into one :class:`SpanRecorder`, summing the
    layer counts of every job into :attr:`counts`."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.counts: Dict[str, int] = {}
        self._probes: List = []

    def _count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- entry point ---------------------------------------------------------

    def run(self, spec: JobSpec, job: str) -> str:
        """Re-execute ``spec`` under spans; returns the payload in the
        encoding of :func:`payload_bytes`."""
        self._probes = []
        with self.recorder.span("job", job) as root:
            resolved = spec.resolved()
            if spec.kind == "compile":
                encoded = self._compile_job(resolved, job, root)
            elif spec.kind == "four-way":
                encoded = self._four_way_job(resolved, job, root)
            else:
                raise ValueError(f"no stepwise path for {spec.kind} jobs")
        for probe in self._probes:
            probe()
        return canonical(encoded)

    # -- job kinds -------------------------------------------------------------

    def _compile_job(self, resolved, job, root) -> str:
        options = resolved["options"]
        compiled = self.compile(
            resolved["source"], resolved["filename"], job, root,
            optimize=options["optimize"],
            config=resolve_config(options["config"]),
            inline=resolved["inline"], opt=options["opt"],
            reorder_fields=options["reorder_fields"])
        with self.recorder.span("payload", job, root):
            return json.dumps(compile_payload(compiled), sort_keys=True)

    def _four_way_job(self, resolved, job, root) -> str:
        """``run_four_ways`` step by step (the order and arguments of
        ``repro.harness.pipeline._run_configurations``)."""
        config = RunConfig.from_json(resolved["run"])
        if config.rcache_capacity == 0:
            config = config.replace(rcache_capacity=DEFAULT_CAPACITY,
                                    rcache_line_words=DEFAULT_LINE_WORDS)
        base = config.replace(rcache_capacity=0)
        source, filename = resolved["source"], resolved["filename"]
        inline = resolved["inline"]
        results = {}
        with self.recorder.span("leg.sequential", job, root) as leg:
            compiled = self.compile(source, filename, job, leg,
                                    optimize=False, inline=inline)
            results["sequential"] = self.execute(
                compiled, base.replace(nodes=1), job, leg,
                params=MachineParams.sequential_c())
        with self.recorder.span("leg.simple", job, root) as leg:
            compiled = self.compile(source, filename, job, leg,
                                    optimize=True,
                                    config=simple_baseline_config(),
                                    inline=inline)
            results["simple"] = self.execute(compiled, base, job, leg)
        with self.recorder.span("leg.optimized", job, root) as leg:
            optimized = self.compile(source, filename, job, leg,
                                     optimize=True, inline=inline,
                                     opt=config.opt)
            results["optimized"] = self.execute(optimized, base, job, leg)
        with self.recorder.span("leg.rcached", job, root) as leg:
            results["rcached"] = self.execute(optimized, config, job, leg)
        values = {_norm(result.value) for result in results.values()}
        if len(values) != 1:
            raise AssertionError(
                f"configurations disagree on the program result: "
                f"{ {name: r.value for name, r in results.items()} }")
        with self.recorder.span("payload", job, root):
            return json.dumps({name: run_payload(result)
                               for name, result in results.items()},
                              sort_keys=True)

    # -- layers ----------------------------------------------------------------

    def compile(self, source: str, filename: str, job: str, parent,
                optimize: bool, config: Optional[CommConfig] = None,
                inline=False, opt=None,
                reorder_fields: bool = False) -> CompiledProgram:
        """``compile_earthc`` step by step, for the option combinations
        the workloads use."""
        if reorder_fields:
            raise ValueError("no stepwise path for reorder_fields")
        opt = resolve_opt(opt)
        if opt is not None and config is not None:
            raise ValueError("no stepwise path for config= with opt=")
        if isinstance(inline, list):
            inline = set(inline)
        span = self.recorder.span
        with span("parser", job, parent):
            program = parse_program(source, filename)
        self._probes.append(lambda: self._lex_probe(source, filename, job))
        with span("goto_elim", job, parent):
            eliminate_gotos(program)
        inlined = 0
        if inline:
            with span("inline", job, parent):
                only = inline if isinstance(inline, set) else None
                inlined = inline_functions(program, only=only)
        self._count("inline.calls", inlined)
        with span("typecheck", job, parent):
            symbols = check_program(program)
        with span("simplify", job, parent):
            simple = simplify_program(program, symbols)
        self._count("simplify.basic_stmts", sum(
            len(list(function.body.basic_stmts()))
            for function in simple.functions.values()))
        with span("validate", job, parent):
            validate_program(simple)
        report = None
        if optimize:
            if config is None and opt is not None:
                config = CommConfig(opt=opt)
            with span("optimizer", job, parent) as optimizer_span:
                report = CommunicationOptimizer(simple, config).run()
            # Pass spans come from the optimizer's own per-pass wall
            # times, laid end to end from the start of its span.
            cursor = optimizer_span.start
            for profile in report.passes:
                self.recorder.add(PASS_SPANS[profile.name], cursor,
                                  cursor + profile.wall_s, job,
                                  optimizer_span)
                cursor += profile.wall_s
                for name in OPTIMIZER_COUNTERS:
                    self._count(f"optimizer.{name}",
                                profile.counters.get(name, 0))
        return CompiledProgram(simple, optimize, report, inlined)

    def execute(self, compiled: CompiledProgram, config: RunConfig,
                job: str, parent, params: Optional[MachineParams] = None):
        """``pipeline.execute`` step by step (single process)."""
        if config.shards != 1:
            raise ValueError("no stepwise path for sharded runs")
        if params is None:
            params = config.machine_params()
        span = self.recorder.span
        with span("machine.setup", job, parent):
            machine = Machine(config.nodes, params,
                              strict_nil_reads=config.strict_nil_reads,
                              tracer=config.make_tracer(),
                              faults=config.fault_plan())
            interpreter = Interpreter(compiled.simple, machine,
                                      max_stmts=config.max_stmts,
                                      engine=config.engine)
            slot = interpreter.start(config.entry, config.args)
        with span("machine.run", job, parent):
            machine.run()
        with span("machine.finish", job, parent):
            result = interpreter.finish(config.entry, slot)
        stats = result.stats.snapshot()
        for name in MACHINE_COUNTERS:
            self._count(f"machine.{name}", stats[name])
        self._probes.append(
            lambda: self._build_probe(compiled, config, params, job))
        return result

    # -- probes ----------------------------------------------------------------

    def _lex_probe(self, source: str, filename: str, job: str) -> None:
        with self.recorder.span("lexer", job):
            tokens = tokenize(source, filename)
        self._count("lexer.tokens", len(tokens))

    def _build_probe(self, compiled: CompiledProgram, config: RunConfig,
                     params: MachineParams, job: str) -> None:
        engine_class = _engine_class(config.engine)
        if engine_class is None:
            return
        machine = Machine(config.nodes, params,
                          strict_nil_reads=config.strict_nil_reads)
        interpreter = Interpreter(compiled.simple, machine,
                                  max_stmts=config.max_stmts,
                                  engine=config.engine)
        with self.recorder.span("engine.build", job):
            engine = engine_class(interpreter)
            for name in sorted(compiled.simple.functions):
                engine.function(name)


def _norm(value):
    if isinstance(value, float):
        return round(value, 6)
    return value
