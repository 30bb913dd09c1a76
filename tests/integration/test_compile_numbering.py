"""Per-compile numbering of statement labels, inlined locals and goto
flags (:mod:`repro.numbering`).

The same source must compile to the same bytes no matter what the
process compiled before: job payloads are compared and cached by
content, and the codegen engine's code cache is keyed by the emitted
source, which embeds statement labels.
"""

from __future__ import annotations

import json
import sys
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.earth import codegen as codegen_mod
from repro.earth.codegen import CodegenEngine
from repro.earth.interpreter import Interpreter
from repro.earth.machine import Machine
from repro.harness.pipeline import compile_earthc
from repro.numbering import numbering_scope
from repro.olden.loader import catalog
from repro.service import jobs
from repro.service.jobs import JobSpec, execute_job
from repro.simple import nodes

#: Exercises all three counters: an inlined helper (``__inlN_``
#: locals), a ``break`` (a goto-elimination flag) and remote reads
#: (labels baked into generated code as ``Slot('read@N')``).
SOURCE = """
struct cell { int value; struct cell *next; };

int twice(int x) { int y; y = x + x; return y; }

int walk(struct cell *head, int limit) {
    int total;
    total = 0;
    while (head != NULL) {
        if (total > limit) break;
        total = total + twice(head->value);
        head = head->next;
    }
    return total;
}

int main() {
    struct cell *a;
    struct cell *b;
    a = (struct cell *) malloc(sizeof(struct cell)) @ 0;
    b = (struct cell *) malloc(sizeof(struct cell)) @ 1;
    a->value = 40; a->next = b;
    b->value = 2; b->next = NULL;
    return walk(a, 1000);
}
"""

UNRELATED = """
int sum(int n) { int i; int t; t = 0; i = 0;
    while (i < n) { if (i == 7) break; t = t + i; i = i + 1; }
    return t; }
int main() { return sum(10); }
"""


def _fresh_payload(spec):
    """The payload of ``spec``, compiled anew (not from the worker's
    compile memo)."""
    jobs._COMPILE_MEMO.clear()
    result = execute_job(spec)
    assert result.ok, result.error
    return json.dumps(result.payload, sort_keys=True)


def _compile_payload():
    return _fresh_payload(JobSpec("compile", source=SOURCE,
                                  filename="walk.ec", inline=True))


def test_recompile_is_byte_identical():
    first = compile_earthc(SOURCE, "walk.ec", optimize=True, inline=True)
    first_payload = _compile_payload()
    compile_earthc(UNRELATED, "other.ec", optimize=True, inline=True)
    second = compile_earthc(SOURCE, "walk.ec", optimize=True, inline=True)
    assert second.listing() == first.listing()
    assert second.threaded_listing() == first.threaded_listing()
    assert _compile_payload() == first_payload
    # The counters really ran: all three kinds of names are present.
    listing = first.listing()
    assert "__inl1_" in listing and "__brk_1" in listing


def _labels(compiled):
    return sorted(stmt.label
                  for function in compiled.simple.functions.values()
                  for stmt in function.body.walk())


def test_labels_are_unique_and_independent_of_earlier_compiles():
    labels = _labels(compile_earthc(SOURCE, "walk.ec"))
    assert len(set(labels)) == len(labels)
    compile_earthc(UNRELATED, "other.ec")
    assert _labels(compile_earthc(SOURCE, "walk.ec")) == labels


def test_scope_restores_the_outer_numbering():
    outer = nodes.fresh_label()
    with numbering_scope():
        assert nodes.fresh_label() == 1
        with numbering_scope():
            assert nodes.fresh_label() == 1
        assert nodes.fresh_label() == 2
    assert nodes.fresh_label() == outer + 1


def test_threaded_compiles_do_not_interleave():
    expected = compile_earthc(SOURCE, "walk.ec", optimize=True,
                              inline=True).listing()

    def listing(_):
        return compile_earthc(SOURCE, "walk.ec", optimize=True,
                              inline=True).listing()

    # More threads than cores, switching often, so that counters shared
    # between compiles would interleave.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            listings = list(pool.map(listing, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert listings == [expected] * 8


def _build_all(source, filename):
    compiled = compile_earthc(source, filename, optimize=True,
                              inline=True)
    interp = Interpreter(compiled.simple, Machine(4), engine="codegen")
    interp._init_globals()
    engine = CodegenEngine(interp)
    for name in sorted(compiled.simple.functions):
        engine.function(name)
    assert engine.fallbacks == set()
    return engine


def test_rebuild_hits_the_code_cache(monkeypatch):
    """The second build of a recompiled program reuses every code
    object: no new cache entry, no ``compile()`` call."""
    monkeypatch.setattr(codegen_mod, "_CODE_CACHE", OrderedDict())
    calls = []

    def counting_compile(*args, **kwargs):
        calls.append(args[1])
        return compile(*args, **kwargs)

    monkeypatch.setattr(codegen_mod, "compile", counting_compile,
                        raising=False)
    first = _build_all(SOURCE, "walk.ec")
    assert len(calls) == len(first.sources)
    _build_all(UNRELATED, "other.ec")
    entries, compiled_so_far = len(codegen_mod._CODE_CACHE), len(calls)
    second = _build_all(SOURCE, "walk.ec")
    assert second.sources == first.sources
    assert len(codegen_mod._CODE_CACHE) == entries
    assert len(calls) == compiled_so_far


@pytest.mark.parametrize("name", [spec.name for spec in catalog()])
def test_olden_compile_payload_is_stable(name):
    """One ``compile`` JobSpec gives the same payload bytes whatever
    the process compiled before (as in any pool worker)."""
    spec = JobSpec("compile", benchmark=name)
    first = _fresh_payload(spec)
    compile_earthc(UNRELATED, "other.ec", optimize=True, inline=True)
    assert _fresh_payload(spec) == first
