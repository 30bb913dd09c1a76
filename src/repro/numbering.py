"""Per-compile numbering of generated names.

The compiler invents three kinds of numbered names: statement labels
(:func:`repro.simple.nodes.fresh_label`), the serials of inlined locals
(``__inl3_x``, :mod:`repro.frontend.inline`) and goto-elimination flags
(``__brk_2``, :mod:`repro.frontend.goto_elim`).  They end up in SIMPLE
listings, job payloads and the Python source the codegen engine emits
(``Slot('read@17')``), so the numbers must depend only on the program
being compiled -- not on what the process compiled before.

:func:`numbering_scope` starts all three counters at 1; the pipeline
enters one per :func:`~repro.harness.pipeline.compile_earthc` call.
The scope lives in a :mod:`contextvars` variable, so compiles running
in different threads never share counters.  Code that builds SIMPLE
outside any scope (hand-built test programs) draws from one
process-wide numbering, as before.
"""

from __future__ import annotations

import contextvars
import itertools
from contextlib import contextmanager
from typing import Iterator


class Numbering:
    """The three counters of one compile."""

    __slots__ = ("labels", "inlines", "flags")

    def __init__(self):
        self.labels = itertools.count(1)
        self.inlines = itertools.count(1)
        self.flags = itertools.count(1)


_PROCESS = Numbering()
_CURRENT: contextvars.ContextVar[Numbering] = contextvars.ContextVar(
    "repro_numbering", default=_PROCESS)


def current() -> Numbering:
    """The numbering of the compile in progress (or the process-wide
    one outside any scope)."""
    return _CURRENT.get()


@contextmanager
def numbering_scope() -> Iterator[None]:
    """Number everything created inside the block from 1."""
    token = _CURRENT.set(Numbering())
    try:
        yield
    finally:
        _CURRENT.reset(token)
