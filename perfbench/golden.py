"""Reference values for the Olden benchmarks at their full problem size.

The committed ``olden_golden.json`` holds, for each benchmark in the
catalog, the ``value`` and program ``output`` of one run of the
*unoptimized* compile (no inlining, no communication optimization) on
one node under the AST reference engine, at ``default_args``.  The
benchmark compares every leg of every ``olden-table3`` job with it, so
the optimizer, the fast engines and the remote-data cache are checked
against a result none of them produced.

Regenerate (slow: the AST walker runs every benchmark at full size)::

    python3 perfbench/golden.py --capture
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "olden_golden.json")


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["benchmarks"]


def reference_run(source: str, filename: str, args, max_stmts: int):
    """One 1-node AST run of the unoptimized compile: ``(value, output)``."""
    from repro.config import RunConfig
    from repro.harness.pipeline import compile_earthc, execute
    compiled = compile_earthc(source, filename, optimize=False)
    result = execute(compiled, config=RunConfig(
        nodes=1, engine="ast", args=tuple(args), max_stmts=max_stmts))
    return result.value, list(result.output)


def leg_mismatches(name: str, payload: dict, value, output) -> list:
    """One message per leg of a ``four-way`` payload whose value or
    output differs from the reference."""
    return [f"{name}/{leg}: value {run['value']!r} output "
            f"{run['output']!r}, reference {value!r} {output!r}"
            for leg, run in payload.items()
            if run["value"] != value or list(run["output"]) != list(output)]


def capture(path: str) -> None:
    from repro.olden.loader import catalog
    benchmarks = {}
    for spec in catalog():
        start = time.perf_counter()
        value, output = reference_run(spec.source(), spec.filename,
                                      spec.default_args, spec.max_stmts)
        benchmarks[spec.name] = {"args": list(spec.default_args),
                                 "value": value, "output": output}
        print(f"{spec.name}: value={value!r} "
              f"({time.perf_counter() - start:.1f}s)", flush=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"captured_with": "unoptimized compile, 1 node, "
                                    "ast engine, default_args",
                   "benchmarks": benchmarks}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capture", action="store_true",
                        help="recompute the reference values")
    parser.add_argument("--output", default=GOLDEN_PATH)
    opts = parser.parse_args(argv)
    if not opts.capture:
        parser.error("nothing to do (pass --capture)")
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    capture(opts.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
