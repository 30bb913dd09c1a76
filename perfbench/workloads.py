"""Seeded inputs of the three workloads.

Every input is a pure function of the workload seed.  A workload runs
in *rounds*; every round carries the same programs, and only a
per-round header comment (:func:`tagged`) tells them apart.  The
comment changes the source text, so each round misses the artifact
cache and the per-process compile memo exactly as the first round did,
while the compiled programs, and so every deterministic count, stay the
same from round to round.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.comm.optconfig import OPT_PRESETS
from repro.workload import MIXES, SHAPES, generate_source

#: ``main`` arguments of generated programs, per shape: list and mesh
#: take ``(cells, sweeps)``, tree takes ``(depth, sweeps)``.
COMPILE_MIX_ARGS = {"list": (8, 2), "tree": (4, 2), "mesh": (8, 2)}
GATEWAY_ARGS = {"list": (6, 1), "tree": (3, 1), "mesh": (6, 1)}

#: Generated programs per (shape, mix) pair in one compile-mix round.
COMPILE_MIX_PER_STRATUM = 6
#: Generated programs per (shape, mix) pair in gateway-mixed.
GATEWAY_PER_STRATUM = 6

#: gateway-mixed load shape: closed loop, this many client threads,
#: one keep-alive connection each.
GATEWAY_CLIENTS = 2
GATEWAY_NODES = 4
VARIANT_NODES = 2
#: Request classes of one gateway round besides one fresh request per
#: program: this many repeats and variants per program.  Fresh requests
#: are two thirds of the round, so the median latency falls inside the
#: fresh requests' latency range, not on the step between cache hits
#: and variants (whose compile-memo hit depends on which worker runs
#: them).
GATEWAY_REPEATS_PER_PROGRAM = 1 / 3
GATEWAY_VARIANTS_PER_PROGRAM = 1 / 6


def tagged(source: str, tag: str) -> str:
    """``source`` behind a header comment naming its round."""
    return f"// perfbench {tag}\n{source}"


def olden_order(seed: int, names: Sequence[str]) -> List[str]:
    """The order one ``olden-table3`` sweep visits the benchmarks."""
    order = sorted(names)
    random.Random(f"olden-table3-{seed}").shuffle(order)
    return order


def _strata() -> List[tuple]:
    return [(shape, mix) for shape in SHAPES for mix in sorted(MIXES)]


def compile_mix_round(seed: int,
                      olden: Dict[str, Dict[str, object]]
                      ) -> List[Dict[str, object]]:
    """One round of ``compile-mix`` jobs: every Olden source under
    every ``OptConfig`` preset, plus generated programs covering each
    shape and read/write mix equally, in seeded order.

    ``olden`` maps a benchmark name to ``{"source", "filename",
    "inline"}``."""
    rng = random.Random(f"compile-mix-{seed}")
    jobs: List[Dict[str, object]] = []
    for name in sorted(olden):
        for preset in OPT_PRESETS:
            entry = olden[name]
            jobs.append({"name": f"{name}/{preset}", "origin": "olden",
                         "source": entry["source"],
                         "filename": entry["filename"],
                         "inline": entry["inline"], "opt": preset})
    for copy in range(COMPILE_MIX_PER_STRATUM):
        for shape, mix in _strata():
            jobs.append({"name": f"gen-{shape}-{mix}-{copy}",
                         "origin": "generated", "shape": shape,
                         "mix": mix,
                         "source": generate_source(rng, shape, mix),
                         "filename": f"gen-{shape}-{mix}-{copy}.ec",
                         "inline": False,
                         "opt": rng.choice(OPT_PRESETS),
                         "args": list(COMPILE_MIX_ARGS[shape])})
    rng.shuffle(jobs)
    return jobs


def gateway_programs(seed: int) -> List[Dict[str, object]]:
    """The generated programs of ``gateway-mixed``, covering each shape
    and read/write mix equally, in seeded order."""
    rng = random.Random(f"gateway-mixed-{seed}")
    programs = []
    for copy in range(GATEWAY_PER_STRATUM):
        for shape, mix in _strata():
            programs.append({"name": f"gw-{shape}-{mix}-{copy}",
                             "shape": shape, "mix": mix,
                             "source": generate_source(rng, shape, mix),
                             "args": list(GATEWAY_ARGS[shape])})
    rng.shuffle(programs)
    return programs


def gateway_round(seed: int, programs: int,
                  clients: int = GATEWAY_CLIENTS
                  ) -> List[Dict[str, object]]:
    """The request schedule of one ``gateway-mixed`` round.

    Each request is ``{"cls", "program", "nodes", "origin", "after"}``:

    * ``fresh`` -- a program's first request (artifact miss);
    * ``repeat`` -- exactly an earlier request (artifact hit);
    * ``variant`` -- an earlier program at :data:`VARIANT_NODES`
      nodes, each program at most once (artifact miss, compile-memo
      hit when the same worker runs it).

    ``origin`` is the position of the request a repeat or variant
    refers to; it is always at least ``clients`` positions earlier, so
    in a closed loop of ``clients`` callers it has normally finished.
    ``after`` lists every earlier position with the same cache key:
    a client waits for those before sending, so no two requests with
    one key are ever in flight together and the hit, miss and
    single-flight counts are exact.
    """
    rng = random.Random(f"gateway-round-{seed}")
    pending = (["fresh"] * programs
               + ["repeat"] * round(programs * GATEWAY_REPEATS_PER_PROGRAM)
               + ["variant"]
               * round(programs * GATEWAY_VARIANTS_PER_PROGRAM))
    rng.shuffle(pending)
    requests: List[Dict[str, object]] = []
    next_program = 0
    varied = set()
    for position in range(len(pending)):
        eligible = requests[:max(0, position - clients + 1)]
        chosen = None
        for index, cls in enumerate(pending):
            if cls == "fresh":
                request = {"cls": cls, "program": next_program,
                           "nodes": GATEWAY_NODES, "origin": None}
            elif cls == "repeat":
                if not eligible:
                    continue
                origin = rng.randrange(len(eligible))
                request = {"cls": cls,
                           "program": eligible[origin]["program"],
                           "nodes": eligible[origin]["nodes"],
                           "origin": origin}
            else:
                candidates = [i for i, r in enumerate(eligible)
                              if r["cls"] == "fresh"
                              and r["program"] not in varied]
                if not candidates:
                    continue
                origin = rng.choice(candidates)
                request = {"cls": cls,
                           "program": eligible[origin]["program"],
                           "nodes": VARIANT_NODES, "origin": origin}
            chosen = index
            break
        if chosen is None:
            raise ValueError(f"no feasible request at position {position}")
        pending.pop(chosen)
        if request["cls"] == "fresh":
            next_program += 1
        elif request["cls"] == "variant":
            varied.add(request["program"])
        key = (request["program"], request["nodes"])
        request["after"] = [i for i, r in enumerate(requests)
                            if (r["program"], r["nodes"]) == key]
        requests.append(request)
    return requests


def expected_counts(requests: Sequence[Dict[str, object]]
                    ) -> Dict[str, int]:
    """Artifact-cache counts one round must produce at the gateway:
    a request hits exactly when an earlier request had its key."""
    seen = set()
    hits = misses = 0
    for request in requests:
        key = (request["program"], request["nodes"])
        if key in seen:
            hits += 1
        else:
            misses += 1
            seen.add(key)
    variants = sum(1 for r in requests if r["cls"] == "variant")
    return {"hits": hits, "misses": misses, "variants": variants,
            "singleflight_joins": 0, "rejected_busy": 0}
