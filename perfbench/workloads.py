"""The four workloads: base graphs, reference answers, the timed op, its
traced decomposition and the checks run on every output.

Each workload cycles over a fixed list of base graphs.  The loop hands
every op a fresh relabelling of one base (``Op.graph``, with ``Op.perm``
mapping base ids to op ids), so the package's per-graph caches never serve
one op from another, while the reference answers computed once per base
at setup still apply after mapping through ``perm``.

The traced decomposition of an op makes the same public calls as the op,
with a span around each.  Layers that the op reaches only from inside
another public call (validate, face tracing, elimination) are timed by an
explicit *probe* call on the op's graph; ``build_main_sle`` is called up
front for real, because the op's later calls then find it in the package's
cache instead of building it again.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from heawood import (
    EmbeddedCubicGraph,
    bipartite_heawood_vector,
    build_main_sle,
    circular_ladder,
    cli,
    cln_formula,
    count_tait_oracle,
    edges,
    enumerate_heawood_vectors,
    free_variable_defining_set,
    gf3,
    heawood_to_tait,
    is_bipartite,
    is_proper_coloring,
    k4,
    minimal_defining_sets,
    parse_graph,
    sle_rank,
    tait_to_heawood,
    trace_faces,
    validate,
    zebra_witness,
)

from .graphgen import random_planar_cubic

# No op enumerates Heawood vectors on more vertices than this: enumeration
# allocates 2^(free variables) rows.
MAX_ENUMERATION_VERTICES = 36


@dataclass
class Base:
    name: str
    graph: EmbeddedCubicGraph
    ref: dict = field(default_factory=dict)


@dataclass
class Op:
    base: Base
    mode: str | None
    graph: EmbeddedCubicGraph
    perm: list[int]
    path: Path | None  # the graph file, for ops that go through the CLI


@dataclass(frozen=True)
class Workload:
    name: str
    modes: tuple[str | None, ...]
    uses_file: bool
    setup: Callable  # (rng, tracer) -> list[Base]
    run: Callable  # (op) -> output
    traced: Callable  # (tracer, op) -> output
    check: Callable  # (op, output) -> list of problems


def _ladders(ns) -> list[Base]:
    return [Base(f"cl_{n}", circular_ladder(n)) for n in ns]


def _randoms(sizes, rng: random.Random) -> list[Base]:
    return [Base(f"random_{v}_{i}", random_planar_cubic(v, rng)) for i, v in enumerate(sizes)]


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_problems(output) -> tuple[dict | None, list[str]]:
    rc, out, err = output
    if rc != 0:
        return None, [f"exit code {rc}: {err.strip()}"]
    return json.loads(out), []


def _front_half(tr, g: EmbeddedCubicGraph, probe_graph_calls: bool = True):
    """Spans for validate, faces, the main system and its elimination."""
    with tr.span("graphs.validate", probe=probe_graph_calls):
        report = validate(g)
    with tr.span("graphs.trace_faces", probe=probe_graph_calls) as c:
        faces = trace_faces(g)
        c["faces"] = len(faces)
    with tr.span("spins.build_main_sle"):
        system = build_main_sle(g)
    with tr.span("gf3.rref", probe=True) as c:
        c["rank"] = gf3.rref(system.matrix).rank
    with tr.span("gf3.solve_parametric", probe=True) as c:
        free = len(gf3.solve_parametric(system.matrix).free_cols)
        c["free_vars"] = free
    return report, faces, free


def _traced_enumerate(tr, g: EmbeddedCubicGraph, free: int):
    with tr.span("spins.enumerate") as c:
        vectors = enumerate_heawood_vectors(g)
        c["patterns_tried"] = 2**free
        c["vectors_kept"] = len(vectors)
    return vectors


def _counted_bases(bases: list[Base], tr) -> list[Base]:
    """Reference counts: closed form for ladders, the oracle for the rest."""
    for base in bases:
        if base.graph.n_vertices > MAX_ENUMERATION_VERTICES:
            raise ValueError(f"{base.name} is above the enumeration cap")
        if base.name.startswith("cl_"):
            base.ref["count"] = cln_formula(base.graph.n_vertices // 2)
        else:
            with tr.span("oracle.reference"):
                base.ref["count"] = count_tait_oracle(base.graph)
    return bases


# --- count: `heawood count FILE --json`, enumeration-bound -----------------


def _count_setup(rng, tr):
    return _counted_bases(_ladders(range(10, 16)) + _randoms(range(24, 37, 2), rng), tr)


def _count_run(op):
    return _call_cli(["count", str(op.path), "--json"])


def _count_traced(tr, op):
    with tr.span("cli.main"):
        text = op.path.read_text(encoding="utf-8")
        with tr.span("graphs.parse_graph"):
            g = parse_graph(text)
        _, _, free = _front_half(tr, g)
        vectors = _traced_enumerate(tr, g, free)
        payload = {"agree": None, "command": "count", "heawood": 3 * len(vectors),
                   "method": "heawood", "oracle": None}
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return 0, out, ""


def _count_check(op, output):
    payload, problems = _cli_problems(output)
    if payload is not None and payload["heawood"] != op.base.ref["count"]:
        problems.append(f"count {payload['heawood']} != reference {op.base.ref['count']}")
    return problems


# --- construct: enumerate, then spins -> coloring -> spins per vector ------


def _construct_setup(rng, tr):
    # Two random graphs per size: an odd number of op kinds keeps the median
    # op inside one kind's latencies instead of on the gap between two.
    sizes = [v for v in range(24, 33, 2) for _ in range(2)]
    return _counted_bases(_ladders(range(6, 11)) + _randoms(sizes, rng), tr)


def _construct_run(op):
    g = op.graph
    vectors = enumerate_heawood_vectors(g)
    seed_edge = edges(g)[0]
    triples = []
    for vector in vectors:
        coloring = heawood_to_tait(g, vector, seed_edge, 0)
        triples.append((vector, coloring, tait_to_heawood(g, coloring)))
    return triples


def _construct_traced(tr, op):
    g = op.graph
    with tr.span("op.construct"):
        _, _, free = _front_half(tr, g)
        vectors = _traced_enumerate(tr, g, free)
        seed_edge = edges(g)[0]
        triples = []
        for vector in vectors:
            with tr.span("spins.heawood_to_tait"):
                coloring = heawood_to_tait(g, vector, seed_edge, 0)
            with tr.span("spins.tait_to_heawood"):
                back = tait_to_heawood(g, coloring)
            triples.append((vector, coloring, back))
    return triples


def _construct_check(op, triples):
    problems = []
    if 3 * len(triples) != op.base.ref["count"]:
        problems.append(f"3 x {len(triples)} vectors != reference {op.base.ref['count']}")
    if len({t[0] for t in triples}) != len(triples):
        problems.append("enumeration repeated a vector")
    for vector, coloring, back in triples:
        if not is_proper_coloring(op.graph, coloring):
            problems.append(f"improper coloring from {vector.spins}")
        if back != vector:
            problems.append(f"roundtrip changed {vector.spins} into {back.spins}")
    return problems


# --- structure: no enumeration, elimination on 100..400 vertices ----------

ZEBRA_SETS_PER_OP = 3


def _structure_setup(rng, tr):
    bases = _ladders((50, 100, 200, 75, 151)) + _randoms((100, 200, 300, 400), rng)
    for base in bases:
        nv = base.graph.n_vertices
        bipartite = is_bipartite(base.graph) is not None
        base.ref["bipartite"] = bipartite
        base.ref["rank"] = nv // 2 if bipartite else nv // 2 + 1
        # Sizes around n: below n - 1 a non-bipartite graph may have no
        # witness, from n on one always exists, so both answers occur.
        base.ref["zebra_sets"] = [
            rng.sample(range(nv), nv // 2 - 2 + k) for k in range(ZEBRA_SETS_PER_OP)
        ]
    return bases


def _zebra_sets(op):
    return [frozenset(op.perm[v] for v in s) for s in op.base.ref["zebra_sets"]]


def _structure_run(op):
    g = op.graph
    report = validate(g)
    faces = trace_faces(g)
    rank = sle_rank(g)
    free = free_variable_defining_set(g)
    witnesses = [(s, zebra_witness(g, s)) for s in _zebra_sets(op)]
    chain = None
    if op.base.ref["bipartite"]:
        vector = bipartite_heawood_vector(g)
        coloring = heawood_to_tait(g, vector, edges(g)[0], 0)
        chain = (vector, coloring, tait_to_heawood(g, coloring))
    return report, faces, rank, free, witnesses, chain


def _structure_traced(tr, op):
    g = op.graph
    with tr.span("op.structure"):
        report, faces, _ = _front_half(tr, g, probe_graph_calls=False)
        with tr.span("spins.sle_rank"):
            rank = sle_rank(g)
        with tr.span("defining.free_variable_set"):
            free = free_variable_defining_set(g)
        witnesses = []
        for s in _zebra_sets(op):
            with tr.span("defining.zebra_witness"):
                witnesses.append((s, zebra_witness(g, s)))
        chain = None
        if op.base.ref["bipartite"]:
            with tr.span("spins.bipartite_heawood_vector"):
                vector = bipartite_heawood_vector(g)
            seed_edge = edges(g)[0]
            with tr.span("spins.heawood_to_tait"):
                coloring = heawood_to_tait(g, vector, seed_edge, 0)
            with tr.span("spins.tait_to_heawood"):
                chain = (vector, coloring, tait_to_heawood(g, coloring))
    return report, faces, rank, free, witnesses, chain


def _structure_check(op, output):
    report, faces, rank, free, witnesses, chain = output
    g, ref = op.graph, op.base.ref
    nv = g.n_vertices
    problems = []
    if not report.ok or report.n_faces != nv // 2 + 2 or report.bipartite != ref["bipartite"]:
        problems.append(f"validate report {report} disagrees with the base graph")
    if len(faces) != nv // 2 + 2 or sum(len(f) for f in faces) != 3 * nv:
        problems.append(f"{len(faces)} traced faces do not cover the {3 * nv} darts once")
    if rank != ref["rank"]:
        problems.append(f"rank {rank} != reference {ref['rank']}")
    matrix = build_main_sle(g).matrix
    pivots = sorted(set(range(nv)) - free.members)
    if (len(free.members) != nv - ref["rank"] or free.bipartite != ref["bipartite"]
            or gf3.column_submatrix_rank(matrix, pivots) != len(pivots)):
        problems.append("free-variable set is not the complement of a column basis")
    for members, witness in witnesses:
        outside = sorted(set(range(nv)) - members)
        if witness is None:
            if gf3.column_submatrix_rank(matrix, outside) != matrix.shape[0]:
                problems.append("no witness returned, but the outside columns lack full row rank")
            continue
        combined = gf3.row_combination(matrix, witness.row_coefficients)
        support = frozenset(int(v) for v in combined.nonzero()[0])
        if (not any(witness.row_coefficients) or support != witness.support
                or not support <= members):
            problems.append(f"witness support {sorted(support)} is not inside the queried set")
    if chain is not None:
        vector, coloring, back = chain
        if not is_proper_coloring(g, coloring) or back != vector:
            problems.append("bipartite vector does not roundtrip through a proper coloring")
    return problems


# --- defining: `heawood defining FILE --mode M --json`, many tiny calls ---


def _defining_setup(rng, tr):
    # No random graph on 14 vertices: its linear-mode search alone takes
    # 1.4..1.8 s per op and again at setup for the reference answer.
    bases = [Base("k4", k4())] + _ladders(range(3, 7)) + _randoms((10, 10, 12, 12), rng)
    for base in bases:
        base.ref["rank"] = sle_rank(base.graph)
        base.ref["bipartite"] = is_bipartite(base.graph) is not None
        for mode in ("linear", "heawood"):
            base.ref[mode] = {frozenset(s) for s in minimal_defining_sets(base.graph, mode)}
    return bases


def _defining_run(op):
    return _call_cli(["defining", str(op.path), "--mode", op.mode, "--json"])


def _defining_traced(tr, op):
    with tr.span("cli.main"):
        text = op.path.read_text(encoding="utf-8")
        with tr.span("graphs.parse_graph"):
            g = parse_graph(text)
        _, _, free_count = _front_half(tr, g)
        with tr.span("defining.free_variable_set"):
            free = free_variable_defining_set(g)
        if op.mode == "heawood":
            _traced_enumerate(tr, g, free_count)
        with tr.span(f"defining.minimal_sets_{op.mode}") as c:
            minimal = minimal_defining_sets(g, mode=op.mode)
            c["sets_found"] = len(minimal)
        payload = {
            "command": "defining",
            "mode": op.mode,
            "max_size": None,
            "free_variables": {"members": sorted(free.members), "bipartite": free.bipartite},
            "minimal_sets": [sorted(s) for s in minimal],
        }
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return 0, out, ""


def _defining_check(op, output):
    payload, problems = _cli_problems(output)
    if payload is None:
        return problems
    ref = op.base.ref
    free_size = op.graph.n_vertices - ref["rank"]
    found = [frozenset(s) for s in payload["minimal_sets"]]
    expected = {frozenset(op.perm[v] for v in s) for s in ref[op.mode]}
    if len(set(found)) != len(found) or set(found) != expected:
        problems.append(f"the {len(found)} minimal sets are not the base graph's "
                        f"{len(expected)} mapped through the relabelling")
    if op.mode == "linear" and any(len(s) != free_size for s in found):
        problems.append(f"a linear-mode minimal set does not have size 2n - rank = {free_size}")
    free = payload["free_variables"]
    if len(free["members"]) != free_size or free["bipartite"] != ref["bipartite"]:
        problems.append("free-variable set has the wrong size or bipartite flag")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("count", (None,), True,
                 _count_setup, _count_run, _count_traced, _count_check),
        Workload("construct", (None,), False,
                 _construct_setup, _construct_run, _construct_traced, _construct_check),
        Workload("structure", (None,), False,
                 _structure_setup, _structure_run, _structure_traced, _structure_check),
        Workload("defining", ("linear", "heawood"), True,
                 _defining_setup, _defining_run, _defining_traced, _defining_check),
    )
}
