"""Command-line front end: analyses with table or JSON output.

Every subcommand accepts ``--json`` (one JSON document on stdout,
diagnostics on stderr) and ``--one-based`` (display vertex ids starting
at 1; set-valued inputs are then read as 1-based too); the ``heawood``
and ``tait`` groups take them after the action.  Exit codes: 0 success,
1 domain error or failed verification, 2 usage error.

Each handler is a generator that prints nothing: it computes everything,
yields ``(payload, exit_code)``, then yields its text lines from values the
payload already holds.  ``main`` alone adds the ``command`` key and prints
either the payload as sorted JSON or the lines, so ``--json`` never resumes
a handler to format text.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Iterator, Sequence

from . import families
from .defining import free_variable_defining_set, minimal_defining_sets, zebra_witness
from .errors import HeawoodError
from .graphs import edges, format_graph, is_bipartite, load_cubic, load_graph, validate
from .oracle import count_tait_oracle, enumerate_tait_oracle
from .spins import (
    _valid_faces,
    build_main_sle,
    count_tait_colorings_heawood,
    enumerate_heawood_vectors,
    sle_rank,
)

__all__ = ["main"]

ORACLE_MAX_VERTICES = 12

FAMILIES = {"cl": families.circular_ladder, "mobius": families.mobius_ladder,
            "k4": families.k4, "petersen": families.petersen}


def _shown(vs, args: argparse.Namespace) -> list[int]:
    """Vertex ids as displayed: from 1 under ``--one-based``."""
    return [v + 1 if args.one_based else v for v in vs]


def _joined(values) -> str:
    return " ".join(str(v) for v in values)


def _cmd_validate(args: argparse.Namespace) -> Iterator:
    report = validate(load_graph(args.graph))
    payload = {
        "valid": report.ok,
        "problems": list(report.problems),
        "vertices": report.n_vertices,
        "edges": report.n_edges,
        "faces": report.n_faces,
        "bipartite": report.bipartite,
    }
    yield payload, 0 if report.ok else 1
    if report.ok:
        bip = "bipartite" if report.bipartite else "non-bipartite"
        yield (
            f"valid: {report.n_vertices} vertices, {report.n_edges} edges, "
            f"{report.n_faces} faces, {bip}"
        )
    else:
        yield "invalid:"
        yield from (f"  {problem}" for problem in report.problems)


def _cmd_faces(args: argparse.Namespace) -> Iterator:
    g = load_graph(args.graph)
    faces = _valid_faces(g)
    hint = None if g.outer_face_hint is None else sorted(g.outer_face_hint)
    cycles = [_shown(f.vertex_cycle, args) for f in faces]
    payload = {
        "count": len(faces),
        "faces": [{"id": f.face_id, "cycle": cycle} for f, cycle in zip(faces, cycles)],
        "outer_hint": None if hint is None else _shown(hint, args),
    }
    yield payload, 0
    yield f"{len(faces)} faces"
    for f, cycle in zip(faces, cycles):
        mark = " (outer hint)" if hint is not None and sorted(f.vertex_set) == hint else ""
        yield f"  face {f.face_id}: {_joined(cycle)}{mark}"


def _cmd_rank(args: argparse.Namespace) -> Iterator:
    g = load_graph(args.graph)
    system = build_main_sle(g, args.drop_face)
    rank = sle_rank(g, args.drop_face)
    rows, cols = (int(size) for size in system.matrix.shape)
    bipartite = is_bipartite(g) is not None
    yield {"rank": rank, "n": g.n_vertices // 2, "rows": rows, "cols": cols,
           "bipartite": bipartite, "dropped_face": system.dropped_face_id}, 0
    kind = "bipartite" if bipartite else "non-bipartite"
    yield (
        f"rank {rank} ({rows}x{cols} system, n={g.n_vertices // 2}, {kind}, "
        f"dropped face {system.dropped_face_id})"
    )


def _cmd_count(args: argparse.Namespace) -> Iterator:
    g = load_graph(args.graph)
    heawood_count = oracle_count = agree = None
    if args.method in ("heawood", "both"):
        heawood_count = count_tait_colorings_heawood(g)
    if args.method in ("oracle", "both"):
        oracle_count = count_tait_oracle(g)
    if heawood_count is not None and oracle_count is not None:
        agree = heawood_count == oracle_count
    payload = {"method": args.method, "heawood": heawood_count, "oracle": oracle_count,
               "agree": agree}
    yield payload, 1 if agree is False else 0
    if heawood_count is not None:
        yield f"heawood: {heawood_count}"
    if oracle_count is not None:
        yield f"oracle: {oracle_count}"
    if agree is not None:
        yield "agree" if agree else "DISAGREE"


def _cmd_heawood_list(args: argparse.Namespace) -> Iterator:
    vectors = enumerate_heawood_vectors(load_graph(args.graph))
    yield {"count": len(vectors), "vectors": [list(vec.signs) for vec in vectors]}, 0
    yield f"{len(vectors)} Heawood vectors"
    for vec in vectors:
        yield "  " + " ".join(f"{s:+d}" for s in vec.signs)


def _cmd_tait_list(args: argparse.Namespace) -> Iterator:
    g = load_cubic(args.graph)
    colorings = enumerate_tait_oracle(g, args.limit)
    edge_ids = [_shown(edge, args) for edge in edges(g)]
    yield {"count": len(colorings), "edges": edge_ids,
           "colorings": [list(t.colors) for t in colorings]}, 0
    yield f"{len(colorings)} colorings"
    yield "  edges: " + " ".join(f"{u}-{v}" for u, v in edge_ids)
    for t in colorings:
        yield "  " + _joined(t.colors)


def _cmd_defining(args: argparse.Namespace) -> Iterator:
    g = load_graph(args.graph)
    free = free_variable_defining_set(g)
    members = _shown(sorted(free.members), args)
    minimal = [_shown(sorted(s), args) for s in minimal_defining_sets(g, args.mode, args.max_size)]
    payload = {
        "mode": args.mode,
        "max_size": args.max_size,
        "free_variables": {"members": members, "bipartite": free.bipartite},
        "minimal_sets": minimal,
    }
    yield payload, 0
    branch = "bipartite rank branch" if free.bipartite else "non-bipartite rank branch"
    yield f"free variables: {_joined(members)} (size {len(members)}, {branch})"
    yield f"{len(minimal)} minimal defining sets (mode {args.mode}):"
    for s in minimal:
        yield "  " + _joined(s)


def _cmd_zebra(args: argparse.Namespace) -> Iterator:
    g = load_graph(args.graph)
    try:
        typed = [int(part) for part in args.set.replace(",", " ").split()]
    except ValueError:
        raise HeawoodError(f"vertex set {args.set!r} is not a comma-separated id list") from None
    build_main_sle(g)  # an invalid graph is reported before an unknown id
    offset = 1 if args.one_based else 0
    for v in typed:
        if not 0 <= v - offset < g.n_vertices:
            raise HeawoodError(f"unknown vertex id {v}")
    members = frozenset(v - offset for v in typed)
    witness = zebra_witness(g, members)
    found = None
    if witness is not None:
        found = {
            "row_coefficients": list(witness.row_coefficients),
            "support": _shown(sorted(witness.support), args),
        }
    yield {"set": _shown(sorted(members), args), "witness": found}, 0
    if found is None:
        yield "no witness: no nonzero face-equation combination is supported inside the set"
    else:
        support, coeffs = _joined(found["support"]), _joined(found["row_coefficients"])
        yield f"witness found: support = {{{support}}}, row coefficients = ({coeffs})"


def _cmd_gen(args: argparse.Namespace) -> Iterator:
    needs_n = args.family in ("cl", "mobius")
    if needs_n and args.n is None:
        raise HeawoodError(f"family {args.family!r} needs a size argument")
    if not needs_n and args.n is not None:
        raise HeawoodError(f"family {args.family!r} takes no size argument")
    text = format_graph(FAMILIES[args.family](*([args.n] if needs_n else [])))
    yield {"family": args.family, "n": args.n, "text": text}, 0
    yield from text.splitlines()


def _cln_row(n: int) -> dict:
    g = families.circular_ladder(n)
    heawood_count = count_tait_colorings_heawood(g)
    formula = families.cln_formula(n)
    oracle_count = count_tait_oracle(g) if 2 * n <= ORACLE_MAX_VERTICES else None
    ok = heawood_count == formula and (oracle_count in (None, heawood_count))
    return {"n": n, "heawood": heawood_count, "formula": formula, "oracle": oracle_count, "ok": ok}


def _mobius_row(n: int) -> dict:
    oracle_count = count_tait_oracle(families.mobius_ladder(n))
    formula = families.mobius_formula(n)
    return {"n": n, "oracle": oracle_count, "formula": formula, "ok": oracle_count == formula}


def _cmd_verify(
    args: argparse.Namespace, columns: tuple[tuple[str, int], ...], row: Callable[[int], dict]
) -> Iterator:
    """Tabulate ``row(n)`` over the range, one right-aligned cell per (key, width) column."""
    if args.start > args.end:
        raise HeawoodError(f"empty range: --from {args.start} is above --to {args.end}")
    rows = [row(n) for n in range(args.start, args.end + 1)]
    all_ok = all(r["ok"] for r in rows)
    yield {"rows": rows, "all_ok": all_ok}, 0 if all_ok else 1
    yield " ".join(f"{key:>{width}}" for key, width in columns) + "  ok"
    for r in rows:
        cells = " ".join(f"{'-' if r[key] is None else r[key]:>{width}}" for key, width in columns)
        yield f"{cells}  {'yes' if r['ok'] else 'NO'}"
    yield "all match" if all_ok else "MISMATCH"


def _add_command(sub, name: str, handler, help: str, json_name: str | None = None):
    """One action parser taking the shared flags; ``json_name`` defaults to ``name``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--json", action="store_true", help="emit one JSON document on stdout")
    p.add_argument("--one-based", action="store_true",
                   help="display (and read) vertex ids starting at 1")
    p.set_defaults(handler=handler, json_name=json_name or name)
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heawood",
        description="Spin-system analysis of Tait 3-edge-colorings of planar cubic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "validate", _cmd_validate, "check structural invariants")
    p.add_argument("graph", help="graph file in the text format")

    p = _add_command(sub, "faces", _cmd_faces, "trace and list all faces")
    p.add_argument("graph")

    p = _add_command(sub, "rank", _cmd_rank, "rank of the main face system")
    p.add_argument("graph")
    p.add_argument("--drop-face", type=int, default=None, metavar="ID",
                   help="drop this face id instead of the default")

    p = _add_command(sub, "count", _cmd_count, "count proper 3-edge-colorings")
    p.add_argument("graph")
    p.add_argument("--method", choices=("heawood", "oracle", "both"), default="heawood")

    group = sub.add_parser("heawood", help="Heawood vector operations")
    action = group.add_subparsers(dest="action", required=True)
    p = _add_command(action, "list", _cmd_heawood_list, "enumerate all Heawood vectors",
                     "heawood-list")
    p.add_argument("graph")

    group = sub.add_parser("tait", help="explicit coloring operations")
    action = group.add_subparsers(dest="action", required=True)
    p = _add_command(action, "list", _cmd_tait_list, "enumerate colorings by brute force",
                     "tait-list")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=1000,
                   help="refuse if more colorings than this exist (default 1000)")

    p = _add_command(sub, "defining", _cmd_defining, "defining-set analysis")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("linear", "heawood"), default="linear")
    p.add_argument("--max-size", type=int, default=None, metavar="K")

    p = _add_command(sub, "zebra", _cmd_zebra, "find a dependence witness inside a vertex set")
    p.add_argument("graph")
    p.add_argument("--set", required=True, metavar="A,B,C", help="comma-separated vertex ids")

    p = _add_command(sub, "gen", _cmd_gen, "emit a named family in the text format")
    p.add_argument("family", choices=tuple(FAMILIES))
    p.add_argument("n", type=int, nargs="?", default=None)

    for name, what, columns, row in (
        ("cln", "circular", (("n", 3), ("heawood", 9), ("formula", 9), ("oracle", 7)), _cln_row),
        ("mobius", "Moebius", (("n", 3), ("oracle", 7), ("formula", 9)), _mobius_row),
    ):
        handler = functools.partial(_cmd_verify, columns=columns, row=row)
        help = f"check {what}-ladder counts against the closed form"
        p = _add_command(sub, f"verify-{name}", handler, help)
        p.add_argument("--from", dest="start", type=int, required=True)
        p.add_argument("--to", dest="end", type=int, required=True)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    try:
        lines = args.handler(args)
        payload, code = next(lines)
    except (HeawoodError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"command": args.json_name, **payload}, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
