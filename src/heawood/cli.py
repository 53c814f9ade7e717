"""Command-line front end: analyses with table or JSON output.

Every subcommand accepts ``--json`` (one JSON document on stdout,
diagnostics on stderr) and ``--one-based`` (display vertex ids starting
at 1; set-valued inputs are then read as 1-based too).  Exit codes:
0 success, 1 domain error or failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import families
from .defining import free_variable_defining_set, minimal_defining_sets, zebra_witness
from .errors import HeawoodError
from .graphs import (
    edges,
    format_graph,
    is_bipartite,
    load_cubic,
    load_graph,
    trace_faces,
    validate,
)
from .oracle import count_tait_oracle, enumerate_tait_oracle
from .spins import (
    build_main_sle,
    count_tait_colorings_heawood,
    enumerate_heawood_vectors,
    sle_rank,
)

__all__ = ["main"]

ORACLE_MAX_VERTICES = 12


def _vid(v: int, args: argparse.Namespace) -> int:
    return v + 1 if args.one_based else v


def _vids(vs, args: argparse.Namespace) -> list[int]:
    return [_vid(v, args) for v in sorted(vs)]


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_vertex_set(text: str, args: argparse.Namespace) -> frozenset[int]:
    try:
        raw = [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise HeawoodError(f"vertex set {text!r} is not a comma-separated id list") from None
    if args.one_based:
        raw = [v - 1 for v in raw]
    return frozenset(raw)


def _cmd_validate(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    report = validate(g)
    bip = {True: "bipartite", False: "non-bipartite", None: None}[report.bipartite]
    payload = {
        "command": "validate",
        "valid": report.ok,
        "problems": list(report.problems),
        "vertices": report.n_vertices,
        "edges": report.n_edges,
        "faces": report.n_faces,
        "bipartite": report.bipartite,
    }
    if args.json:
        _emit_json(payload)
    elif report.ok:
        print(
            f"valid: {report.n_vertices} vertices, {report.n_edges} edges, "
            f"{report.n_faces} faces, {bip}"
        )
    else:
        print("invalid:")
        for problem in report.problems:
            print(f"  {problem}")
    return 0 if report.ok else 1


def _cmd_faces(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    faces = trace_faces(g)
    hint = None if g.outer_face_hint is None else sorted(g.outer_face_hint)
    payload = {
        "command": "faces",
        "count": len(faces),
        "faces": [
            {"id": f.face_id, "cycle": [_vid(v, args) for v in f.vertex_cycle]}
            for f in faces
        ],
        "outer_hint": None if hint is None else _vids(hint, args),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"{len(faces)} faces")
        for f in faces:
            cycle = " ".join(str(_vid(v, args)) for v in f.vertex_cycle)
            mark = " (outer hint)" if hint is not None and sorted(f.vertex_set) == hint else ""
            print(f"  face {f.face_id}: {cycle}{mark}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    system = build_main_sle(g, args.drop_face)
    rank = sle_rank(g, args.drop_face)
    bipartite = is_bipartite(g) is not None
    payload = {
        "command": "rank",
        "rank": rank,
        "n": g.n_vertices // 2,
        "rows": int(system.matrix.shape[0]),
        "cols": int(system.matrix.shape[1]),
        "bipartite": bipartite,
        "dropped_face": system.dropped_face_id,
    }
    if args.json:
        _emit_json(payload)
    else:
        kind = "bipartite" if bipartite else "non-bipartite"
        print(
            f"rank {rank} ({system.matrix.shape[0]}x{system.matrix.shape[1]} system, "
            f"n={g.n_vertices // 2}, {kind}, dropped face {system.dropped_face_id})"
        )
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    heawood_count = oracle_count = None
    if args.method in ("heawood", "both"):
        heawood_count = count_tait_colorings_heawood(g)
    if args.method in ("oracle", "both"):
        oracle_count = count_tait_oracle(g)
    agree = None
    if heawood_count is not None and oracle_count is not None:
        agree = heawood_count == oracle_count
    payload = {
        "command": "count",
        "method": args.method,
        "heawood": heawood_count,
        "oracle": oracle_count,
        "agree": agree,
    }
    if args.json:
        _emit_json(payload)
    else:
        if heawood_count is not None:
            print(f"heawood: {heawood_count}")
        if oracle_count is not None:
            print(f"oracle: {oracle_count}")
        if agree is not None:
            print("agree" if agree else "DISAGREE")
    return 1 if agree is False else 0


def _cmd_heawood_list(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    vectors = enumerate_heawood_vectors(g)
    if args.json:
        _emit_json({
            "command": "heawood-list",
            "count": len(vectors),
            "vectors": [list(vec.signs) for vec in vectors],
        })
    else:
        print(f"{len(vectors)} Heawood vectors")
        for vec in vectors:
            print("  " + " ".join(f"{s:+d}" for s in vec.signs))
    return 0


def _cmd_tait_list(args: argparse.Namespace) -> int:
    g = load_cubic(args.graph)
    colorings = enumerate_tait_oracle(g, args.limit)
    edge_list = edges(g)
    payload = {
        "command": "tait-list",
        "count": len(colorings),
        "edges": [[_vid(u, args), _vid(v, args)] for u, v in edge_list],
        "colorings": [list(t.colors) for t in colorings],
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"{len(colorings)} colorings")
        print("  edges: " + " ".join(f"{_vid(u, args)}-{_vid(v, args)}" for u, v in edge_list))
        for t in colorings:
            print("  " + " ".join(str(c) for c in t.colors))
    return 0


def _cmd_defining(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    free = free_variable_defining_set(g)
    minimal = minimal_defining_sets(g, mode=args.mode, max_size=args.max_size)
    payload = {
        "command": "defining",
        "mode": args.mode,
        "max_size": args.max_size,
        "free_variables": {
            "members": _vids(free.members, args),
            "bipartite": free.bipartite,
        },
        "minimal_sets": [_vids(s, args) for s in minimal],
    }
    if args.json:
        _emit_json(payload)
    else:
        branch = "bipartite rank branch" if free.bipartite else "non-bipartite rank branch"
        print(
            "free variables: "
            + " ".join(str(v) for v in _vids(free.members, args))
            + f" (size {len(free.members)}, {branch})"
        )
        print(f"{len(minimal)} minimal defining sets (mode {args.mode}):")
        for s in minimal:
            print("  " + " ".join(str(v) for v in _vids(s, args)))
    return 0


def _cmd_zebra(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    members = _parse_vertex_set(args.set, args)
    witness = zebra_witness(g, members)
    payload = {
        "command": "zebra",
        "set": _vids(members, args),
        "witness": None
        if witness is None
        else {
            "row_coefficients": list(witness.row_coefficients),
            "support": _vids(witness.support, args),
        },
    }
    if args.json:
        _emit_json(payload)
    elif witness is None:
        print("no witness: no nonzero face-equation combination is supported inside the set")
    else:
        support = " ".join(str(v) for v in _vids(witness.support, args))
        coeffs = " ".join(str(c) for c in witness.row_coefficients)
        print(f"witness found: support = {{{support}}}, row coefficients = ({coeffs})")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    needs_n = args.family in ("cl", "mobius")
    if needs_n and args.n is None:
        raise HeawoodError(f"family {args.family!r} needs a size argument")
    if not needs_n and args.n is not None:
        raise HeawoodError(f"family {args.family!r} takes no size argument")
    if args.family == "cl":
        g = families.circular_ladder(args.n)
    elif args.family == "mobius":
        g = families.mobius_ladder(args.n)
    elif args.family == "k4":
        g = families.k4()
    else:
        g = families.petersen()
    text = format_graph(g)
    if args.json:
        _emit_json({"command": "gen", "family": args.family, "n": args.n, "text": text})
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify_cln(args: argparse.Namespace) -> int:
    rows = []
    for n in range(args.start, args.end + 1):
        g = families.circular_ladder(n)
        heawood_count = count_tait_colorings_heawood(g)
        formula = families.cln_formula(n)
        oracle_count = count_tait_oracle(g) if 2 * n <= ORACLE_MAX_VERTICES else None
        ok = heawood_count == formula and (oracle_count in (None, heawood_count))
        rows.append({"n": n, "heawood": heawood_count, "formula": formula,
                     "oracle": oracle_count, "ok": ok})
    all_ok = all(row["ok"] for row in rows)
    if args.json:
        _emit_json({"command": "verify-cln", "rows": rows, "all_ok": all_ok})
    else:
        print(f"{'n':>3} {'heawood':>9} {'formula':>9} {'oracle':>7}  ok")
        for row in rows:
            oracle_text = "-" if row["oracle"] is None else str(row["oracle"])
            print(
                f"{row['n']:>3} {row['heawood']:>9} {row['formula']:>9} "
                f"{oracle_text:>7}  {'yes' if row['ok'] else 'NO'}"
            )
        print("all match" if all_ok else "MISMATCH")
    return 0 if all_ok else 1


def _cmd_verify_mobius(args: argparse.Namespace) -> int:
    rows = []
    for n in range(args.start, args.end + 1):
        g = families.mobius_ladder(n)
        oracle_count = count_tait_oracle(g)
        formula = families.mobius_formula(n)
        rows.append({"n": n, "oracle": oracle_count, "formula": formula,
                     "ok": oracle_count == formula})
    all_ok = all(row["ok"] for row in rows)
    if args.json:
        _emit_json({"command": "verify-mobius", "rows": rows, "all_ok": all_ok})
    else:
        print(f"{'n':>3} {'oracle':>7} {'formula':>9}  ok")
        for row in rows:
            print(
                f"{row['n']:>3} {row['oracle']:>7} {row['formula']:>9}  "
                f"{'yes' if row['ok'] else 'NO'}"
            )
        print("all match" if all_ok else "MISMATCH")
    return 0 if all_ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON document on stdout")
    common.add_argument(
        "--one-based", action="store_true", help="display (and read) vertex ids starting at 1"
    )

    parser = argparse.ArgumentParser(
        prog="heawood",
        description="Spin-system analysis of Tait 3-edge-colorings of planar cubic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check structural invariants")
    p.add_argument("graph", help="graph file in the text format")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("faces", parents=[common], help="trace and list all faces")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_faces)

    p = sub.add_parser("rank", parents=[common], help="rank of the main face system")
    p.add_argument("graph")
    p.add_argument("--drop-face", type=int, default=None, metavar="ID",
                   help="drop this face id instead of the default")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("count", parents=[common], help="count proper 3-edge-colorings")
    p.add_argument("graph")
    p.add_argument("--method", choices=("heawood", "oracle", "both"), default="heawood")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("heawood", parents=[common], help="Heawood vector operations")
    action = p.add_subparsers(dest="action", required=True)
    pl = action.add_parser("list", parents=[common], help="enumerate all Heawood vectors")
    pl.add_argument("graph")
    pl.set_defaults(handler=_cmd_heawood_list)

    p = sub.add_parser("tait", parents=[common], help="explicit coloring operations")
    action = p.add_subparsers(dest="action", required=True)
    pl = action.add_parser("list", parents=[common], help="enumerate colorings by brute force")
    pl.add_argument("graph")
    pl.add_argument("--limit", type=int, default=1000,
                    help="refuse if more colorings than this exist (default 1000)")
    pl.set_defaults(handler=_cmd_tait_list)

    p = sub.add_parser("defining", parents=[common], help="defining-set analysis")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("linear", "heawood"), default="linear")
    p.add_argument("--max-size", type=int, default=None, metavar="K")
    p.set_defaults(handler=_cmd_defining)

    p = sub.add_parser("zebra", parents=[common],
                       help="find a dependence witness inside a vertex set")
    p.add_argument("graph")
    p.add_argument("--set", required=True, metavar="A,B,C",
                   help="comma-separated vertex ids")
    p.set_defaults(handler=_cmd_zebra)

    p = sub.add_parser("gen", parents=[common], help="emit a named family in the text format")
    p.add_argument("family", choices=("cl", "mobius", "k4", "petersen"))
    p.add_argument("n", type=int, nargs="?", default=None)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("verify-cln", parents=[common],
                       help="check circular-ladder counts against the closed form")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.set_defaults(handler=_cmd_verify_cln)

    p = sub.add_parser("verify-mobius", parents=[common],
                       help="check Moebius-ladder counts against the closed form")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.set_defaults(handler=_cmd_verify_mobius)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (HeawoodError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
