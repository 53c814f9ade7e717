"""Command-line interface: every subcommand, JSON stability, exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import heawood
from heawood import format_graph, parse_graph
from heawood.cli import main
from perfbench.graphgen import random_planar_cubic

from conftest import CL3_PAPER, DUMBBELL

BROKEN_TEXT = "vertices 2\n0: 1 1 1\n1: 0 0 0\n"


@pytest.fixture
def cl3_file(tmp_path):
    path = tmp_path / "cl3.graph"
    path.write_text(format_graph(CL3_PAPER), encoding="utf-8")
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.graph"
    path.write_text(BROKEN_TEXT, encoding="utf-8")
    return str(path)


class TestValidate:
    def test_human_output(self, cl3_file, capsys):
        assert main(["validate", cl3_file]) == 0
        out = capsys.readouterr().out
        assert "valid: 6 vertices, 9 edges, 5 faces, non-bipartite" in out

    def test_json_output(self, cl3_file, capsys):
        assert main(["validate", cl3_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "validate"
        assert payload["valid"] is True
        assert payload["vertices"] == 6
        assert payload["bipartite"] is False

    def test_invalid_graph_exits_one(self, broken_file, capsys):
        assert main(["validate", broken_file]) == 1
        assert "not simple" in capsys.readouterr().out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.graph")]) == 1
        assert "error:" in capsys.readouterr().err


class TestFaces:
    def test_lists_all_faces(self, cl3_file, capsys):
        assert main(["faces", cl3_file]) == 0
        out = capsys.readouterr().out
        assert "5 faces" in out
        assert "(outer hint)" in out

    def test_one_based(self, cl3_file, capsys):
        main(["faces", cl3_file, "--json", "--one-based"])
        payload = json.loads(capsys.readouterr().out)
        cycles = {tuple(f["cycle"]) for f in payload["faces"]}
        assert (1, 2, 3) in cycles  # the rim triangle in figure labels

    def test_unknown_neighbor_exits_one(self, tmp_path, capsys):
        path = tmp_path / "unknown.graph"
        path.write_text(
            "vertices 4\n0: 1 2 3\n1: 0 2 3\n2: 0 1 3\n3: 0 2 7\n", encoding="utf-8"
        )
        assert main(["faces", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "unknown neighbor 7" in captured.err

    @pytest.mark.parametrize(
        "text",
        [BROKEN_TEXT, format_graph(DUMBBELL), format_graph(heawood.petersen())],
        ids=["broken", "dumbbell", "petersen"],
    )
    def test_refuses_what_validate_rejects(self, text, tmp_path, capsys):
        path = tmp_path / "rejected.graph"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        capsys.readouterr()
        assert main(["rank", str(path)]) == 1
        rank = capsys.readouterr()
        assert main(["faces", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert captured == rank


class TestRank:
    def test_default_drop(self, cl3_file, capsys):
        assert main(["rank", cl3_file]) == 0
        assert "rank 4" in capsys.readouterr().out

    def test_each_drop_choice(self, cl3_file, capsys):
        for face_id in range(5):
            assert main(["rank", cl3_file, "--drop-face", str(face_id), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["rank"] == 4
            assert payload["dropped_face"] == face_id


class TestCount:
    def test_both_methods_agree(self, cl3_file, capsys):
        assert main(["count", cl3_file, "--method", "both"]) == 0
        out = capsys.readouterr().out
        assert "heawood: 6" in out
        assert "oracle: 6" in out
        assert "agree" in out

    def test_json(self, cl3_file, capsys):
        main(["count", cl3_file, "--method", "both", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "agree": True,
            "command": "count",
            "heawood": 6,
            "method": "both",
            "oracle": 6,
        }

    def test_counts_a_draw_too_wide_for_the_sweep(self, tmp_path, capsys):
        rng = random.Random(3)
        random_planar_cubic(300, rng)
        g = random_planar_cubic(300, rng)
        path = tmp_path / "wide.graph"
        path.write_text(format_graph(g), encoding="utf-8")
        assert main(["count", str(path)]) == 0
        assert f"heawood: {heawood.count_tait_colorings_heawood(g)}" in capsys.readouterr().out

    def test_refuses_an_elimination_too_wide(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(heawood.spins, "MAX_ELIMINATION_WIDTH", 3)
        path = tmp_path / "cl50.graph"
        path.write_text(format_graph(heawood.circular_ladder(50)), encoding="utf-8")
        assert main(["count", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: counting elimination is limited to width 3; "
            "the least-neighbour order reaches width 4\n"
        )


    def test_huge_header_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "huge.graph"
        path.write_text("vertices 1000000000000000000\n0: 1 2 3\n1: 0 2 3\n", encoding="utf-8")
        assert main(["count", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: vertex lines cover [0, 1] but the header declares 0..999999999999999999\n"
        )


class TestHeawoodList:
    def test_lists_golden_vectors(self, cl3_file, capsys):
        assert main(["heawood", "list", cl3_file]) == 0
        out = capsys.readouterr().out
        assert "2 Heawood vectors" in out
        assert "+1 +1 +1 -1 -1 -1" in out

    def test_json(self, cl3_file, capsys):
        main(["heawood", "list", cl3_file, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2
        assert [1, 1, 1, -1, -1, -1] in payload["vectors"]


class TestEmptyGraph:
    @pytest.mark.parametrize(
        "argv", [["tait", "list"], ["count", "--method", "oracle"], ["count"]], ids=" ".join
    )
    def test_one_error_line(self, argv, tmp_path, capsys):
        path = tmp_path / "empty.graph"
        path.write_text("vertices 0\n", encoding="utf-8")
        assert main([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph has no vertices\n"


class TestTaitList:
    def test_enumerates(self, cl3_file, capsys):
        assert main(["tait", "list", cl3_file]) == 0
        assert "6 colorings" in capsys.readouterr().out

    def test_limit_refusal(self, cl3_file, capsys):
        assert main(["tait", "list", cl3_file, "--limit", "2"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_limit_refusal_on_a_deep_graph(self, tmp_path, capsys):
        path = tmp_path / "cl400.graph"
        path.write_text(format_graph(heawood.circular_ladder(400)), encoding="utf-8")
        assert main(["tait", "list", str(path), "--limit", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: more than 3 colorings exist\n"


class TestDefining:
    def test_linear_mode(self, cl3_file, capsys):
        assert main(["defining", cl3_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["free_variables"] == {"bipartite": False, "members": [4, 5]}
        assert len(payload["minimal_sets"]) == 12

    def test_heawood_mode(self, cl3_file, capsys):
        assert main(["defining", cl3_file, "--mode", "heawood", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["minimal_sets"] == [[v] for v in range(6)]


class TestZebra:
    def test_witness_found(self, cl3_file, capsys):
        assert main(["zebra", cl3_file, "--set", "0,5"]) == 0
        assert "witness found" in capsys.readouterr().out

    def test_no_witness(self, cl3_file, capsys):
        assert main(["zebra", cl3_file, "--set", "0,1"]) == 0
        assert "no witness" in capsys.readouterr().out

    def test_one_based_parsing(self, cl3_file, capsys):
        assert main(["zebra", cl3_file, "--set", "1,6", "--one-based", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"]["support"] == [1, 6]

    def test_bad_set_string(self, cl3_file, capsys):
        assert main(["zebra", cl3_file, "--set", "a,b"]) == 1

    @pytest.mark.parametrize(
        "typed,flags", [("0", ["--one-based"]), ("7", ["--one-based"]), ("6", [])]
    )
    def test_unknown_id_is_named_as_typed(self, typed, flags, cl3_file, capsys):
        assert main(["zebra", cl3_file, "--set", typed, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown vertex id {typed}\n"


class TestGen:
    @pytest.mark.parametrize(
        "argv,vertices",
        [
            (["gen", "cl", "5"], 10),
            (["gen", "mobius", "4"], 8),
            (["gen", "k4"], 4),
            (["gen", "petersen"], 10),
        ],
    )
    def test_emits_parseable_text(self, argv, vertices, capsys):
        assert main(argv) == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.n_vertices == vertices

    def test_missing_size_rejected(self, capsys):
        assert main(["gen", "cl"]) == 1

    def test_spurious_size_rejected(self, capsys):
        assert main(["gen", "k4", "4"]) == 1

    def test_gen_roundtrips_through_count(self, tmp_path, capsys):
        main(["gen", "cl", "4"])
        text = capsys.readouterr().out
        path = tmp_path / "cl4.graph"
        path.write_text(text, encoding="utf-8")
        assert main(["count", str(path), "--method", "both", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["heawood"] == payload["oracle"] == 24


class TestVerify:
    def test_cln_range(self, capsys):
        assert main(["verify-cln", "--from", "3", "--to", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_ok"] is True
        by_n = {row["n"]: row for row in payload["rows"]}
        assert by_n[3]["oracle"] == 6
        assert by_n[8]["oracle"] is None  # oracle only runs for small cases
        assert by_n[8]["heawood"] == by_n[8]["formula"] == 2**8 + 8

    def test_cln_range_beyond_enumeration(self, capsys):
        assert main(["verify-cln", "--from", "3", "--to", "40", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_ok"] is True
        assert [row["n"] for row in payload["rows"]] == list(range(3, 41))

    def test_mobius_range(self, capsys):
        assert main(["verify-mobius", "--from", "3", "--to", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_ok"] is True
        assert [row["oracle"] for row in payload["rows"]] == [12, 18, 36, 66]

    def test_human_table(self, capsys):
        assert main(["verify-cln", "--from", "3", "--to", "4"]) == 0
        out = capsys.readouterr().out
        assert "all match" in out

    @pytest.mark.parametrize("command,start,end", [("verify-cln", 5, 3), ("verify-mobius", 9, 4)])
    def test_empty_range_is_an_error(self, command, start, end, capsys):
        assert main([command, "--from", str(start), "--to", str(end)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: empty range: --from {start} is above --to {end}\n"


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, cl3_file, capsys):
        main(["defining", cl3_file, "--json"])
        first = capsys.readouterr().out
        main(["defining", cl3_file, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_human_output_stable(self, cl3_file, capsys):
        main(["heawood", "list", cl3_file])
        first = capsys.readouterr().out
        main(["heawood", "list", cl3_file])
        second = capsys.readouterr().out
        assert first == second


class TestRepeatedCalls:
    def test_each_call_matches_a_fresh_process(self, cl3_file, capsys):
        # One process reuses its parser across calls; every call must still
        # answer exactly as the command run on its own does.
        env = dict(os.environ, PYTHONPATH=str(Path(heawood.__file__).parent.parent))
        for argv in (
            ["count"],
            ["count", cl3_file],
            ["defining", cl3_file, "--mode", "heawood"],
            ["count", cl3_file, "--json"],
        ):
            alone = subprocess.run(
                [sys.executable, "-m", "heawood.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert main(argv) == alone.returncode
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (alone.stdout, alone.stderr)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv", [["heawood", "--json", "list"], ["tait", "--one-based", "list"]], ids=" ".join
    )
    def test_group_flags_before_the_action_exit_two(self, argv, cl3_file, capsys):
        # The shared flags belong to the action parser, so before the action they are unknown.
        assert main([*argv, cl3_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_argument_exits_two(self, capsys):
        assert main(["zebra"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


# Every subcommand on the figure's prism and on the bipartite cube, in text
# and JSON, with 0- and 1-based ids.  ``cli_golden.json`` pins the exit code,
# stdout and stderr of each call, so any byte of difference is a change to
# the CLI's output: re-record the file only for a change made on purpose.
GOLDEN_GRAPHS = {"cl3_paper": CL3_PAPER, "cl4": heawood.circular_ladder(4)}
GOLDEN_COMMANDS = [
    "validate {}", "faces {}", "rank {}", "rank {} --drop-face 1",
    "count {}", "count {} --method both", "heawood list {}", "tait list {}",
    "defining {}", "defining {} --mode heawood --max-size 2",
    "zebra {} --set 1,3", "zebra {} --set 1,2",
]
GOLDEN_FREE = [
    "gen cl 3", "gen k4", "verify-cln --from 3 --to 5", "verify-mobius --from 3 --to 5",
]
GOLDEN_FLAGS = ["", " --json", " --one-based", " --json --one-based"]
GOLDEN_CASES = [
    f"{name}: {command}{flags}"
    for name in (*GOLDEN_GRAPHS, "-")
    for command in (GOLDEN_COMMANDS if name != "-" else GOLDEN_FREE)
    for flags in GOLDEN_FLAGS
]
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_exact_output(case, tmp_path, capsys):
    name, command = case.split(": ")
    path = tmp_path / f"{name}.graph"
    if name != "-":
        path.write_text(format_graph(GOLDEN_GRAPHS[name]), encoding="utf-8")
    rc = main(command.format(path).split())
    captured = capsys.readouterr()
    assert [rc, captured.out, captured.err] == GOLDEN[case]
