import json

import pytest

import gkmcrystals as G
from gkmcrystals.cli import main

from conftest import make_d1, make_d2, make_toy_monster


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.json"
    G.save_datum_file(path, make_d1())
    return str(path)


@pytest.fixture
def d2_file(tmp_path):
    path = tmp_path / "d2.json"
    G.save_datum_file(path, make_d2())
    return str(path)


@pytest.fixture
def monster_file(tmp_path):
    model = make_toy_monster()
    path = tmp_path / "monster.json"
    G.save_datum_file(
        path, model.datum,
        sequence_spec={"kind": "monster", "level": 2, "multiplicities": [2, 1]},
    )
    return str(path)


class TestValidate:
    def test_valid_file(self, d1_file, capsys):
        assert main(["validate", "--datum", d1_file]) == 0
        assert "valid" in capsys.readouterr().out

    def test_condition_violation_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "indices": ["1"], "cartan": [[-1]], "symmetrizers": [1],
        }))
        assert main(["validate", "--datum", str(path)]) == 1
        assert "diagonal" in capsys.readouterr().out

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--datum", str(path)]) == 2
        assert "parse error" in capsys.readouterr().out

    def test_unknown_field_exits_two(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({
            "indices": ["1"], "cartan": [[2]], "symmetrizers": [1], "foo": 0,
        }))
        assert main(["validate", "--datum", str(path)]) == 2

    def test_dimension_mismatch_is_structural(self, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({
            "indices": ["1", "2"], "cartan": [[2, -1]], "symmetrizers": [1, 1],
        }))
        assert main(["validate", "--datum", str(path)]) == 2
        assert "structural" in capsys.readouterr().out


class TestGen:
    def test_highest_weight_json(self, d2_file, capsys):
        assert main([
            "gen", "--datum", d2_file, "--mode", "hw", "--lambda", "2", "--depth", "4",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["nodes"]) == 3

    def test_depth_zero_single_node(self, d1_file, capsys):
        assert main(["gen", "--datum", d1_file, "--mode", "binf", "--depth", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["nodes"]) == 1
        assert payload["nodes"][0]["frontier"] is True

    def test_byte_identical_runs(self, d1_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main([
                "gen", "--datum", d1_file, "--mode", "binf", "--depth", "4",
                "--out", str(out),
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dot_format(self, d2_file, capsys):
        assert main([
            "gen", "--datum", d2_file, "--mode", "hw", "--lambda", "1",
            "--depth", "3", "--format", "dot",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph crystal {")
        assert '[label="1"]' in out

    def test_non_dominant_lambda_rejected(self, d1_file, capsys):
        assert main([
            "gen", "--datum", d1_file, "--mode", "hw", "--lambda=-1,0",
            "--depth", "2",
        ]) == 2

    def test_bad_lambda_arity(self, d1_file):
        assert main([
            "gen", "--datum", d1_file, "--mode", "hw", "--lambda", "1",
            "--depth", "2",
        ]) == 2

    def test_monster_sequence_from_file(self, monster_file, capsys):
        assert main([
            "gen", "--datum", monster_file, "--mode", "binf", "--depth", "1",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        # lowering is total on strings: the root plus one node per index
        assert len(payload["nodes"]) == 5
        assert payload["edges"][0]["i"] == "(-1,1)"

    def test_explicit_sequence_flag(self, d1_file, capsys):
        assert main([
            "gen", "--datum", d1_file, "--depth", "1", "--seq", "explicit:;2,1",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["nodes"]) == 3

    def test_explicit_sequence_flag_names_monster_indices(self, monster_file, tmp_path, capsys):
        # the "," inside "(1,1)" belongs to the name; the flag and the same
        # spec in a datum file's "sequence" entry give the same bytes
        names = ["(-1,1)", "(1,1)", "(1,2)", "(2,1)"]
        assert main([
            "gen", "--datum", monster_file, "--depth", "3", "--seq", "explicit:;" + ",".join(names),
        ]) == 0
        from_flag = capsys.readouterr().out
        path = tmp_path / "explicit.json"
        G.save_datum_file(
            path, make_toy_monster().datum,
            sequence_spec={"kind": "explicit", "prefix": [], "cycle": names},
        )
        assert main(["gen", "--datum", str(path), "--depth", "3"]) == 0
        assert capsys.readouterr().out == from_flag
        assert len(json.loads(from_flag)["nodes"]) > 1

    def test_missing_file_exits_two(self, tmp_path):
        assert main([
            "gen", "--datum", str(tmp_path / "nope.json"), "--depth", "1",
        ]) == 2


class TestChar:
    def test_rank1_highest_weight(self, d2_file, capsys):
        assert main([
            "char", "--datum", d2_file, "--mode", "hw", "--lambda", "2", "--depth", "4",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "wt=[2|0] mult=1",
            "wt=[2|-1] mult=1",
            "wt=[2|-2] mult=1",
        ]

    def test_zero_weight_single_line(self, d1_file, capsys):
        assert main([
            "char", "--datum", d1_file, "--mode", "hw", "--lambda", "0,0", "--depth", "3",
        ]) == 0
        assert capsys.readouterr().out.strip() == "wt=[0,0|0,0] mult=1"

    def test_binf_depth_one(self, d1_file, capsys):
        assert main(["char", "--datum", d1_file, "--depth", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "wt=[0,0|0,0] mult=1",
            "wt=[0,0|-1,0] mult=1",
            "wt=[0,0|0,-1] mult=1",
        ]


class TestCheck:
    def test_axioms(self, d1_file, capsys):
        rc = main([
            "check", "axioms", "--datum", d1_file, "--trials", "40", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed: 7" in out
        assert "0 violations" in out

    def test_assoc(self, monster_file, capsys):
        rc = main([
            "check", "assoc", "--datum", monster_file, "--trials", "6", "--seed", "3",
        ])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_seed_makes_runs_reproducible(self, d1_file, capsys):
        args = ["check", "axioms", "--datum", d1_file, "--trials", "15", "--seed", "99"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_oracle_rank2(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "check", "oracle-rank2", "--abc", "1,2,2", "--depth", "4",
            "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["missing_in_bfs"] == []
        assert payload["missing_in_predicate"] == []

    def test_oracle_rank2_highest_weight(self, capsys):
        rc = main([
            "check", "oracle-rank2", "--abc", "1,1,0", "--depth", "4",
            "--lambda", "1,0",
        ])
        assert rc == 0

    def test_oracle_monster(self, capsys):
        rc = main([
            "check", "oracle-monster", "--level", "2", "--mult", "2,1",
            "--depth", "3", "--lambda-real", "1",
        ])
        assert rc == 0

    @pytest.mark.parametrize("level,mult", [("1", "15"), ("2", "15,1"), ("1", "40")])
    def test_oracle_monster_second_slot_past_the_array(self, capsys, level, mult):
        # b(1) - 1 = m(1) + 1 >= 16 lies at or past the end of the shortest
        # cached index array; (1; 40) at depth 3 fails alike but runs over a minute
        rc = main(["check", "oracle-monster", "--level", level, "--mult", mult, "--depth", "2"])
        assert rc == 0
        assert "predicate-only 0, generation-only 0" in capsys.readouterr().out

    def test_projection(self, d1_file, capsys):
        rc = main([
            "check", "projection", "--datum", d1_file, "--lambda", "1,1",
            "--depth", "3",
        ])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_embedding_single_index(self, d1_file, capsys):
        rc = main([
            "check", "embedding", "--datum", d1_file, "--depth", "3",
            "--index", "2",
        ])
        assert rc == 0
        assert "index 2:" in capsys.readouterr().out

    def test_embedding_all_indices(self, monster_file):
        assert main(["check", "embedding", "--datum", monster_file, "--depth", "2"]) == 0

    def test_profile(self, d1_file):
        assert main([
            "check", "profile", "--datum", d1_file, "--mode", "hw",
            "--lambda", "1,0", "--depth", "3",
        ]) == 0

    def test_bad_abc_exits_two(self):
        assert main(["check", "oracle-rank2", "--abc", "1,1", "--depth", "3"]) == 2


class TestVacuousBundleFails:
    def test_profile_without_imaginary_index(self, tmp_path, capsys):
        path = tmp_path / "real.json"
        G.save_datum_file(path, G.make_datum(["a", "b"], [[2, -1], [-1, 2]]))
        assert main(["check", "profile", "--datum", str(path), "--depth", "2"]) == 1
        out = capsys.readouterr().out
        assert "category profile: 0 violations, 0 skipped (0 checks)" in out
        assert "nothing was checked" in out


class TestUsage:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--depth", "1"])
        assert exc.value.code == 2


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestBadInputsExitTwo:
    @pytest.mark.parametrize("argv", [
        ["check", "oracle-rank2", "--abc", "1,1,0", "--depth", "-1"],
        ["check", "oracle-monster", "--level", "2", "--mult", "2,1", "--depth", "-1"],
        ["gen", "--datum", "{d1}", "--depth", "-1"],
        ["check", "axioms", "--datum", "{d1}", "--trials", "-3"],
        ["check", "assoc", "--datum", "{d1}", "--trials", "0"],
        ["gen", "--datum", "{d1}", "--depth", "1", "--seq", "explicit:;zz"],
        ["gen", "--datum", "{d1}", "--depth", "1", "--seq", "explicit:;1"],
        # the names parse, but the cycle omits (1,2) and (2,1), which never recur
        ["gen", "--datum", "{monster}", "--depth", "1", "--seq", "explicit:(-1,1);(1,1),(-1,1)"],
        ["gen", "--datum", "{monster}", "--depth", "1", "--seq", "explicit:;(1,1"],
        ["check", "embedding", "--datum", "{d1}", "--depth", "1", "--index", "nope"],
        ["gen", "--datum", "{d1}", "--mode", "binf", "--lambda", "garbage", "--depth", "1"],
        ["check", "profile", "--datum", "{d1}", "--lambda", "zz", "--depth", "1"],
        ["check", "oracle-monster", "--level", "2", "--mult", "2,1", "--depth", "2",
         "--lambda", "garbage", "--lambda-real", "1"],
    ], ids=[
        "oracle-rank2-depth", "oracle-monster-depth", "gen-depth", "axioms-trials",
        "assoc-trials", "unknown-index-name", "index-never-recurs", "monster-explicit-name",
        "monster-unbalanced-parenthesis", "embedding-index",
        "lambda-without-hw-mode", "profile-lambda-without-hw-mode",
        "lambda-and-lambda-real",
    ])
    def test_rejected(self, d1_file, monster_file, argv):
        files = {"{d1}": d1_file, "{monster}": monster_file}
        assert exit_code([files.get(a, a) for a in argv]) == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "--datum", "{d1}", "--depth", "1", "--out"],
        ["check", "oracle-rank2", "--abc", "1,1,0", "--depth", "1", "--out"],
    ], ids=["gen-out", "oracle-rank2-out"])
    def test_out_in_missing_directory(self, d1_file, tmp_path, argv):
        out = str(tmp_path / "missing-dir" / "out.json")
        assert exit_code([d1_file if a == "{d1}" else a for a in argv] + [out]) == 2

    @pytest.mark.parametrize("spec", [
        {"kind": "monster", "multiplicities": [2, 1]},
        {"kind": "monster", "level": 2, "multiplicities": [1]},
        {"kind": "monster", "level": 2, "multiplicities": [2, 1], "prefix": []},
    ], ids=["no-level", "wrong-multiplicities", "monster-extra-key"])
    def test_bad_monster_sequence_in_datum_file(self, tmp_path, spec):
        path = tmp_path / "monster.json"
        G.save_datum_file(path, make_toy_monster().datum, sequence_spec=spec)
        assert main(["gen", "--datum", str(path), "--depth", "1"]) == 2

    @pytest.mark.parametrize("payload", [
        {"indices": [], "cartan": [], "symmetrizers": []},
        {"indices": ["1", "2"], "cartan": [[2, -1], [-1, 0]], "symmetrizers": [1, 1],
         "sequence": {"kind": "explicit", "prefix": 5, "cycle": [0, 1]}},
        {"indices": ["1", "2"], "cartan": [[2, -1], [-1, 0]], "symmetrizers": [1, 1],
         "sequence": {"kind": "explicit", "prefix": [True], "cycle": [0, 1]}},
        {"indices": ["1", "2"], "cartan": [[2, -1], [-1, 0]], "symmetrizers": [1, 1],
         "sequence": {"kind": "monster", "level": 2, "multiplicities": [2, 1]}},
        {"indices": ["1", "2"], "cartan": [[2, -1], [-1, 0]], "symmetrizers": [1, 1],
         "sequence": {"kind": "spiral"}},
        {"indices": ["1"], "cartan": [[2]], "symmetrizers": [1], "sequence": {}},
        {"indices": ["1", "2"], "cartan": [[2, -1], [-1, 0]], "symmetrizers": [1, 1],
         "sequence": {"kind": "cyclic", "prefix": ["2"], "cycle": ["2", "1"]}},
        {"indices": ["1", "2"], "cartan": [[2, -1], [-1, 0]], "symmetrizers": [1, 1],
         "sequence": {"kind": "explicit", "prefix": ["2"], "cycle": ["1", "2"], "cylce": ["2"]}},
        {"indices": ["1"], "cartan": [[2]], "symmetrizers": [1], "sequence": {"kind": ["cyclic"]}},
    ], ids=["empty", "bad-explicit", "bool-explicit-entry", "wrong-monster", "unknown-kind",
            "no-kind", "cyclic-with-explicit-keys", "misspelled-explicit-key", "list-kind"])
    def test_bad_datum_file(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["gen", "--datum", str(path), "--depth", "1"]) == 2
        assert main(["validate", "--datum", str(path)]) == 2
        assert "error" in capsys.readouterr().out

    @pytest.mark.parametrize("text, error", [
        (b"\xff\xfe{", "parse error"),
        (b'{"indices": ["1"], "cartan": [[' + b"9" * 5000 + b']], "symmetrizers": [1]}',
         "format error"),
        (b"[" * 100_000 + b"]" * 100_000, "format error"),
    ], ids=["not-utf-8", "long-integer", "deep-nesting"])
    def test_datum_file_the_decoder_refuses(self, tmp_path, capsys, text, error):
        path = tmp_path / "refused.json"
        path.write_bytes(text)
        assert main(["gen", "--datum", str(path), "--depth", "1"]) == 2
        assert main(["validate", "--datum", str(path)]) == 2
        assert capsys.readouterr().out.startswith(error)
