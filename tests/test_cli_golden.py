"""Every fixed ``gkmc`` case: the exact output of argv on tiny inputs,
or, where the text is not the CLI's own, its exit code and one line.

``cli_golden.json`` holds the expected output of every ``CASES`` row: the
``gen`` exports (JSON and DOT), ``char``, ``validate`` and every ``check``
bundle, including failing and rejected runs.  An argument token
``{name}`` names a file that ``write_datum_files`` writes: a datum file
(``{d1}``, ``{d2}``, ``{monster}``, ``{toy}`` (its datum alone),
``{wide}``, ``{names}``, ``{real}`` and ``{huge}``, with an entry of
-10**400, beyond the float range), a file that ``validate`` rejects
(``{broken}``, ``{empty}``, ``{violation}`` and the others named in
``write_datum_files``), or a path that is no datum file (``{missing}``,
``{dir}`` and ``{missing-dir}``); ``{out}`` names an output file in the
same directory.  The files are written once per module and shared by
every case.  An exit-1 or exit-2 case also pins its stderr, the message
a user reads, with that directory written as ``{dir}``.  A change to
argument handling or dispatch that moves one byte of output fails here.
For an intended change of output, rewrite the file with
``PYTHONPATH=src:tests python tests/test_cli_golden.py``.

``EXITS`` holds argv whose message the CLI does not write: argparse's
usage lines wrap with the terminal width, and the JSON decoder's wording
differs across Python versions.  Each row pins the exit code and a
substring of stdout and stderr.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

import gkmcrystals as G
from gkmcrystals.cli import main
from gkmcrystals.cli import build_parser

from conftest import make_d1, make_d2, make_huge, make_toy_monster

GOLDEN = Path(__file__).with_name("cli_golden.json")

CASES = {
    "validate": ["validate", "--datum", "{d1}"],
    "validate-parse-error": ["validate", "--datum", "{broken}"],
    "validate-format-error": ["validate", "--datum", "{extra}"],
    "validate-structural-error": ["validate", "--datum", "{shape}"],
    "validate-violation": ["validate", "--datum", "{violation}"],
    "gen-binf-json": ["gen", "--datum", "{d1}", "--depth", "3"],
    "gen-binf-dot": ["gen", "--datum", "{d1}", "--depth", "3", "--format", "dot"],
    "gen-hw-json": ["gen", "--datum", "{d2}", "--mode", "hw", "--lambda", "2", "--depth", "3"],
    "gen-hw-dot": [
        "gen", "--datum", "{d1}", "--mode", "hw", "--lambda", "1,1", "--depth", "2",
        "--format", "dot",
    ],
    "gen-monster-dot": [
        "gen", "--datum", "{monster}", "--seq", "monster", "--depth", "2", "--format", "dot",
    ],
    "gen-explicit-json": ["gen", "--datum", "{d1}", "--seq", "explicit:;2,1", "--depth", "2"],
    "gen-out": ["gen", "--datum", "{d1}", "--depth", "2", "--out", "{out}"],
    "gen-not-dominant": ["gen", "--datum", "{d1}", "--mode", "hw", "--lambda=-1,0", "--depth", "2"],
    "gen-bad-lambda": ["gen", "--datum", "{d1}", "--mode", "hw", "--lambda", "x", "--depth", "2"],
    "char-hw": ["char", "--datum", "{d1}", "--mode", "hw", "--lambda", "1,1", "--depth", "3"],
    "char-monster": ["char", "--datum", "{monster}", "--depth", "2"],
    "check-axioms": ["check", "axioms", "--datum", "{d1}", "--trials", "5", "--seed", "7"],
    "check-assoc": ["check", "assoc", "--datum", "{monster}", "--trials", "3", "--seed", "3"],
    "check-oracle-rank2": ["check", "oracle-rank2", "--abc", "1,1,0", "--depth", "3"],
    "check-oracle-rank2-hw": [
        "check", "oracle-rank2", "--abc", "1,2,2", "--depth", "3", "--lambda", "1,0",
        "--out", "{out}",
    ],
    "check-oracle-rank2-not-dominant": [
        "check", "oracle-rank2", "--abc", "1,1,0", "--depth", "3", "--lambda=-1,0",
    ],
    "check-oracle-monster": [
        "check", "oracle-monster", "--level", "2", "--mult", "2,1", "--depth", "2",
        "--out", "{out}",
    ],
    "check-oracle-monster-real": [
        "check", "oracle-monster", "--level", "2", "--mult", "2,1", "--depth", "2",
        "--lambda-real", "1",
    ],
    "check-oracle-monster-lambda": [
        "check", "oracle-monster", "--level", "2", "--mult", "2,1", "--depth", "2",
        "--lambda", "1,0,0,1",
    ],
    "check-projection": ["check", "projection", "--datum", "{d1}", "--lambda", "1,1", "--depth", "3"],
    "check-projection-not-dominant": [
        "check", "projection", "--datum", "{d1}", "--lambda=0,-1", "--depth", "3",
    ],
    "check-embedding-index": [
        "check", "embedding", "--datum", "{d1}", "--depth", "3", "--index", "2",
    ],
    "check-embedding-all": ["check", "embedding", "--datum", "{monster}", "--depth", "2"],
    "check-profile": [
        "check", "profile", "--datum", "{d1}", "--mode", "hw", "--lambda", "1,0", "--depth", "3",
    ],
    "check-profile-vacuous": ["check", "profile", "--datum", "{real}", "--depth", "2"],
    "huge-check-axioms": ["check", "axioms", "--datum", "{huge}", "--trials", "20", "--seed", "1"],
    "huge-check-assoc": ["check", "assoc", "--datum", "{huge}", "--trials", "3", "--seed", "1"],
    "huge-check-embedding": ["check", "embedding", "--datum", "{huge}", "--depth", "3"],
    "huge-check-projection": [
        "check", "projection", "--datum", "{huge}", "--lambda", "1,0", "--depth", "3",
    ],
    "huge-gen-hw": ["gen", "--datum", "{huge}", "--mode", "hw", "--lambda", "1,0", "--depth", "3"],
    "huge-char-hw": ["char", "--datum", "{huge}", "--mode", "hw", "--lambda", "1,0", "--depth", "3"],
    "gen-names-json": ["gen", "--datum", "{names}", "--depth", "3", "--format", "json"],
    "gen-seq-cyclic": ["gen", "--datum", "{d1}", "--depth", "3", "--seq", "cyclic"],
    "gen-seq-explicit": ["gen", "--datum", "{d1}", "--depth", "3", "--seq", "explicit:;1,2"],
    "gen-toy-explicit": [
        "gen", "--datum", "{toy}", "--depth", "2", "--seq", "explicit:;(-1,1),(1,1),(1,2),(2,1)",
    ],
    "gen-toy-hw": ["gen", "--datum", "{toy}", "--mode", "hw", "--lambda", "1,0,0,0", "--depth", "3"],
    "gen-monster-hw-imaginary": [
        "gen", "--datum", "{monster}", "--seq", "monster", "--mode", "hw", "--lambda", "1,1,0,0",
        "--depth", "4",
    ],
    "check-embedding-d1": ["check", "embedding", "--datum", "{d1}", "--depth", "3"],
    "check-assoc-d1": ["check", "assoc", "--datum", "{d1}", "--trials", "2", "--seed", "1"],
    "check-assoc-toy": ["check", "assoc", "--datum", "{toy}", "--trials", "2", "--seed", "1"],
    "check-assoc-wide": ["check", "assoc", "--datum", "{wide}", "--trials", "1", "--seed", "1"],
    "check-oracle-rank2-depth7": [
        "check", "oracle-rank2", "--abc", "1,2,2", "--depth", "7", "--out", "{out}",
    ],
    "check-oracle-monster-11": [
        "check", "oracle-monster", "--level", "2", "--mult", "1,1", "--depth", "3",
        "--lambda-real", "1",
    ],
    "check-axioms-empty": ["check", "axioms", "--datum", "{empty}", "--trials", "1"],
    "check-embedding-empty": ["check", "embedding", "--datum", "{empty}", "--depth", "1"],
    "validate-seq-float": ["validate", "--datum", "{seq-float}"],
    "gen-seq-float": ["gen", "--datum", "{seq-float}", "--depth", "1"],
    "gen-violation": ["gen", "--datum", "{violation}", "--depth", "1"],
    "validate-diagonal": ["validate", "--datum", "{diagonal}"],
    "validate-not-json": ["validate", "--datum", "{not-json}"],
    "gen-hw-json-rank1": ["gen", "--datum", "{d2}", "--mode", "hw", "--lambda", "2", "--depth", "4"],
    "gen-hw-dot-rank1": [
        "gen", "--datum", "{d2}", "--mode", "hw", "--lambda", "1", "--depth", "3", "--format", "dot",
    ],
    "gen-depth-zero": ["gen", "--datum", "{d1}", "--mode", "binf", "--depth", "0"],
    "gen-out-depth4": ["gen", "--datum", "{d1}", "--mode", "binf", "--depth", "4", "--out", "{out}"],
    "gen-lambda-arity": ["gen", "--datum", "{d1}", "--mode", "hw", "--lambda", "1", "--depth", "2"],
    "gen-lambda-without-hw": [
        "gen", "--datum", "{d1}", "--mode", "binf", "--lambda", "garbage", "--depth", "1",
    ],
    "gen-monster-file-sequence": ["gen", "--datum", "{monster}", "--mode", "binf", "--depth", "1"],
    "gen-explicit-depth1": ["gen", "--datum", "{d1}", "--depth", "1", "--seq", "explicit:;2,1"],
    "gen-monster-explicit-flag": [
        "gen", "--datum", "{monster}", "--depth", "3", "--seq", "explicit:;(-1,1),(1,1),(1,2),(2,1)",
    ],
    "gen-monster-explicit-file": ["gen", "--datum", "{monster-explicit}", "--depth", "3"],
    "gen-seq-unknown-name": ["gen", "--datum", "{d1}", "--depth", "1", "--seq", "explicit:;zz"],
    "gen-seq-never-recurs": ["gen", "--datum", "{d1}", "--depth", "1", "--seq", "explicit:;1"],
    # the names parse, but the cycle omits (1,2) and (2,1), which never recur
    "gen-monster-seq-never-recurs": [
        "gen", "--datum", "{monster}", "--depth", "1", "--seq", "explicit:(-1,1);(1,1),(-1,1)",
    ],
    "gen-monster-seq-unbalanced": [
        "gen", "--datum", "{monster}", "--depth", "1", "--seq", "explicit:;(1,1",
    ],
    "gen-missing-file": ["gen", "--datum", "{missing}", "--depth", "1"],
    "gen-out-missing-dir": ["gen", "--datum", "{d1}", "--depth", "1", "--out", "{missing-dir}"],
    "char-hw-rank1": ["char", "--datum", "{d2}", "--mode", "hw", "--lambda", "2", "--depth", "4"],
    "char-zero-weight": ["char", "--datum", "{d1}", "--mode", "hw", "--lambda", "0,0", "--depth", "3"],
    "char-binf-depth1": ["char", "--datum", "{d1}", "--depth", "1"],
    "check-axioms-40": ["check", "axioms", "--datum", "{d1}", "--trials", "40", "--seed", "7"],
    "check-axioms-seed99": ["check", "axioms", "--datum", "{d1}", "--trials", "15", "--seed", "99"],
    "check-assoc-6": ["check", "assoc", "--datum", "{monster}", "--trials", "6", "--seed", "3"],
    "check-oracle-rank2-out": [
        "check", "oracle-rank2", "--abc", "1,2,2", "--depth", "4", "--out", "{out}",
    ],
    "check-oracle-rank2-hw-depth4": [
        "check", "oracle-rank2", "--abc", "1,1,0", "--depth", "4", "--lambda", "1,0",
    ],
    "check-oracle-rank2-bad-abc": ["check", "oracle-rank2", "--abc", "1,1", "--depth", "3"],
    "check-oracle-rank2-out-missing-dir": [
        "check", "oracle-rank2", "--abc", "1,1,0", "--depth", "1", "--out", "{missing-dir}",
    ],
    "check-oracle-monster-depth3": [
        "check", "oracle-monster", "--level", "2", "--mult", "2,1", "--depth", "3",
        "--lambda-real", "1",
    ],
    # b(1) - 1 = m(1) + 1 >= 16 lies at or past the end of the shortest
    # cached index array; (1; 40) at depth 3 fails alike but runs over a minute
    "check-oracle-monster-1-15": [
        "check", "oracle-monster", "--level", "1", "--mult", "15", "--depth", "2",
    ],
    "check-oracle-monster-2-15-1": [
        "check", "oracle-monster", "--level", "2", "--mult", "15,1", "--depth", "2",
    ],
    "check-oracle-monster-1-40": [
        "check", "oracle-monster", "--level", "1", "--mult", "40", "--depth", "2",
    ],
    "check-embedding-bad-index": [
        "check", "embedding", "--datum", "{d1}", "--depth", "1", "--index", "nope",
    ],
    "check-profile-lambda-without-hw": [
        "check", "profile", "--datum", "{d1}", "--lambda", "zz", "--depth", "1",
    ],
}

# files whose payload or "sequence" entry every verb refuses
for _name in ("empty", "bad-explicit", "bool-explicit-entry", "wrong-monster", "unknown-kind",
              "no-kind", "list-kind", "cyclic-with-explicit-keys", "misspelled-explicit-key",
              "no-level", "wrong-multiplicities", "monster-extra-key"):
    CASES[f"validate-{_name}"] = ["validate", "--datum", f"{{{_name}}}"]
    CASES[f"gen-{_name}"] = ["gen", "--datum", f"{{{_name}}}", "--depth", "1"]

# name -> (argv, exit code, a substring of stdout and stderr)
EXITS = {
    "unknown-command": (["frobnicate"], 2, "error: argument command: invalid choice: 'frobnicate'"),
    "missing-datum": (["gen", "--depth", "1"], 2,
                      "error: the following arguments are required: --datum"),
    "gen-negative-depth": (["gen", "--datum", "{d1}", "--depth", "-1"], 2,
                           "error: argument --depth: must be at least 0, got -1"),
    "oracle-rank2-negative-depth": (
        ["check", "oracle-rank2", "--abc", "1,1,0", "--depth", "-1"], 2,
        "error: argument --depth: must be at least 0, got -1",
    ),
    "oracle-monster-negative-depth": (
        ["check", "oracle-monster", "--level", "2", "--mult", "2,1", "--depth", "-1"], 2,
        "error: argument --depth: must be at least 0, got -1",
    ),
    "axioms-negative-trials": (["check", "axioms", "--datum", "{d1}", "--trials", "-3"], 2,
                               "error: argument --trials: must be at least 1, got -3"),
    "assoc-zero-trials": (["check", "assoc", "--datum", "{d1}", "--trials", "0"], 2,
                          "error: argument --trials: must be at least 1, got 0"),
    "lambda-and-lambda-real": (
        ["check", "oracle-monster", "--level", "2", "--mult", "2,1", "--depth", "2",
         "--lambda", "garbage", "--lambda-real", "1"], 2,
        "error: argument --lambda-real: not allowed with argument --lambda",
    ),
}

# files the JSON decoder refuses, with the error class validate names
for _name, _error in (("binary", "parse error"), ("long-integer", "format error"),
                      ("deep-nesting", "format error")):
    EXITS[f"validate-{_name}"] = (["validate", "--datum", f"{{{_name}}}"], 2, _error)
    EXITS[f"gen-{_name}"] = (["gen", "--datum", f"{{{_name}}}", "--depth", "1"], 2,
                             "error: cannot read datum file")


MONSTER_SPEC = {"kind": "monster", "level": 2, "multiplicities": [2, 1]}


def write_datum_files(directory) -> dict:
    """Write every datum file a CLI test reads into ``directory``; return
    the path of each by name, with three paths that hold no datum file:
    ``missing`` (never written), ``dir`` (the directory) and
    ``missing-dir`` (an output file in a directory never made)."""
    d1, d2, toy = make_d1(), make_d2(), make_toy_monster().datum
    # name -> (datum, "sequence" entry), the entry at times one no verb builds
    saved = {
        "d1": (d1, None),
        "d2": (d2, None),
        "monster": (toy, MONSTER_SPEC),
        "toy": (toy, None),
        "wide": (G.MonsterModel(G.MonsterParams(1, (20,))).datum, None),
        "names": (G.make_datum(["α", 'b"2'], [[2, -1], [-1, 0]]), None),
        "real": (G.make_datum(["a", "b"], [[2, -1], [-1, 2]]), None),
        "huge": (make_huge(), None),
        "seq-float": (d1, {"kind": "explicit", "prefix": [], "cycle": [0, 1.0]}),
        "monster-explicit": (
            toy, {"kind": "explicit", "prefix": [], "cycle": ["(-1,1)", "(1,1)", "(1,2)", "(2,1)"]},
        ),
        "no-level": (toy, {"kind": "monster", "multiplicities": [2, 1]}),
        "wrong-multiplicities": (toy, {**MONSTER_SPEC, "multiplicities": [1]}),
        "monster-extra-key": (toy, {**MONSTER_SPEC, "prefix": []}),
        "wrong-monster": (d1, MONSTER_SPEC),
        "bad-explicit": (d1, {"kind": "explicit", "prefix": 5, "cycle": [0, 1]}),
        "bool-explicit-entry": (d1, {"kind": "explicit", "prefix": [True], "cycle": [0, 1]}),
        "unknown-kind": (d1, {"kind": "spiral"}),
        "no-kind": (d2, {}),
        "list-kind": (d2, {"kind": ["cyclic"]}),
        "cyclic-with-explicit-keys": (d1, {"kind": "cyclic", "prefix": ["2"], "cycle": ["2", "1"]}),
        "misspelled-explicit-key": (
            d1, {"kind": "explicit", "prefix": ["2"], "cycle": ["1", "2"], "cylce": ["2"]},
        ),
    }
    # name -> the file's bytes, text or JSON object
    raw = {
        "broken": '{"indices": ["1"], "cartan": [[2]]',
        "not-json": "{not json",
        "extra": {"indices": ["1"], "cartan": [[2]], "symmetrizers": [1], "foo": 0},
        "shape": {"indices": ["1", "2"], "cartan": [[2, -1]], "symmetrizers": [1, 1]},
        "violation": {"indices": ["1", "2"], "cartan": [[-1, 1], [0, 2]], "symmetrizers": [1, 1]},
        "diagonal": {"indices": ["1"], "cartan": [[-1]], "symmetrizers": [1]},
        "empty": {"indices": [], "cartan": [], "symmetrizers": []},
        "binary": b"\xff\xfe{",  # not UTF-8
        "long-integer": b'{"indices": ["1"], "cartan": [[' + b"9" * 5000 + b']], "symmetrizers": [1]}',
        "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    }
    files = {name: os.path.join(directory, f"{name}.json") for name in [*saved, *raw, "missing"]}
    files["dir"] = str(directory)
    files["missing-dir"] = os.path.join(directory, "missing-dir", "out.txt")
    for name, (datum, spec) in saved.items():
        G.save_datum_file(files[name], datum, sequence_spec=spec)
    for name, payload in raw.items():
        if isinstance(payload, dict):
            payload = json.dumps(payload)
        with open(files[name], "wb") as fh:
            fh.write(payload.encode() if isinstance(payload, str) else payload)
    return files


def run_case(argv, files, directory) -> dict:
    """Run one case; return its exit code, stdout and ``--out`` text, and
    on exit 1 or 2 its stderr with ``directory`` written as ``{dir}``."""
    out_path = os.path.join(directory, "out.txt")
    names = {**files, "out": out_path}
    args = [names.get(a[1:-1], a) if a.startswith("{") else a for a in argv]
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    result = {"exit": code, "stdout": stdout.getvalue()}
    if code in (1, 2):
        result["stderr"] = stderr.getvalue().replace(str(directory), "{dir}")
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            result["out"] = fh.read()
    return result


@pytest.fixture(scope="module")
def datum_files(tmp_path_factory):
    """(files, directory): the datum files, written once for every case."""
    directory = tmp_path_factory.mktemp("golden")
    return write_datum_files(directory), directory


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case(name, golden, datum_files):
    assert run_case(CASES[name], *datum_files) == golden[name]


@pytest.mark.parametrize("name", sorted(EXITS))
def test_exit(name, datum_files):
    argv, code, text = EXITS[name]
    result = run_case(argv, *datum_files)
    assert result["exit"] == code and text in result["stdout"] + result["stderr"], result


def test_pinned_facts(golden):
    """The export over escaped names parses; the oracle boxes, the
    largest of 245,157 strings, report no one-sided strings, also where
    a Monster multiplicity reaches past the cached index array; a depth-0
    export is its frontier root; two spellings of one sequence export
    one crystal."""
    assert json.loads(golden["gen-names-json"]["stdout"])["edges"]
    for name in ("check-oracle-rank2-depth7", "check-oracle-rank2-out"):
        report = json.loads(golden[name]["out"])
        assert report["missing_in_bfs"] == report["missing_in_predicate"] == []
    for name in ("check-oracle-monster-1-15", "check-oracle-monster-2-15-1",
                 "check-oracle-monster-1-40"):
        assert "predicate-only 0, generation-only 0" in golden[name]["stdout"]
    [root] = json.loads(golden["gen-depth-zero"]["stdout"])["nodes"]
    assert root["frontier"] is True
    assert golden["gen-seq-cyclic"] == golden["gen-seq-explicit"]
    flag, file = golden["gen-monster-explicit-flag"], golden["gen-monster-explicit-file"]
    assert flag == file and len(json.loads(flag["stdout"])["nodes"]) > 1


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_a_rejected_argv_leaves_the_shared_parser_intact(golden, datum_files):
    # argparse refuses "--depth x" with exit 2; the next call reuses the
    # same parser and must still give the golden output.  The usage lines
    # above argparse's message wrap at the terminal width, so only the
    # message is pinned.
    rejected = run_case(["gen", "--datum", "{d1}", "--depth", "x"], *datum_files)
    assert (rejected["exit"], rejected["stdout"]) == (2, "")
    assert rejected["stderr"].endswith("gkmc gen: error: argument --depth: 'x' is not an integer\n")
    assert run_case(CASES["gen-binf-json"], *datum_files) == golden["gen-binf-json"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = write_datum_files(tmp)
        expected = {name: run_case(argv, files, tmp) for name, argv in CASES.items()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
