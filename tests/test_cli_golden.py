"""Exact stdout, exit code and ``--out`` text of ``gkmc`` on tiny inputs.

``cli_golden.json`` holds the expected output of every case below: the
``gen`` exports (JSON and DOT), ``char``, ``validate`` and every
``check`` bundle, including failing and rejected runs.  Argument tokens
``{d1}``, ``{d2}``, ``{monster}``, ``{toy}`` (its datum alone), ``{wide}``,
``{names}``, ``{real}`` and ``{huge}`` (an entry of -10**400, beyond the
float range) name datum files written by ``write_datum_files``, and
``{broken}``, ``{extra}``, ``{shape}``, ``{empty}``, ``{seq-float}`` and
``{violation}`` files it writes that ``validate`` rejects; ``{out}`` names
an output file in the same directory.  The files are written once per
module and shared by every case.  An exit-1 or exit-2 case also pins its
stderr, the message a user reads, with that directory written as
``{dir}``.  A change to argument handling or dispatch that moves one
byte of output fails here.  For an intended
change of output, rewrite the file with
``PYTHONPATH=src:tests python tests/test_cli_golden.py``.
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
}


def write_datum_files(directory) -> dict:
    files = {
        name: os.path.join(directory, f"{name}.json")
        for name in ("d1", "d2", "monster", "toy", "wide", "names", "real", "huge", "seq-float")
    }
    G.save_datum_file(files["d1"], make_d1())
    G.save_datum_file(files["d2"], make_d2())
    G.save_datum_file(
        files["monster"], make_toy_monster().datum,
        sequence_spec={"kind": "monster", "level": 2, "multiplicities": [2, 1]},
    )
    G.save_datum_file(files["toy"], make_toy_monster().datum)
    G.save_datum_file(files["wide"], G.MonsterModel(G.MonsterParams(1, (20,))).datum)
    G.save_datum_file(files["names"], G.make_datum(["α", 'b"2'], [[2, -1], [-1, 0]]))
    G.save_datum_file(files["real"], G.make_datum(["a", "b"], [[2, -1], [-1, 2]]))
    G.save_datum_file(files["huge"], make_huge())
    G.save_datum_file(files["seq-float"], make_d1(),
                      sequence_spec={"kind": "explicit", "prefix": [], "cycle": [0, 1.0]})
    bad = {
        "broken": '{"indices": ["1"], "cartan": [[2]]',
        "extra": {"indices": ["1"], "cartan": [[2]], "symmetrizers": [1], "foo": 0},
        "shape": {"indices": ["1", "2"], "cartan": [[2, -1]], "symmetrizers": [1, 1]},
        "violation": {"indices": ["1", "2"], "cartan": [[-1, 1], [0, 2]], "symmetrizers": [1, 1]},
        "empty": {"indices": [], "cartan": [], "symmetrizers": []},
    }
    for name, payload in bad.items():
        files[name] = os.path.join(directory, f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))
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


def test_pinned_facts(golden):
    """The export over escaped names parses; the largest oracle box (245,157
    strings) reports no one-sided strings; two spellings export one crystal."""
    assert json.loads(golden["gen-names-json"]["stdout"])["edges"]
    report = json.loads(golden["check-oracle-rank2-depth7"]["out"])
    assert report["missing_in_bfs"] == report["missing_in_predicate"] == []
    assert golden["gen-seq-cyclic"] == golden["gen-seq-explicit"]


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
