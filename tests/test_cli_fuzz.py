"""The CLI contract under argv built from valid and invalid fragments:
``main`` returns 0, 1 or 2 (or argparse exits with 0 or 2) and never
raises anything else.  Depths and trial counts stay tiny, so every
generated command is fast."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkmcrystals as G
from gkmcrystals.cli import main

from conftest import make_d1, make_huge, make_toy_monster

GENERATION = ["--mode", "--lambda", "--seq"]

# verb -> (flags it requires, flags it also takes); commands carry their
# required flags most of the time, so that many get past argparse
VERBS = {
    (): ([], []),
    ("validate",): (["--datum"], []),
    ("gen",): (["--datum", "--depth"], [*GENERATION, "--format", "--out"]),
    ("char",): (["--datum", "--depth"], GENERATION),
    ("check",): ([], []),
    ("frobnicate",): ([], []),
    ("check", "axioms"): (["--datum", "--trials"], ["--seed"]),
    ("check", "assoc"): (["--datum", "--trials"], ["--seed"]),
    ("check", "oracle-rank2"): (["--abc", "--depth"], ["--lambda", "--out"]),
    ("check", "oracle-monster"): (["--level", "--mult", "--depth"],
                                  ["--lambda", "--lambda-real", "--out"]),
    ("check", "projection"): (["--datum", "--lambda", "--depth"], ["--seq"]),
    ("check", "embedding"): (["--datum", "--depth"], ["--seq", "--index"]),
    ("check", "profile"): (["--datum", "--depth"], GENERATION),
    ("check", "bogus"): ([], []),
}

BAD_NUMBERS = ["-1", "x", "", "1.5", "0x1", "1e2", " ", "1_0", " 3", "+3", "\u0663"]

# flag -> (values that parse, values that do not); "{...}" names a file
# of the fixture below
VALUES = {
    "--datum": (["{d1}", "{monster}", "{real}", "{huge}"],
                ["{broken}", "{no-level}", "{missing}", "{dir}", "{empty}", "{bad-explicit}",
                 "{wrong-monster}", "{binary}", "{violation}"]),
    "--depth": (["0", "1", "2"], BAD_NUMBERS),
    "--mode": (["binf", "hw"], ["bogus"]),
    "--lambda": (["1,0", "0,0", "1,1", "1,0,0,0", "0,1,0,0"],
                 ["1", "0,0,0", "-1,0", "a,b", ""]),
    "--seq": (["cyclic", "monster", "explicit:;1,2", "explicit:2;1,2", "explicit:;a,b"],
              ["explicit:;zz", "explicit:;1", "explicit:", "explicit:;", "bogus"]),
    "--format": (["json", "dot"], ["xml"]),
    "--out": (["{out}"], ["{missing-dir}", "{dir}"]),
    "--trials": (["1", "2"], ["0", *BAD_NUMBERS]),
    "--seed": (["1", "7"], ["x", "1_0", " 3", "+3"]),
    "--abc": (["1,1,0", "1,2,2", "2,1,4"], ["1,1", "a,b,c", "0,0,0", "-1,1,0", "1,1,1"]),
    "--level": (["1", "2"], ["0", *BAD_NUMBERS]),
    "--mult": (["1", "2", "2,1", "1,1", "15", "15,1"], ["0", "x", ""]),
    "--lambda-real": (["0", "1"], ["-1", "x"]),
    "--index": (["1", "2", "a", "(-1,1)"], ["nope", ""]),
    "--help": ([None], []),
}


def with_value(flag):
    """The flag and, mostly, a value that parses."""
    valid, invalid = VALUES[flag]
    value = st.one_of(*[st.sampled_from(valid)] * 3, *[st.sampled_from(invalid)] * bool(invalid))
    return value.map(lambda v: [flag] if v is None else [flag, v])


def command(verb):
    """verb, its required flags (each missing at times), a few other
    flags, and at times the last token dropped (a flag missing its
    value)."""
    required, optional = VERBS[verb]
    extra = st.sampled_from(sorted(VALUES))
    if optional:
        extra = st.one_of(*[st.sampled_from(optional)] * 3, extra)
    return st.tuples(
        st.tuples(*(st.one_of(*[with_value(f)] * 7, st.just([])) for f in required)),
        st.lists(extra.flatmap(with_value), max_size=4),
        st.sampled_from([False, False, False, True]),
    ).map(lambda t: list(verb) + [
        a for frag in (*t[0], *t[1]) for a in frag
    ][: -1 if t[2] else None])


argv_strategy = st.sampled_from(sorted(VERBS)).flatmap(command)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"{dir}": str(root), "{out}": str(root / "out.txt"),
             "{missing}": str(root / "missing.json"),
             "{missing-dir}": str(root / "missing-dir" / "out.txt")}
    for key, datum, spec in [
        ("{d1}", make_d1(), None),
        ("{monster}", make_toy_monster().datum,
         {"kind": "monster", "level": 2, "multiplicities": [2, 1]}),
        ("{real}", G.make_datum(["a", "b"], [[2, -1], [-1, 2]]), None),
        ("{huge}", make_huge(), None),
        ("{no-level}", make_toy_monster().datum, {"kind": "monster", "multiplicities": [2, 1]}),
        ("{bad-explicit}", make_d1(), {"kind": "explicit", "prefix": 5, "cycle": ["1", "2"]}),
        ("{wrong-monster}", make_d1(), {"kind": "monster", "level": 2, "multiplicities": [2, 1]}),
    ]:
        paths[key] = str(root / (key.strip("{}") + ".json"))
        G.save_datum_file(paths[key], datum, sequence_spec=spec)
    for key, payload in [
        ("{broken}", json.dumps({"indices": ["1"], "cartan": [[2]]})[:-3].encode()),
        ("{empty}", json.dumps({"indices": [], "cartan": [], "symmetrizers": []}).encode()),
        ("{binary}", b"\xff\xfe{"),
        ("{violation}", json.dumps({"indices": ["1"], "cartan": [[-1]], "symmetrizers": [1]})
         .encode()),
    ]:
        paths[key] = str(root / (key.strip("{}") + ".json"))
        with open(paths[key], "wb") as fh:
            fh.write(payload)
    return paths


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@settings(max_examples=150, deadline=None)
@given(argv=argv_strategy)
def test_main_keeps_exit_contract(files, argv):
    argv = [files.get(a, a) for a in argv]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = exit_code(argv)
    assert code in (0, 1, 2), argv


@pytest.mark.parametrize("datum", [*VALUES["--datum"][0], *VALUES["--datum"][1]])
def test_validate_agrees_with_gen(files, datum):
    """``validate`` accepts exactly the datum files every other verb
    reads, and rejects the others with the exit code ``gen`` gives."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        validate = exit_code(["validate", "--datum", files[datum]])
        gen = exit_code(["gen", "--datum", files[datum], "--depth", "0"])
    assert validate == gen
    assert (validate == 0) == (datum in VALUES["--datum"][0])


# one command per integer the CLI reads; "{n}" is the integer's slot
INTEGER_SLOTS = {
    "depth": ["gen", "--datum", "{d1}", "--depth", "{n}"],
    "trials": ["check", "axioms", "--datum", "{d1}", "--trials", "{n}", "--seed", "1"],
    "seed": ["check", "assoc", "--datum", "{d1}", "--trials", "1", "--seed", "{n}"],
    "level": ["check", "oracle-monster", "--level", "{n}", "--mult", "1", "--depth", "1"],
    "lambda-real": ["check", "oracle-monster", "--level", "1", "--mult", "1", "--depth", "1",
                    "--lambda-real", "{n}"],
    "mult": ["check", "oracle-monster", "--level", "1", "--mult", "{n}", "--depth", "1"],
    "abc": ["check", "oracle-rank2", "--abc", "{n},1,0", "--depth", "1"],
    "lambda": ["gen", "--datum", "{d1}", "--mode", "hw", "--lambda", "{n},0", "--depth", "1"],
}


def slot_exit_code(files, slot, text):
    argv = [files.get(a, a.replace("{n}", text)) for a in INTEGER_SLOTS[slot]]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return exit_code(argv)


@pytest.mark.parametrize("slot", sorted(INTEGER_SLOTS))
def test_integer_slots_accept_plain_digits(files, slot):
    assert slot_exit_code(files, slot, "1") in (0, 1)


@pytest.mark.parametrize("text", BAD_NUMBERS)
@pytest.mark.parametrize("slot", sorted(INTEGER_SLOTS))
def test_bad_numbers_exit_two(files, slot, text):
    """Every integer is read by one rule, -?[0-9]+ with a minimum where
    the option has one; "-1" is a valid seed."""
    if slot == "seed" and text == "-1":
        return
    assert slot_exit_code(files, slot, text) == 2
