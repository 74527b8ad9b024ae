"""The CLI contract under argv built from valid and invalid fragments:
``main`` returns 0, 1 or 2 (or argparse exits with 0 or 2) and never
raises anything else.  Depths and trial counts stay tiny, so every
generated command is fast."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli_golden import datum_files, run_case  # datum_files: the shared fixture

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
# of the golden module's ``write_datum_files``
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


@settings(max_examples=150, deadline=None)
@given(argv=argv_strategy)
def test_main_keeps_exit_contract(datum_files, argv):
    assert run_case(argv, *datum_files)["exit"] in (0, 1, 2), argv


@pytest.mark.parametrize("datum", [*VALUES["--datum"][0], *VALUES["--datum"][1]])
def test_validate_agrees_with_gen(datum_files, datum):
    """``validate`` accepts exactly the datum files every other verb
    reads, and rejects the others with the exit code ``gen`` gives."""
    validate = run_case(["validate", "--datum", datum], *datum_files)["exit"]
    gen = run_case(["gen", "--datum", datum, "--depth", "0"], *datum_files)["exit"]
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


def slot_exit_code(datum_files, slot, text):
    argv = [a.replace("{n}", text) for a in INTEGER_SLOTS[slot]]
    return run_case(argv, *datum_files)["exit"]


@pytest.mark.parametrize("slot", sorted(INTEGER_SLOTS))
def test_integer_slots_accept_plain_digits(datum_files, slot):
    assert slot_exit_code(datum_files, slot, "1") in (0, 1)


@pytest.mark.parametrize("text", BAD_NUMBERS)
@pytest.mark.parametrize("slot", sorted(INTEGER_SLOTS))
def test_bad_numbers_exit_two(datum_files, slot, text):
    """Every integer is read by one rule, -?[0-9]+ with a minimum where
    the option has one; "-1" is a valid seed."""
    if slot == "seed" and text == "-1":
        return
    assert slot_exit_code(datum_files, slot, text) == 2
