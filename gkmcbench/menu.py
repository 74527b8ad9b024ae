"""Job menus of the gkmc benchmark and the code that runs one job.

A menu item is one fixed `gkmc` invocation (or one of the two library
calls that have no CLI verb).  Its output is deterministic, so the
expected exit code, verdict line and stdout digest of every item can be
tabulated once (``make_expected.py``) and checked on every run.

The workload seed only decides the order in which items are run: the
job list is a sequence of rounds, each round a seeded permutation of the
whole menu, so every item is drawn equally often and a run of any
length sees the whole mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
from dataclasses import dataclass

RANK2 = {"r110": (1, 1, 0), "r122": (1, 2, 2), "r214": (2, 1, 4), "r332": (3, 3, 2)}
MONSTER = {"m221": (2, (2, 1)), "m3111": (3, (1, 1, 1))}

# "<bundle>: N violations, K skipped (C checks)" from the CLI and the
# library items, "oracle-...: predicate-only ..." from the oracles.
VERDICT_RE = re.compile(
    r"^\S.*: (\d+ violations, \d+ skipped \((\d+) checks\)|predicate-only \d+, .*)$"
)


@dataclass(frozen=True)
class Item:
    """One menu entry.  ``argv`` entries of the form ``{name}`` are
    replaced by the path of datum file ``name``; ``lib`` names a
    library call (``axioms`` or ``decomposition``) instead of the CLI."""

    key: str
    argv: tuple = ()
    lib: str | None = None
    datum: str | None = None
    depth: int = 0
    lam: tuple = ()
    mu: tuple = ()

    @property
    def command(self) -> str:
        """Coarse job kind: the CLI verb (``gen``, ``char``, ``check
        axioms`` ...) or the library call name."""
        if self.lib:
            return self.lib
        return " ".join(self.argv[:2]) if self.argv[0] == "check" else self.argv[0]


def _binf_gen_menu():
    items = []
    rank2 = [(name, depth) for name in RANK2 for depth in (9, 10, 11)]
    monster = [(name, depth) for name in MONSTER for depth in (4, 5)]
    for name, depth in rank2 + monster:
        seq = ("--seq", "monster") if name in MONSTER else ()
        base = ("--datum", "{%s}" % name, "--mode", "binf", "--depth", str(depth)) + seq
        tag = f"{name} d{depth}"
        items.append(Item(f"gen-json {tag}", ("gen",) + base + ("--format", "json")))
        items.append(Item(f"gen-dot {tag}", ("gen",) + base + ("--format", "dot")))
        items.append(Item(f"char {tag}", ("char",) + base))
        items.append(Item(f"axioms-lib {tag}", lib="axioms", datum=name, depth=depth))
    return items


def _oracle_menu():
    items = []
    for name, (a, b, c) in RANK2.items():
        abc = f"{a},{b},{c}"
        for depth in (5, 6, 7):
            items.append(Item(
                f"oracle-rank2 {name} d{depth}",
                ("check", "oracle-rank2", "--abc", abc, "--depth", str(depth)),
            ))
        items.append(Item(
            f"oracle-rank2 {name} d6 lam1,1",
            ("check", "oracle-rank2", "--abc", abc, "--depth", "6", "--lambda", "1,1"),
        ))
    for level, mult in ((2, "2,1"), (3, "1,1,1"), (2, "1,1")):
        base = ("check", "oracle-monster", "--level", str(level), "--mult", mult)
        tag = f"L{level} m{mult}"
        for depth in (3, 4):
            items.append(Item(f"oracle-monster {tag} d{depth}", base + ("--depth", str(depth))))
        items.append(Item(
            f"oracle-monster {tag} d4 lamreal1",
            base + ("--depth", "4", "--lambda-real", "1"),
        ))
    return items


def _tensor_witness_menu():
    items = []
    hw_cases = [("r110", lam, depth, ()) for lam in ("1,1", "2,0", "1,2") for depth in (5, 6)]
    hw_cases += [("m221", "1,0,0,0", depth, ("--seq", "monster")) for depth in (4, 5)]
    for name, lam, depth, seq in hw_cases:
        sel = ("--datum", "{%s}" % name, "--lambda", lam, "--depth", str(depth)) + seq
        tag = f"{name} lam{lam} d{depth}"
        items.append(Item(f"gen-hw {tag}", ("gen", "--mode", "hw") + sel))
        items.append(Item(f"projection {tag}", ("check", "projection") + sel))
        items.append(Item(f"profile-hw {tag}", ("check", "profile", "--mode", "hw") + sel))
    items.append(Item("embedding r110 d6", ("check", "embedding", "--datum", "{r110}", "--depth", "6")))
    for index in ("(-1,1)", "(1,1)", "(1,2)", "(2,1)"):
        items.append(Item(
            f"embedding m221 d4 {index}",
            ("check", "embedding", "--datum", "{m221}", "--depth", "4",
             "--seq", "monster", "--index", index),
        ))
    for name in ("r110", "m221"):
        for trials in range(5, 11):
            items.append(Item(
                f"assoc {name} t{trials} s1",
                ("check", "assoc", "--datum", "{%s}" % name, "--trials", str(trials), "--seed", "1"),
            ))
        for seed in (1, 2):
            items.append(Item(
                f"axioms {name} t100 s{seed}",
                ("check", "axioms", "--datum", "{%s}" % name, "--trials", "100", "--seed", str(seed)),
            ))
    for lam, mu in (((1, 0), (0, 1)), ((1, 1), (1, 0))):
        items.append(Item(
            f"decomposition-lib r110 {lam}+{mu} d4",
            lib="decomposition", datum="r110", depth=4, lam=lam, mu=mu,
        ))
    return items


MENUS = {
    "binf-gen": _binf_gen_menu(),
    "oracle": _oracle_menu(),
    "tensor-witness": _tensor_witness_menu(),
}


def datum_names(menu) -> list:
    """Datum files the items of a menu read."""
    names = set()
    for item in menu:
        if item.datum:
            names.add(item.datum)
        names.update(a[1:-1] for a in item.argv if a.startswith("{"))
    return sorted(names)


def write_datum_files(G, names, directory) -> dict:
    """Write the named datum files (with their sequence spec) and
    return name -> path."""
    paths = {}
    for name in names:
        path = os.path.join(directory, f"{name}.json")
        if name in RANK2:
            G.save_datum_file(path, G.rank2_datum(G.Rank2Params(*RANK2[name])))
        else:
            level, mult = MONSTER[name]
            model = G.MonsterModel(G.MonsterParams(level, mult))
            spec = {"kind": "monster", "level": level, "multiplicities": list(mult)}
            G.save_datum_file(path, model.datum, sequence_spec=spec)
        paths[name] = path
    return paths


def job_stream(menu_size: int, seed: int):
    """Endless menu indices: seeded permutations of the menu, one round
    after another."""
    rng = random.Random(seed)
    while True:
        round_ = list(range(menu_size))
        rng.shuffle(round_)
        yield from round_


def job_list(menu_size: int, seed: int, count: int) -> list:
    return list(itertools.islice(job_stream(menu_size, seed), count))


def _library_job(G, item, paths):
    datum, spec = G.load_datum_file(paths[item.datum])
    seq = G.sequence_from_spec(datum, spec) if spec else G.cyclic_sequence(datum)
    if item.lib == "axioms":
        graph = G.realize_binfinity(datum, seq, item.depth)
        report = G.check_axioms(graph)
        print(f"check_axioms on {len(graph)} nodes: {report.summary()}")
    else:
        result = G.tensor_decomposition_embedding(
            datum, seq, datum.weight(lam=item.lam), datum.weight(lam=item.mu), item.depth
        )
        report = result.report
        print(
            f"decomposition of {len(result.source)} nodes into {len(result.target)}: "
            f"{report.summary()}"
        )
    return 0 if report.ok else 1


def run_item(G, item, paths):
    """Run one job in-process; return (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if item.lib:
            code = _library_job(G, item, paths)
        else:
            argv = [paths[a[1:-1]] if a.startswith("{") else a for a in item.argv]
            code = G.cli.main(argv)
    return code, out.getvalue()


def verdict_line(stdout: str) -> str:
    """The last line stating a bundle's outcome, or "" for gen/char."""
    for line in reversed(stdout.splitlines()):
        if VERDICT_RE.match(line):
            return line
    return ""


def outcome(code, stdout) -> dict:
    return {
        "exit": code,
        "verdict": verdict_line(stdout),
        "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
    }


def load_expected(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
