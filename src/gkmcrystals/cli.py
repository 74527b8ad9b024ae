"""Command-line surface.

    gkmc validate --datum D.json
    gkmc gen   --datum D.json --mode {binf|hw} [--lambda "2,0"] --depth N
               [--seq SPEC] [--format {json|dot}] [--out PATH]
               (--lambda only with --mode hw)
    gkmc char  (same selectors, prints the weight-multiplicity table)
    gkmc check {axioms|assoc|oracle-rank2|oracle-monster|projection|embedding|profile} ...

Exit codes: 0 success, 1 verification failure (a bundle that made no
check counts as one, and so does a failed generation audit), 2 usage or
parse error.
Generation output is byte-identical across runs for identical options;
randomized checks print the seed they ran with.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys

from .cartan import DatumConditionError, DatumFormatError, DatumShapeError, load_datum_file
from .checks import check_axioms, check_category_profile
from .closed_form import (
    MonsterModel,
    Rank2Params,
    compare_predicate_with_bfs,
    rank2_datum,
    rank2_highest_weight_member,
    rank2_member,
)
from .binfinity import (
    AuditError,
    MonsterParams,
    crystal_embedding,
    cyclic_sequence,
    highest_weight_projection,
    realize_binfinity,
    realize_highest_weight,
    sequence_from_spec,
)
from .fuzzing import random_factor_graph, random_universe_graph
from .graph import graph_to_dot, graph_to_json, weight_multiplicities, weight_token
from .tensor import verify_associativity

OK, FAIL, USAGE = 0, 1, 2


class UsageError(Exception):
    pass


# what ``load_datum_file`` raises for a file it cannot read or decode
_UNREADABLE = (OSError, UnicodeDecodeError, json.JSONDecodeError)


def _dominant_lambda(datum, text):
    """The weight sum_i c_i Lambda_i of a "c_1,...,c_n" text (zero when
    absent); a usage error unless it parses, has one coefficient per
    index and is dominant."""
    if text is None:
        return datum.zero_weight()
    try:
        coeffs = [_integer(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad lambda {text!r}: {exc}") from exc
    if len(coeffs) != datum.size:
        raise UsageError(f"lambda needs {datum.size} coefficients, got {len(coeffs)}")
    lam = datum.weight(lam=coeffs)
    if not datum.is_dominant(lam):
        raise UsageError(f"lambda {text!r} is not dominant for this datum")
    return lam


def _resolve_sequence(datum, seq_arg, file_spec):
    """The sequence that ``--seq`` text names, else the datum file's
    "sequence" entry, else the cyclic one.  The text becomes a spec of
    the file's form, so both are built and checked by
    ``sequence_from_spec``."""
    if seq_arg is None:
        spec = {"kind": "cyclic"} if file_spec is None else file_spec
    elif seq_arg == "cyclic":
        spec = {"kind": "cyclic"}
    elif seq_arg == "monster":
        if file_spec is None or file_spec.get("kind") != "monster":
            raise UsageError(
                'sequence "monster" needs a {"sequence": {"kind": "monster", ...}} '
                "entry in the datum file"
            )
        spec = file_spec
    elif seq_arg.startswith("explicit:"):
        # a separator inside parentheses belongs to an index name such as (1,1)
        top = r"(?![^(]*\))"
        parts = re.split(";" + top, seq_arg[len("explicit:"):], maxsplit=1)
        if len(parts) != 2:
            raise UsageError('explicit sequence syntax is "explicit:p1,p2;c1,c2"')
        prefix, cycle = ([s for s in re.split("," + top, part) if s] for part in parts)
        spec = {"kind": "explicit", "prefix": prefix, "cycle": cycle}
    else:
        raise UsageError(f"unknown sequence spec {seq_arg!r}")
    try:
        return sequence_from_spec(datum, spec)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad sequence {json.dumps(spec)}: {exc.args[0]}") from exc


def _datum_and_sequence(path, seq_arg=None):
    """Every verb's one way in: the datum file at ``path`` and the index
    sequence of ``_resolve_sequence``."""
    try:
        datum, file_spec = load_datum_file(path)
    except (*_UNREADABLE, DatumFormatError, DatumShapeError) as exc:
        raise UsageError(f"cannot read datum file {path}: {exc}") from exc
    return datum, _resolve_sequence(datum, seq_arg, file_spec)


def _generate(args):
    if args.lam is not None and args.mode != "hw":
        raise UsageError("--lambda needs --mode hw")
    datum, seq = _datum_and_sequence(args.datum, args.seq)
    if args.mode == "binf":
        return realize_binfinity(datum, seq, args.depth)
    return realize_highest_weight(datum, seq, _dominant_lambda(datum, args.lam), args.depth)


def _emit(text, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc}") from exc


def cmd_validate(args) -> int:
    """Load the file as every other verb does, sequence entry included,
    and name the class of the first failure."""
    try:
        datum, file_spec = load_datum_file(args.datum)
        _resolve_sequence(datum, None, file_spec)
    except _UNREADABLE as exc:
        print(f"parse error: {exc}")
        return USAGE
    except DatumFormatError as exc:
        print(f"format error: {exc}")
        return USAGE
    except DatumShapeError as exc:
        print(f"structural error: {exc}")
        return USAGE
    except DatumConditionError as exc:
        for line in exc.report.lines():
            print(f"violation {line}")
        return FAIL
    except UsageError as exc:
        print(f"format error: {exc}")
        return USAGE
    print(f"valid Borcherds-Cartan datum with {datum.size} indices")
    return OK


def cmd_gen(args) -> int:
    graph = _generate(args)
    text = graph_to_json(graph) if args.format == "json" else graph_to_dot(graph)
    _emit(text, args.out)
    return OK


def cmd_char(args) -> int:
    graph = _generate(args)
    for w, mult in weight_multiplicities(graph):
        print(f"wt={weight_token(w)} mult={mult}")
    return OK


def _report_outcome(name, reports) -> int:
    """Print a bundle's verdict line; a bundle that made no check fails,
    since it verified nothing."""
    violations = sum(len(r.violations) + len(r.coverage_errors) for r in reports)
    skipped = sum(r.skipped for r in reports)
    checked = sum(r.checked for r in reports)
    print(f"{name}: {violations} violations, {skipped} skipped ({checked} checks)")
    for r in reports:
        for line in r.lines(5):
            print(f"  {line}")
        if not r.ok:
            break
    if checked == 0:
        print("  nothing was checked")
        return FAIL
    return OK if violations == 0 else FAIL


def _seeded_rng(args):
    seed = args.seed if args.seed is not None else random.randrange(2**32)
    print(f"seed: {seed}")
    return random.Random(seed)


def cmd_axioms(args) -> int:
    datum, _ = _datum_and_sequence(args.datum)
    rng = _seeded_rng(args)
    reports = [check_axioms(random_universe_graph(rng, datum)) for _ in range(args.trials)]
    return _report_outcome(f"axioms over {args.trials} random crystals", reports)


def cmd_assoc(args) -> int:
    datum, _ = _datum_and_sequence(args.datum)
    rng = _seeded_rng(args)
    reports = []
    for _ in range(args.trials):
        triple = [random_factor_graph(rng, datum) for _ in range(3)]
        reports.append(verify_associativity(*triple))
    return _report_outcome(f"associativity over {args.trials} random triples", reports)


def _oracle_outcome(title, report, out_path) -> int:
    """Print an oracle's verdict line and write its JSON report to ``--out``."""
    print(f"{title}: {report.summary()}")
    if out_path:
        _emit(json.dumps(report.to_json_dict(), sort_keys=True) + "\n", out_path)
    return OK if report.ok else FAIL


def cmd_oracle_rank2(args) -> int:
    fields = args.abc.split(",")
    try:
        if len(fields) != 3:
            raise ValueError("expected three integers a,b,c")
        a, b, c = map(_integer, fields)
        params = Rank2Params(a, b, c)
    except ValueError as exc:
        raise UsageError(f"bad --abc {args.abc!r}: {exc}") from exc
    datum = rank2_datum(params)
    seq = cyclic_sequence(datum)
    if args.lam is None:
        lam, member = None, lambda x: rank2_member(x, params)
    else:
        lam = _dominant_lambda(datum, args.lam)
        member = lambda x: rank2_highest_weight_member(x, params, datum, lam)
    report = compare_predicate_with_bfs(member, datum, seq, args.depth, lam=lam)
    return _oracle_outcome(f"oracle-rank2 a={a} b={b} c={c}", report, args.out)


def cmd_oracle_monster(args) -> int:
    try:
        mults = tuple(_integer(v) for v in args.mult.split(","))
        params = MonsterParams(args.level, mults)
    except ValueError as exc:
        raise UsageError(f"bad monster parameters: {exc}") from exc
    model = MonsterModel(params)
    for n in range(args.level + 1):
        if model.sequence.at(model.real_position(n)) != 0:
            print(f"real-slot check failed at n={n}")
            return FAIL
    lam = None
    if args.lam_real is not None:
        lam = model.datum.fundamental(0).scaled(args.lam_real)
    elif args.lam is not None:
        lam = _dominant_lambda(model.datum, args.lam)
    member = model.member if lam is None else lambda x: model.highest_weight_member(x, lam)
    report = compare_predicate_with_bfs(member, model.datum, model.sequence, args.depth, lam=lam)
    return _oracle_outcome(f"oracle-monster level={args.level} m={args.mult}", report, args.out)


def cmd_projection(args) -> int:
    datum, seq = _datum_and_sequence(args.datum, args.seq)
    lam = _dominant_lambda(datum, args.lam)
    hw = realize_highest_weight(datum, seq, lam, args.depth)
    binf = realize_binfinity(datum, seq, args.depth)
    result = highest_weight_projection(hw, binf)
    return _report_outcome(f"projection of {len(hw)} nodes into {len(binf)}", [result.report])


def cmd_embedding(args) -> int:
    datum, seq = _datum_and_sequence(args.datum, args.seq)
    binf = realize_binfinity(datum, seq, args.depth)
    if args.index is None:
        indices = list(datum.indices())
    else:
        try:
            indices = [datum.index_of(args.index)]
        except KeyError as exc:
            raise UsageError(f"bad --index: {exc.args[0]}") from exc
    reports = []
    for i in indices:
        result = crystal_embedding(binf, i)
        reports.append(result.report)
        print(
            f"index {datum.index_names[i]}: {len(result.witness.mapping)} nodes "
            f"into {len(result.target)}, {result.report.summary()}"
        )
    return _report_outcome("embedding", reports)


def cmd_profile(args) -> int:
    return _report_outcome("category profile", [check_category_profile(_generate(args))])


def _integer(text, minimum=None) -> int:
    """The int that ``text`` spells as ASCII digits after an optional
    "-", and nothing else, at least ``minimum`` when one is given; a
    ``ValueError`` otherwise.  Every integer the CLI reads goes through
    here, so "1_0", " 3", "+3" and non-ASCII digits are all refused."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"{text!r} is not an integer")
    value = int(text)
    if minimum is not None and value < minimum:
        raise ValueError(f"must be at least {minimum}, got {value}")
    return value


def _integer_option(minimum=None):
    """``_integer`` as an argparse type, which reports its message."""
    def integer(text):
        try:
            return _integer(text, minimum)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return integer


def _command(subs, name, handler, **kwargs):
    """A subcommand parser whose ``handler`` default is what ``main`` calls."""
    parser = subs.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler)
    return parser


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkmc",
        description="Crystals for quantum generalized Kac-Moody algebras.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # each shared option is declared once, in a parent parser of its own
    datum = argparse.ArgumentParser(add_help=False)
    datum.add_argument("--datum", required=True, help="datum JSON file")
    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument("--depth", type=_integer_option(0), required=True, help="depth bound")
    seq = argparse.ArgumentParser(add_help=False)
    seq.add_argument("--seq", default=None,
                     help='cyclic | monster | "explicit:p1,p2;c1,c2"; a "," or ";" '
                          'inside parentheses is part of a name such as "(1,1)"')
    lam_help = "comma-separated fundamental-weight coefficients of a dominant lambda"
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lambda", dest="lam", default=None, help=lam_help)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write the export or JSON report to this file")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_integer_option(), default=None,
                      help="random seed (default: drawn)")
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=("binf", "hw"), default="binf", help="B(inf) or B(lambda)")
    generation = [datum, mode, lam, depth, seq]

    _command(subs, "validate", cmd_validate, parents=[datum],
             help="validate a Borcherds-Cartan datum file")
    p = _command(subs, "gen", cmd_gen, parents=[*generation, out],
                 help="generate a component graph (JSON or DOT)")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    _command(subs, "char", cmd_char, parents=generation,
             help="print the weight-multiplicity table")

    p = subs.add_parser("check", help="run a verification bundle")
    checks = p.add_subparsers(dest="subcommand", required=True)

    c = _command(checks, "axioms", cmd_axioms, parents=[datum, seed])
    c.add_argument("--trials", type=_integer_option(1), default=100)

    c = _command(checks, "assoc", cmd_assoc, parents=[datum, seed])
    c.add_argument("--trials", type=_integer_option(1), default=20)

    c = _command(checks, "oracle-rank2", cmd_oracle_rank2, parents=[depth, lam, out])
    c.add_argument("--abc", required=True, help='rank-2 parameters "a,b,c"')

    c = _command(checks, "oracle-monster", cmd_oracle_monster, parents=[depth, out])
    c.add_argument("--level", type=_integer_option(), required=True)
    c.add_argument("--mult", required=True, help='multiplicities "m1,m2,..."')
    weight = c.add_mutually_exclusive_group()
    weight.add_argument("--lambda", dest="lam", default=None, help=lam_help)
    weight.add_argument("--lambda-real", dest="lam_real", type=_integer_option(0), default=None,
                        help="coefficient of the real fundamental weight")

    c = _command(checks, "projection", cmd_projection, parents=[datum, depth, seq])
    c.add_argument("--lambda", dest="lam", required=True, help=lam_help)

    c = _command(checks, "embedding", cmd_embedding, parents=[datum, depth, seq])
    c.add_argument("--index", default=None, help="index name (default: all)")

    _command(checks, "profile", cmd_profile, parents=generation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except DatumConditionError as exc:
        print(f"invalid datum: {exc}", file=sys.stderr)
        return FAIL
    except AuditError as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
