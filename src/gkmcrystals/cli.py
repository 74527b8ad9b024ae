"""Command-line surface.

    gkmc validate --datum D.json
    gkmc gen   --datum D.json --mode {binf|hw} [--lambda "2,0"] --depth N
               [--seq SPEC] [--format {json|dot}] [--out PATH]
    gkmc char  (same selectors, prints the weight-multiplicity table)
    gkmc check {axioms|assoc|oracle-rank2|oracle-monster|projection|embedding|profile} ...

Exit codes: 0 success, 1 verification failure (a bundle that made no
check counts as one), 2 usage or parse error.
Generation output is byte-identical across runs for identical options;
randomized checks print the seed they ran with.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .cartan import (
    DatumConditionError,
    DatumFormatError,
    DatumShapeError,
    load_datum_file,
    make_datum,
    parse_datum_payload,
    validate_cartan_data,
)
from .checks import check_axioms, check_category_profile
from .closed_form import (
    MonsterModel,
    MonsterParams,
    Rank2Params,
    compare_predicate_with_bfs,
    monster_real_position,
    rank2_datum,
    rank2_highest_weight_member,
    rank2_member,
)
from .binfinity import (
    crystal_embedding,
    cyclic_sequence,
    explicit_sequence,
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


def _load_datum(path):
    try:
        return load_datum_file(path)
    except (OSError, json.JSONDecodeError, DatumFormatError, DatumShapeError) as exc:
        raise UsageError(f"cannot read datum file {path}: {exc}") from exc


def _parse_lambda(datum, text):
    if text is None:
        return datum.zero_weight()
    try:
        coeffs = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad lambda {text!r}: {exc}") from exc
    if len(coeffs) != datum.size:
        raise UsageError(f"lambda needs {datum.size} coefficients, got {len(coeffs)}")
    return datum.weight(lam=coeffs)


def _sequence_from_file(datum, file_spec):
    try:
        return sequence_from_spec(datum, file_spec)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad sequence in the datum file: {exc.args[0]}") from exc


def _resolve_sequence(datum, seq_arg, file_spec):
    if seq_arg is None:
        if file_spec is not None:
            return _sequence_from_file(datum, file_spec)
        return cyclic_sequence(datum)
    if seq_arg == "cyclic":
        return cyclic_sequence(datum)
    if seq_arg == "monster":
        if file_spec is None or file_spec.get("kind") != "monster":
            raise UsageError(
                'sequence "monster" needs a {"sequence": {"kind": "monster", ...}} '
                "entry in the datum file"
            )
        return _sequence_from_file(datum, file_spec)
    if seq_arg.startswith("explicit:"):
        body = seq_arg[len("explicit:"):]
        if ";" not in body:
            raise UsageError('explicit sequence syntax is "explicit:p1,p2;c1,c2"')
        prefix_text, cycle_text = body.split(";", 1)
        try:
            prefix = [datum.index_of(s) for s in prefix_text.split(",") if s]
            cycle = [datum.index_of(s) for s in cycle_text.split(",") if s]
            return explicit_sequence(datum, prefix, cycle)
        except (KeyError, ValueError) as exc:
            raise UsageError(f"bad sequence {seq_arg!r}: {exc.args[0]}") from exc
    raise UsageError(f"unknown sequence spec {seq_arg!r}")


def _generate(args):
    datum, file_spec = _load_datum(args.datum)
    seq = _resolve_sequence(datum, args.seq, file_spec)
    if args.mode == "binf":
        return realize_binfinity(datum, seq, args.depth)
    lam = _parse_lambda(datum, args.lam)
    if not datum.is_dominant(lam):
        raise UsageError(f"lambda {args.lam!r} is not dominant for this datum")
    return realize_highest_weight(datum, seq, lam, args.depth)


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
    try:
        with open(args.datum, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}")
        return USAGE
    try:
        names, matrix, syms, _ = parse_datum_payload(obj)
    except DatumFormatError as exc:
        print(f"format error: {exc}")
        return USAGE
    try:
        report = validate_cartan_data(matrix, syms)
        if report.ok:
            make_datum(names, matrix, syms)
    except DatumShapeError as exc:
        print(f"structural error: {exc}")
        return USAGE
    if report.ok:
        print(f"valid Borcherds-Cartan datum with {len(matrix)} indices")
        return OK
    for line in report.lines():
        print(f"violation {line}")
    return FAIL


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


def cmd_check(args) -> int:
    sub = args.subcommand

    if sub == "axioms":
        datum, _ = _load_datum(args.datum)
        rng = _seeded_rng(args)
        reports = [
            check_axioms(random_universe_graph(rng, datum)) for _ in range(args.trials)
        ]
        return _report_outcome(f"axioms over {args.trials} random crystals", reports)

    if sub == "assoc":
        datum, _ = _load_datum(args.datum)
        rng = _seeded_rng(args)
        reports = []
        for _ in range(args.trials):
            triple = [random_factor_graph(rng, datum) for _ in range(3)]
            reports.append(verify_associativity(*triple))
        return _report_outcome(f"associativity over {args.trials} random triples", reports)

    if sub == "oracle-rank2":
        try:
            a, b, c = (int(v) for v in args.abc.split(","))
            params = Rank2Params(a, b, c)
        except ValueError as exc:
            raise UsageError(f"bad --abc {args.abc!r}: {exc}") from exc
        datum = rank2_datum(params)
        seq = cyclic_sequence(datum)
        if args.lam is None:
            report = compare_predicate_with_bfs(
                lambda x: rank2_member(x, params), datum, seq, args.depth
            )
        else:
            lam = _parse_lambda(datum, args.lam)
            if not datum.is_dominant(lam):
                raise UsageError(f"lambda {args.lam!r} is not dominant")
            report = compare_predicate_with_bfs(
                lambda x: rank2_highest_weight_member(x, params, datum, lam),
                datum, seq, args.depth, lam=lam,
            )
        print(f"oracle-rank2 a={a} b={b} c={c}: {report.summary()}")
        if args.out:
            _emit(json.dumps(report.to_json_dict(), sort_keys=True) + "\n", args.out)
        return OK if report.ok else FAIL

    if sub == "oracle-monster":
        try:
            mults = tuple(int(v) for v in args.mult.split(","))
            params = MonsterParams(args.level, mults)
        except ValueError as exc:
            raise UsageError(f"bad monster parameters: {exc}") from exc
        model = MonsterModel(params)
        for n in range(args.level + 1):
            position = monster_real_position(n, mults)
            if model.sequence.at(position) != 0:
                print(f"real-slot check failed at n={n}")
                return FAIL
        if args.lam is None and args.lam_real is None:
            report = compare_predicate_with_bfs(
                model.member, model.datum, model.sequence, args.depth
            )
        else:
            if args.lam_real is not None:
                lam = model.datum.fundamental(0).scaled(args.lam_real)
            else:
                lam = _parse_lambda(model.datum, args.lam)
            if not model.datum.is_dominant(lam):
                raise UsageError("lambda is not dominant")
            report = compare_predicate_with_bfs(
                lambda x: model.highest_weight_member(x, lam),
                model.datum, model.sequence, args.depth, lam=lam,
            )
        print(f"oracle-monster level={args.level} m={args.mult}: {report.summary()}")
        if args.out:
            _emit(json.dumps(report.to_json_dict(), sort_keys=True) + "\n", args.out)
        return OK if report.ok else FAIL

    if sub == "projection":
        datum, file_spec = _load_datum(args.datum)
        seq = _resolve_sequence(datum, args.seq, file_spec)
        lam = _parse_lambda(datum, args.lam)
        if not datum.is_dominant(lam):
            raise UsageError(f"lambda {args.lam!r} is not dominant")
        hw = realize_highest_weight(datum, seq, lam, args.depth)
        binf = realize_binfinity(datum, seq, args.depth)
        result = highest_weight_projection(hw, binf)
        return _report_outcome(
            f"projection of {len(hw)} nodes into {len(binf)}", [result.report]
        )

    if sub == "embedding":
        datum, file_spec = _load_datum(args.datum)
        seq = _resolve_sequence(datum, args.seq, file_spec)
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

    if sub == "profile":
        graph = _generate(args)
        return _report_outcome("category profile", [check_category_profile(graph)])

    raise UsageError(f"unknown check subcommand {sub!r}")


def _nonnegative_int(text) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_generation_options(parser, with_output):
    parser.add_argument("--datum", required=True, help="datum JSON file")
    parser.add_argument("--mode", choices=("binf", "hw"), default="binf")
    parser.add_argument("--lambda", dest="lam", default=None,
                        help="comma-separated fundamental-weight coefficients")
    parser.add_argument("--depth", type=_nonnegative_int, required=True)
    parser.add_argument("--seq", default=None,
                        help='cyclic | monster | "explicit:p1,p2;c1,c2"')
    if with_output:
        parser.add_argument("--format", choices=("json", "dot"), default="json")
        parser.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkmc",
        description="Crystals for quantum generalized Kac-Moody algebras.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="validate a Borcherds-Cartan datum file")
    p.add_argument("--datum", required=True)

    p = subs.add_parser("gen", help="generate a component graph (JSON or DOT)")
    _add_generation_options(p, with_output=True)

    p = subs.add_parser("char", help="print the weight-multiplicity table")
    _add_generation_options(p, with_output=False)

    p = subs.add_parser("check", help="run a verification bundle")
    checks = p.add_subparsers(dest="subcommand", required=True)

    c = checks.add_parser("axioms")
    c.add_argument("--datum", required=True)
    c.add_argument("--trials", type=_positive_int, default=100)
    c.add_argument("--seed", type=int, default=None)

    c = checks.add_parser("assoc")
    c.add_argument("--datum", required=True)
    c.add_argument("--trials", type=_positive_int, default=20)
    c.add_argument("--seed", type=int, default=None)

    c = checks.add_parser("oracle-rank2")
    c.add_argument("--abc", required=True, help='rank-2 parameters "a,b,c"')
    c.add_argument("--depth", type=_nonnegative_int, required=True)
    c.add_argument("--lambda", dest="lam", default=None)
    c.add_argument("--out", default=None)

    c = checks.add_parser("oracle-monster")
    c.add_argument("--level", type=int, required=True)
    c.add_argument("--mult", required=True, help='multiplicities "m1,m2,..."')
    c.add_argument("--depth", type=_nonnegative_int, required=True)
    c.add_argument("--lambda", dest="lam", default=None)
    c.add_argument("--lambda-real", dest="lam_real", type=int, default=None,
                   help="coefficient of the real fundamental weight")
    c.add_argument("--out", default=None)

    c = checks.add_parser("projection")
    c.add_argument("--datum", required=True)
    c.add_argument("--lambda", dest="lam", required=True)
    c.add_argument("--depth", type=_nonnegative_int, required=True)
    c.add_argument("--seq", default=None)

    c = checks.add_parser("embedding")
    c.add_argument("--datum", required=True)
    c.add_argument("--depth", type=_nonnegative_int, required=True)
    c.add_argument("--seq", default=None)
    c.add_argument("--index", default=None, help="index name (default: all)")

    c = checks.add_parser("profile")
    _add_generation_options(c, with_output=False)

    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "gen": cmd_gen,
    "char": cmd_char,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except DatumConditionError as exc:
        print(f"invalid datum: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
