"""The tensor pair step ``_pair_stats``, which makes one pass per index
and skips the arithmetic at the shared ``NEG_INF``, against the
column-by-column step it replaced (``tensor_reference.pair_stats``).

Every pair folded while the rank-2 and Monster B(lambda) carriers, the
crystal-embedding and tensor-decomposition targets, 50 seeded random
products per datum and random factor triples are built and checked is
recorded and replayed through both steps: all six statistics must be
equal, with -inf in the same places and ints as ints.  The replay runs again with every
``NEG_INF`` of the children's eps and phi replaced by a ``copy.copy``
and a pickle clone, which take the general formula.  The step must
make no Python-level ``NegInfinity`` arithmetic, and it must still
read the raising side rule through the module: a mutant patched there
is seen by the audit and the embedding check."""

import copy
import pickle
import random
import sys
from collections import Counter

import pytest

import gkmcrystals as G
from gkmcrystals import tensor
from gkmcrystals.cartan import NEG_INF, NegInfinity, is_neg_inf
from gkmcrystals.fuzzing import random_factor_graph, random_universe_graph

import tensor_reference as ref
from conftest import make_d1, make_toy_monster


def build_fixtures():
    """Build and check every fixture; their pair steps are what is recorded."""
    d1, model = make_d1(), make_toy_monster()
    mdatum, seq, cyclic = model.datum, model.sequence, G.cyclic_sequence(d1)
    for lam in ((1, 1), (2, 0), (1, 2)):
        G.realize_highest_weight(d1, cyclic, d1.weight(lam=lam), 7)
    G.realize_highest_weight(mdatum, seq, mdatum.fundamental(0), 6)
    G.realize_highest_weight(mdatum, seq, mdatum.weight(lam=(1, 1, 0, 0)), 5)
    binf = G.realize_binfinity(d1, cyclic, 5)
    for i in d1.indices():
        G.crystal_embedding(binf, i)
    binf = G.realize_binfinity(mdatum, seq, 3)
    for i in (0, 2):
        G.crystal_embedding(binf, i)
    G.tensor_decomposition_embedding(d1, cyclic, d1.fundamental(0), d1.fundamental(1), 4)
    for datum in (d1, mdatum):
        for seed in range(50):
            random_universe_graph(random.Random(seed), datum)
        for seed in range(32):
            rng = random.Random(seed)
            G.verify_associativity(*(random_factor_graph(rng, datum) for _ in range(3)))


@pytest.fixture(scope="module")
def folds():
    """(arguments, reference statistics) of every pair step the fixtures make."""
    calls, step = [], tensor._pair_stats

    def recording(*args):
        calls.append(args)
        return step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_pair_stats", recording)
        build_fixtures()
    return [(args, ref.pair_stats(*args)) for args in calls]


def entry_types(stats):
    """The types of eps and phi: -inf where it is, ints as ints."""
    return tuple(tuple(map(type, stats[col])) for col in (1, 2))


def mismatches(folds, clone=None):
    """Folds whose statistics differ from the reference's, with the
    children's shared NEG_INF replaced by ``clone`` when given."""
    bad = []
    for (datum, left, right, lstats, rstats), want in folds:
        if clone is not None:
            lstats, rstats = cloned(lstats, clone), cloned(rstats, clone)
        got = tensor._pair_stats(datum, left, right, lstats, rstats)
        if got != want or entry_types(got) != entry_types(want):
            bad.append((left, right))
    return bad


def cloned(stats, clone):
    """stats with each NEG_INF of eps and phi replaced by clone."""
    eps, phi = (tuple(clone if v is NEG_INF else v for v in stats[col]) for col in (1, 2))
    return stats[:1] + (eps, phi) + stats[3:]


def test_the_fixtures_fold_every_kind_of_pair(folds):
    assert len(folds) > 10_000
    assert {len(args[0].index_rows) for args, _ in folds} == {2, 4}
    # -inf reaches the step from the right's eps and the left's phi
    assert any(NEG_INF in args[4][1] for args, _ in folds)
    assert any(NEG_INF in args[3][2] for args, _ in folds)


def test_pair_step_matches_the_reference(folds):
    assert mismatches(folds) == []


@pytest.mark.parametrize("clone", [copy.copy(NEG_INF), pickle.loads(pickle.dumps(NEG_INF))],
                         ids=["copy", "pickle"])
def test_a_cloned_neg_inf_takes_the_formula(folds, clone):
    assert is_neg_inf(clone) and clone is not NEG_INF
    assert mismatches(folds, clone) == []


@pytest.fixture
def neg_inf_callers(monkeypatch):
    """Counts NegInfinity's + and - by the code object that calls them."""
    callers = Counter()

    def counted(method):
        def wrapper(*args):
            callers[sys._getframe(1).f_code] += 1
            return method(*args)
        return wrapper

    for name in ("__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(NegInfinity, name, counted(NegInfinity.__dict__[name]))
    return callers


def run_both_steps(monkeypatch):
    """Make each pair step also run the reference on the same inputs, so
    the count shows the -inf arithmetic the fold would have made."""
    step = tensor._pair_stats

    def both(*args):
        ref.pair_stats(*args)
        return step(*args)

    monkeypatch.setattr(tensor, "_pair_stats", both)
    return step.__code__, ref.pair_stats.__code__


@pytest.mark.parametrize("make_datum", [make_d1, lambda: make_toy_monster().datum],
                         ids=["rank2", "monster"])
def test_associativity_makes_no_neg_inf_arithmetic(monkeypatch, neg_inf_callers, make_datum):
    step, reference = run_both_steps(monkeypatch)
    datum, rng = make_datum(), random.Random(0)
    report = G.verify_associativity(*(random_factor_graph(rng, datum) for _ in range(3)))
    assert report.violations == []
    assert neg_inf_callers[reference] > 0
    assert neg_inf_callers[step] == 0


def test_product_stats_make_no_neg_inf_arithmetic(monkeypatch, neg_inf_callers):
    d1 = make_d1()
    graph = G.realize_highest_weight(d1, G.cyclic_sequence(d1), d1.weight(lam=(1, 1)), 5)
    step, reference = run_both_steps(monkeypatch)
    for b in graph.elements():
        graph.crystal.stats(b)
    assert neg_inf_callers[reference] > 0
    assert neg_inf_callers[step] == 0


def real_raising_on_strict_excess(is_real, a_ii, phi_left, eps_right):
    """Mutant M2: real raising acts on the left only when phi > eps."""
    if is_real:
        return tensor.LEFT if phi_left > eps_right else tensor.RIGHT
    return ref.raising_side(is_real, a_ii, phi_left, eps_right)


def test_the_step_reads_the_raising_rule_through_the_module(monkeypatch):
    d1 = make_d1()
    cyclic = G.cyclic_sequence(d1)
    binf = G.realize_binfinity(d1, cyclic, 4)
    assert G.crystal_embedding(binf, 0).report.violations == []
    monkeypatch.setattr(tensor, "raising_side", real_raising_on_strict_excess)
    with pytest.raises(G.AuditError):
        G.realize_highest_weight(d1, cyclic, d1.weight(lam=(1, 1)), 4)
    assert G.crystal_embedding(binf, 0).report.violations != []
