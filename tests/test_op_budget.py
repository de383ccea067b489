"""Operation-count budget for `verify` and the oracles.

Counts depend only on the spec, the sample count and the seed, never on
the host, so a regression in how often the cut kernel rebuilds cuts,
normalises cuts that are already canonical, re-runs the constituent-group
audit, rebuilds a witness idempotent or a stabilizer, in how often the
Cayley-table oracle multiplies a pair, in how many triples its
associativity check reads, in how often a check re-audits an input it has
already audited, in how the idempotent build scales with the rank, in how
many `Fraction` operations the box oracle runs per cut pair, or in what a
Cayley-table closure of m classes builds (no `Cut`, no `class_of` call
and no `Fraction`: class products work on integer keys; a Pruefer class
product builds no `IdealTuple`), or in how many tables `cross_check`
builds (none: it reads the closure's table) fails here without timing
anything.
"""

import json
import random
from collections import Counter
from fractions import Fraction as F

from tclass import boxes as B
from tclass import cuts as C
from tclass import pruefer as P
from tclass import sampling as S
from tclass import semigroups as SG
from tclass.cli import cmd_verify, load_model, value_group_from_json

SPEC = json.dumps({"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z", "Q"]]})

# The same run when `classify_idempotent` rebuilt the witness (I (T:I))_t on
# every call, `group_mul` re-audited both operands, `mul` normalised its
# result and each closure pass multiplied every pair again: 2982 `Cut`
# constructions, 57 `cuts.group_membership` calls, 1799 `cuts.normalize`
# calls and 255 `cuts.idempotent_cut` calls.  The budget is half of each of
# the first three (earlier caps: 9164, 106 and 2565) and a quarter of the
# last.
CUTS_BEFORE = 2982
MEMBERSHIPS_BEFORE = 57
NORMALIZE_BEFORE = 1799
IDEMPOTENT_CUTS_BEFORE = 255

# The same run when `group_membership` took one (sample, idempotent) pair
# and rebuilt both sides for it: 27 `cuts.group_membership` calls, each
# re-checking `cuts.is_idempotent(J)`, and 87 `cuts.stabilizer` calls.
# Now each of the 5 idempotents is checked once and each of the 3 samples
# is audited once per component.  When each audit built L's stabilizer
# twice, once for the witness and once for the residual arithmetic, the
# run made 23 `cuts.stabilizer` calls.
PAIR_MEMBERSHIPS_BEFORE = 27
IS_IDEMPOTENT_BEFORE = 27
STABILIZERS_BEFORE = 87

# The same run when the exact sequence normalised every cut it drew (72
# calls) and built the prime cut of each open component per form (35
# calls): 179 `cuts.normalize` calls.  The drawn cuts are canonical as
# built, and only the level of those prime cuts was ever read.
NORMALIZE_CALLS_BEFORE = 179
NORMALIZE_CALLS = 72


def test_verify_pruefer_stays_within_operation_budget(monkeypatch):
    counts = {"cuts": 0, "memberships": 0, "normalize": 0, "normalize in draws": 0,
              "idempotent_cuts": 0, "is_idempotent": 0, "stabilizers": 0, "model_mul": 0}
    closures = []
    drawing = [0]  # `pruefer._random_group_member` frames on the stack

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            if key == "normalize" and drawing[0]:
                counts["normalize in draws"] += 1
            return fn(*args)
        return wrapper

    draw = P._random_group_member

    def drawn(*args):
        drawing[0] += 1
        try:
            return draw(*args)
        finally:
            drawing[0] -= 1

    sample_closure = SG.sample_closure

    def recorded_closure(*args):
        closure = sample_closure(*args)
        closures.append(closure)
        return closure

    monkeypatch.setattr(C.Cut, "__post_init__", counted("cuts", C.Cut.__post_init__))
    monkeypatch.setattr(C, "group_membership", counted("memberships", C.group_membership))
    monkeypatch.setattr(C, "normalize", counted("normalize", C.normalize))
    monkeypatch.setattr(C, "idempotent_cut", counted("idempotent_cuts", C.idempotent_cut))
    monkeypatch.setattr(C, "is_idempotent", counted("is_idempotent", C.is_idempotent))
    monkeypatch.setattr(C, "stabilizer", counted("stabilizers", C.stabilizer))
    monkeypatch.setattr(P.PrueferClassModel, "mul",
                        counted("model_mul", P.PrueferClassModel.mul))
    monkeypatch.setattr(SG, "sample_closure", recorded_closure)
    monkeypatch.setattr(P, "_random_group_member", drawn)
    kind, model = load_model(SPEC)
    report = cmd_verify(kind, model, 3, 1, None)

    assert report["passed"]
    assert [c["instances"] for c in report["checks"]] == [3, 3, 18, 3]
    assert counts["memberships"] > 0
    assert counts["cuts"] <= CUTS_BEFORE // 2, counts
    assert counts["memberships"] <= MEMBERSHIPS_BEFORE // 2, counts
    assert counts["normalize"] <= NORMALIZE_BEFORE // 2, counts
    assert counts["normalize"] == NORMALIZE_CALLS < NORMALIZE_CALLS_BEFORE, counts
    assert counts["normalize in draws"] == 0, counts
    assert counts["idempotent_cuts"] <= IDEMPOTENT_CUTS_BEFORE // 4, counts
    samples, k = 3, model.k
    idempotents = sum(len(C.idempotent_forms(g)) for g in model.valuations)
    assert idempotents == 5
    assert counts["is_idempotent"] == idempotents < IS_IDEMPOTENT_BEFORE, counts
    assert counts["memberships"] == samples * k < PAIR_MEMBERSHIPS_BEFORE, counts
    # One stabilizer per idempotent, per regularity audit (the 6 sampled
    # cuts are distinct) and per membership audit.
    assert counts["stabilizers"] == idempotents + 2 * samples * k == 17, counts
    # Each saturated closure of m classes costs exactly m^2 products: the
    # upper triangle once while it grows, the lower triangle once for the
    # commutativity check.
    sizes = [len(c.dictionary) for c in closures]
    assert len(closures) == 3 and all(c.saturated for c in closures), sizes
    assert counts["model_mul"] == sum(m * m for m in sizes), (counts, sizes)


def test_pruefer_class_product_builds_no_tuple(monkeypatch):
    # The product used to go class -> two `IdealTuple`s -> `pruefer.mul` ->
    # `pruefer.t_closure` -> `pruefer.class_of`: 4 tuples per product, and
    # `idempotent_of` class -> `IdealTuple` -> `classify_idempotent` ->
    # `form_tuple` -> `class_of`: 2 per closure element in `cross_check`.
    # Both are componentwise on the classes now and build none.
    kind, model = load_model(SPEC)
    adapter = P.PrueferClassModel(model, P.tuple_to_json)
    rng = random.Random(1)
    drawn = [P.IdealTuple(tuple(S.random_cut(rng, g) for g in model.valuations))
             for _ in range(4)]
    seeds = [adapter.class_of(a) for a in drawn]
    built = counted_calls(monkeypatch, P.IdealTuple, "__init__")
    closure = SG.sample_closure(adapter, seeds, 256)
    assert closure.saturated and len(closure.dictionary) > 1
    assert SG.cross_check(closure, adapter).passed
    assert built == [], len(built)


class CountedModel(C.ValuationClassModel):
    calls = 0

    def mul(self, x, y):
        self.calls += 1
        return super().mul(x, y)


def oracle_closure_seeds(model) -> list:
    """The benchmark's oracle closure: Z[1/2] seeded with open classes at
    n/3, n/5, n/7 and the ring class saturates at 1 + lcm(3, 5, 7) = 106."""
    seeds = [C.Cut(1, (F(n, q),), C.OPEN) for n, q in ((1, 3), (2, 5), (3, 7))]
    seeds.append(C.Cut(1, (F(0),), C.CLOSED))
    return [model.class_of(c) for c in seeds]


def test_large_closure_checks_associativity_on_few_generators():
    model = CountedModel(value_group_from_json([{"Zloc": [2]}]))
    closure = SG.sample_closure(model, oracle_closure_seeds(model), 256)
    m = len(closure.dictionary)
    assert closure.saturated and m == 106
    assert model.calls == m * m
    # Light's test compares g * m^2 triples for g generators; for m >= 104,
    # g <= 4 keeps a check at or below 1/26 of the m^3 sweep.
    s = closure.semigroup
    assert len(SG._generators(s.table)) <= 4
    assert max(len(SG.constituent_group(s, e)) for e in SG.idempotents(s)) == 105


def test_cross_check_builds_no_table(monkeypatch):
    # The closure's table is verified once, when `sample_closure` builds
    # it.  `cross_check` reads each constituent group off that table; when
    # it relabelled each group into a table of its own and verified that
    # again, it built 2 on this closure, one per idempotent.
    model = C.ValuationClassModel(value_group_from_json([{"Zloc": [2]}]))
    closure = SG.sample_closure(model, oracle_closure_seeds(model), 256)
    built = counted_calls(monkeypatch, SG.FiniteCommSemigroup, "__init__")
    assert SG.cross_check(closure, model).passed
    assert len(SG.idempotents(closure.semigroup)) == 2
    assert built == []


# The same closure when a class product was `class_of(g, mul(g, x.rep,
# y.rep))` on classes that cached their rep: m^2 + m = 11 342 `Cut`s,
# m^2 = 11 236 `class_of` calls and 22 152 `Fraction`s.  Before classes
# were keyed by integers it built 22 472 `Cut`s and hashed 11 346
# `Fraction`s.


def test_closure_keys_classes_by_integers(monkeypatch):
    model = C.ValuationClassModel(value_group_from_json([{"Zloc": [2]}]))
    seeds = oracle_closure_seeds(model)
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(C.Cut, "__post_init__", counted("cuts", C.Cut.__post_init__))
    monkeypatch.setattr(C, "class_of", counted("class_of", C.class_of))
    monkeypatch.setattr(F, "__new__", staticmethod(counted("fractions", F.__new__)))
    closure = SG.sample_closure(model, seeds, 256)
    monkeypatch.undo()

    assert closure.saturated and len(closure.dictionary) == 106
    # `cuts.class_mul` multiplies integer keys: no `Cut`, no `Fraction`.
    assert (counts["cuts"], counts["class_of"], counts["fractions"]) == (0, 0, 0), counts


def counted_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name with a wrapper that records each call's arguments."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def replayed_draws(g, seed: int, samples: int) -> tuple[list, list]:
    """The cuts that `regularity` and then `idempotent_uniqueness` draw on a
    one-valuation spec: both checks share the report's generator, in order."""
    rng = random.Random(seed)
    regularity = [S.random_cut(rng, g) for _ in range(samples)]
    uniqueness = [S.random_cut(rng, g) for _ in range(samples)]
    return regularity, uniqueness


def test_each_distinct_sampled_input_is_audited_once(monkeypatch):
    regular = counted_calls(monkeypatch, C, "is_regular")
    memberships = counted_calls(monkeypatch, C, "group_membership")
    kind, model = load_model(json.dumps({"kind": "valuation", "group": ["Q", "Z", {"Zloc": [2]}]}))
    samples = 200
    report = cmd_verify(kind, model, samples, 1, None)

    assert report["passed"]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["regularity"]["instances"] == checks["idempotent_uniqueness"]["instances"] == samples
    drawn_regular, drawn_unique = replayed_draws(model, 1, samples)
    # The cache has something to save: both checks draw repeats.
    assert len(set(drawn_regular)) < samples and len(set(drawn_unique)) < samples
    # One call per distinct input, in the order of first draw.
    assert [c for _, c in regular] == list(dict.fromkeys(drawn_regular))
    assert [c for _, c, _ in memberships] == list(dict.fromkeys(drawn_unique))


def test_a_repeated_failing_cut_fails_every_sample_that_draws_it(monkeypatch):
    g = value_group_from_json(["Z"])
    samples = 30
    drawn, _ = replayed_draws(g, 1, samples)
    target, hits = Counter(drawn).most_common(1)[0]
    assert hits > 1
    is_regular = C.is_regular
    audited = []

    def planted(g, c):
        audited.append(c)
        if c == target:
            raise C.InternalInconsistencyError("planted")
        return is_regular(g, c)
    monkeypatch.setattr(C, "is_regular", planted)
    report = cmd_verify("valuation", g, samples, 1, None)

    regularity = report["checks"][0]
    assert regularity["name"] == "regularity"
    assert regularity["failure_count"] == hits
    line = (f"{json.dumps(C.cut_to_json(target), sort_keys=True)}, component 1: "
            "InternalInconsistencyError: planted")
    assert regularity["failures"] == [line] * min(hits, 10)
    assert audited.count(target) == 1


def test_idempotent_build_is_linear_in_the_rank(monkeypatch):
    # Ring and prime cuts have all-zero boundaries, so building and
    # checking the idempotents of 200 Q levels needs no coordinate sums at
    # all.  When every product and residual summed its zero coordinates,
    # the build took 40 200 additions and as many subtractions: O(rank^2).
    g = value_group_from_json(["Q"] * 200)
    added = counted_calls(monkeypatch, F, "__add__")
    subtracted = counted_calls(monkeypatch, F, "__sub__")
    forms = len(C.idempotents(g))
    assert forms == 400
    assert len(added) + len(subtracted) <= forms, (len(added), len(subtracted))


# `Fraction` operators the box oracle used to run per point: sums of
# coordinates, lex comparisons, sorting and hashing the point set, and
# `cuts.member` on `Fraction` tuples.
FRACTION_DUNDERS = ("__add__", "__sub__", "__mul__", "__eq__", "__lt__", "__le__",
                    "__gt__", "__ge__", "__hash__")
# On `Fraction` points one rank-3 pair cost 4 032 of those calls (1 707
# `__eq__`, 715 `__lt__`, 631 `__hash__`, 514 `__add__`).  On the integer
# lattice what is left is the boundary-size guard, a few per pair.
BOX_FRACTION_CALLS_PER_PAIR = 64


def test_box_checks_compare_integers_not_fractions(monkeypatch):
    g = value_group_from_json(["Q", "Z", {"Zloc": [2]}])
    rng = random.Random(7)
    pairs = []
    for _ in range(20):
        a, b = S.random_cut(rng, g), S.random_cut(rng, g)
        pairs.append((a, b, C.mul(g, a, b), C.quotient(g, a, b), rng.randrange(1 << 30)))
    calls = []
    for name in FRACTION_DUNDERS:
        real = getattr(F, name)

        def counted(*args, real=real):
            calls.append(1)
            return real(*args)
        monkeypatch.setattr(F, name, counted)
    per_pair = []
    for a, b, product, residual, seed in pairs:
        before = len(calls)
        check_rng = random.Random(seed)
        assert B.check_mul(g, a, b, product, check_rng) == []
        assert B.check_quotient(g, a, b, residual, check_rng) == []
        per_pair.append(len(calls) - before)
    monkeypatch.undo()
    assert max(per_pair) <= BOX_FRACTION_CALLS_PER_PAIR, per_pair
