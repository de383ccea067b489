"""Operation-count budget for `verify` and the oracles.

Counts depend only on the spec, the sample count and the seed, never on
the host, so a regression in how often the cut kernel rebuilds cuts,
normalises cuts that are already canonical, re-runs the constituent-group
audit, rebuilds a witness idempotent or a stabilizer, in how often the
Cayley-table oracle multiplies a pair, in how many triples its
associativity check reads, in how often a check re-audits an input it has
already audited or a class adapter re-multiplies a component pair, in how
the idempotent build scales with the rank (it evaluates no zero term), in
how many rational operations (`Fraction`'s and the kernel's `Rat`'s) the
box oracle runs per cut pair and `verify` runs now that integral
coordinates are ints, in how many value groups `verify` builds (none), or
in what a Cayley-table closure of m classes builds (no `Cut`, no
`class_of` or `_coset_rep` call and no `Fraction`: class products work on
integer keys; a Pruefer class product builds no `IdealTuple`), or in how
many tables `cross_check` builds (none: it reads the closure's table) and
how many `Cut`s (each form's idempotent cut, and no class's rep), or in
how many `Fraction`s `classify` builds reading plain n/d literals (none)
fails here without timing anything.
"""

import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import assert_coordinate_types, random_raw_cut
from tclass import boxes as B
from tclass import checks
from tclass import cuts as C
from tclass import groups as G
from tclass import pruefer as P
from tclass import sampling as S
from tclass import semigroups as SG
from tclass.cli import cmd_classify, cmd_verify, load_model, value_group_from_json

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

# The same run when the exact sequence normalised every cut it drew (72
# calls) and built the prime cut of each open component per form (35
# calls): 179 `cuts.normalize` calls.  The drawn cuts are canonical as
# built, and only the level of those prime cuts was ever read.  Of the 90
# calls now, 30 are `sampling.random_cut`'s, one per distinct draw of its
# 36 (it calls `cuts.normalize` through the module); when it bound
# `normalize` by name, this count missed them and read 72.  When
# `PrueferClassModel.idempotent_of` rebuilt a form's idempotent for every
# class, its prime cuts added 12 and the count read 102.
NORMALIZE_CALLS_BEFORE = 179
NORMALIZE_CALLS = 90


def test_verify_pruefer_stays_within_operation_budget(monkeypatch):
    counts = {"cuts": 0, "memberships": 0, "normalize": 0, "normalize in draws": 0,
              "group_cuts": 0, "idempotent_cuts": 0, "is_idempotent": 0, "stabilizers": 0,
              "model_mul": 0}
    closures = []
    drawing = [0]  # `sampling.group_cut` frames on the stack

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            if key == "normalize" and drawing[0]:
                counts["normalize in draws"] += 1
            return fn(*args)
        return wrapper

    draw = S.group_cut

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
    monkeypatch.setattr(S, "group_cut", counted("group_cuts", drawn))
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
    # Two group members of one cut per component for each of the 18
    # exact-sequence samples, every one seen drawing.
    assert counts["group_cuts"] == 2 * 2 * 18, counts
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


def test_an_adapter_multiplies_each_component_pair_once(monkeypatch):
    # `PrueferClassModel.mul` keeps each component product in a table of
    # its own, so the kernel sees each (component, u, v) once, in the
    # order the oracle first asks for it.  When every product mapped
    # `cuts.class_mul` over the components, it saw each once per ask.
    kind, model = load_model(SPEC)
    adapter = P.PrueferClassModel(model, P.tuple_to_json)
    rng = random.Random(1)
    seeds = [adapter.class_of(P.IdealTuple(tuple(S.random_cut(rng, g) for g in model.valuations)))
             for _ in range(4)]
    asked = counted_calls(monkeypatch, P.PrueferClassModel, "mul")
    products = counted_calls(monkeypatch, C, "class_mul")
    closure = SG.sample_closure(adapter, seeds, 256)
    assert closure.saturated and SG.cross_check(closure, adapter).passed
    monkeypatch.undo()

    component = {id(g): i for i, g in enumerate(model.valuations)}
    assert len(component) == model.k
    pairs = [(i, u, v) for _, x, y in asked for i, (u, v) in enumerate(zip(x, y))]
    assert len(set(pairs)) < len(pairs)  # the table has something to save
    assert [(component[id(g)], u, v) for g, u, v in products] == list(dict.fromkeys(pairs))


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


# The same check when `ValuationClassModel.idempotent_of` rebuilt the
# witness (I (T:I))_t of every class through `cuts.idempotent_cut`: 634
# `Cut`s.  Read off the class key's level and side, an idempotent costs
# no `Cut`; the form's cut is built once per form and adapter.  When each
# form's cut was built for every class, the check built 212 `Cut`s, two
# per class; when the adapter built each class's rep to classify it, 108.
CROSS_CHECK_CUTS_BEFORE = 634
CROSS_CHECK_CUTS_WITH_REPS = 108


def test_cross_check_reads_idempotents_off_classification(monkeypatch):
    model = C.ValuationClassModel(value_group_from_json([{"Zloc": [2]}]))
    closure = SG.sample_closure(model, oracle_closure_seeds(model), 256)
    built = counted_calls(monkeypatch, C.Cut, "__post_init__")
    witnesses = counted_calls(monkeypatch, C, "idempotent_cut")
    assert SG.cross_check(closure, model).passed
    m = len(closure.dictionary)
    forms = len(SG.idempotents(closure.semigroup))
    assert m == 106
    assert len(built) == forms == 2 < CROSS_CHECK_CUTS_WITH_REPS, len(built)
    assert witnesses == []


# The same closure when a class product was `class_of(g, mul(g, x.rep,
# y.rep))` on classes that cached their rep: m^2 + m = 11 342 `Cut`s,
# m^2 = 11 236 `class_of` calls and 22 152 `Fraction`s.  Before classes
# were keyed by integers it built 22 472 `Cut`s and hashed 11 346
# `Fraction`s.  When `class_mul` reduced each product through
# `cuts._coset_rep` (kind dispatch, prime loop, modular inverse), it made
# m^2 = 11 236 `_coset_rep` calls.


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
    monkeypatch.setattr(C, "_coset_rep", counted("_coset_rep", C._coset_rep))
    rationals = counted_fraction_calls(monkeypatch, ("__new__",))
    closure = SG.sample_closure(model, seeds, 256)
    monkeypatch.undo()

    assert closure.saturated and len(closure.dictionary) == 106
    # `cuts.class_mul` multiplies integer keys: no `Cut`, no rational, and
    # an equal-level sum is reduced by n mod d alone.
    assert (counts["cuts"], counts["class_of"], counts["_coset_rep"],
            rationals["__new__"]) == (0, 0, 0, 0), (counts, rationals)


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
    """The cuts that `regularity` and then the second check draw on a
    one-valuation spec (`idempotent_uniqueness` on `valuation`,
    `classification_consistency` on `poly_ext`): the checks share the
    report's generator, in order."""
    rng = random.Random(seed)
    regularity = [S.random_cut(rng, g) for _ in range(samples)]
    second = [S.random_cut(rng, g) for _ in range(samples)]
    return regularity, second


def replayed_transfers(g, seed: int, samples: int) -> list:
    """The (cut, level) inputs that `overring_transfer` draws on a
    `valuation` spec, after the draws of `replayed_draws`: a cut, then a
    level from its own to the rank."""
    rng = random.Random(seed)
    for _ in range(2 * samples):
        S.random_cut(rng, g)
    transfers = []
    for _ in range(samples):
        c = S.random_cut(rng, g)
        transfers.append((c, c.level + S._below(rng.getrandbits, g.rank - c.level + 1)))
    return transfers


def calls_from(monkeypatch, owner, name, module) -> list:
    """Like `counted_calls`, but records only the calls made from `module`'s
    own code."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args):
        if sys._getframe(1).f_globals["__name__"] == module.__name__:
            calls.append(args)
        return real(*args)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


# `verify` on [Q, Z, Z[1/2]] at 200 samples and seed 1 draws 615 cuts, 440
# of them distinct.  When every draw built its `Fraction`s and its `Cut`
# and normalised it, the draws built 727 `Cut`s: 615 as drawn and 112
# rewritten by `normalize`.  Built once per distinct draw, they build 528:
# 440 as drawn and 88 rewritten.
DRAW_CUTS_BEFORE = 727


def test_each_distinct_draw_is_built_once(monkeypatch):
    # Two draws that take the same random numbers draw the same cut, so a
    # draw is told apart by the `sampling._below` results it consumes: the
    # (n, r) of each pick, not the raw `getrandbits` results, whose
    # rejected bits would split equal draws.
    consumed, counts = [], Counter()
    where = []  # inside a draw: "draw", then "normalize" while it runs

    below = S._below

    def recorded(getrandbits, n):
        r = below(getrandbits, n)
        if where:
            consumed[-1].append((n, r))
        return r

    draw, normalize, post_init = S.random_cut, C.normalize, C.Cut.__post_init__

    def drawn(rng, g):
        consumed.append([])
        where.append("draw")
        try:
            return draw(rng, g)
        finally:
            where.pop()

    def normalized(g, a):
        if not where:
            return normalize(g, a)
        counts["normalize"] += 1
        where.append("normalize")
        try:
            return normalize(g, a)
        finally:
            where.pop()

    def built(self):
        if where:
            counts["cuts in " + where[-1]] += 1
        post_init(self)
    monkeypatch.setattr(S, "_below", recorded)
    monkeypatch.setattr(S, "random_cut", drawn)
    monkeypatch.setattr(C, "normalize", normalized)
    monkeypatch.setattr(C.Cut, "__post_init__", built)
    kind, model = load_model(json.dumps({"kind": "valuation", "group": ["Q", "Z", {"Zloc": [2]}]}))
    report = cmd_verify(kind, model, 200, 1, None)
    monkeypatch.undo()

    assert report["passed"]
    distinct = len(set(map(tuple, consumed)))
    assert (len(consumed), distinct) == (615, 440)
    # `normalize` runs once per distinct draw, and so does the draw's own
    # `Cut`; `normalize` builds one more where it rewrites.
    assert counts["normalize"] <= distinct, counts
    assert counts["cuts in draw"] <= distinct, counts
    assert counts["cuts in draw"] + counts["cuts in normalize"] == 528 < DRAW_CUTS_BEFORE, counts


def test_each_distinct_sampled_input_is_audited_once(monkeypatch):
    regular = counted_calls(monkeypatch, C, "is_regular")
    memberships = counted_calls(monkeypatch, C, "group_membership")
    transfers = counted_calls(monkeypatch, C, "t_closure_over")
    classified = calls_from(monkeypatch, C, "class_of", checks)
    group = ["Q", "Z", {"Zloc": [2]}]
    kind, model = load_model(json.dumps({"kind": "valuation", "group": group}))
    samples = 200
    report = cmd_verify(kind, model, samples, 1, None)

    assert report["passed"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert all(by_name[name]["instances"] == samples for name in
               ("regularity", "idempotent_uniqueness", "overring_transfer"))
    drawn_regular, drawn_unique = replayed_draws(model, 1, samples)
    drawn_transfers = replayed_transfers(model, 1, samples)
    # The cache has something to save: every check draws repeats.
    assert all(len(set(drawn)) < samples
               for drawn in (drawn_regular, drawn_unique, drawn_transfers))
    # One call per distinct input, in the order of first draw.
    assert [c for _, c in regular] == list(dict.fromkeys(drawn_regular))
    assert [c for _, c, _ in memberships] == list(dict.fromkeys(drawn_unique))
    assert [(c, level) for _, level, c in transfers] == list(dict.fromkeys(drawn_transfers))

    # `classification_consistency` reads one class per distinct coefficient
    # cut; the `class_of` calls it makes itself are its tests.
    kind, ext = load_model(json.dumps({"kind": "poly_ext", "base": group}))
    report = cmd_verify(kind, ext, samples, 1, None)
    assert report["passed"]
    assert report["checks"][1]["name"] == "classification_consistency"
    assert report["checks"][1]["instances"] == samples
    _, drawn_coefficients = replayed_draws(ext.base, 1, samples)
    assert len(set(drawn_coefficients)) < samples
    assert [c for _, c in classified] == list(dict.fromkeys(drawn_coefficients))


def test_verify_on_a_valuation_builds_no_value_group(monkeypatch):
    # `t_closure_over` closes a cut over the overring without building the
    # overring's truncated tower; when it did, this run built 163 groups,
    # one per distinct `overring_transfer` input.
    kind, model = load_model(json.dumps({"kind": "valuation", "group": ["Q", "Z", {"Zloc": [2]}]}))
    built = counted_calls(monkeypatch, G.ValueGroup, "__post_init__")
    report = cmd_verify(kind, model, 200, 1, None)
    monkeypatch.undo()

    assert report["passed"]
    assert report["checks"][2]["name"] == "overring_transfer"
    assert built == []


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
    monkeypatch.undo()

    # `overring_transfer` likewise: a wrong closure over the overring is
    # computed once and fails every sample that draws its input, and a
    # closure that raises raises again on each repeat.
    transfers = replayed_transfers(g, 1, samples)
    (target, level), hits = Counter(transfers).most_common(1)[0]
    assert hits > 1
    literal = json.dumps(C.cut_to_json(target), sort_keys=True)
    wrong = C.translate(g, target, (1,))
    t_closure_over = C.t_closure_over
    for raising, line, runs in (
            (False, f"{literal}, component 1 at level {level}: "
                    f"{json.dumps(C.cut_to_json(wrong), sort_keys=True)} vs {literal}", 1),
            (True, f"{literal}: InternalInconsistencyError: planted", hits)):
        closed = []

        def planted(g, lvl, c):
            closed.append((c, lvl))
            if (c, lvl) != (target, level):
                return t_closure_over(g, lvl, c)
            if raising:
                raise C.InternalInconsistencyError("planted")
            return wrong
        monkeypatch.setattr(C, "t_closure_over", planted)
        transfer = cmd_verify("valuation", g, samples, 1, None)["checks"][2]
        monkeypatch.undo()

        assert transfer["name"] == "overring_transfer"
        assert transfer["failure_count"] == hits
        assert transfer["failures"] == [line] * min(hits, 10)
        assert closed.count((target, level)) == runs


def counted_zero_terms(monkeypatch) -> Counter:
    """Make the kernel's zero (`cuts._ZERO`, which ring and prime cuts hold
    and `mul`, `quotient` and `translate` skip by identity) an int that
    counts, by operator name, each sum, difference or negation it enters,
    until `monkeypatch.undo()`.  An int 0 adds in C, so without this a
    term that should have been skipped runs uncounted."""
    counts = Counter()

    def counted(name):
        real = getattr(int, name)

        def op(*args):
            counts[name] += 1
            return real(*args)
        return op
    zero = type("CountedZero", (int,), {name: counted(name) for name in
                                        ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")})
    monkeypatch.setattr(C, "_ZERO", zero(0))
    return counts


def test_idempotent_build_is_linear_in_the_rank(monkeypatch):
    # Ring and prime cuts have all-zero boundaries, so building and
    # checking the idempotents of 200 Q levels evaluates no zero term at
    # all.  When every product and residual summed its zero coordinates,
    # the build took 40 200 additions and as many subtractions: O(rank^2).
    g = value_group_from_json(["Q"] * 200)
    terms = counted_zero_terms(monkeypatch)
    forms = len(C.idempotents(g))
    monkeypatch.undo()

    assert forms == 400
    assert terms.total() == 0, terms


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
    calls = counted_fraction_calls(monkeypatch, FRACTION_DUNDERS)
    per_pair = []
    for a, b, product, residual, seed in pairs:
        before = calls.total()
        check_rng = random.Random(seed)
        assert B.check_mul(g, a, b, product, check_rng) == []
        assert B.check_quotient(g, a, b, residual, check_rng) == []
        per_pair.append(calls.total() - before)
    monkeypatch.undo()
    assert max(per_pair) <= BOX_FRACTION_CALLS_PER_PAIR, per_pair


def counted_fraction_calls(monkeypatch, names) -> Counter:
    """Count each call of the named rational operators, by name, until
    `monkeypatch.undo()`: `Fraction`'s, and the kernel's `cuts.Rat`'s where
    it defines its own (a `Rat` operator that falls back to `Fraction`'s
    counts once).  `__new__` counts the rationals built: each
    `Fraction.__new__` call and each `Rat` the kernel builds on its slots
    (`cuts._rat`)."""
    counts = Counter()

    def counter(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted
    for name in names:
        if name == "__new__":
            monkeypatch.setattr(F, name, staticmethod(counter(name, F.__new__)))
            monkeypatch.setattr(C, "_rat", counter(name, C._rat))
            continue
        for owner in (F, C.Rat):
            if name in vars(owner):
                monkeypatch.setattr(owner, name, counter(name, vars(owner)[name]))
    return counts


# Every `Fraction` operator the kernel can reach, reflected ones included.
FRACTION_OPERATORS = FRACTION_DUNDERS + ("__radd__", "__rsub__", "__rmul__", "__neg__", "__bool__")
# `verify` on [Q, Z, Z[1/2]] at 200 samples and seed 1, with the sampling
# tables already built, when every coordinate was a `Fraction`: 13 328
# operator calls (5 013 `__bool__`, 3 285 `__eq__`, 2 225 `__add__`, 1 866
# `__sub__`, 800 `__hash__`) and 4 240 `Fraction`s built.  An integral
# coordinate is an `int` now, and two ints add, compare and hash in C.
VERIFY_FRACTION_CALLS_BEFORE = 13328
VERIFY_FRACTIONS_BUILT_BEFORE = 4240
# When every residual subtracted a coordinate from itself (as in (I : I))
# and `overring_transfer` and `classification_consistency` tested every
# sample: 4 050 calls (1 398 `__bool__`, 981 `__eq__`, 380 `__sub__`, 221
# `__hash__`) and 1 404 `Fraction`s built.  x - x is the int 0 now, told by
# identity, not by truthiness, and the two checks' caches hash their keys.
VERIFY_FRACTION_CALLS_UNCACHED = 4050
VERIFY_FRACTIONS_BUILT_UNCACHED = 1404
VERIFY_FRACTION_BOOLS_UNCACHED = 1398
# When every non-integral coordinate was a plain `Fraction`: 3 596 calls
# (1 208 `__bool__`, 796 `__eq__`, 746 `__add__`, 332 `__hash__`, 276
# `__rsub__`) and 1 214 `Fraction`s built.  A coordinate is an `int` or a
# `cuts.Rat` now, counted alike: a zero term is told by identity (no
# `__bool__`), 0 - y is -y (`__neg__` for `__rsub__`), and an integral sum
# is an `int`, so it is never built and compares in C (`__eq__` 796 -> 268).
VERIFY_PLAIN_FRACTION_CALLS_BEFORE = 3596
VERIFY_PLAIN_FRACTIONS_BUILT_BEFORE = 1214
# When the class adapters built each class's rep to classify it, the
# semigroup cross-checks built 751 rationals.
VERIFY_FRACTION_CALLS = 1860
VERIFY_FRACTIONS_BUILT = 749


def test_verify_runs_integral_coordinates_as_ints(monkeypatch):
    spec = json.dumps({"kind": "valuation", "group": ["Q", "Z", {"Zloc": [2]}]})
    kind, model = load_model(spec)
    assert cmd_verify(kind, model, 200, 1, None)["passed"]  # builds the sampling tables
    calls = counted_fraction_calls(monkeypatch, FRACTION_OPERATORS + ("__new__",))
    cuts = counted_calls(monkeypatch, C.Cut, "__post_init__")
    report = cmd_verify(kind, model, 200, 1, None)
    monkeypatch.undo()
    built = calls.pop("__new__")

    assert report["passed"]
    # Each history figure above is below the one before it:
    # VERIFY_PLAIN_FRACTION_CALLS_BEFORE < VERIFY_FRACTION_CALLS_UNCACHED
    # < VERIFY_FRACTION_CALLS_BEFORE, and likewise for the rationals built.
    assert calls.total() == VERIFY_FRACTION_CALLS < VERIFY_PLAIN_FRACTION_CALLS_BEFORE, calls
    assert built == VERIFY_FRACTIONS_BUILT < VERIFY_PLAIN_FRACTIONS_BUILT_BEFORE, built
    assert calls["__bool__"] == 0 < VERIFY_FRACTION_BOOLS_UNCACHED, calls
    # Every cut the run builds holds ints and `Rat`s only.
    assert len(cuts) > 0
    assert_coordinate_types(c for c, in cuts)


def test_regularity_audit_of_an_integral_cut_runs_no_fraction_operation(monkeypatch):
    g = value_group_from_json(["Z", "Z"])
    a = C.cut_from_json(g, {"level": 2, "boundary": ["1", "-2"], "side": "closed"})
    calls = counted_fraction_calls(monkeypatch, FRACTION_OPERATORS + ("__new__",))
    witness = C.is_regular(g, a)
    monkeypatch.undo()

    assert witness.shift == (1, -2) and witness.idempotent == C.ring_cut(g)
    assert calls.total() == 0, calls


# The three specs of the benchmark's `classify_stream`, one per kind.
CLASSIFY_SPECS = [
    {"kind": "valuation", "group": ["Z", {"Zloc": [3]}]},
    {"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z", "Q"]]},
    {"kind": "poly_ext", "base": ["Z", {"Zloc": [2]}]},
]


def plain_cut_literal(rng, g) -> dict:
    """A raw cut literal of g, each coordinate written n/d, unreduced."""
    c = random_raw_cut(rng, g)
    scale = rng.choice((1, 2))
    return {"level": c.level, "side": c.side,
            "boundary": [f"{x.numerator * scale}/{x.denominator * scale}" for x in c.boundary]}


def classify_plain_literals(monkeypatch) -> int:
    """`Fraction.__new__` calls while `classify` reads 20 seeded plain n/d
    literals of each kind."""
    rng = random.Random(1)
    runs = []
    for spec in CLASSIFY_SPECS:
        kind, model = load_model(json.dumps(spec))
        for _ in range(20):
            if kind == "valuation":
                literal = plain_cut_literal(rng, model)
            elif kind == "pruefer_fc":
                literal = {"cuts": [plain_cut_literal(rng, g) for g in model.valuations]}
            else:
                literal = {"coeff": plain_cut_literal(rng, model.base)}
            runs.append((kind, model, json.dumps(literal)))
    built = []
    real = F.__new__

    def new(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)
    monkeypatch.setattr(F, "__new__", staticmethod(new))
    reports = [cmd_classify(kind, model, text) for kind, model, text in runs]
    monkeypatch.undo()
    assert len(reports) == 60
    return len(built)


# When every coordinate went through `Fraction`'s string reader, those 60
# calls built 106 `Fraction`s, about 1.8 per call.  A plain n or n/d is
# read by `int` now, and a non-integral one is a `Rat` built on its slots.
CLASSIFY_FRACTIONS_BEFORE = 106


def test_classify_reads_plain_literals_by_integer_arithmetic(monkeypatch):
    assert classify_plain_literals(monkeypatch) == 0 < CLASSIFY_FRACTIONS_BEFORE


def test_plain_literal_pin_fails_when_no_literal_reads_as_plain(monkeypatch):
    # The regression the pin guards: a plain-literal pattern that never
    # matches sends every coordinate back to `Fraction`'s reader.
    monkeypatch.setattr(C, "_PLAIN", re.compile(r"(?!)"))
    with pytest.raises(AssertionError):
        test_classify_reads_plain_literals_by_integer_arithmetic(monkeypatch)
