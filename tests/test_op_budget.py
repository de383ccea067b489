"""Operation-count budget for `verify` on a pruefer_fc spec.

Counts depend only on the spec, the sample count and the seed, never on
the host, so a regression in how often the cut kernel rebuilds cuts,
normalises cuts that are already canonical, re-runs the constituent-group
audit or rebuilds a witness idempotent, in how often the Cayley-table
oracle multiplies a pair, or in how many triples its associativity check
reads, fails here without timing anything.
"""

import json
from fractions import Fraction as F

from tclass import cuts as C
from tclass import pruefer as P
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
# Now each of the 5 idempotents is checked once, each of the 3 samples is
# audited once per component, and the stabilizers are at most halved.
PAIR_MEMBERSHIPS_BEFORE = 27
IS_IDEMPOTENT_BEFORE = 27
STABILIZERS_BEFORE = 87


def test_verify_pruefer_stays_within_operation_budget(monkeypatch):
    counts = {"cuts": 0, "memberships": 0, "normalize": 0, "idempotent_cuts": 0,
              "is_idempotent": 0, "stabilizers": 0, "model_mul": 0}
    closures = []

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

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
    kind, model = load_model(SPEC)
    report = cmd_verify(kind, model, 3, 1, None)

    assert report["passed"]
    assert [c["instances"] for c in report["checks"]] == [3, 3, 18, 3]
    assert counts["memberships"] > 0
    assert counts["cuts"] <= CUTS_BEFORE // 2, counts
    assert counts["memberships"] <= MEMBERSHIPS_BEFORE // 2, counts
    assert counts["normalize"] <= NORMALIZE_BEFORE // 2, counts
    assert counts["idempotent_cuts"] <= IDEMPOTENT_CUTS_BEFORE // 4, counts
    samples, k = 3, model.k
    idempotents = sum(len(C.idempotent_forms(g)) for g in model.valuations)
    assert idempotents == 5
    assert counts["is_idempotent"] == idempotents < IS_IDEMPOTENT_BEFORE, counts
    assert counts["memberships"] == samples * k < PAIR_MEMBERSHIPS_BEFORE, counts
    assert counts["stabilizers"] <= STABILIZERS_BEFORE // 2, counts
    # Each saturated closure of m classes costs exactly m^2 products: the
    # upper triangle once while it grows, the lower triangle once for the
    # commutativity check.
    sizes = [len(c.dictionary) for c in closures]
    assert len(closures) == 3 and all(c.saturated for c in closures), sizes
    assert counts["model_mul"] == sum(m * m for m in sizes), (counts, sizes)


class CountedModel(C.ValuationClassModel):
    calls = 0

    def mul(self, x, y):
        self.calls += 1
        return super().mul(x, y)


def test_large_closure_checks_associativity_on_few_generators():
    # The benchmark's oracle closure: Z[1/2] seeded with open classes at
    # n/3, n/5, n/7 and the ring class saturates at 1 + lcm(3, 5, 7) = 106.
    model = CountedModel(value_group_from_json([{"Zloc": [2]}]))
    seeds = [C.Cut(1, (F(n, q),), C.OPEN) for n, q in ((1, 3), (2, 5), (3, 7))]
    seeds.append(C.Cut(1, (F(0),), C.CLOSED))
    closure = SG.sample_closure(model, [model.class_of(c) for c in seeds], 256)
    m = len(closure.dictionary)
    assert closure.saturated and m == 106
    assert model.calls == m * m
    # Light's test compares g * m^2 triples for g generators; for m >= 104,
    # g <= 4 keeps a check at or below 1/26 of the m^3 sweep.
    s = closure.semigroup
    group = max((SG.constituent_group(s, e).table for e in SG.idempotents(s)),
                key=lambda t: t.size)
    assert group.size == 105
    for table in (s, group):
        assert len(SG._generators(table.table)) <= 4
