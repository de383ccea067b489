"""Each sampled `verify` check on its own: `draw` an input from a seeded
generator, then `test` it, through the functions `verify` runs.  On
working code every input passes, and a tuple's label is the literal that
reads it back."""

import json
import random

from hypothesis import given
from hypothesis import strategies as st

from conftest import GROUPS, exact_sample
from tclass import checks
from tclass import pruefer as P
from tclass.cli import KINDS

group_names = st.sampled_from(sorted(GROUPS))
seeds = st.integers(0, 2**32 - 1)
# One or two valuations, for the checks every kind runs on k valuations.
valuations = st.lists(group_names, min_size=1, max_size=2)


def model(names) -> P.PrueferModel:
    return P.PrueferModel(tuple(GROUPS[name] for name in names))


def passes(check, seed):
    """Draw one input of `check` and test it; return the input."""
    x = check.draw(random.Random(seed))
    assert check.test(x) == [], check.label(x)
    return x


@given(valuations, seeds)
def test_regularity_passes_every_draw(names, seed):
    m = model(names)
    check = checks.regularity(m, KINDS["pruefer_fc"])
    a = passes(check, seed)
    assert P.tuple_from_json(m, json.loads(check.label(a))) == a


@given(valuations, seeds)
def test_idempotent_uniqueness_passes_every_draw(names, seed):
    m = model(names)
    passes(checks.idempotent_uniqueness(m, KINDS["pruefer_fc"]), seed)


@given(group_names, seeds)
def test_overring_transfer_passes_every_draw(name, seed):
    m = model([name])
    a, levels = passes(checks.overring_transfer(m, KINDS["valuation"]), seed)
    assert all(c.level <= lvl <= g.rank for g, c, lvl in zip(m.valuations, a.cuts, levels))


@given(valuations, seeds)
def test_exact_sequence_passes_every_draw(names, seed):
    # Each form's trial and one sample of every form, all drawn in turn.
    m, rng = model(names), random.Random(seed)
    for form in P.enumerate_idempotent_forms(m):
        trial = checks.exact_form(m, KINDS["pruefer_fc"], form, "FORM")
        assert trial.test(trial.draw(rng)) == []
        sample = exact_sample(m, form)
        x = sample.draw(rng)
        assert sample.test(x) == [], sample.label(x)


@given(group_names, seeds)
def test_classification_consistency_passes_every_draw(name, seed):
    m = model([name])
    passes(checks.classification_consistency(m, KINDS["poly_ext"]), seed)


@given(valuations, seeds)
def test_semigroup_cross_check_passes_every_draw(names, seed):
    m = model(names)
    passes(checks.semigroup_cross_check(m, KINDS["pruefer_fc"], 4), seed)
