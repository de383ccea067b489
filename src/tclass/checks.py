"""The `verify` checks, each a draw, a label and a test of one input.

A factory builds a check's functions for one command from the k
valuations `m` and the kind's `cli.Kind` `spec`, whose `write` names
tuples; what the trials share lives in the factory, so nothing outlives
the command.  Only this module draws.
"""

from __future__ import annotations

import functools
import json
import math
import random
from itertools import repeat
from typing import Callable, NamedTuple

from . import cuts as C
from . import groups as G
from . import polyext as X
from . import pruefer as P
from . import sampling as S
from . import semigroups as SG


def literal(data) -> str:
    return json.dumps(data, sort_keys=True)


def form_count(groups) -> int:
    """The idempotent forms over `groups`, counted without the kernel: each
    level gives its ring form, and a dense one its prime too."""
    return math.prod(sum(1 + c.dense for c in g.components) for g in groups)


class Check(NamedTuple):
    """A check's functions, built by its factory for one command."""
    name: str
    trials: int | None  # trials per command, or None for one per sample
    draw: Callable  # the command's generator -> one input
    label: Callable  # an input -> the name its failure lines carry
    test: Callable  # an input -> its failure lines


def _trials(failures: list, check: Check, rng, n: int, where: Callable,
            drawn: Callable | None = None):
    """Draw and test `n` inputs, and return the last (None if a step
    raised).  An exception is one failure line, `NAME: Type: message`,
    named `where(i)` for trial i if the draw raised and by the label if the
    test did; a label that raises names its own exception `drawn(i)` (by
    default `where(i)`).  Names are built only for a failure."""
    draw, test, x = check.draw, check.test, None
    for i in range(1, n + 1):
        try:
            x = draw(rng)
        except Exception as e:
            failures.append(f"{where(i)}: {type(e).__name__}: {e}")
            x = None
            continue
        try:
            failures.extend(test(x))
        except Exception as e:
            try:
                name = check.label(x)
            except Exception as f:
                name, e = (drawn or where)(i), f
            failures.append(f"{name}: {type(e).__name__}: {e}")
            x = None
    return x


def _report(name: str, instances: int, failures: list) -> dict:
    return {
        "name": name,
        "instances": instances,
        "failures": failures,
        "failure_count": len(failures),
        "passed": not failures,
    }


def _drive(check: Check, samples: int, rng) -> dict:
    n = samples if check.trials is None else check.trials
    failures = []
    _trials(failures, check, rng, n, "trial {}".format)
    return _report(check.name, n, failures)


def _tuples(m: P.PrueferModel) -> Callable:
    gs, new, T = m.valuations, tuple.__new__, P.IdealTuple
    return lambda rng: new(T, (tuple(map(S.random_cut, repeat(rng), gs)),))


def _named(spec) -> Callable:
    return lambda a: literal(spec.write(a))


def regularity(m: P.PrueferModel, spec) -> Check:
    """`cuts.is_regular` checks I = (I^2 (I:I^2))_t on every cut of the
    sampled tuple, once per distinct (component, cut)."""
    name = _named(spec)

    @functools.cache
    def audit(i: int, c: C.Cut) -> list:
        try:
            C.is_regular(m.valuations[i], c)
            return []
        except Exception as e:
            return [f"component {i + 1}: {type(e).__name__}: {e}"]

    def test(a):
        return [f"{name(a)}, {line}" for i, c in enumerate(a.cuts) for line in audit(i, c)]
    return Check("regularity", None, _tuples(m), name, test)


def idempotent_uniqueness(m: P.PrueferModel, spec) -> Check:
    """Exactly one idempotent admits each sampled tuple, the one
    classification names.  Forms join componentwise and injectively, so each
    cut is tested: `cuts.group_membership` (audit included) admits its own
    form alone, once per distinct (component, cut), all before a verdict."""
    name, gs = _named(spec), m.valuations
    idems = functools.cache(lambda: [C.idempotents(g) for g in gs])

    @functools.cache
    def unique(i: int, c: C.Cut) -> bool:
        return C.group_membership(gs[i], c, idems()[i]) == [C.classify_idempotent(gs[i], c)]

    def test(a):
        verdicts = list(map(unique, range(m.k), a.cuts))  # every component audited
        return [] if all(verdicts) else [f"membership not unique at {name(a)}"]
    return Check("idempotent_uniqueness", None, _tuples(m), name, test)


def overring_transfer(m: P.PrueferModel, spec) -> Check:
    """A cut's t-closure over an overring it is an ideal of (a level at or
    above its own, drawn after the tuple) is its closure over the base,
    tested once per distinct (component, cut, level)."""
    name, tuples, gs = _named(spec), _tuples(m), m.valuations

    def draw(rng):
        a = tuples(rng)
        return a, [c.level + S._below(rng.getrandbits, g.rank - c.level + 1)
                   for g, c in zip(gs, a.cuts)]

    @functools.cache
    def transfer(i: int, c: C.Cut, lvl: int) -> list:
        over, base = C.t_closure_over(gs[i], lvl, c), C.t_closure(gs[i], c)
        if over == base:
            return []
        return [f"component {i + 1} at level {lvl}: "
                f"{literal(C.cut_to_json(over))} vs {literal(C.cut_to_json(base))}"]

    def test(x):
        a, levels = x
        return [f"{name(a)}, {line}" for i, (c, lvl) in enumerate(zip(a.cuts, levels))
                for line in transfer(i, c, lvl)]
    return Check("overring_transfer", None, draw, lambda x: name(x[0]), test)


def _project(m: P.PrueferModel, form: C.IdempotentForm, name: Callable, a: P.IdealTuple):
    """`pruefer.psi_localize`, prefixing its error for a tuple outside the
    form's group with the tuple's literal."""
    try:
        return P.psi_localize(m, a, form)
    except C.NotInGroupError as e:
        e.args = (f"{name(a)}: {e}",)
        raise


def exact_form(m: P.PrueferModel, spec, form: C.IdempotentForm, text: str) -> Check:
    """A form's trial.  Its input, built without the generator, is T, J,
    J's class (the group identity) and J's projection; its test checks
    that the identity of Cl(T), T's class, embeds (multiplied into J and
    t-closed) as the group identity."""
    name = _named(spec)

    def draw(rng):
        t, j = P.ring_tuple(m, form.overring), P.form_tuple(m, form)
        return t, j, P.class_of(m, j), _project(m, form, name, j)

    def test(x):
        t, j, identity, _ = x
        embedded = P.class_of(m, P.t_closure(m, P.mul(m, t, j)))
        if embedded == identity:
            return []
        return [f"{text}: embedding of Cl(T) identity missed the group identity: "
                f"{name(P.tuple_of_class(embedded))}"]
    return Check("exact_sequence", 1, draw, lambda x: text, test)


def exact_sample(m: P.PrueferModel, spec, form: C.IdempotentForm, text: str, shared) -> Check:
    """A sample of a form, given its trial's input: a pair of group members,
    canonical as drawn (an open top sits at a dense level, the only place
    open forms exist), a target vector of localization classes, and its
    preimage: the target's class reps at their components, J elsewhere."""
    name, gs, levels = _named(spec), m.valuations, form.overring.levels
    local = sorted(form.open_components)
    sides = [C.OPEN if i in form.open_components else C.CLOSED for i in range(m.k)]
    _, j, identity, ident = shared

    def draw(rng):
        a, b = (P.IdealTuple(tuple(map(S.group_cut, repeat(rng), gs, levels, sides)))
                for _ in range(2))
        target = tuple(C.class_of(gs[i], S.target_cut(rng, gs[i], levels[i])) for i in local)
        cuts = list(j.cuts)
        for r, i in zip(target, local):
            cuts[i] = r.rep
        return a, b, target, P.IdealTuple(tuple(cuts))

    def test(x):
        a, b, target, lift = x
        ab, lines = P.t_closure(m, P.mul(m, a, b)), []
        pa, pb, pab = (_project(m, form, name, y) for y in (a, b, ab))
        if pab != tuple(C.class_mul(gs[i], u, v) for u, v, i in zip(pa, pb, local)):
            lines.append(f"{text}: projection not multiplicative at {name(a)} * {name(b)}")
        ca = P.class_of(m, a) if pa == ident or pa == pb else None
        if pa == ident and ca != identity:
            lines.append(f"{text}: kernel element outside the embedded image: {name(a)}")
        if pa == pb and ca != P.class_of(m, b):
            lines.append(f"{text}: projection identified distinct classes: {name(a)} vs {name(b)}")
        if _project(m, form, name, lift) != target:
            lines.append(f"{text}: constructed preimage {name(lift)} missed its target")
        return lines
    return Check("exact_sequence", None, draw, lambda x: (
        f"{text}: sample {name(x[0])} * {name(x[1])} with preimage {name(x[3])}"), test)


def exact_sequence(m: P.PrueferModel, spec, samples: int, rng) -> dict:
    """Sampled exactness of 0 -> Cl(T) -> G -> prod G_i -> 0 at every form:
    G is the form's constituent group and G_i the localization classes
    `pruefer.psi_localize` projects it to.  Cl(T) of a semilocal
    intersection is trivial, so exactness amounts to: the embedded class
    is the identity and is the whole kernel, the projection is a
    homomorphism, and every sampled target vector lifts.

    A first trial lists the forms in report order with their `classify`
    text.  Only when a form's trial completes do its samples follow, each
    named `FORM` if its draw raises and `FORM: sample K` if its label does."""
    failures = []
    listing = Check("exact_sequence", 1, lambda rng: [
        (form, spec.form_text(spec.form(form))) for form in P.enumerate_idempotent_forms(m)],
        None, lambda forms: [])
    for form, text in _trials(failures, listing, rng, 1, lambda i: "idempotent forms") or ():
        shared = _trials(failures, exact_form(m, spec, form, text), rng, 1, lambda i: text)
        if shared is not None:
            _trials(failures, exact_sample(m, spec, form, text, shared), rng, samples,
                    lambda i: text, lambda k: f"{text}: sample {k}")
    return _report("exact_sequence", samples * form_count(m.valuations), failures)


def classification_consistency(m: P.PrueferModel, spec) -> Check:
    """Every sampled extended class lands on an idempotent `decompose` lists,
    tested once per distinct coefficient cut; the class is classified by
    its key, and its rep is built only to name a failure."""
    g = m.valuations[0]
    forms = functools.cache(lambda: X.decompose(g))

    @functools.cache
    def classify(c: C.Cut) -> list:
        key = C.class_of(g, c)
        if C.classify_idempotent(g, key) in forms():
            return []
        return [f"classification of {literal(X.sym_to_json(key.rep))} missing from decomposition"]
    return Check("classification_consistency", None, _tuples(m), _named(spec),
                 lambda a: list(classify(a.cuts[0])))


def strongly_discrete_detector(m: P.PrueferModel, spec) -> Check:
    """V[X] has no t-idempotent t-prime p[X] (no maximal-ideal form in its
    decomposition) exactly when the base is strongly discrete."""
    def test(g):
        if (not any(f.open_components for f in X.decompose(g))) == G.is_strongly_discrete(g):
            return []
        return ["detector disagrees with component density"]
    return Check("strongly_discrete_detector", 1, lambda rng: m.valuations[0],
                 lambda g: f"base {literal(G.value_group_to_json(g))}", test)


def semigroup_cross_check(m: P.PrueferModel, spec, seeds: int) -> Check:
    """Three sampled closures, each seeded with the classes of `seeds`
    sampled tuples, against the Cayley-table oracle, which rejects a table
    that is not associative, say."""
    adapter, tuples = P.PrueferClassModel(m, spec.write), _tuples(m)

    def test(drawn):
        closure = SG.sample_closure(adapter, [adapter.class_of(a) for a in drawn], 256)
        if not closure.saturated:
            return ["sampled closure did not saturate within budget 256"]
        return SG.cross_check(closure, adapter).mismatches
    return Check("semigroup_cross_check", 3, lambda rng: [tuples(rng) for _ in range(seeds)],
                 lambda drawn: f"closure of {literal([spec.write(a) for a in drawn])}", test)


def fixture_table(text: str) -> Check:
    def test(text):
        try:
            clifford = SG.is_clifford(SG.from_fixture(text))
        except SG.MalformedTableError as e:
            return [f"fixture rejected: {e}"]
        return [] if clifford else ["fixture table is not Clifford"]
    return Check("fixture_table", 1, lambda rng: text, lambda text: "fixture", test)


# Each kind's checks, in report order: factories of a `Check` that
# `_drive` runs, and `exact_sequence`.
CHECKS = {
    "valuation": (regularity, idempotent_uniqueness, overring_transfer,
                  functools.partial(semigroup_cross_check, seeds=5)),
    "pruefer_fc": (regularity, idempotent_uniqueness, exact_sequence,
                   functools.partial(semigroup_cross_check, seeds=4)),
    "poly_ext": (regularity, classification_consistency, strongly_discrete_detector,
                 functools.partial(semigroup_cross_check, seeds=5)),
}


def run(kind: str, m: P.PrueferModel, spec, samples: int, seed: int, fixture: str | None) -> list:
    """Every check of `kind` on `m`, then the fixture text's if given, all
    drawing in turn from one generator; each report keeps 10 failure lines."""
    rng = random.Random(seed)
    reports = [exact_sequence(m, spec, samples, rng) if make is exact_sequence
               else _drive(make(m, spec), samples, rng) for make in CHECKS[kind]]
    if fixture is not None:
        reports.append(_drive(fixture_table(fixture), 0, rng))
    return [{**r, "failures": r["failures"][:10]} for r in reports]
