"""Command-line front end.

Three commands over a JSON model spec: `classify` an ideal literal to its
idempotent form, `decompose` a model into idempotents and constituent
groups, and `verify` the property checks (regularity, idempotent
uniqueness, exactness, semigroup oracle cross-checks) with seeded
randomness.  Machine-readable reports are JSON with sorted keys and no
timestamps, so a fixed seed reproduces them byte for byte.

Every command runs on the k-valuation model, a `pruefer.PrueferModel`: a
valuation domain is k = 1, and so is V[X], whose extended classes are the
coefficient classes of its base.  What differs per kind is data in
`KINDS`: its literal reader and writer, its form and `decompose` entry
writers with their text, and the documented report differences.

Exit codes: 0 pass, 1 usage or parse error, 2 verification failure or an
internal inconsistency (a bug).  In `verify` every exception a check
raises is a failure line of that check; any other exception past parsing
is an internal inconsistency, one stderr line carrying the command that
replays it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import shlex
import sys
from itertools import repeat
from typing import Callable, NamedTuple

from . import __version__
from .groups import (
    ValueGroup,
    describe_component,
    is_strongly_discrete,
    value_group_from_json,
    value_group_to_json,
)
from . import cuts as C
from . import polyext as X
from . import pruefer as P
from . import sampling as S
from . import semigroups as SG


class UsageError(Exception):
    """Bad invocation or unparseable input; maps to exit code 1."""


# === input loading ===

def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as e:  # ValueError: undecodable bytes, NUL in the path
        raise UsageError(f"cannot read {what} {path!r}: {e}") from e


def _read_json(path_or_inline: str, what: str):
    text = path_or_inline
    if not text.lstrip().startswith(("{", "[")):
        text = _read_text(text, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{what}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:  # int digit limit, nesting depth
        raise UsageError(f"{what}: {e}") from e


# A pruefer_fc spec's idempotent forms are a product over its valuations,
# each contributing its count of rank-1 forms (at least 2 with a dense
# level), and `decompose` and `verify` enumerate them all.
MAX_IDEMPOTENT_FORMS = 4096


def _form_count(groups) -> int:
    """The number of idempotent forms over `groups`, counted without the
    kernel: each level gives its ring form, and a dense one its prime too
    (as `cuts.idempotent_forms` lists them)."""
    return math.prod(sum(1 + c.dense for c in g.components) for g in groups)


def _pruefer_from_json(vals) -> P.PrueferModel:
    if not isinstance(vals, list) or not vals:
        raise ValueError("kind 'pruefer_fc' wants a nonempty 'valuations' list")
    groups = []
    for i, v in enumerate(vals):
        try:
            groups.append(value_group_from_json(v))
        except (ValueError, TypeError) as e:
            raise ValueError(f"valuations[{i}]: {e}") from e
    if _form_count(groups) > MAX_IDEMPOTENT_FORMS:
        raise ValueError(f"the valuations have more than {MAX_IDEMPOTENT_FORMS} idempotent "
                         "forms (the product over valuations of their rank-1 forms)")
    return P.PrueferModel(tuple(groups))


def load_model(path: str):
    data = _read_json(path, "spec file")
    if not isinstance(data, dict) or "kind" not in data:
        raise UsageError("spec file: top level must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise UsageError(
            f"spec file: unknown kind {kind!r} (expected valuation, pruefer_fc, or poly_ext)"
        )
    spec = KINDS[kind]
    if spec.field not in data:
        raise UsageError(f"spec file: kind {kind!r} wants a {spec.field!r} field")
    try:
        return kind, spec.parse(data[spec.field])
    except (ValueError, TypeError) as e:
        raise UsageError(f"spec file: {e}") from e


def model_echo(kind: str, model) -> dict:
    spec = KINDS[kind]
    return {"kind": kind, spec.field: spec.echo(model)}


# === report fragments ===

def _literal(data) -> str:
    return json.dumps(data, sort_keys=True)


def form_json(form: C.IdempotentForm) -> dict:
    return {
        "variant": form.variant,
        "levels": list(form.overring.levels),
        "max_ideal_components": sorted(i + 1 for i in form.open_components),
    }


def _form_text(f: dict) -> str:
    if f["variant"] == "ring":
        return f"overring at levels {f['levels']}"
    return (f"maximal ideals at components {f['max_ideal_components']} "
            f"of the overring at levels {f['levels']}")


def _poly_form_json(form: C.IdempotentForm) -> dict:
    # The poly_ext reports name V_p[X] and p[X] after the ring and maximal
    # ideal forms of the base.
    variant = "idempotent_max_class" if form.open_components else "overring"
    return {"variant": variant, "level": form.overring.levels[0]}


def _poly_form_text(f: dict) -> str:
    return f"{f['variant']} at level {f['level']}"


def _regularity_json(w: C.RegularityWitness) -> dict:
    return {
        "idempotent": C.cut_to_json(w.idempotent),
        "shift": None if w.shift is None else [str(q) for q in w.shift],
    }


# === classify ===

def cmd_classify(kind: str, model, ideal_arg: str) -> dict:
    data = _read_json(ideal_arg, "ideal literal")
    spec = KINDS[kind]
    m = spec.as_pruefer(model)
    try:
        a = spec.read(m, data)
    except C.MalformedCutError as e:
        raise UsageError(f"ideal literal: {e}") from e
    form = P.classify_idempotent(m, a)
    report = {"command": "classify", "model": model_echo(kind, model),
              "ideal": spec.write(a), "idempotent_form": spec.form(form)}
    if spec.scope is None:
        report["witness"] = spec.write(P.form_tuple(m, form))
    else:
        report["scope"] = spec.scope
    regularity = [_regularity_json(C.is_regular(g, c)) for g, c in zip(m.valuations, a.cuts)]
    report["regularity"] = regularity if spec.components else regularity[0]
    return report


def _render_classify(report: dict) -> list[str]:
    spec = KINDS[report["model"]["kind"]]
    return [f"canonical ideal: {_literal(report['ideal'])}",
            f"idempotent: {spec.form_text(report['idempotent_form'])}"]


# === decompose ===

def _valuation_entry(m: P.PrueferModel, form: C.IdempotentForm) -> dict:
    g, level = m.valuations[0], form.overring.levels[0]
    entry = {"idempotent": C.cut_to_json(C.form_cut(g, form)), "level": level}
    if form.open_components:
        comp = describe_component(g.components[level - 1])
        entry.update(kind="idempotent_prime",
                     group=f"classes of rationals modulo {comp} (representable part)")
    else:
        entry.update(kind="overring", group="trivial (canonical closed classes are principal)")
    return entry


def _pruefer_entry(m: P.PrueferModel, form: C.IdempotentForm) -> dict:
    localized = [
        f"component {i + 1}: classes of rationals modulo "
        f"{describe_component(m.valuations[i].components[form.overring.levels[i] - 1])}"
        for i in sorted(form.open_components)
    ]
    return {"form": form_json(form), "localized_groups": localized,
            "class_group": "trivial (computed with principality certificate)"}


def _pruefer_entry_text(e: dict) -> list[str]:
    levels, comps = e["form"]["levels"], e["form"]["max_ideal_components"]
    head = (f"  max ideals at components {comps}, overring levels {levels}" if comps
            else f"  overring levels {levels}")
    return [head, *(f"    {loc}" for loc in e["localized_groups"])]


def _poly_entry(m: P.PrueferModel, form: C.IdempotentForm) -> dict:
    return {"idempotent": _poly_form_json(form), "group_trivial": not form.open_components,
            "group": X.group_description(m.valuations[0], form)}


def cmd_decompose(kind: str, model) -> dict:
    spec = KINDS[kind]
    m = spec.as_pruefer(model)
    entries = [spec.entry(m, form) for form in spec.forms(m)]
    report = {"command": "decompose", "model": model_echo(kind, model),
              "idempotents": entries, "idempotent_count": len(entries)}
    if not spec.components:
        report["strongly_discrete"] = is_strongly_discrete(m.valuations[0])
    if spec.scope is not None:
        report["scope"] = spec.scope
    return report


def _render_decompose(report: dict) -> list[str]:
    spec = KINDS[report["model"]["kind"]]
    lines = [f"idempotents: {report['idempotent_count']}"]
    for e in report["idempotents"]:
        lines += spec.entry_text(e)
    if spec.scope is not None:
        lines.append(f"scope: {spec.scope}")
    return lines


# === verify ===
# Each check is called as check(m, samples, rng, write), m being the k
# valuations and `write` the kind's literal writer, and is a sequence of
# trials: one per sample (drawing one cut per valuation), form or closure,
# or one for the whole model.  `_drive` runs them all under one rule.

def _drive(name: str, instances: int, trials) -> dict:
    """Run a check's trials in order and build its report.  A trial is a
    generator function: it draws and sets up what it needs, yields a
    function naming it (a sampled literal, a form, a closure's seeds), then
    its failure lines.  An exception it raises is one more line, `<that
    name>: Type: message` (`trial N` if unnamed), and the next trial runs.
    A name that raises in turn, such as the literal of a malformed draw,
    gives `trial N: Type: message` of its own exception.  `trials` is read
    one trial at a time, so a trial may set up the later ones and gate them:
    `exact_sequence` enumerates its forms this way, and a form's trial,
    once it completes, opens that form's sample trials."""
    failures = []
    for n, trial in enumerate(trials, 1):
        steps, label = trial(), lambda: f"trial {n}"
        try:
            label = next(steps)
            failures.extend(steps)
        except Exception as e:
            try:
                line = f"{label()}: {type(e).__name__}: {e}"
            except Exception as f:
                line = f"trial {n}: {type(f).__name__}: {f}"
            failures.append(line)
    return {
        "name": name,
        "instances": instances,
        "failures": failures[:10],
        "failure_count": len(failures),
        "passed": not failures,
    }


def _random_tuple(rng: random.Random, m: P.PrueferModel) -> P.IdealTuple:
    return P.IdealTuple(tuple(map(S.random_cut, repeat(rng), m.valuations)))


def _regularity(m, samples, rng, write) -> dict:
    """Regularity is componentwise, so `cuts.is_regular` checks
    I = (I^2 (I:I^2))_t on every cut of the sampled tuple.  The audit is
    exact, so it runs once per distinct (component, cut) as a one-trial
    check, and every sample that draws a failing cut records its line."""
    @functools.cache
    def audit(i: int, c: C.Cut) -> list:
        def trial():
            yield lambda: f"component {i + 1}"
            C.is_regular(m.valuations[i], c)
        return _drive("", 1, [trial])["failures"]

    def sample():
        a = _random_tuple(rng, m)
        yield lambda: _literal(write(a))
        for i, c in enumerate(a.cuts):
            yield from (f"{_literal(write(a))}, {line}" for line in audit(i, c))
    return _drive("regularity", samples, [sample] * samples)


def _idempotent_uniqueness(m, samples, rng, write) -> dict:
    """Exactly one idempotent admits each sampled tuple, by the residual
    audit of `group_membership`, and it is the one classification names.
    Each component's idempotents are built and checked once, at the first
    sample, and each distinct sampled tuple is audited once."""
    idems = functools.cache(lambda: [C.idempotents(g) for g in m.valuations])
    membership = functools.cache(lambda a: P.group_membership(m, a, idems()))

    def sample():
        a = _random_tuple(rng, m)
        yield lambda: _literal(write(a))
        if membership(a) != [P.classify_idempotent(m, a)]:
            yield f"membership not unique at {_literal(write(a))}"
    return _drive("idempotent_uniqueness", samples, [sample] * samples)


def _overring_transfer(m, samples, rng, write) -> dict:
    """A cut's t-closure over an overring it is an ideal of (a random level
    at or above its own) is its closure over the base."""
    def sample():
        a = _random_tuple(rng, m)
        yield lambda: _literal(write(a))
        for i, (g, c) in enumerate(zip(m.valuations, a.cuts)):
            lvl = c.level + S._below(rng.getrandbits, g.rank - c.level + 1)
            over, base = C.t_closure_over(g, lvl, c), C.t_closure(g, c)
            if over != base:
                yield (f"{_literal(write(a))}, component {i + 1} at level {lvl}: "
                       f"{_literal(C.cut_to_json(over))} vs {_literal(C.cut_to_json(base))}")
    return _drive("overring_transfer", samples, [sample] * samples)


def _exact_sequence(m, samples, rng, write) -> dict:
    """Sampled exactness of 0 -> Cl(T) -> G -> prod G_i -> 0 at every form,
    in report order: G is the form's constituent group and G_i the
    localization classes `pruefer.psi_localize` projects it to.  Cl(T) of a
    semilocal intersection is trivial, so exactness amounts to: the
    embedded class is the identity and is the whole kernel (injectivity of
    the projection), the projection is a homomorphism, and every sampled
    target vector lifts.  Failures name the offending tuples by the
    literals `tclass classify --ideal` reads.

    The forms are enumerated by a first trial, so a fault there is one
    line.  Each form's trial builds its constants and checks the embedding;
    only when it completes do the form's `samples` trials follow, each
    drawing a pair of group members and a target vector and named by the
    pair and the target's preimage.  The instance count is `_form_count`,
    which calls no kernel code outside a trial."""
    forms, gs = [], m.valuations

    def lit(a: P.IdealTuple) -> str:
        return _literal(write(a))

    def enumerate_forms():
        yield lambda: "idempotent forms"
        forms.extend(P.enumerate_idempotent_forms(m))

    def form_trial(form, opened):
        text = _form_text(form_json(form))
        yield lambda: text
        levels, local = form.overring.levels, sorted(form.open_components)
        sides = [C.OPEN if i in form.open_components else C.CLOSED for i in range(len(gs))]
        t = P.ring_tuple(m, form.overring)
        j = P.form_tuple(m, form)
        identity = P.class_of(m, j)
        ident = P.psi_localize(m, j, form)
        # The embedding pushes a class over T into the group by multiplying
        # into the idempotent and t-closing; the identity of Cl(T) is T's class.
        embedded = P.class_of(m, P.t_closure(m, P.mul(m, t, j)))
        if embedded != identity:
            yield (f"{text}: embedding of Cl(T) identity missed the group identity: "
                   f"{lit(P.tuple_of_class(embedded))}")

        def sample():
            lift = None  # named by the form alone until its draws are done
            yield lambda: (text if lift is None else
                           f"{text}: sample {lit(a)} * {lit(b)} with preimage {lit(lift)}")
            # The pair is canonical as drawn: an open top sits at a dense
            # level, the only place open forms exist.
            a, b = (P.IdealTuple(tuple(map(S.group_cut, repeat(rng), gs, levels, sides)))
                    for _ in range(2))
            target = tuple(C.class_of(gs[i], S.target_cut(rng, gs[i], levels[i])) for i in local)
            # The preimage plants each target class's rep at its component
            # and keeps the idempotent elsewhere.
            cuts = list(j.cuts)
            for r, i in zip(target, local):
                cuts[i] = r.rep
            lift = P.IdealTuple(tuple(cuts))
            ab = P.t_closure(m, P.mul(m, a, b))
            pa, pb, pab = (P.psi_localize(m, x, form) for x in (a, b, ab))
            if pab != tuple(C.class_mul(gs[i], x, y) for x, y, i in zip(pa, pb, local)):
                yield f"{text}: projection not multiplicative at {lit(a)} * {lit(b)}"
            if pa == ident and P.class_of(m, a) != identity:
                yield f"{text}: kernel element outside the embedded image: {lit(a)}"
            if pa == pb and P.class_of(m, a) != P.class_of(m, b):
                yield f"{text}: projection identified distinct classes: {lit(a)} vs {lit(b)}"
            if P.psi_localize(m, lift, form) != target:
                yield f"{text}: constructed preimage {lit(lift)} missed its target"
        opened.append(sample)

    def trials():
        yield enumerate_forms
        for form in forms:
            opened = []  # the form's sample trial, once its form trial completes
            yield functools.partial(form_trial, form, opened)
            yield from opened * samples
    return _drive("exact_sequence", samples * _form_count(gs), trials())


def _classification_consistency(m, samples, rng, write) -> dict:
    """Every sampled extended class lands on an idempotent `decompose` lists."""
    g = m.valuations[0]
    forms = functools.cache(lambda: X.decompose(g))

    def sample():
        a = _random_tuple(rng, m)
        yield lambda: _literal(write(a))
        s = C.class_of(g, a.cuts[0])
        if C.classify_idempotent(g, s.rep) not in forms():
            yield (f"classification of {_literal(X.sym_to_json(s.rep))} "
                   "missing from decomposition")
    return _drive("classification_consistency", samples, [sample] * samples)


def _strongly_discrete_detector(m, samples, rng, write) -> dict:
    """V[X] has no t-idempotent t-prime p[X] (no maximal-ideal form in its
    decomposition) exactly when the base is strongly discrete."""
    def trial():
        g = m.valuations[0]
        yield lambda: f"base {_literal(value_group_to_json(g))}"
        if (not any(f.open_components for f in X.decompose(g))) != is_strongly_discrete(g):
            yield "detector disagrees with component density"
    return _drive("strongly_discrete_detector", 1, [trial])


def _semigroup_cross_check(m, samples, rng, write, seeds: int) -> dict:
    """Three sampled closures, each seeded with the classes of `seeds`
    sampled tuples, against the Cayley-table oracle.  A table the oracle
    rejects (not associative, say) fails this check."""
    adapter = P.PrueferClassModel(m, write)

    def trial():
        drawn = [_random_tuple(rng, m) for _ in range(seeds)]
        yield lambda: f"closure of {_literal([write(a) for a in drawn])}"
        closure = SG.sample_closure(adapter, [adapter.class_of(a) for a in drawn], 256)
        if not closure.saturated:
            yield "sampled closure did not saturate within budget 256"
        else:
            yield from SG.cross_check(closure, adapter).mismatches
    return _drive("semigroup_cross_check", 3, [trial] * 3)


class Kind(NamedTuple):
    field: str  # the spec field holding the model
    parse: Callable  # that field -> the model
    echo: Callable  # the model -> that field
    as_pruefer: Callable  # the model -> the k valuations every command runs on
    read: Callable  # (the k valuations, the kind's ideal literal) -> its canonical tuple
    write: Callable  # a tuple of the k valuations -> the kind's ideal literal
    form: Callable  # an idempotent form -> its `classify` report
    form_text: Callable  # that report -> its text
    forms: Callable  # the k valuations -> the idempotent forms `decompose` lists, in order
    entry: Callable  # (the k valuations, a form) -> its `decompose` entry
    entry_text: Callable  # that entry -> its text lines
    scope: str | None  # the scope label, reported in place of `classify`'s witness
    components: bool  # regularity reported per component, and no strong discreteness
    checks: tuple  # `verify`'s checks, in report order


KINDS = {
    "valuation": Kind(
        "group", value_group_from_json, value_group_to_json,
        lambda g: P.PrueferModel((g,)),
        lambda m, data: P.IdealTuple((C.cut_from_json(m.valuations[0], data),)),
        lambda a: C.cut_to_json(a.cuts[0]),
        form_json, _form_text, P.enumerate_idempotent_forms,
        _valuation_entry, lambda e: [f"  level {e['level']} {e['kind']}: {e['group']}"],
        scope=None, components=False,
        checks=(_regularity, _idempotent_uniqueness, _overring_transfer,
                functools.partial(_semigroup_cross_check, seeds=5))),
    "pruefer_fc": Kind(
        "valuations", _pruefer_from_json,
        lambda m: [value_group_to_json(g) for g in m.valuations],
        lambda m: m,
        P.tuple_from_json, P.tuple_to_json,
        form_json, _form_text, P.enumerate_idempotent_forms,
        _pruefer_entry, _pruefer_entry_text,
        scope=None, components=True,
        checks=(_regularity, _idempotent_uniqueness, _exact_sequence,
                functools.partial(_semigroup_cross_check, seeds=4))),
    "poly_ext": Kind(
        "base", lambda obj: X.PolyExtModel(value_group_from_json(obj)),
        lambda m: value_group_to_json(m.base),
        lambda m: P.PrueferModel((m.base,)),
        lambda m, data: P.IdealTuple((X.sym_from_json(m.valuations[0], data),)),
        lambda a: X.sym_to_json(a.cuts[0]),
        _poly_form_json, _poly_form_text, lambda m: X.decompose(m.valuations[0]),
        _poly_entry, lambda e: [f"  {_poly_form_text(e['idempotent'])}: {e['group']}"],
        scope=X.SCOPE, components=False,
        checks=(_regularity, _classification_consistency, _strongly_discrete_detector,
                functools.partial(_semigroup_cross_check, seeds=5))),
}


def _check_fixture(text: str) -> dict:
    def trial():
        yield lambda: "fixture"
        try:
            if not SG.is_clifford(SG.from_fixture(text)):
                yield "fixture table is not Clifford"
        except SG.MalformedTableError as e:
            yield f"fixture rejected: {e}"
    return _drive("fixture_table", 1, [trial])


def cmd_verify(kind: str, model, samples: int, seed: int, fixture: str | None) -> dict:
    rng = random.Random(seed)
    spec = KINDS[kind]
    m = spec.as_pruefer(model)
    fixture_check = [] if fixture is None else [_check_fixture(_read_text(fixture, "fixture"))]
    checks = [check(m, samples, rng, spec.write) for check in spec.checks] + fixture_check
    return {
        "command": "verify",
        "model": model_echo(kind, model),
        "provenance": {
            "package": "tclass",
            "version": __version__,
            "seed": seed,
            "samples": samples,
        },
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _render_verify(report: dict) -> list[str]:
    prov = report["provenance"]
    lines = [f"seed: {prov['seed']}  samples: {prov['samples']}"]
    for c in report["checks"]:
        status = "pass" if c["passed"] else "FAIL"
        lines.append(f"check {c['name']}: {status} ({c['instances']} instances)")
        for msg in c["failures"]:
            lines.append(f"  counterexample: {msg}")
    lines.append("result: " + ("pass" if report["passed"] else "FAIL"))
    return lines


# === entry point ===

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tclass",
                     description="t-class semigroup computations for valuation-type domains")
    sub = parser.add_subparsers(dest="command", required=True)

    cl = sub.add_parser("classify", help="classify an ideal literal to its idempotent form")
    cl.add_argument("spec", help="model spec file (JSON)")
    cl.add_argument("--ideal", required=True, help="ideal literal: a file path or inline JSON")
    cl.add_argument("--json", dest="json_out", help="write the machine-readable report here")

    de = sub.add_parser("decompose", help="enumerate idempotents and constituent groups")
    de.add_argument("spec")
    de.add_argument("--json", dest="json_out")

    ve = sub.add_parser("verify", help="run the property suites")
    ve.add_argument("spec")
    ve.add_argument("--samples", type=int, default=100)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--json", dest="json_out")
    ve.add_argument("--fixture", help="also validate a semigroup table fixture")
    return parser


def _emit(report: dict, json_out: str | None, lines: list[str]) -> None:
    """Print the report's model and then `lines`; write the --json report."""
    try:
        for line in [f"model: {_literal(report['model'])}", *lines]:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output early (`tclass ... | head`).  The
        # rest of the text has nowhere to go; point the descriptor at the
        # null device so the exit-time flush stays quiet, and still write
        # the --json report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if json_out:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        try:
            with open(json_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except (OSError, ValueError) as e:  # ValueError: NUL in the path
            raise UsageError(f"cannot write report {json_out!r}: {e}") from e


def _replay(args) -> str:
    """The command line that reruns `args`, on one line (a raw newline is
    insignificant whitespace in inline JSON)."""
    words = [args.command, args.spec]
    if args.command == "classify":
        words += ["--ideal", args.ideal]
    elif args.command == "verify":
        words += ["--samples", str(args.samples), "--seed", str(args.seed)]
        if args.fixture is not None:
            words += ["--fixture", args.fixture]
    return "tclass " + " ".join(shlex.quote(w.replace("\n", " ")) for w in words)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        kind, model = load_model(args.spec)
        if args.command == "classify":
            report = cmd_classify(kind, model, args.ideal)
            _emit(report, args.json_out, _render_classify(report))
            return 0
        if args.command == "decompose":
            report = cmd_decompose(kind, model)
            _emit(report, args.json_out, _render_decompose(report))
            return 0
        if args.samples < 0:
            raise UsageError("--samples must be nonnegative")
        report = cmd_verify(kind, model, args.samples, args.seed, args.fixture)
        _emit(report, args.json_out, _render_verify(report))
        return 0 if report["passed"] else 2
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # past parsing, since `_Parser.error` raises `UsageError`
        error = f"{type(e).__name__}: {e}".replace("\n", " ")
        print(f"error: internal inconsistency: {error}; replay with: {_replay(args)}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
