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
internal inconsistency (a bug; the message carries the command that
replays it).
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


def _pruefer_from_json(vals) -> P.PrueferModel:
    if not isinstance(vals, list) or not vals:
        raise ValueError("kind 'pruefer_fc' wants a nonempty 'valuations' list")
    groups = []
    for i, v in enumerate(vals):
        try:
            groups.append(value_group_from_json(v))
        except (ValueError, TypeError) as e:
            raise ValueError(f"valuations[{i}]: {e}") from e
    if math.prod(len(C.idempotent_forms(g)) for g in groups) > MAX_IDEMPOTENT_FORMS:
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


def format_form(form: C.IdempotentForm) -> str:
    levels = ", ".join(str(l) for l in form.overring.levels)
    if not form.open_components:
        return f"overring at localization levels ({levels})"
    comps = ", ".join(str(i + 1) for i in sorted(form.open_components))
    return (f"idempotent maximal ideals of the overring at levels ({levels}), "
            f"components {{{comps}}}")


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


def _forms(m: P.PrueferModel) -> list[C.IdempotentForm]:
    """The idempotent forms by overring levels, then open components."""
    return sorted(P.enumerate_idempotent_forms(m),
                  key=lambda f: (f.overring.levels, sorted(f.open_components)))


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
# A model error (`cuts.MODEL_ERRORS`) can only come from wrong arithmetic.
# `idempotent_uniqueness` and `exact_sequence` record one as a failure of
# the sample that raised it, so the report keeps what the checks before
# them found; anywhere else `main` ends in exit 2 with one stderr line.

# Each check is called as check(m, samples, rng, write), m being the k
# valuations and `write` the kind's literal writer, and draws one cut per
# valuation per sample, in order.

def _check(name: str, instances: int, failures: list) -> dict:
    return {
        "name": name,
        "instances": instances,
        "failures": failures[:10],
        "failure_count": len(failures),
        "passed": not failures,
    }


def _random_tuple(rng: random.Random, m: P.PrueferModel) -> P.IdealTuple:
    return P.IdealTuple(tuple(S.random_cut(rng, g) for g in m.valuations))


def _regularity(m, samples, rng, write) -> dict:
    """Regularity is componentwise, so `cuts.is_regular` checks
    I = (I^2 (I:I^2))_t on every cut of the sampled tuple.  The audit is
    exact, so it runs once per distinct (component, cut); every sample that
    draws a failing cut records its own failure."""
    @functools.cache
    def audit(i: int, c: C.Cut) -> str | None:
        try:
            C.is_regular(m.valuations[i], c)
        except C.InternalInconsistencyError as e:
            return str(e)
        return None

    failures = []
    for _ in range(samples):
        a = _random_tuple(rng, m)
        for i, c in enumerate(a.cuts):
            message = audit(i, c)
            if message is not None:
                failures.append(f"{_literal(write(a))}, component {i + 1}: {message}")
    return _check("regularity", samples, failures)


def _idempotent_uniqueness(m, samples, rng, write) -> dict:
    """Exactly one idempotent admits each sampled tuple, by the residual
    audit of `group_membership`, and it is the one classification names.
    Each component's idempotents are built and checked once, up front, and
    each distinct sampled tuple is audited once."""
    idems = [C.idempotents(g) for g in m.valuations]
    membership = functools.cache(lambda a: P.group_membership(m, a, idems))
    failures = []
    for _ in range(samples):
        a = _random_tuple(rng, m)
        try:
            unique = membership(a) == [P.classify_idempotent(m, a)]
        except C.MODEL_ERRORS as e:
            failures.append(f"{_literal(write(a))}: {e}")
            continue
        if not unique:
            failures.append(f"membership not unique at {_literal(write(a))}")
    return _check("idempotent_uniqueness", samples, failures)


def _overring_transfer(m, samples, rng, write) -> dict:
    """A cut's t-closure over an overring it is an ideal of (a random level
    at or above its own) is its closure over the base."""
    failures = []
    for _ in range(samples):
        a = _random_tuple(rng, m)
        for i, (g, c) in enumerate(zip(m.valuations, a.cuts)):
            lvl = rng.randint(c.level, g.rank)
            over, base = C.t_closure_over(g, lvl, c), C.t_closure(g, c)
            if over != base:
                failures.append(f"{_literal(write(a))}, component {i + 1} at level {lvl}: "
                                f"{_literal(C.cut_to_json(over))} vs "
                                f"{_literal(C.cut_to_json(base))}")
    return _check("overring_transfer", samples, failures)


def _exact_sequence(m, samples, rng, write) -> dict:
    """`pruefer.verify_exact_sequence` at every form, in report order."""
    forms = _forms(m)
    failures = []
    for form in forms:
        try:
            messages = P.verify_exact_sequence(m, form, samples, rng)
        except C.MODEL_ERRORS as e:
            messages = [str(e)]
        failures.extend(f"{format_form(form)}: {msg}" for msg in messages)
    return _check("exact_sequence", samples * len(forms), failures)


def _classification_consistency(m, samples, rng, write) -> dict:
    """Every sampled extended class lands on an idempotent `decompose` lists."""
    g = m.valuations[0]
    forms = X.decompose(g)
    failures = []
    for _ in range(samples):
        s = C.class_of(g, _random_tuple(rng, m).cuts[0])
        if C.classify_idempotent(g, s.rep) not in forms:
            failures.append(f"classification of {_literal(X.sym_to_json(s.rep))} "
                            "missing from decomposition")
    return _check("classification_consistency", samples, failures)


def _strongly_discrete_detector(m, samples, rng, write) -> dict:
    """V[X] has no t-idempotent t-prime p[X] (no maximal-ideal form in its
    decomposition) exactly when the base is strongly discrete."""
    g = m.valuations[0]
    ok = (not any(f.open_components for f in X.decompose(g))) == is_strongly_discrete(g)
    return _check("strongly_discrete_detector", 1,
                  [] if ok else ["detector disagrees with component density"])


def _semigroup_cross_check(m, samples, rng, write, seeds: int) -> dict:
    """Three sampled closures, each seeded with the classes of `seeds`
    sampled tuples, against the Cayley-table oracle.  A table the oracle
    rejects (not associative, say) fails this check."""
    adapter = P.PrueferClassModel(m, write)
    failures = []
    for _ in range(3):
        drawn = [_random_tuple(rng, m) for _ in range(seeds)]
        try:
            closure = SG.sample_closure(adapter, [adapter.class_of(a) for a in drawn], 256)
            if not closure.saturated:
                failures.append("sampled closure did not saturate within budget 256")
                continue
            failures.extend(SG.cross_check(closure, adapter).mismatches)
        except SG.MalformedTableError as e:
            failures.append(f"closure of {_literal([write(a) for a in drawn])}: {e}")
    return _check("semigroup_cross_check", 3, failures)


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
        form_json, _form_text, _forms,
        _valuation_entry, lambda e: [f"  level {e['level']} {e['kind']}: {e['group']}"],
        scope=None, components=False,
        checks=(_regularity, _idempotent_uniqueness, _overring_transfer,
                functools.partial(_semigroup_cross_check, seeds=5))),
    "pruefer_fc": Kind(
        "valuations", _pruefer_from_json,
        lambda m: [value_group_to_json(g) for g in m.valuations],
        lambda m: m,
        P.tuple_from_json, P.tuple_to_json,
        form_json, _form_text, _forms,
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
    failures = []
    try:
        s = SG.from_fixture(text)
        if not SG.is_clifford(s):
            failures.append("fixture table is not Clifford")
        else:
            for e in sorted(SG.idempotents(s)):
                SG.constituent_group(s, e)
    except SG.MalformedTableError as e:
        failures.append(f"fixture rejected: {e}")
    return _check("fixture_table", 1, failures)


def cmd_verify(kind: str, model, samples: int, seed: int, fixture: str | None) -> dict:
    rng = random.Random(seed)
    spec = KINDS[kind]
    m = spec.as_pruefer(model)
    checks = [check(m, samples, rng, spec.write) for check in spec.checks]
    if fixture is not None:
        checks.append(_check_fixture(_read_text(fixture, "fixture")))
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
    except C.MODEL_ERRORS as e:
        print(f"error: internal inconsistency: {e}; replay with: {_replay(args)}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
