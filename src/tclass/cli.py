"""Command-line front end.

Three commands over a JSON model spec: `classify` an ideal literal to its
idempotent form, `decompose` a model into idempotents and constituent
groups, and `verify` the property suites (regularity, idempotent
uniqueness, exactness, semigroup oracle cross-checks) with seeded
randomness.  Machine-readable reports are JSON with sorted keys and no
timestamps, so a fixed seed reproduces them byte for byte.

Exit codes: 0 pass, 1 usage or parse error, 2 verification failure or an
internal inconsistency (a bug; the message carries the command that
replays it).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import sys

from . import __version__
from .groups import (
    MalformedElementError,
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


def _pruefer_from_json(vals) -> P.PrueferModel:
    if not isinstance(vals, list) or not vals:
        raise ValueError("kind 'pruefer_fc' wants a nonempty 'valuations' list")
    groups = []
    for i, v in enumerate(vals):
        try:
            groups.append(value_group_from_json(v))
        except (ValueError, TypeError) as e:
            raise ValueError(f"valuations[{i}]: {e}") from e
    return P.PrueferModel(tuple(groups))


# kind -> (spec field, parser of that field, echo of the parsed model)
KINDS = {
    "valuation": ("group", value_group_from_json, value_group_to_json),
    "pruefer_fc": ("valuations", _pruefer_from_json,
                   lambda m: [value_group_to_json(g) for g in m.valuations]),
    "poly_ext": ("base", lambda obj: X.PolyExtModel(value_group_from_json(obj)),
                 lambda m: value_group_to_json(m.base)),
}


def load_model(path: str):
    data = _read_json(path, "spec file")
    if not isinstance(data, dict) or "kind" not in data:
        raise UsageError("spec file: top level must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise UsageError(
            f"spec file: unknown kind {kind!r} (expected valuation, pruefer_fc, or poly_ext)"
        )
    field, parse, _ = KINDS[kind]
    if field not in data:
        raise UsageError(f"spec file: kind {kind!r} wants a {field!r} field")
    try:
        return kind, parse(data[field])
    except (ValueError, TypeError) as e:
        raise UsageError(f"spec file: {e}") from e


def model_echo(kind: str, model) -> dict:
    field, _, echo = KINDS[kind]
    return {"kind": kind, field: echo(model)}


# === report fragments ===

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


# The poly_ext reports name V_p[X] and p[X] after the ring and maximal
# ideal forms of the base.
_POLY_VARIANTS = {"ring": "overring", "max_ideals": "idempotent_max_class"}


def _poly_idem_json(form: C.IdempotentForm) -> dict:
    return {"variant": _POLY_VARIANTS[form.variant], "level": form.overring.levels[0]}


def _regularity_json(w: C.RegularityWitness) -> dict:
    return {
        "idempotent": C.cut_to_json(w.idempotent),
        "shift": None if w.shift is None else [str(q) for q in w.shift],
    }


# === classify ===

def cmd_classify(kind: str, model, ideal_arg: str) -> dict:
    data = _read_json(ideal_arg, "ideal literal")
    report = {"command": "classify", "model": model_echo(kind, model)}
    try:
        if kind == "valuation":
            canon = C.cut_from_json(model, data)
            form = C.classify_idempotent(model, canon)
            report["ideal"] = C.cut_to_json(canon)
            report["idempotent_form"] = form_json(form)
            report["witness"] = C.cut_to_json(C.form_cut(model, form))
            report["regularity"] = _regularity_json(C.is_regular(model, canon))
        elif kind == "pruefer_fc":
            a = P.tuple_from_json(model, data)
            form = P.classify_idempotent(model, a)
            report["ideal"] = P.tuple_to_json(a)
            report["idempotent_form"] = form_json(form)
            report["witness"] = P.tuple_to_json(P.form_tuple(model, form))
            report["regularity"] = [
                _regularity_json(C.is_regular(g, c))
                for g, c in zip(model.valuations, a.cuts)
            ]
        else:
            s = X.sym_from_json(model, data)
            report["ideal"] = X.sym_to_json(s)
            report["idempotent_form"] = _poly_idem_json(X.classify(model, s))
            report["scope"] = X.SCOPE
            report["regularity"] = _regularity_json(C.is_regular(model.base, s.rep))
    except (C.MalformedCutError, MalformedElementError) as e:
        raise UsageError(f"ideal literal: {e}") from e
    return report


def _render_classify(report: dict) -> list[str]:
    lines = [f"model: {json.dumps(report['model'], sort_keys=True)}"]
    lines.append(f"canonical ideal: {json.dumps(report['ideal'], sort_keys=True)}")
    f = report["idempotent_form"]
    if "levels" in f:
        if f["variant"] == "ring":
            lines.append(f"idempotent: overring at levels {f['levels']}")
        else:
            lines.append(
                f"idempotent: maximal ideals at components {f['max_ideal_components']} "
                f"of the overring at levels {f['levels']}"
            )
    else:
        lines.append(f"idempotent: {f['variant']} at level {f['level']}")
    return lines


# === decompose ===

def _valuation_idempotent_entries(g: ValueGroup) -> list[dict]:
    entries = []
    for form in C.idempotent_forms(g):
        level = form.overring.levels[0]
        entry = {"idempotent": C.cut_to_json(C.form_cut(g, form)), "level": level}
        if form.open_components:
            comp = describe_component(g.components[level - 1])
            entry.update(kind="idempotent_prime",
                         group=f"classes of rationals modulo {comp} (representable part)")
        else:
            entry.update(kind="overring",
                         group="trivial (canonical closed classes are principal)")
        entries.append(entry)
    return entries


def _form_order(form: C.IdempotentForm):
    return form.overring.levels, sorted(form.open_components)


def cmd_decompose(kind: str, model) -> dict:
    report = {"command": "decompose", "model": model_echo(kind, model)}
    if kind == "valuation":
        entries = _valuation_idempotent_entries(model)
        report["strongly_discrete"] = is_strongly_discrete(model)
    elif kind == "pruefer_fc":
        entries = []
        for f in sorted(P.enumerate_idempotent_forms(model), key=_form_order):
            localized = [
                f"component {i + 1}: classes of rationals modulo "
                f"{describe_component(model.valuations[i].components[f.overring.levels[i] - 1])}"
                for i in sorted(f.open_components)
            ]
            entries.append({
                "form": form_json(f),
                "class_group": "trivial (computed with principality certificate)",
                "localized_groups": localized,
            })
    else:
        entries = [
            {"idempotent": _poly_idem_json(f), "group": X.group_description(model, f),
             "group_trivial": not f.open_components}
            for f in X.decompose(model)
        ]
        report["scope"] = X.SCOPE
        report["strongly_discrete"] = is_strongly_discrete(model.base)
    report["idempotents"] = entries
    report["idempotent_count"] = len(entries)
    return report


def _render_decompose(report: dict) -> list[str]:
    lines = [f"model: {json.dumps(report['model'], sort_keys=True)}"]
    lines.append(f"idempotents: {report['idempotent_count']}")
    for e in report["idempotents"]:
        if "form" in e:
            levels = e["form"]["levels"]
            comps = e["form"]["max_ideal_components"]
            head = (f"  overring levels {levels}" if not comps
                    else f"  max ideals at components {comps}, overring levels {levels}")
            lines.append(head)
            for loc in e["localized_groups"]:
                lines.append(f"    {loc}")
        elif "variant" in e["idempotent"]:
            lines.append(f"  {e['idempotent']['variant']} at level {e['idempotent']['level']}"
                         f": {e['group']}")
        else:
            lines.append(f"  level {e['level']} {e['kind']}: {e['group']}")
    if "scope" in report:
        lines.append(f"scope: {report['scope']}")
    return lines


# === verify ===

def _literal(data) -> str:
    return json.dumps(data, sort_keys=True)


def _check(name: str, instances: int, failures: list) -> dict:
    return {
        "name": name,
        "instances": instances,
        "failures": failures[:10],
        "failure_count": len(failures),
        "passed": not failures,
    }


def _cut_regularity(groups, samples: int, rng: random.Random) -> dict:
    """Each sample is one cut per group (a tuple when there are several):
    regularity is componentwise, so `cuts.is_regular` checks
    I = (I^2 (I:I^2))_t on every cut."""
    failures = []
    for _ in range(samples):
        for i, g in enumerate(groups):
            a = S.random_cut(rng, g)
            try:
                C.is_regular(g, a)
            except C.InternalInconsistencyError as e:
                failures.append(f"component {i + 1}: {_literal(C.cut_to_json(a))}: {e}")
    return _check("regularity", samples, failures)


def _semigroup_cross_check(adapter, draw_seeds) -> dict:
    """Three sampled closures, each seeded with the classes of the ideals
    `draw_seeds()` returns, against the Cayley-table oracle."""
    failures = []
    for _ in range(3):
        seeds = [adapter.class_of(a) for a in draw_seeds()]
        closure = SG.sample_closure(adapter, seeds, 256)
        if not closure.saturated:
            failures.append("sampled closure did not saturate within budget 256")
            continue
        failures.extend(SG.cross_check(closure, adapter).mismatches)
    return _check("semigroup_cross_check", 3, failures)


def _verify_valuation(g: ValueGroup, samples: int, rng: random.Random) -> list[dict]:
    checks = [_cut_regularity((g,), samples, rng)]

    idems = [C.form_cut(g, f) for f in C.idempotent_forms(g)]
    failures = []
    for _ in range(samples):
        a = S.random_cut(rng, g)
        hits = [j for j in idems if C.group_membership(g, a, j)]
        want = C.idempotent_cut(g, a)
        if hits != [want]:
            failures.append(f"{_literal(C.cut_to_json(a))}: memberships "
                            f"{_literal([C.cut_to_json(h) for h in hits])}, "
                            f"construction {_literal(C.cut_to_json(want))}")
    checks.append(_check("idempotent_uniqueness", samples, failures))

    failures = []
    for _ in range(samples):
        a = S.random_cut(rng, g)
        lvl = rng.randint(a.level, g.rank)
        over = C.t_closure_over(g, lvl, a)
        base = C.t_closure(g, a)
        if over != base:
            failures.append(f"{_literal(C.cut_to_json(a))} at level {lvl}: "
                            f"{_literal(C.cut_to_json(over))} vs {_literal(C.cut_to_json(base))}")
    checks.append(_check("overring_transfer", samples, failures))

    checks.append(_semigroup_cross_check(
        C.ValuationClassModel(g), lambda: [S.random_cut(rng, g) for _ in range(5)]))
    return checks


def _random_tuple(rng: random.Random, model: P.PrueferModel) -> P.IdealTuple:
    return P.IdealTuple(tuple(S.random_cut(rng, g) for g in model.valuations))


def _verify_pruefer(model: P.PrueferModel, samples: int, rng: random.Random) -> list[dict]:
    checks = [_cut_regularity(model.valuations, samples, rng)]

    forms = P.enumerate_idempotent_forms(model)
    failures = []
    for _ in range(samples):
        a = _random_tuple(rng, model)
        hits = [f for f in forms if P.group_membership(model, a, f)]
        if hits != [P.classify_idempotent(model, a)]:
            failures.append(f"membership not unique at {_literal(P.tuple_to_json(a))}")
    checks.append(_check("idempotent_uniqueness", samples, failures))

    failures = []
    total = 0
    for form in sorted(forms, key=_form_order):
        rep = P.verify_exact_sequence(model, form, samples, rng)
        total += samples
        failures.extend(f"{format_form(form)}: {msg}" for msg in rep.failures)
    checks.append(_check("exact_sequence", total, failures))

    checks.append(_semigroup_cross_check(
        P.PrueferClassModel(model), lambda: [_random_tuple(rng, model) for _ in range(4)]))
    return checks


def _verify_polyext(model: X.PolyExtModel, samples: int, rng: random.Random) -> list[dict]:
    g = model.base
    checks = [_cut_regularity((g,), samples, rng)]

    forms = X.decompose(model)
    failures = []
    for _ in range(samples):
        s = X.extended_class(model, S.random_cut(rng, g))
        if X.classify(model, s) not in forms:
            failures.append(f"classification of {_literal(X.sym_to_json(s))} "
                            "missing from decomposition")
    checks.append(_check("classification_consistency", samples, failures))

    detector_ok = (not X.t_idempotent_primes(model)) == is_strongly_discrete(g)
    checks.append(_check("strongly_discrete_detector", 1,
                         [] if detector_ok else ["detector disagrees with component density"]))

    checks.append(_semigroup_cross_check(
        X.PolyClassModel(g), lambda: [S.random_cut(rng, g) for _ in range(5)]))
    return checks


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
    if kind == "valuation":
        checks = _verify_valuation(model, samples, rng)
    elif kind == "pruefer_fc":
        checks = _verify_pruefer(model, samples, rng)
    else:
        checks = _verify_polyext(model, samples, rng)
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
    lines = [f"model: {json.dumps(report['model'], sort_keys=True)}"]
    prov = report["provenance"]
    lines.append(f"seed: {prov['seed']}  samples: {prov['samples']}")
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
    try:
        for line in lines:
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
    except (C.InternalInconsistencyError, C.NotIdempotentError, C.NotInGroupError) as e:
        # Past parsing, a non-idempotent J or a class outside its group can
        # only come from wrong arithmetic: a bug, like a failed guard.
        print(f"error: internal inconsistency: {e}; replay with: {_replay(args)}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
