"""The benchmark's workloads: seeded inputs, the timed unit calls and the
correctness gate each output must pass.

A workload is an endless sequence of rounds.  Round r is built from a
`random.Random` seeded with (workload, seed, r) alone, so the same seed gives
the same inputs on any commit and in any process.  A round is a list of
`Call`s.  Each call runs one public entry point of the package (the part
that is timed), names how many units it completes, and carries a gate that
checks its output outside the timed region.

Inputs are generated here, not by `tclass.sampling`, so a change to the
package's own samplers cannot change what the benchmark feeds it.  Every
call looks its entry point up as a module attribute when it runs, so the
traced run sees the wrapped functions.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from tclass import boxes as B
from tclass import cli
from tclass import cuts as C
from tclass import pruefer as P
from tclass import semigroups as SG
from tclass.groups import DISCRETE, RATIONALS, ValueGroup, describe_component, is_member


@dataclass
class Call:
    label: str
    units: int
    run: Callable[[], object]
    gate: Callable[[object], list]


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[str, ...]
    # Rounds whose reports make up the digest, and the fixed work of the
    # traced run.
    digest_rounds: int
    # Every untraced run completes at least this many rounds (and at least
    # digest_rounds), however slow the host: the costliest call of a round
    # then occurs more often than the ten calls the tail percentile leaves
    # beyond it, so the tail always lands among those calls.
    min_rounds: int
    make_round: Callable[[list, random.Random], list]
    # The tail latency is the highest percentile with ten calls beyond it,
    # capped here.  Sub-millisecond calls get p90: past it their times are
    # set by host interruptions, not by the package.  With the rounds
    # interleaved in one process, four seeds of classify_stream gave the
    # same p99 within 2.5 %, yet p99 over eleven separate runs spread by
    # 31 % of its median, and p90 by 3.5 %.
    tail_cap: float = 99


def _spec(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _name(g: ValueGroup) -> str:
    return ",".join(describe_component(c) for c in g.components)


ZHALF = {"Zloc": [2]}
ZTHIRD = {"Zloc": [3]}


# === seeded literals ===

def _dens(comp) -> tuple[int, ...]:
    # Denominators the box oracle's lattice budget affords (as in the
    # package's samplers): boundary denominators up to 4, capped by the
    # localized prime.
    if comp.kind == DISCRETE:
        return (1,)
    if comp.kind == RATIONALS:
        return (1, 2, 3, 4)
    p = min(comp.primes)
    return (1, 2, 3, 4) if p == 2 else (1, 2, 3) if p == 3 else (1, 2)


def _member(rng: random.Random, comp) -> Fraction:
    d = rng.choice([d for d in _dens(comp) if is_member(comp, Fraction(1, d))])
    return Fraction(rng.randint(-2 * d, 2 * d), d)


def canonical_cut(rng: random.Random, g: ValueGroup) -> C.Cut:
    """A canonical cut built directly: member coordinates below the top; at
    the top a discrete component takes an integer and side closed, a dense
    one any small rational, open when it is not a member."""
    level = rng.randint(1, g.rank)
    boundary = [_member(rng, g.components[k]) for k in range(level - 1)]
    comp = g.components[level - 1]
    d = rng.choice(_dens(comp))
    top = Fraction(rng.randint(-2 * d, 2 * d), d)
    boundary.append(top)
    if not comp.dense:
        side = C.CLOSED
    elif is_member(comp, top):
        side = rng.choice((C.CLOSED, C.OPEN))
    else:
        side = C.OPEN
    return C.Cut(level, tuple(boundary), side)


def raw_cut_literal(rng: random.Random, g: ValueGroup) -> dict:
    """A well-formed cut literal that need not be canonical, drawn like
    `sampling.random_raw_cut`, with fractions written unreduced."""
    level = rng.randint(1, g.rank)
    boundary = []
    for k in range(level):
        comp = g.components[k]
        d = rng.choice((1, 2, 3) if comp.kind == DISCRETE else _dens(comp))
        scale = rng.choice((1, 1, 2))
        boundary.append(f"{rng.randint(-2 * d, 2 * d) * scale}/{d * scale}")
    return {"level": level, "boundary": boundary, "side": rng.choice((C.CLOSED, C.OPEN))}


def _parse_cut(obj) -> C.Cut:
    return C.Cut(obj["level"], tuple(Fraction(b) for b in obj["boundary"]), obj["side"])


# === verify workloads ===

def _form_count(model: P.PrueferModel) -> int:
    # Each component picks a level, and at a dense level also optionally
    # its idempotent maximal ideal.
    return math.prod(sum(1 + c.dense for c in g.components) for g in model.valuations)


def expected_checks(kind: str, model, samples: int) -> list:
    """(name, instances) of every check a passing `verify` report lists."""
    if kind == "valuation":
        return [("regularity", samples), ("idempotent_uniqueness", samples),
                ("overring_transfer", samples), ("semigroup_cross_check", 3)]
    if kind == "pruefer_fc":
        return [("regularity", samples), ("idempotent_uniqueness", samples),
                ("exact_sequence", samples * _form_count(model)),
                ("semigroup_cross_check", 3)]
    return [("regularity", samples), ("classification_consistency", samples),
            ("strongly_discrete_detector", 1), ("semigroup_cross_check", 3)]


def _verify_gate(want: list) -> Callable[[dict], list]:
    def gate(report: dict) -> list:
        problems = []
        if not report.get("passed"):
            problems.append("report did not pass")
        got = [(c["name"], c["instances"]) for c in report.get("checks", [])]
        if got != want:
            problems.append(f"checks {got}, expected {want}")
        return problems
    return gate


def _verify_round(matrix: list) -> Callable[[list, random.Random], list]:
    """One `cmd_verify` per (spec, samples) entry, each with a fresh seed."""
    def make(models: list, rng: random.Random) -> list:
        calls = []
        for (kind, model), (_, samples, label) in zip(models, matrix):
            seed = rng.randrange(1 << 30)
            want = expected_checks(kind, model, samples)
            calls.append(Call(
                label=label,
                units=sum(n for _, n in want),
                run=lambda kind=kind, model=model, samples=samples, seed=seed:
                    cli.cmd_verify(kind, model, samples, seed, None),
                gate=_verify_gate(want),
            ))
        return calls
    return make


def _pruefer(*valuations) -> dict:
    return {"kind": "pruefer_fc", "valuations": list(valuations)}


# (spec, samples, label).  A round runs every entry once.  The entries
# have an odd count and distinct costs per call, so the median call falls in
# the middle of one entry's cluster and the tail in the costliest entry's,
# never on the edge between two clusters.  Per call, in order: about 70,
# 110, 140, 190 and 330 ms on a 2-vCPU x86-64 VM; the median and the
# costliest entries have the narrowest spread over seeds.
PRUEFER_MATRIX = [
    (_pruefer([ZHALF], [ZTHIRD]), 3, "k2:Z[1/2]|Z[1/3]"),
    (_pruefer(["Z", ZHALF], ["Q"]), 4, "k2:Z,Z[1/2]|Q"),
    (_pruefer(["Z"], [ZTHIRD], ["Q"]), 6, "k3:Z|Z[1/3]|Q"),
    (_pruefer([ZHALF], ["Z", "Q"], [ZTHIRD]), 2, "k3:Z[1/2]|Z,Q|Z[1/3]"),
    (_pruefer(["Q"], ["Z", ZHALF], ["Z"]), 10, "k3:Q|Z,Z[1/2]|Z"),
]

# As above; about 55, 65, 80, 100, 160, 220 and 330 ms per call.
VALUATION_MATRIX = [
    ({"kind": "valuation", "group": ["Z"]}, 200, "valuation:Z"),
    ({"kind": "valuation", "group": [ZHALF]}, 200, "valuation:Z[1/2]"),
    ({"kind": "valuation", "group": ["Z", ZTHIRD]}, 200, "valuation:Z,Z[1/3]"),
    ({"kind": "valuation", "group": ["Q", "Z", ZHALF]}, 200, "valuation:Q,Z,Z[1/2]"),
    ({"kind": "poly_ext", "base": ["Z", "Q"]}, 200, "poly_ext:Z,Q"),
    ({"kind": "poly_ext", "base": [ZTHIRD]}, 200, "poly_ext:Z[1/3]"),
    ({"kind": "poly_ext", "base": ["Z", ZHALF, "Q"]}, 200, "poly_ext:Z,Z[1/2],Q"),
]


# === classify_stream ===

CLASSIFY_SPECS = [
    {"kind": "valuation", "group": ["Z", ZTHIRD]},
    _pruefer([ZHALF], ["Z", "Q"]),
    {"kind": "poly_ext", "base": ["Z", ZHALF]},
]
LITERALS_PER_SPEC = 10


def _noncanonical(g: ValueGroup, c: C.Cut) -> list:
    """A problem unless `c` is in canonical form: member coordinates below
    the top, a member boundary when closed, a dense top component when open."""
    *below, top = c.boundary
    comps = g.components[:c.level]
    if (c.level <= g.rank
            and all(is_member(comp, q) for comp, q in zip(comps, below))
            and (is_member(comps[-1], top) if c.side == C.CLOSED else comps[-1].dense)):
        return []
    return [f"{C.format_cut(c)} is not canonical"]


def _same_set(g: ValueGroup, raw: C.Cut, canon: C.Cut, seed: int) -> list:
    return B.check_same_set(g, raw, canon, random.Random(seed)) + _noncanonical(g, canon)


def _classify_gate(kind: str, model, literal: dict, seed: int) -> Callable[[dict], list]:
    """The canonical ideal is canonical and denotes the raw literal's set
    (box oracle), and the idempotent form is what `classify_idempotent`
    gives the canonical cut.  For `poly_ext` the report names the
    coefficient class, so the raw literal's canonical cut must differ from
    it by a group element."""
    def gate(report: dict) -> list:
        problems = []
        if kind == "valuation":
            canon = _parse_cut(report["ideal"])
            problems += _same_set(model, _parse_cut(literal), canon, seed)
            form = cli.form_json(C.classify_idempotent(model, canon))
        elif kind == "pruefer_fc":
            canon = P.IdealTuple(tuple(_parse_cut(c) for c in report["ideal"]["cuts"]))
            for g, raw, c in zip(model.valuations, literal["cuts"], canon.cuts):
                problems += _same_set(g, _parse_cut(raw), c, seed)
            form = cli.form_json(P.classify_idempotent(model, canon))
        else:
            g = model.base
            rep = _parse_cut(report["ideal"]["coeff"])
            raw = _parse_cut(literal["coeff"])
            canon = C.normalize(g, raw)
            problems += _same_set(g, raw, canon, seed) + _noncanonical(g, rep)
            if (canon.level, canon.side) != (rep.level, rep.side):
                problems.append(f"class representative {rep} has another shape than {canon}")
            else:
                shift = [x - y for x, y in zip(canon.boundary, rep.boundary)]
                if not all(is_member(c, q) for c, q in zip(g.components, shift)):
                    problems.append(f"{rep} is not a principal translate of {canon}")
            f = C.classify_idempotent(g, rep)
            variant = "idempotent_max_class" if f.open_components else "overring"
            form = {"variant": variant, "level": f.overring.levels[0]}
        if report["idempotent_form"] != form:
            problems.append(f"form {report['idempotent_form']}, classify_idempotent gives {form}")
        return problems
    return gate


def _classify_round(models: list, rng: random.Random) -> list:
    calls = []
    for _ in range(LITERALS_PER_SPEC):
        for kind, model in models:
            if kind == "valuation":
                literal = raw_cut_literal(rng, model)
            elif kind == "pruefer_fc":
                literal = {"cuts": [raw_cut_literal(rng, g) for g in model.valuations]}
            else:
                literal = {"coeff": raw_cut_literal(rng, model.base)}
            text = json.dumps(literal)
            calls.append(Call(
                label=kind,
                units=1,
                run=lambda kind=kind, model=model, text=text:
                    cli.cmd_classify(kind, model, text),
                gate=_classify_gate(kind, model, literal, rng.randrange(1 << 30)),
            ))
    return calls


# === oracle_audit ===

BOX_SPECS = [
    {"kind": "valuation", "group": ["Z", "Q"]},
    {"kind": "valuation", "group": [ZHALF]},
    {"kind": "valuation", "group": ["Z", ZTHIRD]},
    {"kind": "valuation", "group": ["Z", "Z"]},
]
# One closure and 60 box checks a round: closures stay above 1 % of the
# calls, so the tail percentile always lands among the closures and the
# median among the box checks.
BOX_PAIRS_PER_ROUND = 60

# A closure over Z[1/2], seeded with the ring class and open classes at
# boundaries n/q for q = 3, 5, 7 (coprime to 2).  The open classes generate
# the cyclic subgroup of order lcm(q) = 105 of Q/Z[1/2], so the closure
# saturates at exactly 1 + 105 = 106 elements whatever the numerators.
CLOSURE_SPEC = {"kind": "valuation", "group": [ZHALF]}
CLOSURE_DENOMINATORS = (3, 5, 7)
CLOSURE_BUDGET = 256


def _box_gate(out: dict) -> list:
    return out["mul"]["mismatches"] + out["quotient"]["mismatches"]


def _box_check(g: ValueGroup, a: C.Cut, b: C.Cut, seed: int) -> dict:
    """One box check: the product and the residual of a cut pair, each
    against the box oracle."""
    rng = random.Random(seed)
    out = {"group": cli.value_group_to_json(g), "a": C.cut_to_json(a), "b": C.cut_to_json(b)}
    for op, arith, check in (("mul", C.mul, B.check_mul),
                             ("quotient", C.quotient, B.check_quotient)):
        predicted = arith(g, a, b)
        out[op] = {"predicted": C.cut_to_json(predicted),
                   "mismatches": check(g, a, b, predicted, rng)}
    return out


def _closure(g: ValueGroup, seed_cuts: tuple) -> dict:
    vm = C.ValuationClassModel(g)
    closure = SG.sample_closure(vm, [vm.class_of(c) for c in seed_cuts], CLOSURE_BUDGET)
    rep = SG.cross_check(closure, vm)
    return {
        "group": cli.value_group_to_json(g),
        "seeds": [C.cut_to_json(c) for c in seed_cuts],
        "size": len(closure.dictionary),
        "saturated": closure.saturated,
        "cross_check_passed": rep.passed,
        "mismatches": rep.mismatches,
    }


def _closure_gate(expected_size: int) -> Callable[[dict], list]:
    def gate(out: dict) -> list:
        problems = list(out["mismatches"])
        if not (out["saturated"] and out["cross_check_passed"]):
            problems.append("closure did not saturate or cross_check failed")
        if out["size"] != expected_size:
            problems.append(f"closure has {out['size']} elements, expected {expected_size}")
        return problems
    return gate


def _oracle_round(models: list, rng: random.Random) -> list:
    *box_groups, closure_group = [g for _, g in models]
    seeds = [C.Cut(1, (Fraction(rng.randint(1, q - 1), q),), C.OPEN)
             for q in CLOSURE_DENOMINATORS]
    seeds.append(C.Cut(1, (Fraction(0),), C.CLOSED))
    calls = [Call(
        label=f"closure:{_name(closure_group)}",
        units=1,
        run=lambda: _closure(closure_group, tuple(seeds)),
        gate=_closure_gate(1 + math.lcm(*CLOSURE_DENOMINATORS)),
    )]
    for i in range(BOX_PAIRS_PER_ROUND):
        g = box_groups[i % len(box_groups)]
        a, b = canonical_cut(rng, g), canonical_cut(rng, g)
        seed = rng.randrange(1 << 30)
        calls.append(Call(
            label=f"box:{_name(g)}",
            units=1,
            run=lambda g=g, a=a, b=b, seed=seed: _box_check(g, a, b, seed),
            gate=_box_gate,
        ))
    return calls


WORKLOADS = {
    w.name: w for w in (
        Workload("verify_pruefer", tuple(_spec(s) for s, _, _ in PRUEFER_MATRIX),
                 digest_rounds=3, min_rounds=12, make_round=_verify_round(PRUEFER_MATRIX)),
        Workload("verify_valuation", tuple(_spec(s) for s, _, _ in VALUATION_MATRIX),
                 digest_rounds=3, min_rounds=12, make_round=_verify_round(VALUATION_MATRIX)),
        Workload("classify_stream", tuple(_spec(s) for s in CLASSIFY_SPECS),
                 digest_rounds=40, min_rounds=40, make_round=_classify_round, tail_cap=90),
        Workload("oracle_audit", tuple(_spec(s) for s in BOX_SPECS + [CLOSURE_SPEC]),
                 digest_rounds=2, min_rounds=12, make_round=_oracle_round),
    )
}
