"""The samplers' draws, pinned cut for cut, and the lifetime of the cuts
they keep.

`verify`'s reports are functions of its seed, so a change to how the
samplers compute a draw must leave every drawn cut and the generator's
state after each draw as they are.  The reference below draws as the
samplers were first written: a `Fraction` per coordinate from `randint`
over the component's denominators, then `normalize`.  The groups are the
benchmark's, the kill matrix's and a Z[1/5, 1/7], whose least prime of 5
leaves it denominators 1 and 2.

Each generator keeps the cuts it has drawn; `verify` makes one generator
per command, so nothing drawn outlives the command.
"""

import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

from tclass import CLOSED, OPEN, Cut, Q, ValueGroup, Z, Zloc
from conftest import assert_coordinate_types, exact_sample
from tclass import boxes, checks, cli, polyext, sampling, semigroups
from tclass import groups as G
from tclass import cuts as C
from tclass import pruefer as P
from tclass.groups import DISCRETE, RATIONALS, is_member
from tclass.sampling import random_cut

ZHALF, ZTHIRD = Zloc(2), Zloc(3)
GROUPS = {
    "Z": (Z,),
    "Z[1/2]": (ZHALF,),
    "Z[1/3]": (ZTHIRD,),
    "Q": (Q,),
    "Z,Z": (Z, Z),
    "Z,Q": (Z, Q),
    "Z,Z[1/2]": (Z, ZHALF),
    "Z,Z[1/3]": (Z, ZTHIRD),
    "Q,Z,Z[1/2]": (Q, Z, ZHALF),
    "Z,Z[1/2],Q": (Z, ZHALF, Q),
    "Z[1/5,1/7]": (Zloc(5, 7),),
}
MODELS = {
    "Z[1/2]|Z[1/3]": ("Z[1/2]", "Z[1/3]"),
    "Z,Z[1/2]|Q": ("Z,Z[1/2]", "Q"),
    "Z|Z[1/3]|Q": ("Z", "Z[1/3]", "Q"),
    "Z[1/2]|Z,Q|Z[1/3]": ("Z[1/2]", "Z,Q", "Z[1/3]"),
    "Q|Z,Z[1/2]|Z": ("Q", "Z,Z[1/2]", "Z"),
    "Z[1/2]|Z": ("Z[1/2]", "Z"),
    "Z|Z,Q": ("Z", "Z,Q"),
    "Z[1/5,1/7]|Z,Q": ("Z[1/5,1/7]", "Z,Q"),
}
SEEDS = (1, 2, 7)
SPAN = 2


def ref_dens(comp) -> tuple:
    if comp.kind == DISCRETE:
        return (1,)
    if comp.kind == RATIONALS:
        return (1, 2, 3, 4)
    return {2: (1, 2, 3, 4), 3: (1, 2, 3)}.get(min(comp.primes), (1, 2))


def ref_rational(rng, comp) -> Fraction:
    d = rng.choice(ref_dens(comp))
    return Fraction(rng.randint(-SPAN * d, SPAN * d), d)


def ref_member(rng, comp) -> Fraction:
    d = rng.choice(tuple(d for d in ref_dens(comp) if is_member(comp, Fraction(1, d))))
    return Fraction(rng.randint(-SPAN * d, SPAN * d), d)


def ref_random_cut(rng, g) -> Cut:
    level = rng.randint(1, g.rank)
    boundary = [ref_member(rng, g.components[k]) for k in range(level - 1)]
    boundary.append(ref_rational(rng, g.components[level - 1]))
    side = rng.choice((CLOSED, OPEN))
    return C.normalize(g, Cut(level, tuple(boundary), side))


def ref_group_member(rng, model, form) -> P.IdealTuple:
    cuts = []
    for i, (g, lvl) in enumerate(zip(model.valuations, form.overring.levels)):
        boundary = [ref_member(rng, g.components[k]) for k in range(lvl - 1)]
        if i in form.open_components:
            top, side = ref_rational, OPEN
        else:
            top, side = ref_member, CLOSED
        boundary.append(top(rng, g.components[lvl - 1]))
        cuts.append(Cut(lvl, tuple(boundary), side))
    return P.IdealTuple(tuple(cuts))


def ref_target(rng, model, form, local) -> tuple:
    out = []
    for i in local:
        g, lvl = model.valuations[i], form.overring.levels[i]
        boundary = [Fraction(0)] * (lvl - 1) + [ref_rational(rng, g.components[lvl - 1])]
        out.append(C.class_of(g, Cut(lvl, tuple(boundary), OPEN)))
    return tuple(out)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_random_cut_draws_as_written(name, seed):
    g = ValueGroup(GROUPS[name])
    got_rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(600):
        got, want = random_cut(got_rng, g), ref_random_cut(ref_rng, g)
        assert got == want
        assert_coordinate_types([got])
    assert got_rng.getstate() == ref_rng.getstate()


def test_one_generator_draws_as_written_across_groups():
    # One long-lived generator over every group in turn, twice over, as the
    # test suites draw.
    groups = [ValueGroup(GROUPS[name]) for name in sorted(GROUPS)] * 2
    got_rng, ref_rng = random.Random(3), random.Random(3)
    for g in groups:
        got = [random_cut(got_rng, g) for _ in range(100)]
        assert got == [ref_random_cut(ref_rng, g) for _ in range(100)]
    assert got_rng.getstate() == ref_rng.getstate()


def test_one_generator_draws_as_written_over_groups_dropped_after_use():
    # Windows are found by the group's id.  Each group here is built for
    # its round and dropped after it, so a freed id would come back for the
    # next group, of another shape, if its window did not keep it alive.
    got_rng, ref_rng = random.Random(5), random.Random(5)
    for name in sorted(GROUPS) * 3:
        g = ValueGroup(GROUPS[name])
        got = [random_cut(got_rng, g) for _ in range(50)]
        assert got == [ref_random_cut(ref_rng, g) for _ in range(50)], name
        del g
    assert got_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_exact_sequence_draws_as_written(name, seed, monkeypatch):
    # The draws of each `exact_sequence` sample, in its order, at every form
    # of the model: its pair, then the target, whose preimage holds the
    # target's class reps at the open components and the idempotent
    # elsewhere.  The whole check, drawing the same, passes and leaves its
    # generator where the reference leaves its own; a form's trial projects
    # its idempotent, and each sample its pair, their product and the
    # preimage.
    model = P.PrueferModel(tuple(ValueGroup(GROUPS[v]) for v in MODELS[name]))
    forms = P.enumerate_idempotent_forms(model)
    got_rng, ref_rng = random.Random(seed), random.Random(seed)
    for form in forms:
        local = sorted(form.open_components)
        j = P.form_tuple(model, form)
        sample = exact_sample(model, form)
        for _ in range(40):
            a, b, _, lift = sample.draw(got_rng)
            for got in (a, b):
                assert got == ref_group_member(ref_rng, model, form)
                assert_coordinate_types(got.cuts)
            want = list(j.cuts)
            for r, i in zip(ref_target(ref_rng, model, form, local), local):
                want[i] = r.rep
            assert lift == P.IdealTuple(tuple(want))
    assert got_rng.getstate() == ref_rng.getstate()
    projected, psi_localize = [], P.psi_localize
    monkeypatch.setattr(P, "psi_localize", lambda m, a, form: (
        projected.append((a, form)) or psi_localize(m, a, form)))
    whole_rng = random.Random(seed)
    assert checks.exact_sequence(model, cli.KINDS["pruefer_fc"], 40, whole_rng)["passed"]
    assert whole_rng.getstate() == ref_rng.getstate()
    assert [call[1] for call in projected] == [f for f in forms for _ in range(1 + 4 * 40)]
    assert [projected[i * (1 + 4 * 40)][0] for i in range(len(forms))] == [
        P.form_tuple(model, f) for f in forms]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_below_draws_as_randint(seed):
    # `_below` is `Random._randbelow`: one pick of `choice` over n items for
    # n = 1..64, and `randint` over the levels `overring_transfer` draws
    # from (its cut's level up to the rank), with the generator's state
    # equal after each draw.
    ours, twin = random.Random(seed), random.Random(seed)
    for n in range(1, 65):
        seq = tuple(f"item {i}" for i in range(n))
        for _ in range(4):
            assert seq[sampling._below(ours.getrandbits, n)] == twin.choice(seq)
            assert ours.getstate() == twin.getstate()
    for rank in range(1, 5):
        for level in range(1, rank + 1):
            for _ in range(4):
                got = level + sampling._below(ours.getrandbits, rank - level + 1)
                assert got == twin.randint(level, rank)
                assert ours.getstate() == twin.getstate()


def test_below_refuses_an_empty_range():
    # `randint(a, a - 1)` raises; `_randbelow(0)` would spin forever on
    # `getrandbits(0) == 0`, so `_below` refuses before its first draw.
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError):
        sampling._below(rng.getrandbits, 0)
    assert rng.getstate() == state
    with pytest.raises(ValueError):
        sampling._below(rng.getrandbits, -1)


GUARD_SPECS = (
    {"kind": "valuation", "group": ["Q", "Z", {"Zloc": [2]}]},
    {"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z", "Q"]]},
    {"kind": "poly_ext", "base": ["Z", "Q"]},
)


@pytest.mark.parametrize("spec", GUARD_SPECS, ids=lambda spec: spec["kind"])
def test_no_draw_goes_through_random_methods(monkeypatch, spec):
    # Every draw of `verify` reads `getrandbits` itself, by `_randbelow`'s
    # rule: the cuts through `sampling._draw`'s plans, `overring_transfer`'s
    # level through `sampling._below`.  With `Random`'s Python-level pickers
    # made to raise, a draw that still went through one would fail its
    # trial and change the report.
    kind, model = cli.load_model(json.dumps(spec))
    want = cli.cmd_verify(kind, model, 20, 1, None)

    def refused(*args, **kwargs):
        raise AssertionError("a draw went through random.Random")
    for name in ("choice", "randint", "randrange", "_randbelow"):
        monkeypatch.setattr(random.Random, name, refused)
    assert cli.cmd_verify(kind, model, 20, 1, None) == want
    assert want["passed"]


# A rank-3 window no other test here draws from, so each command draws
# cuts that no earlier one drew.
LIFETIME_SPEC = {"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Q", "Q", {"Zloc": [3]}]]}


def test_drawn_cuts_die_with_their_command(monkeypatch):
    # The ids of the cuts `verify` draws, through `random_cut` and the
    # exact sequence's group members and targets alike, while they live.
    # A `Cut` is a tuple and takes no weak reference, so a finaliser
    # planted on the class drops each id as its cut dies.
    live, names, count = set(), set(), {"drawn": 0, "died": 0}

    def recorded(name, fn):
        def wrapper(*args):
            c = fn(*args)
            if id(c) not in live:
                live.add(id(c))
                count["drawn"] += 1
            names.add(name)
            return c
        monkeypatch.setattr(sampling, name, wrapper)

    def finalised(c):
        if id(c) in live:
            live.remove(id(c))
            count["died"] += 1
    for name in ("random_cut", "group_cut", "target_cut"):
        recorded(name, getattr(sampling, name))
    monkeypatch.setattr(C.Cut, "__del__", finalised, raising=False)
    kind, model = cli.load_model(json.dumps(LIFETIME_SPEC))
    assert cli.cmd_verify(kind, model, 5, 1, None)["passed"]
    gc.collect()
    assert names == {"random_cut", "group_cut", "target_cut"}
    assert live == set() and count["died"] == count["drawn"] > 0, count


def module_containers() -> dict:
    """The size of every module-level container and cache of the package."""
    sizes = {}
    for module in (G, C, sampling, P, polyext, boxes, semigroups, checks, cli):
        for name, obj in vars(module).items():
            key = f"{module.__name__}.{name}"
            if name.startswith("__"):
                continue
            if hasattr(obj, "cache_info"):
                sizes[key] = obj.cache_info().currsize
            elif isinstance(obj, (dict, list, set, weakref.WeakKeyDictionary)):
                sizes[key] = len(obj)
    return sizes


def test_a_second_command_grows_no_module_container():
    # The first command fills the process-wide caches of the spec's forms;
    # a second one, drawing other cuts, must leave nothing more alive.
    kind, model = cli.load_model(json.dumps(LIFETIME_SPEC))
    cli.cmd_verify(kind, model, 5, 1, None)
    gc.collect()
    first, alive = module_containers(), len(gc.get_objects())
    cli.cmd_verify(kind, model, 5, 2, None)
    gc.collect()
    assert module_containers() == first
    assert first["tclass.sampling._DRAWN"] == 0
    assert len(gc.get_objects()) <= alive
