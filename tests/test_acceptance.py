"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with plain pytest; the summary lines print straight to the terminal
so the gate is readable even inside a larger suite.
"""

import json
import random
import time
from fractions import Fraction as F

from tclass import CLOSED, OPEN, Cut, Q, ValueGroup, Z, Zloc
from tclass import boxes
from tclass import cuts as C
from tclass import polyext as X
from tclass import pruefer as P
from tclass import semigroups as SG
from tclass.cli import cmd_decompose, cmd_verify
from tclass.cuts import ValuationClassModel
from tclass.pruefer import PrueferClassModel
from tclass.sampling import random_cut

FIVE_GROUPS = (
    ValueGroup((Z,)),
    ValueGroup((Z, Z)),
    ValueGroup((Z, Q)),
    ValueGroup((Zloc(2),)),
    ValueGroup((Z, Zloc(3))),
)


def announce(capsys, num, label, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" (budget {budget:.0f}s)" if budget else "")
    with capsys.disabled():
        print(f"\nacceptance {num} [{label}]: {status} in {timing}")


def finish(capsys, num, label, failures, elapsed, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    announce(capsys, num, label, ok, elapsed, budget)
    assert not failures, failures[:10]
    if budget is not None:
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_strongly_discrete_towers(capsys):
    failures = []
    t0 = time.perf_counter()
    for n in (1, 2, 3, 5):
        dec = cmd_decompose("poly_ext", X.PolyExtModel(ValueGroup((Z,) * n)))["idempotents"]
        if len(dec) != n:
            failures.append(f"n={n}: {len(dec)} idempotents")
        if not all(e["idempotent"]["variant"] == "overring" for e in dec):
            failures.append(f"n={n}: non-overring idempotent in a discrete tower")
        if not all(e["group_trivial"] for e in dec):
            failures.append(f"n={n}: nontrivial constituent group")
    finish(capsys, 1, "discrete towers split into n overrings",
           failures, time.perf_counter() - t0, budget=1.0)


def test_criterion_2_dense_rank_one(capsys):
    failures = []
    t0 = time.perf_counter()
    for comp in (Q, Zloc(2)):
        dec = cmd_decompose("poly_ext", X.PolyExtModel(ValueGroup((comp,))))["idempotents"]
        kinds = sorted(e["idempotent"]["variant"] for e in dec)
        if kinds != ["idempotent_max_class", "overring"]:
            failures.append(f"{comp}: forms {kinds}")
            continue
        by_kind = {e["idempotent"]["variant"]: e["group_trivial"] for e in dec}
        if not by_kind["overring"]:
            failures.append(f"{comp}: overring group not trivial")
        if by_kind["idempotent_max_class"]:
            failures.append(f"{comp}: max-class group reported trivial")

    # group law in the representable part over the dyadics
    m = X.PolyExtModel(ValueGroup((Zloc(2),)))
    pm = ValuationClassModel(m.base)
    third = C.class_of(m.base, Cut(1, (F(1, 3),), OPEN))
    two_thirds = C.class_of(m.base, Cut(1, (F(2, 3),), OPEN))
    identity = C.class_of(m.base, Cut(1, (F(0),), OPEN))
    if pm.mul(third, two_thirds) != identity:
        failures.append("1/3 * 2/3 missed the identity class")
    if pm.mul(identity, identity) != identity:
        failures.append("identity class not idempotent")
    if pm.idempotent_of(third) != identity:
        failures.append("1/3 class not attached to the max-class idempotent")
    finish(capsys, 2, "dense rank-1 base gives two forms with the group law",
           failures, time.perf_counter() - t0, budget=1.0)


def test_criterion_3_regularity_suite(capsys):
    failures = []
    rng = random.Random(3)
    t0 = time.perf_counter()
    for g in FIVE_GROUPS:
        for _ in range(1000):
            a = random_cut(rng, g)
            sq = C.mul(g, a, a)
            recon = C.t_closure(g, C.mul(g, sq, C.quotient(g, a, sq)))
            if recon != a:
                failures.append(f"{C.format_cut(a)} over {g}")
    finish(capsys, 3, "5000 cuts regular", failures,
           time.perf_counter() - t0, budget=10.0)


def test_criterion_4_box_oracle_equivalence(capsys):
    failures = []
    rng = random.Random(4)
    t0 = time.perf_counter()
    for g in FIVE_GROUPS:
        for _ in range(500):
            a = random_cut(rng, g)
            b = random_cut(rng, g)
            failures.extend(boxes.check_mul(g, a, b, C.mul(g, a, b), rng))
            failures.extend(boxes.check_quotient(g, a, b, C.quotient(g, a, b), rng))
    finish(capsys, 4, "2500 mul/quotient pairs match the box oracle",
           failures, time.perf_counter() - t0, budget=30.0)


def test_criterion_5_idempotent_uniqueness(capsys):
    failures = []
    rng = random.Random(5)
    t0 = time.perf_counter()

    # 60 cuts per value group: 300 valuation instances
    for g in FIVE_GROUPS:
        idems = C.idempotents(g)
        for _ in range(60):
            a = random_cut(rng, g)
            hits = C.group_membership(g, a, idems)
            if len(hits) != 1:
                failures.append(f"{C.format_cut(a)}: {len(hits)} admitting idempotents")
                continue
            if C.form_cut(g, hits[0]) != C.idempotent_cut(g, a):
                failures.append(f"{C.format_cut(a)}: J differs from (I(T:I))_t")

    # 100 tuples per model: 200 finite-character instances
    models = (
        P.PrueferModel((ValueGroup((Zloc(2),)), ValueGroup((Z,)))),
        P.PrueferModel((ValueGroup((Q,)), ValueGroup((Z, Zloc(3))))),
    )
    for m in models:
        idems = [C.idempotents(g) for g in m.valuations]
        for _ in range(100):
            a = P.IdealTuple(tuple(random_cut(rng, g) for g in m.valuations))
            hits = P.group_membership(m, a, idems)
            if len(hits) != 1:
                failures.append(f"{a}: {len(hits)} admitting forms")
                continue
            t = P.IdealTuple(tuple(C.stabilizer(g, c) for g, c in zip(m.valuations, a.cuts)))
            j = P.t_closure(m, P.mul(m, a, P.quotient(m, t, a)))
            if P.form_tuple(m, hits[0]) != j:
                failures.append(f"{a}: form tuple differs from (I(T:I))_t")
    finish(capsys, 5, "500 samples each admit exactly one idempotent",
           failures, time.perf_counter() - t0)


def test_criterion_6_exact_sequence(capsys):
    failures = []
    rng = random.Random(6)
    t0 = time.perf_counter()
    models = (
        P.PrueferModel((ValueGroup((Zloc(2),)),)),
        P.PrueferModel((ValueGroup((Zloc(2),)), ValueGroup((Z,)))),
        P.PrueferModel((ValueGroup((Q,)), ValueGroup((Z,)),
                        ValueGroup((Z, Zloc(3))))),
    )
    for m in models:
        for f in P.enumerate_idempotent_forms(m):
            failures.extend(P.verify_exact_sequence(m, f, 200, rng))
            # Cl(T) is trivial: a principal multiple of T is shown principal
            # by the shifts that realize it
            t = P.ring_tuple(m, f.overring)
            a = P.IdealTuple(tuple(C.translate(g, c, [F(1)] * g.rank)
                                   for g, c in zip(m.valuations, t.cuts)))
            shifts = P.show_principal(m, f.overring, a)
            if any(C.translate(g, r, x) != c
                   for g, r, x, c in zip(m.valuations, t.cuts, shifts, a.cuts)):
                failures.append(f"{f}: certificate does not realize {a}")
    finish(capsys, 6, "exact sequences hold at 200 samples per form",
           failures, time.perf_counter() - t0, budget=30.0)


def test_criterion_7_overring_closure_transfer(capsys):
    failures = []
    rng = random.Random(7)
    t0 = time.perf_counter()
    for g in FIVE_GROUPS:
        for _ in range(60):
            a = random_cut(rng, g)
            level = C.stabilizer(g, a).level
            if C.t_closure_over(g, level, a) != C.t_closure(g, a):
                failures.append(f"{C.format_cut(a)} over {g}")
    finish(capsys, 7, "300 closures agree over the base and its stabilizer",
           failures, time.perf_counter() - t0)


def test_criterion_8_semigroup_cross_check(capsys):
    failures = []
    t0 = time.perf_counter()

    dy = ValuationClassModel(ValueGroup((Zloc(2),)))
    dd = PrueferClassModel(P.PrueferModel((ValueGroup((Zloc(2),)),
                                           ValueGroup((Zloc(3),)))), P.tuple_to_json)
    pxm = X.PolyExtModel(ValueGroup((Zloc(2),)))
    px = ValuationClassModel(pxm.base)

    def vc(num, den, side=OPEN):
        return dy.class_of(Cut(1, (F(num, den),), side))

    def pc(c1, c2):
        return dd.class_of(P.IdealTuple((c1, c2)))

    def xc(num, den):
        return C.class_of(pxm.base, Cut(1, (F(num, den),), OPEN))

    m_cut = Cut(1, (F(0),), OPEN)
    seed_sets = [
        (dy, [vc(1, 3), vc(0, 1)]),
        (dy, [vc(1, 5)]),
        (dy, [vc(0, 1, CLOSED)]),
        (dd, [pc(Cut(1, (F(1, 3),), OPEN), Cut(1, (F(0),), CLOSED))]),
        (dd, [pc(Cut(1, (F(1, 3),), OPEN), Cut(1, (F(1, 4),), OPEN))]),
        (dd, [pc(m_cut, m_cut), pc(Cut(1, (F(0),), CLOSED), Cut(1, (F(0),), CLOSED))]),
        (px, [xc(1, 3)]),
        (px, [xc(1, 3), xc(2, 3)]),
        (px, [xc(1, 5), xc(1, 3)]),
    ]
    for model, seeds in seed_sets:
        cl = SG.sample_closure(model, seeds, 256)
        if not cl.saturated:
            failures.append(f"{seeds}: closure hit the budget")
            continue
        rep = SG.cross_check(cl, model)
        if not rep.passed:
            failures.extend(rep.mismatches)
    finish(capsys, 8, "nine sampled closures saturate and cross-check",
           failures, time.perf_counter() - t0)


def test_criterion_9_deterministic_reports(capsys):
    failures = []
    t0 = time.perf_counter()
    models = (
        ("valuation", ValueGroup((Z, Q))),
        ("pruefer_fc", P.PrueferModel((ValueGroup((Q,)), ValueGroup((Z,))))),
        ("poly_ext", X.PolyExtModel(ValueGroup((Zloc(2),)))),
    )
    for kind, model in models:
        runs = [
            json.dumps(cmd_verify(kind, model, 30, 11, None),
                       sort_keys=True, indent=2).encode()
            for _ in range(2)
        ]
        if runs[0] != runs[1]:
            failures.append(f"{kind}: reports differ between runs")
        report = json.loads(runs[0])
        if not report["passed"]:
            failures.append(f"{kind}: verification failed")
    finish(capsys, 9, "verification reports are byte-identical per seed",
           failures, time.perf_counter() - t0)
