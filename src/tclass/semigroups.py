"""Brute-force finite commutative semigroup analysis.

This is the package's second opinion: Cayley tables built by multiplying
sampled ideal classes, analyzed purely by the definitions (idempotents,
Clifford regularity, constituent groups) with exhaustive search.  Nothing
here imports the exact models; they are reached only through a duck-typed
handle exposing class_of/mul/idempotent_of/describe.  The table comes from
`mul` and the model's side of every comparison from `idempotent_of`, the
model's own classification, so the two sides can disagree and the
disagreement means a bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MalformedTableError(ValueError):
    pass


class NotIdempotentError(ValueError):
    pass


class FiniteCommSemigroup:
    """An m x m multiplication table over indices 0..m-1.

    Commutativity and associativity are verified at construction; the
    associativity sweep is O(m^3) and refuses tables above `assoc_cap`
    rather than silently skip the check.
    """

    def __init__(self, table, assoc_cap: int = 512):
        table = tuple(tuple(row) for row in table)
        m = len(table)
        if m == 0:
            raise MalformedTableError("empty table")
        if m > assoc_cap:
            raise MalformedTableError(
                f"table of size {m} exceeds the verification cap {assoc_cap}; "
                "pass a larger assoc_cap to insist"
            )
        for row in table:
            if len(row) != m or any(not (0 <= x < m) for x in row):
                raise MalformedTableError("table is not square over its own indices")
        for i in range(m):
            for j in range(i + 1, m):
                if table[i][j] != table[j][i]:
                    raise MalformedTableError(f"not commutative at ({i}, {j})")
        for i in range(m):
            for j in range(m):
                ij = table[i][j]
                for k in range(m):
                    if table[ij][k] != table[i][table[j][k]]:
                        raise MalformedTableError(f"not associative at ({i}, {j}, {k})")
        self.table = table

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, i: int, j: int) -> int:
        return self.table[i][j]

    def __eq__(self, other):
        return isinstance(other, FiniteCommSemigroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteCommSemigroup(size={self.size})"


def idempotents(s: FiniteCommSemigroup) -> frozenset[int]:
    return frozenset(i for i in range(s.size) if s.op(i, i) == i)


def is_clifford(s: FiniteCommSemigroup) -> bool:
    """Every x regular: some a with x*x*a = x, searched exhaustively."""
    for x in range(s.size):
        xx = s.op(x, x)
        if all(s.op(xx, a) != x for a in range(s.size)):
            return False
    return True


@dataclass(frozen=True)
class ConstituentGroup:
    """The largest subgroup sitting at an idempotent: members are original
    semigroup indices, table is their own multiplication, identity is the
    position of the idempotent inside `members`."""

    members: tuple[int, ...]
    table: FiniteCommSemigroup
    identity: int


def constituent_group(s: FiniteCommSemigroup, e: int) -> ConstituentGroup:
    """G_e = {a*e | a*b*e = e for some b}, by definition, then the group
    axioms are verified on the extracted table."""
    if s.op(e, e) != e:
        raise NotIdempotentError(f"element {e} is not idempotent")
    members = []
    for a in range(s.size):
        if any(s.op(s.op(a, b), e) == e for b in range(s.size)):
            x = s.op(a, e)
            if x not in members:
                members.append(x)
    members.sort()
    pos = {x: i for i, x in enumerate(members)}
    rows = []
    for x in members:
        row = []
        for y in members:
            p = s.op(x, y)
            if p not in pos:
                raise MalformedTableError(f"constituent set not closed: {x}*{y} = {p}")
        rows.append([pos[s.op(x, y)] for y in members])
    table = FiniteCommSemigroup(rows)
    ident = pos[e]
    for i in range(table.size):
        if table.op(i, ident) != i:
            raise MalformedTableError("idempotent fails as identity on its group")
        if all(table.op(i, j) != ident for j in range(table.size)):
            raise MalformedTableError(f"member {members[i]} has no inverse")
    return ConstituentGroup(tuple(members), table, ident)


@dataclass
class SampleClosure:
    """Closure of sampled classes under the model's multiplication.

    `dictionary` maps each class representative to its table index;
    `semigroup` is the resulting Cayley table, present only when the
    closure saturated within budget.
    """

    dictionary: dict
    semigroup: FiniteCommSemigroup | None
    saturated: bool

    @property
    def elements(self) -> list:
        out = [None] * len(self.dictionary)
        for rep, i in self.dictionary.items():
            out[i] = rep
        return out


def sample_closure(model, seeds, budget: int) -> SampleClosure:
    """Multiply sampled classes pairwise until nothing new appears or the
    budget (maximum element count) is hit.

    Each growth pass multiplies only the pairs i <= j that hold an element
    new since the last pass, and records the index of every such product;
    the table reads its upper triangle from that record and computes the
    lower one afresh, so a saturated closure of m classes costs m^2
    products and the commutativity check still compares two independent
    products for every pair."""
    elems: list = []
    index: dict = {}
    for x in seeds:
        if x not in index:
            index[x] = len(elems)
            elems.append(x)
    if len(elems) > budget:
        raise ValueError("budget smaller than the seed set")
    upper: dict = {}  # (i, j) with i <= j -> index of elems[i] * elems[j]
    saturated = True
    done = 0  # elems[:done] have all their products with each other recorded
    while done < len(elems) and saturated:
        snapshot = len(elems)
        for i in range(snapshot):
            for j in range(max(i, done), snapshot):
                p = model.mul(elems[i], elems[j])
                if p not in index:
                    if len(elems) >= budget:
                        saturated = False
                        break
                    index[p] = len(elems)
                    elems.append(p)
                upper[i, j] = index[p]
            if not saturated:
                break
        done = snapshot
    semigroup = None
    if saturated:
        m = len(elems)
        rows = [[upper[i, j] if i <= j else index[model.mul(elems[i], elems[j])]
                 for j in range(m)] for i in range(m)]
        semigroup = FiniteCommSemigroup(rows)
    return SampleClosure(index, semigroup, saturated)


@dataclass
class CrossCheckReport:
    clifford: bool = False
    idempotents_match: bool = False
    groups_match: bool = False
    warnings: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (not self.mismatches) and self.clifford and self.idempotents_match \
            and self.groups_match


def cross_check(closure: SampleClosure, model) -> CrossCheckReport:
    """Compare the table-level analysis against the exact model on the same
    elements: same idempotents, same assignment of elements to constituent
    groups, Clifford on the oracle side."""
    rep = CrossCheckReport()
    elems = closure.elements
    idem_of = [model.idempotent_of(x) for x in elems]
    if not closure.saturated:
        rep.warnings.append("closure not saturated; checks restricted to the sampled set")
        rep.clifford = True
        rep.idempotents_match = True
        rep.groups_match = True
        for x, e in zip(elems, idem_of):
            if (e == x) != (model.mul(x, x) == x):
                rep.mismatches.append(f"inconsistent idempotence at {model.describe(x)}")
        return rep
    s = closure.semigroup

    rep.clifford = is_clifford(s)
    if not rep.clifford:
        rep.mismatches.append("oracle table is not Clifford")

    oracle_idems = idempotents(s)
    model_idems = frozenset(i for i, (x, e) in enumerate(zip(elems, idem_of)) if e == x)
    rep.idempotents_match = oracle_idems == model_idems
    if not rep.idempotents_match:
        rep.mismatches.append(
            f"idempotent sets differ: oracle {sorted(oracle_idems)}, model {sorted(model_idems)}"
        )

    rep.groups_match = True
    for e in sorted(oracle_idems):
        grp = constituent_group(s, e)
        model_members = frozenset(i for i, f in enumerate(idem_of) if f == elems[e])
        if frozenset(grp.members) != model_members:
            rep.groups_match = False
            rep.mismatches.append(
                f"group at {model.describe(elems[e])}: oracle {sorted(grp.members)}, "
                f"model {sorted(model_members)}"
            )
    return rep


def from_fixture(text: str) -> FiniteCommSemigroup:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise MalformedTableError("empty fixture")
    try:
        m = int(lines[0])
    except ValueError as e:
        raise MalformedTableError(f"first line must be the size: {e}") from e
    if len(lines) != m + 1:
        raise MalformedTableError(f"expected {m} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as e:
            raise MalformedTableError(f"bad row {ln!r}: {e}") from e
        rows.append(row)
    return FiniteCommSemigroup(rows)
