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
from operator import ne


class MalformedTableError(ValueError):
    pass


class NotIdempotentError(ValueError):
    pass


class FiniteCommSemigroup:
    """An m x m multiplication table over indices 0..m-1.

    Commutativity and associativity are verified at construction.
    Associativity is checked exactly by Light's test (Clifford-Preston,
    The Algebraic Theory of Semigroups I, section 1.2): only the triples
    (i, j, k) whose middle entry j lies in a generating set of g elements
    are compared, so the check costs O(g m^2).  This suffices: the
    elements a with (x a) y = x (a y) for every x and y form a submagma,
    since for such a and b

        (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y),

    and a submagma that holds a generating set is the whole table.  The
    generating set is read off the table itself (`_generators`).  In the
    worst case every element is needed, as in a max-semilattice on a
    chain, and the check is m^3 again, so tables above `assoc_cap` are
    refused rather than silently left unchecked.
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
        for j in _generators(table):
            row_j = table[j]
            for i, row_i in enumerate(table):
                left = table[row_i[j]]  # k -> (i j) k
                # i (j k) is compared lazily: a tuple built from a map is
                # resized, which fills CPython's tuple free lists, and over
                # many small closures that grew peak memory by about 10 %
                if any(map(ne, left, map(row_i.__getitem__, row_j))):
                    k = next(k for k in range(m) if left[k] != row_i[row_j[k]])
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


def _generators(table) -> list[int]:
    """A generating set of a commutative table, chosen greedily: walk the
    indices in order and keep each one the submagma generated by those
    kept so far does not contain.  Every pair of members is multiplied
    once, so this costs m(m+1)/2 lookups."""
    inside = [False] * len(table)
    members: list[int] = []  # all products among these are inside
    gens = []
    for g in range(len(table)):
        if inside[g]:
            continue
        gens.append(g)
        inside[g] = True
        todo = [g]
        while todo:
            x = todo.pop()
            members.append(x)
            row = table[x]
            for y in members:
                p = row[y]
                if not inside[p]:
                    inside[p] = True
                    todo.append(p)
    return gens


def idempotents(s: FiniteCommSemigroup) -> frozenset[int]:
    return frozenset(i for i in range(s.size) if s.op(i, i) == i)


def is_clifford(s: FiniteCommSemigroup) -> bool:
    """Every x regular: some a with x*x*a = x, searched exhaustively, that
    is, x lies in the row of x*x."""
    t = s.table
    return all(x in t[t[x][x]] for x in range(s.size))


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
    t = s.table
    if t[e][e] != e:
        raise NotIdempotentError(f"element {e} is not idempotent")
    times_e = [row[e] for row in t]  # x -> x*e
    members = sorted({times_e[a] for a in range(s.size)
                      if e in map(times_e.__getitem__, t[a])})
    pos = {x: i for i, x in enumerate(members)}

    rows = []
    for x in members:
        row = t[x]
        try:
            rows.append([pos[row[y]] for y in members])
        except KeyError:
            y = next(y for y in members if row[y] not in pos)
            raise MalformedTableError(
                f"constituent set not closed: {x}*{y} = {row[y]}") from None
    table = FiniteCommSemigroup(rows)
    ident = pos[e]
    for i, row in enumerate(table.table):
        if row[ident] != i:
            raise MalformedTableError("idempotent fails as identity on its group")
        if ident not in row:
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
    products for every pair.  A lower-triangle product that is no class of
    the closure fails that check here, with `MalformedTableError`.

    Each product is one `model.mul` and one index lookup.  The cut models'
    classes hash and compare by integer keys and build their rep only on
    first read, so on `cuts.ValuationClassModel` a closure of m classes
    builds m^2 + m cuts (one per product, one rep per element) and hashes
    no `Fraction`.  `pruefer.PrueferClassModel` multiplies its tuples of
    those classes component by component, so over k valuations it builds
    k times that and no ideal tuple.  The 106-element closure of the
    benchmark's `oracle_audit` takes about 80 ms, nearly all of it in
    `cuts.mul` and `cuts.class_of`."""
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
                ip = index.get(p)
                if ip is None:
                    if len(elems) >= budget:
                        saturated = False
                        break
                    ip = index[p] = len(elems)
                    elems.append(p)
                upper[i, j] = ip
            if not saturated:
                break
        done = snapshot
    semigroup = None
    if saturated:
        def lower(i, j):
            # elems[j] * elems[i] is in the closure, so a product outside it
            # can only mean the two orders disagree
            ip = index.get(model.mul(elems[i], elems[j]))
            if ip is None:
                raise MalformedTableError(f"not commutative at ({j}, {i})")
            return ip

        m = len(elems)
        rows = [[upper[i, j] if i <= j else lower(i, j) for j in range(m)]
                for i in range(m)]
        semigroup = FiniteCommSemigroup(rows)
    return SampleClosure(index, semigroup, saturated)


@dataclass
class CrossCheckReport:
    mismatches: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def cross_check(closure: SampleClosure, model) -> CrossCheckReport:
    """Compare the table-level analysis of a saturated closure against the
    exact model on the same elements: Clifford on the oracle side, same
    idempotents, same assignment of elements to constituent groups."""
    if not closure.saturated:
        raise ValueError("cross_check needs a saturated closure")
    rep = CrossCheckReport()
    elems = closure.elements
    idem_of = [model.idempotent_of(x) for x in elems]
    s = closure.semigroup

    if not is_clifford(s):
        rep.mismatches.append("oracle table is not Clifford")

    oracle_idems = idempotents(s)
    model_idems = frozenset(i for i, (x, e) in enumerate(zip(elems, idem_of)) if e == x)
    if oracle_idems != model_idems:
        rep.mismatches.append(
            f"idempotent sets differ: oracle {sorted(oracle_idems)}, model {sorted(model_idems)}"
        )

    for e in sorted(oracle_idems):
        grp = constituent_group(s, e)
        model_members = frozenset(i for i, f in enumerate(idem_of) if f == elems[e])
        if frozenset(grp.members) != model_members:
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
