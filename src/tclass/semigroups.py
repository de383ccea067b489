"""Brute-force finite commutative semigroup analysis.

This is the package's second opinion: Cayley tables built by multiplying
sampled ideal classes in one walk over their growing list, verified once
as commutative and associative when built, then analyzed purely by the
definitions (idempotents, Clifford regularity, constituent groups) with
exhaustive search.  Nothing here imports the exact models; they are
reached only through a duck-typed handle of three methods: `row(x, ys)`,
the products x * y for every y of `ys` in order, from which the table
comes; `idempotent_of`, the model's own classification and its side of
every comparison; `describe`, a class's name in a mismatch.  Callers
build seeds with `class_of`.  The two sides can disagree, and that means a bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

ASSOC_CAP = 512


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
    generating set is read off the table itself (`_generators`).  For a
    generator j and a row i, the row k -> i (j k) is one C-level gather,
    `itemgetter(*row_j)(row_i)`, compared with row i j as one tuple; only a
    mismatch is scanned for its first k.  In the worst case every element
    is needed, as in a max-semilattice on a chain, and the check is m^3
    again, so tables above `ASSOC_CAP` are refused rather than silently
    left unchecked.
    """

    def __init__(self, table):
        table = tuple(tuple(row) for row in table)
        m = len(table)
        if m == 0:
            raise MalformedTableError("empty table")
        if m > ASSOC_CAP:
            raise MalformedTableError(f"table of size {m} exceeds the verification cap {ASSOC_CAP}")
        for row in table:
            if len(row) != m or min(row) < 0 or max(row) >= m:
                raise MalformedTableError("table is not square over its own indices")
        if table != tuple(zip(*table)):  # the transpose; a scan names the first pair
            i, j = next((i, j) for i in range(m) for j in range(i + 1, m)
                        if table[i][j] != table[j][i])
            raise MalformedTableError(f"not commutative at ({i}, {j})")
        # A 1 x 1 table here is ((0,),), which is associative; it is skipped
        # because `itemgetter` of one index returns a scalar, not a tuple.
        for j in _generators(table) if m > 1 else ():
            row_j = table[j]
            times_j = itemgetter(*row_j)  # row_i -> (k -> i (j k))
            for i, row_i in enumerate(table):
                left = table[row_i[j]]  # k -> (i j) k
                if left != times_j(row_i):
                    k = next(k for k in range(m) if left[k] != row_i[row_j[k]])
                    raise MalformedTableError(f"not associative at ({i}, {j}, {k})")
        self.table = table

    @property
    def size(self) -> int:
        return len(self.table)


def _generators(table) -> list[int]:
    """A generating set of a commutative table, chosen greedily: walk the
    indices in order and keep each one the submagma generated by those
    kept so far does not contain.  Every pair of members is multiplied
    once, m(m+1)/2 lookups, and gathered into a set only if one is new."""
    inside: set[int] = set()
    members: list[int] = []  # all products among these are inside
    gens = []
    for g in range(len(table)):
        if g in inside:
            continue
        gens.append(g)
        inside.add(g)
        todo = [g]
        while todo:
            x = todo.pop()
            members.append(x)
            times_x = table[x].__getitem__
            if not inside.issuperset(map(times_x, members)):
                new = set(map(times_x, members)) - inside
                inside |= new
                todo.extend(new)
    return gens


def idempotents(s: FiniteCommSemigroup) -> frozenset[int]:
    return frozenset(i for i, row in enumerate(s.table) if row[i] == i)


def is_clifford(s: FiniteCommSemigroup) -> bool:
    """Every x regular: some a with x*x*a = x, searched exhaustively, that
    is, x lies in the row of x*x."""
    t = s.table
    return all(x in t[t[x][x]] for x in range(s.size))


def constituent_group(s: FiniteCommSemigroup, e: int) -> tuple[int, ...]:
    """The sorted members of G_e = {a*e | a*b*e = e for some b}.

    The definition alone makes G_e a group on a commutative, associative
    table, which `FiniteCommSemigroup` has already verified, so no group
    axiom is checked again.  Let x = a*e with a*b*e = e, and y = c*e with
    c*d*e = e.  Then x*y = (a*c)*e is a member, since (a*c)*(b*d)*e =
    (a*b*e)*(c*d*e) = e; x*e = a*e*e = x, and e = e*e is a member, so e is
    the identity; b*e is a member, since b*a*e = e, and x*(b*e) = a*b*e =
    e, so it is x's inverse."""
    t = s.table
    if t[e][e] != e:
        raise NotIdempotentError(f"element {e} is not idempotent")
    times_e = [row[e] for row in t]  # x -> x*e
    return tuple(sorted({times_e[a] for a, row in enumerate(t)
                         if e in map(times_e.__getitem__, row)}))


@dataclass
class SampleClosure:
    """Closure of sampled classes under the model's multiplication.

    `dictionary` maps each class representative to its table index, and
    indices are assigned in insertion order, so `elements` is its key list;
    `semigroup` is the resulting Cayley table, present only when the
    closure saturated within budget.
    """

    dictionary: dict
    semigroup: FiniteCommSemigroup | None
    saturated: bool

    @property
    def elements(self) -> list:
        return list(self.dictionary)


def sample_closure(model, seeds, budget: int) -> SampleClosure:
    """Multiply sampled classes pairwise until nothing new appears or the
    budget (maximum element count) is hit.

    One walk over the growing class list: class i is multiplied by itself
    and by every class before it, and a product not seen yet is appended,
    so the walk reaches it in turn.  When the walk ends, every pair has
    been multiplied once with the larger index on the left; the table
    computes the other half afresh, class i by every class after it, so a
    saturated closure of m classes costs m^2 products and the
    commutativity check still compares two independent products for every
    pair.  A second-half product that is no class of the closure fails
    that check here, with `MalformedTableError`.

    The products come one row at a time: `model.row(x, ys)` multiplies x
    by every class of `ys`, twice per class in all, once in the walk and
    once for the second half.  Both class handles multiply through
    `cuts.class_row` on the classes' integer keys alone (the Pruefer one
    component by component): a closure builds no `Cut`, `Fraction` or
    ideal tuple, and calls no `cuts._coset_rep`."""
    elems: list = []
    index: dict = {}
    for x in seeds:
        if x not in index:
            index[x] = len(elems)
            elems.append(x)
    if len(elems) > budget:
        raise ValueError("budget smaller than the seed set")
    row, find = model.row, index.get
    lower: list = []  # lower[i][j] is the index of elems[i] * elems[j], j <= i
    for i, x in enumerate(elems):  # the walk reaches every class appended
        products, indices = row(x, elems[: i + 1]), []
        # `map` finds each product only when the loop reaches it, so a
        # class that an earlier product of the row added is found.
        for p, ip in zip(products, map(find, products)):
            if ip is None:
                if len(elems) >= budget:
                    return SampleClosure(index, None, False)
                ip = index[p] = len(elems)
                elems.append(p)
            indices.append(ip)
        lower.append(indices)
    rows = []
    for i, x in enumerate(elems):
        upper = list(map(find, row(x, elems[i + 1:])))
        if None in upper:
            # elems[j] * elems[i] is in the closure, so a product outside
            # it can only mean the two orders disagree
            raise MalformedTableError(f"not commutative at ({i}, {i + 1 + upper.index(None)})")
        rows.append(lower[i] + upper)
    return SampleClosure(index, FiniteCommSemigroup(rows), True)


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
        members = constituent_group(s, e)
        model_members = tuple(i for i, f in enumerate(idem_of) if f == elems[e])
        if members != model_members:
            rep.mismatches.append(
                f"group at {model.describe(elems[e])}: oracle {list(members)}, "
                f"model {list(model_members)}"
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
