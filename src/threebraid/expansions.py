"""Partial witness matrices grown by expansion moves.

A partial witness is the matrix a signature-0 witness would have without
its x row: rows v_1, ..., v_r and y = (1, 1, 0, ..., 0), every column
summing to 1, and -B B^T equal to a 3-braid Goeritz form plus (-2).  The
balanced family (equal exponent sums on both sides of the word, r >= 2)
is generated from three small seed matrices by the two kinds of
expansion move, kind 1 and kind 3; the library only grows matrices.  The
test suite keeps the inverse contraction, and a brute-force solver over
the defining constraints as an independent check.

Exactly two rows meet the first two columns, with head patterns (1, -1)
and (-1, 1); their lattice pairing decides whether the matrix could ever
extend to a full witness.  The blockade result checked here: when that
pairing is 0, no x row satisfying the witness constraints exists, because
the solved x tail always breaks the change-making chain.
"""

from dataclasses import dataclass
from itertools import chain, groupby, islice, permutations, product
from operator import itemgetter, mul

from . import goeritz, linalg
from .embed import change_making_ok
from .linalg import TheoremViolation


@dataclass(frozen=True)
class PartialEmbedding:
    """(r+1) x (r+2) matrix: cycle rows v_1..v_r, then the meridian row y."""

    rows: tuple

    @property
    def r(self):
        return len(self.rows) - 1

    @property
    def v_rows(self):
        return self.rows[:-1]

    @property
    def y_row(self):
        return self.rows[-1]

    def c_block(self):
        """Columns 3.. of the cycle rows (the part an x row must kill)."""
        return tuple(row[2:] for row in self.v_rows)

    def pairing(self, i, j):
        return -sum(map(mul, self.rows[i], self.rows[j]))

    def marked_rows(self):
        """Indices (i, j) of the rows with head (1, -1) and (-1, 1).

        Every other cycle row must have head (0, 0): a ValueError names
        the first row that breaks this, a repeated mark included.
        """
        i = j = None
        for t, row in enumerate(self.v_rows):
            head = row[:2]
            if head == (1, -1) and i is None:
                i = t
            elif head == (-1, 1) and j is None:
                j = t
            elif head != (0, 0):
                raise ValueError(f"row {t} head {head} is not a new mark "
                                 "or zero")
        if i is None or j is None:
            raise ValueError(f"marked rows missing: {i}, {j}")
        return i, j

    def to_json(self):
        i, j = self.marked_rows()
        return {"rows": [list(r) for r in self.rows],
                "v_rows": self.r, "marked": [i, j]}


@dataclass(frozen=True)
class ExpansionStep:
    """One expansion move: kind 1 or 3, acting rows, and the pivot column.

    Row roles follow the column patterns: `a` keeps its entries, `b` is
    modified, and kind 3 also modifies the extra row `c`.
    """

    kind: int
    a: int
    b: int
    col: int
    c: int = None


SEED_M1 = PartialEmbedding(((1, -1, 1, 1), (-1, 1, 0, 0), (1, 1, 0, 0)))
SEED_M2 = PartialEmbedding(((1, -1, 1, 0), (-1, 1, 0, 1), (1, 1, 0, 0)))
SEED_M3 = PartialEmbedding(((0, 0, -1, 1, 1), (1, -1, 1, 0, 0),
                            (-1, 1, 1, 0, 0), (1, 1, 0, 0, 0)))
_SEEDS = {2: (SEED_M1, SEED_M2), 3: (SEED_M3,)}


def goeritz_parameters(pe):
    """Word parameters ((a_i), (b_i)) read off -B B^T, or a ValueError.

    The partial witness checks come first: shape, meridian row, column
    sums and orthogonality to the meridian.  The Gram matrix of the cycle
    rows is then read by goeritz.goeritz_pairs, which recovers the cycle
    order; membership in the partial witness family is exactly this
    succeeding and the marked heads (PartialEmbedding.marked_rows).
    """
    rows = pe.rows
    width = len(rows) + 1
    if not rows or any(len(row) != width for row in rows):
        raise ValueError("shape must be (r+1) x (r+2)")
    if pe.y_row != (1, 1) + (0,) * (width - 2):
        raise ValueError("meridian row must be (1, 1, 0, ..., 0)")
    for j, total in enumerate(map(sum, zip(*rows))):
        if total != 1:
            raise ValueError(f"column {j} does not sum to 1")
    cycle = pe.v_rows
    # y = (1, 1, 0, ..., 0), so the pairing with y is -(u_0 + u_1)
    if any(u[0] + u[1] for u in cycle):
        raise ValueError("meridian row is not orthogonal to the cycle rows")
    gram = [[0] * len(cycle) for _ in cycle]
    for a, u in enumerate(cycle):
        for b in range(a, len(cycle)):
            gram[a][b] = gram[b][a] = -sum(map(mul, u, cycle[b]))
    return tuple(zip(*goeritz.goeritz_pairs(gram)))


def _validate(pe):
    goeritz_parameters(pe)
    pe.marked_rows()
    return pe


def canonical_form(pe):
    """Canonical matrix under row permutations fixing y and column moves.

    Columns 1 and 2 may swap; the remaining columns permute freely.  Column
    negations never identify two members (every column sums to 1), so they
    are not quotiented.  The key is the least, over all cycle-row orders,
    of (sorted head columns, tail columns in decreasing order).

    Precondition: the heads are one (1, -1), one (-1, 1) and (0, 0) on
    every other cycle row, else ValueError.  Then the head columns are
    +-(e_i - e_j) on the cycle rows, and the first key column is the one
    with -1 at the earlier marked row and +1 at the later.  It is least
    exactly when the marked rows come first and last, so only the orders
    (i, mid..., j) and (j, mid..., i) are tried: 2 (r-2)! instead of r!,
    with the same key.

    Those orders differ in their tails alone.  Either orientation puts
    +-1 in the first and last cycle positions of the head columns and 0
    between, so the sorted head columns are the same pair for every
    order tried; and y is 0 on every tail column.  So the orders compare
    by their decreasing tail columns without the y entry, and the key is
    built once, from the least.

    The least order is found without trying them all, column of the key
    by column.  The first key column is the greatest tail column, and
    once k rows are placed its first k entries are the greatest prefix
    among the tail columns, whatever rows follow.  So the orders are
    grown row by row, and a partial order whose greatest prefix exceeds
    the least one at its depth is dropped.  Once no unplaced row meets
    the columns holding the greatest prefix, their values are fixed
    (zeros, then the last row's entry): they are settled, the orders
    whose settled columns are not least are dropped, and the greatest
    prefix among the unsettled columns leads from there on.
    """
    v = pe.v_rows
    i, j = pe.marked_rows()
    mid = [row for t, row in enumerate(v) if t not in (i, j)]
    width = len(v[0])
    # bit t of busy[c] is set when mid row t is nonzero in column c
    busy = [sum(1 << t for t, row in enumerate(mid) if row[c])
            for c in range(width)]
    bits = [(1 << t, row) for t, row in enumerate(mid)]
    orders = _settle([((first,), (1 << len(mid)) - 1, last,
                       tuple(range(2, width)), ())
                      for first, last in ((v[i], v[j]), (v[j], v[i]))], busy)
    while orders[0][3]:
        tried = [(max([row[c] for c in order[4]]), bit, row, order)
                 for order in orders for bit, row in bits if order[1] & bit]
        least = min([e for e, _, _, _ in tried])
        orders = _settle([(placed + (row,), left ^ bit, last, unsettled,
                           tuple([c for c in lead if row[c] == e]))
                          for e, bit, row, (placed, left, last, unsettled, lead)
                          in tried if e == least], busy)
    placed, left, last, _, _ = orders[0]
    # every column is settled, so any rows left are zero on the tail
    rows = placed + tuple(row for bit, row in bits if left & bit) + (last,)
    cols = list(zip(*rows, pe.y_row))
    return tuple(sorted(cols[:2]) + sorted(cols[2:], reverse=True))


def _settle(orders, busy):
    """Settle the lead columns no unplaced row can change, then regroup.

    An order of canonical_form's search is a plain tuple (rows placed,
    bit mask of the mid rows left, last row, unsettled tail columns,
    lead), the lead being the unsettled columns with the greatest
    prefix; it is empty only before the first grouping and after the
    last column is settled.  The orders given share their settled
    columns and their lead prefix, and so do the orders returned.
    """
    while True:
        if orders[0][4]:
            if any(busy[c] & left for _, left, _, _, lead in orders
                   for c in lead):
                return orders
            ends = [sorted([last[c] for c in lead], reverse=True)
                    for _, _, last, _, lead in orders]
            least = min(ends)
            orders = [(placed, left, last,
                       tuple([c for c in unsettled if c not in lead]), ())
                      for (placed, left, last, unsettled, lead), end
                      in zip(orders, ends) if end == least]
            if not orders[0][3]:
                return orders
        grouped = []
        for placed, left, last, unsettled, _ in orders:
            cols = list(zip(*placed))
            top = max([cols[c] for c in unsettled])
            grouped.append((top, (placed, left, last, unsettled,
                                  tuple([c for c in unsettled
                                         if cols[c] == top]))))
        least = min([top for top, _ in grouped])
        orders = [order for top, order in grouped if top == least]


def _grow(pe, step):
    """One expansion move (see _expansion_steps), growing the rank by one,
    with every argument check but no membership check.

    The child is built from the parent's row tuples: every row gains a 0
    in the new column, rows b and c are rebuilt, and the new row goes in
    after the cycle rows.
    """
    rows = pe.rows
    width = len(rows[0])
    v_count = len(rows) - 1
    a, b, col = step.a, step.b, step.col
    if not (0 <= a < v_count and 0 <= b < v_count and a != b):
        raise ValueError("row roles out of range")
    if col < 2:
        raise ValueError("the first two columns never split")
    if pe.pairing(a, b) < 1:
        raise ValueError("rows must pair at least 1")
    if col >= width:
        raise ValueError(f"column {col} is beyond the matrix")
    support = [t for t, row in enumerate(rows) if row[col]]
    grown = [row + (0,) for row in rows]
    if step.kind == 1:
        if support != [a] or rows[a][col] != 1:
            raise ValueError("kind-1 column must be supported on row a with a 1")
        row = rows[b]
        grown[b] = row[:col] + (row[col] + 1,) + row[col + 1:] + (0,)
    elif step.kind == 3:
        c = step.c
        if c is None or c in (a, b) or not 0 <= c < v_count:
            raise ValueError("kind 3 needs a distinct third row")
        if sorted(support) != sorted((a, b, c)):
            raise ValueError("kind-3 column must be supported on rows a, b, c")
        if rows[a][col] != 1 or rows[c][col] != 1 or rows[b][col] != -1:
            raise ValueError("kind-3 column pattern is (1, 1, -1)")
        row = rows[b]
        grown[b] = row[:col] + (0,) + row[col + 1:] + (-1,)
        grown[c] = rows[c] + (1,)
    else:
        raise ValueError(f"unknown expansion kind {step.kind}")
    new_row = [0] * (width + 1)
    new_row[-1], new_row[col] = 1, -1
    grown.insert(v_count, tuple(new_row))
    return PartialEmbedding(tuple(grown))


def _expansion_steps(pe):
    """Every kind-1 and kind-3 move applicable to a partial witness.

    Read column by column: a column of the cycle rows supported on row a
    alone, with entry 1, splits by kind 1 towards each row b pairing with
    a at least 1; a column with entries 1 on rows a and c and -1 on row b
    splits by kind 3 for each of a and c pairing with b at least 1.  The
    moves come sorted by (a, b, col), which no two share.
    """
    rows = pe.v_rows
    v_count = len(rows)
    # partners[a]: the rows pairing with row a at least 1
    partners = [set() for _ in rows]
    for a in range(v_count):
        for b in range(a + 1, v_count):
            if sum(map(mul, rows[a], rows[b])) <= -1:
                partners[a].add(b)
                partners[b].add(a)
    moves = []
    for col, column in enumerate(list(zip(*rows))[2:], 2):
        support = [t for t, x in enumerate(column) if x]
        if len(support) == 1:
            a = support[0]
            if column[a] == 1:
                moves += [(a, b, col, 1, None) for b in partners[a]]
        elif len(support) == 3:
            for b in support:
                if column[b] == -1:
                    a, c = [t for t in support if t != b]
                    if column[a] == column[c] == 1:
                        moves += [(s, b, col, 3, t) for s, t in ((a, c), (c, a))
                                  if b in partners[s]]
    return [ExpansionStep(kind, a, b, col, c)
            for a, b, col, kind, c in sorted(moves)]


def _orientations(pe, marks):
    """Both orientations of pe's cycle rows, middle rows by signature.

    Each middle row gets a signature that column moves keep: its sorted
    tail and its pairings with the two marked rows, the first of the
    orientation first.  For each orientation (i, mid..., j) and
    (j, mid..., i) this returns the first and last tails, the middle
    rows' (signature..., tail) in sorted order, and the key of that order:
    the sorted list of tail columns.  The middle rows have head (0, 0),
    so their pairings are read off the tails.  marks are pe's marked
    rows, as PartialEmbedding.marked_rows gives them.
    """
    v = pe.v_rows
    i, j = marks
    first, last = v[i][2:], v[j][2:]
    mid = []
    for t, row in enumerate(v):
        if t != i and t != j:
            tail = row[2:]
            mid.append((sorted(tail), -sum(map(mul, first, tail)),
                        -sum(map(mul, last, tail)), tail))
    sigs = sorted(mid)
    flipped = sorted([(s, q, p, tail) for s, p, q, tail in mid])
    return [(first, last, sigs,
             sorted(zip(first, *[sig[3] for sig in sigs], last))),
            (last, first, flipped,
             sorted(zip(last, *[sig[3] for sig in flipped], first)))]


def _shape_key(orients):
    """The lesser key of the two signature orders (_orientations)."""
    return tuple(min(orients[0][3], orients[1][3]))


def _class_key(orients):
    """A complete invariant of canonical_form's class, without its search.

    In each orientation of _orientations the middle rows are ordered by
    signature, tied rows in every order, and the key is the least sorted
    list of tail columns.  The first order tried in each orientation is
    its signature order, whose key _orientations already holds, so an
    orientation without a tie builds no key here.  orients are
    _orientations of the member keyed.

    Two members are in one class exactly when a row permutation fixing y,
    a swap of the head columns and a permutation of the tail columns take
    one to the other; such a move maps marked rows to marked rows.  It
    carries each orientation of one member to an orientation of the other
    and each middle row to a row of the same signature, so the orders
    tried correspond, up to a permutation of the tail columns, and the
    keys are equal.  Conversely, equal keys give two orders whose tail
    blocks are one matrix up to a column permutation; the position of a
    row fixes its head up to the swap, so the members are in one class.
    """
    keys = []
    for first, last, sigs, key in orients:
        groups = [[tail for *_, tail in group] for _, group
                  in groupby(sigs, key=itemgetter(0, 1, 2))]
        orders = islice(product(*map(permutations, groups)), 1, None)
        keys.append(key)
        keys += [sorted(zip(first, *chain(*order), last)) for order in orders]
    return tuple(min(keys))


def _children(members, seeds):
    """(seed, its marks), then (child, its parent's marks) for each move.

    A move never writes columns 0 and 1 and puts its new row, head (0, 0),
    after the cycle rows, so a child's marked rows are its parent's.
    """
    for pe in seeds:
        yield pe, pe.marked_rows()
    for pe in members:
        marks = pe.marked_rows()
        for step in _expansion_steps(pe):
            yield _grow(pe, step), marks


def _expand_layer(members, seeds):
    """Seeds, then every move on members, one per class.

    Returns a dict from _class_key to member, in the order first met: the
    first member met in a class stays, and it alone is validated, so each
    member kept is checked once and a failure raises.  _class_key and
    canonical_form are complete invariants of the same class (row
    permutations fixing y, the head-column swap and tail-column moves), so
    the members kept are the ones a layer keyed by canonical_form keeps,
    and canonical_form itself runs only on them, where it is needed.

    The shape key filters first, because it is exact: members with equal
    shape keys are in one class.  Members have zero heads away from the
    marked rows, so a row order and orientation fix the head columns, and
    two members with equal shape keys become the same matrix once each
    puts its rows in the order that attains its key, up to a permutation
    of the tail columns and, when the orientations differ, the head swap.
    So a child whose shape key was met before is skipped unkeyed, and the
    tie orders of the class key are tried only on a new shape key.  Both
    keys come from one signature pass (_orientations) per child.

    The children are grown unchecked, and a child dropped unseen loses
    nothing.  Every parent is a validated member; a move never writes
    columns 0 and 1, and the new row's head is (0, 0), so every child
    keeps the marked heads both keys rest on.  A dropped child thus has
    the shape key or class key of a validated member, so it is that
    member up to those moves, and membership is invariant under them.
    """
    layer, shapes = {}, set()
    for pe, marks in _children(members, seeds):
        orients = _orientations(pe, marks)
        shape = _shape_key(orients)
        if shape not in shapes:
            shapes.add(shape)
            key = _class_key(orients)
            if key not in layer:
                layer[key] = _validate(pe)
    return layer


def _grow_balanced(r_max):
    """Balanced members of rank 2..r_max, one per class, in first-met order.

    Breadth-first expansion by kind-1 and kind-3 moves from the three
    seeds.  Returns a dict rank -> tuple of members.  Each member
    returned, seeds included, passed the membership check once, when its
    layer kept it.  The layers are deduplicated by _class_key, so no
    canonical_form runs here.
    """
    if type(r_max) is not int:
        raise ValueError(f"r_max {r_max!r} is not an integer")
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    layers, layer = {}, {}
    for r in range(2, r_max + 1):
        layer = _expand_layer(layer.values(), _SEEDS.get(r, ()))
        layers[r] = tuple(layer.values())
    return layers


def generate_balanced(r_max):
    """All balanced partial witnesses of rank 2..r_max, canonically ordered.

    Returns a dict rank -> tuple of members, _grow_balanced's layers with
    each sorted by canonical_form, whose keys are distinct because the
    classes are.  The canonical order is for presentation only (the
    output of b0 and the members' indices); canonical_form runs once per
    member, for that order alone.
    """
    return {r: tuple(sorted(members, key=canonical_form))
            for r, members in _grow_balanced(r_max).items()}


def column_multiset_check(pe):
    """Every column's nonzero entries form {1,1,-1}, {2,-1} or {1}."""
    allowed = ((-1, 1, 1), (-1, 2), (1,))
    for col in zip(*pe.rows):
        if tuple(sorted(v for v in col if v)) not in allowed:
            return False
    return True


@dataclass(frozen=True)
class BlockStructure:
    """Witness for the staircase block form of a marked-orthogonal member.

    row_order lists the cycle rows as (first chain, second chain, i, j);
    col_order lists the tail columns as (head1, chain1, head2, chain2).
    """

    k: int
    l: int
    row_order: tuple
    col_order: tuple


def _staircase_ok(c, rows, head, chain):
    """rows x (head + chain) must be the lower staircase with -1 diagonal."""
    k = len(rows)
    for t, row in enumerate(rows):
        if c[row][head] != (1 if t == 0 else 0):
            return False
        for u, col in enumerate(chain):
            want_zero_above = u > t
            val = c[row][col]
            if u == t:
                if val != -1:
                    return False
            elif want_zero_above:
                if val != 0:
                    return False
            elif val not in (0, 1):
                return False
    return True


def _block_candidates(pe):
    i, j = pe.marked_rows()
    r = pe.r
    others = [t for t in range(r) if t not in (i, j)]
    c = [row[2:] for row in pe.v_rows]
    cols = range(r)
    for k in range(1, r - 2):
        l = r - 2 - k
        for top in permutations(others, k):
            mid_rows = [t for t in others if t not in top]
            for mid in permutations(mid_rows):
                for h1 in cols:
                    for chain1 in permutations([x for x in cols if x != h1], k):
                        if not _staircase_ok(c, top, h1, chain1):
                            continue
                        used = {h1, *chain1}
                        for h2 in (x for x in cols if x not in used):
                            rest = [x for x in cols if x not in used and x != h2]
                            for chain2 in permutations(rest, l):
                                if (_staircase_ok(c, mid, h2, chain2)
                                        and _marks_ok(c, i, j, h1, chain1,
                                                      h2, chain2)):
                                    yield BlockStructure(
                                        k, l,
                                        tuple(top) + tuple(mid) + (i, j),
                                        (h1,) + tuple(chain1)
                                        + (h2,) + tuple(chain2))


def orthogonal_marked_structure(pe):
    """Exhibit the staircase block form of a member with orthogonal marks.

    Raises ValueError unless pe is a member whose marked rows pair to 0;
    raises TheoremViolation if no row/column reordering realizes the block
    form.
    """
    i, j = _validate(pe).marked_rows()
    if pe.pairing(i, j) != 0:
        raise ValueError("marked rows must pair to 0")
    found = next(_block_candidates(pe), None)
    if found is None:
        raise TheoremViolation("no staircase block form found")
    return found


def _marks_ok(c, i, j, h1, chain1, h2, chain2):
    for row in (i, j):
        if c[row][h1] or c[row][h2]:
            return False
        for group in (chain1, chain2):
            vals = [c[row][col] for col in group]
            if any(v not in (0, 1) for v in vals) or not any(vals):
                return False
    return True


def completion_x_tail(pe):
    """The x tail forced by orthogonality, or None when no witness x exists.

    A full witness needs x = (0, 1, xbar) orthogonal to every cycle row
    with the head entries living on the meridian columns, that is
    C xbar = -z for each of the two allowed head sign patterns.  The tail
    exists only when d = det(C) = +-1, and then Cramer's rule reads entry i
    as d det(C with column i replaced by -z), r determinants per head
    pattern.  Returns the first tail whose sorted absolute values obey
    change-making, else None.  A non-member is refused with a ValueError.
    """
    c = _validate(pe).c_block()
    d = linalg.det(c)
    if abs(d) != 1:
        return None
    for head in ((0, -1), (-1, 0)):
        rhs = tuple(-sum(map(mul, head, row[:2])) for row in pe.v_rows)
        tail = tuple(d * linalg.det([row[:i] + (b,) + row[i + 1:]
                                     for row, b in zip(c, rhs)])
                     for i in range(len(c)))
        if tuple(sum(map(mul, row, tail)) for row in c) != rhs:
            raise TheoremViolation("Cramer's rule failed to solve C xbar = -z")
        if change_making_ok(tuple(abs(v) for v in tail)):
            return tail
    return None


def no_orthogonal_completion(r_max):
    """True when no balanced member of rank <= r_max with orthogonal marks
    extends to a witness.

    The members are visited in first-met order (_grow_balanced), not in
    canonical order: the answer is over all of them, so the order cannot
    change it, and no canonical_form runs.
    """
    return no_orthogonal_completion_in(_grow_balanced(r_max))


def no_orthogonal_completion_in(layers):
    """True when no member of the layers with orthogonal marks extends to a
    witness.

    Checked by solving for the x tail directly on every member,
    independently of the staircase algebra; completion_x_tail refuses a
    non-member.
    """
    for members in layers.values():
        for pe in members:
            if pe.pairing(*pe.marked_rows()) == 0 \
                    and completion_x_tail(pe) is not None:
                return False
    return True
