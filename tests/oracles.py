"""Independent oracles used by the test suite.

Everything here recomputes expected values from first principles, without
going through the code paths under test: determinants of
incidence-flipped Goeritz matrices, Fraction inverses by Gauss-Jordan
elimination, plain product-loop embedding searches, a from-scratch
solver for the partial witness family, and the canonical form of a
partial witness over all row orders.

It also holds the helpers that only tests call, so the library keeps to
the decision path: the incidence flips `flip_hub_crossing` and
`flip_cycle_crossing`, the torus-knot invariants `signature_torus3` and
`s_invariant_torus3`, the matrix product `mat_mul`, the square of one
covector `covector_square` with its integer score `adjugate_square`, and,
for partial witnesses, the balance test `is_balanced` and the contraction
`contract` that undoes an expansion move.  The characteristic box
`char_box` and the per-point sweep over it, `box_d_table_sharp`, are the
retired form of `forms.d_table_sharp`, kept as its differential oracle;
on the twist forms it is also the oracle of the unknot table
`forms.d_table_halfint_unknot`, the closed form for the lens space
L(D, 2).  `closed_form_unknot_table`, over the maximizer table
`table_maximizers`, is an older, retired closed form of that table, and
`branched_goeritz_matrix` keeps the rank-1, rank-2 and cycle cases that
`goeritz.goeritz_3braid` once had.  Likewise `pinned_canonical_form`, which
compares whole keys over the pinned row orders, is the retired form of
`expansions.canonical_form`, and `kind1_keys` regenerates the kind-1
layers from the seeds: the tests check with it that every member with
orthogonal marks grows by kind-1 moves alone, a theorem the library no
longer checks.  `retired_criterion_search`, the plain backtracker that
scans every row's whole candidate pool and keys each class by
`retired_witness_key`, a canonical form of the tail columns
(`retired_canonical_columns`) under every row symmetry, is the retired
form of `embed.criterion_search`, which keys a class by the x tail and
the orbit of z alone; `witness_class_key` reads that key off a finished
embedding matrix, so tests can compare classes.  `retired_x_tails`, which
prunes each prefix of an x tail by the change-making chain, is the retired
form of `embed._x_tails`, which filters one cached enumeration per (rank,
target) by the chain.  `retired_row_candidates`, uncached and
building a new tuple for every row, is the retired form of
`embed._row_candidates`, which hands out one shared tuple per distinct
row.  `signed_column_canonical` is the retired
dedup key of `embed.embed_form`, whose leaves are now canonical as found.
`retired_embed_form`, which builds each row column by column and recurses
once per target column, is the retired form of `embed.embed_form`, which
now filters the shared `_row_candidates` pools and pads every column past
-trace(M) with zeros.
`linking_form_refutation`, which lists the discriminant group of a form
in Fractions, is the oracle of `embed._linking_form_ok`, which decides
the same from the integer adjugate.
`minors_negative_definite`, one determinant per leading principal minor,
is the retired form of `linalg.is_negative_definite`.
`retired_goeritz_parameters`, with its own rank-2 branch, cycle walk
and per-entry checks, is the retired form of
`expansions.goeritz_parameters`, which now reads the Gram matrix through
`goeritz.goeritz_pairs`.  `retired_canonical_tag`, which moves a marked
crossing through the swap and the mirror crossing by crossing, is the
retired form of `canonical_tag`, now a dihedral action on the block
exponents.  `retired_grow`, which builds each child from lists,
`retired_expansion_steps`, which reads the moves pair of rows by pair,
`retired_shape_key`, which sorts the middle rows by their tails, and
`retired_class_key`, which reads the marks and the pairings again for
every key, are the retired forms of `expansions._grow`,
`expansions._expansion_steps`, `expansions._shape_key` and
`expansions._class_key`, now built from the parent's row tuples, column
by column, and on one signature pass per child.  `retired_alt_canonical`,
which rebuilds every rotation by modular indexing, is the retired form
of `braid.AltBraidWord.canonical`.  `retired_halfint_symmetry_test`, in
Fraction arithmetic, and `retired_symmetry_sides`, which builds and tests
a negated DTable, are the retired forms of `halfint_symmetry_test` and
`forms.symmetry_sides`, now decided on the integer quarters 4D*d.

Five names once public in the library, which no command runs, live
here as references the tests check the library against.  The backward
generator `enumerate_unknotting_words`, with its `TaggedDiagram` and
the dihedral normal form `canonical_tag`, runs the unknot rewriting in
reverse: it is the third route, beside the lattice verdict and the
forward scan `braid.unknotting_crossings`, to the alternating diagrams
with an unknotting crossing.  `expand`, one expansion move with its
membership check (`expansions._validate` of `expansions._grow`), and
`halfint_symmetry_test`, the symmetry test of one table over the
private core of `forms.symmetry_sides`, give the tests single moves
and single tables.

`pretzel_embedding` pads the two pretzel embeddings as displayed,
`PRETZEL_A1` and `PRETZEL_A2`: the reference that `embed.embed_form`'s
classes of `forms.PRETZEL_FORM`, which `pretzel-check` reads, must match.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, groupby, permutations, product
from math import gcd, isqrt, lcm
from operator import itemgetter, mul

from threebraid import expansions as xp
from threebraid import braid, embed, forms, linalg
from threebraid.braid import (AltBraidWord, CrossingRef, alt_canonical,
                              symbols_of, word_from_symbols)
from threebraid.goeritz import GoeritzForm, goeritz_3braid
from threebraid.linalg import TheoremViolation


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def flip_hub_crossing(form, region):
    """Goeritz matrix after flipping one hub-crossing incidence at a region.

    Only the diagonal entry of that region moves, by +2.
    """
    rows = [list(row) for row in form.matrix]
    rows[region][region] += 2
    return tuple(tuple(row) for row in rows)


def flip_cycle_crossing(form, i):
    """Goeritz matrix after flipping the incidence of cycle edge (i, i+1)."""
    r = len(form.matrix)
    j = (i + 1) % r
    rows = [list(row) for row in form.matrix]
    rows[i][j] -= 2
    rows[j][i] -= 2
    rows[i][i] += 2
    rows[j][j] += 2
    return tuple(tuple(row) for row in rows)


def signature_torus3(q):
    """Signature of the (3, q) torus knot, q not divisible by 3."""
    if q % 3 == 0:
        raise ValueError("T(3, q) needs q coprime to 3")
    for d in range(0, abs(q) // 6 + 2):
        for s, val in ((1, -8 * d), (-1, -8 * d),
                       (2, -8 * d - 2), (-2, -8 * d + 2)):
            if 6 * d + s == q:
                return val
            if -(6 * d + s) == q:
                return -val
    raise AssertionError(q)


def s_invariant_torus3(q):
    """Rasmussen invariant of T(3, q): 2(q-1) for q >= 1, 2(q+1) for q <= -1."""
    if q == 0:
        raise ValueError("q must be nonzero")
    return 2 * (q - 1) if q >= 1 else 2 * (q + 1)


def branched_goeritz_matrix(word):
    """goeritz_3braid's matrix by its former rank-1, rank-2 and cycle cases."""
    pairs = word.pairs
    r = word.r
    hub = {}           # row index -> s1 block number l (0-based)
    at = 1
    for l, (_, b) in enumerate(pairs):
        hub[at] = l
        at += b
    if r == 1:
        matrix = ((-pairs[0][0],),)
    elif r == 2:
        a1 = pairs[0][0]
        a2 = pairs[1][0] if len(pairs) == 2 else 0
        matrix = ((-a1 - 2, 2), (2, -a2 - 2))
    else:
        rows = []
        for i in range(1, r + 1):
            row = []
            for j in range(1, r + 1):
                if i == j:
                    row.append(-pairs[hub[i]][0] - 2 if i in hub else -2)
                elif abs(i - j) in (1, r - 1):
                    row.append(1)
                else:
                    row.append(0)
            rows.append(tuple(row))
        matrix = tuple(rows)
    return matrix


def changed_determinant(word, block):
    """|det| of the closure after changing one crossing of the given block.

    Computed through the Goeritz matrix of the original alternating
    diagram with that crossing's incidence flipped: +2 on the diagonal for
    a hub crossing, the two-region surgery for a cycle crossing.
    """
    form = goeritz_3braid(word)
    if block % 2 == 0:
        l = block // 2
        region = sum(b for _, b in word.pairs[:l])
        flipped = flip_hub_crossing(form, region)
    else:
        l = block // 2
        edge = sum(b for _, b in word.pairs[:l])
        flipped = flip_cycle_crossing(form, edge)
    return abs(linalg.det(flipped))


@lru_cache(maxsize=64)
def fraction_inverse(m):
    """Exact inverse as a matrix of Fractions, by Gauss-Jordan elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def minors_negative_definite(m):
    """Negative definiteness by one determinant per leading principal minor.

    The retired form of `linalg.is_negative_definite`: the j-th minor must
    have sign (-1)^j.
    """
    if not linalg.is_symmetric(m):
        raise ValueError("matrix is not symmetric")
    for j in range(1, len(m) + 1):
        minor = linalg.det([row[:j] for row in m[:j]])
        if (minor if j % 2 == 0 else -minor) <= 0:
            return False
    return True


def adjugate_square(adj, c):
    """The integer c adj(M) c^T, which is det(M) times c M^-1 c^T."""
    return sum(ci * a * cj for ci, row in zip(c, adj) for a, cj in zip(row, c))


def covector_square(m, c):
    """c M^-1 c^T for a characteristic covector c, from the integer score.

    The library's c adj(M) c^T divided by det(M); the Fraction oracles
    above check it.
    """
    if len(c) != len(m):
        raise ValueError("dimension mismatch")
    if any((ci - m[i][i]) % 2 for i, ci in enumerate(c)):
        raise ValueError("covector is not characteristic")
    d = linalg.det(m)
    if d == 0:
        raise ValueError("matrix is singular")
    return Fraction(adjugate_square(linalg.adjugate(m), c), d)


def char_box(m):
    """All characteristic covectors c with M_ii <= c_i <= -M_ii."""
    m = linalg.freeze(m)
    if not linalg.is_negative_definite(m):
        raise ValueError("matrix must be negative definite")
    axes = [range(m[i][i], -m[i][i] + 1, 2) for i in range(len(m))]
    return tuple(product(*axes))


def box_d_table_sharp(m):
    """The sharp table by scoring and labelling every point of char_box."""
    m = linalg.freeze(m)
    coker = forms.coker_map(m)
    D = coker.order
    if D % 2 == 0:
        raise ValueError("discriminant must be odd")
    if not coker.is_cyclic:
        raise forms.NonCyclicCokernel(coker.invariant_factors)
    k = len(m)
    inv2 = pow(2, -1, D) if D > 1 else 0
    adj = linalg.adjugate(m)
    best = [None] * D
    for c in char_box(m):
        sq = (-1) ** k * adjugate_square(adj, c)
        label = (sum(map(mul, coker.label_row, c)) * inv2) % D
        if best[label] is None or sq > best[label]:
            best[label] = sq
    if any(b is None for b in best):
        raise linalg.TheoremViolation("a label has no covector in the box")
    return forms.DTable(D, tuple((Fraction(b, D) + k) / 4 for b in best))


def table_maximizers(D, i):
    """Maximizer covectors over the twist knot form for spin-c label i.

    i is an integer representative with |i| <= n; the covector class is 2i.
    """
    n = (D + 1) // 2
    k = n // 2
    if n % 2 == 0:
        if abs(i) <= k:
            return ((2 * i, 0),)
        return ((2 * i - 2 * n, 2), (2 * i - 2 * n + 2, -2))
    if abs(i) <= k:
        return ((2 * i + 1, -2), (2 * i - 1, 2))
    return ((2 * i + 1 - 2 * n, 0),)


def closed_form_unknot_table(D):
    """Closed-form correction terms of -D/2 surgery on the unknot.

    Values are (square of the tabulated maximizer + 2)/4 over the twist
    knot form with n = (D+1)/2, computed at the nonnegative label
    representatives and copied to negative labels by conjugation; labels
    reached twice are cross-checked for agreement.  Every maximizer must
    be characteristic with the right label; squares are compared as the
    integers c adj(M) c^T, as in d_table_sharp.
    """
    if D < 3 or D % 2 == 0:
        raise ValueError("D must be odd and at least 3")
    n = (D + 1) // 2
    rn = forms.twist_knot_form(n)
    coker = forms.coker_map(rn)
    adj, det = linalg.adjugate(rn), linalg.det(rn)
    values = [None] * D
    for i in range(n + 1):
        squares = []
        for alpha in table_maximizers(D, i):
            if sum(map(mul, coker.label_row, alpha)) % D != (2 * i) % D:
                raise TheoremViolation(f"maximizer {alpha} has the wrong label")
            if any((a - rn[t][t]) % 2 for t, a in enumerate(alpha)):
                raise TheoremViolation(f"maximizer {alpha} is not characteristic")
            squares.append(adjugate_square(adj, alpha))
        sq = squares[0]
        if any(s != sq for s in squares):
            raise TheoremViolation(f"maximizers disagree: {(D, i, squares)}")
        val = (Fraction(sq, det) + 2) / 4
        for res in (i % D, -i % D):
            if values[res] is None:
                values[res] = val
            elif values[res] != val:
                raise TheoremViolation(f"conjugate labels disagree: {(D, i)}")
    return forms.DTable(D, tuple(values))


def fraction_square(m, c):
    """c M^-1 c^T as a sum of Fraction terms over the Gauss-Jordan inverse."""
    inv = fraction_inverse(m)
    return sum(Fraction(c[i]) * inv[i][j] * c[j]
               for i in range(len(c)) for j in range(len(c)))


@lru_cache(maxsize=None)
def norm_vectors(norm, k):
    if k == 0:
        return ((),) if norm == 0 else ()
    out = []
    for v in range(-isqrt(norm), isqrt(norm) + 1):
        for rest in norm_vectors(norm - v * v, k - 1):
            out.append((v,) + rest)
    return tuple(out)


def exhaustive_criterion(g_matrix, n):
    """All witness matrices by plain nested loops over norm vectors.

    No canonical-order pruning and no backtracking heuristics: rows are
    drawn from full norm pools and every Gram pair is checked at the end.
    Only feasible for rank <= 2 forms.
    """
    r = len(g_matrix)
    size = r + 2
    y = (1, -1) + (0,) * r
    sols = []
    pools = [norm_vectors(-g_matrix[i][i], size) for i in range(r)]
    x_pool = [x for x in norm_vectors(n, size) if x[0] == 0 and x[1] == 1
              and all(v >= 0 for v in x[2:])
              and all(x[i] <= x[i + 1] for i in range(2, size - 1))]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def rec(rows):
        if len(rows) == r:
            for x in x_pool:
                a = tuple(rows) + (x, y)
                ok = all(dot(a[i], a[j]) == -(g_matrix[i][j] if i < r and j < r
                                              else 0)
                         for i in range(r) for j in range(r))
                ok = ok and all(dot(rows[i], x) == 0 and dot(rows[i], y) == 0
                                for i in range(r))
                ok = ok and dot(x, y) == -1
                if ok and abs(linalg.det(tuple(row[2:] for row in rows))) == 1:
                    sols.append(a)
            return
        i = len(rows)
        for cand in pools[i]:
            if all(dot(cand, rows[j]) == -g_matrix[i][j] for j in range(i)):
                rec(rows + [cand])

    rec([])
    return sols


def linking_form_refutation(g_matrix, n):
    """Why the discriminant form of P = -G rules out every witness, or None.

    The group P^-1 Z^r / Z^r is listed in Fractions: each column c of P^-1
    extends the subgroup H listed so far to the cosets H + k c, for k up
    to the first multiple of c in H.  A witness makes P isometric to
    I + 2 xbar xbar^T, whose group is cyclic of order D = 2n - 1 with a
    generator of square -2/D mod 1.  So "non-cyclic" when no element has
    order D; else, with g one element of order D, the generators are the
    k g with k prime to D, of squares k^2 (g P g^T), and "linking form"
    when none of those is -2/D mod 1; None otherwise.
    """
    p = linalg.neg(g_matrix)
    r, d = len(p), 2 * n - 1
    group = [(Fraction(0),) * r]
    members = set(group)
    for col in zip(*fraction_inverse(p)):
        multiples = [group[0]]
        while True:
            step = tuple((a + b) % 1 for a, b in zip(multiples[-1], col))
            if step in members:
                break
            multiples.append(step)
        cosets = [tuple((a + b) % 1 for a, b in zip(h, m))
                  for m in multiples[1:] for h in group]
        group += cosets
        members.update(cosets)
    if len(members) != len(group) or len(group) != d:
        raise ValueError("determinant of the form does not equal 2n - 1")
    g = next((g for g in group if lcm(*(x.denominator for x in g)) == d),
             None)
    if g is None:
        return "non-cyclic"
    square = sum(g[i] * p[i][j] * g[j] for i in range(r) for j in range(r))
    if any(k * k * square % 1 == Fraction(-2, d) % 1
           for k in range(1, d) if gcd(k, d) == 1):
        return None
    return "linking form"


def signed_column_canonical(b):
    """Columns of b, each made its larger sign, sorted in decreasing order.

    This is the canonical form of b under signed column permutations.
    """
    cols = [max(col, tuple(-v for v in col)) for col in zip(*b)]
    return tuple(sorted(cols, reverse=True))


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def _balanced_word_classes(r):
    """Balanced words with sum b = r, up to rotation and cycle reversal."""
    seen = set()
    out = []
    for a_parts in compositions(r):
        for b_parts in compositions(r):
            if len(a_parts) != len(b_parts):
                continue
            pairs = tuple(zip(a_parts, b_parts))
            m = len(pairs)
            variants = [tuple(pairs[(s + t) % m] for t in range(m))
                        for s in range(m)]
            rev = tuple((pairs[i][0], pairs[i - 1][1])
                        for i in range(m - 1, -1, -1))
            variants += [tuple(rev[(s + t) % m] for t in range(m))
                         for s in range(m)]
            key = min(variants)
            if key not in seen:
                seen.add(key)
                out.append(pairs)
    return out


@lru_cache(maxsize=None)
def _headed_pool(diag, tail_len, head):
    rem = diag - head[0] ** 2 - head[1] ** 2
    if rem < 0:
        return ()
    return tuple(head + t for t in norm_vectors(rem, tail_len))


def is_balanced(pe):
    """Whether the underlying word has equal exponent sums (sum a = sum b)."""
    a_seq, b_seq = xp.goeritz_parameters(pe)
    return sum(a_seq) == sum(b_seq)


def contract(pe, s, keep=None):
    """Delete a norm-2 cycle row, merging its two columns' roles.

    The inverse of an expansion move.  The row must have entries one +1
    and one -1, the rank must exceed 2, and the local column pattern must
    match one of three move kinds: kind 1 and kind 3 undo the library's
    expansions, kind 2 removes a doubled-entry pattern that the seeds
    never generate.  For kind 1 `keep` names the row keeping its entry
    (default: a row of square less than -2).
    """
    rows = [list(r) for r in pe.rows]
    v_count = len(rows) - 1
    if not 0 <= s < v_count:
        raise ValueError("can only contract a cycle row")
    if v_count <= 2:
        raise ValueError("contraction needs r > 2")
    row = rows[s]
    if sorted(v for v in row if v) != [-1, 1]:
        raise ValueError("row must have square -2")
    p = row.index(1)
    q = row.index(-1)
    if p < 2 or q < 2:
        raise ValueError("marked rows never contract")
    p_support = [t for t, rr in enumerate(rows) if rr[p] and t != s]
    q_support = [t for t, rr in enumerate(rows) if rr[q] and t != s]
    if not p_support:
        plus = [t for t in q_support if rows[t][q] == 1]
        if sorted(rows[t][q] for t in q_support) != [1, 1]:
            raise ValueError("kind-1 pattern needs two 1 entries beside the -1")
        if keep is None:
            heavy = [t for t in plus
                     if sum(v * v for v in rows[t]) > 2]
            keep = heavy[0] if heavy else plus[0]
        if keep not in plus:
            raise ValueError("keep must be one of the two 1-entry rows")
        drop = plus[0] if plus[1] == keep else plus[1]
        rows[drop][q] = 0
    elif sorted(rows[t][q] for t in q_support) == [2]:
        # kind 2: the doubled entry stays, the -1 moves across
        b = [t for t in p_support if rows[t][p] == -1]
        if len(b) != 1 or sorted(rows[t][p] for t in p_support) != [-1, 1]:
            raise ValueError("kind-2 pattern mismatch around the pivot")
        rows[b[0]][q] = -1
    else:
        # kind 3: column q holds (1, 1); column p holds (1, -1) on c and b
        if sorted(rows[t][q] for t in q_support) != [1, 1]:
            raise ValueError("unrecognized contraction pattern")
        b = [t for t in p_support if rows[t][p] == -1]
        c = [t for t in p_support if rows[t][p] == 1]
        if len(b) != 1 or len(c) != 1 or c[0] not in q_support:
            raise ValueError("kind-3 pattern mismatch around the pivot")
        rows[b[0]][q] = -1
    del rows[s]
    for rr in rows:
        del rr[p]
    return xp._validate(xp.PartialEmbedding(tuple(tuple(r) for r in rows)))


def permutation_canonical_form(pe):
    """Least key of a partial witness over all r! cycle-row orders.

    The key of one order is its two head columns sorted, then its tail
    columns in decreasing order; y stays last.  Any heads are accepted.
    """
    v = pe.v_rows
    best = None
    for perm in permutations(range(len(v))):
        cols = list(zip(*[v[p] for p in perm], pe.y_row))
        key = tuple(sorted(cols[:2]) + sorted(cols[2:], reverse=True))
        if best is None or key < best:
            best = key
    return best


def pinned_canonical_form(pe):
    """canonical_form over the 2 (r-2)! pinned orders, whole keys compared.

    Tries (i, mid..., j) and (j, mid..., i) for the marked rows i, j and
    keeps the least full key, head columns and y included.
    """
    v = pe.v_rows
    i, j = pe.marked_rows()
    mid = [row for t, row in enumerate(v) if t not in (i, j)]
    if any(row[:2] != (0, 0) for row in mid):
        raise ValueError("heads away from the marked rows must be (0, 0)")
    y = pe.y_row
    best = None
    for first, last in ((v[i], v[j]), (v[j], v[i])):
        for perm in permutations(mid):
            cols = list(zip(first, *perm, last, y))
            key = tuple(sorted(cols[:2]) + sorted(cols[2:], reverse=True))
            if best is None or key < best:
                best = key
    return best


def expand(pe, step):
    """Apply one expansion move, growing the rank by one.

    kind 1: a column supported only on row `a` (entry 1) splits; row `b`
            (pairing with `a` at least 1) picks up a new entry.
    kind 3: a column with entries +1 on `a` and `c` and -1 on `b` splits.
    Any other kind is a ValueError, and so is a child that is not a
    member: a malformed parent is refused here, not passed on.
    """
    return xp._validate(xp._grow(pe, step))


def kind1_keys(r):
    """Keys of the rank-r members grown from the rank-2 seeds by kind 1 alone.

    Every layer is regenerated from the seeds, and every expansion is keyed
    by `pinned_canonical_form`, with no shape key and no sharing.
    """
    layer = {}
    for pe in xp.SEED_M1, xp.SEED_M2:
        layer.setdefault(pinned_canonical_form(pe), pe)
    for _ in range(2, r):
        grown = {}
        for pe in layer.values():
            for step in xp._expansion_steps(pe):
                if step.kind == 1:
                    child = expand(pe, step)
                    grown.setdefault(pinned_canonical_form(child), child)
        layer = grown
    return frozenset(layer)


def brute_balanced(r):
    """Partial witnesses over all balanced words, solved from scratch.

    Enforces the definition directly: Gram = Goeritz + (-2), columns sum
    to one, meridian row (1, 1, 0, ...), and the marked-head structure
    (one row starting (1, -1), one starting (-1, 1), zeros elsewhere).
    Returns a dict permutation_canonical_form -> member.

    Tail columns permute freely within a class, so only members whose
    tail columns are in nonincreasing order, read down the rows in the
    order they are placed, are solved for: every class has one.  Each
    partial member keeps its tail columns nonincreasing so far, the ties
    marking the adjacent columns still equal.
    """
    width = r + 2
    found = {}
    heads = ((0, 0), (1, -1), (-1, 1))
    for pairs in _balanced_word_classes(r):
        word = AltBraidWord(pairs)
        g = goeritz_3braid(word).matrix
        diag0 = [-g[i][i] for i in range(r)]
        start = min(range(r), key=lambda i: diag0[i])
        order = [(start + t) % r for t in range(r)]
        diag = [diag0[i] for i in order]
        tgt = [[-g[order[k]][order[t]] for t in range(r)] for k in range(r)]
        bound = [0] * (r + 1)
        for k in range(r - 1, -1, -1):
            bound[k] = bound[k + 1] + isqrt(diag[k])
        colsum_target = [0, 0] + [1] * r
        rows = []

        def rec(k, used_pos, used_neg, colsums, ties):
            if k == r:
                if used_pos and used_neg and list(colsums) == colsum_target:
                    ordered = [None] * r
                    for t, row in enumerate(rows):
                        ordered[order[t]] = row
                    pe = xp.PartialEmbedding(
                        tuple(ordered) + ((1, 1) + (0,) * r,))
                    found.setdefault(permutation_canonical_form(pe), pe)
                return
            for head in heads:
                if head == (1, -1) and used_pos:
                    continue
                if head == (-1, 1) and used_neg:
                    continue
                for cand in _headed_pool(diag[k], width - 2, head):
                    bad = False
                    for t in range(k):
                        if sum(map(mul, cand, rows[t])) != tgt[k][t]:
                            bad = True
                            break
                    if not bad:
                        for j in range(width):
                            if abs(colsum_target[j] - colsums[j] - cand[j]) \
                                    > bound[k + 1]:
                                bad = True
                                break
                    if bad or any(tie and cand[c] < cand[c + 1]
                                  for c, tie in enumerate(ties)):
                        continue
                    rows.append(cand)
                    rec(k + 1, used_pos or head == (1, -1),
                        used_neg or head == (-1, 1),
                        [a + b for a, b in zip(colsums, cand)],
                        [tie and cand[c] == cand[c + 1]
                         for c, tie in enumerate(ties)])
                    rows.pop()

        # ties[c] for c >= 2: tail columns c and c + 1 agree so far
        rec(0, False, False, [0] * width,
            [False, False] + [True] * (width - 3))
    return found


def retired_x_tails(r, target, change_making):
    """Nondecreasing nonnegative r-tuples with squares summing to target.

    The retired form of embed._x_tails: uncached, pruning each prefix by
    the change-making chain when change_making is set."""
    out = []

    def rec(prefix, sumsq):
        slots = r - len(prefix)
        if slots == 0:
            if sumsq == target:
                out.append(tuple(prefix))
            return
        v = prefix[-1] if prefix else 0
        # entries are nondecreasing, so every remaining slot is at least v
        while sumsq + v * v * slots <= target:
            if change_making and not embed.change_making_ok(prefix + [v]):
                break
            rec(prefix + [v], sumsq + v * v)
            v += 1

    rec([], 0)
    return out


def retired_row_candidates(diag, xbar):
    """Rows c with |c|^2 + 2 (c . xbar)^2 == diag, as tuples.

    These are the possible truncated cycle rows of a witness for the given
    x tail: the first two (equal) entries of the full row are forced to
    -(c . xbar), and the diagonal Gram entry prescribes the total.
    """
    r = len(xbar)
    order = sorted(range(r), key=lambda j: -xbar[j])
    first_zero = next((t for t in range(r) if xbar[order[t]] == 0), r)
    out = []
    entries = [0] * r

    def rec(idx, q, s):
        if q > diag:
            return
        if idx == first_zero:
            need = diag - q - 2 * s * s
            if need < 0:
                return
            zcols = order[idx:]
            for vec in norm_vectors(need, len(zcols)):
                for j, v in zip(zcols, vec):
                    entries[j] = v
                out.append(tuple(entries))
            for j in zcols:
                entries[j] = 0
            return
        j = order[idx]
        b = isqrt(diag - q)
        for v in range(-b, b + 1):
            entries[j] = v
            rec(idx + 1, q + v * v, s + v * xbar[j])
        entries[j] = 0

    rec(0, 0, 0)
    return tuple(out)


def retired_embed_form(m, n_cols):
    """All embeddings of a negative definite form in the standard lattice.

    Returns every k x n integer matrix B with -B B^T = M, one canonical
    representative per signed column permutation class, deterministically
    ordered.  An empty result is the diagonalization obstruction firing.
    A matrix that is not negative definite raises ValueError.
    """
    m = linalg.freeze(m)
    if not linalg.is_negative_definite(m):
        raise ValueError("matrix is not negative definite")
    k = len(m)
    if type(n_cols) is not int:
        raise ValueError(f"target rank {n_cols!r} is not an integer")
    if n_cols < k:
        raise ValueError("target rank below the rank of the form")
    diag = [-m[i][i] for i in range(k)]
    target = [[-m[i][j] for j in range(k)] for i in range(k)]
    results = []
    rows = []

    def candidates(i):
        """Rows extending `rows` that keep columns canonical.

        Columns must stay lexicographically nonincreasing (reading down),
        with each column's first nonzero entry positive: within a run of
        columns equal so far the new entries must be nonincreasing, and a
        new entry in an all-zero column must be nonnegative.  So every
        complete matrix is already the canonical representative of its
        signed column permutation class, and no two are in one class.
        """
        prefixes = list(zip(*rows)) if rows else [()] * n_cols
        out = []
        entry = [0] * n_cols

        def rec(j, q):
            if j == n_cols:
                if q == diag[i]:
                    cand = tuple(entry)
                    if all(sum(a * b for a, b in zip(cand, rows[t])) == target[i][t]
                           for t in range(i)):
                        out.append(cand)
                return
            b = isqrt(diag[i] - q)
            lo, hi = -b, b
            if j > 0 and prefixes[j] == prefixes[j - 1]:
                hi = min(hi, entry[j - 1])
            if not any(prefixes[j]):
                lo = 0
            for v in range(hi, lo - 1, -1):
                entry[j] = v
                rec(j + 1, q + v * v)
            entry[j] = 0

        rec(0, 0)
        return out

    def rec_rows(i):
        if i == k:
            results.append(tuple(rows))
            return
        for cand in candidates(i):
            rows.append(cand)
            rec_rows(i + 1)
            rows.pop()

    rec_rows(0)
    return tuple(sorted(results, key=lambda b: tuple(zip(*b))))


def retired_canonical_columns(c_rows, xbar):
    """Canonicalize the tail columns under the stabilizer of the x row.

    Columns with equal x values may be permuted; columns with x value zero
    may also be negated.  Within each block, sign-normalize then sort.
    """
    r = len(xbar)
    cols = list(zip(*c_rows)) if c_rows else [() for _ in range(r)]
    blocks = {}
    for j in range(r):
        blocks.setdefault(xbar[j], []).append(j)
    ordered = []
    for x_val in sorted(blocks):
        group = []
        for j in blocks[x_val]:
            col = cols[j]
            if x_val == 0:
                col = max(col, tuple(-v for v in col))
            group.append(col)
        ordered.extend(sorted(group, reverse=True))
    return tuple(ordered)


def retired_witness_key(c_rows, z, xbar, auts):
    """Dedup key under every symmetry that preserves the witness shape.

    Besides tail column moves and G-preserving row permutations, the key
    quotients by the global flip (z, c) -> (-z, -c): it realizes the base
    change x -> -(x + y) on the surgery block followed by the column
    renormalization, so flipped solutions are the same embedding.
    """
    best = None
    for sign in (1, -1):
        sc = tuple(tuple(sign * v for v in row) for row in c_rows)
        sz = tuple(sign * v for v in z)
        for p in auts:
            pc = tuple(sc[p[i]] for i in range(len(sc)))
            pz = tuple(sz[p[i]] for i in range(len(sz)))
            key = (pz, retired_canonical_columns(pc, xbar))
            if best is None or key < best:
                best = key
    return (xbar, best)


def witness_class_key(a, g_matrix):
    """The library's class key (embed._witness_key) of an embedding matrix."""
    z = tuple(row[0] for row in a.v_rows)
    return embed._witness_key(z, a.rows[-2][2:],
                              embed.form_automorphisms(g_matrix))


def retired_criterion_search(form, n, change_making=True):
    """embed.criterion_search as a plain backtracker, kept as its oracle.

    Every node scans the whole candidate pool of its row, recomputes
    z = -c . xbar for each candidate and checks the earlier rows in
    placement order.  Same answers, same order, same representatives.
    """
    matrix = form.matrix if isinstance(form, GoeritzForm) else linalg.freeze(form)
    r = len(matrix)
    if n < 2:
        raise ValueError("need n >= 2 (determinant at least 3)")
    if abs(linalg.det(matrix)) != 2 * n - 1:
        raise ValueError("determinant of the form does not equal 2n - 1")
    diag = [-matrix[i][i] for i in range(r)]
    target = [[-matrix[i][j] for j in range(r)] for i in range(r)]
    auts = embed.form_automorphisms(matrix)

    # contiguity-first row order: start at the largest diagonal, then always
    # extend by the unassigned row with the most assigned neighbours
    order = [max(range(r), key=lambda i: diag[i])]
    while len(order) < r:
        rest = [i for i in range(r) if i not in order]
        order.append(max(rest, key=lambda i: (
            sum(1 for j in order if matrix[i][j] != 0), diag[i])))

    found = {}
    for xbar in embed._x_tails(r, n - 1, change_making):
        pools = {d: embed._row_candidates(d, xbar) for d in set(diag)}
        rows = [None] * r
        zs = [None] * r

        def rec(t):
            if t == r:
                c_rows = tuple(rows)
                if abs(linalg.det(c_rows)) != 1:
                    return
                key = retired_witness_key(c_rows, tuple(zs), xbar, auts)
                if key not in found:
                    a = embed.EmbeddingMatrix(
                        tuple((z, z) + c for z, c in zip(zs, c_rows))
                        + ((0, 1) + xbar, (1, -1) + (0,) * r))
                    embed._check_witness(a, matrix, n)
                    found[key] = a
                return
            i = order[t]
            for cand in pools[diag[i]]:
                z = -sum(c * x for c, x in zip(cand, xbar))
                ok = True
                for t2 in range(t):
                    j = order[t2]
                    dot = sum(a * b for a, b in zip(cand, rows[j])) + 2 * z * zs[j]
                    if dot != target[i][j]:
                        ok = False
                        break
                if ok:
                    rows[i], zs[i] = cand, z
                    rec(t + 1)
                    rows[i], zs[i] = None, None

        rec(0)
    return tuple(found[k] for k in sorted(found))


def retired_goeritz_parameters(pe):
    """Word parameters ((a_i), (b_i)) read off -B B^T, or a ValueError.

    The cycle order of the rows is recovered from the adjacency pattern;
    membership in the partial witness family is exactly this succeeding
    together with the column sums and the meridian row checks.
    """
    rows = pe.rows
    width = len(rows[0])
    if any(len(row) != width for row in rows) or width != len(rows) + 1:
        raise ValueError("shape must be (r+1) x (r+2)")
    if pe.y_row != (1, 1) + (0,) * (width - 2):
        raise ValueError("meridian row must be (1, 1, 0, ..., 0)")
    for j, total in enumerate(map(sum, zip(*rows))):
        if total != 1:
            raise ValueError(f"column {j} does not sum to 1")
    r = pe.r
    cycle = pe.v_rows
    gram = [[-sum(map(mul, u, w)) for w in cycle] for u in cycle]
    # y = (1, 1, 0, ..., 0), so the pairing with y is -(u_0 + u_1)
    if any(u[0] + u[1] for u in cycle):
        raise ValueError("meridian row is not orthogonal to the cycle rows")
    if r < 2:
        raise ValueError("need r >= 2")
    if r == 2:
        if gram[0][1] != 2:
            raise ValueError("r = 2 needs a doubled edge")
        a = [-gram[i][i] - 2 for i in range(2)]
        if min(a) < 0 or max(a) < 1:
            raise ValueError("invalid diagonal")
        if min(a) == 0:
            return ((max(a),), (2,))
        return (tuple(a), (1, 1))
    # rebuild the cycle from the off-diagonal 1s
    nbrs = [[j for j in range(r) if j != i and gram[i][j] == 1] for i in range(r)]
    if any(len(nb) != 2 for nb in nbrs):
        raise ValueError("cycle rows do not form an r-cycle")
    for i in range(r):
        for j in range(r):
            if j != i and gram[i][j] not in (0, 1):
                raise ValueError("off-diagonal entries must be 0 or 1")
    # a walk through r distinct vertices of degree 2 closes up by itself:
    # the adjacency is symmetric, so the last vertex's second neighbour
    # can only be the start
    order = [0, nbrs[0][0]]
    while len(order) < r:
        prev, cur = order[-2], order[-1]
        nxt = nbrs[cur][0] if nbrs[cur][0] != prev else nbrs[cur][1]
        if nxt in order:
            raise ValueError("adjacency is not a single cycle")
        order.append(nxt)
    diag = [-gram[i][i] for i in order]
    if any(d < 2 for d in diag):
        raise ValueError("diagonal entries must be at most -2")
    # there is always a hub: the cycle rows sum to (0, 0, 1, ..., 1) and
    # each pairs to 1 with two others and to 0 with the rest, so the
    # square r of that sum is sum(diag) - 2r, and sum(diag) = 3r > 2r
    hubs = [t for t in range(r) if diag[t] > 2]
    # block t runs from hub t to the next, the last wrapping round
    b_seq = [b - a for a, b in zip(hubs, hubs[1:] + [hubs[0] + r])]
    return (tuple(diag[h] - 2 for h in hubs), tuple(b_seq))


# --- the backward generator of unknotting diagrams -----------------------

@dataclass(frozen=True)
class TaggedDiagram:
    """An alternating word together with one unknotting crossing."""

    word: AltBraidWord
    crossing: CrossingRef


def canonical_tag(tag):
    """Least representative of a tagged diagram under swap/mirror/rotation.

    On the block exponents (a_1, b_1, ..., a_m, b_m) these act as the
    dihedral group: a rotation of the word shifts the sequence by two
    blocks, the generator swap by one, and the mirror reverses it, block
    L going to 2m - 1 - L.  Over every rotation of the sequence and of
    its reversal, the least (pairs, marked block) is kept whose pairs are
    their own canonical rotation.  Crossings inside one block are
    interchangeable, so slot 0 stands for the marked block.  A crossing
    outside the diagram raises IndexError, as in change_crossing.
    """
    exps = tuple(e for pair in tag.word.pairs for e in pair)
    n, mark = len(exps), tag.crossing.letter_index
    if not 0 <= mark < n:
        raise IndexError("crossing letter out of range")
    if not 0 <= tag.crossing.strand_slot < exps[mark]:
        raise IndexError("crossing slot out of range")
    keys = []
    for seq, at in ((exps, mark), (exps[::-1], n - 1 - mark)):
        for s in range(n):
            rot = seq[s:] + seq[:s]
            pairs = tuple(zip(rot[::2], rot[1::2]))
            if AltBraidWord.canonical(pairs).pairs == pairs:
                keys.append((pairs, (at - s) % n))
    pairs, letter = min(keys)
    return TaggedDiagram(AltBraidWord(pairs), CrossingRef(letter, 0))


def enumerate_unknotting_words(max_total_exponent):
    """Every alternating diagram with an unknotting crossing, up to symmetry.

    Words are produced by running the unknot rewriting backwards: seed with
    s1^-1 s2 (plus a cancelling pair inserted somewhere) or s1 s2, then
    apply the two reverse substitutions breadth-first while the crossing
    count stays within the bound.  Each almost-alternating word found is
    converted to its alternating diagram with the changed crossing tagged;
    the output is deduplicated under rotation, generator swap and mirror.
    """
    if type(max_total_exponent) is not int:
        raise ValueError(f"bound {max_total_exponent!r} is not an integer")
    if max_total_exponent < 2:
        raise ValueError("bound must be at least 2")
    seeds = set()
    base = (-1, 2)
    for gap in range(2):
        for pair in ((1, -1), (-1, 1)):
            s = list(base[:gap + 1]) + list(pair) + list(base[gap + 1:])
            seeds.add(braid._least_rotation(s))
    seeds.add((1, 2))

    seen = set(seeds)
    frontier = sorted(seeds)
    words = list(frontier)
    while frontier:
        nxt = []
        for syms in frontier:
            if len(syms) + 2 > max_total_exponent:
                continue
            for p in range(len(syms)):
                # grow: occurrences of the short side
                for pat, short in braid._PATTERNS:
                    grown = braid._rewrite_at(syms, p, short, pat)
                    if grown is None:
                        continue
                    key = braid._least_rotation(grown)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
                        words.append(key)
        frontier = sorted(nxt)

    tagged = set()
    for syms in words:
        if len(syms) > max_total_exponent:
            continue
        # the changed crossing, changed back, starts the word, so it is in
        # block 0; only s1^-1 and s2 crossings remain, and both occur
        mark = syms.index(1)
        pairs = braid._alt_pairs((-1,) + syms[mark + 1:] + syms[:mark])
        tagged.add(canonical_tag(TaggedDiagram(AltBraidWord(pairs),
                                               CrossingRef(0, 0))))
    return tuple(sorted(tagged, key=lambda t: (t.word.pairs,
                                                t.crossing.letter_index)))


_SWAPMAP = {-1: 2, 2: -1, 1: -2, -2: 1}


def _marked_transform(syms, mark, op):
    """Apply 'swap' / 'mirror' to marked crossings; mark follows its crossing."""
    if op == "swap":
        return [_SWAPMAP[s] for s in syms], mark
    if op == "mirror":
        return [_SWAPMAP[s] for s in reversed(syms)], len(syms) - 1 - mark
    raise ValueError(op)


def _tagged_from_marked(syms, mark):
    """Canonical TaggedDiagram from alternating crossings with one marked.

    When the word has a cyclic symmetry the mark is pushed to the least
    equivalent position, so rotation-equivalent inputs collapse.
    """
    word = alt_canonical(word_from_symbols(syms, cyclic=True))
    if word is None:
        return None
    target = symbols_of(word.raw())
    n = len(syms)
    positions = [(mark - off) % n for off in range(n)
                 if tuple(syms[(off + i) % n] for i in range(n)) == target]
    if not positions:
        raise TheoremViolation("mark tracking lost")
    letter, _ = _letter_of_crossing(word, min(positions))
    # crossings inside one block are interchangeable; slot 0 represents them
    return TaggedDiagram(word, CrossingRef(letter, 0))


def _letter_of_crossing(word, pos):
    at = 0
    for idx, (_, e) in enumerate(word.raw().letters):
        if pos < at + abs(e):
            return idx, pos - at
        at += abs(e)
    raise IndexError(pos)


def _diagram_orbit(tag):
    """Orbit of a tagged diagram under the swap and mirror symmetries."""
    syms = list(symbols_of(tag.word.raw()))
    base = sum(abs(e) for _, e in tag.word.raw().letters[:tag.crossing.letter_index])
    mark = base + tag.crossing.strand_slot
    orbit = []
    for ops in ((), ("swap",), ("mirror",), ("swap", "mirror")):
        s, m = syms, mark
        for op in ops:
            s, m = _marked_transform(s, m, op)
        orbit.append(_tagged_from_marked(s, m))
    return orbit


def _tag_key(tag):
    return (tag.word.pairs, tag.crossing.letter_index, tag.crossing.strand_slot)


def retired_canonical_tag(tag):
    """Least representative of a tagged diagram under swap/mirror/rotation."""
    return min(_diagram_orbit(tag), key=_tag_key)


def retired_grow(pe, step):
    """expand's move with every argument check but no membership check."""
    rows = [list(r) for r in pe.rows]
    width = len(rows[0])
    v_count = len(rows) - 1
    a, b, col = step.a, step.b, step.col
    if not (0 <= a < v_count and 0 <= b < v_count and a != b):
        raise ValueError("row roles out of range")
    if col < 2:
        raise ValueError("the first two columns never split")
    if pe.pairing(a, b) < 1:
        raise ValueError("rows must pair at least 1")
    support = [t for t, row in enumerate(rows) if row[col]]
    for row in rows:
        row.append(0)
    new_row = [0] * (width + 1)
    new_row[-1], new_row[col] = 1, -1
    if step.kind == 1:
        if support != [a] or rows[a][col] != 1:
            raise ValueError("kind-1 column must be supported on row a with a 1")
        rows[b][col] += 1
    elif step.kind == 3:
        c = step.c
        if c is None or c in (a, b) or not 0 <= c < v_count:
            raise ValueError("kind 3 needs a distinct third row")
        if sorted(support) != sorted((a, b, c)):
            raise ValueError("kind-3 column must be supported on rows a, b, c")
        if rows[a][col] != 1 or rows[c][col] != 1 or rows[b][col] != -1:
            raise ValueError("kind-3 column pattern is (1, 1, -1)")
        rows[b][col] = 0
        rows[b][-1] = -1
        rows[c][-1] = 1
    else:
        raise ValueError(f"unknown expansion kind {step.kind}")
    rows.insert(v_count, new_row)
    return xp.PartialEmbedding(tuple(tuple(r) for r in rows))


def retired_expansion_steps(pe):
    """Every kind-1 and kind-3 move applicable to a partial witness."""
    rows = pe.rows
    v_count = pe.r
    width = len(rows[0])
    steps = []
    supports = []
    for col in range(2, width):
        supports.append((col, [t for t in range(v_count) if rows[t][col]]))
    # the ordered pairs of distinct rows pairing at least 1, each pairing
    # computed once; sorted, they come in the order of a loop over a, b
    paired = sorted(pair for a in range(v_count) for b in range(a + 1, v_count)
                    if pe.pairing(a, b) >= 1 for pair in ((a, b), (b, a)))
    for a, b in paired:
        for col, sup in supports:
            if sup == [a] and rows[a][col] == 1:
                steps.append(xp.ExpansionStep(1, a, b, col))
            if len(sup) == 3 and a in sup and b in sup and rows[a][col] == 1 \
                    and rows[b][col] == -1:
                c = next(t for t in sup if t not in (a, b))
                if rows[c][col] == 1:
                    steps.append(xp.ExpansionStep(3, a, b, col, c))
    return steps


def retired_shape_key(pe):
    """Sorted tail columns, middle rows sorted, of the least orientation.

    The middle rows are put in sorted order between the marked rows, in
    both orientations (i, mid..., j) and (j, mid..., i), and the smaller
    of the two sorted lists of tail columns is the key.
    """
    v = pe.v_rows
    i, j = pe.marked_rows()
    mid = sorted(row[2:] for t, row in enumerate(v) if t not in (i, j))
    return tuple(min(sorted(zip(v[i][2:], *mid, v[j][2:])),
                     sorted(zip(v[j][2:], *mid, v[i][2:]))))


def retired_class_key(pe):
    """A complete invariant of canonical_form's class, without its search.

    Each middle row gets a signature that column moves keep: its sorted
    tail and its pairings with the two marked rows, the first of the
    orientation first.  In each orientation (i, mid..., j) and
    (j, mid..., i) the middle rows are ordered by signature, tied rows in
    every order, and the key is the least sorted list of tail columns.
    """
    v = pe.v_rows
    i, j = pe.marked_rows()
    mid = [(tuple(sorted(row[2:])), pe.pairing(i, t), pe.pairing(j, t),
            row[2:]) for t, row in enumerate(v) if t not in (i, j)]
    best = None
    for first, last, sigs in ((i, j, mid),
                              (j, i, [(s, q, p, row) for s, p, q, row in mid])):
        groups = [[row for *_, row in group] for _, group
                  in groupby(sorted(sigs), key=itemgetter(0, 1, 2))]
        for order in product(*map(permutations, groups)):
            key = sorted(zip(v[first][2:], *chain(*order), v[last][2:]))
            if best is None or key < best:
                best = key
    return tuple(best)


def retired_alt_canonical(pairs):
    """The rotation whose signed exponent sequence (-a1, b1, ...) is least."""
    pairs = tuple((int(a), int(b)) for a, b in pairs)
    if not pairs:
        raise ValueError("alternating word needs m >= 1")
    m = len(pairs)
    best = min(range(m), key=lambda s: tuple(
        (-pairs[(s + i) % m][0], pairs[(s + i) % m][1]) for i in range(m)))
    return AltBraidWord(tuple(pairs[(best + i) % m] for i in range(m)))


def halfint_symmetry_test(table):
    """Correction-term symmetry test against the unknot table of the same D.

    True iff some unit relabelling i -> u*i of the candidate table makes
    the differences against the table of -D/2 surgery on the unknot
    symmetric about k, where D = 2n - 1 >= 3 and n = 2k or 2k + 1; label 0
    joins the checks only for odd n.  Quantifying over units keeps the
    obstruction conservative: a False here is certain.
    """
    D = table.determinant
    return forms._symmetric(table.quarters, forms._unknot_quarters(D), D)


def retired_halfint_symmetry_test(table, unknot):
    """Correction-term symmetry test against the unknot table.

    `unknot` is d_table_halfint_unknot(D) for the table's determinant D.
    True iff some unit relabelling i -> u*i of the candidate table makes
    the differences against the unknot table symmetric about k, where
    D = 2n - 1 and n = 2k or 2k + 1; label 0 joins the checks only for odd
    n.  Quantifying over units keeps the obstruction conservative: a False
    here is certain.
    """
    D = unknot.determinant
    if table.determinant != D:
        raise ValueError("table determinant mismatch")
    n = (D + 1) // 2
    k = n // 2
    idxs = list(range(1, k + 1))
    if n % 2 == 1:
        idxs.append(0)
    for u in range(1, D):
        if gcd(u, D) != 1:
            continue
        if all(table.values[u * i % D] - unknot.values[i]
               == table.values[u * (2 * k - i) % D] - unknot.values[2 * k - i]
               for i in idxs):
            return True
    return False


def retired_symmetry_sides(m):
    """The symmetry test on both orientations of the sharp table of m.

    Returns {"table": bool, "negated": bool}; the caller picks the side.
    Both sides are tested against one unknot table.
    """
    table = forms.d_table_sharp(m)
    d = table.determinant
    negated = forms.DTable(d, tuple(-v for v in table.values))
    unknot = forms.d_table_halfint_unknot(d)
    return {"table": retired_halfint_symmetry_test(table, unknot),
            "negated": retired_halfint_symmetry_test(negated, unknot)}


PRETZEL_A1 = (
    (1, -1, 0, 0, 0),
    (0, 1, -1, 0, 0),
    (0, 0, 1, -1, 0),
    (0, 0, 0, 1, -1),
    (-1, -1, -1, 0, 0),
)

PRETZEL_A2 = (
    (1, -1, 0, 0, 0, 0),
    (0, 1, -1, 0, 0, 0),
    (0, 0, 1, -1, 0, 0),
    (0, 0, 0, 1, -1, 0),
    (0, 0, 0, 1, 1, 1),
)


def pretzel_embedding(which, n):
    """The displayed pretzel embedding, padded with zero columns to width n."""
    base = {1: PRETZEL_A1, 2: PRETZEL_A2}[which]
    width = len(base[0])
    if n < width:
        raise ValueError(f"embedding {which} needs at least {width} columns")
    return tuple(row + (0,) * (n - width) for row in base)
