"""Lattice embedding search and the full unknotting-number-one pipeline.

The obstruction: if the closure of an alternating word has unknotting
number one (signature 0 or 2 after mirroring, determinant 2n-1), then
some integer matrix A satisfies -A A^T = G + R_n, where G is the Goeritz
form, R_n the twist knot form, and the last two rows of A are
x = (0, 1, x_3, ..., x_{r+2}) and y = (1, -1, 0, ..., 0) with the sorted
nonnegative tail of x obeying the change-making chain; the upper-right
r x r block C has determinant +-1.  The search below enumerates every
solution up to the residual symmetries: signed permutations of the tail
columns fixing x, permutations of rows preserving G, and the surgery
block's base change x -> -(x + y), which flips the first two columns.

A witness is more than an obstruction failing: column normalization turns
it into an explicit crossing of the diagram, and changing that crossing is
independently checked to give the unknot.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from operator import mul

from . import linalg
from .braid import AltBraidWord, CrossingRef, crossing_change_unknots
from .forms import symmetry_sides, twist_knot_form
from .goeritz import (GoeritzForm, determinant, goeritz_3braid,
                      invariants_and_form, mirror_word, signature_normal_form)
from .linalg import TheoremViolation


@dataclass(frozen=True)
class EmbeddingMatrix:
    """(r+2) x (r+2) integer matrix with rows v_1..v_r, x, y.

    r is read off the rows: every row but the last two is a cycle row.
    """

    rows: tuple

    @property
    def r(self):
        return len(self.rows) - 2

    @property
    def y_row(self):
        return self.rows[self.r + 1]

    @property
    def v_rows(self):
        return self.rows[:self.r]

    def to_json(self):
        return [list(row) for row in self.rows]


def change_making_ok(xs):
    """Whether sorted coin values can make every amount up to their total.

    The chain condition: x_3 <= 1 and each value at most one more than the
    sum of the smaller ones.  The empty sequence qualifies.  On sorted
    tuples the chain is prefix-closed: every prefix of a tuple that passes
    it passes too, so filtering complete tuples by it keeps exactly what
    pruning each prefix by it keeps.

    >>> change_making_ok((1, 1, 3))
    True
    >>> change_making_ok((2, 2, 2, 3, 3))
    False
    """
    total = 0
    for v in sorted(xs):
        if v > total + 1:
            return False
        total += v
    return True


@lru_cache(maxsize=None)
def _square_tuples(r, target):
    """Nondecreasing nonnegative r-tuples with squares summing to target,
    in lexicographic order.  The cache lives as long as the process."""
    out = []
    entries = [0] * r

    def rec(idx, v, sumsq):
        slots = r - idx
        if slots == 0:
            if sumsq == target:
                out.append(tuple(entries))
            return
        # entries are nondecreasing, so every remaining slot is at least v
        while sumsq + v * v * slots <= target:
            entries[idx] = v
            rec(idx + 1, v, sumsq + v * v)
            v += 1

    rec(0, 0, 0)
    return tuple(out)


def _x_tails(r, target, change_making):
    """Nondecreasing nonnegative r-tuples with squares summing to target,
    in lexicographic order; with change_making, those that obey the chain.

    One cached enumeration per (r, target) serves both modes, so the
    strict and the relaxed search of a side build it once."""
    tails = _square_tuples(r, target)
    return tuple(filter(change_making_ok, tails)) if change_making else tails


# one tuple per distinct candidate row, shared by every _row_candidates key
_ROWS = {}


@lru_cache(maxsize=None)
def _row_candidates(diag, xbar):
    """Rows c with |c|^2 + 2 (c . xbar)^2 == diag, as tuples.

    These are the possible truncated cycle rows of a witness for the given
    x tail: the first two (equal) entries of the full row are forced to
    -(c . xbar), and the diagonal Gram entry prescribes the total.  With
    an all-zero xbar they are every vector of squared length diag, the
    pool embed_form draws its row heads from.  Columns are fixed in order of decreasing
    xbar, each running up from its negative bound.

    The cache lives as long as the process, and its keys share their
    rows: a row equal in value to one already handed out, under any key,
    is that same tuple, so the cache stores each distinct row once.
    """
    r = len(xbar)
    order = sorted(range(r), key=lambda j: -xbar[j])
    out = []
    entries = [0] * r

    def rec(idx, q, s):
        if idx == r:
            if q + 2 * s * s == diag:
                row = tuple(entries)
                out.append(_ROWS.setdefault(row, row))
            return
        j = order[idx]
        # x tails are nonnegative: from the first zero entry on s is
        # fixed, so the room left must also pay 2 s^2
        room = diag - q - (0 if xbar[j] else 2 * s * s)
        if room < 0:
            return
        b = isqrt(room)
        for v in range(-b, b + 1):
            entries[j] = v
            rec(idx + 1, q + v * v, s + v * xbar[j])
        entries[j] = 0

    rec(0, 0, 0)
    return tuple(out)


def form_automorphisms(matrix):
    """All permutations p with matrix[p(i)][p(j)] == matrix[i][j].

    Found by backtracking on diagonal-compatible images; forms here are
    small cycles, so the group is at worst dihedral plus accidental
    symmetry.
    """
    r = len(matrix)
    perms = []
    image = [None] * r

    def rec(i):
        if i == r:
            perms.append(tuple(image))
            return
        for cand in range(r):
            if cand in image[:i]:
                continue
            if matrix[cand][cand] != matrix[i][i]:
                continue
            if any(matrix[cand][image[j]] != matrix[i][j] for j in range(i)):
                continue
            image[i] = cand
            rec(i + 1)
        image[i] = None

    rec(0)
    return tuple(perms)


def _witness_key(z, xbar, auts):
    """Class key of a witness: its x tail and the least image of z.

    A witness is fixed by z and its tail up to a move of the tail columns.
    Rows (z_i, z_i, c_i) pair as G does exactly when C C^T = P - 2 z z^T,
    with P = -G, and are orthogonal to x exactly when C xbar = -z.  So two
    witnesses C, C' with one z and one tail give Q = C^-1 C', integral
    because det C = +-1, with Q Q^T = I and Q xbar = xbar: a signed
    permutation fixing x, which is a tail-column move.  The classes are
    therefore the orbits of z under G-preserving row permutations and the
    global flip (z, c) -> (-z, -c), which realizes the base change
    x -> -(x + y) on the surgery block followed by the column
    renormalization.
    """
    return (xbar, min(tuple(sign * z[j] for j in p)
                      for sign in (1, -1) for p in auts))


def _linking_form_ok(matrix, d, n):
    """Whether P = -matrix, of determinant d = 2n - 1, passes the
    linking-form test that the form of every witness passes.

    coker P is cyclic exactly when the gcd of the entries of adj(P), the
    (r-1)-minors of P, is 1; and each adj(P)_ii (n - 1) must be a square
    mod d (criterion_search says why).
    """
    adj = linalg.adjugate(linalg.neg(matrix))
    if gcd(*(v for row in adj for v in row)) != 1:
        return False
    squares = {s * s % d for s in range(d // 2 + 1)}
    return all(adj[i][i] * (n - 1) % d in squares for i in range(len(adj)))


def criterion_search(form, change_making=True):
    """All witness matrices for a Goeritz form of determinant D = 2n-1.

    Returns canonical representatives (deterministically ordered) of every
    A with -A A^T = G + R_n whose rows have the prescribed shape, with
    det(C) = +-1, up to signed permutation of the tail columns and
    G-preserving row permutations.  With change_making=False the chain
    condition on the x tail is not imposed.  D must be odd and at least 3,
    and a raw matrix symmetric and negative definite (else ValueError).

    The backtracker forward-checks: within one x tail each candidate
    carries its full row (z, z) + c, and the candidates of a row that fit
    the row already placed at its first checked neighbour are listed once
    per (row, placed neighbour) and reused.  Those lists keep pool order
    and the remaining checks only drop entries, so the search reaches the
    same leaves in the same order as a plain scan of the pool; each class
    therefore keeps its first-found representative.

    Before any x tail, a side is refuted by its linking form.  A witness
    makes P = -G isometric to L = (Z^r, I + 2 xbar xbar^T): C C^T = P -
    2 z z^T and C xbar = -z give P = C L C^T, with det C = +-1.  In
    coker L every e_j is -2 x_j xbar, so it is cyclic of order D; and
    w L^-1 w^T = |w|^2 - 2 (w . xbar)^2 / D, so each e_i P^-1 e_i^T, which
    is adj(P)_ii / D, is -2 s^2 / D mod 1 for an integer s.  As -2 (n - 1)
    = 1 - D, that says adj(P)_ii (n - 1) is a square mod D.  This is
    Lickorish's obstruction, linking form +-2/D (Contemp. Math. 44, 1985),
    with the cyclic H_1 condition (Wendt, Math. Z. 42, 1937).  Neither
    test reads the tail or the chain, so a side that fails either has no
    witness in either mode, and the search returns () at once.
    """
    if isinstance(form, GoeritzForm):
        matrix = form.matrix
    else:
        matrix = linalg.freeze(form)
        if not linalg.is_negative_definite(matrix):
            raise ValueError("matrix is not negative definite")
    r = len(matrix)
    d = abs(linalg.det(matrix))
    if d < 3 or d % 2 == 0:
        raise ValueError(f"need an odd determinant 2n - 1 with n >= 2, not {d}")
    n = (d + 1) // 2
    if not _linking_form_ok(matrix, d, n):
        return ()
    diag = [-matrix[i][i] for i in range(r)]
    auts = form_automorphisms(matrix)

    # contiguity-first row order: start at the largest diagonal, then always
    # extend by the unassigned row with the most assigned neighbours
    order = [max(range(r), key=lambda i: diag[i])]
    while len(order) < r:
        rest = [i for i in range(r) if i not in order]
        order.append(max(rest, key=lambda i: (
            sum(1 for j in order if matrix[i][j] != 0), diag[i])))
    # each step's row and the (earlier row, target pairing) checks it
    # must pass: neighbours first, so the memoized first check prunes most
    steps = []
    for t, i in enumerate(order):
        earlier = sorted(order[:t], key=lambda j: matrix[i][j] == 0)
        checks = [(j, -matrix[i][j]) for j in earlier]
        steps.append((i, checks[0] if checks else None, checks[1:]))

    found = {}
    for xbar in _x_tails(r, n - 1, change_making):
        pools = {}
        for norm in set(diag):
            pool = []
            for c in _row_candidates(norm, xbar):
                z = -sum(map(mul, c, xbar))
                pool.append((z, z) + c)
            pools[norm] = pool
        shape = ((0, 1) + xbar, (1, -1) + (0,) * r)
        rows = [None] * r
        fits = {}

        def rec(t):
            if t == r:
                if abs(linalg.det([row[2:] for row in rows])) != 1:
                    return
                key = _witness_key(tuple(row[0] for row in rows), xbar, auts)
                if key not in found:
                    a = EmbeddingMatrix(tuple(rows) + shape)
                    _check_witness(a, matrix, n)
                    found[key] = a
                return
            i, first, rest = steps[t]
            pool = pools[diag[i]]
            if first:
                j, want = first
                placed = rows[j]
                memo_key = (i, placed)
                fit = fits.get(memo_key)
                if fit is None:
                    fit = fits[memo_key] = [
                        cand for cand in pool
                        if sum(map(mul, cand, placed)) == want]
                pool = fit
            for cand in pool:
                for j, want in rest:
                    if sum(map(mul, cand, rows[j])) != want:
                        break
                else:
                    rows[i] = cand
                    rec(t + 1)

        rec(0)
    return tuple(found[k] for k in sorted(found))


def search_stage(forms, enforce_change_making):
    """(stage, matrices of each side) of the embedding search on one knot.

    forms are the Goeritz forms of every side searched for the knot: the
    obstruction must fire on each, since the unknotting crossing may have
    either sign.  witness when any side has a matrix; otherwise, under the
    chain, the sides are searched again without it, stopping at the first
    that has a matrix, to tell change_making from search_empty.
    """
    sols = tuple(criterion_search(form, change_making=enforce_change_making)
                 for form in forms)
    if any(sols):
        return "witness", sols
    if enforce_change_making and any(
            criterion_search(form, change_making=False) for form in forms):
        return "change_making", sols
    return "search_empty", sols


def _check_witness(a, g_matrix, n):
    """-A A^T must be G + R_n.  That gives |det A| = D with no second check:
    det(A)^2 = |det G| (2n - 1) = D^2, as n comes from D = |det G| = 2n - 1."""
    want = (tuple(row + (0, 0) for row in g_matrix)
            + tuple((0,) * a.r + row for row in twist_knot_form(n)))
    if linalg.neg(linalg.gram(a.rows)) != want:
        raise TheoremViolation("Gram identity failed on a found matrix")


def embed_form(m, n_cols):
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
    # each nonzero column adds at least 1 to trace(B B^T) = -trace(M), and
    # canonical columns put the zero ones last: wider targets only pad
    width = min(n_cols, sum(diag))
    pad = (0,) * (n_cols - width)
    results = []
    rows = []

    def rec(i):
        """Extend `rows` by every row that keeps the columns canonical.

        Columns must stay lexicographically nonincreasing (reading down),
        with each column's first nonzero entry positive: within a run of
        columns equal so far the new entries must be nonincreasing, and a
        new entry in an all-zero column must be nonnegative.  So every
        complete matrix is already the canonical representative of its
        signed column permutation class, and no two are in one class.

        The all-zero columns are therefore the last ones and form a single
        run, so a new row is a head over the columns in use, drawn from
        the shared row pool, and a nonincreasing nonnegative tail, an x
        tail reversed.  The full pool would list each signed permutation
        of the tail: millions of rows at diagonal 7 and rank 21.
        """
        if i == k:
            results.append(tuple(row + pad for row in rows))
            return
        cols = [col for col in zip(*rows) if any(col)]
        used = len(cols)
        ties = [j for j in range(1, used) if cols[j] == cols[j - 1]]
        for rest in range(diag[i] + 1):
            tails = [t[::-1] for t in _x_tails(width - used, rest, False)]
            if not tails:
                continue
            for head in _row_candidates(diag[i] - rest, (0,) * used):
                if (all(head[j] <= head[j - 1] for j in ties)
                        and all(sum(map(mul, head, row)) == -m[i][t]
                                for t, row in enumerate(rows))):
                    for tail in tails:
                        rows.append(head + tail)
                        rec(i + 1)
                        rows.pop()

    rec(0)
    return tuple(sorted(results, key=lambda b: tuple(zip(*b))))


def _signed_to_ones(a, summed, what):
    """Negate columns of a so that the summed rows, a sign vector, sum to ones."""
    total = [sum(col) for col in zip(*summed)]
    if any(s not in (1, -1) for s in total):
        raise TheoremViolation(f"{what} sum to {total}, not a sign vector")
    rows = tuple(tuple(v if s == 1 else -v for v, s in zip(row, total))
                 for row in a.rows)
    return EmbeddingMatrix(rows)


def normalize_sigma2(a):
    """Negate columns so the cycle rows sum to the all-ones vector.

    Valid for witnesses of signature-2 inputs, where that sum is already a
    +-1 vector; anything else is flagged as a violation.  The first two
    entries of the y row stay negatives of one another.
    """
    out = _signed_to_ones(a, a.v_rows, "cycle rows")
    y = out.y_row
    if y[0] != -y[1]:
        raise TheoremViolation("y row lost its (1, -1) head")
    return out


def extract_crossing_sigma2(a_norm, form):
    """The unknotting crossing a normalized signature-2 witness points at.

    Exactly one cycle row meets the first two columns; it marks a region
    with hub crossings, and changing any one of them undoes the knot.
    """
    hits = [i for i, row in enumerate(a_norm.v_rows)
            if (row[0], row[1]) == (1, 1)]
    if len(hits) != 1:
        raise TheoremViolation(f"expected one marked row, found {hits}")
    i = hits[0]
    row = a_norm.v_rows[i]
    if sum(v * v for v in row) <= 2:
        raise TheoremViolation("marked row has square -2 or worse shape")
    if form.region_map is None or not form.region_map[i]:
        raise TheoremViolation("marked region has no hub crossing")
    return form.region_map[i][0]


def normalize_sigma0_and_extract(a, form):
    """Normalize a signature-0 witness and read off its crossing.

    After column negations the cycle rows plus y sum to all ones, y becomes
    (1, 1, 0, ...), and exactly two cycle rows meet the first two columns,
    with patterns (1, -1) and (-1, 1).  Those regions must be adjacent in
    the cycle (their rows pair as the form pairs them, and that is at
    least 1); the crossing between them is returned.
    """
    out = _signed_to_ones(a, a.v_rows + (a.y_row,), "rows")
    if out.y_row[:2] != (1, 1) or any(out.y_row[2:]):
        raise TheoremViolation(f"y row is {out.y_row}, not (1, 1, 0, ...)")
    pos = [i for i, row in enumerate(out.v_rows) if (row[0], row[1]) == (1, -1)]
    neg = [i for i, row in enumerate(out.v_rows) if (row[0], row[1]) == (-1, 1)]
    rest = [i for i, row in enumerate(out.v_rows)
            if i not in pos and i not in neg and (row[0], row[1]) != (0, 0)]
    if len(pos) != 1 or len(neg) != 1 or rest:
        raise TheoremViolation(
            f"marked row patterns wrong: pos={pos} neg={neg} rest={rest}")
    i, j = pos[0], neg[0]
    pairing = -sum(x * y for x, y in zip(out.v_rows[i], out.v_rows[j]))
    if pairing != form.matrix[i][j] or pairing < 1:
        raise TheoremViolation(
            f"marked rows pair to {pairing}, the form to {form.matrix[i][j]};"
            " adjacency demands equal values of at least 1")
    if form.cycle_edges is None:
        raise TheoremViolation("form carries no diagram bookkeeping")
    lo, hi = min(i, j), max(i, j)
    if hi == lo + 1:
        edge = lo
    elif lo == 0 and hi == a.r - 1:
        edge = a.r - 1
    else:
        raise TheoremViolation(f"marked regions {i}, {j} are not adjacent")
    return out, form.cycle_edges[edge]


def word_symmetry_obstruction(word):
    """Run the correction-term symmetry test on a word, handling orientation.

    The half-integer surgery description holds for one of the two
    orientations of the branched double cover, and which one is not
    pinned down by the sign conventions here; a signature-0 knot can
    moreover satisfy it on either mirror side.  The test therefore fires
    (returns False) only when every orientation fails, keeping it sound.
    Returns (passed, {"table": bool, "negated": bool}).
    """
    g = goeritz_3braid(word)
    if determinant(g) == 1:
        raise ValueError("determinant one: no surgery form to test")
    sigma = signature_normal_form(0, word)
    sides = symmetry_sides(g.matrix)
    if sigma == 0:
        passed = sides["table"] or sides["negated"]
    elif sigma > 0:
        passed = sides["negated"]
    else:
        passed = sides["table"]
    return passed, sides


@dataclass(frozen=True)
class CriterionWitness:
    """A witness matrix with its extracted, verified crossing.

    mirrored marks witnesses found on the mirror side of a signature-0
    run: their crossing refers to the mirrored diagram.
    """

    matrix: EmbeddingMatrix
    crossing: CrossingRef
    verified: bool
    case: str
    mirrored: bool = False

    def to_json(self):
        return {
            "matrix": self.matrix.to_json(),
            "crossing": None if self.crossing is None else self.crossing.to_json(),
            "verified": self.verified,
            "case": self.case,
            "mirrored": self.mirrored,
        }


_NOTES = {"sigma_bound": "|signature| exceeds 2, so u >= 2",
          "parity": "determinant one: the closure is already the unknot"}


@dataclass(frozen=True)
class PipelineReport:
    """Everything the unknotting-number-one decision produced.

    stage is how far the input survived: sigma_bound (|sigma| > 2) and
    parity (determinant one: the unknot) need no search; search_empty and
    change_making are obstructions from the embedding stage; witness
    certifies u(K) = 1 with a verified crossing.  The other keys of
    to_json follow from these fields: n from D = 2n - 1; epsilon is the
    surgery sign (-1)^(sigma/2) of the side searched, whose signature is
    |sigma|, and 0 past the signature bound; the input was mirrored
    exactly when sigma = -2; the note is the stage's.
    """

    word: AltBraidWord
    sigma: int
    determinant: int
    stage: str
    witnesses: tuple
    change_making_enforced: bool = True

    @property
    def n(self):
        return (self.determinant + 1) // 2

    @property
    def epsilon(self):
        return (-1) ** (abs(self.sigma) // 2) if abs(self.sigma) <= 2 else 0

    @property
    def input_mirrored(self):
        return self.sigma == -2

    @property
    def note(self):
        return _NOTES.get(self.stage, "")

    @property
    def verdict(self):
        return "witness" if self.stage == "witness" else "obstructed"

    def to_json(self):
        return {
            "word": self.word.to_json(),
            "sigma": self.sigma,
            "determinant": self.determinant,
            "n": self.n,
            "epsilon": self.epsilon,
            "stage": self.stage,
            "verdict": self.verdict,
            "witnesses": [w.to_json() for w in self.witnesses],
            "input_mirrored": self.input_mirrored,
            "note": self.note,
            "change_making_enforced": self.change_making_enforced,
        }

    @classmethod
    def from_json(cls, data):
        """The report to_json wrote, read by running it again.

        A run is deterministic in its canonical word and its mode, so the
        reader runs u1_pipeline on the document's word and
        change_making_enforced (a bool) and returns that report when its
        to_json equals the document, type for type: a bool is not an int,
        2.0 is not 2, a tuple is not a list, and a missing or extra key is
        a difference.  A document no run writes is a ValueError naming the
        first top-level key that differs.  Reading a report costs what the
        run cost."""
        if type(data) is not dict or type(
                data.get("change_making_enforced")) is not bool:
            raise ValueError("a report is an object with a bool "
                             "change_making_enforced")
        report = u1_pipeline(AltBraidWord.from_json(data.get("word")),
                             data["change_making_enforced"])
        written = report.to_json()
        for key in [*written, *data]:
            if key not in data or key not in written or not _same(
                    data[key], written[key]):
                raise ValueError(f"{key!r} differs from the report a run "
                                 "of this word writes")
        return report


def _same(a, b):
    """Structural equality that also compares types: True is not 1."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def u1_pipeline(word, enforce_change_making=True):
    """Decide unknotting number one for an alternating 3-braid knot closure.

    Mirrors so the signature is 0 or 2; signature-0 inputs run on both the
    word and its mirror, covering both unknotting crossing signs, and one
    search_stage call decides the stage over every side.  The verdict is
    sound in both directions: obstructed certifies u != 1, and every
    witness carries a crossing checked by the rewriting test.
    """
    word = AltBraidWord.canonical(word.pairs)
    rec, form = invariants_and_form(word)
    sigma0 = rec.signature

    def report(stage, witnesses=()):
        return PipelineReport(word, sigma0, rec.determinant, stage,
                              tuple(witnesses), enforce_change_making)

    if abs(sigma0) > 2:
        return report("sigma_bound")
    if rec.determinant == 1:
        return report("parity")

    mirrored_input = sigma0 < 0
    work = mirror_word(word) if mirrored_input else word
    sigma = -sigma0 if mirrored_input else sigma0

    sides = [(work, False)]
    if sigma == 0:
        mirrored = mirror_word(work)
        # a word equal to its own mirror already covers both crossing signs
        if mirrored != work:
            sides.append((mirrored, True))

    # the input's own side reuses the form its determinant was read from
    forms = [form if side_word == word else goeritz_3braid(side_word)
             for side_word, _ in sides]
    stage, found = search_stage(forms, enforce_change_making)
    case = "sigma2" if sigma == 2 else "sigma0"
    witnesses = []
    for (side_word, side_mirrored), g, sols in zip(sides, forms, found):
        for a in sols:
            crossing = None
            try:
                if sigma == 2:
                    crossing = extract_crossing_sigma2(normalize_sigma2(a), g)
                else:
                    _, crossing = normalize_sigma0_and_extract(a, g)
            except TheoremViolation:
                if enforce_change_making:
                    raise
            verified = (crossing is not None
                        and crossing_change_unknots(side_word, crossing))
            witnesses.append(CriterionWitness(
                a, crossing, verified, case,
                mirrored=side_mirrored != mirrored_input))

    if enforce_change_making and not all(w.verified for w in witnesses):
        raise TheoremViolation("witness found but its crossing failed to verify")
    return report(stage, witnesses)
