"""Goeritz forms of alternating 3-braid closures and classical invariants.

The closure of ``s1^-a1 s2^b1 ... s1^-am s2^bm`` is checkerboard colored
with every crossing incidence +1 and the region meeting the braid axis
marked.  The white graph is then an r-cycle, r = sum(b_i), with parallel
edges to the marked hub: vertex ``1 + b_1 + ... + b_{l-1}`` carries the
``a_l`` crossings of the l-th s1 block.  The resulting symmetric form is
negative definite and its determinant is the knot determinant.

Signatures follow the convention that positive knots have negative
signature.  Externally supplied matrices are assumed to come from the
all-positive-incidence convention above.
"""

import json
from dataclasses import dataclass

from . import linalg
from .braid import AltBraidWord, CrossingRef, is_knot_closure


@dataclass(frozen=True)
class GoeritzForm:
    """Symmetric negative-definite form with crossing bookkeeping.

    region_map[i] lists the hub crossings of white region i (empty for
    regions away from the s1 blocks); cycle_edges[i] is the s2 crossing
    shared by regions i and i+1 (mod r).  Both are None for matrices
    ingested without a diagram.
    """

    matrix: tuple
    region_map: tuple = None
    cycle_edges: tuple = None

    def to_json(self):
        return {"goeritz": [list(row) for row in self.matrix]}


def goeritz_3braid(word):
    """Goeritz form of the standard closure diagram of an alternating word.

    >>> goeritz_3braid(AltBraidWord(((4, 1), (1, 2)))).matrix
    ((-6, 1, 1), (1, -3, 1), (1, 1, -2))
    """
    matrix = _cycle_matrix(word.pairs)
    # block l's hub row is its first s2 crossing's region: crossing i of
    # the s2 crossings in word order sits between regions i and i + 1
    region_map, cycle = [()] * word.r, []
    for l, (a, b) in enumerate(word.pairs):
        region_map[len(cycle)] = tuple(CrossingRef(2 * l, k) for k in range(a))
        cycle.extend(CrossingRef(2 * l + 1, k) for k in range(b))
    form = GoeritzForm(matrix, tuple(region_map), tuple(cycle))
    if not linalg.is_negative_definite(matrix):
        raise linalg.TheoremViolation("Goeritz form is not negative definite")
    return form


def _cycle_matrix(pairs):
    """goeritz_3braid's matrix rule, on the pairs (a_l, b_l) of a word.

    Entry (i, j) counts the steps t in (+1, -1) with (i + t) mod r = j;
    the diagonal adds -2, and -a_l more on the hub row of block l.  So
    cycle neighbours pair to 1, the doubled edge of r = 2 to 2, and the
    one region of r = 1 gets -a_1.
    """
    r = sum(b for _, b in pairs)
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        rows[i][i] -= 2
        for t in (1, -1):
            rows[i][(i + t) % r] += 1
    at = 0             # the hub row of block l
    for a, b in pairs:
        rows[at][at] -= a
        at += b
    return tuple(map(tuple, rows))


def goeritz_pairs(matrix):
    """The pairs (a_l, b_l) of the word whose Goeritz matrix this is.

    The rows may come in any order.  The cycle is walked from row 0,
    first to its least positively paired row; block l starts at the l-th
    hub row (diagonal below -2) of the walk.  The pairs are returned only
    when goeritz_3braid's rule rebuilds the matrix exactly in the walk's
    row order, else ValueError; r = 1 is refused, as it has no cycle, and
    so is a ragged or non-square matrix.

    >>> goeritz_pairs(((-2, 1, 1), (1, -6, 1), (1, 1, -3)))
    ((4, 1), (1, 2))
    """
    r = len(matrix)
    if any(len(row) != r for row in matrix):
        raise ValueError("matrix is not square")
    if r < 2:
        raise ValueError("need r >= 2")
    order = [0]
    while len(order) < r:
        step = [j for j, x in enumerate(matrix[order[-1]])
                if x > 0 and j not in order]
        if not step:
            raise ValueError("positive pairings do not form an r-cycle")
        order.append(step[0])
    hubs = [t for t, i in enumerate(order) if matrix[i][i] < -2]
    if not hubs:
        raise ValueError("no hub row: no diagonal entry is below -2")
    order = order[hubs[0]:] + order[:hubs[0]]
    pairs = []
    for i in order:
        if matrix[i][i] < -2:
            pairs.append([-matrix[i][i] - 2, 0])
        pairs[-1][1] += 1
    pairs = tuple(map(tuple, pairs))
    if _cycle_matrix(pairs) != tuple(tuple(matrix[i][j] for j in order)
                                     for i in order):
        raise ValueError("not the Goeritz matrix of an alternating 3-braid")
    return pairs


def determinant(form):
    """Knot determinant: |det| of the Goeritz matrix, exactly."""
    m = form.matrix if isinstance(form, GoeritzForm) else form
    return abs(linalg.det(m))


def signature_normal_form(d, word):
    """Signature of the closure of (full twist)^d times the alternating word."""
    return -4 * d + sum(a - b for a, b in word.pairs)


def s_invariant_normal_form(d, word):
    """Rasmussen invariant of the closure of (full twist)^d times the word."""
    s0 = -signature_normal_form(0, word)
    if d > 0:
        return 6 * d - 2 + s0
    if d < 0:
        return 6 * d + 2 + s0
    return s0


def mirror_word(word):
    """Alternating word of the mirror diagram.

    Reverse the pair sequence and swap the roles of the a's and b's; the
    signature negates and the determinant is preserved.
    """
    return AltBraidWord.canonical(tuple((b, a) for a, b in reversed(word.pairs)))


@dataclass(frozen=True)
class InvariantRecord:
    """Classical invariants of a knot closure: D = 2n - 1 and sigma.

    D must be odd and congruent to sigma + 1 mod 4.
    """

    determinant: int
    signature: int
    s_invariant: int

    @property
    def n(self):
        return (self.determinant + 1) // 2

    def __post_init__(self):
        if self.determinant % 2 == 0:
            raise ValueError("knot determinant must be odd")
        if (self.determinant - self.signature - 1) % 4:
            raise ValueError(f"no knot has determinant {self.determinant} and "
                             f"signature {self.signature}: "
                             "D = sigma + 1 (mod 4) fails")


def invariants(word):
    """InvariantRecord of an alternating word with knot closure (d = 0)."""
    return invariants_and_form(word)[0]


def invariants_and_form(word):
    """invariants(word) and the Goeritz form its determinant was read from."""
    if not is_knot_closure(word.raw()):
        raise ValueError("closure is not a knot")
    form = goeritz_3braid(word)
    sigma = signature_normal_form(0, word)
    record = InvariantRecord(determinant(form), sigma,
                             s_invariant_normal_form(0, word))
    return record, form


def load_goeritz_json(text):
    """Ingest an externally supplied Goeritz matrix.

    Expects {"goeritz": [[...], ...]} with a symmetric, negative-definite
    integer matrix; the all-positive-incidence alternating convention is
    assumed and not checkable from the matrix alone.
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("the JSON nests too deeply") from None
    if not isinstance(data, dict) or "goeritz" not in data:
        raise ValueError('expected an object with a "goeritz" key')
    rows = data["goeritz"]
    # type(x) is int also rejects bools; int() would coerce -6.9 and "1"
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row)
            for row in rows):
        raise ValueError("the goeritz matrix must be a list of integer rows")
    if not rows:
        raise ValueError("the goeritz matrix has no rows")
    matrix = linalg.freeze(rows)
    if not linalg.is_negative_definite(matrix):
        raise ValueError("matrix is not negative definite")
    return GoeritzForm(matrix)
