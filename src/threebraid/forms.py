"""Negative definite integer forms: cokernels, characteristic covectors,
correction-term tables, the half-integer surgery symmetry test, and sign
coverage of cokernel classes.

Covectors live in dual-basis coordinates: c_i is the pairing of the class
against the i-th basis vector, so characteristic means c_i = M_ii mod 2.
All values are exact (integer scores c adj(M) c^T, ints and Fractions);
there is no floating point in this module.

The correction-term convention is that of d_table_sharp: label 0
carries +1/2 when the determinant is 3 mod 4.  d_table_sharp walks half
of the characteristic box, one covector of each pair c, -c, and gives
each label the better of its own maximum and its conjugate's, since -c
has the square of c and the conjugate label.  The unknot's table, that
of the lens space L(D, 2) = -D/2 surgery on the unknot, is the closed
form _unknot_quarters, which equals d_table_sharp of the twist knot form
(the tests keep that walk as its oracle).  Only differences of tables
enter the symmetry test, so the overall sign convention cancels there.
The test is decided on the integer quarters 4D*d of the tables
(DTable.quarters); Fractions remain only in the DTable values that are
printed.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import linalg
from .linalg import TheoremViolation, is_negative_definite


class NonCyclicCokernel(ValueError):
    """Raised when an operation needs a cyclic cokernel but got a bigger group."""

    def __init__(self, invariant_factors):
        self.invariant_factors = tuple(invariant_factors)
        super().__init__(
            f"cokernel is not cyclic: invariant factors {self.invariant_factors}")


def twist_knot_form(n):
    """Goeritz form of the n-twist knot: [[-n, 1], [1, -2]], determinant 2n-1.

    This is also the linking form of the two-handle trace of -D/2 surgery,
    D = 2n - 1.
    """
    if type(n) is not int or n < 1:
        raise ValueError("n must be a positive integer")
    return ((-n, 1), (1, -2))


@dataclass(frozen=True)
class CokerMap:
    """Presentation of coker(M) = Z^k / im(M) with a class labelling.

    invariant_factors lists the nontrivial cyclic orders.  For cyclic odd
    order a dual covector's label in Z/D is its dot product with label_row;
    twist knot forms get the exact labelling (a, b) -> a + n*b.
    """

    matrix: tuple
    invariant_factors: tuple
    transform: tuple          # U with U*M*V diagonal
    factor_rows: tuple        # rows of U matching the nontrivial factors
    twist_n: int = None

    @property
    def order(self):
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def is_cyclic(self):
        return len(self.invariant_factors) <= 1

    def class_of(self, vec):
        """Class of a dual vector, as coordinates in the cyclic factors."""
        if len(vec) != len(self.matrix):
            raise ValueError("dimension mismatch")
        return tuple(
            sum(self.transform[r][j] * vec[j] for j in range(len(vec))) % d
            for r, d in zip(self.factor_rows, self.invariant_factors))

    @property
    def label_row(self):
        """Integer row w with label(vec) = w . vec mod D, for cyclic cokernels."""
        if not self.is_cyclic:
            raise NonCyclicCokernel(self.invariant_factors)
        if self.twist_n is not None:
            return (1, self.twist_n)
        if not self.invariant_factors:
            return (0,) * len(self.matrix)
        return self.transform[self.factor_rows[0]]


def coker_map(m):
    """Smith-normal-form presentation of coker(M) for negative definite M."""
    m = linalg.freeze(m)
    if not is_negative_definite(m):
        raise ValueError("matrix must be negative definite")
    divisors, u = linalg.smith_normal_form(m)
    factors, rows = [], []
    for i, d in enumerate(divisors):
        if d != 1:
            factors.append(d)
            rows.append(i)
    twist_n = None
    if len(m) == 2 and m == twist_knot_form(-m[0][0]):
        twist_n = -m[0][0]
    return CokerMap(m, tuple(factors), u, tuple(rows), twist_n)


@dataclass(frozen=True)
class DTable:
    """Correction terms of a half-integer-surgery candidate, by label in Z/D.

    Conjugate labels carry equal values, and 4*D times any value is an
    integer.
    """

    determinant: int
    values: tuple              # Fractions, index = label

    def __post_init__(self):
        D = self.determinant
        if type(D) is not int or D < 1 or D % 2 == 0 \
                or type(self.values) is not tuple or len(self.values) != D:
            raise ValueError("need one value per label of an odd determinant")
        for i, v in enumerate(self.values):
            if type(v) is not Fraction:
                raise ValueError(f"value {v!r} is not a Fraction")
            if v != self.values[-i % D]:
                raise ValueError("conjugation symmetry broken")
            if (4 * D * v).denominator != 1:
                raise ValueError(f"value {v} too far from integral")

    @property
    def quarters(self):
        """The integers 4*D*v, by label: the values scaled to integers."""
        scale = 4 * self.determinant
        return tuple(v.numerator * (scale // v.denominator)
                     for v in self.values)

    def to_json(self):
        return {"determinant": self.determinant,
                "values": {str(i): str(v) for i, v in enumerate(self.values)}}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or not {"determinant",
                                              "values"} <= set(data):
            raise ValueError('expected an object with the keys '
                             '"determinant" and "values"')
        D, values = data["determinant"], data["values"]
        if type(D) is not int:
            raise ValueError("the determinant must be an integer")
        if not isinstance(values, dict) or not all(
                type(k) is str and type(v) is str for k, v in values.items()):
            raise ValueError("the values must map labels to strings")
        # the labels are read only as far as values reaches: with fewer than
        # D values one of the first len(values) + 1 labels is missing, and
        # with more than D some value has no label
        labels = [str(i) for i in range(min(D, len(values) + 1))]
        wrong = sorted(set(values).difference(labels)) if len(values) > D \
            else [label for label in labels if label not in values]
        if wrong:
            raise ValueError(f"label {wrong[0]}: need a value for each "
                             f"label 0..{D - 1} and for no other")
        try:
            return cls(D, tuple(Fraction(values[label]) for label in labels))
        except ZeroDivisionError:
            raise ValueError("a value has denominator 0") from None


def d_table_sharp(m):
    """Correction terms read off a sharp negative definite form.

    d at a spin-c label t is the maximum of (c^2 + k)/4 over characteristic
    covectors c in every class restricting to t; the label of a covector
    divides its cokernel class by 2.  Needs odd determinant and cyclic
    cokernel.

    The maxima are taken over the box M_ii <= c_i <= -M_ii, which holds a
    square-maximizer of every cokernel class: a characteristic covector
    outside it reflects inside by steps of twice a basis row without
    decreasing its square.  Squares are compared as the integers
    D c^2 = c A c^T with A = (-1)^k adj(M), and each value is the one
    exact division (b + kD)/(4D) of the best such integer b.  One walk
    over the box fixes c_0, c_1, ... in turn and carries the partial score
    over the fixed coordinates, their row sums against A and their partial
    label, so each innermost step costs O(1).

    The walk covers half the box: the covectors whose first nonzero
    coordinate is positive, and c = 0 when the box holds it.  Each axis
    range(M_ii, -M_ii + 1, 2) is symmetric about 0, so -c is in the box
    with c; the score c A c^T is even in c and the label w.c mod D odd,
    so -c scores as c at the conjugate label: after the walk each label
    t takes the better of its own best and the best at -t.  While every
    fixed coordinate is 0 the next one runs over the nonnegative half of
    its axis.  An axis whose diagonal entry is odd holds only odd values
    and no 0, so the zero prefix ends at the first odd diagonal entry,
    and c = 0 is walked only when every diagonal entry is even.
    """
    coker = coker_map(m)
    D = coker.order
    if D % 2 == 0:
        raise ValueError("discriminant must be odd")
    if not coker.is_cyclic:
        raise NonCyclicCokernel(coker.invariant_factors)
    m = coker.matrix
    k = len(m)
    a = [[(-1) ** k * x for x in row] for row in linalg.adjugate(m)]
    inv2 = pow(2, -1, D)
    w = [x * inv2 % D for x in coker.label_row]
    axes = [range(m[i][i], -m[i][i] + 1, 2) for i in range(k)]
    halves = [range(m[i][i] % 2, -m[i][i] + 1, 2) for i in range(k)]
    best = [None] * D

    def walk(t, q, lin, lab, zero):
        # q = sum over i, j < t of c_i A_ij c_j, lin_j = sum over i < t of
        # c_i A_ij, lab = sum over i < t of w_i c_i; zero: c_i = 0 for i < t
        row, att, wt, twice = a[t], a[t][t], w[t], 2 * lin[t]
        axis = halves[t] if zero else axes[t]
        if t == k - 1:
            for c in axis:
                sq = q + c * (twice + att * c)
                label = (lab + wt * c) % D
                if best[label] is None or sq > best[label]:
                    best[label] = sq
            return
        for c in axis:
            walk(t + 1, q + c * (twice + att * c),
                 [x + c * y for x, y in zip(lin, row)], lab + wt * c,
                 zero and not c)

    if k:
        walk(0, 0, [0] * k, 0, True)
        # -c scores as c at the conjugate label
        for t in range(1, D):
            b = best[-t]
            if b is not None and (best[t] is None or b > best[t]):
                best[t] = b
    else:
        best = [0]          # the empty form: one covector, c = ()
    if any(b is None for b in best):
        raise TheoremViolation("a label has no covector in the box")
    return DTable(D, tuple(Fraction(b + k * D, 4 * D) for b in best))


def d_table_halfint_unknot(D):
    """Correction terms of -D/2 surgery on the unknot, the lens space L(D, 2).

    The closed form _unknot_quarters, as Fractions.  It equals the sharp
    table of the twist knot form with n = (D+1)/2, the intersection form
    of the trace of that surgery; the tests keep that box walk as its
    oracle.
    """
    return DTable(D, tuple(Fraction(q, 4 * D) for q in _unknot_quarters(D)))


def _unknot_quarters(D):
    """The integers 4D*d of the unknot table, by label, in closed form.

    The correction terms of L(D, 2) (Ozsvath-Szabo, Adv. Math. 173 (2003),
    Prop. 4.8), in d_table_sharp's convention.  Let n = (D+1)/2 and t the
    residue of 2i mod D in (-D/2, D/2); label i gets -2t^2, plus 2D when
    t and n have the same parity.  Why: on the twist form a characteristic
    covector (a, 2b), a of the parity of n, has label s/2 with s = a + b,
    and D c^2 = -2s^2 - 2D b^2.  The best is s = t, since any other
    s = t (mod D) has s^2 >= t^2 + D, and b = 0 when t has the parity of n,
    b = +-1 otherwise.
    """
    if type(D) is not int or D < 3 or D % 2 == 0:
        raise ValueError("D must be odd and at least 3")
    n = (D + 1) // 2
    out = []
    for i in range(D):
        t = 2 * i % D
        if 2 * t > D:
            t -= D
        out.append(-2 * t * t + (2 * D if (t - n) % 2 == 0 else 0))
    if any(out[i] != out[-i] for i in range(D)):
        raise TheoremViolation("unknot table breaks conjugation symmetry")
    return out


def _symmetric(q, u, D):
    """Correction-term symmetry test on the quarters (values times 4D) q
    of a candidate table and u of the unknot table of the same D: True
    iff some unit relabelling i -> unit*i of the candidate makes the
    differences against u symmetric about k, where D = 2n - 1 >= 3 and
    n = 2k or 2k + 1; label 0 joins the checks only for odd n.  As it
    ranges over every unit, a False here is certain.
    """
    n = (D + 1) // 2
    k = n // 2
    idxs = list(range(1, k + 1))
    if n % 2 == 1:
        idxs.append(0)
    for unit in range(1, D):
        if gcd(unit, D) != 1:
            continue
        if all(q[unit * i % D] - u[i]
               == q[unit * (2 * k - i) % D] - u[2 * k - i] for i in idxs):
            return True
    return False


def symmetry_sides(m):
    """The symmetry test on both orientations of the sharp table of m.

    Returns {"table": bool, "negated": bool}; the caller picks the side.
    Both sides are tested against one unknot table, the negated one on
    the negated quarters.
    """
    table = d_table_sharp(m)
    d = table.determinant
    q, u = table.quarters, _unknot_quarters(d)
    return {"table": _symmetric(q, u, d),
            "negated": _symmetric([-x for x in q], u, d)}


def one_vector_coverage(a):
    """Cokernel classes hit by (row pairings with) sign vectors.

    Returns the set of classes of (a . alpha) over alpha in {-1, +1}^N, as
    class tuples of coker(M) for the form M = -A A^T of the embedding a.
    Computed by a subset sweep over the group: the reachable set after
    each column is folded in stays inside the finite cokernel, so the run
    is linear in N times the group order.
    """
    a = linalg.freeze(a)
    coker = coker_map(linalg.neg(linalg.gram(a)))
    cols = list(zip(*a))
    col_classes = [coker.class_of(col) for col in cols]
    factors = coker.invariant_factors

    def add(x, y, sgn):
        return tuple((xi + sgn * yi) % d for xi, yi, d in zip(x, y, factors))

    reach = {tuple(0 for _ in factors)}
    for g in col_classes:
        reach = {add(x, g, +1) for x in reach} | {add(x, g, -1) for x in reach}
    return reach


# --- the pretzel plumbing: the form pretzel-check reproduces ---------------

PRETZEL_FORM = (
    (-2, 1, 0, 0, 0),
    (1, -2, 1, 0, 0),
    (0, 1, -2, 1, 1),
    (0, 0, 1, -2, 0),
    (0, 0, 1, 0, -3),
)
