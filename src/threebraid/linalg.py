"""Exact integer linear algebra on small dense matrices.

Matrices are tuples of tuples of Python ints (rows).  Everything here is
integer: determinants use fraction-free (Bareiss) elimination, the
adjugate has one use (forms scores covectors by c adj(M) c^T), and the
Smith normal form is computed with integer row/column operations.
Sizes in this package stay below ~30, so asymptotics are irrelevant;
exactness is not.
"""


class TheoremViolation(AssertionError):
    """A structural consequence of the theorems failed to hold.

    Raised, never asserted, so the check survives ``python -O``: it means
    either an internal bug or an input outside the theorems' hypotheses.
    """


def freeze(rows):
    """Return the matrix as a tuple of tuples of ints.

    Nothing is coerced: an entry that is not an int (a bool, float or
    string) raises ValueError, and so do rows of unequal length.
    """
    try:
        m = tuple(tuple(row) for row in rows)
    except TypeError:
        raise ValueError("a matrix is a sequence of rows") from None
    if any(type(x) is not int for row in m for x in row):
        raise ValueError("matrix entries must be integers")
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("matrix rows have unequal lengths")
    return m


def is_symmetric(m):
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i)
    )


def gram(rows):
    """Gram matrix of the rows under the Euclidean dot product."""
    return tuple(
        tuple(sum(x * y for x, y in zip(u, v)) for v in rows) for u in rows
    )


def neg(m):
    return tuple(tuple(-x for x in row) for row in m)


def _det_int(m):
    """Exact determinant of an integer matrix (Bareiss)."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _require_square(m):
    """Raise ValueError unless every row of m is as long as m."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def det(m):
    """Exact integer determinant; ValueError on a non-square matrix."""
    _require_square(m)
    return _det_int(m)


def is_negative_definite(m):
    """True iff the symmetric integer matrix is negative definite.

    Checked through the leading principal minors: the j-th minor must have
    sign (-1)^j.  One Bareiss elimination without row swaps gives them
    all, pivot k being the (k+1)-th minor; it stops at the first pivot of
    the wrong sign, before a zero pivot could be divided by.  Raises
    ValueError on non-symmetric input.
    """
    if not is_symmetric(m):
        raise ValueError("matrix is not symmetric")
    a = [list(row) for row in m]
    n = len(a)
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        if (pivot if k % 2 else -pivot) <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return True


def adjugate(m):
    """Integer adjugate, entry (i, j) the (j, i) cofactor: adj(m) m = det(m) I.

    ValueError on a non-square matrix.
    """
    n = _require_square(m)
    return tuple(tuple((-1) ** (i + j) * _det_int(
        [row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j])
        for j in range(n)) for i in range(n))


def smith_normal_form(m):
    """Diagonal invariant factors d_1 | d_2 | ... and the left transform U.

    Returns (divisors, U) with U unimodular and U*m*V diagonal for some
    unimodular V (V is not needed by the callers).  Divisors are
    non-negative; zeros would indicate a singular matrix.  A rectangular
    matrix is accepted; a malformed one is refused as freeze refuses it.
    """
    a = [list(row) for row in freeze(m)]
    n = len(a)
    cols = len(a[0]) if a else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]

    t = 0
    while t < min(n, cols):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, n):
            for j in range(t, cols):
                if a[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        u[t], u[i] = u[i], u[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            # clear column t
            again = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        again = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        again = True
            if not again:
                break
        # enforce divisibility: pivot must divide the rest of the block
        fixed = True
        for i in range(t + 1, n):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    row_op(t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    divisors = []
    for i in range(min(n, cols)):
        divisors.append(abs(a[i][i]))
    return tuple(divisors), tuple(tuple(row) for row in u)
