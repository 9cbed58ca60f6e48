from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from threebraid import linalg

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    row = st.tuples(*[st.integers(-6, 6)] * n)
    return tuple(draw(row) for _ in range(n))


def test_det_small():
    assert linalg.det(((2,),)) == 2
    assert linalg.det(((1, 2), (3, 4))) == -2
    assert linalg.det(((-6, 1, 1), (1, -3, 1), (1, 1, -2))) == -23


def test_det_singular_and_pivoting():
    assert linalg.det(((0, 1), (1, 0))) == -1
    assert linalg.det(((1, 2), (2, 4))) == 0


def test_negative_definite():
    assert linalg.is_negative_definite(((-1,),))
    assert linalg.is_negative_definite(((-2, 1), (1, -2)))
    assert not linalg.is_negative_definite(((1,),))
    assert not linalg.is_negative_definite(((-2, 3), (3, -2)))
    with pytest.raises(ValueError):
        linalg.is_negative_definite(((1, 2), (0, 1)))
    # the second leading minor vanishes: semidefinite, not definite
    assert not linalg.is_negative_definite(((-1, 1, 0), (1, -1, 0), (0, 0, -1)))


@st.composite
def symmetric_matrices(draw):
    """-B B^T + s I plus a sparse symmetric noise, of size 0 to 7.

    Too few columns in B give singular matrices, s > 0 or the noise
    indefinite ones, and B of full row rank with s <= 0 definite ones.
    """
    n = draw(st.integers(0, 7))
    w = draw(st.integers(0, 8))
    b = [draw(st.tuples(*[st.integers(-2, 2)] * w)) for _ in range(n)]
    shift = draw(st.integers(-1, 1))
    noise = st.sampled_from((0, 0, 0, 0, 0, 0, -1, 1))
    upper = {(i, j): draw(noise) for i in range(n) for j in range(i, n)}
    return tuple(tuple(-sum(map(mul, b[i], b[j])) + shift * (i == j)
                       + upper[min(i, j), max(i, j)] for j in range(n))
                 for i in range(n))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(symmetric_matrices())
def test_negative_definite_matches_minors(m):
    assert linalg.is_negative_definite(m) == oracles.minors_negative_definite(m)


def test_adjugate_exact():
    m = ((-12, 1), (1, -2))
    adj = linalg.adjugate(m)
    assert adj == ((-2, -1), (-1, -12))
    inv = oracles.fraction_inverse(m)
    assert all(a == 23 * x for arow, irow in zip(adj, inv)
               for a, x in zip(arow, irow))
    assert linalg.adjugate(((7,),)) == ((1,),)


@pytest.mark.parametrize("m", [((1, 0, 5), (0, 1, 7)), ((1, 0), (0, 1, 7)),
                               ((1, 0), (0,))],
                         ids=["wide", "ragged", "short-row"])
def test_malformed_shapes_are_refused(m):
    """A non-square or ragged matrix is a ValueError, never an answer."""
    for call in (linalg.det, linalg.adjugate):
        with pytest.raises(ValueError, match="not square"):
            call(m)


@SETTINGS
@given(square_matrices())
def test_adjugate_identity(m):
    d = linalg.det(m)
    scaled = tuple(tuple(d * (i == j) for j in range(len(m)))
                   for i in range(len(m)))
    adj = linalg.adjugate(m)
    assert oracles.mat_mul(adj, m) == scaled
    assert oracles.mat_mul(m, adj) == scaled


def test_smith_normal_form_invariants():
    m = ((-12, 1), (1, -2))
    divisors, u = linalg.smith_normal_form(m)
    assert sorted(d for d in divisors if d != 1) == [23]
    assert abs(linalg.det(u)) == 1
    m2 = ((2, 0), (0, 4))
    divisors2, _ = linalg.smith_normal_form(m2)
    assert tuple(divisors2) == (2, 4)
    # divisibility chain on a denser example
    m3 = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
    div3, u3 = linalg.smith_normal_form(m3)
    assert abs(linalg.det(u3)) == 1
    for a, b in zip(div3, div3[1:]):
        assert b % a == 0
    prod = 1
    for d in div3:
        prod *= d
    assert prod == abs(linalg.det(m3))


def test_gram_and_neg():
    rows = ((1, -1, 0), (0, 1, -1))
    assert linalg.gram(rows) == ((2, -1), (-1, 2))
    assert linalg.neg(linalg.gram(rows)) == ((-2, 1), (1, -2))
