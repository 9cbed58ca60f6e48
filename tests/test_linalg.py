from fractions import Fraction

import pytest

from threebraid import linalg


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


def test_inverse_exact():
    m = ((-12, 1), (1, -2))
    inv = linalg.inverse(m)
    assert inv[0][0] == Fraction(-2, 23)
    ident = linalg.mat_mul(m, inv)
    assert ident == ((1, 0), (0, 1))


def test_solve_int():
    c = ((1, 2), (0, 1))
    assert linalg.solve_int(c, (5, 2)) == (1, 2)
    assert linalg.solve_int(((2, 0), (0, 1)), (1, 1)) is None


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
