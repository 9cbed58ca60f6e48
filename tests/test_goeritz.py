import json

import pytest

import oracles
from threebraid import goeritz, linalg
from threebraid.braid import AltBraidWord, CrossingRef, alt_words


def test_goeritz_8_7(w87, g87_matrix):
    form = goeritz.goeritz_3braid(w87)
    assert form.matrix == g87_matrix
    assert form.region_map[0] == tuple(CrossingRef(0, k) for k in range(4))
    assert form.region_map[1] == (CrossingRef(2, 0),)
    assert form.region_map[2] == ()
    assert form.cycle_edges == (CrossingRef(1, 0), CrossingRef(3, 0),
                                CrossingRef(3, 1))


def test_goeritz_10_79(w1079, g1079_matrix):
    assert goeritz.goeritz_3braid(w1079).matrix == g1079_matrix


def test_goeritz_small_ranks():
    assert goeritz.goeritz_3braid(AltBraidWord(((3, 1),))).matrix == ((-3,),)
    assert goeritz.goeritz_3braid(AltBraidWord(((3, 2),))).matrix == \
        ((-5, 2), (2, -2))
    assert goeritz.goeritz_3braid(AltBraidWord(((1, 1), (1, 1)))).matrix == \
        ((-3, 2), (2, -3))


def test_one_rule_matches_the_branched_matrix():
    """The cycle-step rule gives the former per-rank matrices.

    Every alternating word of exponent <= 14, links included, so ranks 1
    and 2 (the loop and the doubled edge) are covered as well as cycles.
    """
    words = alt_words(14)
    assert len(words) == 2587
    assert {1, 2, 3} <= {w.r for w in words}
    for word in words:
        assert goeritz.goeritz_3braid(word).matrix == \
            oracles.branched_goeritz_matrix(word), word.pairs


def test_goeritz_pairs_reads_the_rule_back():
    """In the rule's row order the reader returns the word's own pairs.

    Rows in reverse order walk the cycle backwards from the last hub, so
    block l's hub is followed by the b_{l-1} rows of the block before it.
    """
    for word in alt_words(12):
        if word.r < 2:
            continue
        matrix = goeritz.goeritz_3braid(word).matrix
        assert goeritz.goeritz_pairs(matrix) == word.pairs
        flipped = tuple(row[::-1] for row in matrix[::-1])
        a, b = zip(*word.pairs)
        assert goeritz.goeritz_pairs(flipped) == \
            tuple((a[l], b[l - 1]) for l in reversed(range(word.m)))


def test_goeritz_pairs_refusals():
    with pytest.raises(ValueError, match="^need r >= 2$"):
        goeritz.goeritz_pairs(((-3,),))
    # the 8_7 form with its (0, 1) pairing doubled: walkable, not rebuilt
    doubled = ((-6, 2, 1), (2, -3, 1), (1, 1, -2))
    with pytest.raises(ValueError, match="not the Goeritz matrix"):
        goeritz.goeritz_pairs(doubled)


@pytest.mark.parametrize("matrix", [((-3, 1), (1,)),
                                    ((-3, 1, 1), (1, -2, 1)),
                                    ((-2, 1, 1), (1, -6, 1, 0), (1, 1, -3))],
                         ids=["ragged", "wide", "long row"])
def test_goeritz_pairs_refuses_a_non_square_matrix(matrix):
    """As linalg.det does: a ValueError, never an IndexError."""
    with pytest.raises(ValueError, match="^matrix is not square$"):
        goeritz.goeritz_pairs(matrix)


def test_determinants(w87, w1079):
    assert goeritz.determinant(goeritz.goeritz_3braid(w87)) == 23
    assert goeritz.determinant(goeritz.goeritz_3braid(w1079)) == 61
    assert goeritz.determinant(((-1,),)) == 1


def test_signatures(w87, w1079):
    assert goeritz.signature_normal_form(0, w87) == 2
    assert goeritz.signature_normal_form(0, w1079) == 0
    assert oracles.signature_torus3(7) == -8
    assert oracles.signature_torus3(5) == -8
    assert oracles.signature_torus3(4) == -6
    assert oracles.signature_torus3(2) == -2
    assert oracles.signature_torus3(-7) == 8
    with pytest.raises(ValueError):
        oracles.signature_torus3(6)


def test_s_invariant(w87):
    assert goeritz.s_invariant_normal_form(0, w87) == -2
    assert goeritz.s_invariant_normal_form(2, w87) == 10 - 2
    assert goeritz.s_invariant_normal_form(-1, w87) == -4 - 2
    assert oracles.s_invariant_torus3(4) == 6
    assert oracles.s_invariant_torus3(-4) == -6


def test_mirror(w87):
    assert goeritz.mirror_word(w87).pairs == ((2, 1), (1, 4))
    assert goeritz.mirror_word(goeritz.mirror_word(w87)) == w87
    assert goeritz.mirror_word(AltBraidWord(((1, 1),))).pairs == ((1, 1),)


def test_mirror_negates_signature():
    for word in alt_words(10):
        assert goeritz.signature_normal_form(0, goeritz.mirror_word(word)) == \
            -goeritz.signature_normal_form(0, word)


def test_determinant_parity_sweep():
    """det odd and congruent to signature + 1 mod 4, over the enumeration."""
    from threebraid.braid import is_knot_closure
    count = 0
    for word in alt_words(12):
        if not is_knot_closure(word.raw()):
            continue
        det = goeritz.determinant(goeritz.goeritz_3braid(word))
        sigma = goeritz.signature_normal_form(0, word)
        assert det % 2 == 1
        assert (det - sigma - 1) % 4 == 0, word.pairs
        count += 1
    assert count > 300


def test_negative_definite_sweep():
    for word in alt_words(12):
        assert linalg.is_negative_definite(goeritz.goeritz_3braid(word).matrix)


def test_incidence_flip(w87, g87_matrix):
    form = goeritz.goeritz_3braid(w87)
    flipped = oracles.flip_hub_crossing(form, 1)
    expect = [list(r) for r in g87_matrix]
    expect[1][1] = -1
    assert flipped == tuple(tuple(r) for r in expect)
    assert abs(linalg.det(flipped)) == 1


def test_invariant_record(w87):
    rec = goeritz.invariants(w87)
    assert (rec.determinant, rec.signature, rec.n) == (23, 2, 12)
    with pytest.raises(ValueError, match=r"sigma \+ 1 \(mod 4\)"):
        goeritz.InvariantRecord(23, 0, 0)   # wrong parity link
    with pytest.raises(ValueError):
        goeritz.InvariantRecord(24, 2, 0)   # even determinant


def test_json_ingestion(g87_matrix):
    text = json.dumps({"goeritz": [list(r) for r in g87_matrix]})
    form = goeritz.load_goeritz_json(text)
    assert form.matrix == g87_matrix
    assert form.region_map is None
    with pytest.raises(ValueError):
        goeritz.load_goeritz_json(json.dumps({"goeritz": [[1]]}))
    with pytest.raises(ValueError):
        goeritz.load_goeritz_json(json.dumps({"goeritz": [[-1, 2], [0, -1]]}))
    with pytest.raises(ValueError):
        goeritz.load_goeritz_json(json.dumps({"matrix": [[-1]]}))
    with pytest.raises(ValueError, match="no rows"):
        goeritz.load_goeritz_json(json.dumps({"goeritz": []}))
