import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from threebraid import braid
from threebraid.braid import (AltBraidWord, BraidSyntaxError, CrossingRef,
                              RawBraidWord)

import oracles
from oracles import TaggedDiagram


def test_parse_examples():
    assert braid.parse_braid_word("s1^-4 s2 s1^-1 s2^2").letters == \
        ((1, -4), (2, 1), (1, -1), (2, 2))
    assert braid.parse_braid_word("s1 s1^-1").letters == ()
    with pytest.raises(BraidSyntaxError):
        braid.parse_braid_word("s3^2")
    with pytest.raises(BraidSyntaxError):
        braid.parse_braid_word("s1^x")


def test_parse_merges_cascade():
    # dropping a cancelled block exposes a new junction
    w = braid.parse_braid_word("s1 s2 s2^-1 s1")
    assert w.letters == ((1, 2),)


def test_permutation_class():
    assert braid.permutation_class(braid.parse_braid_word("s1 s2")) != (0, 1, 2)
    assert braid.is_knot_closure(braid.parse_braid_word("s1 s2"))
    assert braid.is_knot_closure(braid.parse_braid_word("s1^-4 s2 s1^-1 s2^2"))
    assert braid.permutation_class(braid.parse_braid_word("s1^2")) == (0, 1, 2)


@pytest.mark.parametrize("shift", [0, 2, -2, 4])
def test_permutation_even_exponent_invariance(shift):
    w = RawBraidWord(((1, -1), (2, 1 + shift), (1, -3), (2, 2)))
    base = RawBraidWord(((1, -1), (2, 1), (1, -3), (2, 2)))
    assert braid.permutation_class(w) == braid.permutation_class(base)


def test_alt_canonical_examples():
    assert braid.alt_canonical(
        braid.parse_braid_word("s2^2 s1^-4 s2 s1^-1")).pairs == ((4, 1), (1, 2))
    assert braid.alt_canonical(
        braid.parse_braid_word("s1^-3 s2^2 s1^-2 s2^3")).pairs == ((3, 2), (2, 3))
    assert braid.alt_canonical(braid.parse_braid_word("s1 s2")) is None


def test_canonical_rotation_matches_the_retired_rotation():
    """Every sequence of pairs of total exponent <= 14."""
    seen = 0
    for total in range(2, 15):
        for parts in oracles.compositions(total):
            if len(parts) % 2 == 0:
                pairs = tuple(zip(parts[::2], parts[1::2]))
                assert AltBraidWord.canonical(pairs) == \
                    oracles.retired_alt_canonical(pairs)
                seen += 1
    assert seen == 8191


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
                max_size=6))
def test_canonical_rotation_refuses_as_the_retired_rotation(pairs):
    """The same word, or the same refusal, on any small integer pairs."""
    def outcome(canonical):
        try:
            return canonical(pairs)
        except ValueError as exc:
            return str(exc)

    assert outcome(AltBraidWord.canonical) == \
        outcome(oracles.retired_alt_canonical)


def test_alt_canonical_rotation_invariance():
    word = AltBraidWord.canonical(((2, 1), (1, 3), (4, 2)))
    assert word.pairs == ((4, 2), (2, 1), (1, 3))
    letters = word.raw().letters
    for s in range(len(letters)):
        rot = RawBraidWord(letters[s:] + letters[:s])
        assert braid.alt_canonical(rot) == word


def test_change_crossing_roundtrip():
    word = AltBraidWord(((4, 1), (1, 2)))
    changed = braid.change_crossing(word, CrossingRef(0, 1))
    assert changed.letters == ((1, -1), (1, 1), (1, -2), (2, 1), (1, -1), (2, 2))
    changed2 = braid.change_crossing(word, CrossingRef(3, 0))
    assert changed2.letters == ((1, -4), (2, 1), (1, -1), (2, -1), (2, 1))
    with pytest.raises(IndexError):
        braid.change_crossing(word, CrossingRef(0, 4))
    with pytest.raises(IndexError):
        braid.change_crossing(word, CrossingRef(4, 0))


def test_swap_generators_involution():
    w = braid.parse_braid_word("s1^-4 s2 s1^-1 s2^2")
    assert braid.swap_generators(braid.swap_generators(w)) == w


def test_reduce_case_a():
    out = braid.reduce_almost_alternating(RawBraidWord(((1, -2), (1, 1), (2, 1))))
    assert out.case == "A"
    assert braid.cyclic_key(out.residual) == (-1, 2)


def test_reduce_case_c():
    out = braid.reduce_almost_alternating(RawBraidWord(((1, 1), (2, 1))))
    assert out.case == "C"
    assert out.residual.letters == ((1, 1), (2, 1))


def test_reduce_family3():
    # family member with two rewrite steps: s1^-2 s2 s1 s2^2 ends at s1 s2
    out = braid.reduce_almost_alternating(
        RawBraidWord(((1, -2), (2, 1), (1, 1), (2, 2))))
    assert out.case == "C"
    assert len(out.trace) == 2
    assert braid.cyclic_key(out.residual) == (1, 2)


def test_reduce_case_b():
    # s1 s2^4 wraps into the double-twist pattern
    out = braid.reduce_almost_alternating(RawBraidWord(((1, 1), (2, 4))))
    assert out.case == "B"
    assert braid.cyclic_key(out.residual) == (-1,)


def test_reduce_precondition():
    with pytest.raises(ValueError):
        braid.reduce_almost_alternating(RawBraidWord(((1, -2), (2, 1))))
    with pytest.raises(ValueError):
        braid.reduce_almost_alternating(RawBraidWord(((1, 1), (2, -1))))


def test_unknot_examples():
    assert braid.almost_alt_unknot_test(
        RawBraidWord(((1, -1), (1, 1), (1, -1), (2, 1))))
    assert braid.almost_alt_unknot_test(RawBraidWord(((1, -2), (2, 1), (1, 1))))
    # crossing changed in the four-block of the 8_7 word: not the unknot
    word = AltBraidWord(((4, 1), (1, 2)))
    changed = braid.change_crossing(word, CrossingRef(0, 0))
    assert not braid.almost_alt_unknot_test(changed)


def test_unknot_iff_determinant_one():
    """Reduction endpoint against the incidence-flip determinant oracle."""
    for word in braid.alt_words(10):
        if not braid.is_knot_closure(word.raw()):
            continue
        for block in range(2 * word.m):
            changed = braid.change_crossing(word, CrossingRef(block, 0))
            if block % 2:
                changed = braid.swap_generators(changed)
            verdict = braid.almost_alt_unknot_test(changed)
            assert verdict == (oracles.changed_determinant(word, block) == 1), \
                (word.pairs, block)


def test_alt_words_counts():
    for bound, words, knots in ((6, 25, 11), (12, 777, 334), (14, 2587, 1115)):
        found = braid.alt_words(bound)
        assert len(found) == words
        assert sum(braid.is_knot_closure(w.raw()) for w in found) == knots
    assert [w.pairs for w in braid.alt_words(2)] == [((1, 1),)]


def test_rewriting_termination_bound():
    for word in braid.alt_words(9):
        for block in range(0, 2 * word.m, 2):
            changed = braid.change_crossing(word, CrossingRef(block, 0))
            out = braid.reduce_almost_alternating(changed)
            n = len(braid.symbols_of(changed))
            assert len(out.trace) <= 4 * n * n


def test_unknotting_crossings_8_7():
    word = AltBraidWord(((4, 1), (1, 2)))
    assert braid.unknotting_crossings(word) == (CrossingRef(2, 0),)
    assert braid.unknotting_crossings(AltBraidWord(((3, 2), (2, 3)))) == ()


def test_enumerate_matches_bruteforce_scan():
    generated = set(oracles.enumerate_unknotting_words(12))
    scanned = set()
    for word in braid.alt_words(12):
        for ref in braid.unknotting_crossings(word):
            scanned.add(oracles.canonical_tag(TaggedDiagram(word, ref)))
    assert generated == scanned
    assert len(generated) == 26


def test_enumeration_is_pinned():
    """sha256 of (pairs, letter, slot) per tag at bound 16, in order."""
    tags = oracles.enumerate_unknotting_words(16)
    keys = [(t.word.pairs, t.crossing.letter_index, t.crossing.strand_slot)
            for t in tags]
    assert len(keys) == 98
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == \
        "71c1fdd749e891f81b78605b83d4e35ce4e04597282586ab766814e66fd356d8"


def test_canonical_tag_matches_the_retired_orbit():
    """Every block of every word to exponent 12, against the crossing-level
    swap and mirror."""
    for word in braid.alt_words(12):
        for block in range(2 * word.m):
            tag = TaggedDiagram(word, CrossingRef(block, 0))
            assert oracles.canonical_tag(tag) == \
                oracles.retired_canonical_tag(tag)


@pytest.mark.parametrize("ref, message", [
    (CrossingRef(4, 0), "crossing letter out of range"),
    (CrossingRef(9, 0), "crossing letter out of range"),
    (CrossingRef(-1, 0), "crossing letter out of range"),
    (CrossingRef(0, 4), "crossing slot out of range"),
    (CrossingRef(1, 1), "crossing slot out of range"),
    (CrossingRef(3, -1), "crossing slot out of range"),
])
def test_canonical_tag_refuses_a_crossing_outside_the_diagram(w87, ref,
                                                              message):
    """The same refusals as change_crossing; the retired orbit wrapped."""
    with pytest.raises(IndexError, match=f"^{message}$"):
        braid.change_crossing(w87, ref)
    with pytest.raises(IndexError, match=f"^{message}$"):
        oracles.canonical_tag(TaggedDiagram(w87, ref))


def test_canonical_tag_accepts_every_crossing_of_the_diagram(w87):
    for letter, e in enumerate((4, 1, 1, 2)):
        for slot in range(e):
            tag = oracles.canonical_tag(
                TaggedDiagram(w87, CrossingRef(letter, slot)))
            assert tag == oracles.canonical_tag(
                TaggedDiagram(w87, CrossingRef(letter, 0)))


def test_enumerate_outputs_self_verify():
    for tag in oracles.enumerate_unknotting_words(9):
        changed = braid.change_crossing(tag.word, tag.crossing)
        if tag.crossing.letter_index % 2:
            changed = braid.swap_generators(changed)
        assert braid.almost_alt_unknot_test(changed)


def test_enumerate_bound_validation():
    with pytest.raises(ValueError):
        oracles.enumerate_unknotting_words(1)


def test_enumerate_smallest_bound():
    tags = oracles.enumerate_unknotting_words(2)
    assert [t.word.pairs for t in tags] == [((1, 1),)]


def test_word_json_roundtrip():
    word = AltBraidWord(((4, 1), (1, 2)))
    assert AltBraidWord.from_json(word.to_json()) == word


def test_empty_word_is_refused_by_its_class():
    """No pairs: the class's own m >= 1 refusal, not a failed rotation search."""
    for refuse in (lambda: AltBraidWord.canonical(()),
                   lambda: AltBraidWord.from_json([])):
        with pytest.raises(ValueError, match="^alternating word needs m >= 1$"):
            refuse()
