"""Words in the 3-strand braid group and the almost-alternating calculus.

A word is a cyclic sequence of letters ``(generator, exponent)`` with
generator 1 or 2.  Alternating words have the shape
``s1^-a1 s2^b1 ... s1^-am s2^bm`` with all ``a_i, b_i >= 1``; changing a
single crossing in one produces an almost-alternating word, and a
rewriting procedure decides whether its closure is the unknot.

All operations are pure functions on immutable values.
"""

from dataclasses import dataclass

from .linalg import TheoremViolation


class BraidSyntaxError(ValueError):
    """Raised for malformed braid word text."""


@dataclass(frozen=True)
class RawBraidWord:
    """Cyclic braid word; letters are (generator, exponent) with exponent != 0.

    Adjacent letters with the same generator are allowed: almost-alternating
    words such as s1^-2 s1 s2 genuinely need them.
    """

    letters: tuple

    def __post_init__(self):
        _check_pairs(self.letters)
        for g, e in self.letters:
            if type(g) is not int or type(e) is not int:
                raise BraidSyntaxError(f"non-integer letter ({g!r}, {e!r})")
            if g not in (1, 2):
                raise BraidSyntaxError(f"generator out of range: {g}")
            if e == 0:
                raise BraidSyntaxError("zero exponent letter")


@dataclass(frozen=True)
class AltBraidWord:
    """Alternating 3-braid word, stored as positive pairs (a_i, b_i)."""

    pairs: tuple

    def __post_init__(self):
        _check_pairs(self.pairs)
        if not self.pairs:
            raise ValueError("alternating word needs m >= 1")
        for a, b in self.pairs:
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"non-integer exponents ({a!r}, {b!r})")
            if a < 1 or b < 1:
                raise ValueError("alternating word needs all a_i, b_i >= 1")

    @property
    def m(self):
        return len(self.pairs)

    @property
    def r(self):
        return sum(b for _, b in self.pairs)

    def raw(self):
        letters = []
        for a, b in self.pairs:
            letters.append((1, -a))
            letters.append((2, b))
        return RawBraidWord(tuple(letters))

    @classmethod
    def canonical(cls, pairs):
        """The rotation whose signed exponent sequence (-a1, b1, ...) is least.

        pairs is a tuple or a list of pairs."""
        word = cls(tuple(pairs) if type(pairs) is list else pairs)
        pairs = word.pairs
        signed = [(-a, b) for a, b in pairs]
        best = min(range(len(pairs)), key=lambda s: signed[s:] + signed[:s])
        return word if best == 0 else cls(pairs[best:] + pairs[:best])

    def to_json(self):
        return [[a, b] for a, b in self.pairs]

    @classmethod
    def from_json(cls, data):
        return cls.canonical(_json_pairs(data))


def _check_pairs(seq):
    """Refuse, with ValueError, anything but a tuple of 2-tuples."""
    if type(seq) is not tuple or any(
            type(pair) is not tuple or len(pair) != 2 for pair in seq):
        raise ValueError(f"{seq!r} is not a tuple of pairs")


def _json_pairs(data):
    """A JSON list of lists as a tuple of tuples; ValueError else.

    The word's constructor refuses an entry that is not a pair."""
    if type(data) is not list or any(type(pair) is not list for pair in data):
        raise ValueError("a word is a list of pairs")
    return tuple(map(tuple, data))


@dataclass(frozen=True)
class CrossingRef:
    """A crossing of a word's diagram: which letter, and which strand of it."""

    letter_index: int
    strand_slot: int

    def to_json(self):
        return {"letter": self.letter_index, "slot": self.strand_slot}


@dataclass(frozen=True)
class ReductionOutcome:
    """Endpoint of the almost-alternating rewriting.

    case A: a cancelling pair appeared; residual is the cancelled word in
            s1^-1, s2 only.
    case B: the word equals a full twist times the residual.
    case C: the word itself stopped as s1 s2^k for k in {1, 2, 3}.
    """

    case: str
    residual: RawBraidWord
    trace: tuple


def parse_braid_word(text):
    """Parse whitespace-separated tokens 's1^e' / 's2^e' (no caret means 1).

    Adjacent letters with the same generator are merged and vanishing
    exponents dropped, so the result is the reduced spelling of the braid
    group element the text denotes.  An empty result is the identity word.

    >>> parse_braid_word("s1^-4 s2 s1^-1 s2^2").letters
    ((1, -4), (2, 1), (1, -1), (2, 2))
    >>> parse_braid_word("s1 s1^-1").letters
    ()
    """
    letters = []
    for token in text.split():
        body, caret, exp = token.partition("^")
        if body not in ("s1", "s2"):
            raise BraidSyntaxError(f"unknown generator {body!r}")
        if caret:
            try:
                e = int(exp)
            except ValueError:
                raise BraidSyntaxError(f"malformed exponent {exp!r}") from None
        else:
            e = 1
        letters.append((int(body[1]), e))
    return RawBraidWord(tuple(_merge_linear(letters)))


def _merge_linear(letters):
    # each letter absorbs backwards, so cancelled blocks cascade on their own
    out = []
    for g, e in letters:
        while out and out[-1][0] == g:
            e += out.pop()[1]
        if e != 0:
            out.append((g, e))
    return out


def symbols_of(word):
    """The word as a flat tuple of signed crossings: +-1 for s1, +-2 for s2."""
    syms = []
    for g, e in word.letters:
        syms.extend([g if e > 0 else -g] * abs(e))
    return tuple(syms)


def word_from_symbols(symbols, cyclic=True):
    """Reassemble letters from crossings, merging same-generator runs.

    With cyclic=True the first and last runs merge across the seam, and the
    result is rotated so it does not straddle it.
    """
    syms = list(symbols)
    if not syms:
        return RawBraidWord(())
    if cyclic and any(abs(s) != abs(syms[0]) for s in syms):
        i = 0
        while abs(syms[i - 1]) == abs(syms[0]):
            i -= 1
        syms = syms[i:] + syms[:i]
    letters = [(abs(s), 1 if s > 0 else -1) for s in syms]
    return RawBraidWord(tuple(_merge_linear(letters)))


def cyclic_key(word):
    """Canonical key of a word under cyclic rotation (on crossings)."""
    return _least_rotation(symbols_of(word))


def _least_rotation(syms):
    syms = tuple(syms)
    return min((syms[i:] + syms[:i] for i in range(len(syms))), default=())


PERM_S1 = (1, 0, 2)
PERM_S2 = (0, 2, 1)


def permutation_class(word):
    """Underlying permutation of the strands, as a tuple of images.

    Only exponent parity matters.  The closure is a knot exactly when this
    is a 3-cycle.
    """
    perm = (0, 1, 2)
    for g, e in word.letters:
        if e % 2:
            t = PERM_S1 if g == 1 else PERM_S2
            perm = tuple(t[perm[i]] for i in range(3))
    return perm


def is_knot_closure(word):
    return permutation_class(word) in ((1, 2, 0), (2, 0, 1))


def alt_canonical(word):
    """The alternating normal form of the word, if some rotation has one.

    Returns an AltBraidWord (canonical rotation) when the cyclic word is
    strictly alternating s1^-a s2^b ...; otherwise None.
    """
    pairs = _alt_pairs(symbols_of(word))
    return None if pairs is None else AltBraidWord.canonical(pairs)


def _alt_pairs(syms):
    """Pairs (a_i, b_i) of cyclic crossings spelling s1^-a1 s2^b1 ..., or None.

    They are read from the s1 block holding syms[0], or from the next one
    when syms[0] is in an s2 block.
    """
    if not syms or any(s in (1, -2) for s in syms):
        return None
    # only s1^-1 and s2 remain, so the merged letters alternate round the
    # cycle and there is an even number of them unless there is one
    letters = word_from_symbols(syms, cyclic=True).letters
    if len(letters) < 2:
        return None
    if letters[0][0] == 2:
        letters = letters[1:] + letters[:1]
    return tuple((-a, b) for (_, a), (_, b)
                 in zip(letters[::2], letters[1::2]))


def alt_words(bound):
    """Every canonical alternating word of total exponent <= bound, sorted."""
    if type(bound) is not int:
        raise ValueError(f"bound {bound!r} is not an integer")
    seen = set()

    def rec(pairs, budget):
        if pairs:
            seen.add(AltBraidWord.canonical(pairs).pairs)
        for a in range(1, budget + 1):
            for b in range(1, budget - a + 1):
                rec(pairs + [(a, b)], budget - a - b)

    rec([], bound)
    return [AltBraidWord(p) for p in sorted(seen)]


def swap_generators(word):
    """The generator swap s1^-1 <-> s2 (and s1 <-> s2^-1), letter by letter.

    This realizes the half-twist flip composed with mirroring; the closure
    of the image is the mirror of the closure of the input.
    """
    return RawBraidWord(tuple((3 - g, -e) for g, e in word.letters))


def change_crossing(word, ref):
    """Change one crossing of the standard diagram of an alternating word.

    The result is a RawBraidWord with that crossing's sign flipped in
    place; adjacent letters are deliberately left unmerged.
    """
    letters = word.raw().letters
    if not 0 <= ref.letter_index < len(letters):
        raise IndexError("crossing letter out of range")
    g, e = letters[ref.letter_index]
    k = ref.strand_slot
    if not 0 <= k < abs(e):
        raise IndexError("crossing slot out of range")
    sign = 1 if e > 0 else -1
    pieces = []
    if k:
        pieces.append((g, sign * k))
    pieces.append((g, -sign))
    if abs(e) - 1 - k:
        pieces.append((g, sign * (abs(e) - 1 - k)))
    new = letters[:ref.letter_index] + tuple(pieces) + letters[ref.letter_index + 1:]
    return RawBraidWord(new)


# The two length-reducing substitutions, on crossings:
#   s2 s1 s2 s1^-1 -> s1 s2      and      s1^-1 s2 s1 s2 -> s2 s1
_PATTERNS = (
    ((2, 1, 2, -1), (1, 2)),
    ((-1, 2, 1, 2), (2, 1)),
)


def _check_almost_alternating(syms):
    if syms.count(1) != 1:
        raise ValueError("word must contain exactly one s1 crossing")
    if any(s == -2 for s in syms):
        raise ValueError("word has an s2^-1 crossing; swap generators first")
    if 2 not in syms:
        raise ValueError("underlying word is not alternating (no s2 block)")


def reduce_almost_alternating(word):
    """Run the substitutions until stuck and classify the endpoint.

    The input must be cyclically almost-alternating on the s1 side: one
    s1^+1 crossing, everything else s1^-1 or s2.  Each substitution removes
    two crossings, so the run terminates well inside the 4*len^2 bound
    checked here.
    """
    syms = symbols_of(word)
    _check_almost_alternating(syms)
    trace = []
    bound = 4 * len(syms) * len(syms)
    while True:
        if len(trace) > bound:
            raise TheoremViolation("rewriting failed to terminate")
        hits = ((p, pat, _rewrite_at(syms, p, pat, repl))
                for p in range(len(syms)) for pat, repl in _PATTERNS)
        hit = next((h for h in hits if h[2] is not None), None)
        if hit is None:
            break
        p, pat, syms = hit
        trace.append((pat, p))
    return _classify(list(syms), tuple(trace))


def _rewrite_at(syms, p, old, new):
    """syms with `old` at cyclic position p replaced by `new`, else None.

    An occurrence that wraps past the end leaves `new` at the start.
    """
    n, k = len(syms), len(old)
    if n < k or any(syms[(p + i) % n] != old[i] for i in range(k)):
        return None
    if p + k <= n:
        return syms[:p] + new + syms[p + k:]
    return new + syms[p + k - n:p]


def _classify(syms, trace):
    n = len(syms)
    i0 = syms.index(1)
    left, right = syms[(i0 - 1) % n], syms[(i0 + 1) % n]
    if n >= 2 and (left == -1 or right == -1):
        out = list(syms)
        j = (i0 + 1) % n if right == -1 else (i0 - 1) % n
        for k in sorted((i0, j), reverse=True):
            del out[k]
        return ReductionOutcome("A", word_from_symbols(out), trace)
    if (n >= 5
            and syms[(i0 - 1) % n] == syms[(i0 - 2) % n] == 2
            and syms[(i0 + 1) % n] == syms[(i0 + 2) % n] == 2):
        # s2^2 s1 s2^2 equals s1^-1 times a full twist
        drop = {i0, (i0 - 1) % n, (i0 - 2) % n, (i0 + 1) % n, (i0 + 2) % n}
        out = [s for k, s in enumerate(syms) if k not in drop]
        out.insert(0, -1)
        return ReductionOutcome("B", word_from_symbols(out), trace)
    tail = syms[i0 + 1:] + syms[:i0]
    if not all(s == 2 for s in tail) or not 1 <= len(tail) <= 3:
        raise TheoremViolation(f"unclassifiable stuck word {syms}")
    return ReductionOutcome("C", word_from_symbols([1] + tail, cyclic=False), trace)


_UNKNOT_A = (-1, 2)
_UNKNOT_C = (1, 2)


def almost_alt_unknot_test(word):
    """True iff the closure of the almost-alternating word is the unknot.

    The closure must be a knot.  Case B endpoints always fail: there the
    closure has determinant at least five.
    """
    if not is_knot_closure(word):
        raise ValueError("closure is not a knot")
    out = reduce_almost_alternating(word)
    if out.case == "A":
        return cyclic_key(out.residual) == _UNKNOT_A
    if out.case == "C":
        return cyclic_key(out.residual) == _UNKNOT_C
    return False


def crossing_change_unknots(word, ref):
    """True iff changing crossing `ref` of the alternating word unknots it.

    The closure must be a knot.  A change in an s2 block is tested through
    the generator swap, which mirrors the closure and so preserves
    unknotting.
    """
    changed = change_crossing(word, ref)
    if ref.letter_index % 2:
        changed = swap_generators(changed)
    return almost_alt_unknot_test(changed)


def unknotting_crossings(word):
    """All blocks of an alternating word whose crossing change unknots.

    Returns one CrossingRef (slot 0) per block: crossings within a block
    are interchangeable.  A crossing change keeps every exponent's parity,
    so the knot test on the word stands for every changed word.
    """
    if not is_knot_closure(word.raw()):
        return ()
    refs = (CrossingRef(idx, 0) for idx in range(2 * word.m))
    return tuple(ref for ref in refs if crossing_change_unknots(word, ref))

