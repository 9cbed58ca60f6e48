import hashlib
import json
from collections import Counter

import pytest

from threebraid import braid, embed, forms, goeritz, linalg
from threebraid.braid import AltBraidWord, CrossingRef
from threebraid.embed import EmbeddingMatrix, TheoremViolation

import oracles
from conftest import A87, A1079


def test_change_making():
    assert embed.change_making_ok((1, 1, 3))
    assert not embed.change_making_ok((2, 2, 2, 3, 3))
    assert embed.change_making_ok(())
    assert embed.change_making_ok((3, 1, 1))      # sorts internally
    assert not embed.change_making_ok((0, 2))


def test_criterion_8_7(w87, g87_matrix):
    g = goeritz.goeritz_3braid(w87)
    sols = embed.criterion_search(g)
    assert len(sols) == 1
    displayed = EmbeddingMatrix(A87)
    assert oracles.witness_class_key(sols[0], g87_matrix) == \
        oracles.witness_class_key(displayed, g87_matrix)


def test_embedding_matrix_reads_r_from_rows():
    """r is the number of rows less x and y, so the layout needs no count."""
    a = EmbeddingMatrix(A87)
    assert a.r == 3
    assert a.v_rows == ((0, 0, 1, 2, -1), (1, 1, -1, 0, 0), (0, 0, 1, -1, 0))
    assert a.rows[-2] == (0, 1, 1, 1, 3)
    assert a.y_row == (1, -1, 0, 0, 0)
    assert tuple(row[2:] for row in a.v_rows) == ((1, 2, -1), (-1, 0, 0), (1, -1, 0))


def test_criterion_10_79(w1079, g1079_matrix):
    g = goeritz.goeritz_3braid(w1079)
    assert embed.criterion_search(g) == ()
    relaxed = embed.criterion_search(g, change_making=False)
    assert len(relaxed) == 1
    assert tuple(sorted(relaxed[0].rows[-2][2:])) == (2, 2, 2, 3, 3)
    displayed = EmbeddingMatrix(A1079)
    assert oracles.witness_class_key(relaxed[0], g1079_matrix) == \
        oracles.witness_class_key(displayed, g1079_matrix)


def test_criterion_trefoil_vs_exhaustive():
    g = ((-3,),)
    sols = embed.criterion_search(g)
    assert sols
    raw = oracles.exhaustive_criterion(g, 2)
    assert raw
    keys = {oracles.witness_class_key(EmbeddingMatrix(a), g) for a in raw}
    assert keys == {oracles.witness_class_key(a, g) for a in sols}


def test_criterion_fig8_vs_exhaustive():
    g = goeritz.goeritz_3braid(AltBraidWord(((1, 1), (1, 1)))).matrix
    sols = embed.criterion_search(g)
    raw = oracles.exhaustive_criterion(g, 3)
    keys = {oracles.witness_class_key(EmbeddingMatrix(a), g) for a in raw}
    assert keys == {oracles.witness_class_key(a, g) for a in sols}
    assert sols


def test_criterion_input_validation():
    for matrix in (((-1,),), ((-2,),)):     # determinants 1 and 2
        with pytest.raises(ValueError, match="n >= 2"):
            embed.criterion_search(matrix)


@pytest.mark.parametrize("matrix, message", [
    (((-3, 1), (0, -1)), "not symmetric"),
    (((2, 1), (1, 2)), "not negative definite"),
])
def test_criterion_refuses_malformed_raw_forms(matrix, message):
    """Both have determinant 3 = 2n - 1 at n = 2; neither is a Goeritz form."""
    with pytest.raises(ValueError, match=message):
        embed.criterion_search(matrix)
    with pytest.raises(ValueError, match=message):
        embed.embed_form(matrix, 2)
    for enforce in (True, False):
        with pytest.raises(ValueError, match=message):
            embed.search_stage([matrix], enforce)


def _sweep_sides(monkeypatch):
    """Every (form, n) that u1_pipeline hands to search_stage at total
    exponent <= 12, keyed by (matrix, n)."""
    sides = {}

    def record(forms, enforce):
        for form in forms:
            n = (goeritz.determinant(form) + 1) // 2
            sides.setdefault((form.matrix, n), form)
        return "search_empty", tuple(() for _ in forms)

    monkeypatch.setattr(embed, "search_stage", record)
    for word in braid.alt_words(12):
        if braid.is_knot_closure(word.raw()):
            embed.u1_pipeline(word)
    assert len(sides) == 145
    return sides


def test_criterion_matches_retired_loop(monkeypatch):
    """Same matrices in the same order as the plain backtracker, on every
    sweep side."""
    found = 0
    for (_, n), form in _sweep_sides(monkeypatch).items():
        for change_making in (True, False):
            sols = embed.criterion_search(form, change_making)
            assert sols == oracles.retired_criterion_search(
                form, n, change_making)
            found += len(sols)
    assert found == 90


def test_row_candidates_match_retired_enumeration(monkeypatch):
    """Same rows in the same order as the uncached enumeration, on every
    (diag, x tail) the sweep sides reach, strict and relaxed, and on the
    all-zero tails that embed_form asks for, where they are the plain
    norm vectors; rows equal in value are one object across keys."""
    keys = set()
    for matrix, n in _sweep_sides(monkeypatch):
        r = len(matrix)
        for change_making in (True, False):
            for xbar in embed._x_tails(r, n - 1, change_making):
                keys.update((-matrix[i][i], xbar) for i in range(r))
    zero_tails = {(d, (0,) * k) for d in range(7) for k in range(9)}
    shared = {}
    total = 0
    for diag, xbar in sorted(keys | zero_tails):
        rows = embed._row_candidates(diag, xbar)
        assert rows == oracles.retired_row_candidates(diag, xbar)
        if (diag, xbar) in zero_tails:
            assert rows == oracles.norm_vectors(diag, len(xbar))
        for row in rows:
            assert shared.setdefault(row, row) is row
        total += len(rows)
    assert len(shared) < total


def test_witness_invariants():
    """Gram identity, |det A| = D and det C = +-1 on every emitted witness."""
    for word in braid.alt_words(9):
        if not braid.is_knot_closure(word.raw()):
            continue
        g = goeritz.goeritz_3braid(word)
        d = goeritz.determinant(g)
        sigma = goeritz.signature_normal_form(0, word)
        if d == 1 or sigma not in (0, 2) or (d - sigma - 1) % 4:
            continue
        for a in embed.criterion_search(g):
            assert abs(linalg.det(a.rows)) == d
            assert abs(linalg.det(tuple(row[2:] for row in a.v_rows))) == 1
            gram = linalg.neg(linalg.gram(a.rows))
            r = a.r
            for i in range(r):
                assert gram[i][:r] == g.matrix[i]
            assert gram[r][r:] == (-((d + 1) // 2), 1)
            assert gram[r + 1][r:] == (1, -2)


def test_embed_form_pretzel():
    """The displayed embeddings are the classes; 8 is pretzel-check's widest."""
    m = forms.PRETZEL_FORM
    for n in (5, 6, 7, 8):
        targets = {oracles.signed_column_canonical(oracles.pretzel_embedding(w, n))
                   for w in ((1,) if n == 5 else (1, 2))}
        classes = embed.embed_form(m, n)
        assert len(classes) == len(targets)
        assert {oracles.signed_column_canonical(b) for b in classes} == targets


def test_embed_form_trivial_and_canonical_closure():
    assert embed.embed_form(((-1,),), 1) == (((1,),),)
    for b in embed.embed_form(forms.PRETZEL_FORM, 6):
        canon_cols = oracles.signed_column_canonical(b)
        as_matrix = tuple(zip(*canon_cols))
        assert oracles.signed_column_canonical(as_matrix) == canon_cols
    with pytest.raises(ValueError):
        embed.embed_form(forms.PRETZEL_FORM, 4)


def test_embed_form_returns_canonical_representatives():
    """Each returned matrix is its own class's canonical form, one per class.

    Over the pretzel form at ranks 5-8 and the Goeritz form of every word
    of exponent <= 8 at ranks r, r + 1 and r + 2.
    """
    cases = [(forms.PRETZEL_FORM, n) for n in (5, 6, 7, 8)]
    for word in braid.alt_words(8):
        m = goeritz.goeritz_3braid(word).matrix
        cases.extend((m, len(m) + extra) for extra in range(3))
    several = 0
    for m, n in cases:
        classes = embed.embed_form(m, n)
        assert classes == oracles.retired_embed_form(m, n)
        keys = [oracles.signed_column_canonical(b) for b in classes]
        assert [tuple(zip(*key)) for key in keys] == list(classes)
        assert len(set(keys)) == len(keys)
        several += len(classes) > 1
    # the distinct-key check bites: 57 of the 235 cases have several classes
    assert several == 57


def test_embed_form_pads_past_minus_trace():
    """Only -trace(M) columns can be nonzero, so a wide target only pads,
    and rank 3000 costs what rank 5 does."""
    m = ((-2, 1), (1, -3))
    narrow = embed.embed_form(m, 5)
    assert len(narrow) == 1
    assert embed.embed_form(m, 3000) == tuple(
        tuple(row + (0,) * 2995 for row in b) for b in narrow)


def test_embed_form_gram_validated():
    for b in embed.embed_form(forms.PRETZEL_FORM, 7):
        assert linalg.neg(linalg.gram(b)) == forms.PRETZEL_FORM


def test_normalize_sigma2(w87):
    g = goeritz.goeritz_3braid(w87)
    a = EmbeddingMatrix(A87)
    vsum = [sum(col) for col in zip(*a.v_rows)]
    assert vsum == [1, 1, 1, 1, -1]
    norm = embed.normalize_sigma2(a)
    assert [sum(col) for col in zip(*norm.v_rows)] == [1, 1, 1, 1, 1]
    assert embed.normalize_sigma2(norm) == norm      # idempotent
    ref = embed.extract_crossing_sigma2(norm, g)
    assert ref == CrossingRef(2, 0)
    row = norm.v_rows[1]
    assert sum(v * v for v in row) == 3              # square -3 < -2


def test_extract_sigma2_uniqueness_violation(w87):
    g = goeritz.goeritz_3braid(w87)
    bad = EmbeddingMatrix((
        (1, 1, 1, 0, 0),
        (1, 1, -1, 0, 0),
        (0, 0, 1, -1, 0),
        (0, 1, 1, 1, 3),
        (1, -1, 0, 0, 0)))
    with pytest.raises(TheoremViolation):
        embed.extract_crossing_sigma2(bad, g)


def test_normalize_sigma0_fig8():
    word = AltBraidWord(((1, 1), (1, 1)))
    g = goeritz.goeritz_3braid(word)
    sols = embed.criterion_search(g)
    assert sols
    norm, ref = embed.normalize_sigma0_and_extract(sols[0], g)
    assert norm.y_row == (1, 1, 0, 0)
    assert ref in g.cycle_edges
    assert braid.crossing_change_unknots(word, ref)
    c = tuple(row[2:] for row in sols[0].v_rows)
    assert abs(linalg.det(linalg.neg(linalg.gram(c)))) == 1
    i = [t for t, row in enumerate(norm.v_rows) if row[:2] == (1, -1)]
    j = [t for t, row in enumerate(norm.v_rows) if row[:2] == (-1, 1)]
    assert len(i) == len(j) == 1
    # r = 2: the two marked rows pair to 2
    assert -sum(a * b for a, b in
                zip(norm.v_rows[i[0]], norm.v_rows[j[0]])) == 2


def test_normalize_sigma0_orthogonal_marks_rejected():
    # hand-built: M5-like rows with an x slot; the marked rows pair to 0
    rows = ((0, 0, 1, -1, 0, 0),
            (0, 0, 0, 0, 1, -1),
            (1, -1, 0, 1, 0, 1),
            (-1, 1, 0, 1, 0, 1),
            (0, 0, 0, 0, 0, 0),
            (1, 1, 0, 0, 0, 0))
    a = EmbeddingMatrix(rows)
    word = AltBraidWord(((2, 2), (2, 2)))
    g = goeritz.goeritz_3braid(word)
    with pytest.raises(TheoremViolation):
        embed.normalize_sigma0_and_extract(a, g)


def test_verify_unknotting(w87):
    g = goeritz.goeritz_3braid(w87)
    a = EmbeddingMatrix(A87)
    assert braid.crossing_change_unknots(w87, CrossingRef(2, 0))
    assert not braid.crossing_change_unknots(w87, CrossingRef(0, 0))
    c = tuple(row[2:] for row in a.v_rows)
    assert abs(linalg.det(linalg.neg(linalg.gram(c)))) == 1
    expect = [list(r) for r in g.matrix]
    expect[1][1] = -1
    assert linalg.neg(linalg.gram(c)) == tuple(tuple(r) for r in expect)


def test_pipeline_8_7(w87):
    rep = embed.u1_pipeline(w87)
    assert (rep.determinant, rep.sigma, rep.n, rep.epsilon) == (23, 2, 12, -1)
    assert rep.stage == "witness" and rep.verdict == "witness"
    assert len(rep.witnesses) == 1
    w = rep.witnesses[0]
    assert w.case == "sigma2" and w.verified and not w.mirrored
    assert w.crossing == CrossingRef(2, 0)


def test_pipeline_10_79(w1079):
    rep = embed.u1_pipeline(w1079)
    assert rep.stage == "change_making" and rep.verdict == "obstructed"
    assert rep.witnesses == ()
    relaxed = embed.u1_pipeline(w1079, enforce_change_making=False)
    assert relaxed.stage == "witness"
    assert len({oracles.witness_class_key(w.matrix,
                goeritz.goeritz_3braid(w1079).matrix)
                for w in relaxed.witnesses if not w.mirrored}) == 1


def test_pipeline_stages():
    assert embed.u1_pipeline(AltBraidWord(((5, 1),))).stage == "sigma_bound"
    assert embed.u1_pipeline(AltBraidWord(((1, 1),))).stage == "parity"
    with pytest.raises(ValueError):
        embed.u1_pipeline(AltBraidWord(((2, 2),)))   # link closure


def test_relaxed_search_only_when_no_side_has_a_witness(monkeypatch):
    """The stage is the knot's: the chain-free re-search runs only when no
    side has a witness, and stops at the first side that has a matrix.
    Counted over the 103 knot words of exponent <= 10."""
    calls = Counter()
    search = embed.criterion_search

    def counted(form, change_making=True):
        calls[change_making] += 1
        return search(form, change_making=change_making)

    monkeypatch.setattr(embed, "criterion_search", counted)
    words = [w for w in braid.alt_words(10) if braid.is_knot_closure(w.raw())]
    assert len(words) == 103
    for word in words:
        relaxed = calls[False]
        if embed.u1_pipeline(word).stage == "witness":
            assert calls[False] == relaxed, word.pairs
    assert (calls[True], calls[False]) == (78, 39)


def test_pipeline_mirror_side():
    word = AltBraidWord(((1, 4), (2, 1)))   # sigma = -2: runs on the mirror
    rep = embed.u1_pipeline(word)
    assert rep.sigma == -2
    assert rep.input_mirrored
    assert rep.stage == "witness"
    for w in rep.witnesses:
        assert w.mirrored


def test_pipeline_json_is_pinned():
    """One sha256 over the strict and relaxed reports of every knot word of
    exponent <= 12 (334 words, 668 reports): verdicts, stages, witness
    matrices, their order and their crossings."""
    reports = [embed.u1_pipeline(w, e).to_json()
               for w in braid.alt_words(12) if braid.is_knot_closure(w.raw())
               for e in (True, False)]
    assert len(reports) == 668
    digest = hashlib.sha256(
        json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == ("eab925be22d41b60b936d34bf75ed1e6"
                      "15d4163efcd4495136ff83b950dd73c7")


def test_pipeline_report_roundtrip(w87, w1079):
    for rep in (embed.u1_pipeline(w87), embed.u1_pipeline(w1079)):
        assert embed.PipelineReport.from_json(rep.to_json()) == rep
    # every document a run writes reads back: all 103 knot words of
    # exponent <= 10, strict and relaxed, through a JSON round trip
    words = [w for w in braid.alt_words(10) if braid.is_knot_closure(w.raw())]
    assert len(words) == 103
    for w in words:
        for enforce in (True, False):
            doc = json.loads(json.dumps(embed.u1_pipeline(w, enforce).to_json()))
            assert embed.PipelineReport.from_json(doc).to_json() == doc


def test_pipeline_report_refuses_an_empty_word(w87):
    data = embed.u1_pipeline(w87).to_json()
    data["word"] = []
    with pytest.raises(ValueError, match="^alternating word needs m >= 1$"):
        embed.PipelineReport.from_json(data)


def test_word_symmetry_obstruction(w87, w1079):
    passed, sides = embed.word_symmetry_obstruction(w87)
    assert passed and sides == {"table": False, "negated": True}
    passed, sides = embed.word_symmetry_obstruction(w1079)
    assert not passed
    passed, _ = embed.word_symmetry_obstruction(AltBraidWord(((1, 1), (1, 1))))
    assert passed


def test_symmetry_passes_on_every_unknotted_word():
    """The two obstructions against each other on exponent <= 12.

    A word whose crossing change unknots it (the family test) must pass the
    correction-term symmetry test, or that test would not be sound.  The
    whole table over the 333 knot words with D > 1 is pinned as measured:
    the two obstructions rest on different theorems, so their agreement
    on the other words is a fact about this range, not a law.
    """
    table = Counter()
    for word in braid.alt_words(12):
        if not braid.is_knot_closure(word.raw()):
            continue
        if goeritz.determinant(goeritz.goeritz_3braid(word)) == 1:
            continue
        unknotted = bool(braid.unknotting_crossings(word))
        try:
            passed, _ = embed.word_symmetry_obstruction(word)
        except forms.NonCyclicCokernel:
            passed = "noncyclic"
        if unknotted:
            assert passed is True, word.pairs
        table[unknotted, passed] += 1
    assert table == {(True, True): 71, (False, False): 244,
                     (False, "noncyclic"): 18}
