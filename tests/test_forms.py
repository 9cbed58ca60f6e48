import hashlib
import json
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from threebraid import braid, forms, goeritz, linalg
from threebraid.braid import AltBraidWord


def test_twist_knot_form():
    assert forms.twist_knot_form(12) == ((-12, 1), (1, -2))
    assert linalg.det(forms.twist_knot_form(12)) == 23
    assert linalg.is_negative_definite(forms.twist_knot_form(2))


def test_negative_definite_guards(g87_matrix):
    assert linalg.is_negative_definite(g87_matrix)
    assert linalg.is_negative_definite(forms.twist_knot_form(12))
    assert not linalg.is_negative_definite(((1,),))


def test_coker_twist():
    cm = forms.coker_map(forms.twist_knot_form(12))
    assert cm.invariant_factors == (23,)
    assert cm.is_cyclic and cm.order == 23
    # the exact labelling (a, b) -> a + 12 b
    def label(vec):
        return sum(w * v for w, v in zip(cm.label_row, vec)) % cm.order

    assert label((1, 0)) == 1
    assert label((0, 1)) == 12
    assert label((-12, 1)) == 0
    assert label((1, -2)) == 0


def test_coker_pretzel_and_trivial():
    cm = forms.coker_map(forms.PRETZEL_FORM)
    # the prose count of 25 classes contradicts the displayed matrix, whose
    # determinant is -9; see the decisions ledger
    assert cm.order == 9
    assert cm.invariant_factors == (9,)
    assert forms.coker_map(((-1,),)).order == 1


def test_coker_class_well_defined():
    cm = forms.coker_map(forms.twist_knot_form(7))
    for vec in ((1, 0), (0, 1), (3, -2)):
        shifted = tuple(v + r for v, r in zip(vec, forms.twist_knot_form(7)[0]))
        assert cm.class_of(vec) == cm.class_of(shifted)


def test_char_box_counts(g87_matrix):
    assert len(oracles.char_box(forms.twist_knot_form(2))) == 9
    assert oracles.char_box(((-1,),)) == ((-1,), (1,))
    box = oracles.char_box(g87_matrix)
    # direct enumeration oracle: product of per-axis counts |M_ii| + 1
    assert len(box) == 7 * 4 * 3 == 84
    assert len(set(box)) == 84
    for c in box:
        assert all((ci - g87_matrix[i][i]) % 2 == 0 for i, ci in enumerate(c))


def test_covector_square():
    assert oracles.covector_square(forms.twist_knot_form(5), (1, -2)) == -2
    assert oracles.covector_square(((-1,),), (1,)) == -1
    with pytest.raises(ValueError):
        oracles.covector_square(((-1,),), (1, 1))
    with pytest.raises(ValueError):
        oracles.covector_square(forms.twist_knot_form(5), (2, 0))


def test_covector_square_nonpositive(g87_matrix):
    for c in oracles.char_box(g87_matrix):
        sq = oracles.covector_square(g87_matrix, c)
        assert sq <= 0
        assert (sq == 0) == (all(v == 0 for v in c))


def test_dtable_validation():
    with pytest.raises(ValueError):
        forms.DTable(3, (Fraction(0), Fraction(1), Fraction(0)))  # asymmetric
    with pytest.raises(ValueError):
        forms.DTable(3, (Fraction(1, 5), Fraction(0), Fraction(0)))
    t = forms.d_table_halfint_unknot(3)
    assert [str(v) for v in t.values] == ["1/2", "-1/6", "-1/6"]


def test_dtable_sharp_cross_validation():
    for d in range(3, 400, 2):
        tu = forms.d_table_halfint_unknot(d)
        ts = oracles.closed_form_unknot_table(d)
        assert tu.values == ts.values, d
        if d % 4 == 1:
            assert tu.values[0] == 0
        assert all(tu.values[i] == tu.values[-i] for i in range(d))


def test_dtable_sharp_trivial():
    assert forms.d_table_sharp(((-1,),)).values == (Fraction(0),)


def test_dtable_sharp_noncyclic():
    with pytest.raises(forms.NonCyclicCokernel) as exc:
        forms.d_table_sharp(((-5, 0), (0, -5)))
    assert exc.value.invariant_factors == (5, 5)


# -E8: a chain of seven nodes with an eighth joined to the fifth
_E8_EDGES = {(i, i + 1) for i in range(6)} | {(4, 7)}
NEG_E8 = tuple(tuple(-2 if i == j else int((i, j) in _E8_EDGES
                                           or (j, i) in _E8_EDGES)
                     for j in range(8)) for i in range(8))


def test_dtable_sharp_matches_box_oracle():
    """The half-box walk equals the per-point sweep of the whole box.

    Knot words of exponent <= 12 with r <= 5 and a cyclic cokernel, the
    twist forms n <= 100, the rank-1 forms of odd determinant up to 9, the
    empty form, -I_k for k = 2..5 (no axis holds 0) and -E8 (every axis
    holds 0, so the zero prefix runs to the last coordinate).
    """
    cases = [forms.twist_knot_form(n) for n in range(1, 101)]
    cases += [((-d,),) for d in range(1, 10, 2)] + [()]
    cases += [tuple(tuple(-(i == j) for j in range(k)) for i in range(k))
              for k in range(2, 6)]
    cases.append(NEG_E8)
    assert linalg.det(NEG_E8) == 1
    words = 0
    for word in braid.alt_words(12):
        if not braid.is_knot_closure(word.raw()):
            continue
        m = goeritz.goeritz_3braid(word).matrix
        if len(m) <= 5 and forms.coker_map(m).is_cyclic:
            cases.append(m)
            words += 1
    assert words == 161
    for m in cases:
        assert forms.d_table_sharp(m) == oracles.box_d_table_sharp(m), m


def test_dtable_sharp_walks_half_the_box(g87_matrix, g1079_matrix):
    """Each call of d_table_sharp's inner walk fixes one prefix
    c_0 .. c_{t-1}, and the half walk takes one of each pair c, -c: at depth
    t it makes (N_t + z_t) / 2 calls, where N_t = prod_{i<t} (|M_ii| + 1)
    counts the prefixes of the whole box and z_t = 1 when the zero prefix
    is among them (every M_ii with i < t even).  Calls are counted with
    sys.setprofile."""
    walk = next(c for c in forms.d_table_sharp.__code__.co_consts
                if getattr(c, "co_name", None) == "walk")

    def walked(m):
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is walk:
                calls.append(frame)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            forms.d_table_sharp(m)
        finally:
            sys.setprofile(previous)
        return len(calls)

    def half_box(m):
        total, prefixes, zero = 0, 1, 1
        for i in range(len(m)):
            total += (prefixes + zero) // 2
            prefixes *= abs(m[i][i]) + 1
            zero &= m[i][i] % 2 == 0
        return total

    neg_i3 = tuple(tuple(-(i == j) for j in range(3)) for i in range(3))
    cases = {"-E8": NEG_E8, "-I_3": neg_i3,
             "8_7": g87_matrix, "10_79": g1079_matrix}
    counts = {name: walked(m) for name, m in cases.items()}
    assert counts == {name: half_box(m) for name, m in cases.items()}
    assert counts == {"-E8": 1644, "-I_3": 4, "8_7": 19, "10_79": 193}


def test_printed_tables_are_pinned():
    """One sha256 over the JSON of every sharp table of a cyclic knot word of
    exponent <= 12 (316 words) and every unknot table of odd 3 <= D <= 255."""
    record = []
    for word in braid.alt_words(12):
        if not braid.is_knot_closure(word.raw()):
            continue
        m = goeritz.goeritz_3braid(word).matrix
        if forms.coker_map(m).is_cyclic:
            record.append([word.pairs, forms.d_table_sharp(m).to_json()])
    assert len(record) == 316
    record += [forms.d_table_halfint_unknot(d).to_json()
               for d in range(3, 256, 2)]
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == ("d6bd000f534390ec7d3eb98aa0f18788"
                      "5e992fc512238b8bfafc7ef2b4a0d711")


@st.composite
def odd_cyclic_forms(draw):
    """-(B B^T + diag(s)) for small B and s: negative definite when nonsingular."""
    k = draw(st.integers(1, 4))
    b = [draw(st.lists(st.integers(-1, 1), min_size=k, max_size=k))
         for _ in range(k)]
    s = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    m = tuple(tuple(-sum(x * y for x, y in zip(b[i], b[j])) - (i == j) * s[i]
                    for j in range(k)) for i in range(k))
    assume(linalg.det(m) != 0)
    coker = forms.coker_map(m)
    assume(coker.order % 2 == 1 and coker.is_cyclic)
    return m


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(odd_cyclic_forms())
def test_dtable_sharp_matches_box_oracle_on_random_forms(m):
    assert forms.d_table_sharp(m) == oracles.box_d_table_sharp(m)


def test_window_sufficiency():
    """Per-class maxima over the box match the doubled box (k <= 5)."""
    cases = [forms.twist_knot_form(3), forms.twist_knot_form(6),
             goeritz.goeritz_3braid(AltBraidWord(((4, 1), (1, 2)))).matrix,
             goeritz.goeritz_3braid(AltBraidWord(((1, 1), (1, 1)))).matrix,
             goeritz.goeritz_3braid(AltBraidWord(((3, 2), (2, 3)))).matrix]
    for m in cases:
        k = len(m)
        coker = forms.coker_map(m)
        best = {}
        for c in oracles.char_box(m):
            cls = coker.class_of(c)
            sq = oracles.fraction_square(m, c)
            if cls not in best or sq > best[cls]:
                best[cls] = sq
        # the doubled box, stepping only through characteristic values
        axes = [range(2 * m[i][i] + (m[i][i] % 2), -2 * m[i][i] + 1, 2)
                for i in range(k)]
        wide = {}
        for c in product(*axes):
            cls = coker.class_of(c)
            sq = oracles.fraction_square(m, c)
            if cls not in wide or sq > wide[cls]:
                wide[cls] = sq
        assert best == wide, m


def test_integer_scoring_matches_fraction_oracle():
    """Sharp tables and squares equal the Fraction-inverse computation."""
    tables = 0
    for word in braid.alt_words(8):
        if not braid.is_knot_closure(word.raw()):
            continue
        m = goeritz.goeritz_3braid(word).matrix
        coker = forms.coker_map(m)
        if not coker.is_cyclic:
            continue
        D, k = coker.order, len(m)
        best = [None] * D
        for c in oracles.char_box(m):
            sq = oracles.fraction_square(m, c)
            assert oracles.covector_square(m, c) == sq
            label = sum(w * v for w, v in zip(coker.label_row, c)) \
                * pow(2, -1, D) % D
            if best[label] is None or sq > best[label]:
                best[label] = sq
        expect = tuple((b + k) / 4 for b in best)
        assert forms.d_table_sharp(m).values == expect, word.pairs
        tables += 1
    assert tables == 32


def test_sharp_table_label_zero_is_quarter_signature():
    """Classical anchor: the value at the central label is -sigma/4.

    This pins the spin-c labelling and the table's overall orientation at
    once, independently of the maximizer bookkeeping.
    """
    from threebraid.braid import alt_words, is_knot_closure

    checked = 0
    for word in alt_words(9):
        if not is_knot_closure(word.raw()):
            continue
        g = goeritz.goeritz_3braid(word)
        if goeritz.determinant(g) == 1:
            continue
        sigma = goeritz.signature_normal_form(0, word)
        try:
            table = forms.d_table_sharp(g.matrix)
        except forms.NonCyclicCokernel:
            continue
        assert table.values[0] == Fraction(-sigma, 4), word.pairs
        checked += 1
    assert checked >= 30


def test_symmetry_unknot_tables():
    for d in (3, 5, 9, 23):
        unknot = forms.d_table_halfint_unknot(d)
        assert oracles.halfint_symmetry_test(unknot)


def test_symmetry_trefoil():
    table = forms.d_table_sharp(((-3,),))
    assert oracles.halfint_symmetry_test(table)


def test_symmetry_perturbation_fails():
    t = forms.d_table_halfint_unknot(9)
    vals = list(t.values)
    vals[1] += 1
    vals[8] += 1
    assert not oracles.halfint_symmetry_test(forms.DTable(9, tuple(vals)))


def test_symmetry_sides_builds_one_unknot_table(monkeypatch, g87_matrix):
    calls = []
    build = forms._unknot_quarters
    monkeypatch.setattr(forms, "_unknot_quarters",
                        lambda d: calls.append(d) or build(d))
    assert forms.symmetry_sides(g87_matrix) == {"table": False,
                                                "negated": True}
    assert calls == [23]  # both orientations share the table


def test_unknot_table_matches_box_oracle():
    """The unknot table, the closed form for L(D, 2), equals the box sweep
    of the twist form for every odd D up to 401, past the symmetry
    workload's 255: `dtable --unknot` takes any odd D."""
    for d in range(3, 402, 2):
        m = forms.twist_knot_form((d + 1) // 2)
        assert forms.d_table_halfint_unknot(d) == \
            oracles.box_d_table_sharp(m), d


def test_symmetry_sides_computes_one_cokernel(monkeypatch, g87_matrix):
    """Only the word's table needs coker_map; the unknot table is labelled
    in closed form."""
    calls = []
    coker = forms.coker_map
    monkeypatch.setattr(forms, "coker_map",
                        lambda m: calls.append(m) or coker(m))
    cases = [g87_matrix, ((-3,),)]
    cases += [forms.twist_knot_form(n) for n in range(2, 12)]
    for m in cases:
        forms.symmetry_sides(m)
    assert calls == cases


def test_dtable_quarters():
    """The integers 4D*v, by label, for every unknot table D <= 99."""
    for d in range(3, 100, 2):
        t = forms.d_table_halfint_unknot(d)
        assert all(type(q) is int for q in t.quarters)
        assert t.quarters == tuple(4 * d * v for v in t.values), d
    assert forms.d_table_halfint_unknot(3).quarters == (6, -2, -2)


def _sides_or_refusal(sides, m):
    """symmetry_sides(m) by either implementation, or its refusal."""
    try:
        return sides(m)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_symmetry_sides_match_the_fraction_test_on_words():
    """Both sides equal the retired Fraction test, refusals included, on
    every word of exponent <= 12 with r <= 6 and determinant above 1."""
    outcomes = {}
    for word in braid.alt_words(12):
        if word.r > 6:
            continue
        g = goeritz.goeritz_3braid(word)
        if goeritz.determinant(g) == 1:
            continue
        got = _sides_or_refusal(forms.symmetry_sides, g.matrix)
        assert got == _sides_or_refusal(oracles.retired_symmetry_sides,
                                        g.matrix), word.pairs
        key = tuple(got.values()) if isinstance(got, dict) \
            else got.split(":")[0]
        outcomes[key] = outcomes.get(key, 0) + 1
    assert outcomes == {(False, False): 146, (False, True): 27,
                        (True, False): 21, (True, True): 17,
                        "NonCyclicCokernel": 15,
                        "ValueError": 340}  # even determinants


def test_symmetry_sides_match_the_fraction_test_on_twist_forms():
    """The twist form of every odd determinant D <= 99, D = 1 refused."""
    for d in range(1, 100, 2):
        m = forms.twist_knot_form((d + 1) // 2)
        got = _sides_or_refusal(forms.symmetry_sides, m)
        assert got == _sides_or_refusal(oracles.retired_symmetry_sides, m), d
        assert got == ("ValueError: D must be odd and at least 3" if d == 1
                       else {"table": True, "negated": d in (3, 5)}), d


def test_symmetry_test_matches_the_fraction_test_on_perturbed_tables():
    """The unknot table of D = 23 with one conjugate pair of labels moved
    by 1/(4D), on both orientations."""
    d = 23
    unknot = forms.d_table_halfint_unknot(d)
    answers = []
    for i in range(d):
        vals = list(unknot.values)
        for j in {i, -i % d}:
            vals[j] += Fraction(1, 4 * d)
        for table in (forms.DTable(d, tuple(vals)),
                      forms.DTable(d, tuple(-v for v in vals))):
            got = oracles.halfint_symmetry_test(table)
            assert got == oracles.retired_halfint_symmetry_test(table, unknot)
            answers.append(got)
    assert answers.count(True) == 3


def test_unknot_table_checks_its_maximizers(monkeypatch):
    """A tabulated maximizer that is not characteristic is a theorem failure.

    For D = 5 (n = 3) the covector (2i, 0) has label 2i but an even first
    entry, while characteristic needs it odd.
    """
    monkeypatch.setattr(oracles, "table_maximizers", lambda D, i: ((2 * i, 0),))
    with pytest.raises(forms.TheoremViolation, match="not characteristic"):
        oracles.closed_form_unknot_table(5)


def test_coverage_pretzel():
    m = forms.PRETZEL_FORM
    order = forms.coker_map(m).order
    full = {(i,) for i in range(order)}
    for n in (5, 6, 7, 8):
        cov = forms.one_vector_coverage(oracles.pretzel_embedding(1, n))
        assert len(full - cov) == 6
        assert (0,) in cov
    for n in (6, 7, 8):
        cov = forms.one_vector_coverage(oracles.pretzel_embedding(2, n))
        assert full - cov == {(0,)}


def test_coverage_trivial():
    assert forms.one_vector_coverage(((1,),)) == {()}


def test_coverage_signed_permutation_invariance():
    a = oracles.pretzel_embedding(1, 6)
    base = forms.one_vector_coverage(a)
    twisted = tuple((row[3], -row[0], row[5], row[2], -row[4], row[1])
                    for row in a)
    assert forms.one_vector_coverage(twisted) == base


def test_dtable_json_roundtrip():
    t = forms.d_table_halfint_unknot(9)
    assert forms.DTable.from_json(t.to_json()) == t


def test_dtable_from_json_refuses_wrong_labels():
    """Every label of Z/D needs a value, and no other label may have one.

    The labels are read only as far as the values reach, so a table that
    claims D = 10**12 is refused at once, at a label it lacks."""
    doc = forms.d_table_halfint_unknot(3).to_json()
    del doc["values"]["2"]
    with pytest.raises(ValueError, match="label 2"):
        forms.DTable.from_json(doc)
    doc = forms.d_table_halfint_unknot(3).to_json()
    doc["values"]["7"] = "0"
    with pytest.raises(ValueError, match="label 7"):
        forms.DTable.from_json(doc)
    doc = {"determinant": 10**12, "values": {}}
    with pytest.raises(ValueError, match="^label 0: "):
        forms.DTable.from_json(doc)
    doc["values"] = {"0": "0", "1": "0", "x": "0"}
    with pytest.raises(ValueError, match="^label 2: "):
        forms.DTable.from_json(doc)


def test_pretzel_fixture_gram():
    for which, width in ((1, 5), (2, 6)):
        a = oracles.pretzel_embedding(which, width + 2)
        assert linalg.neg(linalg.gram(a)) == forms.PRETZEL_FORM
    with pytest.raises(ValueError):
        oracles.pretzel_embedding(2, 5)
