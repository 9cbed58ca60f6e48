"""Malformed input is refused with ValueError.

The generated cases cover linalg and forms; the recorded cases add braid
words, certificate readers and sizes.  Each generated case starts from a valid input, checks that it is
accepted, and then breaks it in one way: an entry of the wrong type, a
ragged or non-square shape, or a malformed table.  Nothing may be coerced
into a verdict.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from threebraid import braid, embed, expansions, forms, linalg
from threebraid.braid import AltBraidWord, RawBraidWord

import oracles

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


@st.composite
def chain_forms(draw):
    """Linear plumbings of length 1 to 4 with odd determinant at least 3.

    Their cokernel is cyclic, so every matrix consumer accepts them.
    """
    k = draw(st.integers(1, 4))
    diag = draw(st.lists(st.integers(2, 6), min_size=k, max_size=k))
    m = tuple(tuple(-diag[i] if i == j else int(abs(i - j) == 1)
                    for j in range(k)) for i in range(k))
    assume(abs(linalg.det(m)) % 2 == 1 and abs(linalg.det(m)) >= 3)
    return m


def _bad_entry(draw, x):
    """Something that is not an int, some of it equal to the int x."""
    return draw(st.sampled_from((float(x), Fraction(x), str(x), x == -1,
                                 None, x + 0.5)))


@st.composite
def bad_entry_forms(draw):
    """A valid form with one entry replaced by a non-int."""
    m = [list(row) for row in draw(chain_forms())]
    i = draw(st.integers(0, len(m) - 1))
    j = draw(st.integers(0, len(m) - 1))
    m[i][j] = _bad_entry(draw, m[i][j])
    return m


@st.composite
def ragged_forms(draw):
    """A valid form of rank at least 2 with one row shortened or extended."""
    m = [list(row) for row in draw(chain_forms())]
    assume(len(m) >= 2)
    i = draw(st.integers(0, len(m) - 1))
    if draw(st.booleans()):
        m[i].pop()
    else:
        m[i].append(0)
    return m


@st.composite
def non_square_forms(draw):
    """A valid form with its last row or column dropped, or a zero column
    appended: every row equally long, but not square."""
    m = [list(row) for row in draw(chain_forms())]
    cut = draw(st.sampled_from(("row", "column", "extra")))
    if cut == "row":
        return m[:-1] or [[]]
    if cut == "column":
        return [row[:-1] for row in m]
    return [row + [0] for row in m]


MATRIX_CONSUMERS = (forms.coker_map, forms.d_table_sharp,
                    forms.symmetry_sides)


@SETTINGS
@given(chain_forms())
def test_chain_forms_are_accepted(m):
    assert linalg.freeze(m) == m
    for consume in MATRIX_CONSUMERS:
        consume(m)


@SETTINGS
@given(st.one_of(bad_entry_forms(), ragged_forms()))
def test_malformed_entries_and_rows_are_refused(m):
    with pytest.raises(ValueError):
        linalg.freeze(m)
    for consume in MATRIX_CONSUMERS:
        with pytest.raises(ValueError):
            consume(m)


@SETTINGS
@given(non_square_forms())
def test_non_square_forms_are_refused(m):
    # freeze takes rectangular matrices: embeddings are k x N
    assert linalg.freeze(m) == tuple(map(tuple, m))
    for consume in MATRIX_CONSUMERS:
        with pytest.raises(ValueError):
            consume(m)


@st.composite
def unknot_tables(draw):
    return forms.d_table_halfint_unknot(draw(st.integers(1, 15)) * 2 + 1)


@SETTINGS
@given(unknot_tables(), st.data())
def test_malformed_tables_are_refused(table, data):
    D, values = table.determinant, table.values
    assert forms.DTable(D, values) == table
    bad_d = data.draw(st.sampled_from(
        (float(D), str(D), True, None, D + 1, -D, 0, D + 2)))
    with pytest.raises(ValueError):
        forms.DTable(bad_d, values)
    i = data.draw(st.integers(0, D - 1))
    broken = list(values)
    broken[i] = data.draw(st.sampled_from(
        (float(values[i]), str(values[i]), values[i].numerator, True, None)))
    for bad_values in (tuple(broken), list(values), values[:-1]):
        with pytest.raises(ValueError):
            forms.DTable(D, bad_values)


@SETTINGS
@given(unknot_tables(), st.data())
def test_malformed_table_json_is_refused(table, data):
    doc = table.to_json()
    assert forms.DTable.from_json(doc) == table
    D = table.determinant
    label = str(data.draw(st.integers(0, D - 1)))
    kind = data.draw(st.sampled_from((
        "determinant", "no determinant", "no values", "values list",
        "value type", "missing label", "extra label", "not an object")))
    if kind == "determinant":
        doc["determinant"] = data.draw(st.sampled_from(
            (D + 0.7, float(D), str(D), True, None, D + 2)))
    elif kind == "no determinant":
        del doc["determinant"]
    elif kind == "no values":
        del doc["values"]
    elif kind == "values list":
        doc["values"] = list(doc["values"].values())
    elif kind == "value type":
        doc["values"][label] = data.draw(st.sampled_from(
            (float(Fraction(doc["values"][label])), None, 0, ["0"], "1/0")))
    elif kind == "missing label":
        del doc["values"][label]
    elif kind == "extra label":
        doc["values"][str(D)] = "0"
    else:
        doc = list(doc.items())
    with pytest.raises(ValueError):
        forms.DTable.from_json(doc)


def test_refusals_of_the_recorded_cases(w87):
    """Inputs that used to be coerced or to fail with other errors, or to
    be accepted."""
    unknot = forms.d_table_halfint_unknot(3)
    doc = unknot.to_json()
    report = embed.u1_pipeline(AltBraidWord(((2, 1), (1, 2)))).to_json()
    r87 = embed.u1_pipeline(w87).to_json()
    assert report["witnesses"]
    witness = report["witnesses"][0]

    def with_witness(doc, **fields):
        """doc with the given fields of its first witness replaced."""
        return dict(doc, witnesses=[dict(doc["witnesses"][0], **fields),
                                    *doc["witnesses"][1:]])

    cases = [
        lambda: forms.d_table_sharp(((-6.9, 1), (1, -2))),
        lambda: embed.embed_form(((-2.5,),), 2),
        lambda: linalg.freeze(((-2, True), (1, -2))),
        lambda: linalg.freeze(5),
        lambda: forms.DTable(3, (0.5, 0.25, 0.25)),
        lambda: forms.DTable(3, ("1/2", "-1/6", "-1/6")),
        lambda: forms.DTable(3.0, unknot.values),
        lambda: forms.DTable.from_json(dict(doc, determinant=3.7)),
        lambda: forms.DTable.from_json({"determinant": 3}),
        lambda: forms.DTable.from_json(
            dict(doc, values={**doc["values"], "0": "1/0"})),
        lambda: forms.DTable.from_json(
            dict(doc, values={**doc["values"], "1": "-3/0"})),
        lambda: forms.d_table_halfint_unknot(5.0),
        lambda: forms.twist_knot_form(2.5),
        lambda: forms.twist_knot_form(True),
        lambda: AltBraidWord(((1.5, 2),)),
        lambda: AltBraidWord(((True, 2),)),
        lambda: AltBraidWord.canonical(((1.9, 2),)),
        lambda: AltBraidWord.canonical((("3", 2),)),
        lambda: AltBraidWord.from_json([[1.9, 2]]),
        lambda: AltBraidWord.from_json([["3", 2]]),
        lambda: embed.PipelineReport.from_json(
            with_witness(report, crossing={"letter": 1.7, "slot": "0"})),
        lambda: embed.PipelineReport.from_json(
            with_witness(report, crossing={"letter": 1, "slot": False})),
        lambda: RawBraidWord(((1, -1.5),)),
        lambda: RawBraidWord(((True, -1),)),
        lambda: embed.PipelineReport.from_json(
            dict(report, change_making_enforced="false")),
        lambda: embed.PipelineReport.from_json(dict(report, sigma=0.0)),
        lambda: embed.PipelineReport.from_json(dict(report, n=True)),
        lambda: embed.PipelineReport.from_json(dict(report, witnesses=[
            dict(witness, verified=1)])),
        lambda: embed.PipelineReport.from_json(dict(report, witnesses=[
            dict(witness, matrix=[[1.0] * len(row)
                                  for row in witness["matrix"]])])),
        lambda: embed.PipelineReport.from_json({}),
        lambda: embed.PipelineReport.from_json([]),
        lambda: embed.PipelineReport.from_json(
            {key: v for key, v in report.items() if key != "note"}),
        lambda: embed.PipelineReport.from_json(dict(report, stage="bogus")),
        lambda: embed.PipelineReport.from_json(
            dict(report, stage="search_empty")),
        lambda: embed.PipelineReport.from_json(dict(report, witnesses=[])),
        lambda: embed.PipelineReport.from_json(dict(report, witnesses=[
            dict(witness, matrix=[[1]])])),
        lambda: embed.PipelineReport.from_json(dict(report, witnesses=[
            dict(witness, matrix=witness["matrix"][:-1])])),
        lambda: embed.PipelineReport.from_json(dict(report, witnesses=[
            dict(witness, crossing=5)])),
        lambda: embed.PipelineReport.from_json(dict(report, n=99)),
        lambda: embed.PipelineReport.from_json(dict(r87, epsilon=7)),
        lambda: embed.PipelineReport.from_json(dict(r87, epsilon=1)),
        lambda: embed.PipelineReport.from_json(dict(r87, verdict="obstructed")),
        lambda: embed.PipelineReport.from_json(
            {key: v for key, v in r87.items() if key != "verdict"}),
        lambda: embed.PipelineReport.from_json(dict(r87, input_mirrored=True)),
        lambda: embed.PipelineReport.from_json(dict(r87, note="x")),
        lambda: embed.PipelineReport.from_json(dict(r87, witnesses=[
            dict(w, case="bogus") for w in r87["witnesses"]])),
        lambda: embed.PipelineReport.from_json(dict(r87, witnesses=[
            dict(w, case="sigma0") for w in r87["witnesses"]])),
        lambda: embed.PipelineReport.from_json(dict(r87, witnesses=[
            dict(w, verified=False) for w in r87["witnesses"]])),
        lambda: embed.PipelineReport.from_json(dict(r87, witnesses=[
            dict(w, mirrored=True) for w in r87["witnesses"]])),
        lambda: embed.PipelineReport.from_json(
            with_witness(report, crossing={})),
        lambda: embed.PipelineReport.from_json(with_witness(report, crossing=5)),
        lambda: AltBraidWord.from_json(5),
        lambda: AltBraidWord.from_json([5]),
        lambda: AltBraidWord((5,)),
        lambda: AltBraidWord.canonical([5]),
        lambda: RawBraidWord((5,)),
        lambda: AltBraidWord([(1, 2)]),
        # certificates no run writes, each consistent in its derived keys
        lambda: embed.PipelineReport.from_json(dict(
            r87, stage="search_empty", verdict="obstructed", witnesses=[])),
        lambda: embed.PipelineReport.from_json(with_witness(
            report, matrix=[[int(i == j) for j in range(5)]
                            for i in range(5)])),
        lambda: embed.PipelineReport.from_json(
            with_witness(report, crossing={"letter": -7, "slot": 99})),
        lambda: embed.PipelineReport.from_json(
            dict(report, determinant=27, n=14)),
        lambda: embed.PipelineReport.from_json(dict(
            r87, sigma=4, epsilon=0,
            witnesses=[dict(w, case="sigma0") for w in r87["witnesses"]])),
        lambda: embed.PipelineReport.from_json(dict(
            r87, change_making_enforced=False, witnesses=[
                dict(w, crossing=None) for w in r87["witnesses"]])),
        lambda: embed.PipelineReport.from_json(
            dict(r87, word=r87["word"][1:] + r87["word"][:1])),
        lambda: embed.PipelineReport.from_json(dict(r87, comment="")),
        lambda: expansions.generate_balanced(2.5),
        lambda: braid.alt_words(2.5),
        lambda: embed.embed_form(((-2,),), 2.5),
        lambda: oracles.enumerate_unknotting_words(2.5),
        lambda: linalg.smith_normal_form(((1, 2), (3,))),
    ]
    for case in cases:
        with pytest.raises(ValueError):
            case()
    assert r87["sigma"] == 2 and r87["change_making_enforced"]
    for good in (report, r87):
        assert embed.PipelineReport.from_json(good).to_json() == good
    assert linalg.smith_normal_form(((2, 4, 0),))[0] == (2,)
