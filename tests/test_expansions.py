import hashlib
import json
import re
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from threebraid import embed, expansions as xp, goeritz, linalg
from threebraid.braid import AltBraidWord

import oracles


@lru_cache(maxsize=None)
def _members(r_max):
    layers = xp.generate_balanced(r_max)
    return tuple(pe for ms in layers.values() for pe in ms)


def test_seeds_are_members():
    assert xp.goeritz_parameters(xp.SEED_M1) == ((2,), (2,))
    assert xp.goeritz_parameters(xp.SEED_M2) == ((1, 1), (1, 1))
    assert xp.goeritz_parameters(xp.SEED_M3) == ((1, 1, 1), (1, 1, 1))
    for seed in (xp.SEED_M1, xp.SEED_M2, xp.SEED_M3):
        assert oracles.is_balanced(seed)
        assert linalg.neg(linalg.gram(seed.rows))[-1][-1] == -2


def test_membership_rejections():
    # Gram and column sums fine, but no marked row pair: the Gram reader
    # accepts it, membership (marked_rows) does not
    no_marks = xp.PartialEmbedding(((0, 0, 2, 0), (0, 0, -1, 1), (1, 1, 0, 0)))
    xp.goeritz_parameters(no_marks)
    with pytest.raises(ValueError):
        no_marks.marked_rows()
    with pytest.raises(ValueError):
        xp.goeritz_parameters(xp.PartialEmbedding(((1, -1, 1, 1),
                                                   (-1, 1, 0, 0),
                                                   (1, -1, 0, 0))))  # bad y


# one matrix per defect, rows with y last: (defect, rows, message), where
# the message is goeritz_parameters' own; a defect that its Gram reader
# goeritz.goeritz_pairs catches keeps the name the retired per-entry
# check gave it
GOERITZ_REJECTIONS = [
    ("shape must be (r+1) x (r+2)", ((1, 1, 0),),
     "shape must be (r+1) x (r+2)"),
    ("meridian row must be (1, 1, 0, ..., 0)", ((0, 0, 1), (1, 0, 0)),
     "meridian row must be (1, 1, 0, ..., 0)"),
    ("column 2 does not sum to 1", ((0, 0, 2), (1, 1, 0)),
     "column 2 does not sum to 1"),
    ("meridian row is not orthogonal to the cycle rows",
     ((0, 1, 0, 1), (0, -1, 1, 0), (1, 1, 0, 0)),
     "meridian row is not orthogonal to the cycle rows"),
    ("need r >= 2", ((0, 0, 1), (1, 1, 0)), "need r >= 2"),
    ("r = 2 needs a doubled edge",
     ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0)),
     "positive pairings do not form an r-cycle"),
    ("invalid diagonal", ((0, 0, 0, -1), (0, 0, 1, 2), (1, 1, 0, 0)),
     "not the Goeritz matrix of an alternating 3-braid"),
    ("cycle rows do not form an r-cycle",
     ((0, 0, 0, 1, 0), (0, 0, 0, 0, 0), (0, 0, 1, 0, 1), (1, 1, 0, 0, 0)),
     "positive pairings do not form an r-cycle"),
    ("off-diagonal entries must be 0 or 1",
     ((0, 0, 0, 1, 0, 1), (0, 0, 0, 1, 0, 1), (0, 0, 1, -1, 0, 0),
      (0, 0, 0, 0, 1, -1), (1, 1, 0, 0, 0, 0)),
     "no hub row: no diagonal entry is below -2"),
    # two disjoint triangles: every row has two neighbours
    ("adjacency is not a single cycle",
     ((0, 0, 1, 1, -1, 0, 0, 0), (0, 0, 1, -1, 1, 0, 0, 0),
      (0, 0, -1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, -1),
      (0, 0, 0, 0, 0, 1, -1, 1), (0, 0, 0, 0, 0, -1, 1, 1),
      (1, 1, 0, 0, 0, 0, 0, 0)), "positive pairings do not form an r-cycle"),
    ("diagonal entries must be at most -2",
     ((0, 0, 1, 2, 1), (0, 0, 0, 0, -1), (0, 0, 0, -1, 1), (1, 1, 0, 0, 0)),
     "not the Goeritz matrix of an alternating 3-braid"),
    ("empty matrix", (), "shape must be (r+1) x (r+2)"),
]


@pytest.mark.parametrize("rows, message",
                         [(rows, message) for _, rows, message
                          in GOERITZ_REJECTIONS],
                         ids=[defect for defect, _, _ in GOERITZ_REJECTIONS])
def test_goeritz_parameters_rejections(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        xp.goeritz_parameters(xp.PartialEmbedding(rows))


def _outcome(read, pe):
    try:
        return read(pe)
    except ValueError:
        return ValueError


def test_goeritz_parameters_match_the_retired_reader():
    """Same parameters on every member, and the same refusals."""
    for pe in _members(7):
        assert xp.goeritz_parameters(pe) == \
            oracles.retired_goeritz_parameters(pe)
    for _, rows, _ in GOERITZ_REJECTIONS:
        pe = xp.PartialEmbedding(rows)
        if not rows:
            # the retired reader indexes rows[0] before its shape check
            with pytest.raises(IndexError):
                oracles.retired_goeritz_parameters(pe)
            continue
        assert _outcome(oracles.retired_goeritz_parameters, pe) is ValueError


def _perturbed(pe, col, i, j):
    """pe with +1 at (i, col) and -1 at (j, col): column sums are kept."""
    rows = [list(row) for row in pe.rows]
    rows[i][col] += 1
    rows[j][col] -= 1
    return xp.PartialEmbedding(tuple(map(tuple, rows)))


def test_goeritz_parameters_match_the_retired_reader_near_members():
    """Every such move of one entry pair, on every member of rank <= 5."""
    accepted = 0
    for pe in _members(5):
        for col in range(2, pe.r + 2):
            for i in range(pe.r):
                for j in range(pe.r):
                    if i != j:
                        moved = _perturbed(pe, col, i, j)
                        got = _outcome(xp.goeritz_parameters, moved)
                        assert got == _outcome(
                            oracles.retired_goeritz_parameters, moved)
                        accepted += got is not ValueError
    assert accepted > 0


@st.composite
def perturbed_members(draw):
    pe = draw(st.sampled_from(_members(7)))
    col = draw(st.integers(2, pe.r + 1))
    i, j = draw(st.permutations(range(pe.r)))[:2]
    return _perturbed(pe, col, i, j)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(perturbed_members())
def test_goeritz_parameters_agree_with_the_retired_reader(pe):
    assert _outcome(xp.goeritz_parameters, pe) == \
        _outcome(oracles.retired_goeritz_parameters, pe)


def test_generation_counts():
    layers = xp.generate_balanced(6)
    assert {r: len(ms) for r, ms in layers.items()} == \
        {2: 2, 3: 2, 4: 5, 5: 12, 6: 31}
    assert {xp.canonical_form(pe) for pe in layers[2]} == \
        {xp.canonical_form(xp.SEED_M1), xp.canonical_form(xp.SEED_M2)}
    assert xp.canonical_form(xp.SEED_M3) in \
        {xp.canonical_form(pe) for pe in layers[3]}


def _rows(layers):
    return {r: [pe.rows for pe in ms] for r, ms in layers.items()}


def test_balanced_family_is_pinned():
    """The rows of generate_balanced(7), in order, hash as they always have."""
    layers = xp.generate_balanced(7)
    rows = [[list(row) for row in pe.rows]
            for r in sorted(layers) for pe in layers[r]]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "d6aa11909f2e2199ad6b13780c65fff5cd20bb6b87b59af44028c876277da2e7"


def test_each_kept_member_is_validated_once(monkeypatch):
    """The membership check runs on the members kept, not on every child."""
    checked, validate = [], xp._validate

    def counting(pe):
        checked.append(pe)
        return validate(pe)

    monkeypatch.setattr(xp, "_validate", counting)
    members = [pe for ms in xp.generate_balanced(7).values() for pe in ms]
    assert len(members) == len(checked) == 129
    assert {id(pe) for pe in checked} == {id(pe) for pe in members}
    for pe in members:
        assert validate(pe) is pe
        assert xp.column_multiset_check(pe)


def test_generated_layers_are_the_callers_own():
    """Changing the returned dict does not change the next call's."""
    layers = xp.generate_balanced(5)
    before = _rows(layers)
    layers.pop(5)
    layers[2] = layers[3]
    assert _rows(xp.generate_balanced(5)) == before


def test_generation_matches_bruteforce_small():
    layers = xp.generate_balanced(4)
    for r in (2, 3, 4):
        brute = oracles.brute_balanced(r)
        assert set(brute) == {xp.canonical_form(pe) for pe in layers[r]}, r


def test_canonical_form_matches_permutation_oracle():
    """Pinning the marked rows gives the key of all r! row orders."""
    seeds = (xp.SEED_M1, xp.SEED_M2, xp.SEED_M3)
    moves = [(pe, step) for pe in seeds + _members(5)
             for step in xp._expansion_steps(pe)]
    assert {step.kind for _, step in moves} == {1, 3}
    grown = [oracles.expand(pe, step) for pe, step in moves]
    assert max(pe.r for pe in grown) == 6
    for pe in seeds + tuple(grown):
        assert xp.canonical_form(pe) == oracles.permutation_canonical_form(pe)


def test_canonical_form_matches_pinned_oracle_at_rank_7():
    """Tail-only comparison gives the whole-key form on every expansion.

    The expansions of the rank <= 6 members of generate_balanced(7),
    duplicates included, reach rank 7.  Equal shape keys give equal keys,
    which is what lets _expand_layer skip a repeated shape key unkeyed;
    so do equal retired shape keys, which sort the middle rows by tail
    alone and so part the expansions more finely.
    """
    grown = [oracles.expand(pe, step) for pe in _members(6)
             for step in xp._expansion_steps(pe)]
    assert len(grown) == 432
    assert max(pe.r for pe in grown) == 7
    by_shape, by_retired_shape = {}, {}
    for pe in grown:
        key = xp.canonical_form(pe)
        assert key == oracles.pinned_canonical_form(pe)
        shape = xp._shape_key(xp._orientations(pe, pe.marked_rows()))
        assert by_shape.setdefault(shape, key) == key
        assert by_retired_shape.setdefault(oracles.retired_shape_key(pe),
                                           key) == key
    assert len(by_retired_shape) == 247
    assert len(by_shape) == 187
    assert len(set(by_shape.values())) == 126


def _children_of_members():
    """(child, parent) for every move on every member of rank <= 7."""
    return [(xp._grow(pe, step), pe) for pe in _members(7)
            for step in xp._expansion_steps(pe)]


def test_class_key_matches_the_retired_key():
    """The retired class key on every child of rank <= 8, read with the
    parent's marks as _expand_layer reads it (the child's own are the
    same); and equal shape keys give equal class keys."""
    children = _children_of_members()
    assert len(children) == 1210
    by_shape = {}
    for child, parent in children:
        key = oracles.retired_class_key(child)
        assert child.marked_rows() == parent.marked_rows()
        orients = xp._orientations(child, parent.marked_rows())
        assert xp._class_key(orients) == key
        assert by_shape.setdefault(xp._shape_key(orients), key) == key
    assert len(by_shape) == 579
    assert len(set(by_shape.values())) == 316


def test_grow_matches_the_retired_move():
    """Identical rows on every move of every member of rank <= 7."""
    moves = [(pe, step) for pe in (xp.SEED_M1, xp.SEED_M2, xp.SEED_M3)
             + _members(7) for step in xp._expansion_steps(pe)]
    assert {step.kind for _, step in moves} == {1, 3}
    for pe, step in moves:
        assert xp._grow(pe, step).rows == oracles.retired_grow(pe, step).rows


def _grown_or_refused(grow, pe, step):
    """The child's rows, the ValueError's message, or IndexError (whose
    message names the container)."""
    try:
        return grow(pe, step).rows
    except ValueError as exc:
        return str(exc)
    except IndexError:
        return IndexError


def test_grow_refuses_as_the_retired_move():
    """The same child or the same refusal on every step, valid or not, with
    roles and column one out of range on each side, on members of rank
    <= 4.  Where the retired move raised IndexError (a column beyond the
    matrix), the move refuses with a ValueError: both refuse."""
    refused = beyond = 0
    for pe in _members(4):
        roles = range(-1, pe.r + 1)
        for kind, a, b, col in product((0, 1, 2, 3), roles, roles,
                                       range(-1, pe.r + 3)):
            for c in (None,) + tuple(roles) if kind == 3 else (None,):
                step = xp.ExpansionStep(kind, a, b, col, c)
                got = _grown_or_refused(xp._grow, pe, step)
                want = _grown_or_refused(oracles.retired_grow, pe, step)
                if want is IndexError:
                    assert got == f"column {col} is beyond the matrix"
                    beyond += 1
                else:
                    assert got == want
                refused += isinstance(got, str)
    assert refused > beyond > 0


def test_expansion_steps_match_the_retired_reader():
    """The same moves in the same order, on every member of rank <= 8 and
    every child of rank <= 8."""
    children = tuple(child for child, _ in _children_of_members())
    for pe in _members(8) + children:
        assert xp._expansion_steps(pe) == oracles.retired_expansion_steps(pe)


def test_first_met_representatives_are_pinned():
    """The rows of _grow_balanced(8), in first-met order, hash as they
    always have: the representatives generate_balanced sorts."""
    layers = xp._grow_balanced(8)
    rows = [[list(row) for row in pe.rows]
            for r in sorted(layers) for pe in layers[r]]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        "1b150295c54cf22e456633a6903b90596abd304fb82e3fd2463f5ba2074fd1d0"


def test_class_key_is_complete_at_rank_7():
    """Equal class keys exactly when equal pinned keys, on every expansion.

    The 432 expansions of the rank <= 6 members of generate_balanced(7)
    fall into 126 classes; each class key meets one pinned key and each
    pinned key one class key.
    """
    grown = [oracles.expand(pe, step) for pe in _members(6)
             for step in xp._expansion_steps(pe)]
    assert len(grown) == 432
    pinned_of, class_of = {}, {}
    for pe in grown:
        key = xp._class_key(xp._orientations(pe, pe.marked_rows()))
        pinned = oracles.pinned_canonical_form(pe)
        assert pinned_of.setdefault(key, pinned) == pinned
        assert class_of.setdefault(pinned, key) == key
    assert len(pinned_of) == len(class_of) == 126


def test_canonical_form_runs_once_per_member(monkeypatch):
    """Layers dedupe by class key; the pinned search only orders them."""
    calls, canonical = [], xp.canonical_form

    def counting(pe):
        calls.append(pe)
        return canonical(pe)

    monkeypatch.setattr(xp, "canonical_form", counting)
    layers = xp.generate_balanced(7)
    assert len(calls) == sum(map(len, layers.values())) == 129
    calls.clear()
    assert xp.no_orthogonal_completion(7)
    assert not calls  # the blockade needs no order


def test_orthogonal_marks_are_kind1_reachable():
    """Every member with orthogonal marks grows from the two rank-2 seeds by
    kind-1 moves alone: the kind-1 classes, regenerated from the seeds,
    are classes of the balanced family, and they hold all 14 such members
    of rank <= 7."""
    oracle = {r: oracles.kind1_keys(r) for r in range(2, 8)}
    assert {r: len(keys) for r, keys in oracle.items()} == \
        {2: 2, 3: 1, 4: 4, 5: 10, 6: 27, 7: 69}
    layers = xp.generate_balanced(7)
    orthogonal = 0
    for r, keys in oracle.items():
        pinned = {oracles.pinned_canonical_form(pe): pe for pe in layers[r]}
        assert len(pinned) == len(layers[r])
        assert keys <= set(pinned), r
        for key, pe in pinned.items():
            if pe.pairing(*pe.marked_rows()) == 0:
                assert key in keys, r
                orthogonal += 1
    assert orthogonal == 14


def _relabelled(draw, pe):
    """pe with its cycle rows, head columns and tail columns moved."""
    order = draw(st.permutations(range(pe.r)))
    head = draw(st.sampled_from(((0, 1), (1, 0))))
    tail = draw(st.permutations(range(2, pe.r + 2)))
    cols = head + tuple(tail)
    rows = tuple(tuple(pe.v_rows[t][c] for c in cols) for t in order)
    return xp.PartialEmbedding(rows + (pe.y_row,))


@st.composite
def relabelled_members(draw):
    """A member up to rank 7 and a copy with its rows and columns moved."""
    pe = draw(st.sampled_from(_members(7)))
    return pe, _relabelled(draw, pe)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(relabelled_members())
def test_canonical_form_ignores_relabelling(pair):
    pe, copy = pair
    assert xp.canonical_form(copy) == xp.canonical_form(pe)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(relabelled_members())
def test_class_key_ignores_relabelling(pair):
    pe, copy = pair
    assert xp._class_key(xp._orientations(copy, copy.marked_rows())) == \
        xp._class_key(xp._orientations(pe, pe.marked_rows()))


@st.composite
def marked_matrices(draw):
    """The marked heads on two cycle rows, (0, 0) on the rest, any small tails.

    Mostly-zero tails give repeated rows, zero rows and tied columns.
    """
    r = draw(st.integers(2, 6))
    i, j = draw(st.permutations(range(r)))[:2]
    entry = st.sampled_from((-1, 0, 0, 0, 1, 2))
    tails = draw(st.lists(st.tuples(*[entry] * r), min_size=r, max_size=r))
    heads = [(1, -1) if t == i else (-1, 1) if t == j else (0, 0)
             for t in range(r)]
    rows = tuple(h + tail for h, tail in zip(heads, tails))
    return xp.PartialEmbedding(rows + ((1, 1) + (0,) * r,))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(marked_matrices())
def test_canonical_form_is_the_least_pinned_key(pe):
    """The pruned search finds the key of all 2 (r-2)! pinned orders."""
    assert xp.canonical_form(pe) == oracles.pinned_canonical_form(pe)


@st.composite
def relabelled_marked_matrices(draw):
    pe = draw(marked_matrices())
    return pe, _relabelled(draw, pe)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(relabelled_marked_matrices())
def test_class_key_ignores_relabelling_of_marked_matrices(pair):
    """Repeated rows and tied signatures included."""
    pe, copy = pair
    assert xp._class_key(xp._orientations(copy, copy.marked_rows())) == \
        xp._class_key(xp._orientations(pe, pe.marked_rows()))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(marked_matrices())
def test_class_key_agrees_with_the_retired_key(pe):
    """Repeated rows and tied signatures included."""
    assert xp._class_key(xp._orientations(pe, pe.marked_rows())) == \
        oracles.retired_class_key(pe)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(marked_matrices())
def test_expansion_steps_agree_with_the_retired_reader(pe):
    assert xp._expansion_steps(pe) == oracles.retired_expansion_steps(pe)


def test_canonical_form_needs_the_marked_heads():
    no_marks = xp.PartialEmbedding(((0, 0, 2, 0), (0, 0, -1, 1), (1, 1, 0, 0)))
    stray_head = xp.PartialEmbedding(((1, -1, 1, 0, 0), (-1, 1, 0, 1, 0),
                                      (1, 0, 0, 0, 1), (1, 1, 0, 0, 0)))
    for pe in (no_marks, stray_head):
        with pytest.raises(ValueError):
            xp.canonical_form(pe)


def test_column_multisets():
    layers = xp.generate_balanced(6)
    for ms in layers.values():
        for pe in ms:
            assert xp.column_multiset_check(pe)
    bad = xp.PartialEmbedding(((1, 1), (1, -1)))
    assert not xp.column_multiset_check(bad)


def _build_m5():
    m2 = xp.SEED_M2
    steps = xp._expansion_steps(m2)
    assert steps and all(s.kind == 1 for s in steps)
    m4 = oracles.expand(m2, steps[0])
    i4, j4 = m4.marked_rows()
    vj_as_a = [s for s in xp._expansion_steps(m4)
               if s.kind == 1 and s.a == j4 and s.b == i4]
    assert vj_as_a
    return m4, oracles.expand(m4, vj_as_a[0])


def test_expand_m4_m5_route():
    m4, m5 = _build_m5()
    assert m4.r == 3
    assert m4.pairing(*m4.marked_rows()) == 1
    assert m5.pairing(*m5.marked_rows()) == 0
    assert xp.goeritz_parameters(m5) == ((2, 2), (2, 2))


def test_expand_rejections():
    """Moves the member cannot take raise ValueError; kind 2 is not a move."""
    m2 = xp.SEED_M2
    step = xp._expansion_steps(m2)[0]
    bad = [(xp.ExpansionStep(1, step.a, step.a, step.col), "row roles"),
           (xp.ExpansionStep(1, step.a, step.b, 1), "never split"),
           (xp.ExpansionStep(3, step.a, step.b, step.col), "third row"),
           (xp.ExpansionStep(2, step.a, step.b, step.col),
            "unknown expansion kind"),
           (xp.ExpansionStep(1, 0, 1, 9), "column 9 is beyond the matrix")]
    for move, message in bad:
        with pytest.raises(ValueError, match=message):
            oracles.expand(m2, move)


# SEED_M2 with its meridian row broken, then with column 3 summing to 2
MALFORMED_PARENTS = [
    (((1, -1, 1, 0), (-1, 1, 0, 1), (1, 1, 0, 1)),
     "meridian row must be (1, 1, 0, ..., 0)"),
    (((1, -1, 1, 0), (-1, 1, 0, 2), (1, 1, 0, 0)), "column 3 does not sum to 1"),
]


@pytest.mark.parametrize("rows, message", MALFORMED_PARENTS,
                         ids=[m for _, m in MALFORMED_PARENTS])
def test_expand_refuses_a_malformed_parent(rows, message):
    """A move that applies to a non-member gives a child expand refuses."""
    parent = xp.PartialEmbedding(rows)
    step = xp.ExpansionStep(1, 0, 1, 2)
    assert step in xp._expansion_steps(xp.SEED_M2)
    assert step in xp._expansion_steps(parent)
    xp._grow(parent, step)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        oracles.expand(parent, step)


def test_contract_inverse():
    m2 = xp.SEED_M2
    step = xp._expansion_steps(m2)[0]
    m4 = oracles.expand(m2, step)
    assert oracles.contract(m4, m4.r - 1, keep=step.a) == m2


def test_contract_rejections():
    with pytest.raises(ValueError):
        oracles.contract(xp.SEED_M1, 1)  # r = 2: contraction needs r > 2
    _, m5 = _build_m5()
    marked = m5.marked_rows()[0]
    with pytest.raises(ValueError):
        oracles.contract(m5, marked)  # marked rows have square -4 here
    norm2 = [t for t, row in enumerate(m5.v_rows)
             if sum(v * v for v in row) == 2]
    shrunk = oracles.contract(m5, norm2[0])
    assert shrunk.r == 3
    xp.goeritz_parameters(shrunk)  # still a member


def test_kind2_never_generated():
    layers = xp.generate_balanced(5)
    for ms in layers.values():
        for pe in ms:
            for col in zip(*pe.rows):
                assert 2 not in col and -2 not in col


def test_structure_check_m5():
    _, m5 = _build_m5()
    block = xp.orthogonal_marked_structure(m5)
    assert (block.k, block.l) == (1, 1)


def test_structure_check_all_orthogonal():
    seen = {}
    for pe in _members(7):
        if pe.pairing(*pe.marked_rows()) != 0:
            continue
        block = xp.orthogonal_marked_structure(pe)
        assert block.k >= 1 and block.l >= 1
        seen[pe.r] = seen.get(pe.r, 0) + 1
    assert seen == {4: 1, 5: 1, 6: 4, 7: 8}


def test_structure_check_precondition():
    with pytest.raises(ValueError):
        xp.orthogonal_marked_structure(xp.SEED_M3)


# marked heads and orthogonal marks, but its Gram matrix is no Goeritz form
NON_MEMBER = xp.PartialEmbedding(((1, -1, 1, 1, 0), (-1, 1, 1, 1, 0),
                                  (0, 0, -1, -1, 1), (1, 1, 0, 0, 0)))


def test_structure_check_refuses_a_non_member():
    """Orthogonal marks on a matrix whose Gram is no Goeritz form: the
    membership refusal, not a theorem failure."""
    pe = NON_MEMBER
    assert pe.pairing(*pe.marked_rows()) == 0
    message = "not the Goeritz matrix of an alternating 3-braid"
    with pytest.raises(ValueError, match=f"^{message}$"):
        xp.orthogonal_marked_structure(pe)


def test_completion_refuses_a_non_member():
    """The x-tail solve and the blockade check give the membership refusal
    on a non-member with orthogonal marks, not "no completion" or a
    blockade verdict, alone or among the members of rank <= 4."""
    layers = {r: list(ms) for r, ms in xp._grow_balanced(4).items()}
    layers[NON_MEMBER.r].append(NON_MEMBER)
    message = "not the Goeritz matrix of an alternating 3-braid"
    for check in (lambda: xp.completion_x_tail(NON_MEMBER),
                  lambda: xp.no_orthogonal_completion_in({4: (NON_MEMBER,)}),
                  lambda: xp.no_orthogonal_completion_in(layers)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check()


def test_no_orthogonal_completion():
    assert xp.no_orthogonal_completion(4)
    assert xp.no_orthogonal_completion(6)
    with pytest.raises(ValueError, match="r_max must be at least 2"):
        xp.no_orthogonal_completion(1)


@pytest.mark.parametrize("r_max", range(2, 8))
def test_unordered_layers_are_the_generated_ones(r_max):
    """The first-met layers hold the members generate_balanced orders, and
    the blockade reads the same on either."""
    grown, ordered = xp._grow_balanced(r_max), xp.generate_balanced(r_max)
    assert grown.keys() == ordered.keys()
    for r, members in grown.items():
        assert len(members) == len(ordered[r])
        assert {pe.rows for pe in members} == {pe.rows for pe in ordered[r]}
    assert xp.no_orthogonal_completion(r_max) == \
        xp.no_orthogonal_completion_in(ordered)


def test_completion_nonvacuous():
    """A pairing-one member from a real witness does admit a completion."""
    word = AltBraidWord(((2, 1), (1, 2)))
    rep = embed.u1_pipeline(word)
    assert rep.stage == "witness"
    g = goeritz.goeritz_3braid(word)
    a = rep.witnesses[0].matrix
    norm, _ = embed.normalize_sigma0_and_extract(a, g)
    pe = xp.PartialEmbedding(norm.v_rows + (norm.y_row,))
    assert oracles.is_balanced(pe)
    assert pe.pairing(*pe.marked_rows()) == 1
    tail = xp.completion_x_tail(pe)
    assert tail is not None
    n = (goeritz.determinant(g) + 1) // 2
    assert 1 + sum(v * v for v in tail) == n
    layers = xp.generate_balanced(pe.r)
    assert xp.canonical_form(pe) in {xp.canonical_form(q) for q in layers[pe.r]}


def _fraction_solve(c, rhs):
    """The solution of c x = rhs by the Fraction inverse, None if not integral."""
    x = [sum(a * b for a, b in zip(row, rhs))
         for row in oracles.fraction_inverse(c)]
    return (tuple(int(v) for v in x)
            if all(v.denominator == 1 for v in x) else None)


def test_completion_tail_integral():
    """C xbar = -z solves integrally whenever det C = +-1."""
    layers = xp.generate_balanced(5)
    checked = 0
    for ms in layers.values():
        for pe in ms:
            if abs(linalg.det(pe.c_block())) != 1:
                continue
            z = tuple(row[0] for row in pe.v_rows)
            sol = _fraction_solve(pe.c_block(), tuple(-v for v in z))
            assert sol is not None
            checked += 1
    assert checked > 0


def test_completion_x_tail_matches_fraction_solve():
    """On every member up to rank 8 the x tail is None unless det C = +-1,
    and otherwise the first change-making tail solved by the Fraction
    inverse, for the head patterns in their order: 72 unimodular blocks,
    69 of them with det C = -1, where C^-1 = det(C) adj(C) is -adj(C)."""
    members = [pe for ms in xp._grow_balanced(8).values() for pe in ms]
    dets = []
    for pe in members:
        c = pe.c_block()
        d = linalg.det(c)
        tail = xp.completion_x_tail(pe)
        if abs(d) != 1:
            assert tail is None
            continue
        dets.append(d)
        expect = None
        for head in ((0, -1), (-1, 0)):
            rhs = tuple(-(head[0] * row[0] + head[1] * row[1])
                        for row in pe.v_rows)
            sol = _fraction_solve(c, rhs)
            assert sol is not None
            if embed.change_making_ok(tuple(abs(v) for v in sol)):
                expect = sol
                break
        assert tail == expect
    assert len(members) == 319
    assert (dets.count(-1), dets.count(1)) == (69, 3)


def test_partial_embedding_json():
    doc = xp.SEED_M3.to_json()
    assert doc["v_rows"] == 3
    assert sorted(doc["marked"]) == [1, 2]
