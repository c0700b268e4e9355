import json
import random
from collections import Counter

import pytest

import polyflip.dissections as dissections_module
from polyflip import (
    Dissection,
    MalformedDissection,
    NotAQ0Diagonal,
    NotFinal,
    SizeGuardExceeded,
    apex_region,
    chords_cross,
    cut_L,
    enumerate_dissections,
    flip_up,
    fuss_catalan,
    is_final,
    make_q0,
    reflect,
    regions,
    validate,
    vertex_label,
)

from oracles import (
    apex_diagonal_set_D,
    brute_dissections,
    candidate_chords,
    faces_by_splitting,
    glue_G,
    is_m_angulation,
    regions_by_scan,
    width_and_blocks,
)

SMALL = [(m, n) for m in (1, 2, 3) for n in range(1, 6) if m * n <= 9]
ALL_MN = [(m, n) for m in (1, 2, 3) for n in range(1, 6)]


def test_chords_cross():
    assert chords_cross((0, 3), (1, 5))
    assert not chords_cross((0, 3), (3, 5))  # shared endpoint
    assert not chords_cross((1, 3), (4, 6))  # disjoint
    assert not chords_cross((1, 6), (2, 4))  # nested


def test_vertex_labels_cycle():
    # letters 1..m repeat counter-clockwise starting at vertex 2
    assert [vertex_label(2, i) for i in range(2, 8)] == [1, 2, 1, 2, 1, 2]
    assert [vertex_label(3, i) for i in range(2, 8)] == [1, 2, 3, 1, 2, 3]
    assert vertex_label(2, 1) == 2  # apex neighbours carry the last letter
    assert vertex_label(1, 5) == 1
    with pytest.raises(ValueError):
        vertex_label(2, 0)


@pytest.mark.parametrize("m,n", SMALL)
def test_enumeration_matches_brute_force(m, n):
    ours = sorted(q.diagonals for q in enumerate_dissections(m, n))
    assert ours == brute_dissections(m, n)


@pytest.mark.parametrize("m,n", ALL_MN)
def test_enumeration_count_is_fuss_catalan(m, n):
    assert len(enumerate_dissections(m, n)) == fuss_catalan(m, n)


def test_invalid_dissections_rejected():
    with pytest.raises(MalformedDissection):
        Dissection.new(2, 2, ((0, 1),))  # boundary edge
    with pytest.raises(MalformedDissection):
        Dissection.new(2, 2, ((0, 5),))  # the closing side is not a diagonal
    with pytest.raises(MalformedDissection):
        Dissection.new(2, 2, ((0, 4),))  # wrong span mod m
    with pytest.raises(MalformedDissection):
        Dissection.new(2, 3, ((1, 4), (3, 6)))  # crossing
    with pytest.raises(MalformedDissection):
        Dissection.new(2, 3, ((0, 3),))  # too few diagonals


def test_size_guard():
    with pytest.raises(SizeGuardExceeded):
        enumerate_dissections(2, 9)
    assert len(enumerate_dissections(3, 6, max_mn=18)) == fuss_catalan(3, 6)


def test_q0_and_rank():
    q0 = make_q0(2, 3)
    assert q0.diagonals == ((0, 3), (0, 5))
    assert q0.rank == 0
    assert not is_final(q0)
    top = Dissection.new(2, 3, ((1, 4), (4, 7)))
    assert top.rank == 2
    assert is_final(top)


def test_regions_partition_hexagon():
    q = Dissection.new(2, 2, ((1, 4),))
    assert regions(q) == [(0, 1, 4, 5), (1, 2, 3, 4)]


def test_apex_region_needs_final():
    top = Dissection.new(2, 3, ((1, 4), (4, 7)))
    assert apex_region(top) == (0, 1, 4, 7)
    with pytest.raises(NotFinal):
        apex_region(make_q0(2, 3))


def test_flip_up_hexagon():
    q0 = make_q0(2, 2)
    ups = flip_up(q0, (0, 3))
    assert [q.diagonals for q in ups] == [((1, 4),), ((2, 5),)]
    assert all(q.rank == 1 for q in ups)
    with pytest.raises(NotAQ0Diagonal):
        flip_up(Dissection.new(2, 2, ((1, 4),)), (1, 4))
    with pytest.raises(NotAQ0Diagonal):
        flip_up(q0, (0, 5))  # valid chord shape, but not a diagonal of q0


@pytest.mark.parametrize("m,n", [(1, 4), (2, 4), (3, 2)])
def test_cut_then_glue_recovers_dissection(m, n):
    for q in enumerate_dissections(m, n):
        parts = cut_L(q)
        assert all(is_final(p) for p in parts)
        assert sum(p.n for p in parts) == n
        assert glue_G(make_q0(m, len(parts)), parts) == q


def test_cut_sizes_example():
    q = Dissection.new(
        2, 7, ((0, 11), (2, 11), (4, 11), (6, 11), (7, 10), (12, 15))
    )
    parts = cut_L(q)
    assert tuple(p.n for p in parts) == (5, 2)
    assert parts[0].diagonals == ((2, 11), (4, 11), (6, 11), (7, 10))
    assert parts[1].diagonals == ((2, 5),)


def test_cut_of_final_dissection_is_itself():
    q = Dissection.new(2, 3, ((1, 6), (2, 5)))
    assert cut_L(q) == [q]


def test_width_and_blocks():
    top = Dissection.new(2, 3, ((1, 4), (4, 7)))
    w, blocks = width_and_blocks(top)
    assert w == 2
    assert [(b.n, b.diagonals) for b in blocks] == [(1, ()), (1, ())]

    nested = Dissection.new(2, 3, ((1, 6), (2, 5)))
    w, blocks = width_and_blocks(nested)
    assert w == 1
    assert [(b.n, b.diagonals) for b in blocks] == [(2, ((1, 4),))]

    w, blocks = width_and_blocks(Dissection.new(2, 1, ()))
    assert w == 0 and blocks == []


def test_apex_diagonal_set_D():
    top = Dissection.new(2, 3, ((1, 4), (4, 7)))
    assert apex_diagonal_set_D(top) == frozenset({(0, 4)})
    nested = Dissection.new(2, 3, ((1, 6), (2, 5)))
    assert apex_diagonal_set_D(nested) == frozenset({(0, 6)})


def test_reflect_is_an_involution():
    for q in enumerate_dissections(2, 3):
        r = reflect(q)
        assert r.m == q.m and r.n == q.n
        assert reflect(r) == q
    # reflection fixes the fan
    assert reflect(make_q0(3, 3)) == make_q0(3, 3)


def test_json_round_trip():
    q = Dissection.new(2, 3, ((1, 4), (4, 7)))
    blob = json.dumps(q.to_json())
    assert Dissection.from_json(json.loads(blob)) == q


def _assert_valid(q):
    """q is canonical and an M-angulation by the independent oracle."""
    assert q.diagonals == tuple(sorted(q.diagonals))
    assert is_m_angulation(q.m, q.n, q.diagonals), q


@pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (3, 2)])
def test_derived_dissections_are_valid_by_oracle(m, n):
    # flips, cuts, gluings, blocks and mirrors are built unchecked
    for q in enumerate_dissections(m, n):
        for d in q.diagonals:
            if d[0] != 0:
                continue
            ups = flip_up(q, d)
            assert len(ups) == m
            for r in ups:
                _assert_valid(r)
                assert r.rank == q.rank + 1
                assert len(set(q.diagonals) - set(r.diagonals)) == 1
                assert d not in r.diagonals
        parts = cut_L(q)
        for p in parts:
            _assert_valid(p)
            assert is_final(p)
        glued = glue_G(make_q0(m, len(parts)), parts)
        _assert_valid(glued)
        assert glued == q
        _assert_valid(reflect(q))
        if is_final(q):
            width, blocks = width_and_blocks(q)
            assert width == len(blocks)
            for b in blocks:
                _assert_valid(b)


def test_flips_and_apex_regions_walk_only_the_regions_they_need(monkeypatch):
    m, n = 2, 4
    elements = enumerate_dissections(m, n)
    want = {
        (q, d): flip_up(q, d) for q in elements for d in q.diagonals if d[0] == 0
    }
    apexes = {q: apex_region(q) for q in elements if is_final(q)}
    walked = []
    real = dissections_module._walk_region
    monkeypatch.setattr(
        dissections_module, "_walk_region", lambda *a: walked.append(a) or real(*a)
    )
    monkeypatch.setattr(dissections_module, "_walk_regions", None)
    assert all(flip_up(q, d) == ups for (q, d), ups in want.items())
    assert len(walked) == 2 * len(want)
    assert all(apex_region(q) == r for q, r in apexes.items())
    assert len(walked) == 2 * len(want) + len(apexes)


def test_derived_constructors_skip_validation(monkeypatch):
    m, n = 2, 3
    elements = enumerate_dissections(m, n)
    fans = {k: make_q0(m, k) for k in range(1, n + 1)}  # cached before counting
    calls = []
    monkeypatch.setattr(
        dissections_module, "validate", lambda q: calls.append(q)
    )
    for q in elements:
        for d in q.diagonals:
            if d[0] == 0:
                flip_up(q, d)
        parts = cut_L(q)
        glue_G(fans[len(parts)], parts)
        reflect(q)
        if is_final(q):
            apex_region(q)
            width_and_blocks(q)
    assert calls == []


def test_dissection_identity_is_the_field_tuple():
    q = Dissection.new(2, 3, ((4, 7), (1, 4)))
    assert repr(q) == "Dissection(m=2, n=3, diagonals=((1, 4), (4, 7)))"
    assert hash(q) == hash((2, 3, ((1, 4), (4, 7))))
    assert q == Dissection(2, 3, ((1, 4), (4, 7)))
    elements = enumerate_dissections(2, 3) + enumerate_dissections(1, 4)
    keys = sorted((e.m, e.n, e.diagonals) for e in elements)
    assert [(e.m, e.n, e.diagonals) for e in sorted(elements)] == keys
    with pytest.raises(AttributeError):
        q.n = 4


def test_malformed_dissection_carries_its_chords():
    with pytest.raises(MalformedDissection) as info:
        Dissection.new(2, 3, ((1, 4), (3, 6)))
    assert str(info.value) == "(1, 4) crosses (3, 6)"
    assert info.value.counterexample == {
        "m": 2,
        "n": 3,
        "diagonals": [[1, 4], [3, 6]],
    }


@pytest.mark.parametrize("m,n", [(1, 1), (1, 6), (2, 4), (3, 3)])
def test_enumeration_memoizes_only_the_sub_gaps(m, n):
    fillings = dissections_module._arc_fillings
    fillings.cache_clear()
    enumerate_dissections(m, n)
    misses = fillings.cache_info().misses
    fillings(m, m * n + 1)  # sub-gaps hit, so only a top gap not kept misses
    assert fillings.cache_info().misses == misses + 1
    fillings.cache_clear()


def _outcome(check, q):
    # ("ok", result) or the exception's type, message and counterexample
    try:
        return "ok", check(q)
    except MalformedDissection as exc:
        return type(exc), str(exc), exc.counterexample


@pytest.mark.parametrize("m,n", SMALL)
def test_validator_accepts_every_element_as_the_pairwise_scan_does(m, n):
    for q in enumerate_dissections(m, n):
        assert validate(q) is None
        assert regions(q) == regions_by_scan(q)


def _invalid_corpus(rng, m, n):
    """Seeded chord data around a size-n dissection: crossings, spans off
    1 (mod m), unsorted or repeated chords, wrong counts and chords outside
    the polygon, each drawn from a valid element or from all chords."""
    top = m * n + 1
    chords = candidate_chords(m, n)
    anything = [(a, b) for a in range(-1, top + 2) for b in range(a, top + 3)]
    elements = [q.diagonals for q in enumerate_dissections(m, n)]
    for _ in range(300):
        base = list(rng.choice(elements))
        kind = rng.randrange(6)
        if kind == 0 and base and chords:  # swap in any chord of the polygon
            base[rng.randrange(len(base))] = rng.choice(chords)
            yield Dissection(m, n, tuple(sorted(base)))
        elif kind == 1 and len(chords) >= n - 1:  # any n-1 chords
            yield Dissection(m, n, tuple(sorted(rng.sample(chords, n - 1))))
        elif kind == 2 and base:  # any pair of integers as a chord
            base[rng.randrange(len(base))] = rng.choice(anything)
            yield Dissection(m, n, tuple(sorted(base)))
        elif kind == 3 and len(base) > 1:  # unsorted or repeated
            rng.shuffle(base)
            base[-1] = rng.choice(base)
            yield Dissection(m, n, tuple(base))
        elif kind == 4:  # one chord too many or too few
            if base and rng.random() < 0.5:
                base.pop(rng.randrange(len(base)))
            else:
                base.append(rng.choice(chords or [(0, 1)]))
            yield Dissection(m, n, tuple(sorted(base)))
        else:  # a size or arity out of range
            yield Dissection(rng.choice([0, m]), rng.choice([0, -1, n]), tuple(base))


def test_validator_matches_the_pairwise_scan_on_invalid_chord_data():
    rng = random.Random(20161)
    kinds = ("crosses", "is not a diagonal", "spans", "not strictly", "needs", "need m")
    seen = Counter()
    for m, n in [(1, 4), (1, 6), (2, 3), (2, 4), (3, 3), (4, 2)]:
        for q in _invalid_corpus(rng, m, n):
            want = _outcome(regions_by_scan, q)
            assert _outcome(regions, q) == want, q
            assert _outcome(validate, q) == (("ok", None) if want[0] == "ok" else want)
            seen.update(k for k in kinds if want[0] != "ok" and k in want[1])
    # every rejection made before the region count, many times over
    assert all(seen[k] >= 10 for k in kinds), seen


def test_chord_sets_with_wrong_region_sizes_fail_before_the_region_count():
    # n-1 non-crossing chords inside the polygon whose faces are not all
    # (m+2)-gons must have a span off 1 (mod m): the faces' sizes less 2
    # add up to m*n over n faces, and spans of 1 (mod m) make each of them
    # a positive multiple of m.  So both validators reject them by span.
    rng = random.Random(20162)
    seen = 0
    for m, n in [(2, 3), (2, 4), (3, 3), (4, 2)]:
        top = m * n + 1
        inside = [(a, b) for a in range(top) for b in range(a + 2, top + 1)]
        inside.remove((0, top))
        for _ in range(400):
            picked = sorted(rng.sample(inside, n - 1))
            if any(chords_cross(c, d) for c in picked for d in picked):
                continue
            faces = faces_by_splitting(list(range(top + 1)), picked)
            if all(len(f) == m + 2 for f in faces):
                continue
            q = Dissection(m, n, tuple(picked))
            want = _outcome(regions_by_scan, q)
            assert want[0] is MalformedDissection and "spans" in want[1]
            assert _outcome(validate, q) == want
            seen += 1
    assert seen > 100
