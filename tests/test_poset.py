import gc
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import product
from math import prod

import pytest

import polyflip.dissections as dissections_module
import polyflip.poset as poset_module
import polyflip.verify as verify_module
from polyflip import (
    DecompositionFailure,
    Dissection,
    FlipPoset,
    ForestPoset,
    Interval,
    MalformedDissection,
    NoWitness,
    StructureViolation,
    VerificationFailure,
    apex_region,
    build_poset,
    chords_cross,
    cut_L,
    expected_maximal_chain_count,
    flip_up,
    fuss_catalan,
    interval_structure,
    is_final,
    make_q0,
    maximal_chain_count,
    mobius,
    rank_polynomial,
    run_suite,
    series_I,
    to_dot,
    to_json_dict,
)
from polyflip.poset import (
    _one_block_final,
    cover_count_check,
    inclusion_check,
    initial_factorization_check,
    is_lattice,
    upper_ideal_iso_check,
    width_cover_check,
    width_factorization_check,
)

from oracles import (
    apex_diagonal_set_D,
    brute_dissections,
    closure_from_covers,
    cover_degree_poly,
    crossing,
    descend_to_fan,
    initial_interval_poly,
    interval_decompose,
    is_distributive_lattice,
    poly_mul,
    width_and_blocks,
)

PAIRS = [(1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]

TOP = Dissection.new(2, 3, ((1, 4), (4, 7)))
MID = Dissection.new(2, 3, ((0, 3), (4, 7)))


def interval_count(poset):
    return sum(m.bit_count() for m in poset.up_masks)


def containing_total(poset):
    """The poset suite's interval count: `_containing_count` summed over
    the elements."""
    return sum(
        poset_module._containing_count(poset.m, poset.n, [d for d in q.diagonals if d[0]])
        for q in poset.elements
    )


def brute_mobius(above, bottom, top):
    """Textbook recursion over the closure sets from the oracle module."""
    members = [z for z in range(len(above)) if z in above[bottom] and top in above[z]]
    mu = {bottom: 1}

    def f(z):
        if z not in mu:
            mu[z] = -sum(f(w) for w in members if w != z and z in above[w])
        return mu[z]

    return f(top)


def test_poset_2_3_shape():
    poset = build_poset(2, 3)
    assert len(poset.elements) == 12
    assert sum(len(u) for u in poset.covers_up) == 12
    assert poset.minimum == make_q0(2, 3)
    assert len(poset.maximal_elements()) == 7
    assert maximal_chain_count(poset) == expected_maximal_chain_count(2, 3) == 8
    assert interval_count(poset) == 31


@pytest.mark.parametrize("m,n", PAIRS)
def test_reachability_matches_dfs_closure(m, n):
    poset = build_poset(m, n)
    above = closure_from_covers(len(poset.elements), poset.covers_up)
    for i, mask in enumerate(poset.up_masks):
        assert {j for j in range(len(poset.elements)) if mask >> j & 1} == above[i]
    for i, mask in enumerate(poset.down_masks):
        got = {j for j in range(len(poset.elements)) if mask >> j & 1}
        assert got == {j for j in range(len(poset.elements)) if i in above[j]}


@pytest.mark.parametrize("m,n", PAIRS)
def test_rank_census_and_covers(m, n):
    poset = build_poset(m, n)
    assert cover_count_check(poset)
    census = [0] * n
    for r in poset.ranks:
        census[r] += 1
    assert census == list(rank_polynomial(m, n))
    assert sum(census) == fuss_catalan(m, n)
    assert all(is_final(q) for q in poset.maximal_elements())
    assert maximal_chain_count(poset) == expected_maximal_chain_count(m, n)


def test_leq_and_interval_basics():
    poset = build_poset(2, 3)
    q0 = poset.minimum
    assert poset.leq(q0, TOP) and poset.leq(MID, TOP) and not poset.leq(TOP, MID)
    iv = poset.interval(MID, TOP)
    assert iv.size == 2
    assert iv.bottom_q == MID and iv.top_q == TOP
    assert set(iv.elements()) == {MID, TOP}
    with pytest.raises(ValueError):
        poset.interval(TOP, MID)


def test_descent_witness_and_chains():
    poset = build_poset(2, 3)
    for q in poset.elements:
        if q == poset.minimum:
            with pytest.raises(NoWitness):
                poset_module._descent_swap(q)
            continue
        cand = poset_module._descent_swap(q)[0]
        assert cand[0] == 0 and cand not in q.diagonals
        assert sum(1 for d in q.diagonals if chords_cross(cand, d)) == 1
        chain = descend_to_fan(q)
        assert len(chain) == q.rank + 1
        assert chain[0] == q and chain[-1] == poset.minimum
        for hi, lo in zip(chain, chain[1:]):
            assert hi.rank == lo.rank + 1
            assert poset.leq(lo, hi)


@pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (3, 2)])
def test_descend_to_fan_walks_covers_to_the_fan(m, n):
    poset = build_poset(m, n)
    for q in poset.elements:
        chain = descend_to_fan(q)
        assert len(chain) == q.rank + 1
        assert chain[0] == q and chain[-1] == poset.minimum
        for hi, lo in zip(chain, chain[1:]):
            assert poset.index[hi] in poset.covers_up[poset.index[lo]]


@pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (3, 2)])
def test_descent_swap_is_the_witness_trade(m, n):
    poset = build_poset(m, n)
    for q in poset.elements:
        if q == poset.minimum:
            with pytest.raises(NoWitness):
                poset_module._descent_swap(q)
            continue
        cand, lower = poset_module._descent_swap(q)
        (crossed,) = [d for d in q.diagonals if chords_cross(cand, d)]
        want = set(q.diagonals) - {crossed} | {cand}
        assert lower == Dissection.new(m, n, want)
    assert poset_module.descent_check(poset)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_mobius_matches_textbook_recursion(m, n):
    poset = build_poset(m, n)
    above = closure_from_covers(len(poset.elements), poset.covers_up)
    for iv in poset.all_intervals():
        assert mobius(iv) == brute_mobius(above, iv.bottom, iv.top)
        assert mobius(iv) in (-1, 0, 1)


def test_interval_decompose_examples():
    poset = build_poset(2, 3)
    core, parts = interval_decompose(poset.interval(poset.minimum, TOP))
    assert core == TOP  # gluing over three unit pieces is the identity
    assert [p.n for p in parts] == [1, 1, 1]
    core, parts = interval_decompose(poset.interval(MID, TOP))
    assert core.n == 2 and core.diagonals == ((1, 4),)
    assert [p.n for p in parts] == [1, 2]
    # single-point interval at the top decomposes over the element itself
    core, parts = interval_decompose(poset.interval(TOP, TOP))
    assert core.n == 1 and parts == [TOP]


def test_interval_decompose_rejects_unrelated_pair():
    poset = build_poset(2, 3)
    other = Dissection.new(2, 3, ((2, 5), (2, 7)))
    assert not poset.leq(TOP, other)
    fake = Interval(poset, poset.index[TOP], poset.index[other], 0)
    with pytest.raises(DecompositionFailure):
        interval_decompose(fake)
    # the fan's diagonals outside MID's translate (there are none), but the
    # fan is below MID, not above it
    below = Interval(poset, poset.index[MID], poset.index[poset.minimum], 0)
    with pytest.raises(DecompositionFailure) as info:
        interval_decompose(below)
    assert info.value.counterexample == [MID.to_json(), poset.minimum.to_json()]


def test_interval_structure_certificates():
    poset = build_poset(2, 3)
    for iv in poset.all_intervals():
        ok, forest = interval_structure(iv)
        assert ok
        assert forest.ideal_count() == iv.size
        assert len(forest.nodes) <= iv.size


def test_forest_ideal_count():
    assert ForestPoset((), ()).ideal_count() == 1
    assert ForestPoset((7,), (-1,)).ideal_count() == 2
    # two incomparable nodes: antichain ideals {..} -> 4
    assert ForestPoset((0, 1), (-1, -1)).ideal_count() == 4
    # chain a < b: 3 downward-closed sets
    assert ForestPoset((0, 1), (1, -1)).ideal_count() == 3
    # root with two leaf children: (1 + 2*2) = 5
    assert ForestPoset((0, 1, 2), (-1, 0, 0)).ideal_count() == 5


def test_ambient_lattice_observation():
    ok, witness = is_lattice(build_poset(1, 2))
    assert ok and witness is None
    ok, witness = is_lattice(build_poset(2, 3))
    assert not ok and len(witness) == 2  # two finals with no join


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (1, 4)])
def test_structure_checks_hold(m, n):
    poset = build_poset(m, n)
    assert width_cover_check(poset)
    for q in poset.elements:
        assert upper_ideal_iso_check(poset, q)
        assert initial_factorization_check(poset, q)
        if is_final(q):
            assert width_factorization_check(poset, q)


@pytest.mark.parametrize("m,n", PAIRS)
def test_apex_chords_of_a_final_cross_nothing_below_it(m, n):
    # The paper's claim, against the plain-DFS closure; the intervals suite
    # has it from `inclusion_check`: below a final f every non-apex
    # diagonal is one of f's, which its apex chords do not cross, and an
    # apex chord crosses no fan diagonal.
    poset = build_poset(m, n)
    above = closure_from_covers(len(poset.elements), poset.covers_up)
    for fi, f in enumerate(poset.elements):
        if not is_final(f):
            continue
        chords = apex_diagonal_set_D(f)
        for i, q in enumerate(poset.elements):
            if fi in above[i]:
                assert not any(crossing(c, d) for c in chords for d in q.diagonals)


@pytest.mark.parametrize("m,n", PAIRS)
def test_initial_intervals_factor_by_cover_degree_polynomials(m, n):
    # The old evidence of the factorization isomorphisms, kept as an oracle:
    # [fan, t] has the product polynomial of t's cut pieces, and a final's
    # the product of its one-block finals'.
    fan_covers = build_poset(2, 2).covers_up
    assert cover_degree_poly(fan_covers, {0, 1, 2}) == (2, 0, 1)  # fan, 2 finals
    assert poly_mul((1, 1), (1, 2)) == (1, 3, 2)
    poset = build_poset(m, n)

    def poly(q):
        return initial_interval_poly(build_poset(m, q.n), q)

    for q in poset.elements:
        if is_final(q):
            r0 = apex_region(q)
            gaps = [(u, w) for u, w in zip(r0[1:], r0[2:]) if w - u >= 2]
            factors = [_one_block_final(q, g)[0] for g in gaps]
        else:
            factors = cut_L(q)
        want = (1,)
        for p in factors:
            want = poly_mul(want, poly(p))
        assert poly(q) == want


@pytest.mark.parametrize("m,n", PAIRS)
def test_factorized_initial_intervals_carry_ideal_counts_and_mobius(m, n):
    # The intervals suite certifies [fan, t] directly only for a final t of
    # width at most 1 and carries the rest through the factorizations.
    # Computed directly, every other initial interval's forest-ideal count
    # and Mobius value are the products of its factors'.
    def direct(q):
        order = build_poset(m, q.n)
        iv = order.interval(order.minimum, q)
        return interval_structure(iv)[1].ideal_count(), mobius(iv)

    carried = {"cut": 0, "width": 0}
    for k in range(1, n + 1):
        for q in build_poset(m, k).elements:
            if not is_final(q):
                kind, factors = "cut", cut_L(q)
            elif width_and_blocks(q)[0] > 1:
                r0 = apex_region(q)
                gaps = [(u, w) for u, w in zip(r0[1:], r0[2:]) if w - u >= 2]
                kind, factors = "width", [_one_block_final(q, g)[0] for g in gaps]
            else:
                continue
            values = [direct(p) for p in factors]
            assert direct(q) == (prod(c for c, _ in values), prod(mu for _, mu in values))
            carried[kind] += 1
    # of PAIRS, only (2, 3) has a final of two blocks: TOP
    assert carried["cut"] and carried["width"] == ((m, n) == (2, 3))


def test_flip_up_matches_cover_relation():
    poset = build_poset(2, 3)
    for i, q in enumerate(poset.elements):
        ups = set()
        for d in q.diagonals:
            if d[0] == 0:
                ups.update(poset.index[r] for r in flip_up(q, d))
        assert tuple(sorted(ups)) == poset.covers_up[i]


@pytest.mark.parametrize(
    "m,n", PAIRS + [(1, 6), (1, 7), (2, 4), (2, 5), (3, 3), (4, 3)]
)
def test_build_poset_covers_are_the_flip_up_covers(m, n):
    # `flip_up` is the oracle of the one-pass cover build: every result
    # found by identity among the enumerated elements.  The apex-path walk
    # of `_up_flips` indexes the path in steps of m, so m runs up to 4.
    poset = build_poset.__wrapped__(m, n)
    index = {q: i for i, q in enumerate(poset.elements)}
    want = tuple(
        tuple(sorted({index[r] for d in q.diagonals if d[0] == 0 for r in flip_up(q, d)}))
        for q in poset.elements
    )
    assert poset.covers_up == want


def test_to_dot_round_trip():
    poset = build_poset(2, 2)
    dot = to_dot(poset, label="poly")
    assert dot.startswith("digraph flip_poset {")
    nodes = dict(re.findall(r'n(\d+) \[label="([^"]*)"\];', dot))
    edges = re.findall(r"n(\d+) -> n(\d+);", dot)
    assert len(nodes) == 3
    assert sorted(nodes.values()) == ["(x2-y1)", "(y2-x1)", "1"]
    got = {(int(a), int(b)) for a, b in edges}
    want = {(i, j) for i in range(3) for j in poset.covers_up[i]}
    assert got == want
    # alternative label modes
    assert '[label="(0,3)"]' in to_dot(poset, label="diagonals")
    assert '[label="fan"]' in to_dot(build_poset(2, 1), label="diagonals")
    assert re.search(r'\[label="0001"\]', to_dot(poset, label="dyck"))
    with pytest.raises(ValueError):
        to_dot(poset, label="nope")


def test_to_json_dict():
    poset = build_poset(2, 2)
    data = to_json_dict(poset)
    assert data["m"] == 2 and data["n"] == 2
    assert len(data["elements"]) == 3
    assert sorted(data["covers"]) == [[0, 1], [0, 2]]
    assert Dissection.from_json(data["elements"][0]) == poset.elements[0]


def test_build_poset_validates_nothing(monkeypatch):
    calls = []
    real = dissections_module.validate
    monkeypatch.setattr(
        dissections_module, "validate", lambda q: calls.append(q) or real(q)
    )
    poset = build_poset.__wrapped__(1, 5)
    assert len(poset.elements) == 42
    assert calls == []


def test_build_poset_rejects_a_derived_non_element(monkeypatch):
    real = poset_module._up_flips
    # flipping (0, 5) of ((0, 5), (1, 4)) to a crossing chord, one that some
    # element holds and one that none does
    for chord in ((3, 6), (2, 6)):
        bogus = Dissection(2, 3, ((1, 4), chord))

        def flips(q, chord=chord):
            return [((0, 5), chord)] if q.diagonals == ((0, 5), (1, 4)) else real(q)

        monkeypatch.setattr(poset_module, "_up_flips", flips)
        with pytest.raises(MalformedDissection) as info:
            build_poset.__wrapped__(2, 3)
        assert str(bogus) in str(info.value)
        assert info.value.counterexample == bogus.to_json()


def _rotated_frame(monkeypatch):
    """Patch the glue frame that `poset` reads to hand out its cycle turned
    by one vertex: a wrong chord translation."""
    real = poset_module._glue_frame

    def rotated(m, parts):
        chords, cycle = real(m, parts)
        return chords, cycle[1:] + cycle[:1]

    monkeypatch.setattr(poset_module, "_glue_frame", rotated)


def test_a_rotated_glue_frame_fails_the_filter_check(monkeypatch):
    poset = build_poset(2, 3)
    assert upper_ideal_iso_check(poset, MID) == 3  # MID's filter: three tops
    _rotated_frame(monkeypatch)
    with pytest.raises(VerificationFailure) as info:
        upper_ideal_iso_check(poset, MID)
    assert str(info.value) == f"the glue frame's vertex map of {MID} does not send 0 to 0"
    assert info.value.counterexample == MID.to_json()


# Each fault breaks one condition of the filter certificate and keeps the
# other two: the cycle is 0 first, strictly increasing and m*k+2 long.
FRAME_FAULTS = {
    "does not send 0 to 0": lambda cycle: tuple(v + 1 for v in cycle),
    "is not strictly increasing": lambda cycle: cycle[:1] + cycle[2:0:-1] + cycle[3:],
    "is not onto 0..5": lambda cycle: cycle[:-1],
}


@pytest.mark.parametrize("flaw", FRAME_FAULTS)
def test_each_glue_frame_condition_fails_the_intervals_suite_alone(monkeypatch, flaw):
    # only MID's frame is broken: the suite names MID, the bottom whose
    # filter would not be the 2-piece order
    poset = build_poset(2, 3)
    parts = tuple(cut_L(MID))
    _, cycle = poset_module._glue_frame(2, parts)
    bad = FRAME_FAULTS[flaw](cycle)
    held = [bad[0] == 0, all(u < v for u, v in zip(bad, bad[1:])), len(bad) == 6]
    assert held.count(False) == 1
    real = poset_module._glue_frame

    def faulty(m, pieces):
        chords, frame = real(m, pieces)
        return chords, (bad if pieces == parts else frame)

    monkeypatch.setattr(poset_module, "_glue_frame", faulty)
    message = f"the glue frame's vertex map of {MID} {flaw}"
    with pytest.raises(VerificationFailure) as info:
        upper_ideal_iso_check(poset, MID)
    assert str(info.value) == message
    (report,) = run_suite("intervals", 2, 3)
    assert not report.passed
    assert (report.detail, report.counterexample) == (message, MID.to_json())


def test_cut_piece_outside_the_order_is_malformed(monkeypatch):
    poset = build_poset(2, 3)
    bogus = Dissection(2, 1, ((0, 2),))
    monkeypatch.setattr(poset_module, "cut_L", lambda q: [bogus])
    with pytest.raises(MalformedDissection) as info:
        initial_factorization_check(poset, TOP)
    assert info.value.counterexample == bogus.to_json()


def _fails_with(check, poset, top, message):
    """The factorization check fails on top with this message and carries
    [fan, top]; returns the failure."""
    with pytest.raises(VerificationFailure) as info:
        check(poset, top)
    assert str(info.value) == f"[fan, {top}] {message}"
    assert info.value.counterexample == [poset.minimum.to_json(), top.to_json()]
    return info.value


def _suite_fails_like(check, poset, top, message):
    failure = _fails_with(check, poset, top, message)
    (report,) = run_suite("intervals", poset.m, poset.n)
    assert not report.passed
    assert (report.detail, report.counterexample) == (str(failure), failure.counterexample)


def test_a_wrong_piece_map_fails_the_initial_factorization(monkeypatch):
    # each piece's vertices one off; the piece maps are the ones without
    # the apex, which the cores' and the blocks' maps keep
    poset = build_poset(2, 3)
    assert initial_factorization_check(poset, MID)
    real = poset_module._translation

    def one_off(bits, small, pos):
        if 0 not in pos:
            pos = {v: i - 1 for v, i in pos.items()}
        return real(bits, small, pos)

    monkeypatch.setattr(poset_module, "_translation", one_off)
    message = "does not translate to its factors"
    # MID's (4, 7) lands on (1, 4) of its second piece, which holds (2, 5)
    _fails_with(initial_factorization_check, poset, MID, message)
    # the suite's first non-final top, ((0, 3), (3, 6)), has its (3, 6) on
    # the apex chord (0, 3) of its piece, so in no factor
    first = next(q for q in poset.elements if q.rank and not is_final(q))
    _suite_fails_like(initial_factorization_check, poset, first, message)


def test_a_wrong_block_map_fails_the_width_factorization(monkeypatch):
    poset = build_poset(2, 3)
    assert width_factorization_check(poset, TOP)
    real = poset_module._one_block_final

    def one_off(q, keep):
        block, relabel = real(q, keep)
        return block, {v: i + 1 for v, i in relabel.items()}

    monkeypatch.setattr(poset_module, "_one_block_final", one_off)
    message = "does not translate to its factors"
    # TOP's (4, 7) leaves both of its blocks
    _fails_with(width_factorization_check, poset, TOP, message)
    # the suite factorizes only finals of two or more blocks (one block is
    # the final itself); the first of them is TOP
    first = next(q for q in poset.elements if is_final(q) and width_and_blocks(q)[0] > 1)
    assert first == TOP
    _suite_fails_like(width_factorization_check, poset, first, message)


def _with_lower_covers(poset, changed):
    """A copy of poset whose lower covers are changed as the mapping from
    index to lower covers says."""
    down = list(poset.covers_down)
    for i, ws in changed.items():
        down[i] = ws
    broken = FlipPoset(poset.m, poset.n, poset.elements, poset.covers_up)
    broken.__dict__["covers_down"] = tuple(down)
    return broken


def _spans_message(q):
    return f"the lower covers of {q} do not remove exactly its maximal spans"


def test_a_down_set_one_element_short_fails_the_factorization(monkeypatch):
    # ((0, 3), (1, 3), (3, 5)) covers two elements; without the first of
    # them its down-set is fan, itself and the second, against the 2 x 2 of
    # its pieces.  The factorization certificate reads chords, not covers,
    # so it holds; the suite's inclusion check names top, whose lower
    # covers no longer remove its maximal span (1, 3).
    poset = build_poset(1, 4)
    top = Dissection.new(1, 4, ((0, 3), (1, 3), (3, 5)))
    ti = poset.index[top]
    broken = _with_lower_covers(poset, {ti: poset.covers_down[ti][1:]})
    assert initial_factorization_check(broken, top)
    _assert_suite_fails_at(monkeypatch, broken, top, _spans_message(top), "intervals")


def test_a_down_set_element_off_the_top_fails_the_factorization(monkeypatch):
    # x, put below MID, is not inside MID's diagonals: the bit MID loses to
    # x is none of its maximal spans, so the suite's inclusion check names
    # MID before any factorization is certified
    poset = build_poset(2, 3)
    ti = poset.index[MID]
    D = poset.diagonal_masks
    x = next(i for i, d in enumerate(D) if d & ~D[ti])
    broken = _with_lower_covers(poset, {ti: poset.covers_down[ti] + (x,)})
    _assert_suite_fails_at(monkeypatch, broken, MID, _spans_message(MID), "intervals")


def test_a_down_set_element_outside_the_product_fails_the_factorization(monkeypatch):
    # top's first piece is the pentagon's ((1, 3), (1, 4)), whose order has
    # no element with the non-apex diagonal (1, 4) alone.  A bogus element
    # with just that one (and a crossing apex chord), covered by top and by
    # nothing else, keeps every cover adding one diagonal and every mask
    # distinct; but top's cover of it removes (1, 3), nested in (1, 4), so
    # top's lower covers remove more than its maximal spans.
    poset = build_poset(1, 4)
    top = Dissection.new(1, 4, ((0, 4), (1, 3), (1, 4)))
    bogus = Dissection(1, 4, ((0, 2), (0, 4), (1, 4)))
    ti, x = poset.index[top], len(poset.elements) - 1
    assert not poset.covers_up[x] and x > ti
    elements = poset.elements[:x] + (bogus,)
    covers = [tuple(j for j in ups if j != x) for ups in poset.covers_up[:x]] + [(ti,)]
    broken = FlipPoset(1, 4, elements, tuple(covers))
    with pytest.raises(VerificationFailure) as info:
        inclusion_check(broken)
    assert (str(info.value), info.value.counterexample) == (_spans_message(top), top.to_json())
    _assert_suite_fails_at(monkeypatch, broken, top, _spans_message(top), "intervals")


def test_the_certificates_walk_no_up_set_or_down_set(monkeypatch):
    # `inclusion_check`, `upper_ideal_iso_check` and the factorization
    # checks read chords and each element's own covers: no DFS
    walks = []
    real = poset_module._reached
    monkeypatch.setattr(
        poset_module, "_reached", lambda *args: walks.append(args) or real(*args)
    )
    for m, n in [(2, 4), (1, 6)]:
        poset = build_poset(m, n)
        assert inclusion_check(poset)
        assert containing_total(poset) == series_I(m, n).coefficient(n)
        count = 0
        for q in poset.elements:
            count += upper_ideal_iso_check(poset, q)
            check = width_factorization_check if is_final(q) else initial_factorization_check
            assert check(poset, q)
        assert count == series_I(m, n).coefficient(n)
    assert walks == []


def test_a_block_counted_twice_fails_the_partition_alone(monkeypatch):
    # every factor's image is still exactly its D[p_i], but TOP's chords of
    # its first block go to two factors: the product would count that
    # block's interval twice
    poset = build_poset(2, 3)
    gaps = poset_module._block_gaps(TOP)
    monkeypatch.setattr(poset_module, "_block_gaps", lambda q: gaps + gaps[:1])
    chords = {d: poset.diagonal_bits[d] for d in TOP.diagonals if d[0]}
    for block, pos in (poset_module._one_block_final(TOP, g) for g in gaps + gaps[:1]):
        small = build_poset(2, block.n)
        image = poset_module._translation(chords, small, pos)
        want = small.diagonal_masks[small.index[block]]
        assert sum(image.values()) == want and len(image) == want.bit_count()
    _suite_fails_like(width_factorization_check, poset, TOP, "does not translate to its factors")


def test_a_chord_in_no_factor_or_in_two_fails_the_split(monkeypatch):
    poset = build_poset(1, 4)
    top = Dissection.new(1, 4, ((0, 3), (1, 3), (3, 5)))
    assert cut_L(top) == [Dissection.new(1, 2, ((1, 3),))] * 2
    real = poset_module._translation
    message = "does not translate to its factors"
    # each translation loses its first chord
    monkeypatch.setattr(poset_module, "_translation", lambda *args: dict(
        sorted(real(*args).items())[1:]
    ))
    _fails_with(initial_factorization_check, poset, top, message)
    # both pieces read through the first one's map: each gets its own
    # element, but both from the first piece's chord (1, 3)
    first = {1: 1, 2: 2, 3: 3}
    monkeypatch.setattr(poset_module, "_translation", lambda b, s, pos: real(b, s, first))
    _fails_with(initial_factorization_check, poset, top, message)


def test_width_cover_check_fails_on_a_wrong_width(monkeypatch):
    poset = build_poset(2, 3)
    final = next(q for q in poset.elements if is_final(q))
    real = poset_module._block_gaps

    def wider(q):  # one gap too many: the suite does not factorize final
        gaps = real(q)
        return gaps + gaps[:1] if q == final else gaps

    monkeypatch.setattr(poset_module, "_block_gaps", wider)
    with pytest.raises(VerificationFailure, match="downward covers but width") as info:
        width_cover_check(poset)
    assert info.value.counterexample == final.to_json()
    (report,) = run_suite("intervals", 2, 3)
    assert not report.passed
    assert (report.detail, report.counterexample) == (str(info.value), final.to_json())


def test_interval_failures_carry_the_interval(monkeypatch):
    poset = build_poset(2, 3)
    iv = poset.interval(MID, TOP)
    assert iv.to_json() == [MID.to_json(), TOP.to_json()]
    monkeypatch.setattr(ForestPoset, "ideal_count", lambda self: 0)
    with pytest.raises(StructureViolation) as info:
        interval_structure(iv)
    assert info.value.counterexample == iv.to_json()
    _rotated_frame(monkeypatch)
    with pytest.raises(DecompositionFailure) as info:
        interval_decompose(iv)
    assert info.value.counterexample == iv.to_json()


def test_no_witness_carries_the_element():
    fan = make_q0(2, 3)
    with pytest.raises(NoWitness) as info:
        poset_module._descent_swap(fan)
    assert info.value.counterexample == fan.to_json()


def _hand_made(covers_up):
    """The whole of a hand-made bounded order as one Interval, element 0 at
    the bottom and the last at the top.  The elements are labels only: n
    tells them apart and the rank, each element's height, grades the covers
    as `Interval.closure` needs."""
    height = [0] * len(covers_up)
    for i, ups in enumerate(covers_up):
        for j in ups:
            height[j] = max(height[j], height[i] + 1)
    elements = tuple(Dissection(1, i + 1, ((1, 1),) * h) for i, h in enumerate(height))
    poset = FlipPoset(1, len(elements), elements, tuple(map(tuple, covers_up)))
    return Interval(poset, 0, len(elements) - 1, (1 << len(elements)) - 1)


HAND_MADE = {
    # non-distributive lattices
    "M3": [[1, 2, 3], [4], [4], [4], []],
    "N5": [[1, 2], [3], [4], [4], []],
    # not a lattice (5 and 6 both cover 1 and 4), yet its irreducibles form
    # a forest with 8 ideals: Birkhoff's map, not injective, tells it apart
    # first, and a cover that adds no irreducible would next
    "bowtie-8": [[1, 2, 3], [5, 6], [4], [4], [5, 6], [7], [7], []],
    # a square with a shortcut bottom -> top: that "cover" adds two irreducibles
    "shortcut": [[1, 2, 3], [3], [3], []],
}


@pytest.mark.parametrize("name", HAND_MADE)
def test_hand_made_non_distributive_intervals_fail(name):
    iv = _hand_made(HAND_MADE[name])
    poset = iv.poset
    above = closure_from_covers(len(poset.elements), poset.covers_up)
    if name != "shortcut":  # a shortcut is no cover graph of an order
        assert not is_distributive_lattice(above, iv.indices())
    with pytest.raises(StructureViolation) as info:
        interval_structure(iv)
    assert info.value.counterexample == iv.to_json()


def test_twin_elements_fail_only_the_injectivity_check():
    # Irreducibles a, c, e, g (1-4) with no order among them: 16 ideals for
    # 16 elements.  Rank 2 holds ac twice (5, 6), eg twice (7, 8), ae and
    # cg; rank 3 the four triples.  Every cover adds one irreducible and
    # every element has as many up-covers as one-element extensions, so
    # only Birkhoff's map, which sends 5 and 6 to {a, c}, tells it apart.
    covers = [
        [1, 2, 3, 4],
        [5, 6, 9], [5, 6, 10], [7, 8, 9], [7, 8, 10],
        [11, 12], [11, 12], [13, 14], [13, 14], [11, 13], [12, 14],
        [15], [15], [15], [15],
        [],
    ]
    iv = _hand_made(covers)
    above = closure_from_covers(len(covers), iv.poset.covers_up)
    assert not is_distributive_lattice(above, iv.indices())
    with pytest.raises(StructureViolation, match="same irreducibles below them") as info:
        interval_structure(iv)
    assert info.value.counterexample == iv.to_json()


@pytest.mark.parametrize(
    "covers,want",
    [
        (HAND_MADE["M3"], 2),
        ([[1, 2, 3, 4], [5], [5], [5], [5], []], 3),  # M4
        ([[1, 2, 3], [4], [4], [4], [5], []], 0),  # M3 under one more top
        ([[1, 2, 3], [4, 5], [4, 5], [4, 5], [6], [6], []], -2),  # K3,2 in the middle
        (HAND_MADE["bowtie-8"], -1),
    ],
)
def test_mobius_beyond_plus_minus_one_matches_the_textbook_recursion(covers, want):
    # flip orders only reach -1, 0 and 1; these orders reach 2, 3 and -2
    iv = _hand_made(covers)
    above = closure_from_covers(len(covers), iv.poset.covers_up)
    assert mobius(iv) == brute_mobius(above, iv.bottom, iv.top) == want


def test_hand_made_boolean_square_passes():
    iv = _hand_made([[1, 2], [3], [3], []])
    ok, forest = interval_structure(iv)
    assert ok and forest.ideal_count() == 4


def test_an_element_off_the_interval_fails_the_extension_count():
    # the cube [0, 7] with 6 ({b, c}) cut off from the top: a mask that
    # still holds 6 meets every check but the count of up-covers
    covers = [[1, 2, 3], [4, 5], [4, 6], [5, 6], [7], [7], [], []]
    iv = _hand_made(covers)
    with pytest.raises(StructureViolation) as info:
        interval_structure(iv)
    assert "one-element extensions" in str(info.value)
    assert info.value.counterexample == iv.to_json()


@pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (3, 2), (2, 4)])
def test_interval_structure_agrees_with_the_lattice_oracle(m, n):
    poset = build_poset(m, n)
    above = closure_from_covers(len(poset.elements), poset.covers_up)
    for iv in poset.all_intervals():
        assert is_distributive_lattice(above, iv.indices())
        ok, forest = interval_structure(iv)
        assert ok and forest.ideal_count() == iv.size


@pytest.mark.parametrize("m,n", PAIRS)
def test_every_interval_certifies_like_its_initial_class(m, n):
    # The exhaustive oracle of the intervals suite, which certifies only the
    # initial intervals [fan_k, t] and reaches [b, t] by isomorphism: each
    # interval, certified on its own, matches [fan_k, core(t)].
    poset = build_poset(m, n)
    count = 0
    for iv in poset.all_intervals():
        count += 1
        _, forest = interval_structure(iv)
        core, parts = interval_decompose(iv)
        small = build_poset(m, len(parts))
        initial = small.interval(small.minimum, core)
        _, initial_forest = interval_structure(initial)
        got = (iv.size, forest.ideal_count(), mobius(iv))
        assert got == (initial.size, initial_forest.ideal_count(), mobius(initial))
    (report,) = run_suite("intervals", m, n)
    assert report.passed and report.detail == f"{count} intervals certified"


@pytest.mark.parametrize("m,n", PAIRS)
def test_cores_above_each_bottom_are_the_piece_order(m, n):
    # The per-top translation `upper_ideal_iso_check` no longer makes, as
    # an oracle: the cores of the tops in each bottom's up-set, walked by
    # DFS, are every element of the |cut(bottom)|-piece order, once each.
    poset = build_poset(m, n)
    for bi, bottom in enumerate(poset.elements):
        small = build_poset(m, len(cut_L(bottom)))
        cores = sorted(
            small.index[interval_decompose(iv)[0]] for iv in poset.intervals_above(bi)
        )
        assert cores == list(range(len(small.elements)))
        assert upper_ideal_iso_check(poset, bottom) == len(cores)


def _factors_with_ranges(top):
    """Each factor of [fan, top] with its vertex map and the range of top's
    vertices it covers: cut pieces for a non-final top, width blocks for a
    final one."""
    if is_final(top):
        gaps = poset_module._block_gaps(top)
        return [(*_one_block_final(top, gap), gap) for gap in gaps]
    ends = [1] + [b for a, b in top.diagonals if not a] + [top.m * top.n + 1]
    return [
        (piece, {v: v - lo + 1 for v in range(lo, hi + 1)}, (lo, hi))
        for piece, (lo, hi) in zip(cut_L(top), zip(ends, ends[1:]))
    ]


@pytest.mark.parametrize("m,n", PAIRS)
def test_initial_intervals_are_the_products_of_their_factors(m, n):
    # The down-set walk the factorization checks no longer make, as an
    # oracle: the DFS down-set of each factorized top goes one to one onto
    # the product of its factors' down-sets, s to the chords of s in each
    # factor's range, relabelled.
    def down_sets(k):
        order = build_poset(m, k)
        above = closure_from_covers(len(order.elements), order.covers_up)
        return {
            t: [order.elements[s] for s in range(len(above)) if ti in above[s]]
            for ti, t in enumerate(order.elements)
        }

    downs = {k: down_sets(k) for k in range(1, n + 1)}

    def non_apex(q):
        return frozenset(d for d in q.diagonals if d[0])

    factorized = 0
    for top, below in downs[n].items():
        factors = _factors_with_ranges(top)
        if is_final(top) and len(factors) < 2:
            continue  # certified directly, not as a product
        factorized += 1
        tuples = product(*(downs[p.n][p] for p, _, _ in factors))
        want = {tuple(map(non_apex, pick)) for pick in tuples}
        images = {
            tuple(
                frozenset((pos[a], pos[b]) for a, b in non_apex(s) if lo <= a and b <= hi)
                for _, pos, (lo, hi) in factors
            )
            for s in below
        }
        assert images == want and len(below) == len(want)
    assert factorized


def test_decompositions_validate_no_core(monkeypatch):
    poset = build_poset(2, 3)
    validated = []
    real_new = Dissection.new.__func__

    def counting_new(cls, m, n, chords):
        validated.append(real_new(cls, m, n, chords))
        return validated[-1]

    monkeypatch.setattr(Dissection, "new", classmethod(counting_new))
    for iv in poset.all_intervals():
        interval_decompose(iv)
    for q in poset.elements:
        upper_ideal_iso_check(poset, q)
    assert validated == []


def test_the_shared_order_is_read_only():
    poset = build_poset(2, 3)
    with pytest.raises(FrozenInstanceError):
        poset.covers_up = ()
    with pytest.raises(TypeError):
        poset.index[poset.minimum] = 5
    assert poset.index[poset.minimum] == 0 and poset.covers_up


def test_is_lattice_needs_least_upper_and_greatest_lower_bounds():
    # bounded, so every pair has some upper and lower bound: only the
    # least/greatest ones tell the bowtie apart
    bowtie = _hand_made(HAND_MADE["bowtie-8"]).poset
    ok, witness = is_lattice(bowtie)
    assert not ok and witness == (bowtie.elements[2], bowtie.elements[1])
    for name in ("M3", "N5"):
        assert is_lattice(_hand_made(HAND_MADE[name]).poset) == (True, None)


def _dual(covers_up):
    """The opposite order, relabelled k -> N-1-k so covers still go up."""
    last = len(covers_up) - 1
    dual = [[] for _ in covers_up]
    for i, ups in enumerate(covers_up):
        for j in ups:
            dual[last - j].append(last - i)
    return dual


def _lattice_scan_orders():
    covers = {name: cov for name, cov in HAND_MADE.items() if name != "shortcut"}
    covers["two-tops"] = [[1, 2], [], []]  # a bottom and two maximal elements
    covers.update({f"dual-{name}": _dual(cov) for name, cov in covers.items()})
    orders = [pytest.param(_hand_made(c).poset, id=name) for name, c in covers.items()]
    for m, n in [(1, 1), (1, 2), *PAIRS]:
        orders.append(pytest.param(build_poset(m, n), id=f"flip-{m}-{n}"))
    return orders


def _bounds_lacking(poset):
    """Pairs (a, b) lacking a meet or a join, by scanning every element
    against the oracle's closure sets."""
    size = len(poset.elements)
    above = closure_from_covers(size, poset.covers_up)

    def extreme(found, leq):
        return len([x for x in found if all(leq(x, y) for y in found)]) == 1

    lacking = set()
    for a in range(size):
        for b in range(size):
            ups = [u for u in range(size) if u in above[a] and u in above[b]]
            downs = [d for d in range(size) if a in above[d] and b in above[d]]
            has_join = extreme(ups, lambda x, y: y in above[x])
            has_meet = extreme(downs, lambda x, y: x in above[y])
            if not (has_join and has_meet):
                lacking.add((a, b))
    return lacking


@pytest.mark.parametrize("poset", _lattice_scan_orders())
def test_is_lattice_agrees_with_a_brute_force_bound_scan(poset):
    lacking = _bounds_lacking(poset)
    ok, witness = is_lattice(poset)
    assert ok == (not lacking)
    if ok:
        assert witness is None
    else:
        assert tuple(poset.index[q] for q in witness) in lacking


@pytest.mark.parametrize("m,n", PAIRS)
def test_leq_and_interval_agree_with_the_dfs_closure(m, n):
    poset = build_poset(m, n)
    above = closure_from_covers(len(poset.elements), poset.covers_up)
    for a, qa in enumerate(poset.elements):
        for b, qb in enumerate(poset.elements):
            assert poset.leq(qa, qb) == (b in above[a])
            if b not in above[a]:
                with pytest.raises(ValueError):
                    poset.interval(qa, qb)
                continue
            iv = poset.interval(qa, qb)
            want = {z for z in above[a] if b in above[z]}
            assert (iv.bottom, iv.top, set(iv.indices())) == (a, b, want)


@pytest.mark.parametrize("m,n", PAIRS)
def test_all_intervals_match_the_reachability_masks(m, n):
    poset = build_poset.__wrapped__(m, n)
    got = [(iv.bottom, iv.top, iv.mask) for iv in poset.all_intervals()]
    assert "up_masks" not in poset.__dict__ and "down_masks" not in poset.__dict__
    want = [
        (b, t, poset.up_masks[b] & poset.down_masks[t])
        for b in range(len(poset.elements))
        for t in range(len(poset.elements))
        if poset.up_masks[b] >> t & 1
    ]
    assert got == want


def test_order_queries_build_no_reachability_closure():
    poset = build_poset.__wrapped__(1, 6)
    top = next(q for q in poset.maximal_elements() if poset.leq(poset.minimum, q))
    assert poset.leq(poset.minimum, top) and not poset.leq(top, poset.minimum)
    iv = poset.interval(poset.minimum, top)
    assert mobius(iv) in (-1, 0, 1)
    assert interval_structure(iv)[0]
    for q in poset.elements:
        assert upper_ideal_iso_check(poset, q)
    assert "up_masks" not in poset.__dict__ and "down_masks" not in poset.__dict__


def test_interval_closure_is_built_once_and_shared():
    poset = build_poset(2, 3)
    iv = poset.interval(poset.minimum, TOP)
    local = iv.closure
    mobius(iv)
    interval_structure(iv)
    assert iv.closure is local
    assert list(local.idx) == iv.indices()
    assert all(isinstance(x, tuple) for x in (local.ups, local.downs, local.below))


@pytest.mark.parametrize("m,n", [(1, 4), (1, 5), (2, 3), (3, 2)])
def test_containing_count_matches_brute_force(m, n):
    full = brute_dissections(m, n)
    for q in build_poset(m, n).elements:
        chords = {d for d in q.diagonals if d[0]}
        want = sum(1 for other in full if chords <= set(other))
        assert poset_module._containing_count(m, n, sorted(chords)) == want


@pytest.mark.parametrize("m,n", [(1, 7), (2, 5), (3, 3), (2, 2), (1, 1)])
def test_inclusion_check_counts_the_intervals(m, n):
    poset = build_poset(m, n)
    assert inclusion_check(poset) is True
    assert containing_total(poset) == series_I(m, n).coefficient(n)


def _broken_covers(poset, change):
    """A copy of poset whose covers_up went through `change`, a function of
    the cover lists (as lists)."""
    covers = [list(ups) for ups in poset.covers_up]
    change(covers)
    return FlipPoset(
        poset.m, poset.n, poset.elements, tuple(tuple(sorted(u)) for u in covers)
    )


def _redirect(poset):
    """(i, j, k): i covers j; k is of j's rank, not a superset of i's
    diagonals, and j keeps another lower cover, so only the inclusion
    theorem tells a cover i -> k apart."""
    D = poset.diagonal_masks
    for i, ups in enumerate(poset.covers_up):
        for j in ups:
            if len(poset.covers_down[j]) < 2:
                continue
            for k, r in enumerate(poset.ranks):
                if r == poset.ranks[j] and k not in ups and D[i] & ~D[k]:
                    return i, j, k
    raise AssertionError("no cover to redirect")


def _assert_suite_fails_at(monkeypatch, broken, q, message, suite="poset"):
    monkeypatch.setattr(verify_module, "_order", lambda m, n: broken)
    (report,) = run_suite(suite, broken.m, broken.n)
    assert not report.passed and message in report.detail
    assert report.counterexample == q.to_json()


@pytest.mark.parametrize("m,n", [(2, 3), (1, 5)])
def test_a_redirected_cover_fails_the_inclusion_check(monkeypatch, m, n):
    poset = build_poset(m, n)
    i, j, k = _redirect(poset)

    def redirect(covers):
        covers[i][covers[i].index(j)] = k

    broken = _broken_covers(poset, redirect)
    q = poset.elements[i]
    message = f"cover {q} -> {poset.elements[k]} does not add exactly one"
    with pytest.raises(VerificationFailure, match=re.escape(message)) as info:
        inclusion_check(broken)
    assert info.value.counterexample == q.to_json()
    _assert_suite_fails_at(monkeypatch, broken, q, message)


@pytest.mark.parametrize("m,n", [(2, 3), (1, 5)])
def test_an_extra_cover_fails_the_inclusion_check(monkeypatch, m, n):
    poset = build_poset(m, n)
    i, _, k = _redirect(poset)
    broken = _broken_covers(poset, lambda covers: covers[i].append(k))
    q = poset.elements[i]
    message = f"cover {q} -> {poset.elements[k]} does not add exactly one"
    with pytest.raises(VerificationFailure, match=re.escape(message)) as info:
        inclusion_check(broken)
    assert info.value.counterexample == q.to_json()
    _assert_suite_fails_at(monkeypatch, broken, q, message)


@pytest.mark.parametrize("m,n", [(2, 3), (1, 5)])
def test_a_missing_cover_fails_the_span_check(monkeypatch, m, n):
    # i -> j dropped: every other cover still adds one diagonal and every
    # mask is distinct, but j's lower covers no longer remove the maximal
    # span j holds over i; the up-set of i shrinks, as the oracle sees
    poset = build_poset(m, n)
    i, j, _ = _redirect(poset)
    broken = _broken_covers(poset, lambda covers: covers[i].remove(j))
    size = len(poset.elements)
    assert len(closure_from_covers(size, broken.covers_up)[i]) < len(
        closure_from_covers(size, poset.covers_up)[i]
    )
    q = poset.elements[j]
    message = f"the lower covers of {q} do not remove exactly its maximal spans"
    with pytest.raises(VerificationFailure) as info:
        inclusion_check(broken)
    assert (str(info.value), info.value.counterexample) == (message, q.to_json())
    _assert_suite_fails_at(monkeypatch, broken, q, message)


def test_twin_elements_fail_the_injectivity_of_the_masks(monkeypatch):
    # a second fan, with the fan's covers: every cover adds one diagonal and
    # every element's lower covers remove its maximal spans, but two
    # elements share one mask.  The divisibility suite, which does not
    # count the elements, fails on it at the fan.
    poset = build_poset(2, 3)
    fan = poset.minimum
    broken = FlipPoset(2, 3, poset.elements + (fan,), poset.covers_up + poset.covers_up[:1])
    message = f"{fan} and {fan} hold the same non-apex diagonals"
    with pytest.raises(VerificationFailure) as info:
        inclusion_check(broken)
    assert (str(info.value), info.value.counterexample) == (message, fan.to_json())
    monkeypatch.setattr(verify_module, "_order", lambda m, n: broken)
    (report,) = run_suite("divisibility", 2, 3)
    assert not report.passed
    assert (report.detail, report.counterexample) == (message, fan.to_json())


@pytest.mark.parametrize("m,n", PAIRS)
def test_up_set_sizes_are_the_containing_counts(m, n):
    # The up-set walk `inclusion_check` no longer makes, as an oracle: each
    # element's up-set, by DFS over the covers, holds as many elements as
    # there are M-angulations holding its non-apex diagonals.
    poset = build_poset(m, n)
    above = closure_from_covers(len(poset.elements), poset.covers_up)
    for i, q in enumerate(poset.elements):
        chords = [d for d in q.diagonals if d[0]]
        assert len(above[i]) == poset_module._containing_count(m, n, chords)


@pytest.mark.parametrize("m,n", PAIRS)
def test_lower_covers_remove_the_apex_region_sides(m, n):
    # the fact the span check rests on, against a region walk: the
    # diagonals an element's lower covers remove are the non-apex sides of
    # the region its non-apex diagonals leave around the apex
    poset = build_poset(m, n)
    D = poset.diagonal_masks
    chord = {k: d for d, k in poset.diagonal_bits.items()}
    for i, q in enumerate(poset.elements):
        chords = [d for d in q.diagonals if d[0]]
        ends = dissections_module._chord_ends(chords)
        cycle = dissections_module._walk_region(ends, 0, m * n + 1)
        sides = {(u, v) for u, v in zip(cycle[1:], cycle[2:]) if v - u >= 2}
        removed = {chord[(D[i] ^ D[j]).bit_length() - 1] for j in poset.covers_down[i]}
        assert removed == sides


def test_poset_suite_checks_the_up_sets_against_the_interval_series(monkeypatch):
    # one up-set too many: the fan's, the one element with no non-apex chord
    real = verify_module._containing_count
    monkeypatch.setattr(
        verify_module, "_containing_count", lambda m, n, chords: real(m, n, chords) + (not chords)
    )
    (report,) = run_suite("poset", 2, 3)
    assert not report.passed
    assert report.detail == "up-sets hold 32 intervals, series says 31"


def test_glue_frame_is_built_once_per_bottom_and_frozen(monkeypatch):
    poset = build_poset(1, 6)
    q = next(q for q in poset.elements if len(cut_L(q)) == 3)
    calls = []
    real = dissections_module._glue_frame
    monkeypatch.setattr(
        poset_module, "_glue_frame", lambda m, parts: calls.append(parts) or real(m, parts)
    )
    above = closure_from_covers(len(poset.elements), poset.covers_up)
    assert upper_ideal_iso_check(poset, q) == len(above[poset.index[q]])
    assert calls == [tuple(cut_L(q))]  # one frame for the whole filter
    chords, cycle = real(1, tuple(cut_L(q)))
    assert isinstance(chords, tuple) and isinstance(cycle, tuple)


def test_a_shortcut_cover_fails_the_inclusion_check():
    # the fan -> a rank-2 element holds the fan's (empty) non-apex set but
    # adds two diagonals: an order relation, yet no cover
    poset = build_poset(2, 3)
    k = poset.ranks.index(2)
    broken = _broken_covers(poset, lambda covers: covers[0].append(k))
    fan = poset.minimum
    message = f"cover {fan} -> {poset.elements[k]} does not add exactly one"
    with pytest.raises(VerificationFailure, match=re.escape(message)) as info:
        inclusion_check(broken)
    assert info.value.counterexample == fan.to_json()


def test_a_shortcut_cover_fails_the_poset_suite(monkeypatch):
    # the suite's cover-rank test is `inclusion_check`'s: the rank is the
    # number of non-apex diagonals, and a cover adds exactly one
    poset = build_poset(2, 3)
    k = poset.ranks.index(2)
    broken = _broken_covers(poset, lambda covers: covers[0].append(k))
    message = f"cover {poset.minimum} -> {poset.elements[k]} does not add exactly one"
    _assert_suite_fails_at(monkeypatch, broken, poset.minimum, message)


@pytest.mark.parametrize("m,n", PAIRS)
def test_elements_share_one_tuple_per_chord(m, n):
    chords = [d for q in build_poset(m, n).elements for d in q.diagonals]
    assert len({id(d) for d in chords}) == len(set(chords))


def _held_by_build(m, n):
    # tracemalloc bytes the fresh build of the (m, n) order holds
    dissections_module._arc_fillings.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        poset = build_poset.__wrapped__(m, n)
        gc.collect()  # empties the free lists, which tracemalloc counts as held
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        dissections_module._arc_fillings.cache_clear()
    assert len(poset.elements) == fuss_catalan(m, n)
    return held


def test_built_order_holds_under_half_its_former_memory(monkeypatch):
    # The former build, rebuilt in this process: a fresh tuple per chord slot
    # and the top gap's fillings memoized.  On Python 3.11.7 it holds
    # 1 132 356 bytes traced (the code before the change: 1 132 364), and the
    # shared-chord build 467 100.
    dissections_module._chord.cache_clear()
    held = _held_by_build(1, 8)
    fillings = dissections_module._arc_fillings
    monkeypatch.setattr(dissections_module, "_chord", dissections_module._chord.__wrapped__)
    monkeypatch.setattr(fillings, "__wrapped__", fillings)
    former = _held_by_build(1, 8)
    assert held <= former / 2
