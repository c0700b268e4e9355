import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

import polyflip.bijection as bijection_module
import polyflip.cli as cli_module
import polyflip.dissections as dissections_module
import polyflip.polynomials as polynomials_module
import polyflip.poset as poset_module
import polyflip.qsym as qsym
import polyflip.verify as verify_module
from polyflip import (
    SUITES,
    Dissection,
    FactoredPoly,
    FlipPoset,
    ForestPoset,
    Interval,
    NotDyck,
    SizeGuardExceeded,
    StructureViolation,
    TruncatedSeries,
    VerificationFailure,
    binomial_for_diagonal,
    build_poset,
    enumerate_dissections,
    enumerate_dyck,
    fuss_catalan,
    is_dyck,
    is_final,
    leading_monomial,
    phi,
    poly_for_dissection,
    rank_polynomial,
    run_suite,
    series_F,
    series_G,
    series_I,
    to_json_dict,
)
from polyflip.cli import main
from polyflip.polynomials import variable_at_position
from polyflip.qsym import _densify, _ideal_rows, integer_matrix_rank

import oracles
from oracles import DecompositionFailure, interval_decompose, width_and_blocks

EXPECTED_SUITES = ["poset", "bijection", "divisibility", "qsym", "intervals", "series"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_suite_registry():
    assert list(SUITES) == EXPECTED_SUITES


@pytest.mark.parametrize("name", EXPECTED_SUITES)
def test_each_suite_passes_on_small_case(name):
    (report,) = run_suite(name, 2, 2)
    assert report.passed, (report.counterexample, report.detail)
    assert report.suite == name
    assert report.m == 2 and report.n == 2
    assert report.seconds >= 0
    data = report.to_json()
    assert data["suite"] == name and data["pass"] is True
    assert set(data) == {"suite", "m", "n", "pass", "counterexample", "detail"}


def test_run_all_suites():
    reports = run_suite("all", 1, 3)
    assert [r.suite for r in reports] == EXPECTED_SUITES
    assert all(r.passed for r in reports)


def test_run_suite_unknown_name():
    with pytest.raises(KeyError):
        run_suite("nope", 2, 2)


def test_cli_enumerate_csv(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--m", "2", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "rank,diagonals,vector,poly,leading",
        '0,"(0,3)",0 0 0 0,1,1',
        '1,"(1,4)",0 0 1 0,(x2-y1),x2',
        '1,"(2,5)",0 0 0 1,(y2-x1),y2',
    ]


def test_cli_enumerate_json_and_final_filter(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert data["items"][0] == {
        "diagonals": [[0, 3]],
        "rank": 0,
        "vector": [0, 0, 0, 0],
        "poly": "1",
        "leading": "1",
    }
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "2", "--final")
    assert json.loads(out)["count"] == 2


def test_to_json_dict_is_the_json_export_with_lists(capsys):
    # The export streams the tuples the order holds; the public dict must
    # still hold lists at every level, as json.loads gives them back (a
    # tuple never equals a list).
    code, out, _ = run_cli(capsys, "poset", "--m", "2", "--n", "3", "--emit", "json")
    assert code == 0
    assert to_json_dict(build_poset(2, 3)) == json.loads(out)


def test_cli_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "3")
    _, second, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "3")
    assert first == second


def test_cli_poset_dot_and_json(capsys):
    code, out, _ = run_cli(capsys, "poset", "--m", "2", "--n", "2")
    assert code == 0
    assert out.startswith("digraph flip_poset {")
    assert out.endswith("}\n")
    assert out.count(" -> ") == 2
    code, out, _ = run_cli(capsys, "poset", "--m", "2", "--n", "2", "--emit", "json")
    data = json.loads(out)
    assert len(data["elements"]) == 3 and len(data["covers"]) == 2


def test_cli_series(capsys):
    code, out, _ = run_cli(capsys, "series", "--m", "2", "--which", "T", "--order", "5")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 3, 12, 55, 273]
    code, out, _ = run_cli(capsys, "series", "--m", "2", "--which", "G", "--order", "3")
    assert json.loads(out)["coefficients"] == [[1], [1, 2], [1, 4, 7]]
    code, out, _ = run_cli(
        capsys, "series", "--m", "1", "--which", "I", "--order", "3", "--format", "csv"
    )
    assert out.splitlines() == ["n,coefficient", "1,1", "2,3", "3,11"]


def test_cli_verify_pass(capsys):
    code, out, err = run_cli(capsys, "verify", "--m", "2", "--n", "2", "--suite", "poset")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1 and reports[0]["pass"] is True
    assert "poset: pass in" in err


def test_cli_verify_all(capsys):
    code, out, err = run_cli(capsys, "verify", "--m", "1", "--n", "2")
    assert code == 0
    assert [r["suite"] for r in json.loads(out)] == EXPECTED_SUITES
    assert err.count(": pass in") == len(EXPECTED_SUITES)


def test_cli_size_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--m", "2", "--n", "9")
    assert code == 2
    assert "size guard" in err and "POLYFLIP_MAX_MN" in err


def test_cli_env_override_tightens_guard(capsys, monkeypatch):
    monkeypatch.setenv("POLYFLIP_MAX_MN", "4")
    code, _, err = run_cli(capsys, "enumerate", "--m", "1", "--n", "5")
    assert code == 2 and "size guard" in err
    monkeypatch.setenv("POLYFLIP_MAX_MN", "5")
    code, out, _ = run_cli(capsys, "enumerate", "--m", "1", "--n", "5")
    assert code == 0 and json.loads(out)["count"] == 42


def test_cli_bad_env_guard_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("POLYFLIP_MAX_MN", "abc")
    code, out, err = run_cli(capsys, "enumerate", "--m", "1", "--n", "2")
    assert code == 2 and out == ""
    assert err == "error: POLYFLIP_MAX_MN='abc' is not an integer\n"


def test_cli_qsym_failure_carries_counterexample(capsys, monkeypatch):
    # drop one admissible vector: degree 1 of (2, 2) then claims rank 3
    full = qsym.enumerate_dyck
    monkeypatch.setattr(qsym, "enumerate_dyck", lambda m, n, *guard: full(m, n, *guard)[:-1])
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--n", "2", "--suite", "qsym")
    assert code == 1
    (report,) = json.loads(out)
    assert report["pass"] is False
    monomials, rows = _ideal_rows(2, 2, 1)
    rank = integer_matrix_rank(_densify(rows, len(monomials)))
    assert report["detail"] == f"degree 1: ideal rank {rank}, expected 3"
    assert report["counterexample"] == {
        "degree": 1,
        "monomials": 4,
        "ideal_rank": rank,
        "admissible": 1,
    }


def test_cli_rejects_bad_arguments(capsys):
    with pytest.raises(SystemExit):
        main(["enumerate", "--m", "0", "--n", "2"])
    with pytest.raises(SystemExit):
        main(["enumerate", "--m", "2"])
    with pytest.raises(SystemExit):
        main(["series", "--m", "2", "--which", "Q"])
    with pytest.raises(SystemExit):
        main([])


def test_cli_verify_env_tightens_guard(capsys, monkeypatch):
    monkeypatch.setenv("POLYFLIP_MAX_MN", "4")
    code, out, err = run_cli(capsys, "verify", "--suite", "poset", "--m", "1", "--n", "5")
    assert code == 2 and out == "" and "size guard" in err


def test_cli_verify_env_lifts_interval_cap(capsys, monkeypatch):
    # the intervals suite takes the default guard, m*n <= 16, as the poset
    # suite does: (4, 3) passes with the variable unset, which exited 2
    # while the intervals suite had a guard of its own, m*n <= 10
    monkeypatch.delenv("POLYFLIP_MAX_MN", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--suite", "intervals", "--m", "4", "--n", "3")
    assert code == 0
    (report,) = json.loads(out)
    assert report["pass"] is True and report["detail"] == "101 intervals certified"
    # the variable still tightens the guard, with its hint, and lifts it
    monkeypatch.setenv("POLYFLIP_MAX_MN", "11")
    code, out, err = run_cli(capsys, "verify", "--suite", "intervals", "--m", "4", "--n", "3")
    assert code == 2 and out == ""
    assert "size guard" in err and "POLYFLIP_MAX_MN" in err
    monkeypatch.setenv("POLYFLIP_MAX_MN", "12")
    code, out, _ = run_cli(capsys, "verify", "--suite", "intervals", "--m", "4", "--n", "3")
    assert code == 0
    (report,) = json.loads(out)
    assert report["pass"] is True


@pytest.mark.parametrize("m,n", [(2, 3), (1, 5)])
def test_intervals_suite_builds_each_order_once(m, n):
    # the suite's own order, once; no smaller order is built
    build_poset.cache_clear()
    (report,) = run_suite("intervals", m, n)
    assert report.passed
    assert build_poset.cache_info().misses == 1


def test_poset_suite_validates_each_element_once(monkeypatch):
    calls = []
    real = verify_module.validate
    monkeypatch.setattr(verify_module, "validate", lambda q: calls.append(q) or real(q))
    (report,) = run_suite("poset", 2, 3)
    assert report.passed
    assert sorted(calls) == list(build_poset(2, 3).elements)


def test_poset_suite_reports_a_malformed_element(monkeypatch):
    good = build_poset(2, 3)
    bogus = Dissection(2, 3, ((1, 4), (3, 6)))
    broken = FlipPoset(2, 3, good.elements[:-1] + (bogus,), good.covers_up)
    monkeypatch.setattr(verify_module, "_order", lambda m, n: broken)
    (report,) = run_suite("poset", 2, 3)
    assert not report.passed
    assert report.detail == "MalformedDissection: (1, 4) crosses (3, 6)"
    assert report.counterexample == bogus.to_json()


def test_poset_suite_reports_a_derived_non_element(monkeypatch):
    bogus = Dissection(2, 3, ((1, 4), (3, 6)))
    real = poset_module._up_flips

    def flips(q):  # flipping (0, 5) of this element to (3, 6) gives bogus
        return [((0, 5), (3, 6))] if q.diagonals == ((0, 5), (1, 4)) else real(q)

    monkeypatch.setattr(poset_module, "_up_flips", flips)
    monkeypatch.setattr(verify_module, "_order", build_poset.__wrapped__)
    (report,) = run_suite("poset", 2, 3)
    assert not report.passed
    assert report.detail.startswith("MalformedDissection: derived ")
    assert report.counterexample == bogus.to_json()


def test_poset_suite_walks_no_chain_and_validates_only_the_fan(monkeypatch):
    # the package defines no chain walk: descend_to_fan is a test oracle
    validated = []
    real_new = Dissection.new.__func__

    def counting_new(cls, m, n, chords):
        validated.append(real_new(cls, m, n, chords))
        return validated[-1]

    monkeypatch.setattr(Dissection, "new", classmethod(counting_new))
    (report,) = run_suite("poset", 2, 3)
    assert report.passed
    # only the fan, which make_q0 validates once and caches
    assert set(validated) <= {build_poset(2, 3).minimum}


def _failed_detail(monkeypatch, suite, **closed_forms):
    """The detail of `suite` at (2, 3) with verify's closed forms replaced,
    a failure with no counterexample."""
    for name, fake in closed_forms.items():
        monkeypatch.setattr(verify_module, name, fake)
    (report,) = run_suite(suite, 2, 3)
    assert not report.passed and report.counterexample is None
    return report.detail


def test_poset_suite_fails_on_a_wrong_element_count(monkeypatch):
    detail = _failed_detail(monkeypatch, "poset", fuss_catalan=lambda m, n: 13)
    assert detail == "12 elements, expected 13"


def test_poset_suite_fails_on_a_wrong_chain_count(monkeypatch):
    # the order has 2^2 * 2! = 8 maximal chains, and the suite counts none:
    # the count is a corollary of `inclusion_check`.  Dropping one of the
    # fan's four covers leaves 6; the element it reached keeps no lower
    # cover removing its one non-apex diagonal, and the suite names it.
    good = build_poset(2, 3)
    fan = good.index[good.minimum]
    top = good.covers_up[fan][-1]
    covers = list(good.covers_up)
    covers[fan] = covers[fan][:-1]
    broken = FlipPoset(2, 3, good.elements, tuple(covers))
    assert oracles.maximal_chain_count(good) == 8
    assert oracles.maximal_chain_count(broken) == 6
    monkeypatch.setattr(verify_module, "_order", lambda m, n: broken)
    (report,) = run_suite("poset", 2, 3)
    q = good.elements[top]
    assert not report.passed
    assert report.detail == (
        f"the lower covers of {q} do not remove exactly its maximal spans"
    )
    assert report.counterexample == q.to_json()


def test_poset_suite_fails_on_a_wrong_rank_census(monkeypatch):
    want = rank_polynomial(2, 3)
    off = want[:-1] + (want[-1] + 1,)
    detail = _failed_detail(monkeypatch, "poset", rank_polynomial=lambda m, n: off)
    assert detail == f"rank census {want} != {off}"


def test_poset_suite_fails_on_a_wrong_rank_series_slice(monkeypatch):
    # the census matches the closed form, but the series is m = 3's
    detail = _failed_detail(
        monkeypatch, "poset", series_G=lambda m, order: series_G(m + 1, order)
    )
    slice_3 = series_G(3, 3).coefficient(3)
    assert detail == f"rank series slice {slice_3.text()} != {rank_polynomial(2, 3)}"


def test_cli_qsym_column_cap_refuses_before_any_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("a degree was built before the refusal")

    monkeypatch.delenv("POLYFLIP_MAX_MN", raising=False)
    monkeypatch.setattr(qsym, "_ideal_rows", no_work)
    monkeypatch.setattr(qsym, "enumerate_dyck", no_work)
    code, out, err = run_cli(capsys, "verify", "--suite", "qsym", "--m", "1", "--n", "8")
    assert code == 2 and out == ""
    assert err == "size guard: 6435 monomial columns exceed the limit 4000\n"
    assert "POLYFLIP_MAX_MN" not in err


def test_cli_structure_failure_carries_counterexample(capsys, monkeypatch):
    # Birkhoff's certificate with a forest counted to no ideals.  The suite
    # counts the nesting forests' ideals in its own stack pass, so it still
    # passes; the interval walk the suite replaced fails at the first
    # interval it certifies and carries it
    monkeypatch.setattr(ForestPoset, "ideal_count", lambda self: 0)
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--n", "2", "--suite", "intervals")
    assert code == 0
    (report,) = json.loads(out)
    assert report["detail"] == "5 intervals certified"
    with pytest.raises(StructureViolation) as info:
        oracles.initial_interval_walk(2, 2)
    # the first interval certified directly: [fan, fan] is a product of its
    # two cut pieces', [fan, ((1, 4),)] a final of width 1
    poset = build_poset(2, 2)
    fan, top = poset.minimum, poset.elements[1]
    assert not is_final(fan) and is_final(top) and top.diagonals == ((1, 4),)
    assert str(info.value) == f"0 forest ideals for an interval of size 2 in [{fan}, {top}]"
    assert info.value.counterexample == [fan.to_json(), top.to_json()]


def test_decomposition_failure_carries_counterexample(monkeypatch):
    # a wrong chord translation: the oracles' glue frame turned by one vertex
    fan = build_poset(2, 2).minimum
    real = oracles._glue_frame

    def rotated(m, parts):
        chords, cycle = real(m, parts)
        return chords, cycle[1:] + cycle[:1]

    monkeypatch.setattr(oracles, "_glue_frame", rotated)
    # a core read through that frame is the decomposition's failure
    top = build_poset(2, 2).elements[1]
    with pytest.raises(DecompositionFailure, match="does not translate") as info:
        interval_decompose(build_poset(2, 2).interval(fan, top))
    assert info.value.counterexample == [fan.to_json(), top.to_json()]


def test_run_all_builds_each_order_once():
    build_poset.cache_clear()
    reports = run_suite("all", 1, 5)
    assert all(r.passed for r in reports)
    assert build_poset.cache_info().misses == 1  # the order (1, 5) alone


def _divisibility_fault(monkeypatch, name, fake):
    """Run the (2, 3) divisibility suite with verify's `name` replaced by
    `fake`; returns its failed report."""
    monkeypatch.setattr(verify_module, name, fake)
    (report,) = run_suite("divisibility", 2, 3)
    assert not report.passed
    return report


def _factor_map_with(changes):
    """binomial_for_diagonal with the factors of some chords replaced."""
    return lambda m, n, d: changes.get(d) or binomial_for_diagonal(m, n, d)


def _chord_factor(d):
    return binomial_for_diagonal(2, 3, d)


def test_divisibility_reports_the_first_pair_of_a_wrong_closure(monkeypatch):
    # A dropped cover leaves the divisibility side whole: only the inclusion
    # certificate sees it, at the element whose lower covers lost a span.
    good = build_poset(2, 4)
    ups = list(good.covers_up)
    assert 16 in ups[1]
    ups[1] = tuple(j for j in ups[1] if j != 16)
    broken = FlipPoset(2, 4, good.elements, tuple(ups))
    monkeypatch.setattr(verify_module, "_order", lambda m, n: broken)
    (report,) = run_suite("divisibility", 2, 4)
    assert not report.passed
    assert report.detail.endswith("do not remove exactly its maximal spans")
    assert report.counterexample == good.elements[16].to_json()


def test_divisibility_reports_the_first_pair_of_a_wrong_poly(monkeypatch):
    # a sampled P_Q with another element's factor, of the same rank: the
    # chords' factors are whole, but P_Q is not their product
    poset = build_poset(2, 3)
    a, b = [q for q in poset.elements if q.rank == 1][:2]
    pairs = verify_module._spot_check_pairs(random.Random(10007 * 2 + 3), 12, 120)
    assert poset.index[a] in {i for pair in pairs for i in pair}
    real = verify_module.poly_for_dissection
    report = _divisibility_fault(
        monkeypatch, "poly_for_dissection", lambda q: real(b) if q == a else real(q)
    )
    assert report.detail == f"the factors of {a} are not its chords'"
    assert report.counterexample == a.to_json()


def test_divisibility_reports_a_repeated_factor(monkeypatch):
    # TOP's two chords given one factor, so P_TOP would be f^2: a collision
    # of the factor map
    fake = _factor_map_with({(4, 7): _chord_factor((1, 4))})
    report = _divisibility_fault(monkeypatch, "binomial_for_diagonal", fake)
    assert report.detail == "chords (1, 4) and (4, 7) have the same factor"
    assert report.counterexample == [4, 7]


def test_divisibility_reports_a_factor_collision_of_crossing_chords(monkeypatch):
    # two chords that cross, so share no element: no P_Q repeats a factor,
    # yet an element holding one would divide by the other's
    fake = _factor_map_with({(2, 5): _chord_factor((1, 4))})
    report = _divisibility_fault(monkeypatch, "binomial_for_diagonal", fake)
    assert report.detail == "chords (1, 4) and (2, 5) have the same factor"
    assert report.counterexample == [2, 5]


def test_divisibility_reports_associate_factors(monkeypatch):
    # (3, 6)'s factor made (1, 4)'s with its sides swapped: a unit apart
    f = _chord_factor((1, 4))
    fake = _factor_map_with({(3, 6): type(f)(high=f.low, low=f.high)})
    report = _divisibility_fault(monkeypatch, "binomial_for_diagonal", fake)
    assert report.detail == "the factors of chords (1, 4) and (3, 6) are associates"
    assert report.counterexample == [3, 6]


def _involution_fault(monkeypatch, d, image=None, sign=None):
    """The (2, 3) divisibility suite with the involution image or sign of
    chord d's factor replaced; returns its failed report."""
    target = FactoredPoly(2, 3, (_chord_factor(d),))
    real = verify_module.involution_image

    def faulty(p):
        got, s = real(p)
        if p != target:
            return got, s
        return (got if image is None else image), (s if sign is None else sign)

    return _divisibility_fault(monkeypatch, "involution_image", faulty)


def test_divisibility_reports_a_wrong_involution_sign(monkeypatch):
    report = _involution_fault(monkeypatch, (1, 4), sign=1)
    assert report.detail == "involution sign on the factor of chord (1, 4) is 1"
    assert report.counterexample == [1, 4]


def test_divisibility_reports_an_involution_image_off_the_family(monkeypatch):
    # a chord whose mirror is no chord of the order: an apex chord
    real = verify_module._mirror
    report = _divisibility_fault(
        monkeypatch, "_mirror", lambda size, d: (0, 3) if d == (2, 5) else real(size, d)
    )
    assert report.detail == "the mirror (0, 3) of chord (2, 5) is not a chord of the order"
    assert report.counterexample == [2, 5]


def test_divisibility_reports_an_involution_image_not_the_mirror(monkeypatch):
    # another chord's factor, with the right sign, but not the mirror's
    image = FactoredPoly(2, 3, (_chord_factor((2, 5)),))
    report = _involution_fault(monkeypatch, (1, 4), image=image)
    assert report.detail == "involution image of the factor of chord (1, 4) is not its mirror's"
    assert report.counterexample == [1, 4]


def test_divisibility_reports_a_wrong_mirror_of_one_chord(monkeypatch):
    # (1, 4)'s mirror read as (2, 5), a chord of the order, not (4, 7)
    real = verify_module._mirror
    report = _divisibility_fault(
        monkeypatch, "_mirror", lambda size, d: (2, 5) if d == (1, 4) else real(size, d)
    )
    assert report.detail == "involution image of the factor of chord (1, 4) is not its mirror's"
    assert report.counterexample == [1, 4]


@pytest.mark.parametrize("m,n", [(1, 7), (2, 4), (3, 3)])
def test_divisibility_builds_polynomials_only_for_the_samples(monkeypatch, m, n):
    # one polynomial per sampled element, one involution per non-apex chord
    polys, images = [], []
    real_poly, real_image = verify_module.poly_for_dissection, verify_module.involution_image
    monkeypatch.setattr(
        verify_module, "poly_for_dissection", lambda q: polys.append(q) or real_poly(q)
    )
    monkeypatch.setattr(
        verify_module, "involution_image", lambda p: images.append(p) or real_image(p)
    )
    (report,) = run_suite("divisibility", m, n)
    assert report.passed
    poset = build_poset(m, n)
    pairs = verify_module._spot_check_pairs(
        random.Random(10007 * m + n), len(poset.elements), verify_module.DIVISION_SAMPLES
    )
    sampled = {i for pair in pairs for i in pair}
    assert sorted(poset.index[q] for q in polys) == sorted(sampled)
    assert len(polys) <= 2 * verify_module.DIVISION_SAMPLES
    assert len(images) == len(poset.diagonal_bits)


def test_bijection_reports_the_first_unreached_vector(monkeypatch):
    dissections = enumerate_dissections(2, 3)
    dropped = dissections[5]
    monkeypatch.setattr(
        verify_module,
        "enumerate_dissections",
        lambda m, n, max_mn: [q for q in dissections if q != dropped],
    )
    (report,) = run_suite("bijection", 2, 3)
    assert not report.passed
    assert report.detail == "leading exponent vectors do not match the admissible set"
    assert report.counterexample == list(phi(dropped))


def test_poset_suite_reports_a_second_minimal_element(monkeypatch):
    # without the covers from the fan to x, the rank-1 x has no lower cover:
    # a second minimal element, which the inclusion certificate's (c) names
    good = build_poset(2, 3)
    x = good.ranks.index(1)
    covers = (tuple(j for j in good.covers_up[0] if j != x),) + good.covers_up[1:]
    broken = FlipPoset(2, 3, good.elements, covers)
    monkeypatch.setattr(verify_module, "_order", lambda m, n: broken)
    (report,) = run_suite("poset", 2, 3)
    q = good.elements[x]
    assert not report.passed
    assert report.detail == (
        f"the lower covers of {q} do not remove exactly its maximal spans"
    )
    assert report.counterexample == q.to_json()


def test_bijection_reports_a_missing_admissible_vector(monkeypatch):
    real = verify_module.enumerate_dyck
    monkeypatch.setattr(
        verify_module, "enumerate_dyck", lambda m, n, max_mn: real(m, n, max_mn)[:-1]
    )
    (report,) = run_suite("bijection", 2, 3)
    assert not report.passed
    assert report.detail == "11 admissible vectors, expected Fuss-Catalan"
    assert report.counterexample is None


def test_bijection_reports_a_vector_psi_does_not_round_trip(monkeypatch):
    # phi sends psi(v0) to v1, which psi takes to another dissection
    v0, v1 = enumerate_dyck(2, 3)[:2]
    q0 = verify_module.psi(2, v0)
    real = verify_module.phi
    monkeypatch.setattr(verify_module, "phi", lambda q: v1 if q == q0 else real(q))
    (report,) = run_suite("bijection", 2, 3)
    assert not report.passed
    assert report.detail == f"psi(phi({q0})) differs"
    assert report.counterexample == q0.to_json()


def test_bijection_reports_a_non_admissible_leading_vector(monkeypatch):
    # a vector breaking the prefix bound at position 1 leaves psi stuck
    q0 = enumerate_dissections(2, 3)[0]
    bad = (1, 0, 0, 0, 0, 0)
    assert not is_dyck(2, bad)
    real = verify_module.phi
    monkeypatch.setattr(verify_module, "phi", lambda q: bad if q == q0 else real(q))
    (report,) = run_suite("bijection", 2, 3)
    assert not report.passed
    assert report.detail == (
        "ConstructionStuck: entry 1 at position 1 exceeds the 0 visible "
        "predecessor-letter vertices"
    )
    assert report.counterexample is None


def test_bijection_reports_a_leading_vector_phi_flags(monkeypatch):
    # phi's own prefix-bound scan, flagging q0's vector, stops the suite
    q0 = enumerate_dissections(2, 3)[0]
    v0 = phi(q0)
    real = bijection_module._first_violation
    monkeypatch.setattr(
        bijection_module, "_first_violation", lambda m, v: 1 if v == v0 else real(m, v)
    )
    (report,) = run_suite("bijection", 2, 3)
    assert not report.passed
    assert report.detail == f"NotDyck: leading exponents {v0} violate the prefix bound"
    assert report.counterexample is None


def test_bijection_reports_a_dissection_psi_does_not_give_back(monkeypatch):
    # psi hands out the second dissection for q0's vector from its first call
    q0, q1 = enumerate_dissections(2, 3)[:2]
    v0 = phi(q0)
    real = verify_module.psi
    monkeypatch.setattr(verify_module, "psi", lambda m, v: q1 if v == v0 else real(m, v))
    (report,) = run_suite("bijection", 2, 3)
    assert not report.passed
    assert report.detail == f"psi(phi({q0})) differs"
    assert report.counterexample == q0.to_json()


@pytest.mark.parametrize(("m", "n"), [(1, 7), (2, 4), (3, 3)])
def test_bijection_suite_runs_phi_and_psi_once_per_dissection(monkeypatch, m, n):
    calls = {"phi": 0, "psi": 0}
    real_phi, real_psi = verify_module.phi, verify_module.psi

    def counting_phi(q):
        calls["phi"] += 1
        return real_phi(q)

    def counting_psi(m, v):
        calls["psi"] += 1
        return real_psi(m, v)

    monkeypatch.setattr(verify_module, "phi", counting_phi)
    monkeypatch.setattr(verify_module, "psi", counting_psi)
    (report,) = run_suite("bijection", m, n)
    assert report.passed
    size = len(enumerate_dissections(m, n))
    assert calls == {"phi": size, "psi": size}


def test_divisibility_reports_a_division_that_disagrees(monkeypatch):
    # the quotient's existence negated: the first spot-checked pair fails
    real = verify_module.exact_quotient
    monkeypatch.setattr(
        verify_module, "exact_quotient", lambda a, b: None if real(a, b) is not None else a
    )
    (report,) = run_suite("divisibility", 2, 3)
    elements = build_poset(2, 3).elements
    rng = random.Random(10007 * 2 + 3)
    i, j = verify_module._spot_check_pairs(rng, len(elements), verify_module.DIVISION_SAMPLES)[0]
    assert not report.passed
    assert report.detail == "long division disagrees with factor containment"
    assert report.counterexample == [elements[i].to_json(), elements[j].to_json()]


def test_qsym_suite_checks_the_admissible_total(monkeypatch):
    real = verify_module.verify_basis_graded

    def one_more(m, n):
        report = real(m, n)
        first, *rest = report["degrees"]
        return {**report, "degrees": [{**first, "admissible": first["admissible"] + 1}, *rest]}

    monkeypatch.setattr(verify_module, "verify_basis_graded", one_more)
    (report,) = run_suite("qsym", 2, 3)
    assert not report.passed
    assert report.detail == "admissible total 13 != Fuss-Catalan"
    assert report.counterexample is None


def test_intervals_suite_checks_the_filter_sizes_against_the_interval_series(monkeypatch):
    # the census off by one: a rank-2 final of width 2, so no walked top,
    # read as rank 1; its filter counts FC(2, 2) = 3 instead of FC(2, 1) = 1
    good = build_poset(2, 3)
    broken = FlipPoset(2, 3, good.elements, good.covers_up)
    ranks = list(good.ranks)
    ranks[good.index[Dissection.new(2, 3, ((1, 4), (4, 7)))]] -= 1
    broken.__dict__["ranks"] = tuple(ranks)
    monkeypatch.setattr(
        verify_module, "_order", lambda m, n: broken if n == 3 else build_poset(m, n)
    )
    (report,) = run_suite("intervals", 2, 3)
    assert not report.passed
    assert report.detail == "33 intervals, series says 31"
    assert report.counterexample is None


def test_intervals_suite_fails_on_a_wrong_nesting_test(monkeypatch):
    # The down-set count fails on its own.  A nesting test wrong for one
    # chord, (2, 5) not under (1, 6), makes it a root of its element's
    # forest: an antichain of two chords, four ideals, where the chain has
    # three.  The rank census is untouched, so the up-set count still
    # matches the series and only the down-sets disagree.
    q = Dissection.new(2, 3, ((1, 6), (2, 5)))
    chain, antichain = ForestPoset((0, 1), (-1, 0)), ForestPoset((0, 1), (-1, -1))
    assert verify_module._forest_ideals(q.diagonals, 7) == chain.ideal_count() == 3
    real = verify_module._forest_ideals

    def miscounted(chords, top):
        return antichain.ideal_count() if chords == q.diagonals else real(chords, top)

    monkeypatch.setattr(verify_module, "_forest_ideals", miscounted)
    (report,) = run_suite("intervals", 2, 3)
    assert not report.passed
    assert report.detail == "the down-sets hold 32 intervals, series says 31"
    assert report.counterexample is None
    assert verify_module._interval_total(build_poset(2, 3)) == series_I(2, 3).coefficient(3) == 31


def test_intervals_suite_walks_one_initial_interval_per_irreducible_final(monkeypatch):
    # The suite walks no interval at all.  The interval walk it replaced,
    # kept as an oracle, walks [fan_k, t] for each final t of width at most
    # 1 in each order k <= 4, and nothing else: no cut piece, no glue
    # frame, no interval enumeration
    def refuse(*args, **kwargs):
        raise AssertionError("the intervals suite cuts, glues or enumerates intervals")

    monkeypatch.setattr(oracles, "cut_L", refuse)
    monkeypatch.setattr(oracles, "_glue_frame", refuse)
    monkeypatch.setattr(FlipPoset, "all_intervals", refuse)
    walked = []
    real = FlipPoset.interval
    monkeypatch.setattr(
        FlipPoset,
        "interval",
        lambda self, b, t: walked.append((self.n, b, t)) or real(self, b, t),
    )
    (report,) = run_suite("intervals", 2, 4)
    assert report.passed and report.detail == "211 intervals certified"
    assert walked == []
    oracles.initial_interval_walk(2, 4)
    want = [
        (k, order.minimum, t)
        for k in (4, 3, 2, 1)
        for order in [build_poset(2, k)]
        for t in order.elements
        if is_final(t) and width_and_blocks(t)[0] <= 1
    ]
    assert walked == want and len(want) == 24 + 6 + 2 + 1  # 2 * FC(2, k - 1) for k > 1


def test_divisibility_divides_only_the_spot_checks(monkeypatch):
    calls = []
    real = verify_module.divides
    monkeypatch.setattr(
        verify_module, "divides", lambda p, q: calls.append((p, q)) or real(p, q)
    )
    monkeypatch.setattr(FlipPoset, "leq", None)  # the row check never asks leq
    (report,) = run_suite("divisibility", 1, 5)
    assert report.passed
    assert report.detail == "checked 1764 pairs, 120 divisions"
    assert len(calls) == 120


@pytest.mark.parametrize("size", [0, 1, 2, 3, 11, 42])
def test_spot_check_pairs_are_distinct_and_off_diagonal(size):
    pairs = verify_module._spot_check_pairs(random.Random(7), size, 120)
    assert len(pairs) == min(120, size * (size - 1))
    assert len(set(pairs)) == len(pairs)
    assert all(0 <= i < size and 0 <= j < size and i != j for i, j in pairs)
    if size * (size - 1) <= 120:
        assert set(pairs) == {(i, j) for i in range(size) for j in range(size) if i != j}


@pytest.mark.parametrize(
    "m,n,detail",
    [(1, 1, "checked 1 pairs, 0 divisions"), (1, 2, "checked 4 pairs, 2 divisions")],
)
def test_divisibility_suite_on_one_and_two_elements(m, n, detail):
    (report,) = run_suite("divisibility", m, n)
    assert report.passed and report.detail == detail


def _rebuilt_poly_and_leading(q):
    """poly and leading text of q, rebuilt from binomial_for_diagonal alone."""
    m = q.m
    factors = [binomial_for_diagonal(m, q.n, d) for d in q.diagonals]
    factors = sorted(
        (f for f in factors if f is not None),
        key=lambda f: (f.high.position(m), -f.low.position(m)),
    )
    poly = "".join(f"({f.high.name}-{f.low.name})" for f in factors) or "1"
    exponents = [0] * (m * q.n)
    for f in factors:
        exponents[f.high.position(m) - 1] += 1
    terms = []
    for pos, e in enumerate(exponents, start=1):
        if e:
            name = variable_at_position(m, pos).name
            terms.append(name if e == 1 else f"{name}^{e}")
    return poly, " ".join(terms) or "1"


def _enumerate_rows(capsys, m, n, fmt):
    """(diagonals, rank, vector, poly, leading) of every enumerate row."""
    argv = ["enumerate", "--m", str(m), "--n", str(n), "--format", fmt]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if fmt == "json":
        return [
            (r["diagonals"], r["rank"], r["vector"], r["poly"], r["leading"])
            for r in json.loads(out)["items"]
        ]
    rows = []
    for rank, diagonals, vector, poly, leading in list(csv.reader(io.StringIO(out)))[1:]:
        chords = [[int(x) for x in d.strip("()").split(",")] for d in diagonals.split()]
        vector = [int(x) for x in vector.split()]
        rows.append((chords, int(rank), vector, poly, leading))
    return rows


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (3, 2)])
def test_enumerate_rows_match_an_independent_recomputation(capsys, m, n, fmt):
    rows = _enumerate_rows(capsys, m, n, fmt)
    assert len(rows) == len(enumerate_dissections(m, n))
    for diagonals, rank, vector, poly, leading in rows:
        q = Dissection.new(m, n, [tuple(d) for d in diagonals])
        assert rank == q.rank
        assert tuple(vector) == phi(q)
        assert (poly, leading) == _rebuilt_poly_and_leading(q)


ROW_PAIRS = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]


@pytest.mark.parametrize("final", [False, True])
@pytest.mark.parametrize("m,n", ROW_PAIRS)
def test_enumerate_row_fields_are_the_public_functions(capsys, m, n, final):
    # Rows are read off one polynomial per element; each field must still
    # be what the public function it stands for returns.
    argv = ["enumerate", "--m", str(m), "--n", str(n)] + ["--final"] * final
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    elements = [q for q in enumerate_dissections(m, n) if not final or is_final(q)]
    data = json.loads(out)
    assert data["count"] == len(data["items"]) == len(elements)
    for row, q in zip(data["items"], elements):
        p = poly_for_dissection(q)
        assert row == {
            "diagonals": [list(d) for d in q.diagonals],
            "rank": q.rank,
            "vector": list(phi(q)),
            "poly": p.text(),
            "leading": leading_monomial(p).text(),
        }


def test_enumerate_builds_one_polynomial_per_element(capsys, monkeypatch):
    # a row reads its element's factor rows from the table once, and builds
    # no FactoredPoly or Monomial: the rows stand for the one polynomial
    calls = []
    real = polynomials_module._factor_rows

    def counting(q):
        calls.append(q)
        return real(q)

    def never(*args):
        raise AssertionError("a row built a polynomial or a monomial")

    # phi reads its own rows through the bijection module's name
    monkeypatch.setattr(cli_module, "_factor_rows", counting)
    monkeypatch.setattr(bijection_module, "_factor_rows", counting)
    monkeypatch.setattr(polynomials_module, "FactoredPoly", never)
    monkeypatch.setattr(polynomials_module, "Monomial", never)
    code, out, _ = run_cli(capsys, "enumerate", "--m", "2", "--n", "3")
    assert code == 0 and len(json.loads(out)["items"]) == fuss_catalan(2, 3)
    assert sorted(calls) == enumerate_dissections(2, 3)


PINNED_SERIES = [
    ("T", 2, 5, [1, 3, 12, 55, 273]),
    ("G", 2, 3, [[1], [1, 2], [1, 4, 7]]),
    ("I", 1, 3, [1, 3, 11]),
    ("F", 2, 5, [series_F(2, 5).coefficient(k) for k in range(1, 6)]),
]


@pytest.mark.parametrize("which,m,order,want", PINNED_SERIES)
def test_series_payload_builds_one_series(monkeypatch, which, m, order, want):
    name = f"series_{which}"
    real = getattr(cli_module, name)
    calls = []
    monkeypatch.setattr(
        cli_module, name, lambda m, order: calls.append((m, order)) or real(m, order)
    )
    assert cli_module._series_payload(which, m, order) == want
    assert calls == [(m, order)]


def test_structure_checks_and_suites_share_one_cache_key():
    build_poset.cache_clear()
    (intervals,) = run_suite("intervals", 1, 5)
    (poset,) = run_suite("poset", 1, 5)
    assert intervals.passed and poset.passed
    assert build_poset.cache_info().misses == 1
    oracles.initial_interval_walk(1, 5)
    (poset,) = run_suite("poset", 1, 4)
    assert poset.passed
    assert build_poset.cache_info().misses == 5  # sizes 1..5, each once


def test_a_callers_order_is_the_one_the_suites_use(monkeypatch):
    build_poset.cache_clear()
    poset = build_poset(2, 4)
    misses = build_poset.cache_info().misses
    seen = []
    real = verify_module.inclusion_check
    monkeypatch.setattr(verify_module, "inclusion_check", lambda p: seen.append(p) or real(p))
    (report,) = run_suite("poset", 2, 4)
    assert report.passed and len(seen) == 1 and seen[0] is poset
    assert build_poset.cache_info().misses == misses


def test_intervals_suite_glues_nothing_and_scans_no_lattice(monkeypatch):
    # and certifies no interval directly, nor computes a Mobius value.  The
    # interval walk it replaced certifies one interval per isomorphism
    # class: of the FC(2, k) = 1 + 3 + 12 intervals [fan_k, t] of the
    # orders k = 1, 2, 3, the 1 + 2 + 6 with t final of width at most 1,
    # the others being products of smaller ones (the package defines no
    # gluing: glue_G is a test oracle)
    calls = {"is_lattice": 0, "interval_structure": 0, "mobius": 0}

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)

        return wrapped

    assert not hasattr(poset_module, "glue_G")
    lattice = counting("is_lattice", poset_module.is_lattice)
    monkeypatch.setattr(poset_module, "is_lattice", lattice)
    monkeypatch.setattr(verify_module, "is_lattice", lattice)
    structure = counting("interval_structure", poset_module.interval_structure)
    monkeypatch.setattr(poset_module, "interval_structure", structure)
    monkeypatch.setattr(oracles, "interval_structure", structure)
    # Mobius values are a theorem of the nesting forests: none is computed
    for name in ("mobius", "interval_structure"):
        assert not hasattr(verify_module, name)
    monkeypatch.setattr(poset_module, "mobius", counting("mobius", poset_module.mobius))
    (report,) = run_suite("intervals", 2, 3)
    assert report.passed and report.detail == "31 intervals certified"
    assert calls == {"is_lattice": 0, "interval_structure": 0, "mobius": 0}
    oracles.initial_interval_walk(2, 3)
    assert calls == {"is_lattice": 0, "interval_structure": 9, "mobius": 0}


@pytest.mark.parametrize("m,n", [(2, 3), (1, 6)])
def test_intervals_suite_walks_no_region(monkeypatch, m, n):
    # the irreducible finals are the elements of rank k - 1 with at most
    # one lower cover, read off the certified order: no apex region walked
    walks = {"apex_region": 0, "_walk_region": 0}

    def counting(name, real):
        def wrapped(*args):
            walks[name] += 1
            return real(*args)

        return wrapped

    for name in walks:
        real = getattr(dissections_module, name)
        monkeypatch.setattr(dissections_module, name, counting(name, real))
    (report,) = run_suite("intervals", m, n)
    assert report.passed
    assert walks == {"apex_region": 0, "_walk_region": 0}


def test_poset_suite_counts_no_chains_and_no_cover_degrees():
    # both are corollaries of `inclusion_check`; only the tests' oracles
    # count them.  Every package function the suite calls is recorded.
    for module in (poset_module, verify_module):
        for name in ("cover_count_check", "maximal_chain_count", "expected_maximal_chain_count"):
            assert not hasattr(module, name)
    package = str(Path(poset_module.__file__).parent)
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        (report,) = run_suite("poset", 2, 3)
    finally:
        sys.setprofile(None)
    assert report.passed and "inclusion_check" in called
    assert [name for name in called if "chain" in name or "cover_count" in name] == []


def _m3_interval():
    """M3, the non-distributive lattice of a bottom, three atoms and a
    top, as a hand-made Interval; each element's n tells it apart and the
    rank is its height."""
    covers = ((1, 2, 3), (4,), (4,), (4,), ())
    elements = tuple(
        Dissection(1, i + 1, ((1, 1),) * h) for i, h in enumerate((0, 1, 1, 1, 2))
    )
    return Interval(FlipPoset(1, 5, elements, covers), 0, 4, 0b11111)


def test_intervals_suite_reports_a_bad_mobius_value_once(monkeypatch):
    # a Mobius value is read off the nesting forest, never computed: a
    # patched `mobius` is not consulted and the suite passes
    calls = []
    monkeypatch.setattr(poset_module, "mobius", lambda iv: calls.append(iv) or 2)
    (report,) = run_suite("intervals", 2, 2)
    assert report.passed and calls == []
    # what a value outside {-1, 0, 1} would stand for, an interval that is
    # no distributive lattice, the suite never walks; the interval walk it
    # replaced fails at `interval_structure`, once
    m3 = _m3_interval()
    walked = []
    monkeypatch.setattr(FlipPoset, "interval", lambda *args: walked.append(args) or m3)
    (report,) = run_suite("intervals", 2, 2)
    assert report.passed and walked == []
    with pytest.raises(StructureViolation) as info:
        oracles.initial_interval_walk(2, 2)
    assert len(walked) == 1
    assert str(info.value) == (
        f"8 forest ideals for an interval of size 5 in [{m3.bottom_q}, {m3.top_q}]"
    )
    assert info.value.counterexample == m3.to_json()
    # the first interval walked, [fan, ((1, 4),)]: the fan's own is a
    # product of its cut pieces'
    poset = build_poset(2, 2)
    _, fan, top = walked[0]
    assert (fan, top) == (poset.minimum, poset.elements[1])
    assert top.diagonals == ((1, 4),)


def test_intervals_suite_certifies_the_irreducibles_of_smaller_orders(monkeypatch):
    # Birkhoff's certificate miscounts the forest ideals of one interval
    # [fan, t] of the 3-piece order, t final of width 1.  The suite on
    # (2, 4) reads its intervals off the 4-piece order's nesting forests
    # and passes; the interval walk it replaced certifies [fan, t]
    # directly, after the 4-piece order, and names it
    small = build_poset(2, 3)
    fan = small.minimum
    top = [q for q in small.elements if is_final(q) and width_and_blocks(q)[0] == 1][-1]
    iv = small.interval(fan, top)
    _, forest = poset_module.interval_structure(iv)
    real = ForestPoset.ideal_count
    monkeypatch.setattr(ForestPoset, "ideal_count", lambda f: real(f) + (f == forest))
    (report,) = run_suite("intervals", 2, 4)
    assert report.passed
    with pytest.raises(StructureViolation) as info:
        oracles.initial_interval_walk(2, 4)
    assert str(info.value) == (
        f"{iv.size + 1} forest ideals for an interval of size {iv.size} in [{fan}, {top}]"
    )
    assert info.value.counterexample == [fan.to_json(), top.to_json()]


def test_intervals_suite_fails_on_a_wrong_cover_inside_a_non_initial_interval(
    monkeypatch,
):
    # Drop the cover x -> y, x above the fan: it lies in the interval [x, y].
    # The fan still reaches every element and every initial interval of the
    # broken order still certifies, but x's up-set, short of y, is smaller
    # than the count of M-angulations holding x's non-apex diagonals.  y's
    # lower covers no longer remove its maximal span over x, so
    # `inclusion_check` on the suite's own order names y.
    good = build_poset(2, 4)
    x, y = 1, 16
    assert y in good.covers_up[x] and good.elements[x] != good.minimum
    covers = list(good.covers_up)
    covers[x] = tuple(w for w in covers[x] if w != y)
    broken = FlipPoset(2, 4, good.elements, tuple(covers))
    fan = broken.index[broken.minimum]
    assert len(poset_module._reached(broken.covers_up, fan)) == len(good.elements)
    for iv in broken.all_intervals():
        if iv.bottom == fan:
            assert poset_module.interval_structure(iv)[0]
    monkeypatch.setattr(verify_module, "_order", lambda m, n: broken)
    (report,) = run_suite("intervals", 2, 4)
    assert not report.passed
    got, want = (len(poset_module._reached(p.covers_up, x)) for p in (broken, good))
    assert got < want
    assert report.detail == (
        f"the lower covers of {good.elements[y]} do not remove exactly its "
        f"maximal spans"
    )
    assert report.counterexample == good.elements[y].to_json()


def _without(order, x):
    """A copy of order without element x, its covers renumbered."""
    keep = [i for i in range(len(order.elements)) if i != x]
    new = {i: k for k, i in enumerate(keep)}
    covers = tuple(tuple(new[j] for j in order.covers_up[i] if j != x) for i in keep)
    return FlipPoset(order.m, order.n, tuple(order.elements[i] for i in keep), covers)


def test_intervals_suite_fails_on_a_missing_top(monkeypatch):
    # An order without its last maximal element still passes the local
    # inclusion certificate, and its down-sets are still nest-closed; only
    # the count of M-angulations tells the order is not all of them, and
    # the suite names the order.
    own = build_poset(2, 4)
    y = max(i for i, ups in enumerate(own.covers_up) if not ups)
    broken = _without(own, y)
    assert poset_module.inclusion_check(broken)
    monkeypatch.setattr(verify_module, "_order", lambda m, n: broken)
    (report,) = run_suite("intervals", 2, 4)
    assert not report.passed
    assert report.detail == "the size-4 order has 54 elements, expected 55"
    assert report.counterexample == {"m": 2, "n": 4, "elements": 54}
    # the interval walk the suite replaced builds the smaller orders too,
    # and names the 3-piece order without its last maximal element
    small = build_poset(2, 3)
    x = max(i for i, ups in enumerate(small.covers_up) if not ups)
    smaller = _without(small, x)
    assert poset_module.inclusion_check(smaller)
    with pytest.raises(VerificationFailure) as info:
        oracles.initial_interval_walk(
            2, 4, lambda m, k: smaller if k == 3 else build_poset(m, k)
        )
    assert str(info.value) == "the size-3 order has 11 elements, expected 12"
    assert info.value.counterexample == {"m": 2, "n": 3, "elements": 11}


def test_cli_qsym_honours_the_env_guard(capsys, monkeypatch):
    monkeypatch.setenv("POLYFLIP_MAX_MN", "4")
    code, out, err = run_cli(capsys, "verify", "--suite", "qsym", "--m", "2", "--n", "3")
    assert code == 2 and out == ""
    assert "POLYFLIP_MAX_MN" in err


def test_run_all_refuses_before_any_suite_runs():
    build_poset.cache_clear()
    with pytest.raises(SizeGuardExceeded) as info:
        run_suite("all", 1, 8)  # qsym's top degree has 6435 columns
    assert info.value.counterexample == {"columns": 6435, "max_columns": 4000}
    assert build_poset.cache_info().misses == 0


def test_cli_qsym_env_guard_lifts_the_vector_enumeration(capsys, monkeypatch):
    monkeypatch.setenv("POLYFLIP_MAX_MN", "20")
    code, out, _ = run_cli(capsys, "verify", "--suite", "qsym", "--m", "6", "--n", "3")
    assert code == 0
    (report,) = json.loads(out)
    assert report["pass"] is True


@pytest.mark.parametrize("m,n", [(1, 6), (2, 4), (3, 3), (1, 1), (1, 2), (3, 1)])
def test_poset_suite_builds_no_reachability_table(m, n):
    # nor does the divisibility suite, which reuses the inclusion theorem;
    # the bounded orders are lattices, scanned on their own interval's
    # local closure
    ambient = (m, n) in [(1, 1), (1, 2), (3, 1)]
    build_poset.cache_clear()
    (report,) = run_suite("poset", m, n)
    assert report.passed
    assert report.detail == f"ambient_lattice={ambient} (observed, not asserted)"
    (report,) = run_suite("divisibility", m, n)
    assert report.passed
    poset = verify_module._order(m, n)
    assert build_poset.cache_info().misses == 1  # the suites' own order
    assert "up_masks" not in poset.__dict__ and "down_masks" not in poset.__dict__


def test_intervals_suite_certifies_the_inclusion_theorem_on_each_order(monkeypatch):
    # the nest closure describes the down-sets of an inclusion order only,
    # so a failure on the suite's own order fails the (2, 4) suite; the
    # interval walk it replaced, whose chord-bit translation is an
    # isomorphism only between inclusion orders, fails on the order k = 2
    seen = []

    def failing_at(k, real):
        def check(order):
            seen.append(order.n)
            if order.n == k:
                raise VerificationFailure("not an inclusion order", order.minimum.to_json())
            return real(order)

        return check

    real = poset_module.inclusion_check
    monkeypatch.setattr(verify_module, "inclusion_check", failing_at(4, real))
    (report,) = run_suite("intervals", 2, 4)
    assert not report.passed and seen == [4]
    assert report.detail == "not an inclusion order"
    assert report.counterexample == build_poset(2, 4).minimum.to_json()
    seen.clear()
    monkeypatch.setattr(oracles, "inclusion_check", failing_at(2, real))
    with pytest.raises(VerificationFailure, match="not an inclusion order") as info:
        oracles.initial_interval_walk(2, 4)
    assert seen == [4, 3, 2]
    assert info.value.counterexample == build_poset(2, 2).minimum.to_json()


@pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (3, 2)])
def test_series_suite_counts_intervals_without_building_them(m, n, monkeypatch):
    def no_intervals(self):
        raise AssertionError("an interval was built to be counted")

    monkeypatch.setattr(FlipPoset, "all_intervals", no_intervals)
    (report,) = run_suite("series", m, n)
    assert report.passed, report.detail


def test_series_suite_fails_when_its_order_lacks_a_cover(monkeypatch):
    # graded: the one path from the fan to its first upper cover is that
    # cover, so dropping it shrinks the fan's up-set
    full = build_poset(2, 3)
    covers = (full.covers_up[0][1:],) + full.covers_up[1:]
    lacking = FlipPoset(2, 3, full.elements, covers)
    monkeypatch.setattr(verify_module, "_order", lambda m, n: lacking)
    (report,) = run_suite("series", 2, 3)
    assert not report.passed
    count, rest = report.detail.split(" ", 1)
    assert rest == "intervals disagree with the composed series"
    assert int(count) < series_I(2, 3).coefficient(3)


def test_series_suite_fails_on_a_wrong_composition(monkeypatch):
    real = TruncatedSeries.compose
    monkeypatch.setattr(
        TruncatedSeries,
        "compose",
        lambda self, inner: real(self, inner) + TruncatedSeries.x(self.order) ** 2,
    )
    detail = _failed_detail(monkeypatch, "series")
    assert detail == "fixed-point residuals do not vanish to order 8"


def test_series_suite_fails_on_a_wrong_fuss_catalan_number(monkeypatch):
    detail = _failed_detail(
        monkeypatch, "series", fuss_catalan=lambda m, k: fuss_catalan(m, k) + (k == 3)
    )
    assert detail == "T coefficient 3 differs from the closed form"


def test_series_suite_fails_on_a_wrong_rank_polynomial(monkeypatch):
    def fake(m, k):
        want = rank_polynomial(m, k)
        return want[:-1] + (want[-1] + 1,) if k == 2 else want

    detail = _failed_detail(monkeypatch, "series", rank_polynomial=fake)
    assert detail == "G slice 2 differs from the rank polynomial"


def test_series_suite_fails_when_g_and_t_disagree(monkeypatch):
    # G and the rank polynomials agree, both m = 3's, so G at z = 1 counts
    # 22 elements of size 3 against T's 12
    detail = _failed_detail(
        monkeypatch,
        "series",
        series_G=lambda m, order: series_G(m + 1, order),
        rank_polynomial=lambda m, k: rank_polynomial(m + 1, k),
    )
    assert detail == "G at z=1 disagrees with T"


def test_series_suite_fails_on_a_missing_final(monkeypatch):
    real = enumerate_dissections

    def one_final_short(m, n, max_mn):
        elements = real(m, n, max_mn)
        first = next(i for i, q in enumerate(elements) if is_final(q))
        return elements[:first] + elements[first + 1 :]

    detail = _failed_detail(monkeypatch, "series", enumerate_dissections=one_final_short)
    finals = series_F(2, 8).coefficient(3)
    assert detail == f"{finals - 1} final dissections, series says {finals}"


def test_series_suite_refuses_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a series was built before the refusal")

    monkeypatch.setattr(verify_module, "residuals_vanish", no_work)
    with pytest.raises(SizeGuardExceeded) as info:
        run_suite("series", 1, 6, max_mn=4)
    assert info.value.counterexample == {"m": 1, "n": 6, "max_mn": 4}


def _listed(obj):
    # obj with every iterator field made a list, as json.dumps needs it
    if isinstance(obj, dict):
        return {key: _listed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, Iterator)):
        return [_listed(item) for item in obj]
    return obj


EMIT_CASES = {
    "empty dict": lambda: {},
    "empty lists": lambda: {"b": [], "a": (), "c": iter([]), "d": {"e": []}},
    "nested dicts": lambda: {
        "z": {"y": {"x": [1, {"w": None, "v": [2.5, "q\"\u00e9"]}]}, "b": "\n"},
        "a": 1.5,
        "t": True,
    },
    "non-string keys": lambda: {2: "b", 1: [None], 3: {10: 0, 9: 1}},
    "top-level list": lambda: [1, "two", {"b": 2, "a": [3, []]}],
    "top-level empty list": lambda: [],
    "top-level scalar": lambda: "text",
    "generator fields": lambda: {
        "rows": ({"k": i, "j": [i, -i]} for i in range(1300)),
        "inner": {"squares": (i * i for i in range(3)), "none": iter(())},
        "count": 1300,
    },
}


@pytest.mark.parametrize("case", sorted(EMIT_CASES))
def test_emit_json_writes_what_json_dumps_writes(capsys, case):
    cli_module._emit_json(EMIT_CASES[case]())
    want = json.dumps(_listed(EMIT_CASES[case]()), sort_keys=True) + "\n"
    assert capsys.readouterr().out == want


# The stdout of the export and verify commands, pinned by sha256 in the
# benchmark's digests.
with open(Path(__file__).resolve().parents[1] / "perfbench" / "digests.json") as _fh:
    PINNED_DIGESTS = json.load(_fh)
EXPORT_LABELS = [
    label
    for label in PINNED_DIGESTS
    if label.split()[0] in ("enumerate", "poset", "series")
]
VERIFY_LABELS = [label for label in PINNED_DIGESTS if label.split()[0] == "verify"]


def test_export_digests_cover_every_export_command():
    assert len(EXPORT_LABELS) == 6


def test_verify_digests_cover_every_verify_command():
    assert len(VERIFY_LABELS) == 18


@pytest.mark.parametrize("label", sorted(EXPORT_LABELS + VERIFY_LABELS))
def test_export_stdout_matches_its_pinned_digest(capsys, label):
    code, out, _ = run_cli(capsys, *label.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[label]


# sha256 of export stdout the benchmark does not pin: the --final filter,
# m = 3 rows, and the JSON and the other DOT labels of a poset export.
TEST_PINNED_DIGESTS = {
    "enumerate --m 2 --n 4 --final --format csv":
        "69467fcdb64c7b5d98afd01aa6bde687dcbefdb01ca3fbb56528055e37470c36",
    "enumerate --m 3 --n 3":
        "62e0fbf4085d36d4b61178da55d116479a26b4887c0572f6b81bb3e2c7663ee4",
    "poset --m 2 --n 4 --emit json":
        "dbe9b7e15f14bf141acceaef323056cf28481a6e7e473a7f73ccde184781500f",
    "poset --m 2 --n 4 --emit dot --label dyck":
        "c2814b83550a7a394d32bab28b2161319fe5f378980d290ba2fcea4ed2189aca",
    "poset --m 2 --n 4 --emit dot --label diagonals":
        "c4d9b69b8c04f015ad2c12c9caf3b6c2fd806bdfebb0bfe4ab1fe0912b64a183",
}


@pytest.mark.parametrize("label", sorted(TEST_PINNED_DIGESTS))
def test_unbenchmarked_export_matches_its_pinned_digest(capsys, label):
    assert label not in PINNED_DIGESTS
    code, out, _ = run_cli(capsys, *label.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TEST_PINNED_DIGESTS[label]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_export_failing_partway_exits_1_with_partial_output(capsys, monkeypatch, fmt):
    # Rows are written as they are made, so a row that fails leaves the rows
    # before it on stdout; only the exit code says the export is whole.
    calls = []

    def fails_at_row_5(m, v):
        calls.append(v)
        if len(calls) == 5:
            raise NotDyck("row 5 fails")
        return bijection_module.admissible_exponents(m, v)

    monkeypatch.setattr(cli_module, "admissible_exponents", fails_at_row_5)
    code, out, err = run_cli(capsys, "enumerate", "--m", "1", "--n", "4", "--format", fmt)
    assert (code, err) == (1, "error: NotDyck: row 5 fails\n")
    if fmt == "json":
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
    else:
        assert len(list(csv.reader(io.StringIO(out)))) == 1 + 4  # header, 4 rows


def _child_env():
    """The environment of a CLI child, with this checkout's src importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_child(*command):
    """Exit code, stdout and stderr of `python COMMAND`."""
    child = subprocess.run(
        [sys.executable, *command], capture_output=True, env=_child_env(), timeout=60
    )
    return child.returncode, child.stdout, child.stderr


@pytest.mark.parametrize(
    "argv,code",
    [
        (("enumerate", "--m", "1", "--n", "3"), 0),
        (("verify", "--suite", "qsym", "--m", "2", "--n", "2"), 0),
        (("verify", "--suite", "qsym", "--m", "1", "--n", "8"), 2),  # column cap
        (("series", "--order", "x"), 2),  # usage error
    ],
)
def test_python_m_polyflip_runs_the_console_script(argv, code):
    # the console script `polyflip = polyflip.cli:main` runs exactly this
    script = "import sys; from polyflip.cli import main; sys.exit(main())"
    expected = _run_child("-c", script, *argv)
    assert expected[0] == code
    assert _run_child("-m", "polyflip", *argv) == expected


def _read_one_line_and_close(*argv):
    """`polyflip ARGV | head -1`: the first line, the exit code and stderr
    of a CLI child whose reader takes one line and goes."""
    child = subprocess.Popen(
        [sys.executable, "-m", "polyflip.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    line = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    return line, child.wait(timeout=60), err


def test_an_export_into_a_closed_pipe_exits_1_without_a_traceback():
    # about 650 kB of rows are still to come after the header
    got = _read_one_line_and_close("enumerate", "--m", "1", "--n", "9", "--format", "csv")
    assert got == (b"rank,diagonals,vector,poly,leading\n", 1, b"")


def test_a_dot_export_into_a_closed_pipe_exits_1_without_a_traceback():
    # about 440 kB of DOT lines are still to come; written line by line, the
    # closed pipe shows at a later write instead of being dropped unseen
    got = _read_one_line_and_close("poset", "--m", "1", "--n", "9")
    assert got == (b"digraph flip_poset {\n", 1, b"")
