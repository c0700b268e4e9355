"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Each criterion prints its line whether it passes or fails, then asserts.
All comparisons are exact (integer/string equality); sizes are capped per
criterion exactly as stated in its docstring.
"""

import random
import time
from itertools import combinations
from math import comb

from polyflip import (
    Dissection,
    build_poset,
    chords_cross,
    divides,
    enumerate_dissections,
    enumerate_dyck,
    exact_quotient,
    expand,
    fuss_catalan,
    interval_structure,
    involution_image,
    is_dyck,
    leading_monomial,
    make_q0,
    mobius,
    phi,
    poly_for_dissection,
    psi,
    rank_polynomial,
    reflect,
    series_F,
    series_G,
    series_I,
    series_T,
    verify_basis_graded,
)
from polyflip.series import residual_F, residual_I, residual_T

from oracles import (
    _descent_swap,
    cut_L,
    expected_maximal_chain_count,
    glue_G,
    interval_decompose,
    maximal_chain_count,
    width_cover_check,
)

UNIVERSE = [(m, n) for m in (1, 2, 3) for n in range(1, 6)]

EXAMPLE_VECTOR = (0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 1)
EXAMPLE_Q = Dissection.new(2, 7, ((0, 11), (2, 11), (4, 11), (6, 11), (7, 10), (12, 15)))
EXAMPLE_POLY = "(x5-y4)(y5-x3)(y5-x2)(y5-x1)(y7-x6)"
EXAMPLE_MONOMIAL = "x5 y5^3 y7"


def _report(num: int, desc: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num:2d}: {desc}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_01_counting():
    """Dissection counts equal the Fuss-Catalan numbers on {1,2,3}x{1..5}."""
    t0 = time.time()
    bad = []
    pairs = [(m, n) for m, n in UNIVERSE if m * n <= 15]
    for m, n in pairs:
        got = len(enumerate_dissections(m, n))
        want = comb((m + 1) * n, n) // (m * n + 1)
        if got != want or want != fuss_catalan(m, n):
            bad.append((m, n, got, want))
    _report(
        1,
        "enumeration count equals Fuss-Catalan on {1,2,3}x{1..5}",
        not bad,
        f"{len(pairs)} pairs, {time.time() - t0:.1f}s" if not bad else f"bad={bad}",
    )


def test_criterion_02_poset_structure():
    """Unique minimum, gradedness, cover counts, chain counts, descent
    witnesses; exhaustive for mn <= 10."""
    t0 = time.time()
    problems = []
    pairs = [(m, n) for m, n in UNIVERSE if m * n <= 10]
    for m, n in pairs:
        poset = build_poset(m, n)
        q0 = make_q0(m, n)
        minima = [q for i, q in enumerate(poset.elements) if not poset.covers_down[i]]
        if minima != [q0]:
            problems.append((m, n, "minimum", minima))
        for i, ups in enumerate(poset.covers_up):
            r = poset.ranks[i]
            if len(ups) != m * (n - 1 - r):
                problems.append((m, n, "cover count", poset.elements[i]))
            for j in ups:
                if poset.ranks[j] != r + 1:
                    problems.append((m, n, "not graded", (i, j)))
        if maximal_chain_count(poset) != expected_maximal_chain_count(m, n):
            problems.append((m, n, "chain count", maximal_chain_count(poset)))
        for q in poset.elements:
            if q == q0:
                continue
            cand, _ = _descent_swap(q)
            crossed = [d for d in q.diagonals if chords_cross(cand, d)]
            if cand[0] != 0 or len(crossed) != 1:
                problems.append((m, n, "witness", q))
    _report(
        2,
        "flip order is graded from the fan with the advertised cover and chain counts",
        not problems,
        f"{len(pairs)} posets, {time.time() - t0:.1f}s" if not problems else f"bad={problems[:3]}",
    )


def test_criterion_03_rank_distribution():
    """Rank census equals the closed-form polynomial and the matching
    series slice, for mn <= 12."""
    problems = []
    pairs = [(m, n) for m, n in UNIVERSE if m * n <= 12]
    for m, n in pairs:
        census = [0] * n
        for q in enumerate_dissections(m, n):
            census[q.rank] += 1
        closed = tuple(
            (n - k) * comb(m * n + k - 1, k) // n for k in range(n)
        )
        slice_g = series_G(m, n).coefficient(n).int_coeffs()
        if not tuple(census) == closed == rank_polynomial(m, n) == slice_g:
            problems.append((m, n, census, closed, slice_g))
    _report(
        3,
        "rank census matches the closed form and the series slice for mn <= 12",
        not problems,
        f"{len(pairs)} pairs" if not problems else f"bad={problems[:2]}",
    )


def test_criterion_04_bijection_round_trip():
    """phi/psi are mutually inverse for mn <= 12; the 16-gon example
    reproduces its polynomial and monomial byte-exactly."""
    problems = []
    pairs = [(m, n) for m, n in UNIVERSE if m * n <= 12]
    for m, n in pairs:
        for q in enumerate_dissections(m, n):
            if psi(m, phi(q)) != q:
                problems.append((m, n, q))
        for v in enumerate_dyck(m, n):
            if phi(psi(m, v)) != v:
                problems.append((m, n, v))
    example_ok = (
        psi(2, EXAMPLE_VECTOR) == EXAMPLE_Q
        and poly_for_dissection(EXAMPLE_Q).text() == EXAMPLE_POLY
        and leading_monomial(poly_for_dissection(EXAMPLE_Q)).text() == EXAMPLE_MONOMIAL
        and phi(EXAMPLE_Q) == EXAMPLE_VECTOR
    )
    _report(
        4,
        "phi and psi invert each other; 16-gon example byte-exact",
        not problems and example_ok,
        f"{len(pairs)} pairs + worked example" if not problems and example_ok else f"bad={problems[:2]} example_ok={example_ok}",
    )


def test_criterion_05_leading_monomials():
    """Leading exponent vectors are exactly the admissible vectors,
    bijectively, for mn <= 12."""
    problems = []
    pairs = [(m, n) for m, n in UNIVERSE if m * n <= 12]
    for m, n in pairs:
        lms = [
            leading_monomial(poly_for_dissection(q)).exponents
            for q in enumerate_dissections(m, n)
        ]
        if any(not is_dyck(m, v) for v in lms):
            problems.append((m, n, "inadmissible leading exponents"))
        if len(set(lms)) != len(lms) or set(lms) != set(enumerate_dyck(m, n)):
            problems.append((m, n, "not a bijection"))
    _report(
        5,
        "leading monomials biject with admissible vectors for mn <= 12",
        not problems,
        f"{len(pairs)} pairs" if not problems else f"bad={problems}",
    )


def test_criterion_06_divisibility_isomorphism():
    """P_Q | P_Q' iff Q <= Q', exhaustively for mn <= 10, with >= 100
    sampled pairs re-checked by exact polynomial division."""
    t0 = time.time()
    problems = []
    sampled = 0
    pairs = [(m, n) for m, n in UNIVERSE if m * n <= 10]
    for m, n in pairs:
        poset = build_poset(m, n)
        polys = [poly_for_dissection(q) for q in poset.elements]
        k = len(poset.elements)
        for i in range(k):
            for j in range(k):
                if divides(polys[i], polys[j]) != poset.leq(
                    poset.elements[i], poset.elements[j]
                ):
                    problems.append((m, n, poset.elements[i], poset.elements[j]))
        rng = random.Random(97 * m + n)
        expanded = {}
        for _ in range(min(120, k * k)):
            i, j = rng.randrange(k), rng.randrange(k)
            if i not in expanded:
                expanded[i] = expand(polys[i])
            if j not in expanded:
                expanded[j] = expand(polys[j])
            quot = exact_quotient(expanded[j], expanded[i])
            if (quot is not None) != divides(polys[i], polys[j]):
                problems.append((m, n, "division mismatch", i, j))
            if quot is not None and quot * expanded[i] != expanded[j]:
                problems.append((m, n, "inexact quotient", i, j))
            sampled += 1
    _report(
        6,
        "factor divisibility coincides with the flip order for mn <= 10",
        not problems and sampled >= 100,
        f"{sampled} sampled divisions, {time.time() - t0:.1f}s"
        if not problems
        else f"bad={problems[:2]}",
    )


def test_criterion_07_quotient_basis():
    """Graded quotient check on the five pinned (m, n) pairs."""
    t0 = time.time()
    problems = []
    for m, n in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]:
        report = verify_basis_graded(m, n)  # raises on any rank mismatch
        total = sum(row["admissible"] for row in report["degrees"])
        if total != fuss_catalan(m, n):
            problems.append((m, n, total))
        for row in report["degrees"]:
            if row["ideal_rank"] != row["monomials"] - row["admissible"]:
                problems.append((m, n, row))
    _report(
        7,
        "admissible monomials complement the quasisymmetric ideal degree by degree",
        not problems,
        f"5 pairs, {time.time() - t0:.1f}s" if not problems else f"bad={problems}",
    )


def test_criterion_08_series():
    """Defining-equation residuals vanish to order 8; pinned m=2 prefixes;
    interval counts re-checked against brute force."""
    problems = []
    for m in (1, 2, 3):
        for name, res in (("T", residual_T), ("F", residual_F), ("I", residual_I)):
            if not res(m, 8).is_zero():
                problems.append((m, name))
    if [series_T(2, 4).coefficient(k) for k in (1, 2, 3, 4)] != [1, 3, 12, 55]:
        problems.append("T prefix")
    if [series_F(2, 4).coefficient(k) for k in (1, 2, 3, 4)] != [1, 2, 7, 30]:
        problems.append("F prefix")
    if [series_I(2, 3).coefficient(k) for k in (1, 2, 3)] != [1, 5, 31]:
        problems.append("I prefix")
    for n, want in ((2, 5), (3, 31)):
        poset = build_poset(2, n)
        brute = sum(mask.bit_count() for mask in poset.up_masks)
        if brute != want or series_I(2, n).coefficient(n) != want:
            problems.append((2, n, brute))
    _report(
        8,
        "series satisfy their equations to order 8 with the pinned prefixes",
        not problems,
        "T, F, I for m = 1, 2, 3" if not problems else f"bad={problems}",
    )


def test_criterion_09_interval_structure():
    """Every interval for mn <= 10 is a distributive lattice of forest
    ideals with Mobius in {-1, 0, 1}; decompositions round-trip."""
    t0 = time.time()
    problems = []
    total = 0
    pairs = [(m, n) for m, n in UNIVERSE if m * n <= 10]
    for m, n in pairs:
        poset = build_poset(m, n)
        width_cover_check(poset)  # raises on failure
        count = 0
        for iv in poset.all_intervals():
            count += 1
            ok, forest = interval_structure(iv)  # raises on failure
            if not ok or forest.ideal_count() != iv.size:
                problems.append((m, n, "structure", iv.bottom_q, iv.top_q))
            if mobius(iv) not in (-1, 0, 1):
                problems.append((m, n, "mobius", iv.bottom_q, iv.top_q))
            core, parts = interval_decompose(iv)  # raises on failure
            if glue_G(core, parts) != iv.top_q or parts != cut_L(iv.bottom_q):
                problems.append((m, n, "decompose", iv.bottom_q, iv.top_q))
        if count != series_I(m, n).coefficient(n):
            problems.append((m, n, "interval count", count))
        total += count
    _report(
        9,
        "intervals are distributive forest-ideal lattices and decompose for mn <= 10",
        not problems,
        f"{total} intervals, {time.time() - t0:.1f}s" if not problems else f"bad={problems[:2]}",
    )


def test_criterion_10_involution():
    """The polynomial family maps to itself up to sign under the mirror
    involution for mn <= 10.  Any failure with m >= 3 is reported as an
    open-question datum instead of failing the gate."""
    hard = []
    open_datum = []
    pairs = [(m, n) for m, n in UNIVERSE if m * n <= 10]
    for m, n in pairs:
        canonical = {}
        for q in enumerate_dissections(m, n):
            canonical[poly_for_dissection(q)] = q
        for p, q in canonical.items():
            image, sign = involution_image(p)
            bad = (
                image not in canonical
                or sign != (-1) ** q.rank
                or image != poly_for_dissection(reflect(q))
            )
            if bad:
                (open_datum if m >= 3 else hard).append((m, n, q))
    extra = f"{len(pairs)} pairs, closed including m = 3"
    if open_datum:
        extra = f"open question datum for m >= 3: {len(open_datum)} polynomials move off the family, first {open_datum[0]}"
    _report(
        10,
        "mirror involution permutes the polynomial family up to sign for mn <= 10",
        not hard,
        extra if not hard else f"bad={hard[:2]}",
    )
