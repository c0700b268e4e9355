from itertools import product

import pytest

import polyflip.bijection as bijection_module
import polyflip.dyck as dyck_module
from polyflip import (
    ConstructionStuck,
    Dissection,
    FactoredPoly,
    NotDyck,
    binomial_for_diagonal,
    enumerate_dissections,
    enumerate_dyck,
    expand,
    first_violation,
    is_dyck,
    phi,
    poly_for_dissection,
    psi,
)
from polyflip.bijection import admissible_exponents

from oracles import psi_by_label_scan

EXAMPLE_VECTOR = (0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 1)
EXAMPLE_Q = Dissection.new(2, 7, ((0, 11), (2, 11), (4, 11), (6, 11), (7, 10), (12, 15)))

PAIRS = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]


def test_worked_example_pair():
    assert psi(2, EXAMPLE_VECTOR) == EXAMPLE_Q
    assert phi(EXAMPLE_Q) == EXAMPLE_VECTOR


def test_fan_maps_to_zero_vector():
    assert phi(Dissection.new(2, 3, ((0, 3), (0, 5)))) == (0,) * 6
    assert psi(2, (0,) * 6).diagonals == ((0, 3), (0, 5))


@pytest.mark.parametrize("m,n", PAIRS)
def test_round_trip_both_ways(m, n):
    qs = enumerate_dissections(m, n)
    vs = enumerate_dyck(m, n)
    assert len(qs) == len(vs)
    images = set()
    for q in qs:
        v = phi(q)
        assert is_dyck(m, v)
        assert sum(v) == q.rank
        assert psi(m, v) == q
        images.add(v)
    assert images == set(vs)
    for v in vs:
        assert phi(psi(m, v)) == v


@pytest.mark.parametrize("m,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_inadmissible_vectors_get_stuck(m, n):
    for v in product(range(n + 1), repeat=m * n):
        if is_dyck(m, v):
            continue
        with pytest.raises(ConstructionStuck):
            psi(m, v)


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 2), (4, 2)])
def test_psi_matches_the_letter_scan_on_every_vector(m, n):
    # the same stuck message, count included, or the same dissection
    for v in product(range(n + 1), repeat=m * n):
        want = psi_by_label_scan(m, v)
        if isinstance(want, str):
            with pytest.raises(ConstructionStuck) as info:
                psi(m, v)
            assert str(info.value) == want
        else:
            assert psi(m, v) == Dissection.new(m, n, want)


def test_stuck_message_points_at_first_violation():
    v = (0, 0, 2, 0)
    pos = first_violation(2, v)
    with pytest.raises(ConstructionStuck, match=f"position {pos}"):
        psi(2, v)


def test_psi_input_validation():
    with pytest.raises(ValueError):
        psi(2, (0, 1, 0))  # length not a multiple of m
    with pytest.raises(ValueError):
        psi(2, ())


def test_non_admissible_leading_vector_raises_not_dyck(monkeypatch):
    bad = (1, 0)  # m * v_1 = 1 >= position 1
    message = r"leading exponents \(1, 0\) violate the prefix bound"
    with pytest.raises(NotDyck, match=message):
        admissible_exponents(1, bad)
    # phi's vector, as counted off the factor rows, is scanned for the bound
    monkeypatch.setattr(bijection_module, "_lead_vector", lambda m, n, leads: bad)
    with pytest.raises(NotDyck, match=message):
        phi(Dissection.new(1, 2, ((0, 2),)))


@pytest.mark.parametrize("m,n", [(1, 6), (2, 4), (3, 3)])
def test_phi_is_the_leading_exponent_of_the_expanded_polynomial(m, n):
    # an oracle that reads no factor table: P_Q from the definition of each
    # chord's factor, multiplied out, and its lex-largest exponent vector
    # (last position first)
    for q in enumerate_dissections(m, n):
        factors = [binomial_for_diagonal(m, n, d) for d in q.diagonals if d[0]]
        p = FactoredPoly.new(m, n, factors)
        assert p == poly_for_dissection(q)
        assert phi(q) == expand(p).leading_exponent()


def test_a_round_trip_checks_the_vector_once(monkeypatch):
    # phi's admissibility scan reads the exponents it counted off the factor
    # rows, nonnegative ints by construction; only psi's vector from outside
    # is checked entry by entry.
    calls = []
    real = dyck_module.check_m_vector

    def counting(m, v):
        calls.append(v)
        return real(m, v)

    monkeypatch.setattr(dyck_module, "check_m_vector", counting)
    monkeypatch.setattr(bijection_module, "check_m_vector", counting)
    for q in enumerate_dissections(2, 4):
        calls.clear()
        assert psi(2, phi(q)) == q
        assert calls == [phi(q)]


def test_psi_validates_the_dissection_it_builds_once(monkeypatch):
    # psi's result being an M-angulation is a claim of the paper, so psi
    # hands `validate` the dissection it builds from its sorted chords
    calls = []
    real = bijection_module.validate
    monkeypatch.setattr(bijection_module, "validate", lambda q: calls.append(q) or real(q))
    for q in enumerate_dissections(2, 4):
        calls.clear()
        got = psi(2, phi(q))
        assert got == q and len(calls) == 1 and calls[0] is got
