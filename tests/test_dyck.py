import pytest

from polyflip import (
    SizeGuardExceeded,
    enumerate_compositions,
    enumerate_dissections,
    enumerate_dyck,
    first_violation,
    fuss_catalan,
    is_dyck,
    is_m_composition,
    monomial_to_vector,
    vector_to_lattice_path,
    vector_to_monomial,
    weight,
)

from oracles import brute_dyck, path_is_admissible

EXAMPLE_VECTOR = (0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 1)


def test_vector_validation():
    with pytest.raises(ValueError):
        is_dyck(2, (0, 0, 1))  # length not a multiple of m
    with pytest.raises(ValueError):
        is_dyck(2, (0, -1))
    with pytest.raises(ValueError):
        is_dyck(2, (0, True))  # bools are not counts
    with pytest.raises(ValueError):
        is_dyck(0, ())


class Count(int):
    pass


@pytest.mark.parametrize("v", [(0, True), (0, -1), (0, 1.0), (0, "1"), (False,)])
def test_entries_that_are_no_counts_are_named(v):
    with pytest.raises(ValueError) as info:
        weight(1, v)
    assert str(info.value) == f"entries must be nonnegative integers: {v!r}"


def test_int_subclasses_other_than_bool_are_counts():
    assert weight(1, [Count(2), 0, 3]) == (5,)
    assert weight(2, iter((0, 1, 2, 3))) == (2, 4)


def test_first_violation():
    assert first_violation(2, (1, 0)) == 1
    assert first_violation(2, (0, 0, 2, 0)) == 3
    assert first_violation(2, (0, 0, 1, 0)) is None
    assert first_violation(1, (0, 1, 2)) == 3


def test_admissible_examples():
    assert is_dyck(2, ())
    assert is_dyck(2, (0, 0, 0, 1))
    assert not is_dyck(2, (0, 1, 0, 0))
    assert is_dyck(2, EXAMPLE_VECTOR)
    assert sum(EXAMPLE_VECTOR) == 5  # rank of the matching dissection


def test_weight():
    assert weight(2, EXAMPLE_VECTOR) == (1, 4)
    assert weight(3, (0, 0, 0, 1, 2, 0)) == (1, 2, 0)


def test_enumerate_small():
    assert enumerate_dyck(1, 2) == [(0, 0), (0, 1)]
    assert enumerate_dyck(2, 2) == [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]


@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (3, 2)])
def test_enumerate_matches_product_filter(m, n):
    assert sorted(enumerate_dyck(m, n)) == sorted(brute_dyck(m, n))


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in range(1, 6)])
def test_enumerate_count_and_order(m, n):
    vs = enumerate_dyck(m, n)
    assert len(vs) == fuss_catalan(m, n)
    assert vs == sorted(vs)  # ascending lexicographic
    assert all(0 <= sum(v) <= n - 1 for v in vs)


def test_enumerate_guard():
    with pytest.raises(SizeGuardExceeded):
        enumerate_dyck(2, 9)
    assert len(enumerate_dyck(2, 9, max_mn=18)) == fuss_catalan(2, 9)


def test_dyck_and_dissection_guards_refuse_alike():
    with pytest.raises(SizeGuardExceeded) as dyck_info:
        enumerate_dyck(2, 9)
    with pytest.raises(SizeGuardExceeded) as dissection_info:
        enumerate_dissections(2, 9)
    assert str(dyck_info.value) == str(dissection_info.value)
    assert str(dyck_info.value) == "m*n = 18 exceeds the guard 16"
    assert dyck_info.value.counterexample == {"m": 2, "n": 9, "max_mn": 16}
    assert dissection_info.value.counterexample == dyck_info.value.counterexample


def test_lattice_path_agrees_with_prefix_test():
    for v in enumerate_dyck(2, 3):
        assert path_is_admissible(2, vector_to_lattice_path(2, v))
    assert vector_to_lattice_path(2, (0, 1, 0, 2)) == "URUURRU"
    assert not path_is_admissible(2, vector_to_lattice_path(2, (0, 1, 0, 2)))


def test_monomial_round_trip():
    mono = vector_to_monomial(2, EXAMPLE_VECTOR)
    assert mono.text() == "x5 y5^3 y7"
    assert monomial_to_vector(mono) == EXAMPLE_VECTOR
    assert vector_to_monomial(2, (0,) * 4).text() == "1"


def test_is_m_composition():
    assert is_m_composition(2, (0, 1))
    assert is_m_composition(2, (0, 1, 1, 0))
    assert not is_m_composition(2, ())  # empty
    assert not is_m_composition(2, (0, 0, 1, 0))  # leading zero run
    assert not is_m_composition(2, (1, 0, 0, 1))  # straddling zero run
    assert not is_m_composition(2, (0, 1, 1))  # bad length
    assert not is_m_composition(2, (0, -1))
    assert is_m_composition(1, (2,))
    assert not is_m_composition(1, (0,))


def test_enumerate_compositions():
    assert enumerate_compositions(2, 2) == [
        (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, 0),
    ]
    for c in enumerate_compositions(3, 3):
        assert is_m_composition(3, c)
        assert 1 <= sum(c) <= 3
    # complete: every valid word of each size appears
    want = sorted(
        c for size in (1, 2) for c in brute_compositions(2, size)
    )
    got = sorted(c for c in enumerate_compositions(2, 2))
    assert got == want


def brute_compositions(m, size):
    """All m-block words of exact entry sum `size`, by product filtering."""
    from itertools import product as iproduct

    out = []
    for blocks in range(1, size + 1):
        for c in iproduct(range(size + 1), repeat=m * blocks):
            if sum(c) == size and is_m_composition(m, c):
                out.append(c)
    return out
