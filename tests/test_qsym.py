import random
import sys
import tracemalloc

import pytest

from polyflip import (
    SizeGuardExceeded,
    SparsePoly,
    build_poset,
    enumerate_compositions,
    enumerate_dyck,
    expand,
    fundamental_qsym,
    fuss_catalan,
    poly_for_dissection,
    verify_basis_graded,
    weight,
    word_of_composition,
)
import polyflip.qsym as qsym
from polyflip.qsym import (
    _certify,
    _densify,
    _ideal_rows,
    annihilates,
    integer_matrix_rank,
    monomials_of_degree,
)
from oracles import dense_ideal_matrix, tuple_keyed_ideal_rows


def dense_rows(m, n, d):
    """The degree-d ideal rows, densified over the degree-d monomials."""
    monomials, rows = _ideal_rows(m, n, d)
    return monomials, _densify(rows, len(monomials))


def test_word_of_composition():
    assert word_of_composition(2, (1, 2)) == [(1, 1), (2, 1), (2, 1)]
    assert word_of_composition(2, (0, 2, 1, 0)) == [(2, 1), (2, 1), (1, 2)]
    assert word_of_composition(1, (3,)) == [(1, 1), (1, 1), (1, 1)]
    with pytest.raises(ValueError):
        word_of_composition(2, (0, 0, 1, 0))  # zero run of length m
    with pytest.raises(ValueError):
        word_of_composition(2, ())


def test_fundamental_qsym_single_block():
    f = fundamental_qsym(2, (0, 1), 2)
    assert f.terms == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1}  # y1 + y2
    f = fundamental_qsym(2, (1, 2), 3)
    assert len(f.terms) == 10  # weakly increasing triples in 1..3
    assert all(c == 1 for c in f.terms.values())
    assert all(sum(e) == 3 for e in f.terms)


def test_fundamental_qsym_two_blocks():
    f = fundamental_qsym(2, (0, 2, 1, 0), 3)
    assert f.terms == {
        (0, 2, 1, 0, 0, 0): 1,  # y1^2 x2
        (0, 2, 0, 0, 1, 0): 1,  # y1^2 x3
        (0, 1, 0, 1, 1, 0): 1,  # y1 y2 x3
        (0, 0, 0, 2, 1, 0): 1,  # y2^2 x3
    }


def test_fundamental_qsym_cache_survives_caller_mutation():
    f = fundamental_qsym(2, (0, 1), 2)
    f.terms.clear()
    assert fundamental_qsym(2, (0, 1), 2).terms == {
        (0, 1, 0, 0): 1,
        (0, 0, 0, 1): 1,
    }


def test_fundamental_qsym_too_many_blocks_is_zero():
    assert fundamental_qsym(2, (0, 1, 1, 0), 1) == SparsePoly.zero(2)


def test_monomials_of_degree():
    assert monomials_of_degree(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(0, 1) == []
    assert len(monomials_of_degree(4, 3)) == 20


def test_integer_matrix_rank():
    assert integer_matrix_rank([]) == 0
    assert integer_matrix_rank([[0, 0]]) == 0
    assert integer_matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert integer_matrix_rank([[2, 4], [1, 2]]) == 1
    assert integer_matrix_rank([[2, 0], [0, 3], [2, 3]]) == 2
    # big entries stay exact
    assert integer_matrix_rank([[10**20, 1], [10**20, 2]]) == 2


def test_ideal_matrix_guard():
    with pytest.raises(SizeGuardExceeded):
        verify_basis_graded(2, 2, max_columns=5)


def test_ideal_matrix_guard_carries_the_column_count():
    with pytest.raises(SizeGuardExceeded) as info:
        verify_basis_graded(2, 2, max_columns=5)
    assert info.value.counterexample == {"columns": 10, "max_columns": 5}


def test_column_cap_refuses_before_any_degree(monkeypatch):
    calls = []
    real = qsym._ideal_rows
    monkeypatch.setattr(
        qsym, "_ideal_rows", lambda *args: calls.append(args) or real(*args)
    )
    with pytest.raises(SizeGuardExceeded) as info:
        verify_basis_graded(2, 3, max_columns=20)
    assert calls == []
    # the top degree, 3 in 6 variables, has the most columns: C(8, 3)
    assert info.value.counterexample == {"columns": 56, "max_columns": 20}


def test_column_cap_admits_a_top_degree_at_the_cap():
    # (2, 2): degree 2 in 4 variables has C(5, 2) = 10 columns, the most
    report = verify_basis_graded(2, 2, max_columns=10)
    assert [row["monomials"] for row in report["degrees"]] == [1, 4, 10]


def test_verify_basis_graded_2_2():
    report = verify_basis_graded(2, 2)
    assert report["m"] == 2 and report["n"] == 2
    assert report["degrees"] == [
        {"degree": 0, "monomials": 1, "ideal_rank": 0, "admissible": 1},
        {"degree": 1, "monomials": 4, "ideal_rank": 2, "admissible": 2},
        {"degree": 2, "monomials": 10, "ideal_rank": 10, "admissible": 0},
    ]


def test_verify_basis_graded_1_3():
    report = verify_basis_graded(1, 3)
    assert report["degrees"] == [
        {"degree": 0, "monomials": 1, "ideal_rank": 0, "admissible": 1},
        {"degree": 1, "monomials": 3, "ideal_rank": 1, "admissible": 2},
        {"degree": 2, "monomials": 6, "ideal_rank": 4, "admissible": 2},
        {"degree": 3, "monomials": 10, "ideal_rank": 10, "admissible": 0},
    ]


@pytest.mark.parametrize("m,n", [(1, 2), (1, 4), (2, 3), (3, 2)])
def test_verify_basis_graded_structure(m, n):
    report = verify_basis_graded(m, n)
    table = report["degrees"]
    assert [row["degree"] for row in table] == list(range(n + 1))
    # admissible monomials across all degrees biject with dissections
    assert sum(row["admissible"] for row in table) == fuss_catalan(m, n)
    assert table[-1]["admissible"] == 0  # top degree n is all ideal
    assert table[-1]["ideal_rank"] == table[-1]["monomials"]
    for row in table:
        assert row["ideal_rank"] == row["monomials"] - row["admissible"]
    by_degree = {}
    for v in enumerate_dyck(m, n):
        by_degree[sum(v)] = by_degree.get(sum(v), 0) + 1
    for row in table:
        assert row["admissible"] == by_degree.get(row["degree"], 0)


def test_fundamental_multidegree_is_composition_weight():
    # every term of F_c carries the same per-letter degree vector, and
    # that vector is the weight of c
    for m in (1, 2, 3):
        for c in enumerate_compositions(m, 4):
            f = fundamental_qsym(m, c, 4)
            assert not f.is_zero()  # block count <= size <= n here
            target = weight(m, c)
            for e, coef in f.terms.items():
                assert coef == 1
                assert tuple(sum(e[r::m]) for r in range(m)) == target


def test_ideal_graded_matrix_pinned_ranks():
    monomials, rows = dense_rows(1, 2, 1)
    assert monomials == [(0, 1), (1, 0)]
    assert [1, 1] in rows  # x1 + x2, the single linear generator
    assert integer_matrix_rank(rows) == 1

    _, rows = dense_rows(1, 2, 2)
    assert integer_matrix_rank(rows) == 3  # degree 2 is all ideal

    # degree 1 always holds exactly the m independent linear generators
    for m, n in ((1, 3), (2, 2), (2, 3), (3, 2)):
        _, rows = dense_rows(m, n, 1)
        assert integer_matrix_rank(rows) == m


def test_rank_is_row_order_invariant():
    rng = random.Random(1031)
    for m, n, d in ((1, 3, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2)):
        _, rows = dense_rows(m, n, d)
        base = integer_matrix_rank(rows)
        assert integer_matrix_rank(list(reversed(rows))) == base
        for _ in range(3):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert integer_matrix_rank(shuffled) == base


def admissible_by_degree(m, n):
    by_degree = {}
    for v in enumerate_dyck(m, n):
        by_degree.setdefault(sum(v), []).append(v)
    return by_degree


def count_exact_ranks(monkeypatch):
    calls = []
    exact = qsym.integer_matrix_rank

    def counted(rows):
        calls.append(len(rows))
        return exact(rows)

    monkeypatch.setattr(qsym, "integer_matrix_rank", counted)
    return calls


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 2), (2, 4)])
def test_certificate_matches_exact_rank(m, n):
    by_degree = admissible_by_degree(m, n)
    for d in range(n + 1):
        monomials, rows = _ideal_rows(m, n, d)
        admissible = by_degree.get(d, [])
        witness = _certify(monomials, rows, admissible)
        assert witness is not None
        rows = _densify(rows, len(monomials))
        assert len(monomials) - len(witness) == integer_matrix_rank(rows)
        # the witness, re-checked on the dense rows: an integer functional
        # per admissible monomial, diagonal on the admissible columns
        cols = [monomials.index(v) for v in admissible]
        for lam, own in zip(witness, cols):
            assert all(isinstance(x, int) for x in lam.values())
            assert [lam.get(c, 0) != 0 for c in cols] == [c == own for c in cols]
            for row in rows:
                assert sum(row[c] * x for c, x in lam.items()) == 0


# with (1, 7), at about 1 s, these are the largest sizes under the column cap
@pytest.mark.parametrize(
    "m,n", [(2, 4), (3, 3), (4, 3), (1, 6), (2, 5), (3, 4), (4, 4), (5, 3)]
)
def test_verify_basis_graded_larger_sizes(m, n, monkeypatch):
    calls = count_exact_ranks(monkeypatch)
    table = verify_basis_graded(m, n)["degrees"]
    assert calls == []  # every degree closed by its certificate
    assert sum(row["admissible"] for row in table) == fuss_catalan(m, n)
    assert table[-1]["ideal_rank"] == table[-1]["monomials"]
    for row in table:
        assert row["ideal_rank"] == row["monomials"] - row["admissible"]


def test_small_prime_falls_back_to_exact_rank(monkeypatch):
    expected = {mn: verify_basis_graded(*mn) for mn in ((2, 2), (1, 4))}
    calls = count_exact_ranks(monkeypatch)
    monkeypatch.setattr(qsym, "PRIME", 2)
    for mn, report in expected.items():
        assert verify_basis_graded(*mn) == report
    assert calls  # some degree did not close mod 2 and was decided exactly


def test_certificate_rejects_false_claims():
    monomials = [(0,), (1,), (2,)]  # three stand-in columns
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    witness = _certify(monomials, rows, [(2,)])
    assert witness == [{2: 1, 1: -1, 0: 1}]
    assert annihilates(rows, witness)
    assert not annihilates(rows, [{2: 1, 1: -1, 0: 2}])
    # claims the rows do not meet: rank short, a pivot on the admissible
    # column, and a repeated admissible monomial
    assert _certify(monomials, rows, []) is None
    assert _certify(monomials, [{0: 1, 1: 1}, {2: 1}], [(2,)]) is None
    assert _certify(monomials, rows, [(2,), (2,)]) is None


def test_certificate_checks_its_witness_over_z(monkeypatch):
    # a reconstruction that lies must be caught by the check over Z
    monkeypatch.setattr(qsym, "_rational", lambda u, p: (2, 1))
    monomials = [(0,), (1,), (2,)]
    assert _certify(monomials, [{0: 1, 1: 1}, {1: 1, 2: 1}], [(2,)]) is None


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 2), (2, 4)])
def test_ideal_graded_matrix_matches_the_dense_oracle(m, n):
    for d in range(n + 1):
        assert dense_rows(m, n, d) == dense_ideal_matrix(m, n, d)


@pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (4, 3)])
def test_certified_degrees_build_no_dense_row(m, n, monkeypatch):
    def dense(*args):
        raise AssertionError("a dense row was built on the success path")

    monkeypatch.setattr(qsym, "_densify", dense)
    calls = count_exact_ranks(monkeypatch)
    table = verify_basis_graded(m, n)["degrees"]
    assert calls == []
    assert sum(row["admissible"] for row in table) == fuss_catalan(m, n)


def test_certified_degrees_stay_below_the_dense_rows():
    _, rows = dense_ideal_matrix(2, 4, 4)
    dense_bytes = sum(map(sys.getsizeof, rows))
    del rows
    tracemalloc.start()
    try:
        verify_basis_graded(2, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 2


def test_annihilates_matches_the_all_rows_definition():
    rng = random.Random(2029)
    for _ in range(200):
        ncols = rng.randint(1, 12)

        def sparse(columns, most, size):
            support = rng.sample(range(columns), rng.randint(0, min(most, columns)))
            return {c: rng.randint(-size, size) for c in support}

        rows = [sparse(ncols, 4, 3) for _ in range(rng.randint(0, 6))]
        # functionals reach past the rows' columns, so some meet no row
        witness = [sparse(ncols + 4, 3, 2) for _ in range(rng.randint(0, 3))]
        expected = all(
            sum(x * lam.get(c, 0) for c, x in row.items()) == 0
            for lam in witness
            for row in rows
        )
        assert annihilates(rows, witness) == expected
    assert annihilates([{}, {0: 5}], [{1: 7}])  # an empty row, a disjoint support
    assert not annihilates([{}, {0: 5, 1: 1}], [{1: 7}])


def record_calls(monkeypatch, name):
    """The nonzero counts of the rows each call of qsym.`name` is handed."""
    counts = []
    real = getattr(qsym, name)

    def recorded(rows, *args):
        counts.append([len(row) for row in rows])
        return real(rows, *args)

    monkeypatch.setattr(qsym, name, recorded)
    return counts


@pytest.mark.parametrize("prime", [qsym.PRIME, 2])
def test_elimination_takes_the_sparsest_rows_first(prime, monkeypatch):
    expected = {mn: verify_basis_graded(*mn) for mn in ((2, 3), (1, 4))}
    offered = record_calls(monkeypatch, "_select_mod2")
    eliminated = record_calls(monkeypatch, "_eliminate")
    exact = count_exact_ranks(monkeypatch)
    monkeypatch.setattr(qsym, "PRIME", prime)
    for (m, n), report in expected.items():
        offered.clear()
        eliminated.clear()
        assert verify_basis_graded(m, n) == report
        built = [
            sorted(map(len, _ideal_rows(m, n, d)[1]))
            for d in range(n + 1)
        ]
        assert offered == built  # every row, in nondecreasing nonzero count
        # mod p only the rows selected mod 2, still sparsest first, and
        # only at the degrees that have admissible monomials
        selected = [row["ideal_rank"] for row in report["degrees"] if row["admissible"]]
        assert list(map(len, eliminated)) == selected
        assert all(counts == sorted(counts) for counts in eliminated)
    assert bool(exact) == (prime == 2)  # mod 2 some degree falls back


def test_rows_short_mod_2_fall_back_to_exact_rank(monkeypatch):
    # full rank over Q, rank 0 mod 2: undecided, not refuted
    assert _certify([(0,)], [{0: 2}], []) is None
    assert integer_matrix_rank(_densify([{0: 2}], 1)) == 1
    expected = {mn: verify_basis_graded(*mn) for mn in ((2, 2), (1, 4))}
    real = qsym._ideal_rows

    def doubled(*args):
        monomials, rows = real(*args)
        return monomials, [{c: 2 * x for c, x in row.items()} for row in rows]

    monkeypatch.setattr(qsym, "_ideal_rows", doubled)
    calls = count_exact_ranks(monkeypatch)
    for mn, report in expected.items():
        assert verify_basis_graded(*mn) == report
    # every degree but 0, which has no rows, is decided exactly: the ideal
    # rank, then the rank with the unit rows
    assert len(calls) == 2 * (2 + 4)


def test_a_lead_mod_2_on_an_admissible_column_is_undecided(monkeypatch):
    monomials = [(0,), (1,), (2,)]
    rows = [{0: 2, 2: 1}, {1: 1}]
    # over Q the claim holds: rank 2, and e_2 completes it (determinant 2)
    dense = _densify(rows, 3)
    assert integer_matrix_rank(dense) == 2
    assert integer_matrix_rank(dense + [[0, 0, 1]]) == 3

    def eliminate(*args):
        raise AssertionError("eliminated mod p after the selection failed")

    monkeypatch.setattr(qsym, "_eliminate", eliminate)
    # mod 2 the first row is e_2, a lead on the admissible column
    assert _certify(monomials, rows, [(2,)]) is None
    # the selection stops at such a lead, though later rows would complete it
    assert qsym._select_mod2([{2: 1}, {0: 1}, {1: 1}], {0: 0, 1: 1, 2: 2}, 2) is None


def test_selected_rows_short_mod_p_are_undecided(monkeypatch):
    p = qsym.PRIME
    monomials = [(0,), (1,), (2,)]
    # determinant p: odd, so mod 2 both rows are selected, but mod p the
    # second reduces to zero
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + p}]
    dense = _densify(rows, 3)
    assert integer_matrix_rank(dense) == 2
    assert integer_matrix_rank(dense + [[0, 0, 1]]) == 3
    selections = []
    select = qsym._select_mod2

    def recorded(*args):
        selections.append(select(*args))
        return selections[-1]

    monkeypatch.setattr(qsym, "_select_mod2", recorded)
    assert _certify(monomials, rows, [(2,)]) is None
    assert selections == [rows]


@pytest.mark.parametrize("m,n", [(1, 5), (2, 4), (3, 3), (4, 3)])
def test_packed_rows_match_the_tuple_keyed_oracle(m, n):
    for d in range(n + 1):
        assert _ideal_rows(m, n, d) == tuple_keyed_ideal_rows(m, n, d)


def test_certificate_drops_entries_that_vanish_mod_p():
    monomials = [(0,), (1,), (2,)]
    p = qsym.PRIME
    # mod p the first row is (0, 1, 0), and the second then pivots on the
    # admissible column: undecided, not a failed reduction
    assert _certify(monomials, [{0: p, 1: 1}, {1: 1, 2: 1}], [(2,)]) is None
    assert _certify(monomials, [{0: 1}, {0: p, 1: 1}], [(2,)]) == [{2: 1}]


def test_rank_1_binomials_of_2_4_span_an_ideal_vector():
    """A pinned fact for ROADMAP item 4, not a claim the package makes.

    At (2, 4) in degree 1 the six rank-1 P_Q are the edges of two paths,
    on x1, y2, x3, y4 and on y1, x2, y3, x4, so they span the vectors whose
    coefficients add up to 0 on each path.  The sum of x's less the sum of
    y's is such a vector and lies in I_1, spanned by the sum of the x's
    and the sum of the y's: with the two ideal rows the P_Q reach rank 7
    of 8, not 8, so in this degree they are no basis of R_1 / I_1 under
    the package's conventions.
    """
    rank_1 = [q for q in build_poset(2, 4).elements if q.rank == 1]
    polys = [poly_for_dissection(q) for q in rank_1]
    assert [p.text() for p in polys] == [
        "(x4-y3)", "(y4-x3)", "(x3-y2)", "(y3-x2)", "(x2-y1)", "(y2-x1)"
    ]
    monomials, ideal = dense_rows(2, 4, 1)
    assert len(monomials) == 8 and len(ideal) == 2
    pq = [[expand(p).terms.get(e, 0) for e in monomials] for p in polys]
    assert integer_matrix_rank(pq) == 6
    assert integer_matrix_rank(pq + ideal) == 7
