from types import MappingProxyType

import pytest

from polyflip import (
    BinomialFactor,
    Dissection,
    EmptyCrossing,
    FactoredPoly,
    Monomial,
    SparsePoly,
    Variable,
    binomial_for_diagonal,
    build_poset,
    divides,
    enumerate_dissections,
    exact_quotient,
    expand,
    involution_image,
    leading_monomial,
    make_q0,
    phi,
    poly_for_dissection,
    reflect,
)
from polyflip.polynomials import (
    _factor_rows,
    _factor_table,
    _factor_text,
    _power_at,
    letter_name,
    variable_at_position,
)

from oracles import candidate_chords, closure_from_covers, expand_by_tuples

EXAMPLE_Q = Dissection.new(2, 7, ((0, 11), (2, 11), (4, 11), (6, 11), (7, 10), (12, 15)))


def test_variable_names_and_positions():
    assert Variable(1, 2).name == "x2"
    assert Variable(2, 7).name == "y7"
    assert Variable(3, 1).name == "z1"
    assert letter_name(9) == "L9"
    for m in (1, 2, 3):
        for pos in range(1, 13):
            assert variable_at_position(m, pos).position(m) == pos


def test_binomial_for_diagonal():
    assert binomial_for_diagonal(2, 3, (0, 3)) is None
    f = binomial_for_diagonal(2, 2, (1, 4))
    assert f == BinomialFactor(high=Variable(1, 2), low=Variable(2, 1))
    f = binomial_for_diagonal(2, 2, (2, 5))
    assert f == BinomialFactor(high=Variable(2, 2), low=Variable(1, 1))
    with pytest.raises(EmptyCrossing):
        binomial_for_diagonal(1, 3, (1, 2))


def test_poly_examples():
    assert poly_for_dissection(make_q0(2, 4)).text() == "1"
    assert poly_for_dissection(Dissection.new(2, 2, ((1, 4),))).text() == "(x2-y1)"
    assert poly_for_dissection(Dissection.new(2, 2, ((2, 5),))).text() == "(y2-x1)"
    assert poly_for_dissection(EXAMPLE_Q).text() == "(x5-y4)(y5-x3)(y5-x2)(y5-x1)(y7-x6)"


def test_factor_count_is_rank():
    for q in enumerate_dissections(2, 3) + enumerate_dissections(3, 2):
        assert len(poly_for_dissection(q).factors) == q.rank


def test_leading_monomial_worked_example():
    lm = leading_monomial(poly_for_dissection(EXAMPLE_Q))
    assert lm.text() == "x5 y5^3 y7"
    assert lm.exponents == (0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 1)
    assert lm.degree == EXAMPLE_Q.rank == 5


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 2)])
def test_leading_monomial_is_lex_max_with_unit_coefficient(m, n):
    for q in enumerate_dissections(m, n):
        p = poly_for_dissection(q)
        full = expand(p)
        lead = full.leading_exponent()
        assert lead == leading_monomial(p).exponents
        assert full.terms[lead] == 1


def test_expand_hexagon():
    p = poly_for_dissection(Dissection.new(2, 2, ((1, 4),)))
    # x2 - y1 over variables (x1, y1, x2, y2)
    assert expand(p).terms == {(0, 0, 1, 0): 1, (0, 1, 0, 0): -1}
    assert expand(poly_for_dissection(make_q0(2, 2))) == SparsePoly.one(4)


@pytest.mark.parametrize("m,n", [(1, 5), (2, 4), (3, 3)])
def test_packed_expansion_is_the_tuple_product(m, n):
    for q in enumerate_dissections(m, n):
        p = poly_for_dissection(q)
        assert expand(p) == expand_by_tuples(p)


def test_expand_drops_cancelled_terms():
    # the Vandermonde product (x2 - x1)(x3 - x1)(x3 - x2): 8 products of
    # one side each, x1 x2 x3 twice with opposite signs, so 6 terms
    x1, x2, x3 = (Variable(1, k) for k in (1, 2, 3))
    factors = (BinomialFactor(x2, x1), BinomialFactor(x3, x1), BinomialFactor(x3, x2))
    p = FactoredPoly(1, 3, factors)
    assert len(expand(p).terms) == 6 and (1, 1, 1) not in expand(p).terms
    assert expand(p) == expand_by_tuples(p)


def test_expand_refuses_exponents_past_a_byte():
    # (x2 - x1)^255 has every exponent 0..255 in each byte; one more
    # factor would carry
    x1, x2 = Variable(1, 1), Variable(1, 2)
    full = FactoredPoly(1, 2, (BinomialFactor(x2, x1),) * 255)
    assert expand(full) == expand_by_tuples(full)
    with pytest.raises(ValueError, match="256 factors overflow a byte"):
        expand(FactoredPoly(1, 2, full.factors + full.factors[:1]))


def test_divides():
    q0 = make_q0(2, 3)
    top = Dissection.new(2, 3, ((1, 4), (4, 7)))
    mid = Dissection.new(2, 3, ((0, 3), (4, 7)))
    p0, pm, pt = (poly_for_dissection(q) for q in (q0, mid, top))
    assert divides(p0, pt) and divides(pm, pt) and divides(pt, pt)
    assert not divides(pt, pm)
    a = poly_for_dissection(Dissection.new(2, 2, ((1, 4),)))
    b = poly_for_dissection(Dissection.new(2, 2, ((2, 5),)))
    assert not divides(a, b) and not divides(b, a)


@pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (3, 2), (2, 4)])
def test_divides_is_the_closure_of_the_flip_covers(m, n):
    # The divisibility suite's theorem, on every pair, against plain DFS.
    poset = build_poset(m, n)
    above = closure_from_covers(len(poset.elements), poset.covers_up)
    polys = [poly_for_dissection(q) for q in poset.elements]
    for i, p in enumerate(polys):
        assert {j for j, q in enumerate(polys) if divides(p, q)} == above[i]


def test_divides_counts_repeated_factors():
    f = BinomialFactor(Variable(1, 2), Variable(1, 1))
    g = BinomialFactor(Variable(1, 3), Variable(1, 1))
    polys = [
        FactoredPoly.new(1, 3, factors)
        for factors in ([], [f], [f, f], [f, g], [f, f, g], [g, g], [f, f, f])
    ]

    def multiples(i):
        return [j for j, q in enumerate(polys) if divides(polys[i], q)]

    assert multiples(2) == [2, 4, 6]  # f^2 divides f^2, f^2 g and f^3 only
    assert multiples(5) == [5]  # g^2 divides itself, not f g or f^2 g


def test_exact_quotient_agrees_with_factor_division():
    p = poly_for_dissection(EXAMPLE_Q)
    whole = expand(p)
    front = FactoredPoly.new(2, 7, p.factors[:2])
    back = FactoredPoly.new(2, 7, p.factors[2:])
    assert exact_quotient(whole, expand(front)) == expand(back)
    # a factor not in the product gives None
    absent = FactoredPoly.new(2, 7, [BinomialFactor(Variable(1, 2), Variable(2, 1))])
    assert exact_quotient(whole, expand(absent)) is None
    with pytest.raises(ZeroDivisionError):
        exact_quotient(whole, SparsePoly.zero(whole.nvars))


def test_involution_mirrors_reflection():
    for q in enumerate_dissections(2, 3) + enumerate_dissections(3, 2):
        p = poly_for_dissection(q)
        image, sign = involution_image(p)
        assert sign == (-1) ** q.rank
        assert image == poly_for_dissection(reflect(q))
    # letters below m swap with their complement, blocks reverse
    p = poly_for_dissection(Dissection.new(3, 2, ((1, 5),)))
    image, sign = involution_image(p)
    assert sign == -1
    assert image.text() == poly_for_dissection(reflect(Dissection.new(3, 2, ((1, 5),)))).text()


def test_factored_poly_json():
    p = poly_for_dissection(Dissection.new(2, 2, ((1, 4),)))
    assert p.to_json() == {"m": 2, "n": 2, "factors": [[[1, 2], [2, 1]]]}


def test_sparse_poly_algebra():
    x = SparsePoly(2, {(1, 0): 1})
    y = SparsePoly(2, {(0, 1): 1})
    assert (x + y) * (x - y) == x * x - y * y
    assert (x - x).is_zero()
    assert hash(x + y) == hash(y + x)
    assert SparsePoly(2, {(0, 0): 0}).is_zero()  # zero coefficients dropped
    with pytest.raises(ValueError):
        SparsePoly.zero(2).leading_exponent()


def test_monomial_lex_key_orders_by_last_position():
    a = Monomial(2, (0, 2, 0, 0))
    b = Monomial(2, (5, 0, 0, 1))
    assert a.lex_key() < b.lex_key()  # later positions dominate


def _immutable(value) -> bool:
    # an int or str, or a tuple (NamedTuples included) of immutable values
    if isinstance(value, tuple):
        return all(map(_immutable, value))
    return type(value) in (int, str)


@pytest.mark.parametrize(
    "m,n", [(m, n) for m in (1, 2, 3) for n in range(1, 10) if m * n <= 9]
)
def test_memoized_factor_is_the_definition(m, n):
    # the order's factor table holds each non-apex chord spanning 1 mod m,
    # and its row is the definition's factor; any other chord's row is
    # computed as the definition has it, or raises as it does
    table = _factor_table(m, n)
    assert type(table) is MappingProxyType and _factor_table(m, n) is table
    assert all(_immutable(row) for row in table.values())
    assert set(table) == {d for d in candidate_chords(m, n) if d[0]}
    for a in range(m * n + 1):
        for b in range(a + 2, m * n + 2):
            lone = Dissection(m, n, ((a, b),))
            try:
                want = binomial_for_diagonal(m, n, (a, b))
            except EmptyCrossing:
                assert (a, b) not in table
                with pytest.raises(EmptyCrossing):
                    _factor_rows(lone)
                continue
            if want is None:
                assert (a, b) not in table and _factor_rows(lone) == []
                continue
            (row,) = _factor_rows(lone)
            if (a, b) in table:
                assert table[(a, b)] is row  # served from the table
            key, factor, text, lead = row
            assert factor == want and type(factor) is BinomialFactor
            assert text == _factor_text(factor) == f"({factor.high.name}-{factor.low.name})"
            assert lead == b - 2 == want.high.position(m) - 1
            # the key orders factors as FactoredPoly.new does
            assert divmod(key + m * n, m * n + 1) == (
                want.high.position(m),
                m * n - want.low.position(m),
            )
    for pos in range(1, m * n + 1):
        name = variable_at_position(m, pos).name
        assert (_power_at(m, pos, 1), _power_at(m, pos, 2)) == (name, f"{name}^2")


def test_empty_crossing_raises_on_every_call():
    table = dict(_factor_table(1, 3))
    before = _factor_table.cache_info().currsize
    q = Dissection(1, 3, ((1, 2), (1, 3)))
    for _ in range(3):
        with pytest.raises(EmptyCrossing, match=r"\(1, 2\) crosses no fan diagonal"):
            poly_for_dissection(q)
    assert _factor_table.cache_info().currsize == before  # nothing was stored
    assert _factor_table(1, 3) == table and (1, 2) not in table


def test_a_dissection_past_the_guard_reads_no_factor_table():
    # one large dissection's rows are computed chord by chord, as the
    # definition has them: its order gets no O((mn)^2) table
    n = 2000
    q = Dissection.new(1, n, [(k, n + 1) for k in range(1, n)])
    misses = _factor_table.cache_info().misses
    p = poly_for_dissection(q)
    assert p == FactoredPoly.new(1, n, [binomial_for_diagonal(1, n, d) for d in q.diagonals])
    assert phi(q) == leading_monomial(p).exponents
    assert _factor_table.cache_info().misses == misses
