"""Exact integer polynomials attached to dissections: binomial factors, their
products, leading monomials, divisibility, and the mirror involution.

Variables come in n blocks of m letters.  Block k contributes the variables
(letter 1, k) < (letter 2, k) < ... < (letter m, k) and whole blocks increase
with k, so the linear position of (letter r, block k) is m*(k-1) + r.
Monomials compare lexicographically with respect to the LAST differing
position; products of the canonical binomials then have the product of the
high variables as leading term, with coefficient +1.

Divisibility is factor-multiset inclusion (`divides`), one pair at a time;
`verify.suite_divisibility` proves it is the flip order without all pairs.

One factor table per order (`_factor_table`, an `lru_cache` on (m, n)):
each non-apex chord of the order's chord table maps to its sort key, its
factor, the factor's text and its leading position, filled once for all
the order's O((mn)^2) chords, not memoized per diagonal.
`poly_for_dissection`, `bijection.phi` and the CLI's export rows read a
dissection's factors off it, one lookup per chord.  Only orders under the
enumeration guard (`DEFAULT_MAX_MN`) get a table; past it, and for a chord
the table lacks, a dissection's rows are computed, uncached, so one large
dissection costs time linear in its chords.  `leading_monomial` and
`FactoredPoly.text` share the rows' helpers (`_lead_vector`,
`_product_text`), so each result has one definition.
Each variable power's text and each factor's text are memoized too
(`lru_cache`, unbounded).  Every cached value is an immutable tuple,
NamedTuple or str, and the table is a read-only mapping, so nothing cached
can be mutated by a caller.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .dissections import DEFAULT_MAX_MN, Dissection, _chord_table, vertex_label
from .errors import EmptyCrossing

LETTER_NAMES = "xyzwvuts"


def letter_name(r: int) -> str:
    return LETTER_NAMES[r - 1] if r <= len(LETTER_NAMES) else f"L{r}"


class Variable(NamedTuple):
    letter: int  # 1..m
    index: int  # block, 1..n

    def position(self, m: int) -> int:
        return m * (self.index - 1) + self.letter

    @property
    def name(self) -> str:
        return f"{letter_name(self.letter)}{self.index}"


def variable_at_position(m: int, pos: int) -> Variable:
    return Variable((pos - 1) % m + 1, (pos - 1) // m + 1)


@lru_cache(maxsize=None)
def _power_at(m: int, pos: int, e: int) -> str:
    # The text of the variable at pos to the power e >= 1.
    name = variable_at_position(m, pos).name
    return name if e == 1 else f"{name}^{e}"


class BinomialFactor(NamedTuple):
    """high - low; canonical orientation puts the strictly larger block on
    the high side."""

    high: Variable
    low: Variable


@lru_cache(maxsize=None)
def _factor_text(f: BinomialFactor) -> str:
    return f"({f.high.name}-{f.low.name})"


@dataclass(frozen=True)
class Monomial:
    """A monomial as its exponent vector over the m*n position-ordered
    variables; the exponent vector is literally the m-vector of the
    correspondence with Dyck vectors."""

    m: int
    exponents: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def lex_key(self) -> tuple[int, ...]:
        # last-position-first comparison
        return tuple(reversed(self.exponents))

    def text(self) -> str:
        return _monomial_text(self.m, self.exponents)


def _monomial_text(m: int, exponents) -> str:
    # `Monomial.text` of an exponent vector.
    powers = [_power_at(m, pos, e) for pos, e in enumerate(exponents, 1) if e]
    return " ".join(powers) or "1"


@dataclass(frozen=True)
class FactoredPoly:
    """Product of canonically oriented binomial factors.  Fan diagonals
    contribute the unit and are omitted, so len(factors) is the rank."""

    m: int
    n: int
    factors: tuple[BinomialFactor, ...]

    @classmethod
    def new(cls, m: int, n: int, factors) -> "FactoredPoly":
        ordered = tuple(
            sorted(factors, key=lambda f: (f.high.position(m), -f.low.position(m)))
        )
        return cls(m, n, ordered)

    def text(self) -> str:
        return _product_text(map(_factor_text, self.factors))

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "factors": [
                [[f.high.letter, f.high.index], [f.low.letter, f.low.index]]
                for f in self.factors
            ],
        }


def binomial_for_diagonal(m: int, n: int, d) -> BinomialFactor | None:
    """The factor of one diagonal; None (the unit) for fan diagonals.

    A diagonal (a, b) with a >= 1 crosses the consecutive fan diagonals
    i..j; its factor is (letter of b)_{j+1} - (letter of a)_i.
    """
    a, b = d
    if a == 0:
        return None
    i = (a - 1) // m + 1  # first k with m*k+1 > a
    j = (b - 2) // m  # last k with m*k+1 < b
    if i > j:
        raise EmptyCrossing(f"diagonal {d} crosses no fan diagonal")
    return BinomialFactor(
        high=Variable(vertex_label(m, b), j + 1),
        low=Variable(vertex_label(m, a), i),
    )


class _FactorRow(NamedTuple):
    """One chord's row of a factor table."""

    key: int  # (high position, -low position) folded: `FactoredPoly.new`'s order
    factor: BinomialFactor
    text: str  # the factor's text
    lead: int  # the high variable's position less 1, b - 2 for chord (a, b)


def _factor_row(m: int, n: int, d) -> _FactorRow:
    # Raises EmptyCrossing when the non-apex chord d has no factor.
    f = binomial_for_diagonal(m, n, d)
    high = f.high.position(m)
    return _FactorRow(high * (m * n + 1) - f.low.position(m), f, _factor_text(f), high - 1)


@lru_cache(maxsize=None)
def _factor_table(m: int, n: int) -> MappingProxyType:
    """Each non-apex chord of the order's chord table
    (`dissections._chord_table`) -> its `_FactorRow`.  Private, so a tracer
    that wraps the public functions does not wrap a per-chord lookup."""
    chords = _chord_table(m, n).values()
    return MappingProxyType({d: _factor_row(m, n, d) for d in chords if d[0]})


def _factor_rows(q: Dissection) -> list[_FactorRow]:
    """The rows of q's non-apex chords, one per factor of P_Q, in q's
    order; sorted, they are in `FactoredPoly.new`'s (equal keys are equal
    factors).  Only an order under the enumeration guard reads a table;
    past it, and for a chord the table lacks, each row is computed, and
    raises EmptyCrossing as `binomial_for_diagonal` does."""
    m, n = q.m, q.n
    table = _factor_table(m, n) if m * n <= DEFAULT_MAX_MN else {}
    try:
        return [table[d] for d in q.diagonals if d[0]]  # fan: the unit
    except KeyError:
        return [table.get(d) or _factor_row(m, n, d) for d in q.diagonals if d[0]]


def _product_text(texts) -> str:
    # The text of a product, from its factors' texts in order.
    return "".join(texts) or "1"


def _lead_vector(m: int, n: int, leads) -> tuple[int, ...]:
    """The exponents of the leading monomial of a product of factors, from
    their high variables' positions less 1: one count per factor."""
    exps = [0] * (m * n)
    for i in leads:
        exps[i] += 1
    return tuple(exps)


def poly_for_dissection(q: Dissection) -> FactoredPoly:
    """Product of the binomial factors over all diagonals of q."""
    rows = _factor_rows(q)
    rows.sort()
    return FactoredPoly(q.m, q.n, tuple([r.factor for r in rows]))


def leading_monomial(p: FactoredPoly) -> Monomial:
    """Product of the high variables; equals the lex-largest expanded term
    because every factor's high side beats its low side positionwise."""
    m = p.m
    return Monomial(m, _lead_vector(m, p.n, [f.high.position(m) - 1 for f in p.factors]))


def divides(p: FactoredPoly, q: FactoredPoly) -> bool:
    """Whether p divides q, as inclusion of factor multisets.

    The binomial factors are pairwise non-associate irreducibles, so
    multiset inclusion coincides with exact polynomial division (the sparse
    long-division oracle `exact_quotient` cross-checks this).
    """
    held = set(p.factors)
    if len(held) == len(p.factors):  # no repeated factor: set inclusion
        return held.issubset(q.factors)
    return not (Counter(p.factors) - Counter(q.factors))


def involution_image(p: FactoredPoly) -> tuple[FactoredPoly, int]:
    """Image under the mirror substitution and the accompanying sign.

    Letters 1..m-1 reverse, the last letter stays, blocks reverse
    (k -> n+1-k).  The substitution swaps each factor's sides, so restoring
    the canonical orientation costs one sign per factor.
    """

    def sub(v: Variable) -> Variable:
        letter = v.letter if v.letter == p.m else p.m - v.letter
        return Variable(letter, p.n + 1 - v.index)

    factors = [BinomialFactor(high=sub(f.low), low=sub(f.high)) for f in p.factors]
    return FactoredPoly.new(p.m, p.n, factors), (-1) ** len(factors)


class SparsePoly:
    """Sparse integer polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for e, c in items:
                if c:
                    e = tuple(e)
                    acc = self.terms.get(e, 0) + c
                    if acc:
                        self.terms[e] = acc
                    else:
                        self.terms.pop(e, None)

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e, 0) + c
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        res = SparsePoly(self.nvars)
        res.terms = out
        return res

    def __neg__(self):
        res = SparsePoly(self.nvars)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(e, 0) + c1 * c2
                if acc:
                    out[e] = acc
                else:
                    out.pop(e, None)
        res = SparsePoly(self.nvars)
        res.terms = out
        return res

    def leading_exponent(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return max(self.terms, key=lambda e: tuple(reversed(e)))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(
            self.terms.items(), key=lambda t: tuple(reversed(t[0])), reverse=True
        )

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {dict(self.sorted_terms())})"


def expand(p: FactoredPoly) -> SparsePoly:
    """Multiply the binomial factors out, each monomial held packed as
    `qsym._pack` packs it, one byte per variable: no exponent exceeds the
    number of factors, so below 256 of them no byte carries."""
    m, nv = p.m, p.m * p.n
    if len(p.factors) > 255:
        raise ValueError(f"{len(p.factors)} factors overflow a byte per exponent")
    terms = {0: 1}
    for f in p.factors:
        hi = 1 << 8 * (nv - f.high.position(m))
        lo = 1 << 8 * (nv - f.low.position(m))
        out: dict[int, int] = {}
        for e, c in terms.items():
            out[e + hi] = out.get(e + hi, 0) + c
            out[e + lo] = out.get(e + lo, 0) - c
        terms = {e: c for e, c in out.items() if c}
    poly = SparsePoly(nv)
    poly.terms = {tuple(e.to_bytes(nv, "big")): c for e, c in terms.items()}
    return poly


def exact_quotient(numer: SparsePoly, denom: SparsePoly) -> SparsePoly | None:
    """numer / denom by lex long division; None unless the division is exact.

    Correct as an exact-divisibility test for a single divisor: whenever
    denom | numer, the leading term of denom divides the leading term of
    every intermediate remainder.
    """
    if denom.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    de = denom.leading_exponent()
    dc = denom.terms[de]
    rem = dict(numer.terms)
    quot: dict[tuple[int, ...], int] = {}
    while rem:
        ne = max(rem, key=lambda e: tuple(reversed(e)))
        nc = rem[ne]
        diff = tuple(a - b for a, b in zip(ne, de))
        if any(x < 0 for x in diff) or nc % dc:
            return None
        c = nc // dc
        quot[diff] = c
        for e2, c2 in denom.terms.items():
            key = tuple(a + b for a, b in zip(diff, e2))
            acc = rem.get(key, 0) - c * c2
            if acc:
                rem[key] = acc
            else:
                rem.pop(key, None)
    return SparsePoly(numer.nvars, quot)
