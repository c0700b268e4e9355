"""Named verification suites over one (m, n), reported uniformly.

Each suite re-derives a family of claims exactly (no floats, no sampling
except the documented division spot-checks) and reports pass/fail with a
counterexample payload when one exists.  The CLI prints the reports as
JSON; timing stays out of the JSON so output is byte-stable.
"""

import random
import time
from collections import Counter
from dataclasses import dataclass

from .bijection import phi, psi
from .dissections import (
    DEFAULT_MAX_MN,
    _block_gaps,
    _mirror,
    check_size_guard,
    enumerate_dissections,
    is_final,
    validate,
)
from .dyck import enumerate_dyck
from .errors import PolyflipError, SizeGuardExceeded, VerificationFailure
from .polynomials import (
    BinomialFactor,
    FactoredPoly,
    binomial_for_diagonal,
    divides,
    exact_quotient,
    expand,
    involution_image,
    poly_for_dissection,
)
from .poset import (
    _order,
    _reached,
    cover_count_check,
    expected_maximal_chain_count,
    inclusion_check,
    interval_structure,
    is_lattice,
    maximal_chain_count,
    mobius,
)
from .qsym import DEFAULT_MAX_COLUMNS, _check_columns, verify_basis_graded
from .series import (
    fuss_catalan,
    rank_polynomial,
    residuals_vanish,
    series_F,
    series_G,
    series_I,
    series_T,
)

SERIES_ORDER = 8
DIVISION_SAMPLES = 120
INTERVAL_SUITE_MAX_MN = 10


@dataclass
class VerificationReport:
    suite: str
    m: int
    n: int
    passed: bool
    counterexample: object = None
    detail: str | None = None
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "m": self.m,
            "n": self.n,
            "pass": self.passed,
            "counterexample": self.counterexample,
            "detail": self.detail,
        }


def _run(suite: str, m: int, n: int, check) -> VerificationReport:
    start = time.perf_counter()
    try:
        detail = check()
        report = VerificationReport(suite, m, n, True, None, detail)
    except SizeGuardExceeded:
        raise
    except PolyflipError as exc:
        detail = str(exc)
        if not isinstance(exc, VerificationFailure):
            detail = f"{type(exc).__name__}: {detail}"
        report = VerificationReport(suite, m, n, False, exc.counterexample, detail)
    report.seconds = time.perf_counter() - start
    return report


def _fail(message: str, counterexample=None):
    raise VerificationFailure(message, counterexample)


def _guard(suite: str, m: int, n: int, max_mn: int) -> None:
    """Refuse (m, n) for one suite before any of its work.

    Each suite's guard is stated here once; `run_suite("all")` checks every
    suite's before the first one runs, so no report is thrown away.  Every
    suite but series caps m*n at max_mn, and qsym also caps the columns of
    its top degree, the largest.  Series runs its brute-force parts only
    for small m*n, and caps m*n at max_mn only where it counts intervals,
    m*n <= INTERVAL_SUITE_MAX_MN; that refuses nothing that the poset
    suite's guard lets through.
    """
    if suite != "series" or m * n <= INTERVAL_SUITE_MAX_MN:
        check_size_guard(m, n, max_mn)
    if suite == "qsym":
        _check_columns(m * n, n, DEFAULT_MAX_COLUMNS)


def _interval_total(poset) -> int:
    """The intervals of an inclusion order holding every M-angulation, from
    its rank census.  Q's up-set is the M-angulations holding D(Q)
    (`inclusion_check`); those rank(Q) chords each close one (m+2)-gon
    cell of Q and leave the region around the apex, Q's other n - rank(Q)
    cells merged, with m*(n - rank(Q)) + 2 vertices: FC(m, n - rank(Q))
    M-angulations hold D(Q)."""
    census = Counter(poset.ranks)
    return sum(k * fuss_catalan(poset.m, poset.n - r) for r, k in census.items())


def suite_poset(m: int, n: int, max_mn: int = DEFAULT_MAX_MN) -> VerificationReport:
    """The order's shape, and the inclusion theorem its queries rely on.

    Beyond the element count, cover degrees, chain count and the rank
    census, the suite certifies that the order is inclusion of non-apex
    diagonal sets (`inclusion_check`), from facts local to each element:
    every cover adds exactly one such diagonal, so goes one rank up; no two
    elements share their non-apex diagonals; and each element's lower
    covers remove exactly its maximal non-apex diagonals.  The elements
    being every M-angulation (validated, distinct and Fuss-Catalan many),
    the descent lemma and the fan as unique minimum follow, corollaries in
    `inclusion_check` and not checked, and each up-set holds FC(m, n -
    rank) elements, so the rank census gives the interval count
    (`_interval_total`), which must be the I series'.
    Whether the whole order is a lattice is observed, not asserted; the
    covers settle it for every order with two maximal elements, so the
    suite builds no reachability table.
    """

    def check():
        _guard("poset", m, n, max_mn)
        poset = _order(m, n)
        for q in poset.elements:
            validate(q)  # the one validation of each element
        size = len(poset.elements)
        if size != fuss_catalan(m, n):
            _fail(f"{size} elements, expected {fuss_catalan(m, n)}")
        inclusion_check(poset)
        intervals = _interval_total(poset)
        expect = series_I(m, n).coefficient(n)
        if intervals != expect:
            _fail(f"up-sets hold {intervals} intervals, series says {expect}")
        cover_count_check(poset)
        chains = maximal_chain_count(poset)
        if chains != expected_maximal_chain_count(m, n):
            _fail(
                f"{chains} maximal chains, expected "
                f"{expected_maximal_chain_count(m, n)}"
            )
        census = Counter(poset.ranks)
        want = rank_polynomial(m, n)
        got = tuple(census.get(k, 0) for k in range(n))
        if got != want:
            _fail(f"rank census {got} != {want}")
        slice_n = series_G(m, n).coefficient(n)
        if tuple(slice_n.int_coeffs()) != want:
            _fail(f"rank series slice {slice_n.text()} != {want}")
        ambient, _ = is_lattice(poset)
        return f"ambient_lattice={ambient} (observed, not asserted)"

    return _run("poset", m, n, check)


def suite_bijection(m: int, n: int, max_mn: int = DEFAULT_MAX_MN) -> VerificationReport:
    """phi and psi are inverse bijections between the dissections and the
    admissible vectors, certified in one pass over the dissections.

    The vectors must be Fuss-Catalan many, psi(phi(q)) == q must hold for
    every dissection q, and the images phi(q) must be the vectors.  psi
    after phi being the identity makes phi injective, and the image check
    makes it onto, so each vector v is some phi(q), and phi(psi(v)) =
    phi(q) = v: psi runs on every vector, as an image, and the vectors get
    no loop of their own.  Nor is phi(q) re-checked for admissibility: phi
    raises NotDyck (`admissible_exponents`) on a leading vector that breaks
    the prefix bound, and psi raises ConstructionStuck on any such vector.
    """

    def check():
        _guard("bijection", m, n, max_mn)
        dissections = enumerate_dissections(m, n, max_mn)
        vectors = enumerate_dyck(m, n, max_mn)
        if len(vectors) != fuss_catalan(m, n):
            _fail(f"{len(vectors)} admissible vectors, expected Fuss-Catalan")
        images = set()
        for q in dissections:
            v = phi(q)
            if psi(m, v) != q:
                _fail(f"psi(phi({q})) differs", q.to_json())
            images.add(v)
        if images != set(vectors):
            odd = [v for v in vectors if v not in images] or sorted(images - set(vectors))
            _fail("leading exponent vectors do not match the admissible set", list(odd[0]))
        return f"round-trips on {len(dissections)} dissections"

    return _run("bijection", m, n, check)


def _spot_check_pairs(rng: random.Random, size: int, samples: int) -> list[tuple[int, int]]:
    """min(samples, size*(size-1)) distinct off-diagonal index pairs, drawn
    uniformly without listing all of them: index k stands for the pair
    (i, j) with i, j = divmod(k, size - 1), j shifted past the diagonal."""
    total = size * (size - 1)
    pairs = []
    for k in rng.sample(range(total), min(samples, total)):
        i, j = divmod(k, size - 1)
        pairs.append((i, j + (j >= i)))
    return pairs


def _chord_factors(poset) -> dict:
    """Each non-apex chord of the order -> its factor, after the chord
    checks (i) to (iii) of `suite_divisibility`; a failure names a chord."""
    m, n = poset.m, poset.n
    chords = sorted(poset.diagonal_bits)
    factor, owner = {}, {}
    for d in chords:
        f = factor[d] = binomial_for_diagonal(m, n, d)
        c = owner.setdefault(f, d)
        if c != d:
            _fail(f"chords {c} and {d} have the same factor", list(d))
        c = owner.get(BinomialFactor(high=f.low, low=f.high))
        if c is not None:  # a factor whose two sides agree is its own associate
            _fail(f"the factors of chords {c} and {d} are associates", list(d))
    size = m * n + 2
    for d in chords:
        e = _mirror(size, d)
        if e not in factor:
            _fail(f"the mirror {e} of chord {d} is not a chord of the order", list(d))
        image, sign = involution_image(FactoredPoly(m, n, (factor[d],)))
        if sign != -1:
            _fail(f"involution sign on the factor of chord {d} is {sign}", list(d))
        if image != FactoredPoly(m, n, (factor[e],)):
            _fail(f"involution image of the factor of chord {d} is not its mirror's", list(d))
    return factor


def suite_divisibility(
    m: int, n: int, max_mn: int = DEFAULT_MAX_MN
) -> VerificationReport:
    """P_Q divides P_Q' exactly when Q <= Q', on all N^2 pairs, certified
    per chord with no N x N table and no polynomial per element.  Premise,
    as in `inclusion_check`: the elements are the M-angulations.

    P_Q is the product of f(d), f = `binomial_for_diagonal`, over Q's
    non-apex diagonals D(Q).  `_chord_factors` checks on the order's
    non-apex chords (at most W^2, W = m*n) that (i) f is injective, (ii)
    no two factors are associates (the same two variables on swapped
    sides) and (iii) each chord d has its mirror d* among them, with
    `involution_image` taking f(d) to -f(d*).  The factors, linear and so
    prime, are then pairwise non-associate, and in the factorial ring
    Z[x] such a product divides another exactly when its factor set lies
    in the other's: by (i) when D(Q) lies in D(Q'), which `inclusion_check`
    certifies is Q <= Q'.  Each sampled P_Q is checked to be its chords'
    product, and `DIVISION_SAMPLES` pairs check `divides` against long
    division.

    The per-element facts this implies are checked only by the tests'
    oracles: P_Q has rank(Q) distinct factors, and an element's P_Q has
    f(d) exactly when it holds d, by (i); the mirror substitution, a ring
    map, takes P_Q to (-1)^rank(Q) P_{reflect Q}, by (iii), as `reflect`
    fixes the apex, so maps D(Q) onto D(reflect Q), and reflect Q is an
    element.  (iii) is a fact of the package's binomials, not of every
    convention for them: another choice of factor may break it.
    """

    def check():
        _guard("divisibility", m, n, max_mn)
        poset = _order(m, n)
        factor = _chord_factors(poset)
        inclusion_check(poset)
        size = len(poset.elements)
        rng = random.Random(10007 * m + n)
        pairs = _spot_check_pairs(rng, size, DIVISION_SAMPLES)
        polys = {}
        for i in sorted({i for pair in pairs for i in pair}):
            q = poset.elements[i]
            p = polys[i] = poly_for_dissection(q)
            if sorted(p.factors) != sorted(factor[d] for d in q.diagonals if d[0]):
                _fail(f"the factors of {q} are not its chords'", q.to_json())
        for i, j in pairs:
            p, p2 = polys[i], polys[j]
            if (exact_quotient(expand(p2), expand(p)) is not None) != divides(p, p2):
                _fail(
                    "long division disagrees with factor containment",
                    [poset.elements[i].to_json(), poset.elements[j].to_json()],
                )
        return f"checked {size * size} pairs, {len(pairs)} divisions"

    return _run("divisibility", m, n, check)


def suite_qsym(m: int, n: int, max_mn: int = DEFAULT_MAX_MN) -> VerificationReport:
    def check():
        _guard("qsym", m, n, max_mn)
        report = verify_basis_graded(m, n)
        degrees = report["degrees"]
        total = sum(row["admissible"] for row in degrees)
        if total != fuss_catalan(m, n):
            _fail(f"admissible total {total} != Fuss-Catalan")
        return f"degrees 0..{n} certified"

    return _run("qsym", m, n, check)


def suite_intervals(
    m: int, n: int, max_mn: int = INTERVAL_SUITE_MAX_MN
) -> VerificationReport:
    """Every interval is a distributive forest-ideal lattice with Mobius
    value in {-1, 0, 1}, certified once per isomorphism class.

    Each order k <= n, the suite's own first, must hold FC(m, k) elements,
    and `inclusion_check` certifies it as inclusion of non-apex diagonal
    sets, so it holds every M-angulation.  Over such orders the canonical
    maps below are isomorphisms; they are theorems, and no map is checked.

    Filter.  By `inclusion_check`, the filter above b is every M-angulation
    holding D(b), b's non-apex diagonals.  Those chords leave (m+2)-gons
    and one region around the apex with m*k + 2 vertices, k = n - rank(b)
    = |cut(b)|: the apex regions of b's cut pieces merged along the cuts.
    Numbering that region's vertices in increasing order keeps the apex
    and the cyclic order, so it takes (m+2)-gon cells to cells and
    non-apex chords to non-apex chords, both ways, and takes the
    dissections of the region onto the M-angulations of the (m*k+2)-gon,
    which the k-piece order holds.  It preserves and reflects inclusion,
    so the filter is the k-piece order with b at the fan, each [b, t] is
    an initial interval [fan_k, core(t)], and the filter has FC(m, k)
    elements.

    Products.  Cut along its apex diagonals, a non-final t gives pieces on
    the vertices lo..hi between them, each numbered v - lo + 1; a final t
    of two or more width blocks gives one one-block final per block,
    keeping the apex region and that block, numbered in increasing order.
    Every non-apex chord of t lies in exactly one part, and these
    sub-polygons meet in no chord.  An s <= t has D(s) inside D(t), so its
    chords in each part, with the apex chords they leave, dissect that
    factor's polygon: an element below the factor in its complete order.
    Conversely any tuple of elements below the factors glues back to an
    M-angulation s with D(s) inside D(t), so s <= t.  The map from s to
    its tuple is onto, injective because D is, and preserves and reflects
    inclusion part by part: [fan, t] is the product of its factors'
    initial intervals, each from a smaller order.

    So the initial intervals [fan_k, t] that are no product, the finals of
    width at most 1, are the only ones walked: each gets
    `interval_structure` and `mobius`.  Forest-ideal lattices multiply as
    the ideal lattices of disjoint unions and Mobius values as numbers
    (Rota 1964), so by strong induction on k every initial interval, and
    so every interval, has both properties.  The filter sizes, read from
    the rank census (`_interval_total`), add up to the interval count,
    checked against the I series.
    """

    def check():
        _guard("intervals", m, n, max_mn)
        poset = _order(m, n)
        for k in range(n, 0, -1):
            order = _order(m, k)
            size, want = len(order.elements), fuss_catalan(m, k)
            if size != want:
                _fail(
                    f"the size-{k} order has {size} elements, expected {want}",
                    {"m": m, "n": k, "elements": size},
                )
            inclusion_check(order)
            for top in order.elements:
                if is_final(top) and len(_block_gaps(top)) <= 1:
                    iv = order.interval(order.minimum, top)
                    interval_structure(iv)
                    mu = mobius(iv)
                    if mu not in (-1, 0, 1):
                        _fail(f"Mobius value {mu} at [{iv.bottom_q}, {top}]", iv.to_json())
        count = _interval_total(poset)
        expect = series_I(m, n).coefficient(n)
        if count != expect:
            _fail(f"{count} intervals, series says {expect}")
        return f"{count} intervals certified"

    return _run("intervals", m, n, check)


def suite_series(m: int, n: int, max_mn: int = DEFAULT_MAX_MN) -> VerificationReport:
    def check():
        _guard("series", m, n, max_mn)
        order = max(SERIES_ORDER, n)
        if not residuals_vanish(m, order):
            _fail(f"fixed-point residuals do not vanish to order {order}")
        t = series_T(m, order)
        for k in range(1, order + 1):
            if t.coefficient(k) != fuss_catalan(m, k):
                _fail(f"T coefficient {k} differs from the closed form")
        f = series_F(m, order)
        g = series_G(m, order)
        for k in range(1, order + 1):
            if tuple(g.coefficient(k).int_coeffs()) != rank_polynomial(m, k):
                _fail(f"G slice {k} differs from the rank polynomial")
        ones = sum(g.coefficient(n).int_coeffs())
        if ones != t.coefficient(n):
            _fail("G at z=1 disagrees with T")
        if m * n <= max_mn:
            finals = [
                q for q in enumerate_dissections(m, n, max_mn) if is_final(q)
            ]
            if len(finals) != f.coefficient(n):
                _fail(f"{len(finals)} final dissections, series says "
                      f"{f.coefficient(n)}")
        if m * n <= INTERVAL_SUITE_MAX_MN:
            # An interval is a bottom and a top above it: the up-set sizes.
            covers = _order(m, n).covers_up
            count = sum(len(_reached(covers, i)) for i in range(len(covers)))
            if count != series_I(m, order).coefficient(n):
                _fail(f"{count} intervals disagree with the composed series")
        return f"orders up to {order} certified"

    return _run("series", m, n, check)


SUITES = {
    "poset": suite_poset,
    "bijection": suite_bijection,
    "divisibility": suite_divisibility,
    "qsym": suite_qsym,
    "intervals": suite_intervals,
    "series": suite_series,
}


def run_suite(name: str, m: int, n: int, **kwargs) -> list[VerificationReport]:
    if name != "all":
        return [SUITES[name](m, n, **kwargs)]
    for suite in SUITES:
        default = INTERVAL_SUITE_MAX_MN if suite == "intervals" else DEFAULT_MAX_MN
        _guard(suite, m, n, kwargs.get("max_mn", default))
    return [fn(m, n, **kwargs) for fn in SUITES.values()]
