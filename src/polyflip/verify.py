"""Named verification suites over one (m, n), reported uniformly.

Each suite re-derives a family of claims exactly (no floats, no sampling
except the documented division spot-checks) and reports pass/fail with a
counterexample payload when one exists.  The CLI prints the reports as
JSON; timing stays out of the JSON so output is byte-stable.
"""

import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from .bijection import phi, psi
from .dissections import (
    DEFAULT_MAX_MN,
    _block_gaps,
    check_size_guard,
    enumerate_dissections,
    is_final,
    make_q0,
    reflect,
    validate,
)
from .dyck import enumerate_dyck, is_dyck
from .errors import PolyflipError, SizeGuardExceeded, VerificationFailure
from .polynomials import (
    divides,
    exact_quotient,
    expand,
    involution_image,
    poly_for_dissection,
)
from .poset import (
    _containing_count,
    _order,
    _order_of_size,
    _reached,
    cover_count_check,
    descent_check,
    expected_maximal_chain_count,
    inclusion_check,
    initial_factorization_check,
    interval_structure,
    is_lattice,
    maximal_chain_count,
    mobius,
    upper_ideal_iso_check,
    width_cover_check,
    width_factorization_check,
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


def suite_poset(m: int, n: int, max_mn: int = DEFAULT_MAX_MN) -> VerificationReport:
    """The order's shape, and the inclusion theorem its queries rely on.

    Beyond the element count, the unique minimum, cover degrees, chain
    count, descent swaps and the rank census, the suite certifies that the
    order is inclusion of non-apex diagonal sets (`inclusion_check`), from
    facts local to each element: every cover adds exactly one such
    diagonal, so goes one rank up; no two elements share their non-apex
    diagonals; and each element's lower covers remove exactly its maximal
    non-apex diagonals.  The elements being every M-angulation (validated,
    distinct and Fuss-Catalan many), each up-set is then the closed-form
    count of M-angulations holding the element's non-apex diagonals, and
    those counts must add up to the interval count of the I series.
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
        bottoms = [
            q for i, q in enumerate(poset.elements) if not poset.covers_down[i]
        ]
        if bottoms != [make_q0(m, n)]:
            _fail(f"minimum not unique: {bottoms}", [q.to_json() for q in bottoms])
        inclusion_check(poset)
        intervals = sum(
            _containing_count(m, n, [d for d in q.diagonals if d[0]])
            for q in poset.elements
        )
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
        descent_check(poset)
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
    def check():
        _guard("bijection", m, n, max_mn)
        dissections = enumerate_dissections(m, n, max_mn)
        vectors = enumerate_dyck(m, n, max_mn)
        if len(vectors) != fuss_catalan(m, n):
            _fail(f"{len(vectors)} admissible vectors, expected Fuss-Catalan")
        for v in vectors:
            q = psi(m, v)
            if phi(q) != v:
                _fail(f"phi(psi({v})) = {phi(q)}", list(v))
        images = set()
        for q in dissections:
            v = phi(q)
            if not is_dyck(m, v):
                _fail(f"phi({q}) = {v} is not admissible", q.to_json())
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


def _holder_ids(keys_per_element, ids: dict) -> dict:
    """Each key's holder set, the indices of the elements whose keys hold
    it, as its id in `ids`, which interns equal holder sets to one id."""
    holders = defaultdict(list)
    for i, keys in enumerate(keys_per_element):
        for key in keys:
            holders[key].append(i)
    return {key: ids.setdefault(tuple(h), len(ids)) for key, h in holders.items()}


def suite_divisibility(
    m: int, n: int, max_mn: int = DEFAULT_MAX_MN
) -> VerificationReport:
    """P_Q divides P_Q' exactly when Q <= Q', on all N^2 pairs, with no
    N x N table.  Premise, as in `inclusion_check`: the enumerated elements
    are M-angulations.

    (1) Each P_Q has rank(Q) factors, none repeated, so `divides` is set
    inclusion.  (2) Each element's factors and non-apex diagonals have the
    same holder sets, the elements whose polynomial has the factor or that
    hold the diagonal.  So if Q's diagonals lie in Q', each factor of P_Q
    has a diagonal's holders, Q' among them, and divides P_Q'; and back.
    (3) `inclusion_check`: diagonal inclusion is the closure of the covers,
    certified from each element's own covers and maximal spans.
    Each failure names one element.  `DIVISION_SAMPLES` pairs then check
    `divides` against sparse long division, and every poly against the
    mirror involution.
    """

    def check():
        _guard("divisibility", m, n, max_mn)
        poset = _order(m, n)
        polys = [poly_for_dissection(q) for q in poset.elements]
        for q, p in zip(poset.elements, polys):
            k, distinct = len(p.factors), len(set(p.factors))
            if k != q.rank or distinct != q.rank:
                _fail(f"{q}: {k} factors, {distinct} distinct, rank {q.rank}", q.to_json())
        ids = {}
        by_factor = _holder_ids((p.factors for p in polys), ids)
        by_diagonal = _holder_ids(
            ([d for d in q.diagonals if d[0]] for q in poset.elements), ids
        )
        for q, p in zip(poset.elements, polys):
            held = {by_diagonal[d] for d in q.diagonals if d[0]}
            if {by_factor[f] for f in p.factors} != held:
                _fail(f"holders of the factors and diagonals of {q} differ", q.to_json())
        inclusion_check(poset)
        size = len(poset.elements)
        rng = random.Random(10007 * m + n)
        pairs = _spot_check_pairs(rng, size, DIVISION_SAMPLES)
        for i, j in pairs:
            quotient = exact_quotient(expand(polys[j]), expand(polys[i]))
            if (quotient is not None) != divides(polys[i], polys[j]):
                _fail(
                    "long division disagrees with factor containment",
                    [poset.elements[i].to_json(), poset.elements[j].to_json()],
                )
        canonical = {p.factors for p in polys}
        for q, p in zip(poset.elements, polys):
            image, sign = involution_image(p)
            if image.factors not in canonical:
                _fail(f"involution image of {q} escapes the family", q.to_json())
            if sign != (-1) ** q.rank:
                _fail(f"involution sign on {q} is {sign}", q.to_json())
            if image != poly_for_dissection(reflect(q)):
                _fail(f"involution image of {q} is not its mirror", q.to_json())
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
    sets, so it holds every M-angulation: the premise of the chord-level
    isomorphisms below.  Each initial interval [fan_k, t] then gets one
    certificate: the product of its cut pieces' initial intervals for a
    non-final t, of its width blocks' for a final t of two or more (a
    chord-level split of D[t], `_product_check`), and `interval_structure`
    with `mobius` only for the rest, finals of width at most 1.  Factors
    are initial intervals of smaller orders; forest-ideal lattices
    multiply as the ideal lattices of disjoint unions and Mobius values as
    numbers (Rota 1964), so by strong induction on k every initial interval
    has both properties.  For each bottom b, `upper_ideal_iso_check`
    certifies b's glue-frame vertex map, which makes the filter above b
    isomorphic to the order of k = |cut(b)| pieces, b going to the fan, so
    each [b, t] is isomorphic to an initial interval [fan_k, core(t)].  The
    filter sizes add up to the interval count, checked against the I
    series.
    """

    def check():
        _guard("intervals", m, n, max_mn)
        poset = _order(m, n)
        for k in range(n, 0, -1):
            order = _order_of_size(poset, k)
            size, want = len(order.elements), fuss_catalan(m, k)
            if size != want:
                _fail(
                    f"the size-{k} order has {size} elements, expected {want}",
                    {"m": m, "n": k, "elements": size},
                )
            inclusion_check(order)
            for iv in order.intervals_above(order.index[order.minimum]):
                top = iv.top_q
                if not is_final(top):
                    initial_factorization_check(order, top)
                elif len(_block_gaps(top)) > 1:
                    width_factorization_check(order, top)
                else:  # width <= 1: its one block would be t itself
                    interval_structure(iv)
                    mu = mobius(iv)
                    if mu not in (-1, 0, 1):
                        _fail(f"Mobius value {mu} at [{iv.bottom_q}, {top}]", iv.to_json())
        width_cover_check(poset)
        count = sum(upper_ideal_iso_check(poset, q) for q in poset.elements)
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
