"""The bijection between dissections and admissible vectors.

Forward: read off the exponent vector of the leading monomial of the
dissection polynomial.  Backward: scan the vector left to right; a nonzero
entry c at position p forces c new diagonals ending at vertex p+1, whose
starting vertices are the last c visible vertices carrying the predecessor
letter; finish by drawing every apex diagonal that still fits.
"""

from .dissections import Dissection, validate
from .dyck import _first_violation, check_m_vector
from .errors import ConstructionStuck, NotDyck
from .polynomials import Monomial, leading_monomial, poly_for_dissection


def phi(q: Dissection) -> tuple[int, ...]:
    """Exponent vector of the leading monomial of q's polynomial."""
    return admissible_exponents(leading_monomial(poly_for_dissection(q)))


def admissible_exponents(lead: Monomial) -> tuple[int, ...]:
    """The exponent vector of a leading monomial the caller already has;
    raises NotDyck, as phi does, when it violates the prefix bound.  A
    Monomial's exponents are m*n nonnegative ints by construction, so the
    bound is scanned without `check_m_vector`."""
    v = lead.exponents
    if _first_violation(lead.m, v) is not None:
        raise NotDyck(f"leading exponents {v} violate the prefix bound")
    return v


def psi(m: int, v) -> Dissection:
    """Dissection whose polynomial has leading exponent vector v.

    Raises ConstructionStuck at the first position whose scaled prefix sum
    reaches the position; on admissible vectors the construction always
    completes.
    """
    v = check_m_vector(m, v)
    if not v:
        raise ValueError("the vector must be nonempty")
    n = len(v) // m
    chords: list[tuple[int, int]] = []
    # the vertices a chord to the next end can reach: none lies strictly
    # inside a chord drawn so far, and every chord ends at or before pos
    visible: list[int] = []
    prefix = 0
    for pos, c in enumerate(v, start=1):
        prefix += c
        # visible vertices run one per letter in cyclic order: visible[k]
        # carries the letter of vertex k+1.  Entries are only appended or
        # truncated, so each is checked once, here
        assert (pos - len(visible) - 1) % m == 0, (pos, visible)
        visible.append(pos)
        if c == 0:
            continue
        end = pos + 1
        # the predecessor letter of end's is pos's, so by the invariant the
        # earlier visible vertices carrying it sit at indices k = pos-1 mod m
        cands = range((pos - 1) % m, len(visible) - 1, m)
        if len(cands) < c:
            raise ConstructionStuck(
                f"entry {c} at position {pos} exceeds the {len(cands)} "
                f"visible predecessor-letter vertices"
            )
        starts = [visible[k] for k in cands[-c:]]
        # the first chosen start sits at visible index pos - m*prefix
        assert len(visible) == pos - m * (prefix - c), (pos, visible)
        assert visible[pos - m * prefix - 1] == starts[0], (pos, visible, starts)
        chords.extend((s, end) for s in starts)
        del visible[cands[-c] + 1 :]
    # an apex diagonal (0, u), u = m*k + 1 for 0 < k < n, crosses a drawn
    # chord exactly when u lies strictly inside it; visible runs ascending
    fan = [(0, u) for u in visible if u > 1 and u % m == 1 % m]
    q = Dissection(m, n, tuple(fan + sorted(chords)))
    validate(q)
    return q
