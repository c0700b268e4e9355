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
from .polynomials import _factor_rows, _lead_vector


def phi(q: Dissection) -> tuple[int, ...]:
    """Exponent vector of the leading monomial of q's polynomial, counted
    off its factors' leading positions in the order's factor table: no
    polynomial or monomial is built."""
    leads = [r.lead for r in _factor_rows(q)]
    return admissible_exponents(q.m, _lead_vector(q.m, q.n, leads))


def admissible_exponents(m: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """A leading exponent vector the caller already has; raises NotDyck,
    as phi does, when it violates the prefix bound.  Counted off factors,
    its entries are m*n nonnegative ints by construction, so the bound is
    scanned without `check_m_vector`."""
    if _first_violation(m, v) is not None:
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
        # earlier visible vertices carrying it sit at indices last - m,
        # last - 2m, ..., down to last mod m: last // m of them, and the
        # last c of them start at cut
        last = len(visible) - 1
        cut = last - m * c
        if cut < 0:
            raise ConstructionStuck(
                f"entry {c} at position {pos} exceeds the {last // m} "
                f"visible predecessor-letter vertices"
            )
        starts = visible[cut:last:m]
        # the first chosen start sits at visible index pos - m*prefix
        assert len(visible) == pos - m * (prefix - c), (pos, visible)
        assert visible[pos - m * prefix - 1] == starts[0], (pos, visible, starts)
        chords += [(s, end) for s in starts]
        del visible[cut + 1 :]
    # an apex diagonal (0, u), u = m*k + 1 for 0 < k < n, crosses a drawn
    # chord exactly when u lies strictly inside it; visible runs ascending
    fan = [(0, u) for u in visible if u > 1 and u % m == 1 % m]
    q = Dissection(m, n, tuple(fan + sorted(chords)))
    validate(q)
    return q
