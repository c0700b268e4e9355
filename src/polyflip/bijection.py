"""The bijection between dissections and admissible vectors.

Forward: read off the exponent vector of the leading monomial of the
dissection polynomial.  Backward: scan the vector left to right; a nonzero
entry c at position p forces c new diagonals ending at vertex p+1, whose
starting vertices are the last c visible vertices carrying the predecessor
letter; finish by drawing every apex diagonal that still fits.
"""

from .dissections import Dissection, chords_cross, vertex_label
from .dyck import check_m_vector, is_dyck
from .errors import ConstructionStuck, NotDyck
from .polynomials import Monomial, leading_monomial, poly_for_dissection


def phi(q: Dissection) -> tuple[int, ...]:
    """Exponent vector of the leading monomial of q's polynomial."""
    return admissible_exponents(leading_monomial(poly_for_dissection(q)))


def admissible_exponents(lead: Monomial) -> tuple[int, ...]:
    """The exponent vector of a leading monomial the caller already has;
    raises NotDyck, as phi does, when it violates the prefix bound."""
    v = lead.exponents
    if not is_dyck(lead.m, v):
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
    prefix = 0
    for pos, c in enumerate(v, start=1):
        prefix += c
        if c == 0:
            continue
        end = pos + 1
        avail = [
            s
            for s in range(1, end)
            if not any(chords_cross((s, end), ch) for ch in chords)
        ]
        target = (vertex_label(m, end) - 2) % m + 1  # cyclic predecessor letter
        cands = [s for s in avail[:-1] if vertex_label(m, s) == target]
        if len(cands) < c:
            raise ConstructionStuck(
                f"entry {c} at position {pos} exceeds the {len(cands)} "
                f"visible predecessor-letter vertices"
            )
        starts = cands[-c:]
        # visible vertices run one per letter in cyclic order, and the first
        # chosen start sits at visible index pos - m*prefix
        assert len(avail) == pos - m * (prefix - c), (pos, avail)
        assert all(
            vertex_label(m, s) == vertex_label(m, i)
            for i, s in enumerate(avail, start=1)
        ), (pos, avail)
        assert avail[pos - m * prefix - 1] == starts[0], (pos, avail, starts)
        chords.extend((s, end) for s in starts)
    for k in range(1, n):
        cand = (0, m * k + 1)
        if not any(chords_cross(cand, ch) for ch in chords):
            chords.append(cand)
    return Dissection.new(m, n, chords)
