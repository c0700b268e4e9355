"""Vectors of m*n nonnegative integers whose scaled prefix sums stay
strictly below every position (m * (v_1 + ... + v_p) < p), their lattice
path rendering, and the zero-run-free block words indexing the
quasisymmetric generators.

These vectors are exactly the exponent vectors of leading monomials of the
dissection polynomials; the entry sum is the rank of the matching
dissection, so it runs over 0 .. n-1 and the count is the Fuss-Catalan
number.
"""

from .dissections import DEFAULT_MAX_MN, check_size_guard
from .polynomials import Monomial


def check_m_vector(m: int, v) -> tuple[int, ...]:
    v = tuple(v)
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if len(v) % m:
        raise ValueError(f"vector length {len(v)} is not a multiple of m={m}")
    if set(map(type, v)) <= {int} and min(v, default=0) >= 0:
        return v  # exact ints, bools excluded: the common case, checked in C
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in v):
        raise ValueError(f"entries must be nonnegative integers: {v!r}")
    return v


def weight(m: int, v) -> tuple[int, ...]:
    """Total exponent of each letter: letter r collects positions r, r+m, ..."""
    v = check_m_vector(m, v)
    return tuple(sum(v[j::m]) for j in range(m))


def first_violation(m: int, v) -> int | None:
    """1-based position of the first prefix with m * sum >= position, or
    None when the vector is admissible."""
    return _first_violation(m, check_m_vector(m, v))


def _first_violation(m: int, v: tuple[int, ...]) -> int | None:
    # `first_violation` of a vector known to pass `check_m_vector`.
    acc = 0
    for pos, x in enumerate(v, start=1):
        acc += x
        if m * acc >= pos:
            return pos
    return None


def is_dyck(m: int, v) -> bool:
    return first_violation(m, v) is None


def enumerate_dyck(m: int, n: int, max_mn: int = DEFAULT_MAX_MN):
    """All admissible vectors of length m*n, ascending lexicographic."""
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be positive, got m={m}, n={n}")
    check_size_guard(m, n, max_mn)
    ln = m * n
    out: list[tuple[int, ...]] = []
    vec = [0] * ln

    def rec(pos: int, acc: int):
        if pos == ln:
            out.append(tuple(vec))
            return
        # m*(acc + x) <= pos, 0-based pos being 1-based position minus one
        for x in range((pos - m * acc) // m + 1):
            vec[pos] = x
            rec(pos + 1, acc + x)
        vec[pos] = 0

    rec(0, 0)
    return out


def vector_to_lattice_path(m: int, v) -> str:
    """Unit steps, read left to right: entry x contributes x R's then one U."""
    v = check_m_vector(m, v)
    return "".join("R" * x + "U" for x in v)


def vector_to_monomial(m: int, v) -> Monomial:
    return Monomial(m, check_m_vector(m, v))


def monomial_to_vector(mono: Monomial) -> tuple[int, ...]:
    return mono.exponents


def is_m_composition(m: int, c) -> bool:
    """A valid block word: nonempty, length a multiple of m, and no run of
    m consecutive zeros (runs straddling block boundaries count)."""
    try:
        c = check_m_vector(m, c)
    except ValueError:
        return False
    if not c:
        return False
    run = 0
    for x in c:
        run = run + 1 if x == 0 else 0
        if run >= m:
            return False
    return True


def enumerate_compositions(m: int, max_size: int):
    """All block words with entry sum between 1 and max_size, grouped by
    block count then lexicographic.

    Every block contains a nonzero entry (an all-zero block is a zero run
    of length m), so the block count never exceeds the entry sum and the
    enumeration is finite.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    out: list[tuple[int, ...]] = []
    for blocks in range(1, max_size + 1):
        ln = m * blocks
        vec = [0] * ln

        def rec(pos: int, total: int, zrun: int):
            if pos == ln:
                out.append(tuple(vec))
                return
            start = 1 if zrun == m - 1 else 0
            for x in range(start, max_size - total + 1):
                vec[pos] = x
                rec(pos + 1, total + x, 0 if x else zrun + 1)
            vec[pos] = 0

        rec(0, 0, 0)
    return out
