"""Exact truncated generating series for the flip orders.

T counts all M-angulations (Fuss-Catalan numbers), F the final ones, G
refines T by rank with a polynomial coefficient per degree, and I counts
intervals.  Everything is computed over Fractions with the defining
fixed-point equations, then cross-checked against the closed forms.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb


def fuss_catalan(m: int, n: int) -> int:
    """Number of M-angulations of the (m*n+2)-gon."""
    if m < 1 or n < 0:
        raise ValueError(f"need m >= 1 and n >= 0, got m={m}, n={n}")
    num = comb((m + 1) * n, n)
    assert num % (m * n + 1) == 0
    return num // (m * n + 1)


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class ZPoly:
    """Dense polynomial in the rank variable z with exact coefficients."""

    coeffs: tuple = ()

    @classmethod
    def of(cls, coeffs) -> "ZPoly":
        return cls(_trim(coeffs))

    @classmethod
    def z_power(cls, k: int, scale=1) -> "ZPoly":
        return cls.of([0] * k + [scale])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, ZPoly):
            other = ZPoly.of([other])
        a, b = self.coeffs, other.coeffs
        size = max(len(a), len(b))
        return ZPoly.of(
            [
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(size)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return ZPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, ZPoly):
            other = ZPoly.of([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ZPoly):
            other = ZPoly.of([other])
        if not self or not other:
            return ZPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return ZPoly.of(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, ZPoly):
            return self.coeffs == other.coeffs
        return self.coeffs == _trim([other])

    def __hash__(self):
        return hash(self.coeffs)

    def int_coeffs(self) -> tuple[int, ...]:
        out = []
        for c in self.coeffs:
            assert c == int(c), f"non-integer coefficient {c}"
            out.append(int(c))
        return tuple(out)

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                z = "z" if k == 1 else f"z^{k}"
                parts.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(parts)


@dataclass(frozen=True)
class TruncatedSeries:
    """Series modulo x^(order+1); coeffs[k] is the x^k coefficient.

    Coefficients are ints, Fractions, or ZPoly values; mixed arithmetic
    leans on the coefficient types themselves.
    """

    order: int
    coeffs: tuple

    @classmethod
    def from_list(cls, order: int, coeffs) -> "TruncatedSeries":
        coeffs = list(coeffs)[: order + 1]
        coeffs += [0] * (order + 1 - len(coeffs))
        return cls(order, tuple(coeffs))

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls.from_list(order, [0, 1])

    @classmethod
    def constant(cls, order: int, value) -> "TruncatedSeries":
        return cls.from_list(order, [value])

    def coefficient(self, k: int):
        return self.coeffs[k] if k <= self.order else 0

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        return TruncatedSeries(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        other = self._coerce(other)
        return TruncatedSeries(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        other = self._coerce(other)
        out = [0] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.order, tuple(out))

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            assert other.order == self.order
            return other
        return TruncatedSeries.constant(self.order, other)

    def __pow__(self, k: int) -> "TruncatedSeries":
        assert k >= 0
        result = TruncatedSeries.constant(self.order, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner); inner must have zero constant term."""
        assert not inner.coeffs[0], "inner series needs valuation >= 1"
        result = TruncatedSeries.constant(self.order, 0)
        for c in reversed(self.coeffs):
            result = result * inner + c
        return result

    def inverse_unit(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be 1."""
        assert self.coeffs[0] == 1, "inverse needs constant term 1"
        inv = [0] * (self.order + 1)
        inv[0] = 1
        for k in range(1, self.order + 1):
            inv[k] = -sum(self.coeffs[j] * inv[k - j] for j in range(1, k + 1))
        return TruncatedSeries(self.order, tuple(inv))


def series_T(m: int, order: int) -> TruncatedSeries:
    """Fixed point of T = x*(1+T)^(m+1); x^n coefficient counts all
    M-angulations of size n."""
    x = TruncatedSeries.x(order)
    t = TruncatedSeries.constant(order, 0)
    for _ in range(order):
        t = x * (t + 1) ** (m + 1)
    return t


def residual_T(m: int, order: int) -> TruncatedSeries:
    t = series_T(m, order)
    return t - TruncatedSeries.x(order) * (t + 1) ** (m + 1)


def series_F(m: int, order: int) -> TruncatedSeries:
    """x*(1+T)^m; x^n coefficient counts final M-angulations."""
    t = series_T(m, order)
    return TruncatedSeries.x(order) * (t + 1) ** m


def residual_F(m: int, order: int) -> TruncatedSeries:
    """F*(1+T) - T: the quotient form F = T/(1+T), independent of how
    series_F is built."""
    t = series_T(m, order)
    return series_F(m, order) * (t + 1) - t


def series_G(m: int, order: int) -> TruncatedSeries:
    """S/(1-S) for S = F(z*x)/z; the x^n coefficient is the rank
    generating polynomial of the size-n flip order."""
    f = series_F(m, order)
    s = TruncatedSeries(
        order,
        tuple(
            ZPoly.z_power(k - 1, f.coeffs[k]) if k and f.coeffs[k] else 0
            for k in range(order + 1)
        ),
    )
    one_minus = TruncatedSeries.constant(order, 1) - s
    return s * one_minus.inverse_unit()


def rank_polynomial(m: int, n: int) -> tuple[int, ...]:
    """coeffs[k] = number of size-n M-angulations of rank k."""
    out = []
    for k in range(n):
        c = Fraction(n - k, n) * comb(m * n + k - 1, k)
        assert c.denominator == 1
        out.append(int(c))
    return tuple(out)


def series_I(m: int, order: int) -> TruncatedSeries:
    """T(F); the x^n coefficient counts intervals of the size-n order."""
    t = series_T(m, order)
    f = series_F(m, order)
    return t.compose(f)


def residual_I(m: int, order: int) -> TruncatedSeries:
    """I - F*(1+I)^(m+1): T's fixed-point equation evaluated at F, which
    I = T(F) must satisfy; it uses no composition."""
    i = series_I(m, order)
    return i - series_F(m, order) * (i + 1) ** (m + 1)


def residuals_vanish(m: int, order: int) -> bool:
    return (
        residual_T(m, order).is_zero()
        and residual_F(m, order).is_zero()
        and residual_I(m, order).is_zero()
    )
