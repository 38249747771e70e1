"""Truncated power series and forward-mode duals, freely nestable.

Two directions of differentiation are needed at once when building the
generating coefficients: Taylor coefficients in the expansion parameter s,
and first derivatives with respect to the extended coordinates.  Both live
here as small immutable scalar types.  A ``TruncatedSeries`` may have
``Dual`` coefficients and a ``Dual`` may have ``TruncatedSeries`` (or
further ``Dual``) components, so towers of the two give exact mixed
derivatives up to rounding.  Elementary functions are propagated with the
usual convolution recurrences, never symbolically.

A ``Leaf`` is a scalar that stands where a float would: the recording
scalar of ``compiled``.  Elementary functions run their domain checks on
it through ``leading_value`` and then hand it to ``leaf.apply``.

Mixing rule: a series absorbs any non-series operand as a constant
coefficient (so ``dual * series`` promotes the dual into coefficient
position); a dual absorbs plain numbers.  Code that builds towers should
therefore keep series outermost.
"""

from __future__ import annotations

import math

from .errors import (
    EvaluationError,
    SeriesDomainError,
    SingularSeriesError,
    TruncationOrderError,
)

__all__ = [
    "TruncatedSeries",
    "Dual",
    "Leaf",
    "exp",
    "log",
    "sin",
    "cos",
    "sqrt",
    "power",
    "arctan2",
    "series_arith",
    "series_elementary",
    "extract_derivative",
    "evaluate_with_gradient",
    "leading_value",
    "require_finite",
]


class Leaf:
    """Base of scalar leaves other than floats; ``value`` is the float it holds.

    ``apply(name, *operands)`` evaluates an elementary function on it.
    """

    __slots__ = ()


def _is_number(v):
    return isinstance(v, (int, float, Leaf)) or (
        hasattr(v, "dtype") and getattr(v, "ndim", 1) == 0
    )


class TruncatedSeries:
    """Polynomial in s truncated at a fixed order K; coefficients c0..cK."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order):
        return cls((value,) + (0.0,) * order)

    @classmethod
    def variable(cls, order, constant=0.0):
        # the expansion parameter s itself (plus an optional offset)
        if order < 1:
            raise ValueError("variable needs order >= 1")
        return cls((constant, 1.0) + (0.0,) * (order - 1))

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            if len(other.coeffs) != len(self.coeffs):
                raise ValueError(
                    "truncation orders differ: %d vs %d" % (self.order, other.order)
                )
            return other
        return TruncatedSeries.constant(other, self.order)

    def __add__(self, other):
        o = self._coerce(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        return TruncatedSeries(tuple(b - a for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return TruncatedSeries(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        a, b = self.coeffs, o.coeffs
        out = []
        for k in range(len(a)):
            acc = a[0] * b[k]
            for j in range(1, k + 1):
                acc = acc + a[j] * b[k - j]
            out.append(acc)
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(tuple(a / other for a in self.coeffs))
        o = self._coerce(other)
        b = o.coeffs
        if leading_value(b[0]) == 0.0:
            raise SingularSeriesError("division by series with zero leading value")
        a = self.coeffs
        out = [a[0] / b[0]]
        for k in range(1, len(a)):
            acc = a[k]
            for j in range(1, k + 1):
                acc = acc - b[j] * out[k - j]
            out.append(acc / b[0])
        return TruncatedSeries(out)

    def __rtruediv__(self, other):
        return TruncatedSeries.constant(other, self.order) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("use power() for non-integer exponents")
        if n < 0:
            return 1.0 / (self ** (-n))
        result = TruncatedSeries.constant(1.0, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self):
        return "TruncatedSeries(%r)" % (self.coeffs,)


class Dual:
    """First-order multivariate dual number: value plus seeded partials."""

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = tuple(partials)

    @classmethod
    def constant(cls, value, n):
        return cls(value, (0.0,) * n)

    @classmethod
    def seed(cls, value, index, n):
        return cls(value, tuple(1.0 if j == index else 0.0 for j in range(n)))

    # The arithmetic below builds partial tuples with list comprehensions;
    # a non-dual operand counts as a dual with zero partials.

    def _other_partials(self, other):
        q = other.partials
        if len(q) != len(self.partials):
            raise ValueError("dual partial counts differ")
        return q

    def __add__(self, other):
        if type(other) is Dual:
            q = self._other_partials(other)
            return _dual(
                self.value + other.value,
                tuple([a + b for a, b in zip(self.partials, q)]),
            )
        if isinstance(other, TruncatedSeries):
            return NotImplemented
        return _dual(self.value + other, tuple([a + 0.0 for a in self.partials]))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Dual:
            q = self._other_partials(other)
            return _dual(
                self.value - other.value,
                tuple([a - b for a, b in zip(self.partials, q)]),
            )
        if isinstance(other, TruncatedSeries):
            return NotImplemented
        return _dual(self.value - other, tuple([a - 0.0 for a in self.partials]))

    def __rsub__(self, other):
        if isinstance(other, TruncatedSeries):
            return NotImplemented
        return _dual(other - self.value, tuple([0.0 - a for a in self.partials]))

    def __neg__(self):
        return _dual(-self.value, tuple([-p for p in self.partials]))

    def __mul__(self, other):
        if type(other) is Dual:
            q = self._other_partials(other)
            v, w = self.value, other.value
            return _dual(
                v * w, tuple([p * w + v * b for p, b in zip(self.partials, q)])
            )
        if isinstance(other, TruncatedSeries):
            return NotImplemented
        return _dual(self.value * other, tuple([p * other for p in self.partials]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Dual:
            if leading_value(other.value) == 0.0:
                raise SingularSeriesError("division by dual with zero leading value")
            q = self._other_partials(other)
            v, w = self.value, other.value
            if _is_number(w):
                inv_w2 = 1.0 / (w * w)
                partials = [(p * w - v * b) * inv_w2 for p, b in zip(self.partials, q)]
            else:
                partials = [(p * w - v * b) / (w * w) for p, b in zip(self.partials, q)]
            return _dual(v / w, tuple(partials))
        if isinstance(other, TruncatedSeries):
            return NotImplemented
        return _dual(self.value / other, tuple([p / other for p in self.partials]))

    def __rtruediv__(self, other):
        return Dual.constant(other, len(self.partials)) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("use power() for non-integer exponents")
        if n < 0:
            return 1.0 / (self ** (-n))
        result = Dual.constant(1.0, len(self.partials))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self):
        return "Dual(%r, %r)" % (self.value, self.partials)


_new_object = object.__new__


def _dual(value, partials):
    """Dual from a ready tuple of partials (no copy, no checks)."""
    out = _new_object(Dual)
    out.value = value
    out.partials = partials
    return out


def leading_value(x):
    """Float at the bottom of a series/dual tower (constant term of all layers)."""
    while True:
        if isinstance(x, TruncatedSeries):
            x = x.coeffs[0]
        elif isinstance(x, Dual):
            x = x.value
        elif isinstance(x, Leaf):
            return x.value
        else:
            return float(x)


def require_finite(x, context="evaluation"):
    """Raise EvaluationError if any float leaf of x is NaN or infinite.

    A ``Leaf`` passes: a compiled kernel checks its outputs instead.
    """
    if isinstance(x, Leaf):
        return x
    if isinstance(x, TruncatedSeries):
        for c in x.coeffs:
            require_finite(c, context)
        return x
    if isinstance(x, Dual):
        require_finite(x.value, context)
        for p in x.partials:
            require_finite(p, context)
        return x
    if not math.isfinite(x):
        raise EvaluationError("non-finite value in %s" % context)
    return x


# ---------------------------------------------------------------------------
# elementary functions, generic over floats / duals / series


def _domain(name, x, ok):
    if not ok:
        raise SeriesDomainError("%s outside domain at leading value %r" % (name, x))


def exp(v):
    if isinstance(v, TruncatedSeries):
        c = v.coeffs
        out = [exp(c[0])]
        for k in range(1, len(c)):
            acc = c[1] * out[k - 1]
            for j in range(2, k + 1):
                acc = acc + (j * c[j]) * out[k - j]
            out.append(acc / k)
        return TruncatedSeries(out)
    if isinstance(v, Dual):
        w = exp(v.value)
        return Dual(w, tuple(w * p for p in v.partials))
    if isinstance(v, Leaf):
        return v.apply("exp", v)
    return math.exp(v)


def log(v):
    lv = leading_value(v)
    _domain("log", lv, lv > 0.0)
    if isinstance(v, TruncatedSeries):
        c = v.coeffs
        out = [log(c[0])]
        for k in range(1, len(c)):
            acc = c[k]
            for j in range(1, k):
                acc = acc - (j / k) * (out[j] * c[k - j])
            out.append(acc / c[0])
        return TruncatedSeries(out)
    if isinstance(v, Dual):
        return Dual(log(v.value), tuple(p / v.value for p in v.partials))
    if isinstance(v, Leaf):
        return v.apply("log", v)
    return math.log(v)


def _series_sincos(v):
    c = v.coeffs
    s = [sin(c[0])]
    co = [cos(c[0])]
    for k in range(1, len(c)):
        sa = c[1] * co[k - 1]
        ca = c[1] * s[k - 1]
        for j in range(2, k + 1):
            sa = sa + (j * c[j]) * co[k - j]
            ca = ca + (j * c[j]) * s[k - j]
        s.append(sa / k)
        co.append(-(ca / k))
    return TruncatedSeries(s), TruncatedSeries(co)


def sin(v):
    if isinstance(v, TruncatedSeries):
        return _series_sincos(v)[0]
    if isinstance(v, Dual):
        cv = cos(v.value)
        return Dual(sin(v.value), tuple(cv * p for p in v.partials))
    if isinstance(v, Leaf):
        return v.apply("sin", v)
    return math.sin(v)


def cos(v):
    if isinstance(v, TruncatedSeries):
        return _series_sincos(v)[1]
    if isinstance(v, Dual):
        sv = sin(v.value)
        return Dual(cos(v.value), tuple(-(sv * p) for p in v.partials))
    if isinstance(v, Leaf):
        return v.apply("cos", v)
    return math.cos(v)


def sqrt(v):
    lv = leading_value(v)
    _domain("sqrt", lv, lv > 0.0)
    if isinstance(v, TruncatedSeries):
        c = v.coeffs
        out = [sqrt(c[0])]
        for k in range(1, len(c)):
            acc = c[k]
            for j in range(1, k):
                acc = acc - out[j] * out[k - j]
            out.append(acc / (2.0 * out[0]))
        return TruncatedSeries(out)
    if isinstance(v, Dual):
        w = sqrt(v.value)
        return Dual(w, tuple(p / (2.0 * w) for p in v.partials))
    if isinstance(v, Leaf):
        return v.apply("sqrt", v)
    return math.sqrt(v)


def power(v, r):
    """v**r for real r; integer exponents fall back to repeated products."""
    if isinstance(r, int) or (isinstance(r, float) and r.is_integer()):
        n = int(r)
        if isinstance(v, (TruncatedSeries, Dual, Leaf)):
            return v**n
        return float(v) ** n
    lv = leading_value(v)
    _domain("power", lv, lv > 0.0)
    if isinstance(v, TruncatedSeries):
        c = v.coeffs
        out = [power(c[0], r)]
        for k in range(1, len(c)):
            acc = (1.0 * (r + 1) - k) * (c[1] * out[k - 1])
            for j in range(2, k + 1):
                acc = acc + (j * (r + 1) - k) * (c[j] * out[k - j])
            out.append(acc / (k * c[0]))
        return TruncatedSeries(out)
    if isinstance(v, Dual):
        return Dual(
            power(v.value, r),
            tuple((r * power(v.value, r - 1.0)) * p for p in v.partials),
        )
    if isinstance(v, Leaf):
        return v.apply("rpow", v, r)
    return float(v) ** r


def arctan2(y, x):
    """Two-argument arctangent; series branch taken continuously from s=0."""
    if isinstance(y, TruncatedSeries) or isinstance(x, TruncatedSeries):
        order = y.order if isinstance(y, TruncatedSeries) else x.order
        ys = y if isinstance(y, TruncatedSeries) else TruncatedSeries.constant(y, order)
        xs = x if isinstance(x, TruncatedSeries) else TruncatedSeries.constant(x, order)
        theta0 = arctan2(ys.coeffs[0], xs.coeffs[0])
        if order == 0:
            return TruncatedSeries((theta0,))
        # theta' = (x y' - y x') / (x^2 + y^2), integrated termwise
        K1 = order - 1
        trunc = lambda s: TruncatedSeries(s.coeffs[: K1 + 1])
        dys = TruncatedSeries([(k + 1) * ys.coeffs[k + 1] for k in range(order)])
        dxs = TruncatedSeries([(k + 1) * xs.coeffs[k + 1] for k in range(order)])
        den = trunc(xs * xs + ys * ys)
        if leading_value(den.coeffs[0]) == 0.0:
            raise SingularSeriesError("arctan2 at the coordinate origin")
        q = (trunc(xs) * dys - trunc(ys) * dxs) / den
        out = [theta0]
        for k in range(1, order + 1):
            out.append(q.coeffs[k - 1] / k)
        return TruncatedSeries(out)
    if isinstance(y, Dual) or isinstance(x, Dual):
        n = len(y.partials) if isinstance(y, Dual) else len(x.partials)
        yd = y if isinstance(y, Dual) else Dual.constant(y, n)
        xd = x if isinstance(x, Dual) else Dual.constant(x, n)
        den = xd.value * xd.value + yd.value * yd.value
        if leading_value(den) == 0.0:
            raise SingularSeriesError("arctan2 at the coordinate origin")
        return Dual(
            arctan2(yd.value, xd.value),
            tuple(
                (xd.value * py - yd.value * px) / den
                for py, px in zip(yd.partials, xd.partials)
            ),
        )
    if isinstance(y, Leaf) or isinstance(x, Leaf):
        return (y if isinstance(y, Leaf) else x).apply("atan2", y, x)
    return math.atan2(y, x)


# ---------------------------------------------------------------------------
# contract-level helpers

_ARITH = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "neg": lambda a, b: -a,
}

_ELEMENTARY = {
    "exp": exp,
    "log": log,
    "sin": sin,
    "cos": cos,
    "sqrt": sqrt,
}


def series_arith(op, a, b=None):
    """Coefficient arithmetic on matching-order series; op in add/sub/mul/div/neg."""
    if op not in _ARITH:
        raise ValueError("unknown series op %r" % op)
    return _ARITH[op](a, b)


def series_elementary(fname, a, exponent=None):
    """Elementary function on a series through its convolution recurrence."""
    if fname == "pow":
        return power(a, exponent)
    if fname not in _ELEMENTARY:
        raise ValueError("unknown elementary function %r" % fname)
    return _ELEMENTARY[fname](a)


def extract_derivative(series, i):
    """i-th s-derivative at s=0, i.e. i! * c_i."""
    if not isinstance(series, TruncatedSeries):
        raise TypeError("extract_derivative needs a TruncatedSeries")
    if i < 0 or i > series.order:
        raise TruncationOrderError(
            "derivative order %d beyond truncation %d" % (i, series.order)
        )
    return math.factorial(i) * series.coeffs[i]


def evaluate_with_gradient(f, coords):
    """Value and first-derivative row of f at coords via one dual layer.

    coords may hold floats or further jet scalars; towers give higher
    mixed derivatives.  Constant results get an all-zero gradient.
    """
    coords = tuple(coords)
    n = len(coords)
    seeded = [Dual.seed(c, i, n) for i, c in enumerate(coords)]
    out = f(seeded)
    if isinstance(out, Dual):
        value, grad = out.value, list(out.partials)
    else:
        value, grad = out, [0.0] * n
    if all(_is_number(c) for c in coords):
        require_finite(value, "gradient evaluation")
        for g in grad:
            require_finite(g, "gradient evaluation")
    return value, grad
