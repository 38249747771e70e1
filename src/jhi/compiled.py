"""Straight-line Python kernels traced once from the jets path.

Every float evaluation the stepper makes (the step residual with its
covector, the beta push-forward, the lifted vector field) is a fixed
composition of arithmetic and elementary functions: the jets towers that
build gradients and the S_3/S_4 recursion only decide *which* operations
run, never branch on values.  A ``Kernel`` therefore runs its function
once on recording scalars, keeps the operations the outputs need, and
emits them as plain Python over floats (source transformation in the
sense of Griewank-Walther, *Evaluating Derivatives*, ch. 6).

* The recording scalar carries its value.  Its only value read is
  ``jets.leading_value``, whose callers are raise-only domain and
  zero-divisor checks.  ``float()``, ``bool()`` or a comparison on it
  abort the trace, and the kernel falls back to its jets function.
* Recording folds the constants 0 and 1 and merges repeated operations;
  unused operations are not emitted.  Folding is exact except for the
  sign of a zero (``x + 0.0`` folds to ``x``, which keeps ``x = -0.0``)
  and for a non-finite ``x`` in ``x * 0.0``, which folds to ``0.0``, not
  NaN.
* The emitted source is split into chunks of about ``CHUNK`` statements
  over one slot list, each compiled once.  The code is executed twice:
  with float helpers (``log``, ``sqrt`` and real powers raise
  ``SeriesDomainError`` outside their domain, as in jets) and with jets'
  own functions, so that ``Kernel.dual`` runs the same code on ``Dual``
  inputs and yields the Newton Jacobian.

Nothing is traced until a kernel's first call.
"""

from __future__ import annotations

import hashlib
import math
import time

from . import jets
from .errors import CapabilityError, SeriesDomainError

__all__ = ["Kernel", "TraceAbort"]

CHUNK = 100


class TraceAbort(Exception):
    """The traced function read a recorded value in a way a trace cannot replay."""


_UNARY = ("neg", "exp", "log", "sin", "cos", "sqrt")
_PARAM = ("ipow", "rpow")


class _Graph:
    __slots__ = ("ops", "memo")

    def __init__(self):
        self.ops = []  # (name, a, b); ints are node refs, 1-tuples constants
        self.memo = {}

    def node(self, name, a, b, value):
        key = (name, a, b)
        index = self.memo.get(key)
        if index is None:
            index = self.memo[key] = len(self.ops)
            self.ops.append(key)
        return _Rec(self, index, value)


def _is(ref, c):
    """True when an operand reference is the constant c."""
    return type(ref) is tuple and ref[0] == c


def _ref(v):
    """Operand reference of a recorded scalar or a constant (None otherwise)."""
    if isinstance(v, _Rec):
        return v.index
    c = _const(v)
    return None if c is None else (c,)


def _const(v):
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    if getattr(v, "ndim", None) == 0 and hasattr(v, "dtype"):
        return float(v)
    return None


class _Rec(jets.Leaf):
    """Recording scalar: a node of a ``_Graph`` plus its value at the trace point."""

    __slots__ = ("graph", "index", "value")
    __array_ufunc__ = None  # numpy scalars defer to the reflected methods

    def __init__(self, graph, index, value):
        self.graph = graph
        self.index = index
        self.value = value

    def _binary(self, name, other, reflected):
        if isinstance(other, _Rec):
            if other.graph is not self.graph:
                raise TraceAbort("operands from two traces")
            ref, val = other.index, other.value
        else:
            val = _const(other)
            if val is None:
                return NotImplemented
            ref = (val,)
        a, b, va, vb = self.index, ref, self.value, val
        if reflected:
            a, b, va, vb = b, a, vb, va
        if name == "add":
            if _is(b, 0.0):
                return self._same(a, va)
            if _is(a, 0.0):
                return self._same(b, vb)
            return self.graph.node("add", a, b, va + vb)
        if name == "sub":
            if _is(b, 0.0):
                return self._same(a, va)
            if _is(a, 0.0):
                return -self._same(b, vb)
            return self.graph.node("sub", a, b, va - vb)
        if name == "mul":
            if _is(a, 0.0) or _is(b, 0.0):
                return 0.0
            if _is(a, 1.0):
                return self._same(b, vb)
            if _is(b, 1.0):
                return self._same(a, va)
            return self.graph.node("mul", a, b, va * vb)
        # division: only x / 1 folds; 0 / x keeps its zero-divisor fault
        if _is(b, 1.0):
            return self._same(a, va)
        return self.graph.node("div", a, b, va / vb)

    def _same(self, ref, value):
        return _Rec(self.graph, ref, value)

    def __add__(self, o):
        return self._binary("add", o, False)

    def __radd__(self, o):
        return self._binary("add", o, True)

    def __sub__(self, o):
        return self._binary("sub", o, False)

    def __rsub__(self, o):
        return self._binary("sub", o, True)

    def __mul__(self, o):
        return self._binary("mul", o, False)

    def __rmul__(self, o):
        return self._binary("mul", o, True)

    def __truediv__(self, o):
        return self._binary("div", o, False)

    def __rtruediv__(self, o):
        return self._binary("div", o, True)

    def __neg__(self):
        return self.graph.node("neg", self.index, None, -self.value)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool):
            raise TraceAbort("non-integer power of a recorded scalar")
        if n == 1:
            return self
        return self.graph.node("ipow", self.index, n, self.value**n)

    def apply(self, name, *args):
        if name == "rpow":
            _, r = args
            return self.graph.node("rpow", self.index, float(r), self.value ** float(r))
        if name == "atan2":
            y, x = args
            ry, rx = _ref(y), _ref(x)
            if ry is None or rx is None:
                raise TraceAbort("atan2 of an unsupported operand")
            value = math.atan2(jets.leading_value(y), jets.leading_value(x))
            return self.graph.node("atan2", ry, rx, value)
        return self.graph.node(name, self.index, None, _FLOAT_FUNCS[name](self.value))

    def _abort(self, *_):
        raise TraceAbort("a recorded scalar was read as a value")

    __float__ = __bool__ = __int__ = __index__ = __abs__ = _abort
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _abort
    __hash__ = None

    def __repr__(self):
        return "_Rec(#%d, %r)" % (self.index, self.value)


# ---------------------------------------------------------------------------
# runtime helpers: jets' float semantics, domain faults typed as in jets


def _log(x):
    if x > 0.0:
        return math.log(x)
    raise SeriesDomainError("log outside domain at leading value %r" % (x,))


def _sqrt(x):
    if x > 0.0:
        return math.sqrt(x)
    raise SeriesDomainError("sqrt outside domain at leading value %r" % (x,))


def _rpow(x, r):
    if x > 0.0:
        return x**r
    raise SeriesDomainError("power outside domain at leading value %r" % (x,))


_FLOAT_FUNCS = {
    "exp": math.exp,
    "log": _log,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": _sqrt,
}

_FLOAT_ENV = {
    "_exp": math.exp,
    "_log": _log,
    "_sin": math.sin,
    "_cos": math.cos,
    "_sqrt": _sqrt,
    "_rpow": _rpow,
    "_atan2": math.atan2,
}

_JET_ENV = {
    "_exp": jets.exp,
    "_log": jets.log,
    "_sin": jets.sin,
    "_cos": jets.cos,
    "_sqrt": jets.sqrt,
    "_rpow": jets.power,
    "_atan2": jets.arctan2,
}


# ---------------------------------------------------------------------------
# emission


def _operands(op):
    name, a, b = op
    if name in _UNARY or name in _PARAM:
        return (a,)
    return tuple(r for r in (a, b) if type(r) is int)


def _literal(c):
    return repr(c) if math.isfinite(c) else "float(%r)" % repr(c)


def _expression(op, ref):
    name, a, b = op
    if name == "neg":
        return "-" + ref(a)
    if name == "ipow":
        return "%s ** %d" % (ref(a), b)
    if name == "rpow":
        return "_rpow(%s, %s)" % (ref(a), _literal(b))
    if name in _UNARY:
        return "_%s(%s)" % (name, ref(a))
    if name == "atan2":
        return "_atan2(%s, %s)" % (ref(a), ref(b))
    symbol = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[name]
    return "%s %s %s" % (ref(a), symbol, ref(b))


def _emit(ops, n_inputs, outputs):
    """Python source defining ``kernel(x)``: (op count, iterator of pieces).

    Each piece is one top-level definition, generated and compiled one at
    a time, so source text and compiler memory peak at one chunk.  Locals are
    named by their position in the chunk (a0, a1, ...), so every chunk's
    code object shares the same interned names.
    """
    live = bytearray(len(ops))
    stack = [o for o in outputs if type(o) is int]
    while stack:
        i = stack.pop()
        if not live[i]:
            live[i] = 1
            stack.extend(_operands(ops[i]))
    body = [i for i in range(n_inputs, len(ops)) if live[i]]
    chunks = [body[k : k + CHUNK] for k in range(0, len(body), CHUNK)]

    def function(header, loads, chunk, tail):
        name = {}

        def ref(r):
            return name[r] if type(r) is int else _literal(r[0])

        lines = [header]
        for r, source in loads:
            name[r] = "a%d" % len(name)
            lines.append("    %s = %s" % (name[r], source))
        for i in chunk:
            expr = _expression(ops[i], ref)
            name[i] = "a%d" % len(name)
            lines.append("    %s = %s" % (name[i], expr))
        lines.extend(tail(ref))
        return "\n".join(lines) + "\n"

    def returned(ref):
        outs = (ref(o) if type(o) is int else _literal(o[0]) for o in outputs)
        return ["    return (%s,)" % ", ".join(outs)]

    if len(chunks) <= 1:
        inputs = [(i, "x[%d]" % i) for i in range(n_inputs) if live[i]]
        piece = function("def kernel(x):", inputs, body, returned)
        return len(body), iter([piece])

    chunk_of = {i: k for k, chunk in enumerate(chunks) for i in chunk}
    exported = set(o for o in outputs if type(o) is int and o >= n_inputs)
    for i in body:
        for r in _operands(ops[i]):
            if r >= n_inputs and chunk_of[r] != chunk_of[i]:
                exported.add(r)
    slot = {i: i for i in range(n_inputs)}
    for j, i in enumerate(sorted(exported)):
        slot[i] = n_inputs + j

    def pieces():
        for k, chunk in enumerate(chunks):
            own = set(chunk)
            loads = sorted(
                {r for i in chunk for r in _operands(ops[i]) if r not in own}
            )
            stores = [i for i in chunk if i in exported]
            yield function(
                "def _c%d(s):" % k,
                [(r, "s[%d]" % slot[r]) for r in loads],
                chunk,
                lambda ref: ["    s[%d] = %s" % (slot[i], ref(i)) for i in stores],
            )
        lines = ["def kernel(x):", "    s = list(x)"]
        lines.append("    s.extend((None,) * %d)" % len(exported))
        lines.extend("    _c%d(s)" % k for k in range(len(chunks)))
        outs = ("s[%d]" % slot[o] if type(o) is int else _literal(o[0]) for o in outputs)
        lines.append("    return (%s,)" % ", ".join(outs))
        yield "\n".join(lines) + "\n"

    return len(body), pieces()


# ---------------------------------------------------------------------------
# kernels


class Kernel:
    """A function of a flat tuple of scalars, compiled at its first call.

    ``fn(inputs) -> outputs`` is the reference (jets) implementation.
    Calling the kernel on floats runs the compiled code; ``dual`` runs the
    same code objects on jets scalars.  If the trace aborts, both fall back
    to ``fn``.  A domain fault raised while tracing propagates, exactly as
    ``fn`` would raise it, and the next call traces again.
    """

    __slots__ = (
        "name", "fn", "_float", "_dual", "fallback", "ops", "source_sha256",
        "trace_ms",
    )

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn
        self._float = None
        self._dual = None
        self.fallback = False
        self.ops = None
        self.source_sha256 = None
        self.trace_ms = None

    def __call__(self, inputs):
        if self._float is not None:
            return self._float(inputs)
        if self.fallback:
            return tuple(self.fn(inputs))
        return self._trace(inputs)

    def dual(self, inputs):
        if self._dual is not None:
            return self._dual(inputs)
        return tuple(self.fn(inputs))

    def _trace(self, inputs):
        start = time.perf_counter()
        graph = _Graph()
        recorded = [graph.node("in", i, None, float(v)) for i, v in enumerate(inputs)]
        try:
            outs = [_ref(v) for v in self.fn(recorded)]
            if None in outs:
                raise TraceAbort("kernel output is not a scalar")
        except (TraceAbort, TypeError, CapabilityError):
            # jets-incompatible code; fn itself raises any genuine error
            self.fallback = True
            return tuple(self.fn(inputs))
        ops = graph.ops
        del graph, recorded  # frees the memo before emission
        self.ops, pieces = _emit(ops, len(inputs), outs)
        float_ns, dual_ns = dict(_FLOAT_ENV), dict(_JET_ENV)
        digest = hashlib.sha256()
        for piece in pieces:
            code = compile(piece, "<jhi kernel %s>" % self.name, "exec")
            exec(code, float_ns)
            exec(code, dual_ns)
            digest.update(piece.encode())
        self._float = float_ns["kernel"]
        self._dual = dual_ns["kernel"]
        self.source_sha256 = digest.hexdigest()
        self.trace_ms = 1e3 * (time.perf_counter() - start)
        return self._float(inputs)

    @property
    def traced(self):
        return self.fallback or self._float is not None

    def report(self):
        """Manifest entry: op count, emitted-source hash, trace+compile ms."""
        if self.fallback:
            return {"name": self.name, "compiled": False}
        return {
            "name": self.name,
            "compiled": True,
            "ops": self.ops,
            "source_sha256": self.source_sha256,
            "trace_ms": round(self.trace_ms, 3),
        }
