"""Tiny closed expression language for metric entries, winds, and curves.

Grammar (binding tightest first):  ^  (right-assoc),  unary -,  * /,  + -.
Atoms are float literals, coordinates x1..xn, the constants pi and e, the
single-argument functions sin cos exp log sqrt tanh, and parentheses.

A stack of expressions in the same coordinates (a metric's upper triangle
plus a wind, say, or a curve's components) is compiled once into a
`Program`: one straight-line NumPy function, one line per distinct
subtree, with constant subtrees folded, then forward-mode derivative
lines that skip partials which are structurally zero. Every sweep runs
that one function, so values and gradients see the same numbers; a sweep
for values alone drops the gradients. It writes values and gradients
straight into stacked arrays, then makes one domain check (log, sqrt) and
one finiteness check; only a failed check goes back for the first bad
expression and point. Programs come from a bounded memo keyed on the
expressions, and a single expression is a stack of one. `stages` renders
builder lines over NumPy arrays too (`numpy_function`, with the domain
tests of `domain_tests`) and on Python floats (`float_function`), whose
`math` functions raise where NumPy gives inf or NaN.
"""
from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import (ArityError, DomainError, ExpressionSyntaxError,
                     NonFiniteValue, UnknownIdentifier)

FUNCTION_NAMES = ("sin", "cos", "exp", "log", "sqrt", "tanh")
CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based slot into the coordinate tuple


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Var, Neg, Binary, Call]


@dataclass(frozen=True)
class Expression:
    """A parsed expression plus the coordinate-name table it was built with."""

    root: Node
    var_names: tuple[str, ...]
    source: str = ""

    @property
    def n_vars(self) -> int:
        return len(self.var_names)


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append((m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# parser

# The deepest tree, and the deepest nesting of parentheses, calls, unary
# minus and exponents, that the parser accepts: the tree walks that follow
# (hashing, compiling, differentiating) recurse once or twice per level,
# and the parser five times per nesting level, so this keeps every one of
# them far from Python's recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str, var_names: tuple[str, ...]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = {name: i for i, name in enumerate(var_names)}
        self.level = 0
        # id(node) -> the depth of its tree, leaves 1; a tree is never
        # deeper than its text has tokens, so a short text keeps none
        self.heights = {} if len(self.tokens) > MAX_DEPTH else None

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def nested(self, off: int, parse):
        """parse() one nesting level down, refused at offset off past
        MAX_DEPTH levels."""
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", off)
        node = parse()
        self.level -= 1
        return node

    def node(self, off: int, kind, *args) -> Node:
        """kind(*args), refused at offset off when its tree would be deeper
        than MAX_DEPTH."""
        if self.heights is None:
            return kind(*args)
        height = 1 + max(self.heights.get(id(a), 1) for a in args)
        if height > MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression tree deeper than {MAX_DEPTH} levels", off)
        node = kind(*args)
        self.heights[id(node)] = height
        return node

    def parse(self) -> Node:
        node = self.sum_()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return node

    def sum_(self) -> Node:
        node = self.product()
        while self.peek()[0] in ("+", "-"):
            op, _, off = self.advance()
            node = self.node(off, Binary, op, node, self.product())
        return node

    def product(self) -> Node:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, off = self.advance()
            node = self.node(off, Binary, op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[0] == "-":
            off = self.advance()[2]
            return self.node(off, Neg, self.nested(off, self.unary))
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[0] == "^":
            off = self.advance()[2]
            # right-associative; exponent may carry its own unary minus
            return self.node(off, Binary, "^", base,
                             self.nested(off, self.unary))
        return base

    def atom(self) -> Node:
        tok = self.advance()
        kind, text, off = tok
        if kind == "num":
            return Num(float(text))
        if kind == "(":
            node = self.nested(off, self.sum_)
            self.expect(")")
            return node
        if kind == "ident":
            if text in FUNCTION_NAMES:
                if self.peek()[0] != "(":
                    raise ArityError(f"function {text!r} takes exactly one argument", off)
                self.advance()
                if self.peek()[0] == ")":
                    raise ArityError(f"function {text!r} takes exactly one argument", off)
                arg = self.nested(off, self.sum_)
                if self.peek()[0] == ",":
                    raise ArityError(f"function {text!r} takes exactly one argument", self.peek()[2])
                self.expect(")")
                return self.node(off, Call, text, arg)
            if text in self.vars:
                return Var(self.vars[text])
            if text in CONSTANTS:
                return Num(CONSTANTS[text])
            raise UnknownIdentifier(f"unknown identifier {text!r}", off)
        raise ExpressionSyntaxError(f"unexpected {text or 'end of input'!r}", off)


def parse(text: str, n: int) -> Expression:
    """Parse an expression in coordinates x1..xn."""
    return parse_with_names(text, tuple(f"x{i + 1}" for i in range(n)))


def parse_with_names(text: str, var_names: tuple[str, ...]) -> Expression:
    root = _Parser(text, var_names).parse()
    return Expression(root, tuple(var_names), text)


def split_components(text: str) -> list[str]:
    """Split 'expr, expr, ...' on top-level commas only."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


# ---------------------------------------------------------------------------
# compiled programs

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
          "sqrt": np.sqrt, "tanh": np.tanh}
_OPS = {"+": (operator.add, "+"), "-": (operator.sub, "-"),
        "*": (operator.mul, "*"), "/": (operator.truediv, "/"),
        "^": (operator.pow, "**")}
# the functions with a domain: (failure message, the comparison with 0 that
# marks a bad argument, as source and as a function)
_DOMAIN = {"log": ("log of a nonpositive value", "<=", operator.le),
           "sqrt": ("sqrt of a negative value", "<", operator.lt)}


def _witness(x: np.ndarray, bad) -> str:
    """The first point of the batch x (..., n) at which `bad` holds."""
    first = np.argwhere(np.broadcast_to(bad, x.shape[:-1]))[0]
    return f"point {x[tuple(first)].tolist()}"


def _stack(e) -> tuple:
    """An expression as a stack of one; a stack as a tuple."""
    return (e,) if isinstance(e, Expression) else tuple(e)


def _require_finite(exprs: tuple, x: np.ndarray, val: np.ndarray,
                    grad: Optional[np.ndarray] = None) -> None:
    """One check over a stacked result val[..., j] (and grad[..., j, i]);
    on failure, NonFiniteValue names the first bad expression and point,
    its value checked before its gradient."""
    if np.isfinite(val).all() and (grad is None or np.isfinite(grad).all()):
        return
    for j, e in enumerate(exprs):
        bad = ~np.isfinite(val[..., j])
        if not bad.any() and grad is not None:
            bad = ~np.isfinite(grad[..., j, :]).all(axis=-1)
        if bad.any():
            raise NonFiniteValue(f"expression {e.source!r} evaluated to a "
                                 f"non-finite value at {_witness(x, bad)}")


def _domain_calls(node: Node) -> list:
    """The log and sqrt calls of a tree in evaluation order (arguments
    before the call, left operand before right)."""
    if isinstance(node, Binary):
        return _domain_calls(node.lhs) + _domain_calls(node.rhs)
    if isinstance(node, Neg):
        return _domain_calls(node.arg)
    if isinstance(node, Call):
        return _domain_calls(node.arg) + ([node] if node.fn in _DOMAIN else [])
    return []


class _Builder:
    """Straight-line code for a stack of expressions in n coordinates.

    A line is emitted once per template and arguments, so equal subtrees,
    which build equal lines, share one temporary. Subtrees without a
    coordinate are folded to NumPy float64 constants. Derivative lines
    apply the forward-mode rules term for term, one line per coordinate
    that the subtree depends on: d(a b) = da b + a db, d(a/b) =
    (da - (a/b) db)/b, d(a^c) = c a^(c-1) da (2 a da for c = 2), d(a^b) =
    a^b (db log a + b da/a), d sqrt(a) = da/(2 sqrt(a)), d log(a) = da/a,
    and f'(a) da for sin, cos, exp and tanh. A reference is the SSA name
    (str) of a line, a constant (float), or None for a derivative that is
    structurally zero; a line is (target or None, template, references).
    Nodes are memoized by identity, which is cheap; equality is left to the
    lines. Once `coords` is set to a tuple, coordinate i is the parameter
    coords[i] (a reference no line defines) instead of the column x[..., i].
    """

    def __init__(self, n: int):
        self.n = n
        self.coords = None
        self.lines = []   # the values
        self.dlines = []  # the derivatives, which read the values
        self.vals, self.dots, self.emitted = {}, {}, {}

    def emit(self, lines: list, template: str, *args) -> str:
        """The SSA name of a line, emitted once per template and arguments
        (constants compared by their bits)."""
        key = (template,) + tuple(a if isinstance(a, str) else float.hex(a)
                                  for a in args)
        if key not in self.emitted:
            self.emitted[key] = f"s{len(self.emitted)}"
            lines.append((self.emitted[key], template, args))
        return self.emitted[key]

    def binary(self, op: str, a, b, lines: Optional[list] = None):
        fn, symbol = _OPS[op]
        if isinstance(a, float) and isinstance(b, float):
            return fn(np.float64(a), b)
        return self.emit(self.dlines if lines is None else lines,
                         f"{{0}} {symbol} {{1}}", a, b)

    # derivative arithmetic: None is an exact zero, and x * 1.0 == x
    def add(self, a, b):
        return a if b is None else b if a is None else self.binary("+", a, b)

    def sub(self, a, b):
        if b is None:
            return a
        return self.neg(b) if a is None else self.binary("-", a, b)

    def neg(self, a):
        if isinstance(a, str):
            return self.emit(self.dlines, "-{0}", a)
        return None if a is None else -a

    def mul(self, a, b):
        if a is None or b is None:
            return None
        if isinstance(a, float) and a == 1.0:
            return b
        if isinstance(b, float) and b == 1.0:
            return a
        return self.binary("*", a, b)

    def div(self, a, b):
        return None if a is None else self.binary("/", a, b)

    def value(self, node: Node):
        if id(node) in self.vals:
            return self.vals[id(node)]
        if isinstance(node, Num):
            ref = node.value
        elif isinstance(node, Var):
            ref = (self.coords[node.index] if self.coords else
                   self.emit(self.lines, f"x[..., {node.index}]"))
        elif isinstance(node, Neg):
            a = self.value(node.arg)
            ref = -a if isinstance(a, float) else self.emit(self.lines,
                                                             "-{0}", a)
        elif isinstance(node, Binary):
            ref = self.binary(node.op, self.value(node.lhs),
                              self.value(node.rhs), self.lines)
        else:
            a = self.value(node.arg)
            ref = (_FUNCS[node.fn](a) if isinstance(a, float)
                   else self.emit(self.lines, f"{node.fn}({{0}})", a))
        self.vals[id(node)] = ref
        return ref

    def gradient(self, node: Node) -> tuple:
        if id(node) not in self.dots:
            if isinstance(self.value(node), float):
                d = (None,) * self.n
            elif isinstance(node, Var):
                d = tuple(1.0 if k == node.index else None
                          for k in range(self.n))
            elif isinstance(node, Neg):
                d = tuple(map(self.neg, self.gradient(node.arg)))
            elif isinstance(node, Binary):
                d = self._binary_gradient(node)
            else:
                d = self._call_gradient(node)
            self.dots[id(node)] = d
        return self.dots[id(node)]

    def _binary_gradient(self, node: Binary) -> tuple:
        a, b = self.value(node.lhs), self.value(node.rhs)
        da, db = self.gradient(node.lhs), self.gradient(node.rhs)
        op, q = node.op, self.value(node)
        if op == "+":
            return tuple(map(self.add, da, db))
        if op == "-":
            return tuple(map(self.sub, da, db))
        if op == "*":
            return tuple(self.add(self.mul(x, b), self.mul(a, y))
                         for x, y in zip(da, db))
        if op == "/":
            return tuple(self.div(self.sub(x, self.mul(q, y)), b)
                         for x, y in zip(da, db))
        if isinstance(b, float):  # a constant exponent
            f = (self.binary("*", 2.0, a) if b == 2 else
                 self.mul(b, self.binary("^", a, self.binary("-", b, 1.0))))
            return tuple(self.mul(f, x) for x in da)
        # a variable exponent: d(a^b) = a^b (db log a + b da / a)
        la = np.log(a) if isinstance(a, float) else self.emit(
            self.dlines, "log({0})", a)
        return tuple(self.mul(q, self.add(self.mul(y, la),
                                          self.mul(b, self.div(x, a))))
                     for x, y in zip(da, db))

    def _call_gradient(self, node: Call) -> tuple:
        a, da, v = self.value(node.arg), self.gradient(node.arg), self.value(node)
        if node.fn == "log":
            return tuple(self.div(x, a) for x in da)
        if node.fn == "sqrt":
            f = self.binary("*", 2.0, v)
            return tuple(self.div(x, f) for x in da)
        if node.fn == "sin":
            f = self.emit(self.dlines, "cos({0})", a)
        elif node.fn == "cos":
            f = self.emit(self.dlines, "-sin({0})", a)
        elif node.fn == "exp":
            f = v
        else:  # tanh
            f = self.emit(self.dlines, "{0} - {1} * {2}", 1.0, v, v)
        return tuple(self.mul(f, x) for x in da)


def _render(lines: list, constant, dialect: Optional[dict] = None,
            indent: str = "    ") -> str:
    """Statements running `lines` in order, one per line at `indent`. SSA
    names become registers r0, r1, ... and a register is reused once the
    last line reading its value has run, so temporaries are freed as a
    walk frees them; a name no line defines is a parameter and stays as it
    is; constant(c) names a constant, and `dialect` maps a template to the
    one to render instead."""
    last = {}
    for i, (_, _, args) in enumerate(lines):
        for a in args:
            if isinstance(a, str):
                last[a] = i
    regs, free, body, count = {}, [], [], 0
    for i, (target, template, args) in enumerate(lines):
        template = (dialect or {}).get(template, template)
        text = template.format(*(regs.get(a, a) if isinstance(a, str)
                                 else constant(a) for a in args))
        # in argument order, so the text does not depend on string hashing
        free.extend(dict.fromkeys(regs[a] for a in args if isinstance(a, str)
                                  and a in regs and last[a] == i))
        if target is not None:
            if not free:
                free.append(f"r{count}")
                count += 1
            regs[target] = free.pop()
            text = f"{regs[target]} = {text}"
        body.append(f"{indent}{text}\n")
    return "".join(body)


# The float rendering: functions from math, which raise where NumPy gives
# inf or NaN (ValueError out of the domain, OverflowError), and powers by
# math.pow, which raises where float ** float would give a complex number.
_FLOAT_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
                "log": math.log, "sqrt": math.sqrt, "tanh": math.tanh,
                "pow": math.pow, "isfinite": math.isfinite}
_FLOAT_DIALECT = {"{0} ** {1}": "pow({0}, {1})"}


def float_function(name: str, params: str, lines: list,
                   names: Optional[dict] = None, frame: Optional[str] = None):
    """The function `name`(params) running builder `lines` on Python
    floats, with constants as float literals and the global `names`. With
    `frame` given, the function's body is that text, in which the lines
    run at the place and indentation of its line `{body}` (inside loops,
    say). Lines that call no function run on NumPy arrays as they do on
    floats."""
    namespace = {**_FLOAT_FUNCS, **(names or {})}

    def constant(c) -> str:
        c = float(c)
        if not math.isfinite(c):
            label = f"k{len(namespace)}"
            namespace[label] = c
            return label
        return f"({c!r})" if math.copysign(1.0, c) < 0 else repr(c)

    if frame is None:
        body = _render(lines, constant, _FLOAT_DIALECT)
    else:
        at = re.search(r"^( *)\{body\}\n", frame, re.M)
        body = (frame[:at.start()]
                + _render(lines, constant, _FLOAT_DIALECT, at.group(1))
                + frame[at.end():])
    return _define(f"def {name}({params}):\n{body}", name, namespace)


def numpy_function(name: str, params: str, lines: list,
                   names: Optional[dict] = None):
    """The function `name`(params) running builder `lines` on NumPy arrays,
    with the functions of NumPy, each constant a named float64, and the
    global `names`."""
    namespace, labels = {**_FUNCS, **(names or {})}, {}

    def constant(c) -> str:
        label = labels.setdefault(id(c), f"k{len(labels)}")
        namespace[label] = c
        return label

    return _define(f"def {name}({params}):\n{_render(lines, constant)}",
                   name, namespace)


def _define(source: str, name: str, namespace: dict):
    """The function `name` defined by `source` in `namespace`, text kept."""
    exec(compile(source, "<generated>", "exec"), namespace)
    fn = namespace[name]
    fn.source = source
    return fn


def domain_tests(exprs: tuple, b: _Builder) -> tuple[list, list, str]:
    """(args, checks, test): the distinct arguments of the log and sqrt
    calls of a stack walked by builder b, each expression's calls in
    evaluation order as (function, index in args), and the condition, a
    template over args, that one is out of its domain ("True" when a
    constant one is, "False" when none can be)."""
    args, where, checks = [], {}, []
    for e in exprs:
        calls = []
        for call in _domain_calls(e.root):
            a = b.vals[id(call.arg)]
            key = a if isinstance(a, str) else id(a)
            if key not in where:
                where[key] = len(args)
                args.append(a)
            calls.append((call.fn, where[key]))
        checks.append(tuple(calls))
    calls = [c for calls in checks for c in calls]
    if any(_DOMAIN[fn][2](args[i], 0.0) for fn, i in calls
           if isinstance(args[i], float)):
        return args, checks, "True"
    tests = dict.fromkeys(f"({{{i}}} {_DOMAIN[fn][1]} 0.0).any()"
                          for fn, i in calls if isinstance(args[i], str))
    return args, checks, " or ".join(tests) or "False"


class Program:
    """A stack of expressions in the same coordinates compiled into one
    straight-line NumPy function (Griewank & Walther, Evaluating
    Derivatives, ch. 6: source transformation, whose value sweep is the
    prefix of its tangent sweep):

      gradients(x, val, grad)  the value lines, the gradient lines, then
                               val[..., j] and grad[..., j, i].

    It writes its results into the stacked arrays and returns None, or,
    when a log or sqrt argument left its domain somewhere (`domain_tests`),
    those arguments, from which the DomainError of the first bad
    expression is rebuilt. One finiteness check follows. `source` is the
    generated code.
    """

    def __init__(self, exprs: tuple):
        self.exprs = exprs
        self.n = n = exprs[0].n_vars
        b = _Builder(n)
        with np.errstate(all="ignore"):
            outs = [b.value(e.root) for e in exprs]
            grads = [b.gradient(e.root) for e in exprs]
        args, self._checks, test = domain_tests(exprs, b)
        ret = "return (" + "".join(f"{{{i}}}, " for i in range(len(args))) + ")"
        tail = [(None, f"if {test}:\n        {ret}", tuple(args))]
        writes = [(None, f"val[..., {j}] = {{0}}", (r,))
                  for j, r in enumerate(outs)]
        gwrites = [(None, f"grad[..., {j}, {k}] = {{0}}", (d,))
                   for j, ds in enumerate(grads) for k, d in enumerate(ds)
                   if d is not None]
        self._zeros = len(gwrites) < len(exprs) * n
        self._gradients = numpy_function("gradients", "x, val, grad", b.lines
                                         + b.dlines + writes + gwrites + tail)
        self.source = self._gradients.source

    def sweep(self, x: np.ndarray, dual: bool):
        """Values val[..., j] at x (..., n), and with dual=True gradients
        grad[..., j, i] (else None, and only the values checked finite),
        after the domain and finiteness checks: an out-of-domain argument
        raises DomainError after the finiteness check of the expressions
        before its own, so the first bad expression is the one named, as in
        evaluation order."""
        lead, k = x.shape[:-1], len(self.exprs)
        val = np.empty(lead + (k,))
        grad = (np.zeros if self._zeros else np.empty)(lead + (k, self.n))
        with np.errstate(all="ignore"):
            args = self._gradients(x, val, grad)
        grad = grad if dual else None
        if args is not None:
            for j, e in enumerate(self.exprs):
                for fn, i in self._checks[j]:
                    bad = _DOMAIN[fn][2](args[i], 0.0)
                    if np.any(bad):
                        _require_finite(self.exprs[:j], x, val[..., :j],
                                        None if grad is None
                                        else grad[..., :j, :])
                        raise DomainError(f"{_DOMAIN[fn][0]} in {e.source!r}"
                                          f" at {_witness(x, bad)}")
        _require_finite(self.exprs, x, val, grad)
        return val, grad


@functools.lru_cache(maxsize=64)
def _compiled(stack: tuple) -> Program:
    return Program(stack)


def compile_stack(e) -> Program:
    """The program of an expression or a stack of expressions (a program
    is its own), from a bounded memo keyed on the expressions; a field
    looks its program up once and passes it to every sweep."""
    return e if isinstance(e, Program) else _compiled(_stack(e))


def evaluate(e, x) -> float | np.ndarray:
    """Evaluate at a point (n,) or a batch of points (..., n).

    `e` is an expression, giving a float or an array (...), or a stack (a
    sequence or a Program) of k expressions in the same coordinates, giving
    an array (..., k) from one sweep.
    """
    val = compile_stack(e).sweep(np.asarray(x, dtype=float), dual=False)[0]
    if not isinstance(e, Expression):
        return val
    return float(val[0]) if val.ndim == 1 else val[..., 0]


def evaluate_dual(e, x) -> tuple:
    """Value and gradient [..., i] = d/dx^i at a point (n,) or a batch of
    points (..., n); for a stack of k expressions, values (..., k) and
    gradients (..., k, i) from one sweep. The values are those `evaluate`
    gives, bit for bit: both run the stack's one program.
    """
    val, grad = compile_stack(e).sweep(np.asarray(x, dtype=float), dual=True)
    if not isinstance(e, Expression):
        return val, grad
    if val.ndim == 1:
        return float(val[0]), grad[0]
    return val[..., 0], grad[..., 0, :]
