"""Tiny closed expression language for metric entries, winds, and curves.

Grammar (binding tightest first):  ^  (right-assoc),  unary -,  * /,  + -.
Atoms are float literals, coordinates x1..xn, the constants pi and e, the
single-argument functions sin cos exp log sqrt tanh, and parentheses.

Expressions evaluate over plain floats, numpy arrays (batched points), and
dual numbers; the same tree serves values and gradients. No symbolic
rewriting, no code generation: a recursive walk per expression. A stack of
expressions (a metric's upper triangle plus a wind, say) is evaluated in one
sweep that writes every walk straight into one stacked value array (and one
gradient array), shares a cached read-only table of derivative seeds, enters
one errstate and runs one finiteness check; only a failed check goes back
for the first bad expression and point. A single expression is a stack of
one, so at a batch of one the sweep costs little more than its walks.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import numkernel as nk
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

class _Parser:
    def __init__(self, text: str, var_names: tuple[str, ...]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = {name: i for i, name in enumerate(var_names)}

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

    def parse(self) -> Node:
        node = self.sum_()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return node

    def sum_(self) -> Node:
        node = self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = Binary(op, node, self.product())
        return node

    def product(self) -> Node:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            # right-associative; exponent may carry its own unary minus
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> Node:
        tok = self.advance()
        kind, text, off = tok
        if kind == "num":
            return Num(float(text))
        if kind == "(":
            node = self.sum_()
            self.expect(")")
            return node
        if kind == "ident":
            if text in FUNCTION_NAMES:
                if self.peek()[0] != "(":
                    raise ArityError(f"function {text!r} takes exactly one argument", off)
                self.advance()
                if self.peek()[0] == ")":
                    raise ArityError(f"function {text!r} takes exactly one argument", off)
                arg = self.sum_()
                if self.peek()[0] == ",":
                    raise ArityError(f"function {text!r} takes exactly one argument", self.peek()[2])
                self.expect(")")
                return Call(text, arg)
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
# evaluation

class _OutOfDomain(Exception):
    """Raised inside a walk with (message, mask of the offending entries)."""


def _apply(fn: str, arg):
    v = nk.value_of(arg)
    if fn == "log":
        if np.any(v <= 0.0):
            raise _OutOfDomain("log of a nonpositive value", v <= 0.0)
        return nk.log(arg)
    if fn == "sqrt":
        if np.any(v < 0.0):
            raise _OutOfDomain("sqrt of a negative value", v < 0.0)
        return nk.sqrt(arg)
    if fn == "sin":
        return nk.sin(arg)
    if fn == "cos":
        return nk.cos(arg)
    if fn == "exp":
        return nk.exp(arg)
    return nk.tanh(arg)


def _eval(node: Node, coords: tuple):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return coords[node.index]
    if isinstance(node, Binary):
        a = _eval(node.lhs, coords)
        b = _eval(node.rhs, coords)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        return a ** b
    if isinstance(node, Neg):
        return -_eval(node.arg, coords)
    return _apply(node.fn, _eval(node.arg, coords))


def _witness(x: np.ndarray, bad) -> str:
    """The first point of the batch x (..., n) at which `bad` holds."""
    first = np.argwhere(np.broadcast_to(bad, x.shape[:-1]))[0]
    return f"point {x[tuple(first)].tolist()}"


def _stack(e) -> tuple:
    """An expression as a stack of one; a stack as a tuple."""
    return (e,) if isinstance(e, Expression) else tuple(e)


@functools.lru_cache(maxsize=None)
def _seeds(n: int, rank: int) -> np.ndarray:
    """Derivative slots e_i of n coordinates on a leading axis ahead of
    `rank` batch axes; shared by every sweep, so read-only. The keys are
    few (2 <= n <= 4 and the batch ranks in use), so the cache stays small."""
    seeds = np.eye(n).reshape((n, n) + (1,) * rank)
    seeds.flags.writeable = False
    return seeds


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


def _sweep(exprs: tuple, x: np.ndarray, dual: bool):
    """Values val[..., j] of a stack of expressions at x (..., n), and with
    dual=True gradients grad[..., j, i] (else None), written straight into
    the two stacked arrays: one walk per expression under one errstate, one
    finiteness check. An out-of-domain walk raises DomainError after the
    finiteness check of the expressions before it, so the first bad
    expression is the one named, as with one call per expression."""
    n, lead = exprs[0].n_vars, x.shape[:-1]
    val = np.empty(lead + (len(exprs),))
    grad = slots = None
    if dual:
        seeds = _seeds(n, len(lead))
        coords = tuple(nk.Dual(x[..., i], seeds[i]) for i in range(n))
        grad = np.empty(lead + (len(exprs), n))
        slots = np.moveaxis(grad, -1, 0)  # the derivative axis first, as in dot
    else:
        coords = tuple(x[..., i] for i in range(n))
    with np.errstate(all="ignore"):
        for j, e in enumerate(exprs):
            try:
                raw = _eval(e.root, coords)
            except _OutOfDomain as exc:
                _require_finite(exprs[:j], x, val[..., :j],
                                None if grad is None else grad[..., :j, :])
                what, bad = exc.args
                raise DomainError(f"{what} in {e.source!r} at "
                                  f"{_witness(x, bad)}") from None
            if isinstance(raw, nk.Dual):
                val[..., j], slots[..., j] = raw.val, raw.dot
            else:
                val[..., j] = raw
                if dual:  # constant tree: no slot was touched
                    slots[..., j] = 0.0
    _require_finite(exprs, x, val, grad)
    return val, grad


def evaluate(e, x) -> float | np.ndarray:
    """Evaluate at a point (n,) or a batch of points (..., n).

    `e` is an expression, giving a float or an array (...), or a stack (a
    sequence) of k expressions in the same coordinates, giving an array
    (..., k) from one sweep.
    """
    val = _sweep(_stack(e), np.asarray(x, dtype=float), dual=False)[0]
    if not isinstance(e, Expression):
        return val
    return float(val[0]) if val.ndim == 1 else val[..., 0]


def evaluate_dual(e, x) -> tuple:
    """Value and gradient [..., i] = d/dx^i at a point (n,) or a batch of
    points (..., n), from one walk of the tree; for a stack of k
    expressions, values (..., k) and gradients (..., k, i) from one sweep.

    Coordinate i enters as a dual number whose derivative slot is the unit
    vector e_i held on a *leading* axis (`dot` has shape (n,) + batch), so
    the dual arithmetic and the elementary functions broadcast unchanged.
    """
    val, grad = _sweep(_stack(e), np.asarray(x, dtype=float), dual=True)
    if not isinstance(e, Expression):
        return val, grad
    if val.ndim == 1:
        return float(val[0]), grad[0]
    return val[..., 0], grad[..., 0, :]
