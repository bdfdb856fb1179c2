"""One-variable closed-form expressions: parsing, evaluation, symbolic derivative.

The grammar covers everything needed to write curvature/torsion laws on the
command line or in config files:

    expr   := unary (('+'|'-'|'*'|'/') unary)*    # left-associative
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 'pi' | 's' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sin | cos | tan | sqrt | abs | exp
    NUMBER := (D+ ('.' D*)? | '.' D+) ([eE] [+-]? D+)?    # D is an ASCII digit

'*' and '/' bind tighter than '+' and '-', and '^' tighter than unary
minus, so "-s^2" is -(s^2); ``_PREC`` holds these levels.  A name is a
letter or '_' followed by letters, digits and '_'.  Function application
requires parentheses.  Whitespace is insignificant.  'pi' is the number
Num(math.pi), and prints as 3.141592653589793.

Besides the parsed nodes, a tree may hold ``Samples``, a function sampled on
a uniform grid, so a sampled profile is read, differentiated and combined
by the same rules as a written one.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, Union

import numpy as np

from .liegroup import cubic_interp, sg_derivative

_FUNCTIONS = ("sin", "cos", "tan", "sqrt", "abs", "exp")


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class DomainError(ArithmeticError):
    """Evaluation left the real domain (sqrt of negative, division by zero, ...)."""

    def __init__(self, subterm: "Expr", s):
        first = np.ravel(np.asarray(s))[0] if np.ndim(s) else s
        super().__init__(f"domain error in '{to_text(subterm)}' near s={float(first)!r}")
        self.subterm = subterm
        self.s = s


class DifferentiationError(ValueError):
    pass


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    """The variable s."""


class Samples(NamedTuple):
    """Values on the uniform grid ``s``: read between the nodes by the
    4-point cubic, differentiated by the window-5 least-squares filter."""
    s: np.ndarray
    values: np.ndarray


class Unary(NamedTuple):
    op: str  # 'neg' or a function name
    arg: "Expr"


class Binary(NamedTuple):
    op: str  # '+', '-', '*', '/', '^'
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Samples, Unary, Binary]


# ---------------------------------------------------------------------------
# parsing

# The one precedence table: the parser climbs it and the printer wraps by it.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}

# A number takes ASCII digits only: not \d or str.isdigit, which also hold
# for "²" and "٣".  \w and \s are str.isalnum (or "_") and str.isspace.
_TOKEN = re.compile(r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<name>\w+)|(?P<op>[-+*/^()])|\s+")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        # a name starts with a letter or "_", so "²" starts no token
        if m is None or (m.lastgroup == "name" and not (text[i].isalpha() or text[i] == "_")):
            raise ExpressionSyntaxError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup is not None:
            kind = m[0] if m.lastgroup == "op" else m.lastgroup
            tokens.append((kind, m[0], i))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        if self.peek()[0] == "end":
            raise ExpressionSyntaxError("empty expression", 0)
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return e

    def expr(self, floor: int = 0) -> Expr:
        """Unary operands joined by the left-associative operators, those
        that bind looser than unary minus (precedence climbing): an operator
        joins here when its precedence is at least floor, and its right
        operand holds only operators that bind tighter."""
        left = self.unary()
        while (op := self.peek()[0]) in _PREC and floor <= _PREC[op] < _PREC["neg"]:
            self.advance()
            left = Binary(op, left, self.expr(_PREC[op] + 1))
        return left

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExpressionSyntaxError(f"number {text!r} is out of range", offset)
            return Num(value)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            if text == "pi":
                return Num(math.pi)
            if text == "s":
                return Var()
            if text in _FUNCTIONS:
                nxt = self.peek()
                if nxt[0] != "(":
                    raise ExpressionSyntaxError(
                        f"function {text!r} requires parentheses", nxt[2])
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Unary(text, arg)
            raise ExpressionSyntaxError(f"unknown identifier {text!r}", offset)
        raise ExpressionSyntaxError(f"unexpected {text!r}", offset)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

# Inside evaluate, overflow, invalid operations and division by zero raise
# FloatingPointError.  Every leaf is finite (numbers, samples, and s, which
# is checked once per call), and from finite operands a value leaves the
# reals only through one of those faults, so no node scans its result; a
# fault is traced back to its first s by _apply.  Underflow yields a finite
# value and is ignored.  _eval still checks sqrt of a negative, x/0 and a
# fractional power of a base <= 0 itself: each names the first s that breaks
# its own rule, which can precede the first non-finite value, and 0^0.5
# raises no fault at all.

_TRAPS = {"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"}

_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
           "^": np.power, "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp}


def evaluate(e: Expr, s):
    """Evaluate at a scalar or ndarray ``s``.  IEEE doubles throughout; any
    excursion out of the real domain raises DomainError instead of producing
    NaN or inf, and so does a non-finite ``s``."""
    arraylike = np.ndim(s) > 0
    s = np.asarray(s, dtype=float) if arraylike else float(s)
    if not np.isfinite(s).all():
        raise DomainError(e, _where(s, _not_finite, s))
    with np.errstate(**_TRAPS):
        value = _eval(e, s)
    if arraylike and np.ndim(value) == 0:
        value = np.full(s.shape, float(value))
    return value


def _eval(e: Expr, s):
    if isinstance(e, Num):
        if not math.isfinite(e.value):
            raise DomainError(e, s)
        return e.value
    if isinstance(e, Var):
        return s
    if isinstance(e, Samples):
        if not np.isfinite(e.values).all():
            raise DomainError(e, s)
        return _apply(e, s, e.s, e.values, s)
    if isinstance(e, Unary):
        v = _eval(e.arg, s)
        if e.op == "neg":
            return -v
        if e.op == "sqrt":
            if (np.asarray(v) < 0).any():
                raise DomainError(e, _where(v, lambda x: x < 0, s))
            return np.sqrt(v)
        if e.op == "abs":
            return np.abs(v)
        return _apply(e, s, v)
    if isinstance(e, Binary):
        a = _eval(e.left, s)
        b = _eval(e.right, s)
        if e.op == "/":
            if (np.asarray(b) == 0).any():
                raise DomainError(e, _where(b, lambda x: x == 0, s))
        elif e.op == "^":
            # integer exponents work for any base; fractional ones need base > 0
            ev = np.asarray(b)
            if not (ev == np.floor(ev)).all() and (np.asarray(a) <= 0).any():
                raise DomainError(e, _where(a, lambda x: x <= 0, s))
        return _apply(e, s, a, b)
    raise TypeError(f"not an expression node: {e!r}")


def _apply(node: Expr, s, *args):
    """The ufunc of ``node`` on ``args``, under the traps of evaluate.  A
    trapped fault raises the DomainError of the first s whose value is not
    finite."""
    fn = cubic_interp if isinstance(node, Samples) else _UFUNCS[node.op]
    try:
        return fn(*args)
    except FloatingPointError:
        pass
    with np.errstate(all="ignore"):
        value = fn(*args)
    # a raised flag with every value finite is not a domain error
    if np.isfinite(value).all():
        return value
    raise DomainError(node, _where(value, _not_finite, s))


def _not_finite(x):
    return ~np.isfinite(x)


def _where(v, pred, s):
    if np.ndim(v) == 0 or np.ndim(s) == 0:
        return s
    mask = pred(np.asarray(v))
    return np.asarray(s)[mask][0]


# ---------------------------------------------------------------------------
# symbolic derivative

def is_constant(e: Expr) -> bool:
    if isinstance(e, Num):
        return True
    if isinstance(e, (Var, Samples)):
        return False
    if isinstance(e, Unary):
        return is_constant(e.arg)
    return is_constant(e.left) and is_constant(e.right)


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative, closed under the grammar.

    abs is differentiated as (u/abs(u))*u', undefined exactly at zeros of u
    (evaluation there raises DomainError).  Powers require a constant
    exponent; the grammar has no logarithm so u^v with v depending on s has
    no in-grammar derivative.  Samples differentiate by the window-5 filter
    of ``liegroup.sg_derivative``.
    """
    return simplify(_diff(e))


def _diff(e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Samples):
        return Samples(e.s, sg_derivative(e.values, e.s[1] - e.s[0], 5))
    if isinstance(e, Unary):
        du = _diff(e.arg)
        u = e.arg
        if e.op == "neg":
            return Unary("neg", du)
        if e.op == "sin":
            return Binary("*", Unary("cos", u), du)
        if e.op == "cos":
            return Binary("*", Unary("neg", Unary("sin", u)), du)
        if e.op == "tan":
            sq = Binary("^", Unary("tan", u), Num(2.0))
            return Binary("*", Binary("+", Num(1.0), sq), du)
        if e.op == "sqrt":
            return Binary("/", du, Binary("*", Num(2.0), Unary("sqrt", u)))
        if e.op == "exp":
            return Binary("*", Unary("exp", u), du)
        if e.op == "abs":
            sign = Binary("/", u, Unary("abs", u))
            return Binary("*", sign, du)
    if isinstance(e, Binary):
        u, v = e.left, e.right
        if e.op in ("+", "-"):
            return Binary(e.op, _diff(u), _diff(v))
        if e.op == "*":
            return Binary("+", Binary("*", _diff(u), v), Binary("*", u, _diff(v)))
        if e.op == "/":
            num = Binary("-", Binary("*", _diff(u), v), Binary("*", u, _diff(v)))
            return Binary("/", num, Binary("^", v, Num(2.0)))
        if e.op == "^":
            if not is_constant(v):
                raise DifferentiationError(
                    "exponent depends on s; derivative leaves the grammar")
            c = evaluate(v, 0.0)
            return Binary("*",
                          Binary("*", Num(float(c)), Binary("^", u, Num(float(c) - 1.0))),
                          _diff(u))
    raise TypeError(f"not an expression node: {e!r}")


def simplify(e: Expr) -> Expr:
    """Constant folding and zero/one elimination only."""
    if isinstance(e, (Num, Var, Samples)):
        return e
    if isinstance(e, Unary):
        arg = simplify(e.arg)
        if e.op == "neg":
            if isinstance(arg, Num):
                return Num(-arg.value)
            if isinstance(arg, Unary) and arg.op == "neg":
                return arg.arg
        elif isinstance(arg, Num):
            try:
                return Num(float(evaluate(Unary(e.op, arg), 0.0)))
            except DomainError:
                pass
        return Unary(e.op, arg)
    a = simplify(e.left)
    b = simplify(e.right)
    if isinstance(a, Num) and isinstance(b, Num):
        try:
            return Num(float(evaluate(Binary(e.op, a, b), 0.0)))
        except DomainError:
            pass
    if e.op == "+":
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
    elif e.op == "-":
        if _is_zero(b):
            return a
        if _is_zero(a):
            return simplify(Unary("neg", b))
    elif e.op == "*":
        if _is_zero(a) or _is_zero(b):
            return Num(0.0)
        if _is_one(a):
            return b
        if _is_one(b):
            return a
    elif e.op == "/":
        if _is_zero(a) and not _is_zero(b):
            return Num(0.0)
        if _is_one(b):
            return a
    elif e.op == "^":
        if _is_one(b):
            return a
        if _is_zero(b):
            return Num(1.0)
    return Binary(e.op, a, b)


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 1.0


# ---------------------------------------------------------------------------
# printing


def to_text(e: Expr) -> str:
    """Render to text that reparses to an evaluation-equivalent tree, unless
    the tree holds Samples: they print as a placeholder, ``samples[n]`` for
    n values, which names them in messages and does not reparse."""
    return _fmt(e, 0)


def _fmt(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        if e.value >= 0:
            text = repr(e.value)
            return text
        return _wrap(repr(e.value), _PREC["neg"], parent_prec)
    if isinstance(e, Var):
        return "s"
    if isinstance(e, Samples):
        return f"samples[{len(e.values)}]"
    if isinstance(e, Unary):
        if e.op == "neg":
            return _wrap("-" + _fmt(e.arg, _PREC["neg"]), _PREC["neg"], parent_prec)
        return f"{e.op}({_fmt(e.arg, 0)})"
    prec = _PREC[e.op]
    if e.op == "^":
        # right-associative; left operand needs parens at equal precedence
        text = f"{_fmt(e.left, prec + 1)}^{_fmt(e.right, prec)}"
    elif e.op in ("-", "/"):
        text = f"{_fmt(e.left, prec)}{e.op}{_fmt(e.right, prec + 1)}"
    else:
        text = f"{_fmt(e.left, prec)}{e.op}{_fmt(e.right, prec)}"
    return _wrap(text, prec, parent_prec)


def _wrap(text: str, prec: int, parent_prec: int) -> str:
    return f"({text})" if prec < parent_prec else text


def ensure_expr(e) -> Expr:
    """Accept an Expr or expression text."""
    if isinstance(e, str):
        return parse(e)
    if isinstance(e, Expr):
        return e
    # bool is an int, but True is no curvature
    if isinstance(e, (int, float)) and not isinstance(e, bool):
        if not math.isfinite(e):
            raise ValueError(f"constant {e!r} is not finite")
        return Num(float(e))
    raise TypeError(f"cannot interpret {e!r} as an expression")
