"""Small expression DSL for mode dynamics: parsing, evaluation, symbolic
partial derivatives.

Grammar:
    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := ("-")? atom ("^" integer)?
    atom   := number | "x"integer | func "(" expr ")" | "(" expr ")"
    func   := sin | cos | exp | tanh
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial

import numpy as np

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
}


class ParseError(ValueError):
    """Syntax error with the offending position in the source text."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.pos = pos


class EvaluationError(ArithmeticError):
    """Non-finite intermediate value, reported with the offending subexpression."""


class Expr:
    """Base expression node. Instances are immutable and hashable."""

    def evaluate(self, x: np.ndarray):
        """Evaluate at a point of shape (n,) or a batch of shape (m, n)."""
        raise NotImplementedError

    def diff(self, index: int) -> "Expr":
        """Symbolic partial derivative with respect to x{index} (1-based)."""
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    # constants are equal when they render alike: 0.0 and -0.0 differ (a
    # kernel compiled for one mode must not serve a mode equal up to the sign
    # of a zero), nan equals nan
    def __eq__(self, other):
        return isinstance(other, Const) and repr(self.value) == repr(other.value)

    def __hash__(self):
        return hash(repr(self.value))

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.full(x.shape[0], self.value)
        return self.value

    def diff(self, index):
        return Const(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., self.index - 1]

    def diff(self, index):
        return Const(1.0 if index == self.index else 0.0)

    def __str__(self):
        return f"x{self.index}"


def _is_const(e: Expr, value=None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr

    def evaluate(self, x):
        return self.left.evaluate(x) + self.right.evaluate(x)

    def diff(self, index):
        return add(self.left.diff(index), self.right.diff(index))

    def __str__(self):
        return f"{self.left} + {_wrap(self.right, (Add, Sub))}"


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr

    def evaluate(self, x):
        return self.left.evaluate(x) - self.right.evaluate(x)

    def diff(self, index):
        return sub(self.left.diff(index), self.right.diff(index))

    def __str__(self):
        return f"{self.left} - {_wrap(self.right, (Add, Sub))}"


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr

    def evaluate(self, x):
        return self.left.evaluate(x) * self.right.evaluate(x)

    def diff(self, index):
        return add(
            mul(self.left.diff(index), self.right),
            mul(self.left, self.right.diff(index)),
        )

    def __str__(self):
        return f"{_wrap(self.left, (Add, Sub))}*{_wrap(self.right, (Add, Sub, Mul, Div))}"


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def evaluate(self, x):
        num = self.left.evaluate(x)
        den = self.right.evaluate(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den

    def diff(self, index):
        return div(
            sub(
                mul(self.left.diff(index), self.right),
                mul(self.left, self.right.diff(index)),
            ),
            mul(self.right, self.right),
        )

    def __str__(self):
        return f"{_wrap(self.left, (Add, Sub))}/{_wrap(self.right, (Add, Sub, Mul, Div))}"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def evaluate(self, x):
        base = self.base.evaluate(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.power(base, float(self.exponent))

    def diff(self, index):
        n = self.exponent
        if n == 0:
            return Const(0.0)
        inner = self.base.diff(index)
        if n == 1:
            return inner
        if n == 2:
            outer = mul(Const(float(n)), self.base)
        else:
            outer = mul(Const(float(n)), Pow(self.base, n - 1))
        return mul(outer, inner)

    def __str__(self):
        return f"{_wrap(self.base, (Add, Sub, Mul, Div, Neg, Pow))}^{self.exponent}"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def evaluate(self, x):
        return -self.arg.evaluate(x)

    def diff(self, index):
        return neg(self.arg.diff(index))

    def __str__(self):
        return f"-{_wrap(self.arg, (Add, Sub, Mul, Div, Neg))}"


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def evaluate(self, x):
        return FUNCTIONS[self.func](self.arg.evaluate(x))

    def diff(self, index):
        inner = self.arg.diff(index)
        if self.func == "sin":
            outer: Expr = Call("cos", self.arg)
        elif self.func == "cos":
            outer = neg(Call("sin", self.arg))
        elif self.func == "exp":
            outer = Call("exp", self.arg)
        elif self.func == "tanh":
            outer = sub(Const(1.0), Pow(Call("tanh", self.arg), 2))
        else:  # pragma: no cover - FUNCTIONS is closed
            raise ValueError(f"unknown function {self.func}")
        return mul(outer, inner)

    def __str__(self):
        return f"{self.func}({self.arg})"


def _wrap(e: Expr, kinds) -> str:
    return f"({e})" if isinstance(e, kinds) else str(e)


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", text, pos)
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", self.text, pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {value!r}", self.text, pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                e = Add(e, rhs) if value == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                e = Mul(e, rhs) if value == "*" else Div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        negated = kind == "op" and value == "-"
        if negated:
            self.advance()
        e = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            sign = 1
            kind, value, pos = self.peek()
            if kind == "op" and value == "-":
                sign = -1
                self.advance()
                kind, value, pos = self.peek()
            if kind != "number" or not value.isdigit():
                raise ParseError("expected integer exponent after '^'", self.text, pos)
            self.advance()
            e = Pow(e, sign * int(value))
        return Neg(e) if negated else e

    def atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "number":
            return Const(float(value))
        if kind == "name":
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= self.n:
                    raise ParseError(
                        f"variable x{index} out of range for dimension {self.n}",
                        self.text,
                        pos,
                    )
                return Var(index)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown identifier {value!r}", self.text, pos)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {value!r}", self.text, pos)


def parse_expr(text: str, n: int) -> Expr:
    """Parse an expression over variables x1..xn."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return _Parser(text, n).parse()


def differentiate(e: Expr, index: int) -> Expr:
    """Symbolic partial derivative d e / d x{index} with light constant folding."""
    if index < 1:
        raise ValueError("variable index must be 1-based and positive")
    return e.diff(index)


def _children(e: Expr) -> list:
    return [c for c in (getattr(e, f) for f in e.__dataclass_fields__) if isinstance(c, Expr)]


def _find_nonfinite(e: Expr, x) -> Expr:
    for sub_e in _children(e):
        found = _find_nonfinite(sub_e, x)
        if found is not None:
            return found
    value = e.evaluate(x)
    if not np.all(np.isfinite(value)):
        return e
    return None


def evaluate_checked(e: Expr, x):
    """Evaluate and raise EvaluationError naming the first non-finite subexpression."""
    value = e.evaluate(x)
    if not np.all(np.isfinite(np.asarray(value))):
        culprit = _find_nonfinite(e, x)
        raise EvaluationError(f"non-finite value in subexpression {culprit}")
    return value


def to_python_source(e: Expr, var: str = "x[{}]", names=None, numpy: bool = False) -> str:
    """Render an expression as scalar Python source, using the math module for
    the function set; variable x{i} becomes var.format(i - 1) (x[0].. by
    default, locals x0.. with "x{}"), and a subexpression whose plain source
    is a key of `names` the local named by its value. With numpy=True the
    functions are numpy's ufuncs and x^n is np.power(x, float(n)), the
    operations of Expr.evaluate, so the source evaluates ndarrays to the same
    bits. Used to compile the hot evaluation paths (the integrators' kernels,
    the batched Jacobian); the AST evaluator remains the reference."""
    if names and (name := names.get(to_python_source(e, var))):
        return name
    r = partial(to_python_source, var=var, names=names, numpy=numpy)
    if isinstance(e, Const):
        # the generated kernels see only the math module, not inf or nan
        if math.isnan(e.value):
            return "math.nan"
        if math.isinf(e.value):
            return "math.inf" if e.value > 0 else "(-math.inf)"
        return repr(e.value)
    if isinstance(e, Var):
        return var.format(e.index - 1)
    if isinstance(e, Add):
        return f"({r(e.left)} + {r(e.right)})"
    if isinstance(e, Sub):
        return f"({r(e.left)} - {r(e.right)})"
    if isinstance(e, Mul):
        return f"({r(e.left)} * {r(e.right)})"
    if isinstance(e, Div):
        return f"({r(e.left)} / {r(e.right)})"
    if isinstance(e, Neg):
        return f"(-{r(e.arg)})"
    if isinstance(e, Pow):
        if numpy:
            return f"np.power({r(e.base)}, {float(e.exponent)!r})"
        return f"({r(e.base)} ** {e.exponent})"
    if isinstance(e, Call):
        return f"{'np' if numpy else 'math'}.{e.func}({r(e.arg)})"
    raise TypeError(f"unknown expression node {type(e).__name__}")


def to_python_statements(exprs, targets, var: str = "x[{}]", numpy: bool = False) -> list[str]:
    """Render `target = expr` for each pair as straight-line Python statements
    (`var` and `numpy` as in to_python_source). A non-constant subexpression
    that occurs more than once (not counting repeats inside a repeat) is
    computed once, into a local _s0, _s1, .. Constant-only subtrees stay
    inline for CPython to fold. A subexpression is named by its plain source,
    so the operations and every target's value are those of
    to_python_source's rendering."""
    counts: dict = {}
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, Var) or "@" not in to_python_source(e, "@{}"):
            continue  # a variable, or a subtree without variables
        key = to_python_source(e, var)
        counts[key] = counts.get(key, 0) + 1
        if counts[key] == 1:
            stack += _children(e)
    names: dict = {}
    lines = []
    for target, e in zip(targets, exprs):
        # post-order, so a shared subexpression is named after those inside it
        stack = [(e, False)]
        while stack:
            node, expanded = stack.pop()
            key = to_python_source(node, var)
            if key in names:
                continue
            if not expanded:
                stack += [(node, True)] + [(c, False) for c in reversed(_children(node))]
            elif counts.get(key, 0) > 1:
                name = f"_s{len(names)}"
                lines.append(f"{name} = {to_python_source(node, var, names, numpy)}")
                names[key] = name
        lines.append(f"{target} = {to_python_source(e, var, names, numpy)}")
    return lines
