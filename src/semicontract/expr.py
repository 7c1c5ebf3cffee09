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
import weakref

import numpy as np

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
}
# Deepest expression tree (a leaf is one level) and deepest parenthesis
# nesting accepted: CPython compiles at most 200 nested parentheses, and
# to_python_source renders each tree level as at most one parenthesis level.
MAX_DEPTH = 200


class ParseError(ValueError):
    """Syntax error with the offending position in the source text."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.pos = pos


class EvaluationError(ArithmeticError):
    """Non-finite intermediate value, reported with the offending subexpression."""


_LIVE: dict = {}  # intern key -> weak reference to the one live node with that key


def _forget(ref, key) -> None:
    if _LIVE.get(key) is ref:  # not the entry of a newer node with the key
        del _LIVE[key]


class Expr:
    """Base expression node. Nodes are interned and immutable: building a node
    equal to a live one returns that one, so equality and hashing are
    identity. A node's fields are its class's __slots__, and it stores the
    levels of its tree, a leaf being one, as depth."""

    __slots__ = ("depth", "__weakref__")

    def __new__(cls, *fields):
        # children are keyed by identity; a constant by its repr, so 0.0 and
        # -0.0 are two nodes (a kernel compiled for one mode must not serve a
        # mode equal up to the sign of a zero) and every nan is one node
        key = (cls, repr(fields[0])) if cls is Const else (cls, *fields)
        ref = _LIVE.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "depth", 1 + max(
                (f.depth for f in fields if isinstance(f, Expr)), default=0))
            _LIVE[key] = weakref.ref(node, lambda dead, key=key: _forget(dead, key))
        return node

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copies and unpickled nodes are interned too
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.__reduce__()[1]))})"

    def evaluate(self, x: np.ndarray):
        """Evaluate at a point of shape (n,) or a batch of shape (m, n)."""
        raise NotImplementedError

    def diff(self, index: int) -> "Expr":
        """Symbolic partial derivative with respect to x{index} (1-based)."""
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError


class Const(Expr):
    __slots__ = ("value",)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.full(x.shape[0], self.value)
        return self.value

    def diff(self, index):
        return Const(0.0)

    def __str__(self):
        return repr(self.value)


class Var(Expr):
    __slots__ = ("index",)  # index is 1-based

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


class Add(Expr):
    __slots__ = ("left", "right")

    def evaluate(self, x):
        return self.left.evaluate(x) + self.right.evaluate(x)

    def diff(self, index):
        return add(self.left.diff(index), self.right.diff(index))

    def __str__(self):
        return f"{self.left} + {_wrap(self.right, (Add, Sub))}"


class Sub(Expr):
    __slots__ = ("left", "right")

    def evaluate(self, x):
        return self.left.evaluate(x) - self.right.evaluate(x)

    def diff(self, index):
        return sub(self.left.diff(index), self.right.diff(index))

    def __str__(self):
        return f"{self.left} - {_wrap(self.right, (Add, Sub))}"


class Mul(Expr):
    __slots__ = ("left", "right")

    def evaluate(self, x):
        return self.left.evaluate(x) * self.right.evaluate(x)

    def diff(self, index):
        return add(
            mul(self.left.diff(index), self.right),
            mul(self.left, self.right.diff(index)),
        )

    def __str__(self):
        return f"{_wrap(self.left, (Add, Sub))}*{_wrap(self.right, (Add, Sub, Mul, Div))}"


class Div(Expr):
    __slots__ = ("left", "right")

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


class Pow(Expr):
    __slots__ = ("base", "exponent")

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
        outer = mul(Const(float(n)), self.base if n == 2 else Pow(self.base, n - 1))
        return mul(outer, inner)

    def __str__(self):
        return f"{_wrap(self.base, (Add, Sub, Mul, Div, Neg, Pow))}^{self.exponent}"


class Neg(Expr):
    __slots__ = ("arg",)

    def evaluate(self, x):
        return -self.arg.evaluate(x)

    def diff(self, index):
        return neg(self.arg.diff(index))

    def __str__(self):
        return f"-{_wrap(self.arg, (Add, Sub, Mul, Div, Neg))}"


class Call(Expr):
    __slots__ = ("func", "arg")

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
            raise ParseError(f"unexpected character {stripped[0]!r}", text,
                             len(text) - len(stripped))
        kind = m.lastgroup  # the one group that matched: number, name or op
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0

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

    # a nesting level costs three frames (expr -> factor -> atom -> expr), so
    # the MAX_DEPTH levels that atom accepts stay well inside the recursion limit
    def expr(self) -> Expr:
        e, op = None, None
        while True:
            term = self.factor()
            kind, value, _ = self.peek()
            while kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                term = Mul(term, rhs) if value == "*" else Div(term, rhs)
                kind, value, _ = self.peek()
            e = term if op is None else Add(e, term) if op == "+" else Sub(e, term)
            if kind != "op" or value not in "+-":
                return e
            op = value
            self.advance()

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
        func = None
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
            if value not in FUNCTIONS:
                raise ParseError(f"unknown identifier {value!r}", self.text, pos)
            func = value
            _, _, pos = self.expect_op("(")
        elif kind != "op" or value != "(":
            raise ParseError(f"unexpected token {value!r}", self.text, pos)
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"parentheses nested more than {MAX_DEPTH} deep", self.text, pos)
        e = self.expr()
        self.expect_op(")")
        self.nesting -= 1
        return Call(func, e) if func else e


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
    return [c for c in (getattr(e, f) for f in e.__slots__) if isinstance(c, Expr)]


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


def to_python_source(e: Expr, var: str = "x[{}]", numpy: bool = False, args=None) -> str:
    """Render an expression as scalar Python source, using the math module for
    the function set; variable x{i} becomes var.format(i - 1) (x[0].. by
    default, locals x0.. with "x{}"). With numpy=True the functions are
    numpy's ufuncs and x^n is np.power(x, float(n)), the operations of
    Expr.evaluate, so the source evaluates ndarrays to the same bits. `args`,
    when given, are the rendered children of e (in _children order), which
    stand in for rendering them again. Used to compile the hot evaluation
    paths (the integrators' kernels, the batched Jacobian); the AST evaluator
    remains the reference."""
    if args is None:
        args = [to_python_source(c, var, numpy) for c in _children(e)]
    if isinstance(e, Const):
        # the generated kernels see only the math module, not inf or nan
        if math.isnan(e.value):
            return "math.nan"
        if math.isinf(e.value):
            return "math.inf" if e.value > 0 else "(-math.inf)"
        return repr(e.value)
    if isinstance(e, Var):
        return var.format(e.index - 1)
    if isinstance(e, (Add, Sub, Mul, Div)):
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(e)]
        return f"({args[0]} {op} {args[1]})"
    if isinstance(e, Neg):
        return f"(-{args[0]})"
    if isinstance(e, Pow):
        if numpy:
            return f"np.power({args[0]}, {float(e.exponent)!r})"
        return f"({args[0]} ** {e.exponent})"
    if isinstance(e, Call):
        return f"{'np' if numpy else 'math'}.{e.func}({args[0]})"
    raise TypeError(f"unknown expression node {type(e).__name__}")


def to_python_statements(exprs, targets, var: str = "x[{}]", numpy: bool = False) -> list[str]:
    """Render `target = expr` for each pair as straight-line Python statements
    (`var` and `numpy` as in to_python_source). A non-constant subexpression
    that occurs more than once (not counting repeats inside a repeat) is
    computed once, into a local _s0, _s1, .. Constant-only subtrees stay
    inline for CPython to fold. Repeats are found by interned node, and each
    node is rendered once, so the operations and every target's value are
    those of to_python_source's rendering."""
    memo: dict = {}  # node -> whether it reads a variable

    def reads(e):
        if e not in memo:
            memo[e] = isinstance(e, Var) or any(map(reads, _children(e)))
        return memo[e]

    counts: dict = {}
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if reads(e) and not isinstance(e, Var):  # neither a variable nor free of them
            counts[e] = counts.get(e, 0) + 1
            if counts[e] == 1:
                stack += _children(e)
    names: dict = {}
    lines = []

    def text(e):
        # post-order, so a shared subexpression is named after those inside it
        if e not in names:
            source = to_python_source(e, var, numpy, [text(c) for c in _children(e)])
            if counts.get(e, 0) < 2:
                return source
            names[e] = f"_s{len(names)}"
            lines.append(f"{names[e]} = {source}")
        return names[e]

    for target, e in zip(targets, exprs):
        lines.append(f"{target} = {text(e)}")
    del reads, text  # each refers to itself: free the memo now, not at the next gc cycle
    return lines
