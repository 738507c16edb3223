"""Tiny expression language for building chain states.

Grammar (whitespace-insensitive)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor+                       juxtaposition = composition,
                                            applied right to left
    factor := 'vac' | 'a[' INT ']' | 'b[' INT ']'
            | NUMBER | NUMBER 'i' | 'i' | '(' expr ')'

``vac`` is the ground state, ``a[k]`` raises the occupation of wave-number
mode k, ``b[n]`` creates an excitation localized at the 1-based site n, and
scalars (real or imaginary literals) scale whatever follows.  Parenthesized
sums of operators distribute over application.  Every product must
ultimately apply its operators to ``vac``.  A sum of operators or of states
merges like terms, dropping those that cancel; two or more single creators
left are one, the sum of coefficient times vector.  So a state has one form
however it is spelled: ``0.5 b[3] vac - 0.5 b[8] vac`` is
``(0.5 b[3] - 0.5 b[8]) vac``.

Parsing reports syntax errors, parentheses nested more than 100 deep,
out-of-range indices, type errors (for instance adding a scalar to a state)
and coefficients that are not finite (a literal, a product, or a sum at the
first term whose partial sum or merged creator vector overflows; a sum that
cancels back into range builds) with a character position.  One walk forms
each creator's vector from :func:`~qchain.chain.creator_vector` and gives
:func:`creator_state`, a :class:`~qchain.fock.CreatorState`; :func:`build_state`
tokenizes and walks its source once, so it rejects what :func:`parse_state_expr` does.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainParams, creator_vector
from .fock import CreatorState, FockState, expand_state

__all__ = [
    "StateExprError",
    "Scalar",
    "Create",
    "Vac",
    "Product",
    "Sum",
    "parse_state_expr",
    "pretty",
    "creator_state",
    "evaluate_expr",
    "build_state",
]


_NOT_FINITE = "the state's coefficients are not all finite"
_MAX_NESTING = 100  # parentheses; parsing and walking stay well inside the recursion limit


class StateExprError(ValueError):
    """Parse or evaluation error, with the offending character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


# --- AST ------------------------------------------------------------------
# Node positions are carried for diagnostics but excluded from equality, so
# parse -> pretty -> parse round-trips to an identical tree.


@dataclass(frozen=True)
class Scalar:
    value: complex
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Create:
    kind: str  # "a" (wave-number mode) or "b" (site)
    index: int
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Vac:
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Product:
    factors: tuple
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Sum:
    terms: tuple
    pos: int = field(default=0, compare=False)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>vac|a|b|i)"
    r"|(?P<punct>[\[\]()+\-]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            stripped = src[pos:].lstrip()
            if not stripped:  # trailing whitespace only
                break
            at = len(src) - len(stripped)
            raise StateExprError(f"unexpected character {stripped[0]!r}", at)
        group = match.lastgroup  # the kind of a punctuation token is its text
        text = match.group(group)
        tokens.append((text if group == "punct" else group, text, match.start(group)))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # parentheses open at the current token

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.take()
        if tok[0] != kind:
            raise StateExprError(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def parse_expr(self):
        start = self.peek()[2]
        negate = self.peek()[0] in ("+", "-") and self.take()[0] == "-"
        terms = [self._signed_term(self.parse_term(), negate)]
        while self.peek()[0] in ("+", "-"):
            negate = self.take()[0] == "-"
            terms.append(self._signed_term(self.parse_term(), negate))
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms), pos=start)

    @staticmethod
    def _signed_term(term, negate):
        if not negate:
            return term
        factors = term.factors if isinstance(term, Product) else (term,)
        if isinstance(factors[0], Scalar):  # negate the head scalar, or prepend -1
            factors = (Scalar(-factors[0].value, pos=factors[0].pos),) + factors[1:]
        else:
            factors = (Scalar(-1.0 + 0.0j, pos=term.pos),) + factors
        return factors[0] if len(factors) == 1 else Product(factors, pos=term.pos)

    # term := factor+; a parenthesized product is spliced into the enclosing
    # one, as pretty prints it, so the printed text parses back to the same tree
    def parse_term(self):
        start = self.peek()[2]
        factors = [self.parse_factor()]
        while self.peek()[0] in ("num", "name", "("):
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        flat = [g for f in factors for g in (f.factors if isinstance(f, Product) else (f,))]
        return Product(tuple(flat), pos=start)

    def parse_factor(self):
        kind, text, pos = self.take()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise StateExprError(_NOT_FINITE, pos)
            if self.peek()[:2] == ("name", "i"):
                self.take()
                return Scalar(complex(0.0, value), pos=pos)
            return Scalar(complex(value, 0.0), pos=pos)
        if kind == "name":
            if text == "vac":
                return Vac(pos=pos)
            if text == "i":
                return Scalar(1j, pos=pos)
            # a[...] or b[...]
            self.expect("[", f"'[' after {text!r}")
            negate = self.peek()[0] in ("+", "-") and self.take()[0] == "-"
            num = self.expect("num", "an integer index")
            if not num[1].isdigit():
                raise StateExprError(f"index must be an integer, found {num[1]!r}", num[2])
            self.expect("]", "']'")
            return Create(kind=text, index=-int(num[1]) if negate else int(num[1]), pos=pos)
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise StateExprError(f"parentheses nested deeper than {_MAX_NESTING} levels", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.expect(")", "')'")
            self.depth -= 1
            return inner
        raise StateExprError(f"expected a factor, found {text or 'end of input'!r}", pos)


# --- walking the AST --------------------------------------------------------
# The walk gives (kind, value), every value a polynomial {creators: coefficient}
# with no zero coefficient: a scalar c is {(): c}, a state's creators apply to
# vac from the right, and kinds only reject ill-typed sums and products.  A
# creator is the complex bytes of its mode-space vector, so creators with bit-
# identical vectors are one.  A sum decides on its merged polynomial, whatever
# its kind: two or more single creators left are one, the sum of coefficient
# times vector, so equal sums give equal values however they are spelled.

_SCALAR, _OP, _STATE = "a scalar", "an operator", "a state"


def _walk(node, params: ChainParams):
    if isinstance(node, Scalar):
        return _SCALAR, {(): node.value}
    if isinstance(node, Create):
        try:
            vector = creator_vector(params.n_sites, node.kind, node.index)
        except ValueError as exc:
            raise StateExprError(str(exc), node.pos) from None
        return _OP, {(vector.astype(complex).tobytes(),): 1.0}
    if isinstance(node, Vac):
        return _STATE, {(): 1.0}
    if isinstance(node, Sum):
        kind, value = _walk(node.terms[0], params)
        values = [value]
        for t in node.terms[1:]:
            k, value = _walk(t, params)
            if k != kind:
                raise StateExprError(f"cannot add {k} to {kind}", t.pos)
            values.append(value)
        total = _sum(values)
        if not _finite(total):  # reported at the first term whose prefix sum is not finite
            k = next(k for k in range(len(values)) if not _finite(_sum(values[: k + 1])))
            raise StateExprError(_NOT_FINITE, node.terms[k].pos)
        return kind, total
    if isinstance(node, Product):
        walked = []  # left to right, so errors come out in text order
        for factor in node.factors:
            walked.append(_walk(factor, params))
            if walked[-1][0] == _STATE and len(walked) < len(node.factors):
                raise StateExprError("a state can only stand last in a product", factor.pos)
        kind, acc = walked[-1]
        for factor, (fkind, fval) in zip(node.factors[-2::-1], walked[-2::-1]):
            kind = fkind if kind == _SCALAR else kind
            acc = _poly_product(fval.items(), acc.items())
            if not _finite(acc):
                raise StateExprError(_NOT_FINITE, factor.pos)
        return kind, acc
    raise TypeError(f"unknown node {node!r}")


@np.errstate(all="ignore")  # an overflowing vector gives a non-finite coefficient
def _sum(values):
    """Walked ``values`` summed, like terms merged; two or more single creators left are one."""
    total = _poly_product([((), 1.0)], [(m, c) for poly in values for m, c in poly.items()])
    if len(total) < 2 or any(len(m) != 1 for m in total):
        return total
    vector = sum(c * np.frombuffer(k, complex) for (k,), c in total.items())
    return {(vector.tobytes(),): 1.0 if np.isfinite(vector).all() else math.inf}


def _finite(poly) -> bool:
    """Whether every coefficient of a walked polynomial is finite."""
    return bool(np.isfinite(list(poly.values())).all())


def _poly_product(left, right) -> dict:
    """Product of two creator polynomials given as (creators, coefficient) pairs.

    Creators commute, so monomials that differ only in order are merged; the
    merged monomial keeps the order in which it first appears.
    """
    out, first = {}, {}
    for m1, c1 in left:
        for m2, c2 in right:
            mono = first.setdefault(tuple(sorted(m1 + m2)), m1 + m2)
            out[mono] = out.get(mono, 0.0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _state_poly(node, params: ChainParams) -> dict:
    kind, poly = _walk(node, params)
    if kind != _STATE:
        raise StateExprError("expression must apply its operators to 'vac'", node.pos)
    return poly


def _parse(src: str):
    """The AST of ``src``; raises :class:`StateExprError` on syntax errors only."""
    if not src or not src.strip():
        raise StateExprError("empty expression", 0)
    parser = _Parser(_tokenize(src))
    ast = parser.parse_expr()
    trailing = parser.peek()
    if trailing[0] != "end":
        raise StateExprError(f"unexpected {trailing[1]!r} after expression", trailing[2])
    return ast


def parse_state_expr(src: str, n_sites: int):
    """Parse a state expression for a chain with ``n_sites`` sites.

    Returns the AST root; raises :class:`StateExprError` with a character
    position on syntax errors, out-of-range indices, coefficients that are
    not finite, or expressions that do not produce a state (e.g. an operator
    chain with no ``vac``).
    """
    ast = _parse(src)
    _state_poly(ast, ChainParams(n_sites=n_sites))  # index ranges, kinds, overflow
    return ast


# --- pretty printing -------------------------------------------------------


def _fmt_scalar(value: complex) -> str:
    if value.imag == 0:
        return repr(value.real)
    if value.real == 0:
        if value.imag == 1:
            return "i"
        if value.imag == -1:
            return "-i"
        return repr(value.imag) + "i"
    # composite scalars never come out of the parser, but print them anyway
    return f"({repr(value.real)} + {repr(value.imag)}i)"


def _pretty_factor(node) -> str:
    text = pretty(node)
    return f"({text})" if isinstance(node, Sum) else text


def _negated_head(term):
    """If the term starts with a scalar printed with '-', return (positive_term, True)."""
    factors = term.factors if isinstance(term, Product) else (term,)
    head = factors[0]
    if not (isinstance(head, Scalar) and _fmt_scalar(head.value).startswith("-")):
        return term, False
    factors = (Scalar(-head.value, pos=head.pos),) + factors[1:]
    if factors[0].value == 1 and len(factors) > 1:  # a unit head is dropped
        factors = factors[1:]
    return (factors[0] if len(factors) == 1 else Product(factors, pos=term.pos)), True


def pretty(node) -> str:
    """Canonical text for an AST; parsing it back yields an equal tree."""
    if isinstance(node, Scalar):
        return _fmt_scalar(node.value)
    if isinstance(node, Create):
        return f"{node.kind}[{node.index}]"
    if isinstance(node, Vac):
        return "vac"
    if isinstance(node, Product):
        return " ".join(_pretty_factor(f) for f in node.factors)
    if isinstance(node, Sum):
        parts = [pretty(node.terms[0])]
        for term in node.terms[1:]:
            positive, flipped = _negated_head(term)
            parts.append(("- " if flipped else "+ ") + pretty(positive))
        return " ".join(parts)
    raise TypeError(f"unknown node {node!r}")


# --- evaluation ------------------------------------------------------------


def creator_state(node, params: ChainParams) -> CreatorState:
    """The state a parsed expression denotes, as creator vectors and monomials:
    one row per distinct vector, in order of first appearance."""
    poly = _state_poly(node, params)
    used = list(dict.fromkeys(k for mono in poly for k in mono))
    vectors = np.array([np.frombuffer(k, complex) for k in used]).reshape(len(used),
                                                                         params.n_sites)
    counts = [(c, Counter(mono)) for mono, c in poly.items()]
    monomials = tuple((c, tuple(count[k] for k in used)) for c, count in counts)
    return CreatorState(params, vectors if np.any(vectors.imag) else vectors.real.copy(),
                        monomials)


def evaluate_expr(node, params: ChainParams) -> FockState:
    """A parsed expression's state in occupation-number terms: the
    :func:`~qchain.fock.expand_state` of its :func:`creator_state`."""
    return expand_state(creator_state(node, params))


def build_state(src: str, params: ChainParams):
    """Parse and walk ``src`` once; returns (:func:`creator_state`, canonical label)."""
    ast = _parse(src)
    return creator_state(ast, params), pretty(ast)
