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
sums of operators distribute over application, so ``(a[1] + i a[-1]) vac``
is the superposition with coefficients 1 and i.  Every product must
ultimately apply its operators to ``vac``.

Parsing reports syntax errors, out-of-range indices, and type errors (for
instance adding a scalar to a state) with a character position.  One walk
of the tree gives :func:`creator_state`: creator vectors in mode space and
monomials over them, what evaluation uses.  :func:`evaluate_expr` expands
that creator form into occupation-number terms.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainParams, mode_profile
from .fock import FockState, apply_creator, linear_combine, vacuum
from .wavefunction import CreatorState

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
        if match.lastgroup == "num":
            tokens.append(("num", match.group("num"), match.start("num")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append((match.group("punct"), match.group("punct"), match.start("punct")))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

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
        negate = False
        if self.peek()[0] in ("+", "-"):
            negate = self.take()[0] == "-"
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
        if isinstance(term, Scalar):
            return Scalar(-term.value, pos=term.pos)
        if isinstance(term, Product) and isinstance(term.factors[0], Scalar):
            head = term.factors[0]
            return Product((Scalar(-head.value, pos=head.pos),) + term.factors[1:],
                           pos=term.pos)
        factors = term.factors if isinstance(term, Product) else (term,)
        return Product((Scalar(-1.0 + 0.0j, pos=term.pos),) + factors, pos=term.pos)

    # term := factor+
    def parse_term(self):
        start = self.peek()[2]
        factors = [self.parse_factor()]
        while self.peek()[0] in ("num", "name", "("):
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors), pos=start)

    def parse_factor(self):
        kind, text, pos = self.take()
        if kind == "num":
            value = float(text)
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
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            elif self.peek()[0] == "+":
                self.take()
            num = self.expect("num", "an integer index")
            if not num[1].isdigit():
                raise StateExprError(f"index must be an integer, found {num[1]!r}", num[2])
            self.expect("]", "']'")
            return Create(kind=text, index=sign * int(num[1]), pos=pos)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")", "')'")
            return inner
        raise StateExprError(
            f"expected a factor, found {text or 'end of input'!r}", pos
        )


# --- walking the AST --------------------------------------------------------
# The walk gives (kind, value): a scalar is a complex number; an operator or a
# state is a polynomial {creators: coefficient}, a state's applied to vac from
# the right.  A creator is ("a", k), ("b", n), or ("+", ((coefficient,
# creator), ...)) for a sum of single creators.

_SCALAR, _OP, _STATE = "scalar", "operator", "state"


def _walk(node, params: ChainParams):
    if isinstance(node, Scalar):
        return _SCALAR, node.value
    if isinstance(node, Create):
        h = params.max_wavenumber
        if node.kind == "a" and not -h <= node.index <= h:
            raise StateExprError(
                f"wave number {node.index} out of range -{h}..{h} for {params.n_sites} sites",
                node.pos)
        if node.kind == "b" and not 1 <= node.index <= params.n_sites:
            raise StateExprError(f"site {node.index} out of range 1..{params.n_sites}", node.pos)
        return _OP, {((node.kind, node.index),): 1.0}
    if isinstance(node, Vac):
        return _STATE, {(): 1.0}
    if isinstance(node, Sum):
        parts = [_walk(t, params) for t in node.terms]
        kind = parts[0][0]
        for t, (k, _) in zip(node.terms[1:], parts[1:]):
            if k != kind:
                raise StateExprError(f"cannot add a {k} to a {kind}", t.pos)
        if kind == _SCALAR:
            return kind, sum(v for _, v in parts)
        monos = [(m, c) for _, poly in parts for m, c in poly.items()]
        if kind == _OP and all(len(m) == 1 for m, _ in monos):
            return kind, {(("+", tuple((c, m[0]) for m, c in monos)),): 1.0}
        return kind, _poly_product([((), 1.0)], monos)  # like terms merged
    if isinstance(node, Product):
        kind, acc = _walk(node.factors[-1], params)
        for factor in reversed(node.factors[:-1]):
            fkind, fval = _walk(factor, params)
            if fkind == _STATE:
                raise StateExprError("a state can only stand last in a product", factor.pos)
            if kind == _SCALAR:
                kind, acc = fkind, (fval * acc if fkind == _SCALAR else
                                    {m: c * acc for m, c in fval.items()})
            elif fkind == _SCALAR:
                acc = {m: fval * c for m, c in acc.items()}
            else:
                acc = _poly_product(fval.items(), acc.items())
        return kind, acc
    raise TypeError(f"unknown node {node!r}")


def _poly_product(left, right) -> dict:
    """Product of two creator polynomials given as (creators, coefficient) pairs.

    Creators commute, so monomials that differ only in order are merged; the
    merged monomial keeps the order in which it first appears.
    """
    out, first = {}, {}
    for m1, c1 in left:
        for m2, c2 in right:
            mono = first.setdefault(tuple(sorted(map(repr, m1 + m2))), m1 + m2)
            out[mono] = out.get(mono, 0.0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _state_poly(node, params: ChainParams) -> dict:
    kind, poly = _walk(node, params)
    if kind != _STATE:
        raise StateExprError("expression must apply its operators to 'vac'",
                             getattr(node, "pos", 0))
    return poly


def parse_state_expr(src: str, n_sites: int):
    """Parse a state expression for a chain with ``n_sites`` sites.

    Returns the AST root; raises :class:`StateExprError` with a character
    position on syntax errors, out-of-range indices, or expressions that do
    not produce a state (e.g. an operator chain with no ``vac``).
    """
    if not src or not src.strip():
        raise StateExprError("empty expression", 0)
    params = ChainParams(n_sites=n_sites)
    parser = _Parser(_tokenize(src))
    ast = parser.parse_expr()
    trailing = parser.peek()
    if trailing[0] != "end":
        raise StateExprError(f"unexpected {trailing[1]!r} after expression", trailing[2])
    _state_poly(ast, params)  # index ranges and kinds
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
    """If the term starts with a negative scalar, return (positive_term, True)."""
    if isinstance(term, Scalar):
        neg = term.value.real < 0 or (term.value.real == 0 and term.value.imag < 0)
        return (Scalar(-term.value, pos=term.pos), True) if neg else (term, False)
    if isinstance(term, Product) and isinstance(term.factors[0], Scalar):
        head, flipped = _negated_head(term.factors[0])
        if flipped:
            rest = term.factors[1:]
            if head.value == 1:
                return (rest[0] if len(rest) == 1 else Product(rest, pos=term.pos)), True
            return Product((head,) + rest, pos=term.pos), True
    return term, False


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


def _vector(creator, n_sites: int) -> np.ndarray:
    kind, arg = creator
    if kind == "a":
        return (np.arange(n_sites) == arg + n_sites // 2).astype(float)
    if kind == "b":
        return mode_profile(n_sites, arg)
    return sum(coeff * _vector(term, n_sites) for coeff, term in arg)


def creator_state(node, params: ChainParams) -> CreatorState:
    """The state a parsed expression denotes, as creator vectors and monomials.

    A parenthesized sum of single creators such as ``(a[1] + i a[-1])``
    becomes one vector.
    """
    poly = _state_poly(node, params)
    used = list(dict.fromkeys(k for mono in poly for k in mono))
    vectors = np.array([_vector(k, params.n_sites) for k in used]).reshape(len(used),
                                                                          params.n_sites)
    counts = [(c, Counter(mono)) for mono, c in poly.items()]
    monomials = tuple((c, tuple(count[k] for k in used)) for c, count in counts)
    return CreatorState(params, vectors if np.any(vectors.imag) else vectors.real.copy(),
                        monomials)


def evaluate_expr(node, params: ChainParams) -> FockState:
    """Expand a parsed expression's creator form into occupation-number terms.

    Each monomial applies its creator vectors to ``vac``, last row first.
    """
    state = creator_state(node, params)
    pairs = []
    for coeff, mult in state.monomials:
        fock = vacuum(params)
        for vector, m in reversed(list(zip(state.vectors, mult))):
            for _ in range(m):
                fock = apply_creator(fock, vector)
        pairs.append((coeff, fock))
    return linear_combine(pairs) if pairs else FockState(params, {})


def build_state(src: str, params: ChainParams):
    """Parse and evaluate in one step; returns (state, canonical label)."""
    ast = parse_state_expr(src, params.n_sites)
    return evaluate_expr(ast, params), pretty(ast)
