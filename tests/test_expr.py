import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain import expr
from qchain.chain import ChainParams, real_mode_basis
from qchain.expr import (
    Create,
    Product,
    Scalar,
    StateExprError,
    Sum,
    Vac,
    build_state,
    creator_state,
    evaluate_expr,
    parse_state_expr,
    pretty,
)
from qchain.fock import (
    apply_create,
    apply_create_local,
    dump_state,
    expand_state,
    linear_combine,
    norm,
    vacuum,
)
from qchain.wavefunction import evaluate_batch


def test_parse_simple_forms():
    assert parse_state_expr("vac", 5) == Vac()
    assert parse_state_expr("a[0] vac", 5) == Product((Create("a", 0), Vac()))
    assert parse_state_expr("a[-2]vac", 5) == Product((Create("a", -2), Vac()))
    assert parse_state_expr("b[3] b[1] vac", 5) == Product(
        (Create("b", 3), Create("b", 1), Vac())
    )


def test_parse_scalars_and_sums():
    ast = parse_state_expr("2 vac + 0.5i a[1] vac", 5)
    assert ast == Sum(
        (
            Product((Scalar(2.0 + 0.0j), Vac())),
            Product((Scalar(0.5j), Create("a", 1), Vac())),
        )
    )
    neg = parse_state_expr("-vac", 3)
    assert neg == Product((Scalar(-1.0 + 0.0j), Vac()))
    imag = parse_state_expr("i vac", 3)
    assert imag == Product((Scalar(1j), Vac()))


def test_parse_parenthesized_operator_sum():
    ast = parse_state_expr("(a[1] + i a[-1]) vac", 5)
    assert ast == Product(
        (Sum((Create("a", 1), Product((Scalar(1j), Create("a", -1))))), Vac())
    )


def test_parse_errors_carry_positions():
    with pytest.raises(StateExprError) as err:
        parse_state_expr("a[0] + ", 5)
    assert err.value.pos == 7

    with pytest.raises(StateExprError) as err:
        parse_state_expr("a[7] vac", 5)
    assert err.value.pos == 0  # index range error points at the operator

    with pytest.raises(StateExprError) as err:
        parse_state_expr("b[0] vac", 5)
    assert "site 0 out of range 1..5" in str(err.value)

    with pytest.raises(StateExprError) as err:
        parse_state_expr("a[1] b[2]", 5)  # no vac: an operator, not a state
    assert "vac" in str(err.value)

    with pytest.raises(StateExprError):
        parse_state_expr("", 5)
    with pytest.raises(StateExprError):
        parse_state_expr("   ", 5)
    with pytest.raises(StateExprError):
        parse_state_expr("vac extra ?", 5)
    with pytest.raises(StateExprError):
        parse_state_expr("a[1.5] vac", 5)
    with pytest.raises(StateExprError):
        parse_state_expr("vac + a[1]", 5)  # state plus operator
    with pytest.raises(StateExprError):
        parse_state_expr("vac vac", 5)
    with pytest.raises(StateExprError):
        parse_state_expr("a[1] vac vac", 5)
    with pytest.raises(StateExprError, match=r"unexpected '\)' after expression \(position 4\)"):
        parse_state_expr("vac )", 5)
    with pytest.raises(StateExprError, match=r"expected '\[' after 'a', found '1' \(position 2\)"):
        parse_state_expr("a 1] vac", 5)
    # a literal, product or sum that overflows is reported where it arises
    for src, pos in (("1e400 vac", 0), ("1e400i vac", 0), ("1e200 1e200 vac", 0),
                     ("(a[1] + 1e400 a[-1]) vac", 8), ("a[0] 1e400 vac", 5),
                     ("a[0] 1e200 1e200 vac", 5), ("vac + 1e308 vac + 1e308 vac", 18),
                     ("a[0] (1e308 + 1e308) vac", 14),
                     ("a[0] (1e200 a[1] a[2] + a[3]) (1e200 a[1] a[2] + a[3]) vac", 6),
                     ("(1e308 a[1] + 1e308 a[1]) vac", 14)):
        for parse in (lambda: build_state(src, ChainParams(n_sites=15)),
                      lambda: parse_state_expr(src, 15)):
            with pytest.raises(StateExprError, match=r"^the state's coefficients are not all "
                                                     rf"finite \(position {pos}\)$"):
                parse()


@pytest.mark.parametrize("src, message, pos", [
    ("vac + a[1] + a[9] vac", "cannot add an operator to a state", 6),
    ("a[9] b[9] vac", "wave number 9 out of range -2..2 for 5 sites", 0),
    ("a[1] vac a[9]", "a state can only stand last in a product", 5),
    ("2 + vac", "cannot add a state to a scalar", 4),
    ("(a[1] + a[9]) (1e200 1e200 vac)", "wave number 9 out of range -2..2 for 5 sites", 8),
])
def test_the_first_error_in_text_order_is_reported(src, message, pos):
    with pytest.raises(StateExprError) as err:
        parse_state_expr(src, 5)
    assert (str(err.value), err.value.pos) == (f"{message} (position {pos})", pos)


def test_index_errors_match_the_fock_operators():
    # the expression and the operator say the same thing, apart from the position
    p3 = ChainParams(n_sites=3)
    for src, create, index in (("a[9] vac", apply_create, 9), ("b[0] vac", apply_create_local, 0),
                               ("b[4] vac", apply_create_local, 4)):
        with pytest.raises(StateExprError) as parsed:
            parse_state_expr(src, 3)
        with pytest.raises(ValueError) as applied:
            create(vacuum(p3), index)
        assert str(parsed.value) == f"{applied.value} (position 0)"
    assert str(parsed.value) == "site 4 out of range 1..3 (position 0)"
    with pytest.raises(ValueError, match=r"^wave number 9 out of range -1\.\.1 for 3 sites$"):
        apply_create(vacuum(p3), 9)


def test_pretty_round_trip_examples():
    for src in [
        "vac",
        "a[0] a[0] vac",
        "b[3] b[8] vac",
        "(a[1] + i a[-1]) vac",
        "2 vac - 0.5i a[1] vac",
        "-vac",
        "a[1] vac - b[2] vac",
        "(a[1] + a[-1] + 2 a[0]) b[4] vac",
        "(a[1] a[2]) vac",
        "(2 a[1]) vac",
        "a[1] (a[2] vac)",
        "(-2) vac",
        "a[+1] vac",
        "(1 + 2) vac",
        "-i vac",
        "vac - 0 vac",
        "vac - 0i vac",
        "vac - 1e-400 vac",
        "vac - (a[0] vac + a[1] vac)",
        "a[0] (-a[1]) vac",
        "2 (-3) vac",
        "vac - 1 2 vac",
        "a[0] 0.5 1 i vac",
    ]:
        ast = parse_state_expr(src, 9)
        assert parse_state_expr(pretty(ast), 9) == ast
    assert pretty(Scalar(1.5 - 2j)) == "(1.5 + -2.0i)"  # never parsed; printed anyway
    for make in (pretty, lambda node: creator_state(node, ChainParams(n_sites=9))):
        with pytest.raises(TypeError, match="unknown node"):
            make("vac")  # a string, not a Vac node


_SCALARS = st.one_of(
    st.just("i"),
    st.just("0"),
    st.floats(min_value=0.01, max_value=50, allow_nan=False).map(lambda v: f"{v:.3g}"),
    st.floats(min_value=0.01, max_value=50, allow_nan=False).map(lambda v: f"{v:.3g}i"),
)
_OPS = st.one_of(
    st.integers(-3, 3).map(lambda k: f"a[{k}]"),
    st.integers(1, 7).map(lambda n: f"b[{n}]"),
)
# an operator term ends with an operator; scalars may stand anywhere before it
_OP_TERM = st.builds(lambda head, op: " ".join(head + [op]),
                     st.lists(st.one_of(_SCALARS, _OPS), max_size=2), _OPS)


def _parenthesized_sum(terms):
    # "(" ['-'] term (('+'|'-') term)* ")", a leading '-' inside the parentheses
    return st.builds(lambda lead, first, rest: f"({lead}{first}{''.join(rest)})",
                     st.sampled_from(["", "-"]), terms,
                     st.lists(st.tuples(st.sampled_from([" + ", " - "]), terms).map("".join),
                              max_size=2))


_STATE_TERM = st.builds(
    lambda factors: " ".join(factors + ["vac"]),
    st.lists(st.one_of(_SCALARS, _OPS, _parenthesized_sum(_OP_TERM),
                       _parenthesized_sum(_SCALARS)), max_size=4),
)
_TERMS = st.one_of(_STATE_TERM, _parenthesized_sum(_STATE_TERM))


@settings(max_examples=120, deadline=None)
@given(st.lists(_TERMS, min_size=1, max_size=4), st.sampled_from(["+", "-"]))
def test_pretty_round_trip_random(terms, sep):
    src = f" {sep} ".join(terms)
    ast = parse_state_expr(src, 7)
    assert parse_state_expr(pretty(ast), 7) == ast


def test_evaluate_basic_states():
    p = ChainParams(n_sites=5)
    v = vacuum(p)
    assert evaluate_expr(parse_state_expr("vac", 5), p).terms == v.terms
    assert (
        evaluate_expr(parse_state_expr("a[0] a[0] vac", 5), p).terms
        == apply_create(apply_create(v, 0), 0).terms
    )
    assert (
        evaluate_expr(parse_state_expr("b[3] vac", 5), p).terms
        == apply_create_local(v, 3).terms
    )


def test_evaluate_superposition_and_scalars():
    p = ChainParams(n_sites=5)
    v = vacuum(p)
    got = evaluate_expr(parse_state_expr("(a[1] + i a[-1]) vac", 5), p)
    want = linear_combine([(1.0, apply_create(v, 1)), (1j, apply_create(v, -1))])
    assert got.terms == want.terms

    # a scalar standing last in a product of operators scales them
    assert build_state("(a[0] 2 + a[1]) vac", p)[0] == build_state("(2 a[0] + a[1]) vac", p)[0]

    doubled = evaluate_expr(parse_state_expr("2 a[0] vac - a[0] vac", 5), p)
    assert doubled.terms == apply_create(v, 0).terms

    cancel = evaluate_expr(parse_state_expr("a[1] vac - a[1] vac", 5), p)
    assert cancel.terms == {}
    # a sum of operators that each cancel to nothing is the zero operator
    zero = parse_state_expr("((a[1] a[0] - a[0] a[1]) + (a[1] a[0] - a[0] a[1])) vac", 5)
    assert evaluate_expr(zero, p).terms == {}


@pytest.mark.parametrize("src", ["0 vac", "1e-300 1e-300 vac", "(1 - 1) vac"])
def test_zero_scalar_product_drops_its_monomial(src):
    # a scalar walks as the polynomial {(): c}, so a zero coefficient, written
    # or underflowed, drops its monomial as an operator product's does
    p = ChainParams(n_sites=5)
    state, _ = build_state(src, p)
    assert state.monomials == ()
    vals = evaluate_batch(state, real_mode_basis(p), np.ones((3, 5)))
    assert np.array_equal(vals, np.zeros(3, dtype=complex))
    assert dump_state(expand_state(state)) == ""


def test_operator_sum_distributes_like_state_sum():
    # (A + B) vac must equal A vac + B vac term by term
    p = ChainParams(n_sites=7)
    lhs = evaluate_expr(parse_state_expr("(b[2] + 3 b[5]) b[1] vac", 7), p)
    rhs = evaluate_expr(parse_state_expr("b[2] b[1] vac + 3 b[5] b[1] vac", 7), p)
    assert set(lhs.terms) == set(rhs.terms)
    for occ, amp in lhs.terms.items():
        assert amp == pytest.approx(rhs.terms[occ], rel=1e-14)


@pytest.mark.parametrize("n_sites, src, same", [
    (5, "(a[1] b[1] - a[1] b[1] + a[0] + b[2]) vac", "(a[0] + b[2]) vac"),
    (5, "(a[0] + b[2] + a[1] - a[1]) vac", "(a[0] + b[2]) vac"),
    (5, "a[0] vac + b[2] vac", "(a[0] + b[2]) vac"),
    (11, "0.5 b[3] vac - 0.5 b[8] vac", "(0.5 b[3] - 0.5 b[8]) vac"),
    (5, "(a[1] - a[1]) vac", "0 a[1] vac"),
    (5, "(a[1] + a[1]) vac", "2 a[1] vac"),
    (5, "(0.5 a[2] + a[1] b[1] - a[1] b[1]) vac", "(0.5 a[2]) vac"),  # one monomial: not folded
])
def test_a_sum_merges_on_its_merged_polynomial(n_sites, src, same):
    # like terms cancel before the sum decides whether its creators are one,
    # whatever the sum's kind, so the spelling does not change the state
    params = ChainParams(n_sites=n_sites)
    basis = real_mode_basis(params)
    state, want = build_state(src, params)[0], build_state(same, params)[0]
    assert state == want
    points = np.random.default_rng(2).normal(0.0, 0.7, size=(50, n_sites))
    assert evaluate_batch(state, basis, points).tobytes() == evaluate_batch(
        want, basis, points).tobytes()


def test_a_sum_is_refused_only_where_its_merged_partial_sum_overflows():
    p3 = ChainParams(n_sites=3)
    with pytest.raises(StateExprError, match=r"not all finite \(position 16\)$"):
        build_state("(1.5e308 a[1] + 1.5e308 b[1]) vac", p3)  # the merged vector overflows
    cancelled = build_state("(1.5e308 a[1] + 1.5e308 b[1] - 1.5e308 b[1]) vac", p3)[0]
    assert cancelled == build_state("1.5e308 a[1] vac", p3)[0]


def test_build_state_returns_canonical_label(monkeypatch):
    p = ChainParams(n_sites=11)
    walks, state_poly = [], expr._state_poly

    def counting_walk(node, params):
        walks.append(node)
        return state_poly(node, params)

    monkeypatch.setattr(expr, "_state_poly", counting_walk)
    state, label = build_state("b[5]   vac", p)
    assert len(walks) == 1  # one parse and one walk
    with pytest.raises(StateExprError, match="site 12 out of range"):
        build_state("b[12] vac", p)  # the one walk still checks index ranges
    monkeypatch.undo()
    assert label == "b[5] vac"
    assert build_state("-i vac", p)[1] == "-i vac"
    ast = parse_state_expr("b[5] vac", 11)
    assert state == creator_state(ast, p)
    fock = evaluate_expr(ast, p)
    assert abs(norm(fock) - 1.0) < 1e-12
    assert fock.terms == apply_create_local(vacuum(p), 5).terms


def test_evaluate_numeric_literals():
    p = ChainParams(n_sites=3)
    st1 = evaluate_expr(parse_state_expr("2.5e-1 vac", 3), p)
    assert st1.terms == {(0, 0, 0): 0.25 + 0.0j}
    st2 = evaluate_expr(parse_state_expr("-0.5i vac", 3), p)
    assert st2.terms == {(0, 0, 0): -0.5j}


def test_products_of_operator_sums_merge_reordered_monomials():
    # creators commute, so (a[1] a[2] + a[-1])^20 has 21 monomials, not 2^20
    src = " ".join(["(a[1] a[2] + a[-1])"] * 20) + " vac"
    state = creator_state(parse_state_expr(src, 5), ChainParams(n_sites=5))
    assert state.vectors.shape == (3, 5)
    assert {mult: c for c, mult in state.monomials} == {
        (k, k, 20 - k): math.comb(20, k) for k in range(21)}
