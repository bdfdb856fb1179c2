import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvemates.expressions import (_PREC, MAX_DEPTH, Binary, DifferentiationError,
                                    DomainError, ExpressionSyntaxError, Num,
                                    Samples, Unary, Var, _tokenize,
                                    differentiate, ensure_expr, evaluate,
                                    is_constant, parse, simplify, to_text)
from curvemates.liegroup import sg_derivative
from curvemates.catalog import PROFILES


def ev(text, s):
    return evaluate(parse(text), s)


def test_parse_examples():
    assert ev("3*cos(s)", 0.0) == pytest.approx(3.0)
    assert ev("s^2+s-2", 1.0) == pytest.approx(0.0)


def test_syntax_error_offset():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse("2*)s")
    assert exc.value.offset == 2
    assert "offset 2" in str(exc.value)


@pytest.mark.parametrize("text,offset", [("2*\u00b2", 2), ("2+\u0663", 2),
                                         ("1.\u0665", 2), ("1e\u0662", 1)])
def test_non_ascii_digits_rejected(text, offset):
    # str.isdigit holds for a superscript two and an Arabic-Indic three, which
    # must not be read as digits: "2+\u0663" is not 5
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text,message", [
    ("2e", "unexpected 'e' at offset 1"), ("2e+", "unexpected 'e' at offset 1"),
    ("2*e", "unknown identifier 'e' at offset 2"),
    ("2*e1", "unknown identifier 'e1' at offset 2")])
def test_exponent_needs_digits(text, message):
    # an "e" with no digits after it ends the number and starts a name
    with pytest.raises(ExpressionSyntaxError, match=f"^{re.escape(message)}$"):
        parse(text)


# ASCII, and characters that str.isdigit, str.isalnum or str.isspace accept
# but the grammar does not read as they might look: a superscript two, an
# Arabic-Indic three, a fullwidth one, an accented letter, a vulgar half,
# a no-break space, a file separator and a combining accent
_SCANNED = st.text(st.sampled_from(list("0123456789.eE+-*/^()s _xpi\t")
                                   + ["\u00b2", "\u0663", "\uff11", "\u00e9",
                                      "\u00bd", "\u00a0", "\x1c", "\u0301"]),
                   max_size=16)
# the documented number grammar, in ASCII digits
_NUMBER = re.compile(r"([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _starts_a_token(text, i):
    c = text[i]
    return (c.isspace() or c.isalpha() or c == "_" or c in "0123456789+-*/^()"
            or c == "." and text[i + 1:i + 2] in tuple("0123456789"))


@settings(max_examples=400, deadline=None)
@given(_SCANNED)
def test_scanner_splits_text_into_the_documented_tokens(text):
    try:
        tokens = _tokenize(text)
    except ExpressionSyntaxError as e:
        # the first character that can start no token
        assert not _starts_a_token(text, e.offset)
        _tokenize(text[:e.offset])
        return
    assert tokens[-1] == ("end", "", len(text))
    assert "".join(tok[1] for tok in tokens) == "".join(
        c for c in text if not c.isspace())
    for kind, tok, offset in tokens[:-1]:
        assert text[offset:offset + len(tok)] == tok
        if kind == "num":
            assert _NUMBER.fullmatch(tok)
        elif kind == "name":
            assert tok[0].isalpha() or tok[0] == "_"
            assert all(c.isalnum() or c == "_" for c in tok)
        else:
            assert kind == tok and tok in "+-*/^()"


def test_empty_input():
    with pytest.raises(ExpressionSyntaxError):
        parse("")
    with pytest.raises(ExpressionSyntaxError):
        parse("   ")


def test_unknown_identifier():
    with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
        parse("foo(s)")
    with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
        parse("x+1")


def test_function_requires_parentheses():
    with pytest.raises(ExpressionSyntaxError, match="parentheses"):
        parse("sin s")


# each shape nested n levels deep, and the token that opens a level
@pytest.mark.parametrize("shape,opener", [
    (lambda n: "(" * n + "s" + ")" * n, "("),
    (lambda n: "sin(" * n + "s" + ")" * n, "("),
    (lambda n: "-" * n + "s", "-"),
    (lambda n: "^".join(["s"] + ["1"] * n), "^"),
    (lambda n: "+".join(["s"] * (n + 1)), "+"),
    (lambda n: "/".join(["s"] * (n + 1)), "/"),
    (lambda n: "(" * 10 + "+".join(["s"] * (n - 9)) + ")" * 10, "+"),
], ids=["parentheses", "functions", "unary-minus", "powers", "sum", "quotient",
        "sum-in-parentheses"])
def test_nesting_is_bounded_at_max_depth(shape, opener):
    # at the bound a tree still parses, evaluates and differentiates; one
    # level more is a syntax error at the token that opens it
    e = parse(shape(MAX_DEPTH))
    assert np.isfinite(evaluate(differentiate(e), np.linspace(0.5, 1.0, 5))).all()
    text = shape(MAX_DEPTH + 1)
    message = f"nesting deeper than {MAX_DEPTH} levels at offset {text.rfind(opener)}"
    with pytest.raises(ExpressionSyntaxError, match=f"^{re.escape(message)}$"):
        parse(text)


def test_precedence():
    # '^' binds tighter than unary minus, which binds tighter than '*'
    assert ev("-s^2", 3.0) == pytest.approx(-9.0)
    assert ev("2^3^2", 0.0) == pytest.approx(512.0)      # right-associative
    assert ev("2^-1", 0.0) == pytest.approx(0.5)
    assert ev("1-2-3", 0.0) == pytest.approx(-4.0)       # left-associative
    assert ev("12/4/3", 0.0) == pytest.approx(1.0)
    assert ev("2*s^2", 3.0) == pytest.approx(18.0)
    assert ev("pi", 0.0) == pytest.approx(math.pi)


_BINARY = ("+", "-", "*", "/", "^")
S, TWO, THREE = Var(), Num(2.0), Num(3.0)


def _grouped(a, b, x, y, z):
    """The tree of "x a y b z" by _PREC: '^' alone is right-associative."""
    if _PREC[a] > _PREC[b] or _PREC[a] == _PREC[b] and a != "^":
        return Binary(b, Binary(a, x, y), z)
    return Binary(a, x, Binary(b, y, z))


def test_precedence_table_is_the_documented_one():
    assert _PREC["+"] == _PREC["-"] < _PREC["*"] == _PREC["/"] < _PREC["neg"] < _PREC["^"]


@pytest.mark.parametrize("a", _BINARY)
@pytest.mark.parametrize("b", _BINARY)
def test_every_pair_of_operators_groups_as_the_precedence_table_says(a, b):
    assert parse(f"s{a}2{b}3") == _grouped(a, b, S, TWO, THREE)
    # a unary minus after a takes 2 alone unless b binds tighter than it
    if _PREC["neg"] > _PREC[b]:
        want = _grouped(a, b, S, Unary("neg", TWO), THREE)
    else:
        want = Binary(a, S, Unary("neg", Binary(b, TWO, THREE)))
    assert parse(f"s{a}-2{b}3") == want
    for text in (f"s{a}2{b}3", f"s{a}-2{b}3"):
        assert parse(to_text(parse(text))) == parse(text)


@pytest.mark.parametrize("a", _BINARY)
def test_unary_minus_groups_as_the_precedence_table_says(a):
    want = (Binary(a, Unary("neg", S), TWO) if _PREC["neg"] > _PREC[a]
            else Unary("neg", Binary(a, S, TWO)))
    assert parse(f"-s{a}2") == want
    assert parse(to_text(want)) == want


def test_pi_parses_to_the_number_pi():
    assert parse("pi") == Num(math.pi)
    assert to_text(parse("2*pi")) == "2.0*3.141592653589793"
    assert parse(to_text(parse("pi"))) == parse("pi")
    with pytest.raises(DomainError, match=r"'sqrt\(3\.141592653589793-4\.0\)'"):
        ev("sqrt(pi-4)", 0.0)


def test_eval_sqrt2():
    assert ev("sqrt(2)", 0.123) == 1.4142135623730951


def test_eval_torsion_formula_high_precision():
    # 2*sqrt(7)*sin(pi/2)/sqrt(8) = sqrt(7/2), frozen from exact arithmetic
    value = ev("2*sqrt(7)*sin(2*s)*(1+7*sin(2*s)^2)^(-1/2)", math.pi / 4)
    assert value == pytest.approx(1.8708286933869707, abs=1e-15)
    assert value == pytest.approx(math.sqrt(3.5), abs=1e-15)


def test_domain_errors():
    with pytest.raises(DomainError):
        ev("1/s", 0.0)
    with pytest.raises(DomainError):
        ev("sqrt(s)", -1.0)
    with pytest.raises(DomainError):
        ev("s^0.5", -2.0)
    with pytest.raises(DomainError):
        ev("exp(s)", 1e4)     # overflow is an error, not inf
    # integer powers of negative bases are fine
    assert ev("s^2", -3.0) == pytest.approx(9.0)
    assert ev("s^3", -2.0) == pytest.approx(-8.0)


@pytest.mark.parametrize("text,offset", [("1e999", 0), ("s+1e999", 2),
                                         ("2*1.5e400^s", 2)])
def test_non_finite_literal_rejected(text, offset):
    # "1e999" reads as inf: evaluation traps faults instead of scanning
    # values, so every leaf must be finite
    with pytest.raises(ExpressionSyntaxError, match="out of range") as exc:
        parse(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_constants_rejected(value):
    with pytest.raises(ValueError, match="not finite"):
        ensure_expr(value)
    # a tree built by hand: 1/inf is a finite 0, so only the leaf shows it
    with pytest.raises(DomainError) as exc:
        evaluate(Binary("/", Num(1.0), Num(value)), np.array([0.5, 1.0]))
    assert exc.value.subterm == Num(value)


@pytest.mark.parametrize("value", [True, False, np.bool_(True)])
def test_booleans_are_not_expressions(value):
    # bool is an int, but True is not the curvature 1
    with pytest.raises(TypeError, match="cannot interpret"):
        ensure_expr(value)


def test_non_finite_s_rejected():
    with pytest.raises(DomainError) as exc:
        evaluate(parse("s^2"), np.array([0.0, np.inf, np.nan]))
    assert exc.value.s == np.inf
    with pytest.raises(DomainError):
        evaluate(parse("1"), math.nan)


def test_domain_error_message_prints_s_as_a_float():
    with pytest.raises(DomainError) as exc:
        ev("1/s", np.array([1.0, 0.0]))
    assert str(exc.value) == "domain error in '1.0/s' near s=0.0"
    with pytest.raises(DomainError) as exc:
        ev("exp(s)", 1e4)
    assert str(exc.value) == "domain error in 'exp(s)' near s=10000.0"


def test_array_evaluation():
    s = np.linspace(-1, 1, 17)
    np.testing.assert_allclose(ev("s^2+1", s), s ** 2 + 1, rtol=0, atol=0)
    np.testing.assert_allclose(ev("2", s), np.full_like(s, 2.0))
    with pytest.raises(DomainError):
        ev("sqrt(1-s)", np.array([0.0, 2.0]))


def test_differentiate_textbook():
    d = differentiate(parse("3*cos(s)"))
    for s in (0.0, 0.7, -1.3):
        assert evaluate(d, s) == pytest.approx(-3 * math.sin(s), abs=1e-15)
    d2 = differentiate(parse("s^2+s-2"))
    for s in (0.0, 1.0, 4.5):
        assert evaluate(d2, s) == pytest.approx(2 * s + 1, abs=1e-12)
    d3 = differentiate(parse("tan(2*s)"))
    for s in (0.0, 0.5, -0.7):         # clear of the poles at +-pi/4
        assert evaluate(d3, s) == pytest.approx(2 / math.cos(2 * s) ** 2, rel=1e-13)


def test_differentiate_matches_central_difference_on_demo_formulas():
    rng = np.random.default_rng(42)
    h = 1e-5
    for entry in PROFILES.values():
        for text in (entry.kappa, entry.tau):
            e = parse(text)
            de = differentiate(e)
            lo, hi = entry.domain
            pts = rng.uniform(lo + 10 * h, hi - 10 * h, size=50)
            for s in pts:
                sym = evaluate(de, float(s))
                fd = (evaluate(e, s + h) - evaluate(e, s - h)) / (2 * h)
                assert abs(sym - fd) <= 1e-6 * (1 + abs(sym))


def test_sqrt_derivative_matches_central_difference():
    # the demo formulas take sqrt of constants only, where the chain rule's
    # factor 1/2 multiplies a zero derivative
    e = parse("sqrt(1+s^2)")
    de = differentiate(e)
    h = 1e-5
    for s in np.linspace(-2.0, 2.0, 9):
        fd = (evaluate(e, s + h) - evaluate(e, s - h)) / (2 * h)
        assert evaluate(de, float(s)) == pytest.approx(fd, abs=1e-8)
        assert evaluate(de, float(s)) == pytest.approx(s / math.sqrt(1 + s * s), abs=1e-14)


def test_abs_derivative_piecewise():
    d = differentiate(parse("abs(s)"))
    assert evaluate(d, 0.5) == pytest.approx(1.0)
    assert evaluate(d, -0.5) == pytest.approx(-1.0)
    with pytest.raises(DomainError):
        evaluate(d, 0.0)     # undefined exactly at the inner zero


def test_variable_exponent_rejected():
    with pytest.raises(DifferentiationError):
        differentiate(parse("2^s"))


def test_simplify_cancels_double_negation():
    assert simplify(parse("--s")) == Var()
    assert simplify(parse("-(-(s+1))")) == parse("s+1")


def test_simplify_leaves_a_fold_outside_the_reals_unfolded():
    # folding would raise DomainError; the subtree stays, and raises when
    # evaluated
    assert simplify(parse("sqrt(0-1)")) == Unary("sqrt", Num(-1.0))
    assert simplify(parse("1/0")) == Binary("/", Num(1.0), Num(0.0))
    assert simplify(parse("s+1/0")) == parse("s+1/0")
    for text in ("sqrt(0-1)", "1/0"):
        with pytest.raises(DomainError):
            evaluate(simplify(parse(text)), 0.0)


def test_print_examples_roundtrip():
    for text in ["3*cos(s)", "s^2+s-2", "2*sqrt(7)*sin(2*s)*(1+7*sin(2*s)^2)^(-1/2)",
                 "-s^2", "1-(2-3)", "(1+s)*(1-s)", "2^3^2", "s/(1+s^2)"]:
        e = parse(text)
        again = parse(to_text(e))
        for s in np.linspace(0.1, 0.9, 7):
            assert evaluate(again, float(s)) == pytest.approx(
                evaluate(e, float(s)), abs=1e-12)


# ---------------------------------------------------------------------------
# property tests

_leaf = st.one_of(
    st.floats(min_value=-4, max_value=4, allow_nan=False).map(
        lambda v: f"{v:.3f}"),
    st.just("s"),
    st.just("pi"),
)


def _combine(children):
    op = st.sampled_from(["+", "-", "*"])
    fn = st.sampled_from(["sin", "cos", "exp"])
    return st.one_of(
        st.tuples(op, children, children).map(lambda t: f"({t[1]}{t[0]}{t[2]})"),
        st.tuples(fn, children).map(lambda t: f"{t[0]}({t[1]})"),
    )


expr_text = st.recursive(_leaf, _combine, max_leaves=8)


@settings(max_examples=100, deadline=None)
@given(expr_text, st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_print_parse_roundtrip_property(text, s):
    e = parse(text)
    back = parse(to_text(e))
    try:
        a = evaluate(e, s)
    except DomainError:
        assume(False)
        return
    b = evaluate(back, s)
    assert abs(a - b) <= 1e-12 * (1 + abs(a))


@settings(max_examples=60, deadline=None)
@given(expr_text, expr_text,
       st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_differentiate_linearity(f_text, g_text, a, b, s):
    f, g = parse(f_text), parse(g_text)
    combo = parse(f"({a})*({f_text})+({b})*({g_text})")
    try:
        lhs = evaluate(differentiate(combo), s)
        rhs = (a * evaluate(differentiate(f), s)
               + b * evaluate(differentiate(g), s))
    except DomainError:
        assume(False)
        return
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs) + abs(rhs))


# ---------------------------------------------------------------------------
# reference oracle: the evaluator that scanned every node's result

def reference_evaluate(e, s):
    arraylike = np.ndim(s) > 0
    s = np.asarray(s, dtype=float) if arraylike else float(s)
    with np.errstate(all="ignore"):
        value = _ref_eval(e, s)
    if arraylike and np.ndim(value) == 0:
        value = np.full(s.shape, float(value))
    return value


def _ref_check_finite(value, node, s):
    if not np.isfinite(value).all():
        raise DomainError(node, _ref_where(value, lambda x: ~np.isfinite(x), s))
    return value


def _ref_eval(e, s):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return s
    if isinstance(e, Unary):
        v = _ref_eval(e.arg, s)
        if e.op == "neg":
            return -v
        if e.op == "sqrt":
            if (np.asarray(v) < 0).any():
                raise DomainError(e, _ref_where(v, lambda x: x < 0, s))
            return np.sqrt(v)
        if e.op == "abs":
            return np.abs(v)
        fn = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp}[e.op]
        return _ref_check_finite(fn(v), e, s)
    a = _ref_eval(e.left, s)
    b = _ref_eval(e.right, s)
    if e.op == "+":
        return _ref_check_finite(a + b, e, s)
    if e.op == "-":
        return _ref_check_finite(a - b, e, s)
    if e.op == "*":
        return _ref_check_finite(a * b, e, s)
    if e.op == "/":
        if (np.asarray(b) == 0).any():
            raise DomainError(e, _ref_where(b, lambda x: x == 0, s))
        return _ref_check_finite(a / b, e, s)
    ev_ = np.asarray(b)
    if (ev_ == np.floor(ev_)).all():
        return _ref_check_finite(np.power(a, ev_), e, s)
    if (np.asarray(a) <= 0).any():
        raise DomainError(e, _ref_where(a, lambda x: x <= 0, s))
    return _ref_check_finite(np.power(a, b), e, s)


def _ref_where(v, pred, s):
    if np.ndim(v) == 0 or np.ndim(s) == 0:
        return s
    mask = pred(np.asarray(v))
    return np.asarray(s)[mask][0]


_constants = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e300, -1e300, 1e-300, 5e-324]),
)
_exponents = st.sampled_from([-3.0, -2.0, -1.0, -0.5, 1.0 / 3.0, 0.5, 1.5, 2.0, 3.0,
                              400.0, -400.0])


def _trees(depth):
    leaf = st.one_of(st.builds(Num, _constants), st.just(Num(math.pi)), st.just(Var()))
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "tan", "sqrt",
                                          "abs", "exp"]), sub),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
        st.builds(lambda a, c: Binary("^", a, Num(c)), sub, _exponents),
        # tan a few ulp either side of pi/2
        st.builds(lambda c, k: Unary("tan", Binary("+", Num(c), Binary("*", Num(k), Var()))),
                  st.floats(min_value=1.5707963267948950, max_value=1.5707963267948983),
                  st.sampled_from([0.0, 1e-16, 1.0])),
        st.builds(lambda c: Unary("exp", Binary("*", Num(c), Var())),
                  st.floats(min_value=-1000, max_value=1000)),
    )


_grids = st.one_of(
    st.floats(min_value=-10, max_value=10),
    st.builds(lambda xs, i: np.insert(np.array(xs), i % (len(xs) + 1), 0.0),
              st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=12),
              st.integers(min_value=0, max_value=12)),
)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=600, deadline=None)
@given(_trees(4), _grids)
def test_trapping_evaluator_matches_the_scanning_one(e, s):
    try:
        want = reference_evaluate(e, s)
    except DomainError as ref:
        with pytest.raises(DomainError) as got:
            evaluate(e, s)
        assert to_text(got.value.subterm) == to_text(ref.subterm)
        assert _bits(got.value.s) == _bits(ref.s)
        return
    value = evaluate(e, s)
    assert np.shape(value) == np.shape(want)
    assert _bits(value) == _bits(want)


# ---------------------------------------------------------------------------
# sampled leaves

def sampled_sine(n=401):
    s = np.linspace(0.0, 2.0, n)
    return Samples(s, np.sin(3.0 * s))


def test_samples_differentiate_by_the_window_5_filter():
    leaf = sampled_sine()
    d = differentiate(leaf)
    assert isinstance(d, Samples) and d.s is leaf.s
    h = leaf.s[1] - leaf.s[0]
    assert d.values.tobytes() == sg_derivative(leaf.values, h, 5).tobytes()
    # inside a tree, by the chain rule over the same leaf
    tree = differentiate(Binary("*", Num(2.0), Unary("sin", leaf)))
    np.testing.assert_allclose(evaluate(tree, leaf.s),
                               2.0 * np.cos(leaf.values) * d.values, rtol=1e-15)


def test_samples_are_not_constant_and_pass_through_simplify():
    leaf = sampled_sine()
    assert not is_constant(leaf)
    assert not is_constant(Binary("+", Num(1.0), leaf))
    assert simplify(leaf) is leaf
    assert simplify(Binary("+", leaf, Num(0.0))) is leaf


def test_samples_print_as_a_placeholder_named_in_domain_errors():
    leaf = sampled_sine()
    assert to_text(Binary("/", Num(1.0), leaf)) == "1.0/samples[401]"
    with pytest.raises(DomainError, match=r"samples\[401\]"):
        evaluate(Unary("sqrt", leaf), leaf.s)
