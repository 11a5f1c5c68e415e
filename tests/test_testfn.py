import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stromlab.jets import Jet, jet_space
from stromlab.testfn import (
    EvaluationDomainError,
    Node,
    ParseError,
    parse_testfn,
    pretty_print,
)


def evalf(src, **env):
    return parse_testfn(src)(env)


def test_constant_tree():
    expr = parse_testfn("0.5*log(0.5)")
    assert expr({}) == pytest.approx(0.5 * math.log(0.5))
    assert expr.variables() == set()


def test_radial_profile_expression():
    expr = parse_testfn("-1.5*log(rho)")
    assert expr({"rho": 2.0}) == pytest.approx(-1.5 * math.log(2.0))
    # h' = -3/(2 rho) via a 1-variable jet
    space = jet_space(1, 1)
    rho = Jet.variable(space, 0, 2.0)
    out = expr({"rho": rho})
    assert out.partial((1,)) == pytest.approx(-3.0 / (2.0 * 2.0))


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse_testfn("log(")
    assert err.value.offset == 4


def test_unknown_identifier_offset():
    with pytest.raises(ParseError) as err:
        parse_testfn("2*foo")
    assert err.value.offset == 2


def test_unknown_function():
    with pytest.raises(ParseError):
        parse_testfn("tanh(rho)")


def test_trailing_input():
    with pytest.raises(ParseError):
        parse_testfn("1 2")


def test_precedence_and_unary_minus():
    assert evalf("2+3*4") == 14.0
    assert evalf("-2^2") == -4.0  # ^ binds tighter than unary minus
    assert evalf("(-2)^2") == 4.0
    assert evalf("2^-1") == 0.5
    assert evalf("(1+1)^3") == 8.0
    assert evalf("2^3^2") == 512.0  # right associative
    assert evalf("8/4/2") == 1.0  # left associative
    assert evalf("1-2-3") == -4.0


def test_functions_compose():
    assert evalf("exp(log(3.0))") == pytest.approx(3.0)
    assert evalf("sqrt(x1^2+x2^2)", x1=3.0, x2=4.0) == pytest.approx(5.0)
    assert evalf("sin(zr)*cos(zi)", zr=0.3, zi=0.8) == pytest.approx(math.sin(0.3) * math.cos(0.8))


def test_domain_errors():
    with pytest.raises(EvaluationDomainError):
        evalf("log(zr)", zr=-1.0)
    with pytest.raises(EvaluationDomainError):
        evalf("sqrt(zr)", zr=-0.5)
    with pytest.raises(EvaluationDomainError):
        evalf("1/zr", zr=0.0)
    with pytest.raises(EvaluationDomainError):
        evalf("rho", zr=1.0)  # variable not bound in this context


def test_overflow_is_a_domain_error():
    with pytest.raises(EvaluationDomainError):
        evalf("exp(exp(exp(2)))")
    with pytest.raises(EvaluationDomainError):
        evalf("4^3^3^2")
    with pytest.raises(EvaluationDomainError):
        evalf("1e300*1e300")  # inf without an OverflowError
    with pytest.raises(EvaluationDomainError):
        evalf("0^-1")
    with pytest.raises(ParseError):
        parse_testfn("1e999")
    # on jets the overflow would otherwise come back as NaN coefficients
    rho = Jet.variable(jet_space(1, 2), 0, 800.0)
    with pytest.raises(EvaluationDomainError):
        evalf("rho^3^3^3", rho=rho)


def test_jet_evaluation_matches_scalar():
    src = "exp(0.3*x1)*sin(x2)+x1^3/(1+x2^2)"
    expr = parse_testfn(src)
    x1, x2 = 0.7, -0.4
    space = jet_space(2, 2)
    jx1 = Jet.variable(space, 0, x1)
    jx2 = Jet.variable(space, 1, x2)
    jet = expr({"x1": jx1, "x2": jx2})
    assert jet.value.real == pytest.approx(expr({"x1": x1, "x2": x2}))
    h = 1e-6
    fd = (expr({"x1": x1 + h, "x2": x2}) - expr({"x1": x1 - h, "x2": x2})) / (2 * h)
    assert jet.partial((1, 0)).real == pytest.approx(fd, abs=1e-6)


def test_pretty_print_round_trip_idempotent():
    cases = [
        "0.5*log(0.5)",
        "-1.5*log(rho)",
        "2+3*4-1",
        "2^3^2",
        "-(zr+zi)^2",
        "sqrt(1+R)/(2-R)",
        "exp(-x1)*sin(x2+x3)",
        "1-2-3",
        "8/4/2",
        "-(x1^2)",
        "2^(-x1)",
    ]
    for src in cases:
        expr = parse_testfn(src)
        printed = pretty_print(expr)
        reparsed = parse_testfn(printed)
        assert reparsed.root == expr.root
        assert pretty_print(reparsed) == printed
        env = {v: 0.37 for v in expr.variables()}
        assert expr(env) == pytest.approx(reparsed(env))
    # a hand-built negative literal, which the parser never makes: (-2)^2 = 4
    tree = Node("^", args=(Node("num", -2.0), Node("num", 2.0)))
    printed = pretty_print(tree)
    reparsed = parse_testfn(printed)
    assert pretty_print(reparsed) == printed
    assert reparsed({}) == 4.0


@settings(max_examples=60, deadline=None)
@given(st.recursive(
    st.one_of(
        st.floats(min_value=0.1, max_value=4.0).map(lambda v: ("num", round(v, 3))),
        st.sampled_from(["rho", "zr", "R"]).map(lambda v: ("var", v)),
    ),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.tuples(st.sampled_from(["exp", "sin", "cos"]), children),
        st.tuples(st.just("neg"), children),
    ),
    max_leaves=12,
))
@example(("exp", ("exp", ("exp", ("num", 2.0)))))
@example(("exp", ("exp", ("/", ("num", 2.0), ("num", 0.25)))))
def test_round_trip_random_trees(tree):
    def render(t):
        if t[0] == "num":
            return repr(t[1])
        if t[0] == "var":
            return t[1]
        if t[0] == "neg":
            return f"(-{render(t[1])})"
        if t[0] in ("exp", "sin", "cos"):
            return f"{t[0]}({render(t[1])})"
        return f"({render(t[1])}{t[0]}{render(t[2])})"

    src = render(tree)
    try:
        expr = parse_testfn(src)
        value = expr({"rho": 1.3, "zr": 0.4, "R": 2.0})
    except EvaluationDomainError:
        return
    printed = pretty_print(expr)
    again = parse_testfn(printed)
    assert again.root == expr.root
    assert pretty_print(again) == printed
    assert again({"rho": 1.3, "zr": 0.4, "R": 2.0}) == pytest.approx(value)
