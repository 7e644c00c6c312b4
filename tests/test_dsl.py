from fractions import Fraction

import pytest

from sullivan.cdga import compose_and_check
from sullivan.dsl import (
    DslError,
    check_document,
    parse_classifying,
    parse_expression,
    parse_model,
    parse_morphism,
    parse_pontryagin,
    parse_source,
    render_classifying,
    render_model,
    render_morphism,
    render_pontryagin,
)
from sullivan.constructors import biquotient_model, hp_model
from sullivan.gradedalg import Generator, Monomial, Polynomial
from sullivan.presets import data_files, data_text

from helpers import random_pure_model

X4 = Generator("x4", 4)
Y4 = Generator("y4", 4)
Z3 = Generator("z3", 3)
ENV = {"x4": X4, "y4": Y4, "z3": Z3}


def positioned_error(fn) -> str:
    with pytest.raises(DslError) as info:
        fn()
    return str(info.value)


# -- expression grammar -------------------------------------------------


def test_rational_coefficients():
    p = parse_expression("1/2*x4 - 3*y4", ENV)
    assert p.coefficient(Monomial(((X4, 1),))) == Fraction(1, 2)
    assert p.coefficient(Monomial(((Y4, 1),))) == Fraction(-3)


def test_power_binds_tighter_than_product():
    assert parse_expression("2*x4^2", ENV) == 2 * Polynomial.gen(X4) ** 2
    assert parse_expression("x4 ^ 2 * y4", ENV) == Polynomial.gen(X4) ** 2 * Polynomial.gen(Y4)


def test_leading_signs_and_sums():
    assert parse_expression("+x4", ENV) == Polynomial.gen(X4)
    assert parse_expression("-x4 + x4", ENV).is_zero()
    assert parse_expression("- 2 * x4 - 3*y4", ENV) == -2 * Polynomial.gen(X4) - 3 * Polynomial.gen(Y4)
    # one sign per term; doubled signs are a syntax error
    with pytest.raises(DslError, match="expected a term"):
        parse_expression("x4 - -3*y4", ENV)


def test_primed_identifiers():
    env = dict(ENV, **{"x4''": Generator("x4''", 4)})
    p = parse_expression("x4''^2", env)
    assert str(p) == "x4''^2"


def test_odd_square_collapses_to_zero():
    assert parse_expression("z3*z3", ENV).is_zero()
    assert parse_expression("z3^2", ENV).is_zero()


def test_every_factor_is_resolved_even_after_an_odd_square():
    for text in ("z3^2*w4 + y4^2", "z3*z3*w4 + y4^2"):
        msg = positioned_error(lambda: parse_expression(text, ENV))
        assert msg.endswith("unknown generator 'w4'")


def test_factors_are_put_in_canonical_order_with_their_sign():
    b3 = Generator("b3", 3)
    env = dict(ENV, b3=b3)
    assert parse_expression("z3*x4*b3", env) == -parse_expression("b3*z3*x4", env)
    assert parse_expression("x4*y4^2*x4", env) == parse_expression("x4^2*y4^2", env)
    assert parse_expression("2*z3*x4^2*z3", env).is_zero()


def test_pure_number_term():
    assert parse_expression("5", ENV) == Polynomial.scalar(5)
    assert parse_expression("3/4", ENV) == Polynomial.scalar(Fraction(3, 4))


def test_expression_error_positions():
    msg = positioned_error(lambda: parse_expression("x4 + ", ENV))
    assert msg == "line 1, column 6: expected a term, found 'end of input'"
    msg = positioned_error(lambda: parse_expression("3/0", ENV))
    assert msg == "line 1, column 3: zero denominator"
    msg = positioned_error(lambda: parse_expression("x4^2^3", ENV))
    assert msg.startswith("line 1, column 5:")
    msg = positioned_error(lambda: parse_expression("w4", ENV))
    assert "unknown generator 'w4'" in msg


# -- documents -----------------------------------------------------------


def test_model_document_round_trip():
    text = (
        "model M {\n"
        "  gen x4 : 4;\n"
        "  gen x7 : 7;\n"
        "  d x7 = x4^2;\n"
        "}\n"
    )
    model = parse_model(text).to_model()
    assert render_model(model, name="M") == text
    assert parse_model(render_model(model, name="M")).to_model() == model


def test_comments_and_whitespace_are_ignored():
    text = "# heading\nmodel M { # inline\n  gen x4:4;# tight\n}\n"
    model = parse_model(text).to_model()
    assert tuple(g.name for g in model.generators) == ("x4",)


def test_document_error_positions():
    assert positioned_error(
        lambda: parse_model("model M {\n  gen x4 : 4\n  gen y4 : 4;\n}\n")
    ) == "line 3, column 3: expected ';', found 'gen'"
    assert positioned_error(
        lambda: parse_model("model M {\n  gen x4 : 4;\n  d y4 = x4;\n}\n").to_model()
    ) == "line 3, column 5: unknown generator 'y4'"
    assert positioned_error(
        lambda: parse_model("model M {\n  gen x4 : 4;\n  gen x4 : 4;\n}\n").to_model()
    ) == "line 3, column 7: generator 'x4' declared twice"
    assert positioned_error(
        lambda: parse_classifying("biquotient B {\n  wh a : 0;\n}\n")
    ) == "line 2, column 6: generator degree must be >= 1, got 0"
    assert positioned_error(
        lambda: parse_source("widget W {\n}\n")
    ) == "line 1, column 1: expected 'model', 'morphism', 'biquotient', or 'pontryagin', found 'widget'"


def test_parse_model_document_selection():
    two = "model A {\n  gen x4 : 4;\n}\nmodel B {\n  gen y4 : 4;\n}\n"
    assert parse_model(two, name="B").name == "B"
    with pytest.raises(DslError, match="expected exactly one model"):
        parse_model(two)
    with pytest.raises(DslError, match="no model named"):
        parse_model(two, name="C")


def test_check_document_positions_validation_output():
    text = "model M {\n  gen b4 : 4;\n  gen v7 : 7;\n  d v7 = b4^4;\n}\n"
    problems = check_document(parse_model(text))
    assert problems == [
        "line 4, column 5: d(v7) is not homogeneous of degree 8: "
        "term b4^4 has degree 16"
    ]


def test_morphism_document_checks_chain_condition():
    text = (
        "model A {\n  gen x4 : 4;\n}\n"
        "model B {\n  gen y4 : 4;\n}\n"
        "morphism f : A -> B {\n  x4 -> y4;\n}\n"
    )
    f = parse_morphism(text)
    assert compose_and_check(f) == []
    missing = positioned_error(lambda: parse_morphism("morphism f : A -> B {\n}\n"))
    assert missing == "line 1, column 10: unknown source model 'A'"


def test_morphism_render_round_trip():
    text = data_text("thm34_f.morphism")
    f = parse_morphism(text)
    rendered = render_morphism(f, name="f", source_name="biq_reduced", target_name="pe")
    again = parse_morphism(rendered)
    assert again.images == f.images
    assert again.source == f.source and again.target == f.target


def test_biquotient_and_pontryagin_round_trip():
    data = parse_classifying(data_text("thm34.bq"))
    rendered = render_classifying(data, name="thm34")
    assert parse_classifying(rendered) == data

    base = hp_model(2, prefix="y")
    pont = parse_pontryagin(data_text("thm34.pont"), base, 2)
    rendered = render_pontryagin(pont, name="thm34")
    assert parse_pontryagin(rendered, base, 2) == pont


def test_random_models_round_trip_through_renderer(rng):
    for _ in range(15):
        model = random_pure_model(rng)
        text = render_model(model, name="R")
        assert parse_model(text).to_model() == model


@pytest.mark.parametrize("filename", [f for f in data_files() if not f.endswith(".discrepancies")])
def test_every_shipped_document_parses(filename):
    source = parse_source(data_text(filename))
    count = (
        len(source.models)
        + len(source.morphisms)
        + len(source.biquotients)
        + len(source.pontryagin)
    )
    assert count >= 1


def test_verbatim_exhibit_morphism_fails_chain_condition():
    msg = positioned_error(lambda: parse_morphism(data_text("thm34_f_verbatim.morphism")))
    assert msg.startswith("line 24, column 10: morphism 'f_claim' is not a CDGA map")
    assert "chain condition fails on xbar7" in msg
    assert "chain condition fails on ybar11" in msg


def test_verbatim_exhibit_morphism_names_unknown_generator():
    msg = positioned_error(lambda: parse_morphism(data_text("thm33_n2_eta_verbatim.morphism")))
    assert msg == "line 20, column 11: unknown generator 'b15'"


def test_verbatim_exhibit_models_fail_validation():
    for name, offending in [
        ("thm33_verbatim_n2.model", "term b4^4 has degree 16"),
        ("prop32_verbatim_n2.model", "term c4 has degree 4"),
    ]:
        problems = check_document(parse_model(data_text(name)))
        assert problems, name
        assert any(offending in p for p in problems), (name, problems)


def test_shipped_biquotients_build_valid_models():
    for filename in data_files():
        if not filename.endswith(".bq"):
            continue
        model = biquotient_model(parse_classifying(data_text(filename)))
        assert model.generators
