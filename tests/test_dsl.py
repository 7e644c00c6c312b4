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
from sullivan.constructors import biquotient_model, hp_model, sphere_model
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


# -- every raise site, by its full text -----------------------------------

S8 = sphere_model(8)
AB = "model A {\n  gen x4 : 4;\n}\nmodel B {\n  gen y4 : 4;\n}\n"


def _model(body):
    return parse_model("model M {\n" + body + "\n}\n").to_model()


def _biquotient(body):
    return parse_classifying("biquotient B {\n" + body + "\n}\n")


def _morphism(body):
    return parse_morphism(AB + "morphism f : A -> B {\n" + body + "\n}\n")


def _pontryagin(body, rank=2):
    return parse_pontryagin("pontryagin P {\n" + body + "\n}\n", S8, rank)


# (case, run, the full str of the DslError it raises)
ERRORS = [
    (
        "lexer-unexpected-character",
        lambda: _model("  gen x4 : 4; $"),
        "line 2, column 15: unexpected character '$'",
    ),
    (
        "expected-document-keyword",
        lambda: parse_source("3"),
        "line 1, column 1: expected a document keyword, found '3'",
    ),
    (
        "expected-one-of-the-document-keywords",
        lambda: parse_source("widget W {\n}\n"),
        "line 1, column 1: expected 'model', 'morphism', 'biquotient', or 'pontryagin', found 'widget'",
    ),
    (
        "expected-model-name",
        lambda: parse_source("model {\n}\n"),
        "line 1, column 7: expected a model name, found '{'",
    ),
    (
        "expected-pontryagin-name",
        lambda: parse_source("pontryagin ;"),
        "line 1, column 12: expected a pontryagin name, found ';'",
    ),
    (
        "expected-open-brace",
        lambda: parse_source("model M gen"),
        "line 1, column 9: expected '{', found 'gen'",
    ),
    (
        "expected-model-keyword",
        lambda: _model("  x4 : 4;"),
        "line 2, column 3: expected 'gen' or 'd', found 'x4'",
    ),
    (
        "expected-model-keyword-at-end",
        lambda: parse_source("model M {\n  gen x4 : 4;\n"),
        "line 3, column 1: expected 'gen' or 'd', found 'end of input'",
    ),
    (
        "expected-biquotient-keyword",
        lambda: _biquotient("  gen u : 4;"),
        "line 2, column 3: expected 'wh', 'wk', 'v', 'phiH', or 'phiK', found 'gen'",
    ),
    (
        "expected-generator-name",
        lambda: _model("  gen 4 : 4;"),
        "line 2, column 7: expected a generator name, found '4'",
    ),
    (
        "expected-assigned-generator-name",
        lambda: _model("  d = x4;"),
        "line 2, column 5: expected a generator name, found '='",
    ),
    (
        "expected-middle-generator-name",
        lambda: _biquotient("  phiH 3 = a4;"),
        "line 2, column 8: expected a middle generator name, found '3'",
    ),
    (
        "expected-colon",
        lambda: _model("  gen x4 = 4;"),
        "line 2, column 10: expected ':', found '='",
    ),
    (
        "expected-equals",
        lambda: _model("  d x4 : x4;"),
        "line 2, column 8: expected '=', found ':'",
    ),
    (
        "expected-degree",
        lambda: _model("  gen x4 : y;"),
        "line 2, column 12: expected a degree, found 'y'",
    ),
    (
        "expected-semicolon",
        lambda: _model("  gen x4 : 4\n  gen y4 : 4;"),
        "line 3, column 3: expected ';', found 'gen'",
    ),
    (
        "expected-suspension-name",
        lambda: _biquotient("  v u : 4 as ;"),
        "line 2, column 14: expected a suspension name, found ';'",
    ),
    (
        "alias-only-on-middle-generators",
        lambda: _biquotient("  wh u : 4 as s;"),
        "line 2, column 12: expected ';', found 'as'",
    ),
    (
        "expected-header-colon",
        lambda: parse_source("morphism f A -> B {\n}\n"),
        "line 1, column 12: expected ':', found 'A'",
    ),
    (
        "expected-source-model-name",
        lambda: parse_source("morphism f : -> B {\n}\n"),
        "line 1, column 14: expected a source model name, found '->'",
    ),
    (
        "expected-header-arrow",
        lambda: parse_source("morphism f : A B {\n}\n"),
        "line 1, column 16: expected '->', found 'B'",
    ),
    (
        "expected-target-model-name",
        lambda: parse_source("morphism f : A -> {\n}\n"),
        "line 1, column 19: expected a target model name, found '{'",
    ),
    (
        "expected-source-generator-name",
        lambda: _morphism("  3 -> y4;"),
        "line 8, column 3: expected a source generator name, found '3'",
    ),
    (
        "expected-image-arrow",
        lambda: _morphism("  x4 = y4;"),
        "line 8, column 6: expected '->', found '='",
    ),
    (
        "expected-class-keyword",
        lambda: _pontryagin("  q 1 = a8;"),
        "line 2, column 3: expected 'p', found 'q'",
    ),
    (
        "expected-class-index",
        lambda: _pontryagin("  p x = a8;"),
        "line 2, column 5: expected a class index, found 'x'",
    ),
    (
        "expected-class-equals",
        lambda: _pontryagin("  p 1 : a8;"),
        "line 2, column 7: expected '=', found ':'",
    ),
    (
        "expected-term",
        lambda: parse_expression("x4 + ", ENV),
        "line 1, column 6: expected a term, found 'end of input'",
    ),
    (
        "expected-factor-after-star",
        lambda: parse_expression("x4 * 3", ENV),
        "line 1, column 6: expected a generator name, found '3'",
    ),
    (
        "expected-denominator",
        lambda: parse_expression("3/x4", ENV),
        "line 1, column 3: expected denominator, found 'x4'",
    ),
    (
        "expected-exponent",
        lambda: parse_expression("x4^y4", ENV),
        "line 1, column 4: expected exponent, found 'y4'",
    ),
    (
        "expected-semicolon-after-expression",
        lambda: _model("  gen x4 : 4;\n  gen x7 : 7;\n  d x7 = x4^2^3;"),
        "line 4, column 14: expected ';', found '^'",
    ),
    (
        "zero-denominator",
        lambda: _model("  gen x4 : 4;\n  gen x9 : 9;\n  d x9 = 1/0*x4;"),
        'line 4, column 12: zero denominator',
    ),
    (
        "non-positive-exponent",
        lambda: parse_expression("x4^0", ENV),
        'line 1, column 4: exponent must be positive',
    ),
    (
        "generator-declared-twice",
        lambda: _model("  gen x4 : 4;\n  gen x4 : 4;"),
        "line 3, column 7: generator 'x4' declared twice",
    ),
    (
        "name-declared-twice",
        lambda: _biquotient("  wh a4 : 4;\n  v a4 : 4;"),
        "line 3, column 5: name 'a4' declared twice",
    ),
    (
        "model-degree-below-one",
        lambda: _model("  gen x0 : 0;"),
        'line 2, column 7: generator degree must be >= 1, got 0',
    ),
    (
        "biquotient-degree-below-one",
        lambda: _biquotient("  wk b : 0;"),
        'line 2, column 6: generator degree must be >= 1, got 0',
    ),
    (
        "declarations-resolve-before-differentials",
        lambda: _model("  d x7 = w4;\n  gen x7 : 7;\n  gen x7 : 7;"),
        "line 4, column 7: generator 'x7' declared twice",
    ),
    (
        "unknown-generator-in-expression",
        lambda: _model("  gen x4 : 4;\n  gen x7 : 7;\n  d x7 = x4*w4;"),
        "line 4, column 13: unknown generator 'w4'",
    ),
    (
        "unknown-generator-assigned",
        lambda: _model("  gen x4 : 4;\n  d y4 = x4;"),
        "line 3, column 5: unknown generator 'y4'",
    ),
    (
        "unknown-source-model",
        lambda: parse_morphism("morphism f : A -> B {\n}\n"),
        "line 1, column 10: unknown source model 'A'",
    ),
    (
        "unknown-target-model",
        lambda: parse_morphism(AB + "morphism f : A -> C {\n}\n"),
        "line 7, column 10: unknown target model 'C'",
    ),
    (
        "models-resolve-before-the-morphism",
        lambda: parse_morphism("model A {\n  d q = 1;\n}\nmorphism f : A -> C {\n}\n"),
        "line 2, column 5: unknown generator 'q'",
    ),
    (
        "unknown-source-generator",
        lambda: _morphism("  y4 -> y4;"),
        "line 8, column 3: unknown source generator 'y4'",
    ),
    (
        "unknown-generator-in-image",
        lambda: _morphism("  x4 -> x4;"),
        "line 8, column 9: unknown generator 'x4'",
    ),
    (
        "unknown-middle-generator-phiH",
        lambda: _biquotient("  wh a4 : 4;\n  phiH a4 = a4;"),
        "line 3, column 8: phiH assigned to unknown middle generator 'a4'",
    ),
    (
        "unknown-middle-generator-phiK",
        lambda: _biquotient("  wk b4 : 4;\n  v u4 : 4;\n  phiK w4 = b4;"),
        "line 4, column 8: phiK assigned to unknown middle generator 'w4'",
    ),
    (
        "phiH-resolves-over-wh-only",
        lambda: _biquotient("  wh a4 : 4;\n  wk b4 : 4;\n  v u4 : 4;\n  phiH u4 = b4;"),
        "line 5, column 13: unknown generator 'b4'",
    ),
    (
        "phiH-resolves-before-phiK",
        lambda: _biquotient("  wh a4 : 4;\n  v u4 : 4;\n  phiK u4 = a4;\n  phiH q4 = a4;"),
        "line 5, column 8: phiH assigned to unknown middle generator 'q4'",
    ),
    (
        "differential-assigned-twice",
        lambda: _model("  gen x4 : 4;\n  gen x7 : 7;\n  d x7 = x4^2;\n  d x7 = 0;"),
        "line 5, column 5: differential of 'x7' assigned twice",
    ),
    (
        "image-assigned-twice",
        lambda: _morphism("  x4 -> y4;\n  x4 -> 2*y4;"),
        "line 9, column 3: image of 'x4' assigned twice",
    ),
    (
        "phiH-assigned-twice",
        lambda: _biquotient("  wh a4 : 4;\n  v u4 : 4;\n  phiH u4 = a4;\n  phiH u4 = a4;"),
        'line 5, column 8: phiH(u4) assigned twice',
    ),
    (
        "phiK-assigned-twice",
        lambda: _biquotient("  wk b4 : 4;\n  v u4 : 4;\n  phiK u4 = b4;\n  phiK u4 = b4;"),
        'line 5, column 8: phiK(u4) assigned twice',
    ),
    (
        "class-assigned-twice-with-leading-zero",
        lambda: _pontryagin("  p 1 = 0;\n  p 01 = 0;"),
        'line 3, column 5: class p_1 assigned twice',
    ),
    (
        "class-index-above-rank",
        lambda: _pontryagin("  p 3 = a8;"),
        'line 2, column 5: class index 3 outside 1..2',
    ),
    (
        "class-index-zero",
        lambda: _pontryagin("  p 00 = a8;"),
        'line 2, column 5: class index 0 outside 1..2',
    ),
    (
        "statements-resolve-in-text-order",
        lambda: _pontryagin("  p 1 = a8;\n  p 1 = a8;\n  p 5 = a8;", 1),
        'line 3, column 5: class p_1 assigned twice',
    ),
    (
        "unknown-generator-in-class",
        lambda: _pontryagin("  p 2 = w8;"),
        "line 2, column 9: unknown generator 'w8'",
    ),
    (
        "body-parsed-before-defined-twice",
        lambda: parse_source("model M {\n}\nmodel M {\n  x\n}\n"),
        "line 4, column 3: expected 'gen' or 'd', found 'x'",
    ),
    (
        "document-defined-twice",
        lambda: parse_source("model M {\n}\nmodel M {\n}\n"),
        "line 3, column 7: document 'M' defined twice",
    ),
    (
        "no-model-named",
        lambda: parse_model(AB, name="C"),
        "line 1, column 1: no model named 'C' in the file",
    ),
    (
        "no-biquotient-named",
        lambda: parse_classifying("biquotient B {\n}\n", name="X"),
        "line 1, column 1: no biquotient named 'X' in the file",
    ),
    (
        "expected-exactly-one-model",
        lambda: parse_model(AB),
        'line 1, column 1: expected exactly one model document, found 2',
    ),
    (
        "expected-exactly-one-pontryagin",
        lambda: parse_pontryagin("model M {\n}\n", S8, 1),
        'line 1, column 1: expected exactly one pontryagin document, found 0',
    ),
    (
        "expected-exactly-one-morphism",
        lambda: parse_morphism(AB),
        'line 1, column 1: expected exactly one morphism document, found 0',
    ),
    (
        "not-a-cdga-map",
        lambda: parse_morphism("model A {\n  gen x4 : 4;\n  gen x7 : 7;\n  d x7 = x4^2;\n}\n" + "model B {\n  gen y4 : 4;\n}\n" + "morphism f : A -> B {\n  x4 -> y4;\n}\n"),
        "line 9, column 10: morphism 'f' is not a CDGA map: chain condition fails on x7: image of d(x7) is y4^2, but d of the image is 0",
    ),
    (
        "trailing-input",
        lambda: parse_expression("x4 y4", ENV),
        "line 1, column 4: unexpected trailing input 'y4'",
    ),
]


@pytest.mark.parametrize("run, text", [c[1:] for c in ERRORS], ids=[c[0] for c in ERRORS])
def test_every_dsl_error_text(run, text):
    assert positioned_error(run) == text


def test_pontryagin_document_keeps_only_its_classes_at_any_rank():
    data = parse_pontryagin(data_text("thm33_n2.pont"), S8, 10**9)
    assert data.classes == {2: Polynomial.gen(S8.gen("a8"))}


def test_statements_resolve_whatever_their_order():
    late_gen = parse_model("model M {\n  d x7 = x4^2;\n  gen x7 : 7;\n  gen x4 : 4;\n}\n")
    assert render_model(late_gen.to_model()) == render_model(hp_model(1))
    padded = _pontryagin("  p 02 = a8;")
    assert padded.classes == {2: Polynomial.gen(S8.gen("a8"))}
