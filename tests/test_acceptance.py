"""End-to-end acceptance gate.

Each test covers one numbered criterion, checks exact integer results, and
enforces a wall-clock budget.  One PASS/FAIL line per criterion is printed
and echoed in the terminal summary after the run.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import conftest

from sullivan.cdga import apply_d, compose_and_check, rename_generators, validate
from sullivan.cli import main
from sullivan.cohomology import RingPresentation, betti, is_quasi_iso, quotient_ring_dims
from sullivan.constructors import (
    PontryaginData,
    biquotient_model,
    hp_model,
    projectivize,
    sphere_model,
)
from sullivan.dsl import (
    DslError,
    check_document,
    parse_classifying,
    parse_model,
    parse_pontryagin,
    parse_source,
    render_classifying,
    render_model,
    render_morphism,
    render_pontryagin,
)
from sullivan.gradedalg import Generator, Polynomial
from sullivan.presets import (
    classifying_data,
    comparison_morphism,
    data_files,
    data_text,
    pontryagin_setup,
)
from sullivan.reduction import reduce

from helpers import random_polynomial, random_pure_model, random_reducible_model


def _report(line: str) -> None:
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


@contextmanager
def criterion(number: int, limit: float, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(f"criterion {number}: FAIL ({label})")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit else "FAIL"
    _report(f"criterion {number}: {verdict} in {elapsed:.2f}s (limit {limit:.0f}s) {label}")
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s, limit {limit}s"


def gen_of(model, name):
    return next(g for g in model.generators if g.name == name)


HP_BETTI = {0: 1, 4: 2, 8: 2, 12: 1}


def test_criterion_1_projectivization_and_biquotient_agree():
    with criterion(1, 10.0, "rank-2 projectivization vs four-generator biquotient"):
        pe = projectivize(pontryagin_setup("thm34"))
        pe_report = betti(pe, 16)
        assert pe_report.nonzero() == HP_BETTI

        x4 = gen_of(pe, "x4")
        y4 = gen_of(pe, "y4")
        px, py = Polynomial.gen(x4), Polynomial.gen(y4)
        pres = RingPresentation((x4, y4), (px ** 2 + px * py + py ** 2, py ** 3))
        dims = quotient_ring_dims(pres, 16)
        for degree in range(17):
            assert dims[degree] == pe_report.betti[degree], degree

        biq = biquotient_model(classifying_data("thm34"))
        reduced, _ = reduce(biq)
        assert tuple(g.name for g in reduced.generators) == ("a4", "b4", "v7", "v11")
        a4, b4 = gen_of(reduced, "a4"), gen_of(reduced, "b4")
        pa, pb = Polynomial.gen(a4), Polynomial.gen(b4)
        assert reduced.d(gen_of(reduced, "v7")) == 3 * pb * (pa - pb) - pa ** 2
        assert reduced.d(gen_of(reduced, "v11")) == -(pb ** 3)
        assert betti(biq, 16).nonzero() == HP_BETTI
        assert betti(reduced, 16).nonzero() == HP_BETTI

        f = comparison_morphism("thm34")
        assert compose_and_check(f) == []
        assert is_quasi_iso(f, 16).ok


def test_criterion_2_sphere_tower_reductions():
    with criterion(2, 10.0, "rank-n bundle over a sphere vs one-sided quotient"):
        for n, top in ((2, 16), (3, 20)):
            expected = {4 * i: 1 for i in range(2 * n)}

            pe = projectivize(pontryagin_setup("thm33", n))
            pe_red, _ = reduce(pe)
            assert tuple(g.name for g in pe_red.generators) == ("x4", f"a{8 * n - 1}")
            x4 = gen_of(pe_red, "x4")
            top_gen = gen_of(pe_red, f"a{8 * n - 1}")
            assert pe_red.d(top_gen) == Polynomial.gen(x4) ** (2 * n)
            assert betti(pe_red, top).nonzero() == expected

            biq = biquotient_model(classifying_data("thm33", n))
            biq_red, _ = reduce(biq)
            assert tuple(g.name for g in biq_red.generators) == ("b4", f"v{8 * n - 1}")
            b4 = gen_of(biq_red, "b4")
            v_top = gen_of(biq_red, f"v{8 * n - 1}")
            assert biq_red.d(v_top) == -(Polynomial.gen(b4) ** (2 * n))
            assert betti(biq_red, top).nonzero() == expected

            eta = comparison_morphism("thm33", n)
            assert compose_and_check(eta) == []
            assert is_quasi_iso(eta, 16).ok


def test_criterion_3_low_degree_classes_contradict_contractibility(capsys):
    with criterion(3, 10.0, "nonzero classes in degrees 3 and 4, reported not crashed"):
        for n in (2, 3):
            model = biquotient_model(classifying_data("prop31", n))
            report = betti(model, 8)
            assert report.betti[0] == 1
            assert report.betti[3] == 1
            assert report.betti[4] == 1
        assert main(["paper-verify", "--case", "prop31"]) == 0
        out = capsys.readouterr().out
        assert "contractibility" in out
        assert "contractible" in out
        assert out.count("result: PASS") == 2


def test_criterion_4_specialization_reproduces_the_four_generator_model():
    with criterion(4, 10.0, "coefficient specialization matches the worked reduction"):
        special = classifying_data(
            "prop32", 2, betas=(Fraction(3), Fraction(3), Fraction(1))
        )
        reduced, _ = reduce(biquotient_model(special))
        assert tuple(g.name for g in reduced.generators) == ("b4", "c4", "a7", "a11")
        renamed = rename_generators(
            reduced,
            {
                gen_of(reduced, "b4"): Generator("a4", 4),
                gen_of(reduced, "c4"): Generator("b4", 4),
                gen_of(reduced, "a7"): Generator("v7", 7),
                gen_of(reduced, "a11"): Generator("v11", 11),
            },
        )
        target, _ = reduce(biquotient_model(classifying_data("thm34")))
        assert renamed == target


def _pontryagin_choices(base, rank):
    """Zero data, plain powers of the degree-4 class, and scaled powers."""
    x = next((g for g in base.generators if g.degree == 4), None)
    zero = {}
    choices = [zero]
    if x is not None:
        plain = {i + 1: Polynomial.gen(x) ** (i + 1) for i in range(rank)}
        mixed = {
            i + 1: Fraction((-1) ** i * (i + 2), 3) * Polynomial.gen(x) ** (i + 1)
            for i in range(rank)
        }
        choices.extend([plain, mixed])
    else:
        choices.extend([zero, zero])
    return choices


def test_criterion_5_projectivization_dimension_law():
    with criterion(5, 30.0, "total dimension multiplies by the bundle rank"):
        bases = [hp_model(1), hp_model(2), sphere_model(4), sphere_model(8)]
        for base in bases:
            base_total = betti(base, 24).total_dim()
            for rank in (2, 3):
                for classes in _pontryagin_choices(base, rank):
                    pe = projectivize(PontryaginData(base, rank, classes))
                    pe_total = betti(pe, 24).total_dim()
                    assert pe_total == rank * base_total, (
                        tuple(g.name for g in base.generators),
                        rank,
                        {i: str(c) for i, c in classes.items()},
                    )


def test_criterion_6_randomized_law_volume():
    with criterion(6, 60.0, "randomized models, pairs, cancellations, round-trips"):
        rng = random.Random(6021023)

        for _ in range(200):
            model = random_pure_model(rng)
            assert validate(model) == []

        pair_model = biquotient_model(classifying_data("thm34"))
        gens = pair_model.generators
        for _ in range(1000):
            dp = rng.choice([3, 4, 7, 8, 11, 12])
            dq = rng.choice([3, 4, 7, 8, 11, 12])
            p = random_polynomial(rng, gens, dp)
            q = random_polynomial(rng, gens, dq)
            sign = -1 if (dp % 2 and dq % 2) else 1
            assert p * q == sign * (q * p)
            leibniz_sign = -1 if dp % 2 else 1
            assert apply_d(pair_model, p * q) == apply_d(pair_model, p) * q + leibniz_sign * (
                p * apply_d(pair_model, q)
            )

        for _ in range(100):
            model = random_reducible_model(rng)
            out, log = reduce(model, check_degree=16)
            assert log.steps
            assert betti(out, 16).betti == betti(model, 16).betti
            again, idle = reduce(out, check_degree=16)
            assert again == out and idle.steps == []

        round_trips = {"model": 0, "biquotient": 0, "morphism": 0, "pontryagin": 0}
        for filename in data_files():
            if filename.endswith(".discrepancies"):
                continue
            source = parse_source(data_text(filename))
            for name, doc in source.models.items():
                model = doc.to_model()
                assert parse_model(render_model(model, name=name)).to_model() == model
                round_trips["model"] += 1
            for name, doc in source.biquotients.items():
                data = doc.to_classifying_data()
                assert parse_classifying(render_classifying(data, name=name)) == data
                round_trips["biquotient"] += 1
            for name, doc in source.morphisms.items():
                try:
                    morphism = doc.to_morphism(source.resolved_models())
                except DslError:
                    # discrepancy exhibits that name generators the target lacks
                    assert "verbatim" in filename
                    continue
                rendered = render_morphism(
                    morphism,
                    name=name,
                    source_name=doc.source_name,
                    target_name=doc.target_name,
                )
                again_source = parse_source(rendered)
                again = again_source.only("morphism").to_morphism(again_source.resolved_models())
                assert again.images == morphism.images
                round_trips["morphism"] += 1
            for name, doc in source.pontryagin.items():
                if "thm34" in filename:
                    base, rank = hp_model(2, prefix="y"), 2
                else:
                    rank = 2 if "n2" in filename else 3
                    base = sphere_model(4 * rank)
                data = doc.to_data(base, rank)
                rendered = render_pontryagin(data, name=name)
                assert parse_pontryagin(rendered, base, rank) == data
                round_trips["pontryagin"] += 1
        assert round_trips["model"] >= 8
        assert round_trips["biquotient"] == 6
        assert round_trips["morphism"] >= 4
        assert round_trips["pontryagin"] == 3


def test_criterion_7_inhomogeneous_claims_are_rejected():
    with criterion(7, 1.0, "degree-inconsistent differentials named term by term"):
        problems = check_document(parse_model(data_text("thm33_verbatim_n2.model")))
        assert problems
        assert any("term b4^4 has degree 16" in p for p in problems)

        problems = check_document(parse_model(data_text("prop32_verbatim_n2.model")))
        assert len(problems) == 2
        assert any(
            "d(a7) is not homogeneous of degree 8: term c4 has degree 4" in p
            for p in problems
        )
        assert any(
            "d(a11) is not homogeneous of degree 12: term c4 has degree 4" in p
            for p in problems
        )
