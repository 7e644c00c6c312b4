from fractions import Fraction

import pytest

from sullivan import presets
from sullivan.cdga import compose_and_check
from sullivan.constructors import biquotient_model, projectivize
from sullivan.dsl import parse_classifying, parse_morphism, parse_pontryagin
from sullivan.presets import (
    CASES,
    classifying_data,
    comparison_morphism,
    data_files,
    data_text,
    default_betas,
    discrepancies,
    pontryagin_setup,
    resolve_n,
)
from sullivan.reduction import reduce


def test_case_list_is_fixed():
    assert CASES == ("prop31", "prop32", "thm33", "thm34")


def test_shipped_biquotient_documents_match_synthesis():
    pairs = [
        ("prop31_n2.bq", "prop31", 2),
        ("prop31_n3.bq", "prop31", 3),
        ("prop32_n2.bq", "prop32", 2),
        ("thm33_n2.bq", "thm33", 2),
        ("thm33_n3.bq", "thm33", 3),
    ]
    for filename, case, n in pairs:
        shipped = parse_classifying(data_text(filename))
        assert shipped == classifying_data(case, n), filename


def test_shipped_pontryagin_documents_match_synthesis():
    for filename, case, n in [
        ("thm33_n2.pont", "thm33", 2),
        ("thm33_n3.pont", "thm33", 3),
    ]:
        want = pontryagin_setup(case, n)
        got = parse_pontryagin(data_text(filename), want.base, want.rank)
        assert got == want, filename


def test_shipped_morphism_documents_match_synthesis():
    for filename, case, n in [
        ("thm33_n2_eta.morphism", "thm33", 2),
        ("thm33_n3_eta.morphism", "thm33", 3),
    ]:
        shipped = parse_morphism(data_text(filename))
        built = comparison_morphism(case, n)
        assert shipped.source == built.source, filename
        assert shipped.target == built.target, filename
        assert shipped.images == built.images, filename
        assert compose_and_check(built) == []


def test_thm34_morphism_targets_the_thm34_projectivization():
    f = comparison_morphism("thm34")
    assert f.target == projectivize(pontryagin_setup("thm34"))
    assert tuple(g.name for g in f.source.generators) == ("a4", "b4", "v7", "v11")
    assert compose_and_check(f) == []


@pytest.mark.parametrize("case, n", [("thm34", None)] + [("thm33", n) for n in range(1, 5)])
def test_comparison_maps_join_the_reduced_models(case, n):
    f = comparison_morphism(case, n)
    assert f.source == reduce(biquotient_model(classifying_data(case, n)))[0]
    assert f.target == reduce(projectivize(pontryagin_setup(case, n)))[0]


def test_default_parameters():
    assert resolve_n("thm34") is None
    assert resolve_n("prop31") == 2
    assert resolve_n("thm33", 5) == 5
    assert default_betas("prop32", 2) == (Fraction(3), Fraction(3), Fraction(1))
    assert default_betas("prop32", 3) == (Fraction(4), Fraction(6), Fraction(4), Fraction(1))
    assert default_betas("thm33", 2) == (Fraction(3), Fraction(3), Fraction(3), Fraction(1))
    assert default_betas("prop31", 2) is None


def test_classifying_data_rejects_bad_parameters():
    with pytest.raises(ValueError, match="unknown case 'nonsense'"):
        classifying_data("nonsense")
    with pytest.raises(ValueError, match="case thm34 takes no parameter n"):
        classifying_data("thm34", n=2)
    with pytest.raises(ValueError, match="case thm33 needs n >= 1, got 0"):
        classifying_data("thm33", n=0)
    with pytest.raises(ValueError, match="case prop31 needs n >= 2, got 1"):
        classifying_data("prop31", n=1)
    with pytest.raises(ValueError, match="case prop32 needs n >= 2, got 1"):
        pontryagin_setup("prop32", 1)
    with pytest.raises(ValueError):
        classifying_data("prop32", n=2, betas=(Fraction(1),))
    with pytest.raises(ValueError):
        classifying_data("prop31", n=2, betas=(Fraction(1),))


def test_beta_overrides_change_the_model():
    stock = biquotient_model(classifying_data("prop32", 2))
    tweaked = biquotient_model(
        classifying_data("prop32", 2, betas=(Fraction(5), Fraction(3), Fraction(1)))
    )
    a3 = next(g for g in tweaked.generators if g.name == "a3")
    assert "5" in str(tweaked.d(a3))
    assert stock.d(a3) != tweaked.d(a3)


def test_discrepancy_records_are_complete():
    keys = {case: [d.key for d in discrepancies(case)] for case in CASES}
    assert keys["thm34"] == ["f-chain-sign"]
    assert keys["prop31"] == ["contractibility", "intermediate-differentials"]
    assert keys["prop32"] == ["da-second-top-exponent", "da-top-exponent"]
    assert keys["thm33"] == ["dv7-exponent", "dv-top-z-exponent", "eta-image"]
    shipped = set(data_files())
    for case in CASES:
        for d in discrepancies(case):
            assert d.title and d.claim and d.issue
            if d.evidence is not None:
                assert d.evidence in shipped, d.evidence


def test_discrepancy_files_are_parsed_once_per_process(monkeypatch):
    first = discrepancies("prop31")
    monkeypatch.setattr(presets, "data_text", lambda name: "[broken]\ntitle = t\n")
    assert discrepancies("prop31") is first
    with pytest.raises(ValueError, match="^discrepancy 'broken' of case prop31 lacks the 'claim' field$"):
        discrepancies.__wrapped__("prop31")


def test_pontryagin_setup_shapes():
    p34 = pontryagin_setup("thm34")
    assert p34.rank == 2
    assert tuple(g.name for g in p34.base.generators) == ("y4", "y11")
    assert {i: str(c) for i, c in p34.classes.items()} == {1: "y4", 2: "y4^2"}
    p33 = pontryagin_setup("thm33", 3)
    assert p33.rank == 3
    assert tuple(g.name for g in p33.base.generators) == ("a12", "a23")
    assert {i: str(c) for i, c in p33.classes.items()} == {3: "a12"}  # p_1 = p_2 = 0
    with pytest.raises(ValueError):
        pontryagin_setup("prop31", 2)


def test_data_files_inventory():
    files = data_files()
    assert len(files) == 25
    for expected in (
        "hp1.model",
        "hp2.model",
        "s4.model",
        "s8.model",
        "s12.model",
        "thm34.bq",
        "thm34.pont",
        "thm34_f.morphism",
        "thm34_f_verbatim.morphism",
        "thm34.discrepancies",
        "prop31.discrepancies",
        "prop32_verbatim_n2.model",
        "thm33_verbatim_n2.model",
    ):
        assert expected in files, expected
