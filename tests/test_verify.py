from fractions import Fraction

import pytest

from sullivan import verify
from sullivan.cdga import FreeCDGA, identity_morphism
from sullivan.constructors import biquotient_model, hp_model, projectivize
from sullivan.dsl import parse_source
from sullivan.gradedalg import Polynomial
from sullivan.presets import (
    DESCRIPTIONS,
    classifying_data,
    comparison_morphism,
    data_files,
    data_text,
    pontryagin_setup,
)
from sullivan.verify import (
    SHIPPED_INSTANCES,
    render_report,
    run_all,
    run_case,
    run_dimension_law,
)


def test_every_recorded_case_passes():
    reports = run_all()
    assert len(reports) == 7
    labels = [(r.case, r.n) for r in reports]
    assert labels == [
        ("thm34", None),
        ("thm33", 2),
        ("thm33", 3),
        ("prop31", 2),
        ("prop31", 3),
        ("prop32", 2),
        ("dimension-law", None),
    ]
    for report in reports:
        assert report.ok, (report.case, report.n, [c for c in report.checks if not c.ok])


@pytest.mark.parametrize(
    "case, n", [("thm34", None), ("thm33", 1), ("prop31", 2), ("prop32", 2)]
)
def test_every_case_passes_at_its_minimum_n(case, n):
    report = run_case(case, n)
    assert report.ok, [c for c in report.checks if not c.ok]


def test_presentation_dims_reads_the_model_it_names(monkeypatch):
    # d(x7) = x4*y4 in place of x4^2 + x4*y4 + y4^2 leaves every x4^k in H_0
    pe = projectivize(pontryagin_setup("thm34"))
    x4, y4, x7 = pe.gen("x4"), pe.gen("y4"), pe.gen("x7")
    diff = dict(pe.differential)
    diff[x7] = Polynomial.gen(x4) * Polynomial.gen(y4)
    broken = FreeCDGA(pe.generators, diff)
    monkeypatch.setattr(verify, "projectivize", lambda data: broken)
    failed = {c.name for c in run_case("thm34").checks if not c.ok}
    assert {"pe-model", "presentation-dims"} <= failed


@pytest.mark.parametrize("n", [3, 4])
def test_prop32_checks_betti_numbers_at_every_n(n):
    report = run_case("prop32", n)
    names = [c.name for c in report.checks]
    assert names == ["reduction", "presentation-dims", "biquotient-betti", "discrepancy-evidence"]
    assert report.ok, [c for c in report.checks if not c.ok]


def test_prop32_betti_checks_fail_off_the_family_series(monkeypatch):
    # a zero top beta leaves d(a15) = 0 at n = 3, so b_15 = 1
    betas = tuple(Fraction(b) for b in (4, 6, 4, 0))
    monkeypatch.setattr(
        verify, "classifying_data", lambda case, n: classifying_data(case, n, betas)
    )
    checks = {c.name: c.ok for c in run_case("prop32", 3).checks}
    assert not checks["presentation-dims"] and not checks["biquotient-betti"]


def test_run_case_parameter_validation():
    with pytest.raises(ValueError, match="unknown case"):
        run_case("thm99")
    with pytest.raises(ValueError, match="takes no parameter"):
        run_case("thm34", 2)


def test_dimension_law_matrix_shape():
    report = run_dimension_law()
    assert report.case == "dimension-law"
    assert len(report.checks) == 24
    assert report.ok


def test_render_report_layout():
    text = render_report(run_case("prop31", 2))
    lines = text.splitlines()
    assert lines[0] == "case prop31 (n = 2)"
    assert lines[1] == "  " + DESCRIPTIONS["prop31"]
    assert lines[1].startswith("  Sp(1)\\(Sp(1)xSp(n-1))/Sp(n-1): the recorded conclusion")
    assert "[PASS]" in text
    assert "known discrepancies:" in text
    assert "contractibility" in text
    assert text.rstrip().endswith("result: PASS (5/5 checks)")


def test_render_report_for_thm34_mentions_sign_fix():
    text = render_report(run_case("thm34"))
    assert "f-chain-sign" in text
    assert "result: PASS (8/8 checks)" in text


def test_shipped_instances_match_the_shipped_configurations():
    names = [case if n is None else f"{case}_n{n}" for case, n in SHIPPED_INSTANCES]
    assert len(set(names)) == len(names)
    assert {f"{name}.bq" for name in names} == {f for f in data_files() if f.endswith(".bq")}


def test_evidence_lists_every_violation_of_a_model_exhibit():
    report = run_case("prop32", 2)
    evidence = next(c for c in report.checks if c.name == "discrepancy-evidence")
    top = next(line for line in evidence.detail.splitlines() if line.startswith("da-top-exponent:"))
    assert "d(a11)" in top
    assert "d(a7)" in top


def test_run_all_reduces_the_thm34_model_once(monkeypatch):
    thm34 = biquotient_model(classifying_data("thm34"))
    reduced = []
    original = verify.reduce_model

    def counting(model, *args, **kwargs):
        reduced.append(model)
        return original(model, *args, **kwargs)

    monkeypatch.setattr(verify, "reduce_model", counting)
    assert all(report.ok for report in run_all())
    assert reduced.count(thm34) == 1


def test_quasi_iso_check_fails_on_a_map_that_is_not_a_chain_map():
    # resolved without parse_morphism, so no parse-time chain check runs
    source = parse_source(data_text("thm34_f_verbatim.morphism"))
    f = source.only("morphism").to_morphism(source.resolved_models())
    check = verify._quasi_iso_check(f, 16, "nothing")
    assert check.name == "quasi-iso"
    assert not check.ok
    assert "chain condition fails on xbar7" in check.detail


def _failed_checks(report):
    return {c.name for c in report.checks if not c.ok}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_thm33_reductions_end_at_the_comparison_map_endpoints(n):
    report = run_case("thm33", n)
    assert report.ok, [c for c in report.checks if not c.ok]


def test_thm33_reductions_fail_against_another_n_comparison_map(monkeypatch):
    # the n = 3 map is a quasi-isomorphism too, but between other models
    monkeypatch.setattr(
        verify, "comparison_morphism", lambda case, n=None: comparison_morphism(case, 3)
    )
    report = run_case("thm33", 2)
    assert len(report.checks) == 6
    assert _failed_checks(report) == {"pe-reduction", "biquotient-reduction"}


def test_thm34_checks_fail_against_a_comparison_map_between_other_models(monkeypatch):
    identity = identity_morphism(hp_model(2))
    monkeypatch.setattr(verify, "comparison_morphism", lambda case, n=None: identity)
    assert _failed_checks(run_case("thm34")) == {"pe-model", "reduction"}


def test_prop32_matches_thm34_reads_the_thm34_comparison_map(monkeypatch):
    identity = identity_morphism(hp_model(2))
    monkeypatch.setattr(verify, "comparison_morphism", lambda case, n=None: identity)
    assert _failed_checks(run_case("prop32", 2)) == {"matches-thm34"}


def test_configuration_evidence_must_parse(monkeypatch):
    broken = "biquotient B { wh a4 : 4; wh a4 : 4; }"
    monkeypatch.setattr(
        verify, "data_text", lambda name: broken if name == "prop31_n2.bq" else data_text(name)
    )
    evidence = next(c for c in run_case("prop31", 2).checks if c.name == "discrepancy-evidence")
    assert not evidence.ok
    assert "prop31_n2.bq -> line 1, column 30: name 'a4' declared twice" in evidence.detail
