import argparse
import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sullivan
from sullivan.cli import main
from sullivan.dsl import ModelDocument
from sullivan.gradedalg import Generator, Polynomial, basis_of_degree
from sullivan.presets import data_text


@pytest.fixture
def hp2_file(tmp_path):
    path = tmp_path / "hp2.model"
    path.write_text(data_text("hp2.model"))
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cohomology_json_output(hp2_file, capsys):
    assert main(["cohomology", hp2_file, "--max-degree", "12", "--json"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == '{"betti":{"0":1,"4":1,"8":1}}'


def test_cohomology_json_with_representatives(hp2_file, capsys):
    code = main(
        ["cohomology", hp2_file, "--max-degree", "8", "--json", "--representatives"]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == (
        '{"betti":{"0":1,"4":1,"8":1},'
        '"representatives":{"0":["1"],"4":["y4"],"8":["y4^2"]}}'
    )


def test_cohomology_text_output(hp2_file, capsys):
    assert main(["cohomology", hp2_file, "--max-degree", "12"]) == 0
    out = capsys.readouterr().out
    assert "hp2: cohomology up to degree 12" in out
    assert "H^4: dim 1" in out
    assert "total dimension 3" in out


def test_cohomology_default_max_degree(hp2_file, capsys):
    assert main(["cohomology", hp2_file]) == 0
    assert "cohomology up to degree" in capsys.readouterr().out


def test_missing_file_is_an_input_error(capsys):
    assert main(["cohomology", "/no/such/file.model"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_model_reports_positioned_diagnostics(tmp_path, capsys):
    bad = write(
        tmp_path,
        "bad.model",
        "model bad {\n  gen b4 : 4;\n  gen v7 : 7;\n  d v7 = b4^4;\n}\n",
    )
    assert main(["cohomology", bad]) == 2
    err = capsys.readouterr().err
    assert "line 4, column 5" in err
    assert "term b4^4 has degree 16" in err


def test_reduce_logs_and_prints_model(tmp_path, capsys):
    biq = write(tmp_path, "biq.model", _biquotient_text(tmp_path, capsys))
    assert main(["reduce", biq, "--log"]) == 0
    out = capsys.readouterr().out
    assert "step 1: introduce t4 = a4 - 3*b4 + c4   [replacing c4]" in out
    assert "step 2: cancel (v3, t4)" in out
    assert "model biq_model_reduced {" in out
    assert "d v7 = -a4^2 + 3*a4*b4 - 3*b4^2;" in out
    assert "d v11 = -b4^3;" in out


def _biquotient_text(tmp_path, capsys) -> str:
    config = tmp_path / "biq.bq"
    config.write_text(data_text("thm34.bq").replace("biquotient thm34", "biquotient biq"))
    assert main(["biquotient", "--config", str(config)]) == 0
    return capsys.readouterr().out


def test_cohomology_representatives_on_thm34(tmp_path, capsys):
    # Two classes in degrees 4 and 8 and nontrivial coboundaries, so the
    # literal pins the echelon choice of representatives.
    biq = write(tmp_path, "biq.model", _biquotient_text(tmp_path, capsys))
    argv = ["cohomology", biq, "--json", "--representatives", "--max-degree", "16"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        '{"betti":{"0":1,"4":2,"8":2,"12":1},'
        '"representatives":{"0":["1"],"4":["b4","c4"],"8":["b4*c4","c4^2"],"12":["c4^3"]}}\n'
    )


def test_biquotient_builds_named_model(tmp_path, capsys):
    config = write(tmp_path, "b.bq", data_text("thm34.bq"))
    assert main(["biquotient", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("model thm34_model {")
    assert "d v3 = a4 - 3*b4 + c4;" in out


def test_projectivize_command(tmp_path, hp2_file, capsys):
    pont = write(tmp_path, "p.pont", data_text("thm34.pont"))
    code = main(
        ["projectivize", "--base", hp2_file, "--rank", "2", "--pontryagin", pont]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "model hp2_pe {" in out
    assert "d x7 = x4^2 + x4*y4 + y4^2;" in out
    assert main(
        ["projectivize", "--base", hp2_file, "--rank", "0", "--pontryagin", pont]
    ) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "{model}"],
        ["reduce", "{model}"],
        ["projectivize", "--base", "{model}", "--rank", "2", "--pontryagin", "{pont}"],
    ],
    ids=["cohomology", "reduce", "projectivize"],
)
def test_each_command_resolves_its_model_once(tmp_path, hp2_file, monkeypatch, argv):
    files = {"model": hp2_file, "pont": write(tmp_path, "p.pont", data_text("thm34.pont"))}
    resolved = []
    to_model = ModelDocument.to_model

    def counted(doc):
        resolved.append(doc.name)
        return to_model(doc)

    monkeypatch.setattr(ModelDocument, "to_model", counted)
    assert main([word.format(**files) for word in argv]) == 0
    assert resolved == ["hp2"]


def test_quasi_iso_accepting_run(tmp_path, capsys):
    morphism = write(tmp_path, "f.morphism", data_text("thm34_f.morphism"))
    assert main(["quasi-iso", morphism, "--max-degree", "16"]) == 0
    out = capsys.readouterr().out
    assert "quasi-isomorphism up to degree 16: yes" in out


def test_quasi_iso_failure_exits_three(tmp_path, capsys):
    text = (
        "model A {\n  gen x4 : 4;\n}\n"
        "model B {\n  gen y4 : 4;\n  gen y7 : 7;\n  d y7 = y4^2;\n}\n"
        "morphism g : A -> B {\n  x4 -> y4;\n}\n"
    )
    morphism = write(tmp_path, "g.morphism", text)
    assert main(["quasi-iso", morphism, "--max-degree", "8"]) == 3
    out = capsys.readouterr().out
    assert "degree 8: not-injective" in out
    assert "quasi-isomorphism up to degree 8: no (degrees 8)" in out


def test_quasi_iso_rejects_broken_chain_condition(tmp_path, capsys):
    morphism = write(tmp_path, "bad.morphism", data_text("thm34_f_verbatim.morphism"))
    assert main(["quasi-iso", morphism, "--max-degree", "12"]) == 2
    err = capsys.readouterr().err
    assert "line 24, column 10" in err
    assert "chain condition fails on xbar7" in err


def test_quasi_iso_rejects_a_source_that_is_not_a_cdga(tmp_path, capsys):
    # d(d(z4)) = x2^3, so the identity of A is not a map of CDGAs at all
    text = (
        "model A {\n  gen x2 : 2;\n  gen y3 : 3;\n  gen z4 : 4;\n  gen a5 : 5;\n"
        "  d y3 = x2^2;\n  d z4 = x2*y3;\n}\n"
        "morphism id : A -> A {\n  x2 -> x2;\n  y3 -> y3;\n  z4 -> z4;\n  a5 -> a5;\n}\n"
    )
    morphism = write(tmp_path, "id.morphism", text)
    assert main(["quasi-iso", morphism, "--max-degree", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: source is not a CDGA: d(d(z4)) = x2^3 is nonzero\n"


def test_quotient_dims_command(tmp_path, capsys):
    relations = write(tmp_path, "rels.txt", "x4^2 + x4*y4 + y4^2\ny4^3;\n# done\n")
    code = main(
        ["quotient-dims", "--gens", "x4:4,y4:4", "--relations", relations, "--max-degree", "12"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "degree 0: dim 1" in out
    assert "degree 4: dim 2" in out
    assert "degree 8: dim 2" in out
    assert "degree 12: dim 1" in out
    assert "total dimension 6 up to degree 12" in out


def test_quotient_dims_rejects_bad_gen_spec(tmp_path, capsys):
    relations = write(tmp_path, "rels.txt", "x4^2\n")
    assert main(["quotient-dims", "--gens", "x4=4", "--relations", relations]) == 2
    assert "expected name:degree" in capsys.readouterr().err
    empty = write(tmp_path, "empty.txt", "")
    assert main(["quotient-dims", "--gens", "z3:3", "--relations", empty]) == 2
    assert "odd degree" in capsys.readouterr().err


@pytest.mark.parametrize("gens", ["x4:4,x4:6", "x4:4,x4:4"])
def test_quotient_dims_rejects_duplicate_generator_names(tmp_path, capsys, gens):
    relations = write(tmp_path, "rels.txt", "x4^2\n")
    assert main(["quotient-dims", "--gens", gens, "--relations", relations]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duplicate generator name x4\n"


def test_quotient_dims_positions_relation_errors(tmp_path, capsys):
    relations = write(tmp_path, "rels.txt", "x4^2\n   x4 + w4\n")
    assert main(["quotient-dims", "--gens", "x4:4", "--relations", relations]) == 2
    err = capsys.readouterr().err
    assert "line 2, column 9: unknown generator 'w4'" in err


@pytest.mark.parametrize(
    "command, option",
    [
        (["cohomology", "{hp2}", "--max-degree", "-3"], "--max-degree"),
        (["reduce", "{hp2}", "--check-degree", "-5"], "--check-degree"),
        (["quasi-iso", "{morphism}", "--max-degree", "-1"], "--max-degree"),
        (["quotient-dims", "--gens", "x4:4", "--relations", "{rels}", "--max-degree", "-2"],
         "--max-degree"),
    ],
    ids=["cohomology", "reduce", "quasi-iso", "quotient-dims"],
)
def test_negative_degree_bounds_are_bad_input(tmp_path, hp2_file, capsys, command, option):
    files = {
        "hp2": hp2_file,
        "morphism": write(tmp_path, "f.morphism", data_text("thm34_f.morphism")),
        "rels": write(tmp_path, "rels.txt", "x4^2\n"),
    }
    argv = [arg.format(**files) for arg in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} must be >= 0, got -")


HUGE = str(10**20)  # past sys.maxsize


@pytest.mark.parametrize(
    "command, option",
    [
        (["cohomology", "{model}", "--max-degree", HUGE], "--max-degree"),
        (["reduce", "{reducible}", "--check-degree", HUGE], "--check-degree"),
        (["quotient-dims", "--gens", "x4:4", "--relations", "{rels}", "--max-degree", HUGE],
         "--max-degree"),
    ],
    ids=["cohomology", "reduce", "quotient-dims"],
)
def test_degree_bounds_no_index_can_hold_are_bad_input(tmp_path, capsys, command, option):
    files = {
        "model": write(tmp_path, "m.model", "model M { gen x2 : 2; gen y3 : 3; d y3 = x2^2; }\n"),
        "reducible": write(
            tmp_path, "r.model", "model R { gen x4 : 4; gen v3 : 3; d v3 = x4; }\n"
        ),
        "rels": write(tmp_path, "rels.txt", "x4^2\n"),
    }
    argv = [arg.format(**files) for arg in command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} must be <= {sys.maxsize}, got {HUGE}\n"


def test_rank_is_not_a_degree_bound(tmp_path, capsys):
    """The rank is only an exponent in the output, so it may exceed sys.maxsize."""
    base = write(tmp_path, "s8.model", data_text("s8.model"))
    pont = write(tmp_path, "p.pont", data_text("thm33_n2.pont"))
    argv = ["projectivize", "--base", base, "--rank", HUGE, "--pontryagin", pont]
    assert main(argv) == 0
    assert f"= x4^{HUGE} + " in capsys.readouterr().out


def test_out_of_memory_is_a_cap_exit(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("sullivan.cli.quotient_ring_dims", exhausted)
    rels = write(tmp_path, "rels.txt", "x4^2\n")
    assert main(["quotient-dims", "--gens", "x4:4", "--relations", rels]) == 4
    assert capsys.readouterr().err == "error: out of memory\n"


def test_paper_verify_single_case(capsys):
    assert main(["paper-verify", "--case", "prop31", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "case prop31 (n = 2)" in out
    assert "contractibility" in out
    assert "1 of 1 case reports passed" in out


def test_paper_verify_case_defaults_to_both_shipped_sizes(capsys):
    assert main(["paper-verify", "--case", "thm33"]) == 0
    out = capsys.readouterr().out
    assert "case thm33 (n = 2)" in out
    assert "case thm33 (n = 3)" in out
    assert "2 of 2 case reports passed" in out


def test_paper_verify_parameter_misuse(capsys):
    assert main(["paper-verify", "--case", "thm34", "--n", "2"]) == 2
    assert "takes no parameter" in capsys.readouterr().err
    assert main(["paper-verify", "--n", "2"]) == 2
    assert "--n requires --case" in capsys.readouterr().err


def test_resource_cap_exit_code(tmp_path, capsys, monkeypatch):
    wide = write(tmp_path, "wide.model", "model wide {\n  gen y4 : 4;\n  gen z4 : 4;\n}\n")
    monkeypatch.setenv("RHT_MAX_BASIS", "1")
    assert main(["cohomology", wide, "--max-degree", "8"]) == 4
    assert "exceeds cap" in capsys.readouterr().err


def test_groebner_basis_cap_stops_an_adversarial_presentation(tmp_path):
    """Seven quadrics with random coefficients in seven generators: their
    Groebner basis has dozens of elements whose coefficients grow fast, which
    takes minutes to build; the cap on its size ends the run first."""
    rng = random.Random(7)
    gens = [Generator(f"x{i}", 2) for i in range(7)]
    quadrics = basis_of_degree(gens, 4)
    lines = [str(Polynomial({m: rng.randint(1, 9) for m in quadrics})) for _ in gens]
    relations = write(tmp_path, "rels.txt", "\n".join(lines) + "\n")
    spec = ",".join(f"{g.name}:2" for g in gens)
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(sullivan.__file__).resolve().parents[1]),
        RHT_MAX_BASIS="20",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "sullivan", "quotient-dims", "--gens", spec,
         "--relations", relations, "--max-degree", "40"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stderr == "error: Groebner basis exceeds cap of 20 polynomials\n"


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_malformed_cap_is_bad_input(hp2_file, capsys, monkeypatch, value):
    monkeypatch.setenv("RHT_MAX_BASIS", value)
    assert main(["cohomology", hp2_file, "--max-degree", "8"]) == 2
    assert capsys.readouterr().err == f"error: bad RHT_MAX_BASIS value {value!r}\n"
    monkeypatch.setenv("RHT_MAX_BASIS", "0")  # a cap, not bad input
    assert main(["cohomology", hp2_file, "--max-degree", "8"]) == 4
    assert "exceeds cap of 0" in capsys.readouterr().err


def test_main_leaves_no_parser_behind(capsys):
    argv = ["paper-verify", "--case", "thm34"]
    assert main(argv) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        parsers = [o for o in gc.garbage if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert parsers == []
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
