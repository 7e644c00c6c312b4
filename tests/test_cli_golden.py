"""Byte-for-byte CLI output, pinned by golden files.

Each case runs ``python -m sullivan`` in a fresh process, in a directory
holding the shipped document it reads, and compares stdout, stderr and the
exit code with ``tests/golden/<case>.stdout``, ``.stderr`` and ``.exit``.
After an intended output change, rewrite the files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sullivan
from sullivan.presets import data_files, data_text

GOLDEN = Path(__file__).parent / "golden"
SHIPPED = data_files()


def stems(suffix):
    return sorted(name[: -len(suffix)] for name in SHIPPED if name.endswith(suffix))


CASES = {"paper-verify": ("paper-verify",)}
for stem in stems(".model"):
    CASES[f"cohomology-{stem}"] = ("cohomology", f"{stem}.model", "--json", "--representatives")
    CASES[f"reduce-{stem}"] = ("reduce", f"{stem}.model", "--log")
for stem in stems(".morphism"):
    CASES[f"quasi-iso-{stem}"] = ("quasi-iso", f"{stem}.morphism", "--max-degree", "16")
for stem in stems(".bq"):
    CASES[f"biquotient-{stem}"] = ("biquotient", "--config", f"{stem}.bq")
for case, base, rank, pont in [
    ("thm34", "hp2", 2, "thm34"),
    ("thm33_n2", "s8", 2, "thm33_n2"),
    ("thm33_n3", "s12", 3, "thm33_n3"),
    ("thm33_n2-rank1", "s8", 1, "thm33_n2"),  # p 2 is past the rank: exit 2
]:
    CASES[f"projectivize-{case}"] = (
        "projectivize", "--base", f"{base}.model", "--rank", str(rank), "--pontryagin", f"{pont}.pont"
    )


def run_cli(argv, cwd):
    """(exit code, stdout, stderr) of ``python -m sullivan argv`` run in cwd,
    with argv's shipped documents written there first."""
    for name in SHIPPED:
        if name in argv:
            (cwd / name).write_text(data_text(name))
    env = dict(os.environ, PYTHONPATH=str(Path(sullivan.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "sullivan", *argv], cwd=cwd, env=env, capture_output=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def golden(case):
    return (
        int((GOLDEN / f"{case}.exit").read_text()),
        (GOLDEN / f"{case}.stdout").read_bytes(),
        (GOLDEN / f"{case}.stderr").read_bytes(),
    )


def test_every_case_has_golden_files():
    stems = {p.name.rsplit(".", 1)[0] for p in GOLDEN.iterdir()}
    assert stems == set(CASES)


def test_no_golden_stdout_ends_with_a_blank_line():
    # a rendered document already ends in a newline, and is written as it is
    blank_ended = [p.name for p in GOLDEN.glob("*.stdout") if p.read_bytes().endswith(b"\n\n")]
    assert blank_ended == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    assert run_cli(CASES[case], tmp_path) == golden(case)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err = run_cli(argv, Path(tmp))
        (GOLDEN / f"{case}.exit").write_text(f"{code}\n")
        (GOLDEN / f"{case}.stdout").write_bytes(out)
        (GOLDEN / f"{case}.stderr").write_bytes(err)
