"""The four benchmark workloads.

Each workload has three phases.  ``setup`` imports what it needs from
``sullivan`` and builds or parses its inputs; it is what ``setup_s`` times.
``run_once`` is one timed iteration and returns the raw outputs.  ``check``
turns those outputs into one (operation, ok, detail) outcome per operation,
outside the timed region; ``final_checks`` adds the costlier checks that
run once per benchmark run.

Every workload passes its degrees explicitly, so the amount of work is set
here and not by the engine's defaults.  Engine functions are looked up on
their modules at call time, so the traced run sees the top-level calls.
See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os

import inputs

Outcome = tuple[str, bool, str]


def _cli_main(argv: list[str]) -> tuple[int, str]:
    """sullivan.cli.main in-process, with stdout captured."""
    cli = importlib.import_module("sullivan.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    def final_checks(self) -> list[Outcome]:
        return []


class PaperVerify(Workload):
    """`sullivan paper-verify`: every report at small size; ignores the seed."""

    name = "paper-verify"

    def __init__(self, seed: int, work_dir: str, tiny: bool = False):
        self.argv = ["paper-verify", "--case", "thm34"] if tiny else ["paper-verify"]
        self.reports = 1 if tiny else 7
        self.first_stdout: str | None = None

    def setup(self) -> None:
        importlib.import_module("sullivan.cli")

    def run_once(self):
        return _cli_main(self.argv)

    def check(self, outputs) -> list[Outcome]:
        code, out = outputs
        if self.first_stdout is None:
            self.first_stdout = out
        want = f"{self.reports} of {self.reports} case reports passed"
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if want not in out:
            problems.append(f"no line {want!r}")
        if out != self.first_stdout:
            problems.append("stdout differs from the first iteration")
        return [("paper-verify", not problems, "; ".join(problems))]


class Thm33Ladder(Workload):
    """run_case("thm33", n) for n = 2..6; ignores the seed."""

    name = "thm33-ladder"
    CHECKS_PER_REPORT = 6

    def __init__(self, seed: int, work_dir: str, tiny: bool = False):
        self.ns = range(2, 4) if tiny else range(2, 7)

    def setup(self) -> None:
        self.verify = importlib.import_module("sullivan.verify")

    def run_once(self):
        return [self.verify.run_case("thm33", n) for n in self.ns]

    def check(self, outputs) -> list[Outcome]:
        out = []
        for n, report in zip(self.ns, outputs):
            count = len(report.checks)
            ok = report.ok and count == self.CHECKS_PER_REPORT
            detail = f"{sum(c.ok for c in report.checks)}/{count} checks passed"
            out.append((f"thm33 n={n}", ok, detail))
        return out


class PureGen12(Workload):
    """betti(model, 16) on the seeded 12-generator pure model: ranks only."""

    name = "pure-gen12"

    def __init__(self, seed: int, work_dir: str, tiny: bool = False):
        self.seed = seed
        self.max_degree = 6 if tiny else inputs.PURE_MAX_DEGREE

    def setup(self) -> None:
        self.cohomology = importlib.import_module("sullivan.cohomology")
        parse_model = importlib.import_module("sullivan.dsl").parse_model
        self.model = parse_model(inputs.pure_gen12_text(self.seed)).to_model()

    def run_once(self):
        return self.cohomology.betti(self.model, self.max_degree)

    def check(self, report) -> list[Outcome]:
        want = {n: b for n, b in inputs.PURE_BETTI.items() if n <= self.max_degree}
        got = report.nonzero()
        return [("betti", got == want, "" if got == want else f"got {got}")]


class CliNonpure(Workload):
    """`sullivan cohomology --representatives --json` and `sullivan reduce --log`
    on the seeded 12-generator non-pure model, through cli.main."""

    name = "cli-nonpure"

    def __init__(self, seed: int, work_dir: str, tiny: bool = False):
        self.seed = seed
        self.path = os.path.join(work_dir, f"nonpure-{seed}.model")
        max_degree = 6 if tiny else inputs.NONPURE_MAX_DEGREE
        check_degree = 6 if tiny else inputs.NONPURE_CHECK_DEGREE
        self.cohomology_argv = [
            "cohomology", self.path, "--representatives", "--json",
            "--max-degree", str(max_degree),
        ]
        self.reduce_argv = ["reduce", self.path, "--log", "--check-degree", str(check_degree)]
        self.max_degree = max_degree
        self.first: tuple[str, str] | None = None

    def setup(self) -> None:
        importlib.import_module("sullivan.cli")
        dsl = importlib.import_module("sullivan.dsl")
        text = inputs.nonpure_text(self.seed)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.model = dsl.parse_model(text).to_model()

    def run_once(self):
        return _cli_main(self.cohomology_argv), _cli_main(self.reduce_argv)

    def check(self, outputs) -> list[Outcome]:
        (coh_code, coh_out), (red_code, red_out) = outputs
        if self.first is None:
            self.first = (coh_out, red_out)
        want = {str(n): b for n, b in inputs.NONPURE_BETTI.items() if n <= self.max_degree}
        coh_problems = [] if coh_code == 0 else [f"exit code {coh_code}"]
        try:
            got = json.loads(coh_out)["betti"]
            if got != want:
                coh_problems.append(f"betti {got}")
        except (ValueError, KeyError) as exc:
            coh_problems.append(f"unreadable JSON: {exc}")
        red_problems = [] if red_code == 0 else [f"exit code {red_code}"]
        if not red_out.startswith("no reducible pair; model unchanged\n"):
            red_problems.append("unexpected reduction log")
        if coh_out != self.first[0]:
            coh_problems.append("output differs from the first iteration")
        if red_out != self.first[1]:
            red_problems.append("output differs from the first iteration")
        return [
            ("cohomology", not coh_problems, "; ".join(coh_problems)),
            ("reduce", not red_problems, "; ".join(red_problems)),
        ]

    def final_checks(self) -> list[Outcome]:
        """Every printed representative is a cocycle; reduce's output re-parses."""
        if self.first is None:
            return []
        coh_out, red_out = self.first
        dsl = importlib.import_module("sullivan.dsl")
        apply_d = importlib.import_module("sullivan.cdga").apply_d
        env = {g.name: g for g in self.model.generators}
        bad = []
        try:
            reps = json.loads(coh_out)["representatives"]
        except (ValueError, KeyError) as exc:
            return [("representatives", False, f"unreadable JSON: {exc}")]
        count = 0
        for degree, texts in reps.items():
            for text in texts:
                count += 1
                p = dsl.parse_expression(text, env)
                if p.is_zero() or p.degree() != int(degree) or not apply_d(self.model, p).is_zero():
                    bad.append(f"H^{degree}: {text}")
        want_classes = sum(b for n, b in inputs.NONPURE_BETTI.items() if n <= self.max_degree)
        if count != want_classes:
            bad.append(f"{count} representatives for {want_classes} classes")
        body = red_out.split("\n\n", 1)[-1]
        reparsed = dsl.parse_model(body).to_model()
        same = (
            reparsed.generators == self.model.generators
            and reparsed.differential == self.model.differential
        )
        return [
            ("representatives", not bad, "; ".join(bad[:3])),
            ("reduce-reparse", same, "" if same else "re-parsed model differs from the input"),
        ]


WORKLOADS = {w.name: w for w in (PaperVerify, Thm33Ladder, PureGen12, CliNonpure)}
