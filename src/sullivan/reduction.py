"""Model reduction: repeatedly solve a linear term out of an odd
differential and cancel the resulting acyclic pair.

Each round finds an odd generator v with d(v) = lam*x + Q where x is an
even generator that occurs nowhere else in d(v).  If Q is nonzero a change
of variable introduces t = lam*x + Q so that d(v) = t; the pair (v, t) is
then cancelled.  Pairs are chosen deterministically: odd generators are
scanned in (degree, name) order, and among the eligible linear candidates
inside one differential the generator latest in that order is eliminated,
which keeps the earliest-named generators in the final presentation.

A positive check degree verifies the reduction at its endpoints: when at
least one step was taken, the Betti numbers up to that degree of the
reduced model are compared with those of the input.  Each step is a change
of variable (an isomorphism) or the cancellation of a contractible pair (a
quasi-isomorphism), so a correct reduction always passes.  Only when the
endpoints differ is every step checked, and the first step that changes the
Betti numbers is named.  The log keeps the model each step leaves; its Betti
snapshots are computed on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Union

from sullivan.cdga import (
    FreeCDGA,
    cancel_acyclic_pair,
    change_of_variable,
)
from sullivan.cohomology import betti, check_bound
from sullivan.errors import VerificationFailedError
from sullivan.gradedalg import Generator, Monomial, Polynomial, fresh_name, substitute

DEFAULT_CHECK_DEGREE = 20


@dataclass(frozen=True)
class ReduciblePair:
    odd_gen: Generator
    even_gen: Generator
    scalar: Fraction
    residue: Polynomial  # d(odd_gen) - scalar * even_gen


def find_reducible(model: FreeCDGA) -> Optional[ReduciblePair]:
    """First cancellable pair in the deterministic scan order, or None."""
    for v in model.odd_generators():
        dv = model.d(v)
        candidates: list[tuple[Generator, Fraction]] = []
        for mono, coeff in dv.terms.items():
            if len(mono.powers) == 1 and mono.powers[0][1] == 1:
                candidates.append((mono.powers[0][0], coeff))
        candidates.sort(key=lambda t: t[0].sort_key)
        for x, lam in reversed(candidates):
            residue = dv - Polynomial.monomial(Monomial(((x, 1),)), lam)
            if x in residue.generators():
                continue
            # After eliminating x and striking the pair, x ends up replaced
            # by -residue/lam everywhere; v must not survive anywhere else.
            replacement = residue * (Fraction(-1) / lam)
            ok = True
            for g in model.generators:
                if g in (v, x):
                    continue
                if v in substitute(model.d(g), x, replacement).generators():
                    ok = False
                    break
            if ok:
                return ReduciblePair(v, x, Fraction(lam), residue)
    return None


@dataclass(frozen=True)
class ChangeOfVariable:
    old: Generator
    fresh: Generator
    relation: Polynomial

    def describe(self) -> str:
        return f"introduce {self.fresh.name} = {self.relation}   [replacing {self.old.name}]"


@dataclass(frozen=True)
class Cancellation:
    odd_gen: Generator
    even_gen: Generator
    scalar: Fraction

    def describe(self) -> str:
        note = "" if self.scalar == 1 else f"   [scalar {self.scalar}]"
        return f"cancel ({self.odd_gen.name}, {self.even_gen.name}){note}"


Step = Union[ChangeOfVariable, Cancellation]


def _snapshot(model: FreeCDGA, check_degree: int) -> Optional[dict[int, int]]:
    return betti(model, check_degree).betti if check_degree > 0 else None


@dataclass
class ReductionStep:
    """One action of a reduction and the model it leaves."""

    action: Step
    model: FreeCDGA
    check_degree: int

    @cached_property
    def betti_after(self) -> Optional[dict[int, int]]:
        """Betti numbers of the model after this step up to the check degree
        (None when it is 0), computed on first access."""
        return _snapshot(self.model, self.check_degree)


@dataclass
class ReductionLog:
    check_degree: int
    start: FreeCDGA
    steps: list[ReductionStep]

    @cached_property
    def betti_before(self) -> Optional[dict[int, int]]:
        """Betti numbers of the input model up to the check degree (None
        when it is 0), computed on first access."""
        return _snapshot(self.start, self.check_degree)

    def render(self) -> str:
        lines = []
        for i, step in enumerate(self.steps, start=1):
            lines.append(f"step {i}: {step.action.describe()}")
        if not self.steps:
            lines.append("no reducible pair; model unchanged")
        elif self.check_degree > 0:
            # Equal endpoints, with every step an isomorphism or a
            # quasi-isomorphism, leave the Betti numbers unchanged throughout.
            lines.append(
                f"betti numbers verified unchanged up to degree {self.check_degree} "
                f"after every step"
            )
        return "\n".join(lines)

    def changes(self) -> list[ChangeOfVariable]:
        return [s.action for s in self.steps if isinstance(s.action, ChangeOfVariable)]

    def cancellations(self) -> list[Cancellation]:
        return [s.action for s in self.steps if isinstance(s.action, Cancellation)]


def _verify(log: ReductionLog) -> None:
    """Compare the endpoints; if they differ, name the first step that
    changes the Betti numbers."""
    if not log.steps or log.betti_before == log.steps[-1].betti_after:
        return
    before = log.betti_before
    assert before is not None
    for step in log.steps:
        after = step.betti_after
        assert after is not None
        if after != before:
            diffs = {
                n: (before.get(n, 0), after.get(n, 0))
                for n in sorted(set(before) | set(after))
                if before.get(n, 0) != after.get(n, 0)
            }
            raise VerificationFailedError(
                f"betti numbers changed at step '{step.action.describe()}': {diffs}"
            )
        before = after


def reduce(
    model: FreeCDGA,
    check_degree: int = DEFAULT_CHECK_DEGREE,
) -> tuple[FreeCDGA, ReductionLog]:
    """Reduce until no pair is cancellable, then verify the endpoints.

    With check_degree > 0 and at least one step taken, the Betti numbers up
    to check_degree of the result are compared with those of the input (two
    full computations).  Only if they differ is every step checked, and
    VerificationFailedError names the first step that changes them.  With
    no step taken nothing is computed; check_degree = 0 skips verification
    and the log's snapshots are None.  A negative check_degree raises
    ValueError.
    """
    check_bound(check_degree, "check_degree")
    current = model
    log = ReductionLog(check_degree, model, [])
    while True:
        pair = find_reducible(current)
        if pair is None:
            break
        v, x = pair.odd_gen, pair.even_gen
        if not pair.residue.is_zero():
            taken = {g.name for g in current.generators}
            fresh = Generator(fresh_name(f"t{x.degree}", taken), x.degree)
            relation = current.d(v)
            current = change_of_variable(current, x, fresh, relation)
            change = ChangeOfVariable(x, fresh, relation)
            log.steps.append(ReductionStep(change, current, check_degree))
        current, cert = cancel_acyclic_pair(current, v)
        cancel = Cancellation(cert.odd_gen, cert.even_gen, cert.scalar)
        log.steps.append(ReductionStep(cancel, current, check_degree))
    _verify(log)
    return current, log


def replay(model: FreeCDGA, log: ReductionLog) -> FreeCDGA:
    """Re-run a recorded reduction; the result is reproduced exactly."""
    current = model
    for step in log.steps:
        action = step.action
        if isinstance(action, ChangeOfVariable):
            current = change_of_variable(current, action.old, action.fresh, action.relation)
        else:
            current, cert = cancel_acyclic_pair(current, action.odd_gen)
            if cert.even_gen != action.even_gen or cert.scalar != action.scalar:
                raise VerificationFailedError(
                    f"replay diverged at '{action.describe()}': "
                    f"got ({cert.odd_gen.name}, {cert.even_gen.name}, {cert.scalar})"
                )
    return current
