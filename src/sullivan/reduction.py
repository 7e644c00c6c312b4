"""Model reduction: repeatedly solve a linear term out of an odd
differential and cancel the resulting acyclic pair.

Each round finds an odd generator v with d(v) = lam*x + Q where x is an
even generator that occurs nowhere else in d(v).  Cancelling (v, x) is the
quotient by the acyclic ideal (v, dv): x -> -Q/lam, v -> 0, every other
generator fixed (Felix-Halperin-Thomas, GTM 205, section 14).  The search
computes every other differential under that map, and the next model is
built once from them.  The log records it as replay() redoes it: a change
of variable t = lam*x + Q when Q is nonzero, then the cancellation of
(v, t).  Pairs are chosen deterministically: odd generators are scanned in
(degree, name) order, and among the eligible linear candidates inside one
differential the generator latest in that order is eliminated, which keeps
the earliest-named generators in the final presentation.

Each pair is certified once by that map, from the model before the pair to
the model after it.  The map must be a CDGA morphism onto exactly the
expected generators, which pins every differential of the new model; this
costs O(model size) per pair and runs at every check degree.  A failure
names the pair's cancellation step.  A positive check degree adds one
comparison of the Betti numbers up to that degree at the two endpoints.
The log keeps only the actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Union

from sullivan.cdga import (
    Cancellation,
    FreeCDGA,
    Morphism,
    cancel_acyclic_pair,
    change_of_variable,
    compose_and_check,
    linear_part,
    refuse_non_cdga,
)
from sullivan.cohomology import betti, check_bound
from sullivan.errors import VerificationFailedError
from sullivan.gradedalg import Generator, Polynomial, fresh_name, substitute

DEFAULT_CHECK_DEGREE = 20


@dataclass(frozen=True)
class ReduciblePair:
    odd_gen: Generator
    even_gen: Generator
    scalar: Fraction
    residue: Polynomial  # d(odd_gen) - scalar * even_gen
    kept: dict[Generator, Polynomial]  # the next model: d(g), even_gen -> -residue/scalar


def find_reducible(model: FreeCDGA) -> Optional[ReduciblePair]:
    """First cancellable pair in the deterministic scan order, or None."""
    for v in model.odd_generators():
        dv = model.d(v)
        candidates = sorted(x for x in (m.linear_generator() for m in dv.terms) if x is not None)
        for x in reversed(candidates):
            lam, residue, why = linear_part(dv, x)
            if why:
                continue
            # After eliminating x and striking the pair, x ends up replaced
            # by -residue/lam everywhere; v must not survive anywhere else.
            replacement = residue * (Fraction(-1) / lam)
            kept = {}
            for g in model.generators:
                if g not in (v, x):
                    kept[g] = substitute(model.d(g), x, replacement)
                    if v in kept[g].generators():
                        break
            else:
                return ReduciblePair(v, x, lam, residue, kept)
    return None


@dataclass(frozen=True)
class ChangeOfVariable:
    old: Generator
    fresh: Generator
    relation: Polynomial

    def describe(self) -> str:
        return f"introduce {self.fresh.name} = {self.relation}   [replacing {self.old.name}]"


Step = Union[ChangeOfVariable, Cancellation]


@dataclass
class ReductionLog:
    check_degree: int
    start: FreeCDGA
    steps: list[Step]

    @cached_property
    def betti_before(self) -> Optional[dict[int, int]]:
        """Betti numbers of the input model up to the check degree (None
        when it is 0), computed on first access."""
        return betti(self.start, self.check_degree).betti if self.check_degree > 0 else None

    def render(self) -> str:
        lines = [f"step {i}: {step.describe()}" for i, step in enumerate(self.steps, start=1)]
        if not self.steps:
            lines.append("no reducible pair; model unchanged")
        elif self.check_degree > 0:
            lines.append(
                f"each pair certified by its algebra map; betti numbers equal "
                f"at both ends up to degree {self.check_degree}"
            )
        return "\n".join(lines)

    def changes(self) -> list[ChangeOfVariable]:
        return [s for s in self.steps if isinstance(s, ChangeOfVariable)]

    def cancellations(self) -> list[Cancellation]:
        return [s for s in self.steps if isinstance(s, Cancellation)]


def _certified(
    before: FreeCDGA, pair: ReduciblePair, cancel: Cancellation, after: FreeCDGA
) -> FreeCDGA:
    """after, once the algebra map from before that the pair stands for
    (x -> -rest/lam, v -> 0, every other generator fixed) is a CDGA
    morphism onto exactly the expected generators; pair.kept, from which
    reduce builds after, is never read."""
    v, x, lam, rest = pair.odd_gen, pair.even_gen, pair.scalar, pair.residue
    problems = []
    expected = lam * Polynomial.gen(x) + rest
    if before.d(v) != expected:
        problems.append(f"d({v.name}) = {before.d(v)}, expected {expected}")
    images = {g: Polynomial.gen(g) for g in before.generators if g not in (v, x)}
    images[x] = rest * (Fraction(-1) / lam)
    problems += compose_and_check(Morphism(before, after, images))
    extra = set(after.generators) - (set(before.generators) - {v, x})
    if extra:
        problems.append(f"unexpected generators {', '.join(sorted(g.name for g in extra))}")
    if problems:
        raise VerificationFailedError(
            f"step '{cancel.describe()}' fails its certificate: " + "; ".join(problems)
        )
    return after


def reduce(
    model: FreeCDGA,
    check_degree: int = DEFAULT_CHECK_DEGREE,
) -> tuple[FreeCDGA, ReductionLog]:
    """Reduce until no pair is cancellable, certifying every pair.

    Each pair is checked once, after its cancellation, by its algebra map
    onto the next model (see the module docstring); VerificationFailedError
    names the cancellation step of the first pair that fails.  check_degree
    only bounds the endpoint check: with check_degree > 0 and at least one
    step taken, the Betti numbers up to check_degree of the result are
    compared with those of the input (two full computations).  check_degree = 0 skips that check,
    not the certificates, and leaves log.betti_before None.  A negative
    check_degree, or a model that breaks the CDGA axioms, raises ValueError.
    """
    check_bound(check_degree, "check_degree")
    refuse_non_cdga(model)
    current = model
    log = ReductionLog(check_degree, model, [])
    while (pair := find_reducible(current)) is not None:
        v, x = pair.odd_gen, pair.even_gen
        cancel = Cancellation(v, x, pair.scalar)
        if not pair.residue.is_zero():
            taken = {g.name for g in current.generators}
            t = Generator(fresh_name(f"t{x.degree}", taken), x.degree)
            log.steps.append(ChangeOfVariable(x, t, current.d(v)))
            cancel = Cancellation(v, t, Fraction(1))  # d(v) = t after the change
        after = FreeCDGA(tuple(pair.kept), pair.kept)
        current = _certified(current, pair, cancel, after)
        log.steps.append(cancel)
    if log.steps and log.betti_before is not None:
        # Both snapshots hold every degree up to check_degree.
        end = betti(current, check_degree).betti
        diffs = {n: (b, end[n]) for n, b in log.betti_before.items() if b != end[n]}
        if diffs:
            raise VerificationFailedError(f"betti numbers changed by the reduction: {diffs}")
    return current, log


def replay(model: FreeCDGA, log: ReductionLog) -> FreeCDGA:
    """Re-run a recorded reduction; the result is reproduced exactly."""
    current = model
    for step in log.steps:
        if isinstance(step, ChangeOfVariable):
            current = change_of_variable(current, step.old, step.fresh, step.relation)
        else:
            current, got = cancel_acyclic_pair(current, step.odd_gen)
            if got != step:
                raise VerificationFailedError(
                    f"replay diverged at '{step.describe()}': "
                    f"got ({got.odd_gen.name}, {got.even_gen.name}, {got.scalar})"
                )
    return current
