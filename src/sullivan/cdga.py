"""Free CDGAs: differentials, validation, tensor products, and the two
structural moves (a change of variable and the cancellation of an acyclic
pair) that reduction.replay redoes from a reduction log.

A FreeCDGA is a free graded-commutative algebra together with a degree +1
differential given on generators.  Construction never validates; validate()
reports every violation (inhomogeneity, unknown generators, d*d != 0) so
that defective inputs can be diagnosed rather than rejected blindly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from sullivan.errors import (
    DegreeMismatchError,
    NotLinearDifferentialError,
    NotSolvableError,
    ResidualOccurrenceError,
    UnknownGeneratorError,
)
from sullivan.gradedalg import (
    Generator,
    Monomial,
    Polynomial,
    _is_gen,
    _times,
    fresh_name,
    map_generators,
    repeated_names,
    substitute,
    unknown_names,
)


@dataclass(frozen=True)
class FreeCDGA:
    generators: tuple[Generator, ...]
    differential: Mapping[Generator, Polynomial] = field(default_factory=dict)
    # Every generator -> the terms (powers, coefficient, odd factors) of its
    # differential, for apply_d; a coefficient is an int when integral.
    _leibniz: Mapping[Generator, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.generators))
        dupes = repeated_names(g.name for g in ordered)
        if dupes:
            raise ValueError(f"duplicate generator names: {', '.join(sorted(dupes))}")
        diff = {g: p for g, p in self.differential.items() if not p.is_zero()}
        known = set(ordered)
        for g in diff:
            if g not in known:
                raise UnknownGeneratorError(
                    f"differential assigned to unknown generator {g.name}"
                )
        object.__setattr__(self, "generators", ordered)
        object.__setattr__(self, "differential", diff)
        leibniz = {
            g: tuple(
                (m.powers, c.numerator if c.denominator == 1 else c, sum(h.odd for h, _ in m.powers))
                for m, c in self.d(g).terms.items()
            )
            for g in ordered
        }
        object.__setattr__(self, "_leibniz", leibniz)

    def d(self, g: Generator) -> Polynomial:
        dg = self.differential.get(g)
        return Polynomial.zero() if dg is None else dg

    def gen(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise UnknownGeneratorError(f"no generator named {name}")

    def has_gen(self, name: str) -> bool:
        return any(g.name == name for g in self.generators)

    def odd_generators(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.generators if g.odd)

    def even_generators(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.generators if not g.odd)

    def __repr__(self) -> str:
        gens = ", ".join(g.name for g in self.generators)
        return f"FreeCDGA({gens})"


def apply_d(model: FreeCDGA, p: Polynomial) -> Polynomial:
    """Extend the generator differential to p by the graded Leibniz rule.

    For the factor g^e of a monomial a*g^e*b and a term c*q of d(g), the
    rule gives e*c*(-1)^s * rest*q, with rest = a*g^(e-1)*b and s the odd
    factors of a plus odd(q) times the odd factors of b; rest*q comes from
    one merge of the two canonical monomials, whose parity joins s.
    Integral d(g) coefficients are stored as int.  A coefficient of p that is
    the int 1, as in each d-matrix column of Cohomology, scales nothing, so
    the result is int where d is integral; public polynomials hold
    Fractions and give Fractions.  A factor's odd neighbours are counted
    only once some factor has a nonzero differential, and zeros are
    filtered out only when a sum formed here cancels.
    """
    leibniz = model._leibniz
    acc: dict[Monomial, Fraction] = {}
    cancelled = False
    for mono, coeff in p.terms.items():
        unit = type(coeff) is int and coeff == 1
        powers = mono.powers
        odd_total = None
        odd_before = 0
        for i, (g, e) in enumerate(powers):
            terms = leibniz.get(g)
            if terms is None:
                names = unknown_names(p, model.generators)
                raise UnknownGeneratorError(f"polynomial mentions unknown generators: {names}")
            if terms:
                if odd_total is None:
                    odd_total = sum(h.odd for h, _ in powers)
                lowered = ((g, e - 1),) if e > 1 else ()
                rest = powers[:i] + lowered + powers[i + 1 :]
                odd_after = odd_total - odd_before - g.odd
                for q, c, q_odd in terms:
                    merged, parity = _times(rest, q)
                    if merged is not None:
                        m = Monomial._canonical(merged)
                        term = (c if e == 1 else e * c) if unit else coeff * (e * c)
                        if (odd_before + q_odd * odd_after + parity) & 1:
                            term = -term
                        old = acc.get(m)
                        if old is not None:
                            term = old + term
                            cancelled |= not term
                        acc[m] = term
            odd_before += g.odd
    return Polynomial._nonzero({m: c for m, c in acc.items() if c} if cancelled else acc)


def validate(model: FreeCDGA) -> list[str]:
    """All violations of the CDGA axioms, empty when the model is valid."""
    return [text for _, text in _violations(model)]


def _violations(model: FreeCDGA) -> Iterator[tuple[Generator, str]]:
    """validate's violations, each with the generator whose d breaks the axioms."""
    clean: list[Generator] = []
    for g in model.generators:
        dg = model.d(g)
        names = unknown_names(dg, model.generators)
        if names:
            yield g, f"d({g.name}) mentions unknown generators: {names}"
        inhomogeneous = [mono for mono in dg.terms if mono.degree != g.degree + 1]
        for mono in inhomogeneous:
            yield g, (
                f"d({g.name}) is not homogeneous of degree {g.degree + 1}: "
                f"term {mono} has degree {mono.degree}"
            )
        if not names and not inhomogeneous:
            clean.append(g)
    for g in clean:
        dd = apply_d(model, model.d(g))
        if not dd.is_zero():
            yield g, f"d(d({g.name})) = {dd} is nonzero"


def pure_check(model: FreeCDGA) -> bool:
    """True when even generators are closed and odd differentials live in
    the even subalgebra."""
    evens = set(model.even_generators())
    return all(g.odd and dg.generators() <= evens for g, dg in model.differential.items())


def refuse_non_cdga(model: FreeCDGA, role: str = "") -> None:
    """The one refusal of an input that breaks the CDGA axioms: ValueError naming its role
    and every violation.  It reads _violations, leaving validate to check results (checked)."""
    if bad := [text for _, text in _violations(model)]:
        raise ValueError((f"{role} is " if role else "") + "not a CDGA: " + "; ".join(bad))


def checked(model: FreeCDGA, producer: str) -> FreeCDGA:
    """model, after asserting that it satisfies the CDGA axioms; a violation
    is a defect of producer."""
    if bad := validate(model):
        raise AssertionError(f"{producer} produced an invalid model: " + "; ".join(bad))
    return model


def rename_generators(model: FreeCDGA, mapping: Mapping[Generator, Generator]) -> FreeCDGA:
    """Simultaneously relabel generators of the model; degrees must be preserved."""
    if unknown := sorted(g.name for g in set(mapping).difference(model.generators)):
        raise UnknownGeneratorError(f"renaming unknown generators: {', '.join(unknown)}")
    for old, new in mapping.items():
        if old.degree != new.degree:
            raise DegreeMismatchError(
                f"renaming {old.name} -> {new.name} changes degree "
                f"{old.degree} -> {new.degree}"
            )
    table = {g: mapping.get(g, g) for g in model.generators}
    images = {g: Polynomial.gen(new) for g, new in table.items()}
    gens = tuple(table[g] for g in model.generators)
    diff = {
        table[g]: map_generators(p, images, fix_unmapped=True)
        for g, p in model.differential.items()
    }
    return FreeCDGA(gens, diff)


def tensor(a: FreeCDGA, b: FreeCDGA) -> FreeCDGA:
    """Tensor product; colliding names in the second factor are primed."""
    taken = {g.name for g in a.generators}
    mapping = {g: Generator(fresh_name(g.name, taken), g.degree) for g in b.generators}
    b2 = rename_generators(b, mapping)
    return FreeCDGA(a.generators + b2.generators, {**a.differential, **b2.differential})


def linear_part(relation: Polynomial, old: Generator) -> tuple[Fraction, Polynomial, str]:
    """Split relation as lam * old + rest, and say why old is not isolated
    (lam zero, or old left in rest); that reason is empty when it is."""
    bare = Monomial(((old, 1),))
    lam = relation.coefficient(bare)
    rest = relation - Polynomial.monomial(bare, lam)
    if not lam:
        why = f"relation {relation} has no isolated linear term in {old.name}"
    elif old in rest.generators():
        why = f"{old.name} occurs in the relation beyond its linear term: {relation}"
    else:
        why = ""
    return lam, rest, why


def change_of_variable(
    model: FreeCDGA,
    old: Generator,
    fresh: Generator,
    relation: Polynomial,
) -> FreeCDGA:
    """Replace old by a fresh generator defined as relation = lam*old + rest.

    The inverse substitution old = (fresh - rest) / lam is applied to every
    differential, and d(fresh) is transported from d(relation).  This is an
    isomorphism of CDGAs, so the result always validates.
    """
    if old not in model.generators:
        raise UnknownGeneratorError(f"no generator {old.name} in the model")
    if model.has_gen(fresh.name):
        raise ValueError(f"fresh name {fresh.name} already in use")
    if fresh.degree != old.degree:
        raise DegreeMismatchError(
            f"fresh generator degree {fresh.degree} != {old.degree}"
        )
    if not relation.is_homogeneous() or relation.degree() != old.degree:
        raise DegreeMismatchError(
            f"relation must be homogeneous of degree {old.degree}, got {relation}"
        )
    names = unknown_names(relation, model.generators)
    if names:
        raise UnknownGeneratorError(f"relation mentions unknown generators: {names}")
    lam, rest, why = linear_part(relation, old)
    if why:
        raise NotSolvableError(why)
    # old = (fresh - rest) / lam
    inverse = (Polynomial.gen(fresh) - rest) * (Fraction(1) / lam)
    d_relation = apply_d(model, relation)
    gens = tuple(g for g in model.generators if g != old)
    diff = {g: substitute(model.d(g), old, inverse) for g in gens}
    diff[fresh] = substitute(d_relation, old, inverse)
    # Conjugation by an isomorphism cannot break the axioms.
    return checked(FreeCDGA(gens + (fresh,), diff), "change_of_variable")


@dataclass(frozen=True)
class Cancellation:
    """The pair (odd_gen, even_gen) struck, where d(odd_gen) = scalar * even_gen."""

    odd_gen: Generator
    even_gen: Generator
    scalar: Fraction

    def describe(self) -> str:
        note = "" if self.scalar == 1 else f"   [scalar {self.scalar}]"
        return f"cancel ({self.odd_gen.name}, {self.even_gen.name}){note}"


def cancel_acyclic_pair(model: FreeCDGA, v: Generator) -> tuple[FreeCDGA, Cancellation]:
    """Strike the contractible pair (v, x) where d(v) = lam * x exactly.

    Every remaining differential has x set to zero afterwards; if v still
    occurs anywhere the quotient would not be free on the survivors and the
    operation refuses.  Exactly one odd and one even generator go per call.
    """
    if v not in model.generators:
        raise UnknownGeneratorError(f"no generator {v.name} in the model")
    if not v.odd:
        raise NotLinearDifferentialError(f"{v.name} has even degree {v.degree}")
    dv = model.d(v)
    if len(dv.terms) != 1:
        raise NotLinearDifferentialError(
            f"d({v.name}) = {dv} is not a scalar multiple of a single generator"
        )
    ((mono, lam),) = dv.terms.items()
    x = mono.linear_generator()
    if x is None:
        raise NotLinearDifferentialError(
            f"d({v.name}) = {dv} is not linear in a generator"
        )
    if x.odd:
        raise NotLinearDifferentialError(f"d({v.name}) lands on odd generator {x.name}")
    gens = tuple(g for g in model.generators if g not in (v, x))
    diff: dict[Generator, Polynomial] = {}
    for g in gens:
        new_dg = substitute(model.d(g), x, Polynomial.zero())
        if v in new_dg.generators():
            raise ResidualOccurrenceError(
                f"cannot cancel ({v.name}, {x.name}): d({g.name}) still "
                f"mentions {v.name} after setting {x.name} = 0"
            )
        diff[g] = new_dg
    out = checked(FreeCDGA(gens, diff), "cancel_acyclic_pair")
    return out, Cancellation(v, x, lam)


@dataclass(frozen=True)
class Morphism:
    source: FreeCDGA
    target: FreeCDGA
    images: Mapping[Generator, Polynomial] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {g: p for g, p in self.images.items() if not p.is_zero()}
        object.__setattr__(self, "images", clean)

    def image_of(self, g: Generator) -> Polynomial:
        img = self.images.get(g)
        return Polynomial.zero() if img is None else img

    def push(self, p: Polynomial) -> Polynomial:
        """Apply the algebra-map extension of the generator images."""
        return map_generators(p, self.images, fix_unmapped=False)


def identity_morphism(model: FreeCDGA) -> Morphism:
    return Morphism(model, model, {g: Polynomial.gen(g) for g in model.generators})


def compose_and_check(m: Morphism) -> list[str]:
    """Violations of m being a CDGA morphism (degrees and chain condition).

    One pass checks each source generator once.  An identity image, g sent
    to exactly g with g a target generator, has the right shape by
    construction and d of it is the target's d(g), so neither is derived
    again; any other image goes on to the chain condition only if its shape
    passes.  Chain failures are listed after every shape failure.
    """
    violations: list[str] = []
    chain_failures: list[str] = []
    src = set(m.source.generators)
    tgt = set(m.target.generators)
    for g in m.images:
        if g not in src:
            violations.append(f"image assigned to non-source generator {g.name}")
    for g in m.source.generators:
        img = m.image_of(g)
        if g in tgt and _is_gen(img, g):
            rhs = m.target.d(g)
        else:
            before = len(violations)
            names = unknown_names(img, tgt)
            if names:
                violations.append(f"image of {g.name} mentions unknown generators: {names}")
            if not img.is_zero():
                if not img.is_homogeneous():
                    violations.append(f"image of {g.name} is inhomogeneous: {img}")
                elif img.degree() != g.degree:
                    violations.append(
                        f"image of {g.name} has degree {img.degree()}, expected {g.degree}"
                    )
            if len(violations) > before:  # the image has the wrong shape
                continue
            rhs = apply_d(m.target, img)
        lhs = m.push(m.source.d(g))
        if lhs != rhs:
            chain_failures.append(
                f"chain condition fails on {g.name}: "
                f"image of d({g.name}) is {lhs}, but d of the image is {rhs}"
            )
    return violations + chain_failures
