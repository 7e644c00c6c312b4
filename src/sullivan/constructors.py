"""Model constructors: classifying spaces, spheres, quaternionic projective
spaces, projectivized bundles, and two-sided quotient models.

The two-sided quotient model takes the polynomial generators of the three
classifying spaces involved and the two restriction maps, and glues them:
every polynomial generator survives with zero differential, and each
generator of the middle algebra contributes a suspension generator one
degree lower whose differential is the difference of its two images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from sullivan.cdga import FreeCDGA, apply_d, checked, validate
from sullivan.errors import (
    DegreeMismatchError,
    NotACocycleError,
    UnknownGeneratorError,
    UnsupportedDimensionError,
)
from sullivan.gradedalg import Generator, Polynomial, fresh_name, repeated_names, unknown_names


def bsp_model(n: int) -> FreeCDGA:
    """Polynomial algebra on generators y4, y8, ..., y_{4n}; zero differential."""
    if n < 1:
        raise UnsupportedDimensionError(f"need n >= 1, got {n}")
    gens = tuple(Generator(f"y{4 * i}", 4 * i) for i in range(1, n + 1))
    return FreeCDGA(gens, {})


def sphere_model(d: int) -> FreeCDGA:
    """Minimal model of a sphere of dimension d, d a positive multiple of 4."""
    if d < 4 or d % 4 != 0:
        raise UnsupportedDimensionError(
            f"sphere dimension must be a positive multiple of 4, got {d}"
        )
    a = Generator(f"a{d}", d)
    top = Generator(f"a{2 * d - 1}", 2 * d - 1)
    return FreeCDGA((a, top), {top: Polynomial.gen(a) ** 2})


def hp_model(n: int, prefix: str = "x") -> FreeCDGA:
    """Minimal model of quaternionic projective n-space."""
    if n < 1:
        raise UnsupportedDimensionError(f"need n >= 1, got {n}")
    x = Generator(f"{prefix}4", 4)
    top = Generator(f"{prefix}{4 * n + 3}", 4 * n + 3)
    return FreeCDGA((x, top), {top: Polynomial.gen(x) ** (n + 1)})


@dataclass(frozen=True)
class PontryaginData:
    """Base model plus the characteristic cocycles of a rank-n bundle.

    classes maps i to the degree 4i cocycle p_i.  A class left out is zero,
    and zero entries are dropped; the rest are kept in index order.  A
    rank-n bundle has no nonzero p_i with i > n.
    """

    base: FreeCDGA
    rank: int
    classes: Mapping[int, Polynomial] = field(default_factory=dict)

    def __post_init__(self) -> None:
        classes = {i: p for i, p in sorted(self.classes.items()) if not p.is_zero()}
        object.__setattr__(self, "classes", classes)


def projectivize(data: PontryaginData) -> FreeCDGA:
    """Model of the quaternionic projectivization of a rank-n bundle.

    Adjoins a degree 4 generator x4 and a degree 4n-1 generator whose
    differential is x4^n plus the characteristic terms p_i * x4^(n-i).
    Fiber names are primed if the base already uses them.  A base that is
    not a CDGA is a ValueError.
    """
    n = data.rank
    if n < 1:
        raise UnsupportedDimensionError(f"bundle rank must be >= 1, got {n}")
    base = data.base
    bad = validate(base)
    if bad:
        raise ValueError("base is not a CDGA: " + "; ".join(bad))
    taken = {g.name for g in base.generators}
    x = Generator(fresh_name("x4", taken), 4)
    top = Generator(fresh_name(f"x{4 * n - 1}", taken), 4 * n - 1)
    d_top = Polynomial.gen(x) ** n
    for i, p in data.classes.items():
        if not 1 <= i <= n:
            bound = f"the bundle has rank {n}" if i > n else "classes are indexed from 1"
            raise DegreeMismatchError(f"p_{i} = {p} is nonzero, but {bound}")
    for i, p in data.classes.items():
        names = unknown_names(p, base.generators)
        if names:
            raise UnknownGeneratorError(
                f"p_{i} mentions generators outside the base: {names}"
            )
        if not p.is_homogeneous() or p.degree() != 4 * i:
            raise DegreeMismatchError(
                f"p_{i} must be homogeneous of degree {4 * i}, got {p}"
            )
        dp = apply_d(base, p)
        if not dp.is_zero():
            raise NotACocycleError(f"p_{i} is not a cocycle: d(p_{i}) = {dp}")
        d_top = d_top + p * Polynomial.gen(x) ** (n - i)
    diff = dict(base.differential)
    diff[top] = d_top
    return checked(FreeCDGA(base.generators + (x, top), diff), "projectivize")


@dataclass(frozen=True)
class ClassifyingData:
    """Generators of the three classifying algebras and the two restrictions.

    wh and wk are the polynomial generators of the two side factors, v the
    generators of the middle algebra.  phi_h sends each v-generator into
    the algebra on wh, phi_k into the algebra on wk.  A restriction left
    out is zero, and zero entries are dropped.  suspension_names may pick
    the name of the degree-lowered copy of each v-generator; the default
    is "s" + name.
    """

    wh: tuple[Generator, ...]
    wk: tuple[Generator, ...]
    v: tuple[Generator, ...]
    phi_h: Mapping[Generator, Polynomial] = field(default_factory=dict)
    phi_k: Mapping[Generator, Polynomial] = field(default_factory=dict)
    suspension_names: Mapping[Generator, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for side in ("phi_h", "phi_k"):
            phi = getattr(self, side)
            object.__setattr__(self, side, {g: p for g, p in phi.items() if not p.is_zero()})


def biquotient_model(data: ClassifyingData) -> FreeCDGA:
    """Glue the classifying data into a single model.

    Generators: wh and wk (closed) plus one suspension per v-generator,
    with d(sv) = phi_h(v) - phi_k(v).
    """
    names = [g.name for g in data.wh + data.wk + data.v]
    dupes = repeated_names(names)
    if dupes:
        raise ValueError(f"classifying data reuses names: {', '.join(sorted(dupes))}")
    wh_set, wk_set, v_set = set(data.wh), set(data.wk), set(data.v)
    for phi, side, allowed in (
        (data.phi_h, "phi_h", wh_set),
        (data.phi_k, "phi_k", wk_set),
    ):
        for g, img in phi.items():
            if g not in v_set:
                raise UnknownGeneratorError(f"{side} assigned to non-middle generator {g.name}")
            stray = unknown_names(img, allowed)
            if stray:
                raise UnknownGeneratorError(
                    f"{side}({g.name}) leaves its target algebra: {stray}"
                )
            if not img.is_homogeneous() or img.degree() != g.degree:
                raise DegreeMismatchError(
                    f"{side}({g.name}) must be homogeneous of degree {g.degree}, got {img}"
                )
    taken = set(names)
    suspensions: dict[Generator, Generator] = {}
    for g in data.v:
        if g.degree < 2:
            raise DegreeMismatchError(
                f"middle generator {g.name} has degree {g.degree}; cannot suspend"
            )
        sname = data.suspension_names.get(g, f"s{g.name}")
        if sname in taken:
            raise ValueError(f"suspension name {sname} collides with another generator")
        taken.add(sname)
        suspensions[g] = Generator(sname, g.degree - 1)
    diff: dict[Generator, Polynomial] = {}
    for g in data.v:
        img_h = data.phi_h.get(g, Polynomial.zero())
        img_k = data.phi_k.get(g, Polynomial.zero())
        diff[suspensions[g]] = img_h - img_k
    gens = data.wh + data.wk + tuple(suspensions[g] for g in data.v)
    return checked(FreeCDGA(gens, diff), "biquotient_model")


def pure_check(model: FreeCDGA) -> bool:
    """True when even generators are closed and odd differentials live in
    the even subalgebra."""
    evens = set(model.even_generators())
    for g in model.generators:
        dg = model.d(g)
        if not g.odd:
            if not dg.is_zero():
                return False
        elif not dg.generators() <= evens:
            return False
    return True
