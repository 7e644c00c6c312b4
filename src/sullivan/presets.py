"""Shipped case configurations and their known-discrepancy records.

Four case ids are recognized: prop31, prop32, thm33, thm34.  Each names a
two-sided quotient configuration (classifying generators plus the two
restriction maps) that the verification harness can build, reduce, and
compare against an independently constructed projectivization or an
expected reduced model.

thm34 has no parameter, so its shipped documents under ``sullivan/data``
(``thm34.bq``, ``thm34.pont``, ``thm34_f.morphism``) are its only source and
are parsed on every call.  prop31, prop32 and thm33 are families in n and
are built in code here; their shipped n = 2 and n = 3 documents are worked
examples that the test suite checks against the code.  All shipped files
are authored data, edited by hand.

Coefficients that the source derivations leave as free rational parameters
(the beta coefficients of prop32 and the integer coefficients of thm33)
are stored as overridable configuration, never as hardcoded truth.

Each case carries a tuple of Discrepancy records: formulas or claims
transcribed verbatim into the configuration's ``.discrepancies`` file that
the engine rejects or contradicts, together with the corrected form it
uses instead.  The verification report prints them; they are data, not
errors.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from importlib import resources
from typing import Optional

from sullivan.cdga import FreeCDGA, Morphism
from sullivan.cohomology import max_basis_cap
from sullivan.constructors import ClassifyingData, PontryaginData, hp_model, sphere_model
from sullivan.dsl import parse_classifying, parse_morphism, parse_pontryagin
from sullivan.errors import ResourceLimitError
from sullivan.gradedalg import Generator, Polynomial

CASES = ("prop31", "prop32", "thm33", "thm34")


def _data_root():
    return resources.files("sullivan").joinpath("data")


def data_text(filename: str) -> str:
    """Contents of a shipped data file."""
    return _data_root().joinpath(filename).read_text(encoding="utf-8")


def data_files() -> tuple[str, ...]:
    """Sorted names of all shipped data files."""
    return tuple(sorted(p.name for p in _data_root().iterdir() if p.is_file()))


@dataclass(frozen=True)
class Discrepancy:
    """One recorded conflict between a transcribed formula and the engine.

    claim is the formula or statement verbatim, issue explains what the
    engine finds wrong with it, corrected is the form actually used (when
    one exists), and evidence names a shipped data file that exhibits the
    rejection.
    """

    key: str
    title: str
    claim: str
    issue: str
    corrected: Optional[str] = None
    evidence: Optional[str] = None


@cache
def discrepancies(case: str) -> tuple[Discrepancy, ...]:
    """Known-discrepancy records of a case, parsed from its data file once
    per process."""
    _check_case(case)
    parser = configparser.ConfigParser()
    parser.read_string(data_text(f"{case}.discrepancies"))
    out = []
    for key in parser.sections():
        section = parser[key]
        for required in ("title", "claim", "issue"):
            if required not in section:
                raise ValueError(
                    f"discrepancy {key!r} of case {case} lacks the {required!r} field"
                )
        out.append(
            Discrepancy(
                key=key,
                title=section["title"],
                claim=section["claim"],
                issue=section["issue"],
                corrected=section.get("corrected"),
                evidence=section.get("evidence"),
            )
        )
    return tuple(out)


def _check_case(case: str) -> None:
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {', '.join(CASES)}")


_MIN_N = {"prop31": 2, "prop32": 2, "thm33": 1}


def resolve_n(case: str, n: Optional[int] = None) -> Optional[int]:
    """The parameter of a case instance: n checked against the case's
    minimum and, as a family's model at n has more than n generators, the
    basis cap; or the default 2 when n is None.  thm34 takes none."""
    _check_case(case)
    if case == "thm34":
        if n is not None:
            raise ValueError("case thm34 takes no parameter n")
        return None
    if n is None:
        return 2
    if n < _MIN_N[case]:
        raise ValueError(f"case {case} needs n >= {_MIN_N[case]}, got {n}")
    if n > (cap := max_basis_cap()):
        raise ResourceLimitError(f"case {case} at n = {n} exceeds cap of {cap} generators")
    return n


def _binomials(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(math.comb(n + 1, i)) for i in range(1, n + 2))


def default_betas(case: str, n: int) -> Optional[tuple[Fraction, ...]]:
    """Default free coefficients of a case.

    prop32 uses one beta per middle generator (binomial defaults, which
    reproduce the pinned acceptance values 3, 3, 1 at n = 2); thm33 uses
    n + 1 for every non-top restriction image and 1 for the top one.
    thm34 and prop31 have no free coefficients.
    """
    _check_case(case)
    if case == "prop32":
        return _binomials(n)
    if case == "thm33":
        return tuple(Fraction(n + 1) for _ in range(2 * n - 1)) + (Fraction(1),)
    return None


def classifying_data(
    case: str, n: Optional[int] = None, betas: Optional[tuple[Fraction, ...]] = None
) -> ClassifyingData:
    """Build the classifying configuration of a case.

    n defaults per case (thm34 accepts none); betas override the free
    coefficients where the case has any.
    """
    n = resolve_n(case, n)
    if case in ("thm34", "prop31") and betas is not None:
        raise ValueError(f"case {case} has no free coefficients")
    if case == "thm34":
        return parse_classifying(data_text("thm34.bq"))
    if case == "prop31":
        return _prop31_data(n)
    if betas is None:
        betas = default_betas(case, n)
    if case == "prop32":
        if len(betas) != n + 1:
            raise ValueError(f"case prop32 at n = {n} needs {n + 1} betas, got {len(betas)}")
        return _prop32_data(n, betas)
    if len(betas) != 2 * n:
        raise ValueError(f"case thm33 at n = {n} needs {2 * n} coefficients, got {len(betas)}")
    return _thm33_data(n, betas)


def _prop31_data(n: int) -> ClassifyingData:
    wh = tuple(Generator(f"v{4 * i}", 4 * i) for i in range(1, n))
    a4 = Generator("a4", 4)
    b4 = Generator("b4", 4)
    zs = tuple(Generator(f"z{4 * i}", 4 * i) for i in range(1, n))
    pa = Polynomial.gen(a4)
    phi_h = {b4: Polynomial.gen(wh[0])}
    phi_h.update({z: Polynomial.gen(wh[i]) for i, z in enumerate(zs)})
    phi_k = {b4: pa, zs[0]: pa}
    suspension_names = {b4: "b3"}
    suspension_names.update({z: f"z{4 * i - 1}" for i, z in enumerate(zs, start=1)})
    return ClassifyingData(
        wh=wh, wk=(a4,), v=(b4,) + zs, phi_h=phi_h, phi_k=phi_k,
        suspension_names=suspension_names,
    )


def _prop32_data(n: int, betas: tuple[Fraction, ...]) -> ClassifyingData:
    x4 = Generator("x4", 4)
    bs = tuple(Generator(f"b{4 * i}", 4 * i) for i in range(1, n))
    c4 = Generator("c4", 4)
    middles = tuple(Generator(f"a{4 * i}", 4 * i) for i in range(1, n + 2))
    px, pc = Polynomial.gen(x4), Polynomial.gen(c4)

    def b_poly(i: int) -> Polynomial:
        if i == 0:
            return Polynomial.scalar(Fraction(1))
        if i <= n - 1:
            return Polynomial.gen(bs[i - 1])
        return Polynomial.zero()

    phi_h = {a: px * b_poly(i - 1) + b_poly(i) for i, a in enumerate(middles, start=1)}
    phi_k = {a: beta * pc**i for i, (a, beta) in enumerate(zip(middles, betas), start=1)}
    suspension_names = {a: f"a{a.degree - 1}" for a in middles}
    return ClassifyingData(
        wh=(x4,) + bs, wk=(c4,), v=middles, phi_h=phi_h, phi_k=phi_k,
        suspension_names=suspension_names,
    )


def _thm33_data(n: int, coefficients: tuple[Fraction, ...]) -> ClassifyingData:
    zs = tuple(Generator(f"z{4 * i}", 4 * i) for i in range(1, 2 * n))
    b4 = Generator("b4", 4)
    middles = tuple(Generator(f"y{4 * i}", 4 * i) for i in range(1, 2 * n + 1))
    pb = Polynomial.gen(b4)
    phi_h = {y: Polynomial.gen(z) for y, z in zip(middles, zs)}
    phi_k = {y: c * pb**i for i, (y, c) in enumerate(zip(middles, coefficients), start=1)}
    suspension_names = {y: f"v{y.degree - 1}" for y in middles}
    return ClassifyingData(
        wh=zs, wk=(b4,), v=middles, phi_h=phi_h, phi_k=phi_k,
        suspension_names=suspension_names,
    )


def pontryagin_setup(case: str, n: Optional[int] = None) -> PontryaginData:
    """Base model, rank, and characteristic cocycles of a projectivization case.

    thm34: rank-2 bundle over the quaternionic plane (y-prefixed model)
    with the cocycles of ``thm34.pont``, p1 = y4, p2 = y4^2.  thm33 at n:
    rank-n bundle over the 4n-sphere with p_n = a_{4n} the only nonzero
    class.  The other cases have no projectivization side.
    """
    n = resolve_n(case, n)
    if case == "thm34":
        return parse_pontryagin(data_text("thm34.pont"), hp_model(2, prefix="y"), 2)
    if case != "thm33":
        raise ValueError(f"case {case} has no projectivization side")
    base = sphere_model(4 * n)
    return PontryaginData(base=base, rank=n, classes={n: Polynomial.gen(base.gen(f"a{4 * n}"))})


def comparison_morphism(case: str, n: Optional[int] = None) -> Morphism:
    """The sign-corrected comparison map of a case.

    thm34: ``thm34_f.morphism``, from the reduced four-generator quotient
    model into the full projectivization model.  thm33: between the two
    reduced two-generator models.  Both pass the chain check; the verbatim
    transcriptions that do not are shipped separately as
    *_verbatim.morphism exhibits.
    """
    n = resolve_n(case, n)
    if case == "thm34":
        return parse_morphism(data_text("thm34_f.morphism"))
    if case != "thm33":
        raise ValueError(f"case {case} has no comparison morphism")
    b4 = Generator("b4", 4)
    v_top = Generator(f"v{8 * n - 1}", 8 * n - 1)
    source = FreeCDGA((b4, v_top), {v_top: -(Polynomial.gen(b4) ** (2 * n))})
    # at n = 1, d(x3) = x4 + a4 is linear in both, and reduce strikes the later, x4
    even = Generator("a4" if n == 1 else "x4", 4)
    a_top = Generator(f"a{8 * n - 1}", 8 * n - 1)
    target = FreeCDGA((even, a_top), {a_top: Polynomial.gen(even) ** (2 * n)})
    images = {b4: Polynomial.gen(even), v_top: -Polynomial.gen(a_top)}
    return Morphism(source, target, images)


DESCRIPTIONS = {
    "prop31": (
        "Sp(1)\\(Sp(1)xSp(n-1))/Sp(n-1): the recorded conclusion calls the "
        "model contractible; the computed cohomology is nontrivial in "
        "degrees 3 and 4."
    ),
    "prop32": (
        "Sp(1)\\Sp(n+1)/(Sp(1)xSp(n-1)): reduces to a four-generator model "
        "with configurable beta coefficients; at n = 2 with betas 3, 3, 1 "
        "it reproduces the thm34 reduced model after renaming."
    ),
    "thm33": (
        "Sp(1)\\Sp(2n)/Sp(2n-1): reduces to two generators and compares "
        "with the rank-n projectivization over the 4n-sphere."
    ),
    "thm34": (
        "Sp(1)\\Sp(3)/(Sp(1)xSp(1)): reduces to four generators and "
        "compares with the rank-2 projectivization over the quaternionic "
        "plane."
    ),
}
