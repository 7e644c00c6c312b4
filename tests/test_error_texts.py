"""Full texts of the errors the algebra layer builds from its shared rules:
unknown generators, repeated names, non-cocycles, the names that leave
their algebra, the certificate of a reduction step, a replay that diverges
from its log, a characteristic class past a bundle's rank or below index 1,
a class of a bundle of rank 10^9 (raised without work sized by the rank),
a malformed model handed to cohomology, to the reduction or to the
quasi-isomorphism check, a cohomology handed in with another model, a
coefficient that is neither an int nor a Fraction, and the argument checks
of the constructors, the structural moves, substitution and the presets.

Each case gives the exception type and message it raises, or for the two
checkers that return violations instead of raising, those joined by "; ".
"""

from fractions import Fraction

import pytest

from sullivan.cdga import (
    FreeCDGA,
    Morphism,
    apply_d,
    cancel_acyclic_pair,
    change_of_variable,
    compose_and_check,
    identity_morphism,
    rename_generators,
    validate,
)
from sullivan.cohomology import (
    Cohomology,
    RingPresentation,
    betti,
    class_of,
    cup_product,
    is_quasi_iso,
)
from sullivan.constructors import (
    ClassifyingData,
    PontryaginData,
    biquotient_model,
    hp_model,
    projectivize,
    sphere_model,
)
from sullivan.dsl import parse_pontryagin
from sullivan.gradedalg import Generator, Monomial, Polynomial, substitute
from sullivan.presets import classifying_data, comparison_morphism
from sullivan.reduction import Cancellation, ReduciblePair, _certified, reduce, replay

from helpers import within_memory

x4, x7, z4, w4, t4 = (Generator(n, d) for n, d in (("x4", 4), ("x7", 7), ("z4", 4), ("w4", 4), ("t4", 4)))
a4, b4, c4, v4, a7 = (Generator(n, d) for n, d in (("a4", 4), ("b4", 4), ("c4", 4), ("v4", 4), ("a7", 7)))
X4, X7, Z4, W4 = (Polynomial.gen(g) for g in (x4, x7, z4, w4))
u3 = Generator("u3", 3)
x4_again, z4_again = Generator("x4", 6), Generator("z4", 8)  # names reused at other degrees
HP1 = hp_model(1)  # x4, x7 with d(x7) = x4^2
x2, y3, a2, b3 = (Generator(n, d) for n, d in (("x2", 2), ("y3", 3), ("a2", 2), ("b3", 3)))
X2, A2, B3 = (Polynomial.gen(g) for g in (x2, a2, b3))
INHOMOGENEOUS = FreeCDGA((x2, y3), {y3: X2 ** 2 + X2})
# b3 comes first in canonical order, so its term is the one named.
TWO_INHOMOGENEOUS = FreeCDGA((x2, y3, b3), {y3: X2 ** 2 + X2, b3: X2 ** 2 - X2 ** 3})
HP1_WITHOUT_D = FreeCDGA((x4, x7))
D_SQUARED_NONZERO = FreeCDGA((a2, b3, c4), {c4: B3 * A2, b3: A2 ** 2})  # d(d(c4)) = a2^3
v3, v1 = Generator("v3", 3), Generator("v1", 1)
X4_SQUARED = Monomial(((x4, 2),))
V3_TO_2X4, V3_TO_3X4 = (FreeCDGA((v3, x4), {v3: k * X4}) for k in (2, 3))


def _outcome(run):
    try:
        result = run()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return "returned", "; ".join(result)


CASES = [
    (
        "apply_d",
        lambda: apply_d(HP1, W4 * Z4 + X4),
        ("UnknownGeneratorError", "polynomial mentions unknown generators: w4, z4"),
    ),
    (
        "validate",
        lambda: validate(FreeCDGA((x4, a7), {a7: Z4 * W4})),
        ("returned", "d(a7) mentions unknown generators: w4, z4"),
    ),
    (
        "compose_and_check",
        lambda: compose_and_check(Morphism(HP1, HP1, {x4: Z4})),
        (
            "returned",
            "image of x4 mentions unknown generators: z4; "
            "chain condition fails on x7: image of d(x7) is z4^2, but d of the image is 0",
        ),
    ),
    (
        "change_of_variable",
        lambda: change_of_variable(HP1, x4, t4, X4 + Z4 + W4),
        ("UnknownGeneratorError", "relation mentions unknown generators: w4, z4"),
    ),
    (
        "projectivize",
        lambda: projectivize(PontryaginData(HP1, 2, {1: Z4, 2: W4 * Z4})),
        ("UnknownGeneratorError", "p_1 mentions generators outside the base: z4"),
    ),
    (
        "projectivize-class-past-the-rank",
        lambda: projectivize(PontryaginData(hp_model(2), 1, {1: X4, 2: X4 ** 2, 3: X4 ** 3})),
        ("DegreeMismatchError", "p_2 = x4^2 is nonzero, but the bundle has rank 1"),
    ),
    (
        "projectivize-class-index-below-1",
        lambda: projectivize(PontryaginData(HP1, 2, {0: Polynomial.scalar(1), 1: X4})),
        ("DegreeMismatchError", "p_0 = 1 is nonzero, but classes are indexed from 1"),
    ),
    (
        "projectivize-class-at-rank-1e9",
        lambda: within_memory(
            lambda: projectivize(
                parse_pontryagin("pontryagin P { p 999999999 = a8; }", sphere_model(8), 10**9)
            )
        ),
        ("DegreeMismatchError", "p_999999999 must be homogeneous of degree 3999999996, got a8"),
    ),
    (
        "projectivize-base-not-a-cdga",
        lambda: projectivize(PontryaginData(D_SQUARED_NONZERO, 1)),
        ("ValueError", "base is not a CDGA: d(d(c4)) = a2^3 is nonzero"),
    ),
    (
        "biquotient_model",
        lambda: biquotient_model(
            ClassifyingData((a4,), (b4,), (v4,), phi_h={v4: Polynomial.gen(b4) + Z4})
        ),
        ("UnknownGeneratorError", "phi_h(v4) leaves its target algebra: b4, z4"),
    ),
    (
        "biquotient_model-phi_k",
        lambda: biquotient_model(
            ClassifyingData((a4,), (b4, c4), (v4,), phi_k={v4: Polynomial.gen(a4)})
        ),
        ("UnknownGeneratorError", "phi_k(v4) leaves its target algebra: a4"),
    ),
    (
        "RingPresentation",
        lambda: RingPresentation((x4,), (X4 * Z4 + X4 * W4,)),
        ("ValueError", "relation w4*x4 + x4*z4 mentions unknown generators: w4, z4"),
    ),
    (
        "rename_generators-unknown-keys",
        lambda: rename_generators(hp_model(2), {z4: t4, w4: t4}),
        ("UnknownGeneratorError", "renaming unknown generators: w4, z4"),
    ),
    (
        "FreeCDGA-duplicate-names",
        lambda: FreeCDGA((z4_again, z4, x4, x4_again)),
        ("ValueError", "duplicate generator names: x4, z4"),
    ),
    (
        "biquotient_model-reused-names",
        lambda: biquotient_model(ClassifyingData((b4, a4), (b4,), (a4,))),
        ("ValueError", "classifying data reuses names: a4, b4"),
    ),
    (
        "RingPresentation-duplicate-name",
        lambda: RingPresentation((x4, z4, z4_again, x4_again), ()),
        ("ValueError", "duplicate generator name z4"),
    ),
    (
        "reduction-step-certificate",
        lambda: _certified(
            FreeCDGA((u3, z4, x7), {u3: 2 * Z4}),
            ReduciblePair(u3, z4, 1, Polynomial.zero(), {w4: Polynomial.zero()}),
            Cancellation(u3, z4, 1),
            FreeCDGA((w4,)),
        ),
        (
            "VerificationFailedError",
            "step 'cancel (u3, z4)' fails its certificate: d(u3) = 2*z4, expected z4; "
            "image of x7 mentions unknown generators: x7; unexpected generators w4",
        ),
    ),
    (
        "replay-diverged",
        lambda: replay(V3_TO_3X4, reduce(V3_TO_2X4)[1]),
        (
            "VerificationFailedError",
            "replay diverged at 'cancel (v3, x4)   [scalar 2]': got (v3, x4, 3)",
        ),
    ),
    (
        "betti-inhomogeneous",
        lambda: betti(INHOMOGENEOUS, 8),
        (
            "DegreeMismatchError",
            "term x2 of d(y3) is not a monomial of degree 4 in the model's generators",
        ),
    ),
    (
        "betti-two-inhomogeneous-generators",
        lambda: betti(TWO_INHOMOGENEOUS, 8),
        (
            "DegreeMismatchError",
            "term x2^3 of d(b3) is not a monomial of degree 4 in the model's generators",
        ),
    ),
    (
        "betti-unknown-generator",
        lambda: betti(FreeCDGA((x4, a7), {a7: Z4 * W4}), 8),
        (
            "DegreeMismatchError",
            "term w4*z4 of d(a7) is not a monomial of degree 8 in the model's generators",
        ),
    ),
    (
        "betti-d-squared-nonzero",
        lambda: betti(D_SQUARED_NONZERO, 8),
        ("ValueError", "not a CDGA: d(d(c4)) = a2^3 is nonzero"),
    ),
    (
        "reduce-d-squared-nonzero",
        lambda: reduce(D_SQUARED_NONZERO),
        ("ValueError", "not a CDGA: d(d(c4)) = a2^3 is nonzero"),
    ),
    (
        "reduce-inhomogeneous",
        lambda: reduce(INHOMOGENEOUS),
        ("ValueError", "not a CDGA: d(y3) is not homogeneous of degree 4: term x2 has degree 2"),
    ),
    (
        "is_quasi_iso-source-not-a-cdga",
        lambda: is_quasi_iso(identity_morphism(D_SQUARED_NONZERO), 8),
        ("ValueError", "source is not a CDGA: d(d(c4)) = a2^3 is nonzero"),
    ),
    (
        "is_quasi_iso-target-not-a-cdga",
        lambda: is_quasi_iso(Morphism(FreeCDGA((a2,)), D_SQUARED_NONZERO, {a2: A2}), 8),
        ("ValueError", "target is not a CDGA: d(d(c4)) = a2^3 is nonzero"),
    ),
    (
        "to_vector",
        lambda: Cohomology(HP1).to_vector(Z4, 4),
        ("UnknownGeneratorError", "polynomial mentions unknown generators: z4"),
    ),
    (
        "classify",
        lambda: Cohomology(HP1).classify(X4 * Z4 + W4 * X4, 8),
        ("UnknownGeneratorError", "polynomial mentions unknown generators: w4, z4"),
    ),
    (
        "class_of-zero",
        lambda: class_of(HP1, Polynomial.zero()),
        ("DegreeMismatchError", "expected a nonzero homogeneous cocycle"),
    ),
    (
        "class_of-inhomogeneous",
        lambda: class_of(HP1, X4 + X7),
        ("DegreeMismatchError", "expected a nonzero homogeneous cocycle"),
    ),
    (
        "class_of-not-a-cocycle",
        lambda: class_of(HP1, 2 * X7),
        ("NotACocycleError", "d(2*x7) = 2*x4^2 is nonzero"),
    ),
    (
        "class_of-cohomology-of-another-model",
        lambda: class_of(HP1, X4 ** 2, Cohomology(HP1_WITHOUT_D)),
        ("ValueError", "coh is the cohomology of another model"),
    ),
    (
        "cup_product-cohomology-of-another-model",
        lambda: cup_product(HP1, X4, X4, Cohomology(HP1_WITHOUT_D)),
        ("ValueError", "coh is the cohomology of another model"),
    ),
    (
        "cup_product-zero",
        lambda: cup_product(HP1, X4, Polynomial.zero()),
        ("DegreeMismatchError", "cup product expects nonzero homogeneous cocycles"),
    ),
    (
        "cup_product-not-a-cocycle",
        lambda: cup_product(HP1, X7, X4),
        ("NotACocycleError", "d(x7) = x4^2 is nonzero"),
    ),
    (
        "cup_product-second-not-a-cocycle",
        lambda: cup_product(HP1, X4, X7),
        ("NotACocycleError", "d(x7) = x4^2 is nonzero"),
    ),
    (
        "Polynomial-float-coefficient",
        lambda: Polynomial({X4_SQUARED: 0.1}),
        ("TypeError", "coefficient 0.1 of x4^2 is not an int or a Fraction"),
    ),
    (
        "Polynomial-string-coefficient",
        lambda: Polynomial({X4_SQUARED: "1/3"}),
        ("TypeError", "coefficient '1/3' of x4^2 is not an int or a Fraction"),
    ),
    (
        "Polynomial.scalar-float",
        lambda: Polynomial.scalar(0.1),
        ("TypeError", "coefficient 0.1 of 1 is not an int or a Fraction"),
    ),
    (
        "Polynomial-negative-power",
        lambda: X4 ** -1,
        ("ValueError", "negative power of a polynomial"),
    ),
    (
        "substitute-inhomogeneous",
        lambda: substitute(X7, x4, X4 + X4 ** 2),
        ("DegreeMismatchError", "replacement for x4 is inhomogeneous: degrees [4, 8]"),
    ),
    (
        "substitute-wrong-degree",
        lambda: substitute(X4, x4, X4 ** 2),
        ("DegreeMismatchError", "replacement for x4 has degree 8, expected 4"),
    ),
    (
        "FreeCDGA.gen-unknown-name",
        lambda: HP1.gen("z4"),
        ("UnknownGeneratorError", "no generator named z4"),
    ),
    (
        "change_of_variable-unknown-generator",
        lambda: change_of_variable(HP1, z4, t4, Z4),
        ("UnknownGeneratorError", "no generator z4 in the model"),
    ),
    (
        "change_of_variable-fresh-name-in-use",
        lambda: change_of_variable(HP1, x4, Generator("x7", 4), X4),
        ("ValueError", "fresh name x7 already in use"),
    ),
    (
        "change_of_variable-inhomogeneous-relation",
        lambda: change_of_variable(HP1, x4, t4, X4 + X4 ** 2),
        ("DegreeMismatchError", "relation must be homogeneous of degree 4, got x4 + x4^2"),
    ),
    (
        "cancel_acyclic_pair-even-generator",
        lambda: cancel_acyclic_pair(HP1, x4),
        ("NotLinearDifferentialError", "x4 has even degree 4"),
    ),
    (
        "cancel_acyclic_pair-odd-target",
        lambda: cancel_acyclic_pair(FreeCDGA((v3, u3), {v3: Polynomial.gen(u3)}), v3),
        ("NotLinearDifferentialError", "d(v3) lands on odd generator u3"),
    ),
    (
        "compose_and_check-non-source-generator",
        lambda: compose_and_check(Morphism(HP1, HP1, {z4: X4})),
        ("returned", "image assigned to non-source generator z4"),
    ),
    (
        "compose_and_check-inhomogeneous-image",
        lambda: compose_and_check(Morphism(FreeCDGA((x4,)), HP1, {x4: X4 + X4 ** 2})),
        ("returned", "image of x4 is inhomogeneous: x4 + x4^2"),
    ),
    (
        "to_vector-wrong-degree",
        lambda: Cohomology(HP1).to_vector(X4, 8),
        ("DegreeMismatchError", "term x4 has degree 4, expected 8"),
    ),
    (
        "hp_model-n-below-1",
        lambda: hp_model(0),
        ("UnsupportedDimensionError", "need n >= 1, got 0"),
    ),
    (
        "biquotient_model-non-middle-generator",
        lambda: biquotient_model(
            ClassifyingData((a4,), (b4,), (v4,), phi_h={a4: Polynomial.gen(a4)})
        ),
        ("UnknownGeneratorError", "phi_h assigned to non-middle generator a4"),
    ),
    (
        "biquotient_model-middle-degree-1",
        lambda: biquotient_model(ClassifyingData((a4,), (b4,), (v1,))),
        ("DegreeMismatchError", "middle generator v1 has degree 1; cannot suspend"),
    ),
    (
        "classifying_data-thm33-coefficient-count",
        lambda: classifying_data("thm33", 2, (Fraction(1),)),
        ("ValueError", "case thm33 at n = 2 needs 4 coefficients, got 1"),
    ),
    (
        "comparison_morphism-case-without-one",
        lambda: comparison_morphism("prop32"),
        ("ValueError", "case prop32 has no comparison morphism"),
    ),
]


@pytest.mark.parametrize("run, want", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_error_text(run, want):
    assert _outcome(run) == want
