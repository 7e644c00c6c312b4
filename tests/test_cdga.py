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
    tensor,
    validate,
)
from sullivan import cdga
from sullivan.cohomology import betti
from sullivan.constructors import (
    ClassifyingData,
    PontryaginData,
    biquotient_model,
    hp_model,
    projectivize,
    sphere_model,
)
from sullivan.errors import (
    NotLinearDifferentialError,
    NotSolvableError,
    ResidualOccurrenceError,
    UnknownGeneratorError,
)
from sullivan.gradedalg import Generator, Polynomial

from helpers import betti_by_elimination, random_pure_model

a4 = Generator("a4", 4)
b4 = Generator("b4", 4)
v3 = Generator("v3", 3)
v7 = Generator("v7", 7)


def two_step_model() -> FreeCDGA:
    return FreeCDGA(
        (v3, a4, b4, v7),
        {
            v3: Polynomial.gen(a4) - 3 * Polynomial.gen(b4),
            v7: Polynomial.gen(a4) * Polynomial.gen(b4),
        },
    )


def test_model_normalizes_generator_order():
    m = two_step_model()
    assert tuple(g.name for g in m.generators) == ("v3", "a4", "b4", "v7")


def test_model_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        FreeCDGA((a4, Generator("a4", 4)))


def test_model_rejects_stray_differential():
    with pytest.raises(UnknownGeneratorError):
        FreeCDGA((a4,), {v3: Polynomial.gen(a4)})


def test_apply_d_is_a_derivation_on_products():
    m = two_step_model()
    p = Polynomial.gen(v3) * Polynomial.gen(a4)
    # d(v3*a4) = d(v3)*a4, a4 closed
    assert apply_d(m, p) == m.d(v3) * Polynomial.gen(a4)


def test_apply_d_sign_for_odd_prefix():
    m = two_step_model()
    p = Polynomial.gen(v3) * Polynomial.gen(v7)
    expected = m.d(v3) * Polynomial.gen(v7) - Polynomial.gen(v3) * m.d(v7)
    assert apply_d(m, p) == expected


def test_apply_d_squares_to_zero_on_random_models(rng):
    for _ in range(20):
        m = random_pure_model(rng)
        for g in m.generators:
            assert apply_d(m, m.d(g)).is_zero()


def test_apply_d_of_public_polynomials_has_fraction_coefficients():
    # d is integral here, so its stored coefficients are ints; a polynomial
    # built through the public constructors still gets Fractions back.
    m = two_step_model()
    A4, B4, V3, V7 = (Polynomial.gen(g) for g in (a4, b4, v3, v7))
    built = [
        V3,
        Polynomial.gen(v7, 1),
        Polynomial.scalar(2) * V3,
        Polynomial.monomial(next(iter((V3 * A4).terms)), 3),
        V3 * B4 ** 2,
        V3 * V7 + 3 * A4 * V7,
        Polynomial({next(iter(V7.terms)): 5}),
    ]
    images = [apply_d(m, p) for p in built]
    assert all(not image.is_zero() for image in images)
    assert all(type(c) is Fraction for image in images for c in image.terms.values())
    # Only the d-matrix build passes the int coefficient 1, and gets ints.
    column = apply_d(m, Polynomial._nonzero({next(iter((V3 * V7).terms)): 1}))
    assert column.terms and all(type(c) is int for c in column.terms.values())


def test_validate_accepts_good_model():
    assert validate(two_step_model()) == []


def test_validate_reports_inhomogeneous_terms():
    bad = FreeCDGA(
        (b4, v7),
        {v7: Polynomial.gen(b4) ** 4},
    )
    problems = validate(bad)
    assert problems == [
        "d(v7) is not homogeneous of degree 8: term b4^4 has degree 16"
    ]


def test_validate_reports_broken_d_squared():
    x2 = Generator("x2", 2)
    y3 = Generator("y3", 3)
    z4 = Generator("z4", 4)
    bad = FreeCDGA(
        (x2, y3, z4),
        {y3: Polynomial.gen(x2) ** 2, x2: Polynomial.zero(), z4: Polynomial.zero()},
    )
    # so far fine; now make d fail to square to zero
    worse = FreeCDGA(
        (x2, y3, z4),
        {z4: Polynomial.zero(), y3: Polynomial.gen(z4), x2: Polynomial.gen(y3)},
    )
    assert validate(bad) == []
    assert validate(worse) == ["d(d(x2)) = z4 is nonzero"]


def test_rename_generators_transports_differentials():
    m = two_step_model()
    renamed = rename_generators(
        m, {a4: Generator("p4", 4), v3: Generator("w3", 3)}
    )
    w3 = Generator("w3", 3)
    assert renamed.has_gen("p4") and renamed.has_gen("w3")
    assert str(renamed.d(w3)) == "-3*b4 + p4"
    assert validate(renamed) == []


def test_rename_generators_rejects_parity_change():
    m = two_step_model()
    with pytest.raises(Exception):
        rename_generators(m, {a4: Generator("a5", 5)})


def test_rename_generators_rejects_keys_that_are_not_generators_of_the_model():
    with pytest.raises(UnknownGeneratorError) as info:
        rename_generators(hp_model(2), {Generator("zz", 4): Generator("ww", 4)})
    assert str(info.value) == "renaming unknown generators: zz"


def test_rename_preserves_betti(rng):
    m = random_pure_model(rng)
    fresh = {g: Generator(f"r{i}_{g.degree}", g.degree) for i, g in enumerate(m.generators)}
    renamed = rename_generators(m, fresh)
    assert betti(m, 10).betti == betti(renamed, 10).betti


def test_tensor_kunneth_spot_check():
    s4 = sphere_model(4)
    prod = tensor(s4, rename_generators(s4, {g: Generator(g.name + "'", g.degree) for g in s4.generators}))
    got = betti(prod, 8).nonzero()
    assert got == {0: 1, 4: 2, 8: 1}


def test_tensor_primes_colliding_names():
    s4 = sphere_model(4)
    prod = tensor(s4, s4)
    assert tuple(g.name for g in prod.generators) == ("a4", "a4'", "a7", "a7'")
    a7p = next(g for g in prod.generators if g.name == "a7'")
    assert str(prod.d(a7p)) == "a4'^2"
    assert validate(prod) == []


def test_change_of_variable_round_trip():
    m = two_step_model()
    t4 = Generator("t4", 4)
    relation = Polynomial.gen(a4) - 3 * Polynomial.gen(b4)
    changed = change_of_variable(m, a4, t4, relation)
    assert validate(changed) == []
    assert str(changed.d(v3)) == "t4"
    # undo: a4 = t4 + 3*b4
    back = change_of_variable(
        changed, t4, a4, Polynomial.gen(t4) + 3 * Polynomial.gen(b4)
    )
    assert back.d(v3) == m.d(v3)
    assert betti(m, 12).betti == betti(changed, 12).betti


def test_change_of_variable_requires_solvable_linear_part():
    m = two_step_model()
    t4 = Generator("t4", 4)
    with pytest.raises(NotSolvableError):
        change_of_variable(m, a4, t4, Polynomial.gen(b4))


def test_change_of_variable_checks_fresh_degree():
    from sullivan.errors import DegreeMismatchError

    m = two_step_model()
    t8 = Generator("t8", 8)
    with pytest.raises(DegreeMismatchError):
        change_of_variable(m, a4, t8, Polynomial.gen(a4) * Polynomial.gen(b4))


def test_cancel_acyclic_pair_removes_both_generators():
    m = two_step_model()
    t4 = Generator("t4", 4)
    changed = change_of_variable(m, a4, t4, Polynomial.gen(a4) - 3 * Polynomial.gen(b4))
    smaller, cert = cancel_acyclic_pair(changed, v3)
    assert cert.odd_gen == v3 and cert.even_gen == t4
    assert cert.scalar == Fraction(1)
    names = tuple(g.name for g in smaller.generators)
    assert names == ("b4", "v7")
    assert str(smaller.d(v7)) == "3*b4^2"
    assert betti_by_elimination(smaller, 12) == betti(m, 12).nonzero()


def test_cancel_acyclic_pair_rejects_nonlinear_differential():
    m = two_step_model()
    with pytest.raises(NotLinearDifferentialError):
        cancel_acyclic_pair(m, v7)
    with pytest.raises(NotLinearDifferentialError):
        cancel_acyclic_pair(m, v3)


def test_cancel_acyclic_pair_absorbs_terms_killed_with_x():
    # d(w7) = v3*a4 dies when a4 is set to zero, so the pair still goes
    w7 = Generator("w7", 7)
    m = FreeCDGA(
        (v3, a4, w7),
        {v3: Polynomial.gen(a4), w7: Polynomial.gen(v3) * Polynomial.gen(a4)},
    )
    smaller, _ = cancel_acyclic_pair(m, v3)
    assert tuple(g.name for g in smaller.generators) == ("w7",)
    assert smaller.d(w7).is_zero()


def test_cancel_acyclic_pair_rejects_residual_occurrence():
    # d(w6) keeps a bare v3 factor after a4 is set to zero
    u3 = Generator("u3", 3)
    c4 = Generator("c4", 4)
    w6 = Generator("w6", 6)
    m = FreeCDGA(
        (v3, u3, a4, c4, w6),
        {
            v3: Polynomial.gen(a4),
            u3: Polynomial.gen(c4),
            w6: Polynomial.gen(v3) * Polynomial.gen(c4)
            - Polynomial.gen(u3) * Polynomial.gen(a4),
        },
    )
    assert validate(m) == []
    with pytest.raises(ResidualOccurrenceError):
        cancel_acyclic_pair(m, v3)


def test_cancel_acyclic_pair_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        cancel_acyclic_pair(two_step_model(), Generator("zz3", 3))


def test_morphism_push_is_multiplicative():
    hp1 = hp_model(1)
    s4 = sphere_model(4)
    x4 = next(g for g in hp1.generators if g.name == "x4")
    a4g = next(g for g in s4.generators if g.name == "a4")
    f = Morphism(hp1, s4, {x4: Polynomial.gen(a4g)})
    assert f.push(Polynomial.gen(x4) ** 2) == Polynomial.gen(a4g) ** 2
    assert f.push(Polynomial.scalar(5)) == Polynomial.scalar(5)


def test_identity_morphism_checks_clean():
    m = two_step_model()
    assert compose_and_check(identity_morphism(m)) == []


def test_compose_and_check_chain_condition_message():
    s4a = sphere_model(4)
    s4b = rename_generators(
        s4a, {g: Generator("b" + g.name[1:], g.degree) for g in s4a.generators}
    )
    a4g = next(g for g in s4a.generators if g.name == "a4")
    a7g = next(g for g in s4a.generators if g.name == "a7")
    bad = Morphism(
        s4a,
        s4b,
        {
            a4g: Polynomial.gen(Generator("b4", 4)),
            a7g: -Polynomial.gen(Generator("b7", 7)),
        },
    )
    problems = compose_and_check(bad)
    assert len(problems) == 1
    assert "chain condition fails on a7" in problems[0]


def test_compose_and_check_rejects_degree_shift():
    s4 = sphere_model(4)
    a4g = next(g for g in s4.generators if g.name == "a4")
    bad = Morphism(s4, s4, {a4g: Polynomial.gen(a4g) ** 2})
    assert any("degree" in p for p in compose_and_check(bad))


PRODUCERS = {
    "change_of_variable": lambda: change_of_variable(
        two_step_model(), b4, Generator("t4", 4), Polynomial.gen(a4) - 3 * Polynomial.gen(b4)
    ),
    "cancel_acyclic_pair": lambda: cancel_acyclic_pair(
        FreeCDGA((v3, a4), {v3: Polynomial.gen(a4)}), v3
    ),
    "projectivize": lambda: projectivize(PontryaginData(hp_model(1), 2)),
    "biquotient_model": lambda: biquotient_model(
        ClassifyingData((a4,), (b4,), (Generator("w4", 4),))
    ),
}


@pytest.mark.parametrize("producer", PRODUCERS)
def test_producers_validate_their_result_once(monkeypatch, producer):
    seen = []

    def failing_validate(model):
        seen.append(model)
        return ["first violation", "second violation"]

    monkeypatch.setattr(cdga, "validate", failing_validate)
    with pytest.raises(AssertionError) as info:
        PRODUCERS[producer]()
    assert str(info.value) == (
        f"{producer} produced an invalid model: first violation; second violation"
    )
    assert len(seen) == 1
