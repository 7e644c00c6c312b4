from fractions import Fraction

import pytest

from sullivan import cohomology
from sullivan.cdga import FreeCDGA, Morphism, apply_d, identity_morphism, rename_generators
from sullivan.cohomology import (
    Cohomology,
    CohomologyClass,
    RingPresentation,
    betti,
    class_of,
    cup_product,
    is_quasi_iso,
    max_basis_cap,
    quotient_ring_dims,
)
from sullivan.constructors import biquotient_model, bsp_model, hp_model, sphere_model
from sullivan.dsl import parse_expression, parse_morphism
from sullivan.errors import DegreeMismatchError, NotACocycleError, ResourceLimitError
from sullivan.gradedalg import Generator, Polynomial, basis_of_degree
from sullivan.linalg import RowSpace
from sullivan.presets import classifying_data, data_text
from sullivan.reduction import reduce

from helpers import betti_by_elimination, quotient_dims_by_elimination, random_pure_model, total_dim


def gen_of(model, name):
    return next(g for g in model.generators if g.name == name)


def _d_squared_nonzero() -> FreeCDGA:
    """x2, y3, z4, a5 with d(y3) = x2^2 and d(z4) = x2*y3, so d(d(z4)) = x2^3."""
    x2, y3, z4, a5 = (Generator(n, d) for n, d in (("x2", 2), ("y3", 3), ("z4", 4), ("a5", 5)))
    X2 = Polynomial.gen(x2)
    return FreeCDGA((x2, y3, z4, a5), {y3: X2 ** 2, z4: X2 * Polynomial.gen(y3)})


D_SQUARED_NONZERO = _d_squared_nonzero()


def test_sphere_betti():
    assert betti(sphere_model(4), 12).nonzero() == {0: 1, 4: 1}
    assert betti(sphere_model(8), 20).nonzero() == {0: 1, 8: 1}


def test_quaternionic_projective_space_betti():
    assert betti(hp_model(1), 8).nonzero() == {0: 1, 4: 1}
    assert betti(hp_model(2), 12).nonzero() == {0: 1, 4: 1, 8: 1}
    assert betti(hp_model(3), 16).nonzero() == {0: 1, 4: 1, 8: 1, 12: 1}


def test_classifying_space_betti_is_polynomial():
    # polynomial algebra on degrees 4 and 8
    got = betti(bsp_model(2), 16).nonzero()
    assert got == {0: 1, 4: 1, 8: 2, 12: 2, 16: 3}


def test_betti_agrees_with_dense_oracle_on_random_models(rng):
    for _ in range(25):
        m = random_pure_model(rng)
        assert betti(m, 11).nonzero() == betti_by_elimination(m, 11)


def test_report_bookkeeping_fields():
    report = betti(hp_model(2), 12, representatives=True)
    assert report.max_degree == 12
    assert report.total_dim() == 3
    assert report.betti[5] == 0
    assert [str(p) for p in report.representatives[8]] == ["x4^2"]


def test_representatives_are_cocycles_and_not_coboundaries():
    m = hp_model(2)
    coh = Cohomology(m)
    report = betti(m, 12, representatives=True)
    for degree, reps in report.representatives.items():
        for p in reps:
            cls = class_of(m, p, coh)
            assert cls.degree == degree
            assert not cls.is_zero()


def test_class_of_rejects_non_cocycles():
    m = hp_model(2)
    x7 = gen_of(m, "x11")
    with pytest.raises(NotACocycleError):
        class_of(m, Polynomial.gen(x7))


def test_class_of_kills_coboundaries():
    m = hp_model(2)
    y4 = gen_of(m, "x4")
    # d(x11) = x4^3 is a coboundary
    cls = class_of(m, Polynomial.gen(y4) ** 3)
    assert cls.is_zero()


@pytest.mark.parametrize(
    "cocycle, coordinates, residue",
    [
        ("a4", ["3", "-1"], "3*b4 - c4"),
        ("a4 + c4", ["3", "0"], "3*b4"),
        ("a4^2", ["3", "-2"], "3*b4*c4 - 2*c4^2"),
        ("b4^2", ["1", "-1/3"], "b4*c4 - 1/3*c4^2"),
        ("a4*b4", ["2", "-1"], "2*b4*c4 - c4^2"),
        ("b4*c4^2", ["1/2"], "1/2*c4^3"),
        ("a4^2*b4 - 2*c4^3", ["-5/2"], "-5/2*c4^3"),
        ("b4^3", ["0"], "0"),
    ],
)
def test_class_of_coordinates_on_thm34(cocycle, coordinates, residue):
    model = biquotient_model(classifying_data("thm34"))
    env = {g.name: g for g in model.generators}
    cls = class_of(model, parse_expression(cocycle, env))
    assert [str(c) for c in cls.coordinates] == coordinates
    assert str(cls.representative) == residue


def test_cup_product_truncated_polynomial_structure():
    m = hp_model(2)
    y4 = Polynomial.gen(gen_of(m, "x4"))
    square = cup_product(m, y4, y4)
    assert not square.is_zero()
    assert square.degree == 8
    cube = cup_product(m, y4, square.representative)
    assert cube.is_zero()


def test_cup_product_of_classes_whose_product_is_zero():
    u3, w6 = Generator("u3", 3), Generator("w6", 6)
    model = FreeCDGA((u3, w6))
    u = Polynomial.gen(u3)
    assert cup_product(model, u, u) == CohomologyClass(6, (Fraction(0),), Polynomial.zero())


def test_cup_product_applies_d_to_its_factors_only(monkeypatch):
    model = hp_model(2)
    x4 = Polynomial.gen(gen_of(model, "x4"))
    coh = Cohomology(model)
    coh.betti(8)
    applied = []
    real = cohomology.apply_d
    monkeypatch.setattr(cohomology, "apply_d", lambda m, p: applied.append(p) or real(m, p))
    assert cup_product(model, x4, x4, coh).coordinates == (Fraction(1),)
    assert applied == [x4, x4]


def test_class_coordinates_are_fractions():
    model = biquotient_model(classifying_data("thm34"))
    coh = Cohomology(model)
    reps = betti(model, 12, representatives=True).representatives
    env = {g.name: g for g in model.generators}
    classes = [class_of(model, parse_expression(p, env), coh) for p in ("a4", "b4^3", "b4*c4^2")]
    classes += [cup_product(model, a, b, coh) for a in reps[4] for b in reps[4] + reps[8]]
    u3 = Generator("u3", 3)
    classes.append(cup_product(FreeCDGA((u3,)), Polynomial.gen(u3), Polynomial.gen(u3)))
    coordinates = [c for cls in classes for c in cls.coordinates]
    assert 0 in coordinates and any(coordinates)
    assert all(type(c) is Fraction for c in coordinates)


def test_stages_eliminate_in_integers_and_answers_stay_fractions():
    """On an integral model the d-matrix columns, the kernel tags and so the
    cocycles and image rows are ints; representatives are Fractions."""
    model = biquotient_model(classifying_data("thm34"))
    coh = Cohomology(model)
    for n in range(13):
        stage = coh._stage(n)
        values = [c for z in stage.cocycles for c in z.values()]
        values += [c for _, row, tag in stage.image.rows for c in (*row.values(), *tag.values())]
        assert all(type(c) is int for c in values)
    assert any(coh._stage(n).cocycles and coh._stage(n).image.rank for n in range(13))
    reps = [p for n in range(13) for p in coh.representatives(n)]
    assert reps and all(type(c) is Fraction for p in reps for c in p.terms.values())


def test_cup_product_shares_a_cohomology(monkeypatch):
    model = biquotient_model(classifying_data("thm34"))
    reps = betti(model, 12, representatives=True).representatives
    pairs = [(a, b) for a in reps[4] for b in reps[4] + reps[8]]
    fresh = [cup_product(model, a, b) for a, b in pairs]
    enumerated = []
    real = cohomology.basis_of_degree
    monkeypatch.setattr(
        cohomology, "basis_of_degree", lambda *args: enumerated.append(args[1]) or real(*args)
    )
    coh = Cohomology(model)
    assert [cup_product(model, a, b, coh) for a, b in pairs] == fresh
    # Each stage enumerates its own degree and the next, once.
    assert sorted(enumerated) == sorted(n + k for n in coh._stages for k in (0, 1))
    assert max(coh._stages) == 12


def _stored_nnz(space):
    return sum(len(row) + len(tag) for _, row, tag in space.rows)


def test_stage_fills_in_less_than_canonical_insertion():
    """A count, not a timing: the nonzeros of the image rows and row tags
    that the stages store on the thm33 n = 4 biquotient to degree 28 (891),
    against the same columns inserted in canonical order (1093)."""
    model = biquotient_model(classifying_data("thm33", 4))
    coh = Cohomology(model)
    stored = canonical = 0
    for n in range(29):
        image = coh.coboundaries(n + 1)
        target = {m: i for i, m in enumerate(basis_of_degree(model.generators, n + 1))}
        space = RowSpace()
        for j, mono in enumerate(basis_of_degree(model.generators, n)):
            dp = apply_d(model, Polynomial.monomial(mono))
            space.add({target[m]: c for m, c in dp.terms.items()}, {j: Fraction(1)})
        assert space.basis() == image.basis()
        stored += _stored_nnz(image)
        canonical += _stored_nnz(space)
    assert stored < canonical


def test_quotient_ring_dims_matches_truncated_algebra():
    x = Generator("x4", 4)
    pres = RingPresentation((x,), (Polynomial.gen(x) ** 3,))
    dims = quotient_ring_dims(pres, 16)
    assert {n: d for n, d in dims.items() if d} == {0: 1, 4: 1, 8: 1}


def test_quotient_ring_dims_two_variable_complete_intersection():
    x = Generator("x4", 4)
    y = Generator("y4", 4)
    r1 = Polynomial.gen(x) ** 2 + Polynomial.gen(x) * Polynomial.gen(y) + Polynomial.gen(y) ** 2
    r2 = Polynomial.gen(y) ** 3
    dims = quotient_ring_dims(RingPresentation((x, y), (r1, r2)), 16)
    assert {n: d for n, d in dims.items() if d} == {0: 1, 4: 2, 8: 2, 12: 1}


def _h0(model):
    return RingPresentation(
        model.even_generators(), tuple(model.d(g) for g in model.odd_generators())
    )


def _not_zero_dimensional():
    """Q[x2, y4, z6]/(x2^3 - x2*y4, y4^2 - x2*z6): two relations on three generators."""
    x2, y4, z6 = Generator("x2", 2), Generator("y4", 4), Generator("z6", 6)
    x, y, z = (Polynomial.gen(g) for g in (x2, y4, z6))
    return RingPresentation((x2, y4, z6), (x ** 3 - x * y, y ** 2 - x * z))


@pytest.mark.parametrize(
    "pres, want",
    [
        (_h0(biquotient_model(classifying_data("prop31", 3))), {n: 1 for n in range(0, 17, 4)}),
        (_h0(biquotient_model(classifying_data("thm34"))), {0: 1, 4: 2, 8: 2, 12: 1}),
        (_not_zero_dimensional(), {0: 1, 2: 1, **{n: 2 for n in range(4, 17, 2)}}),
    ],
    ids=["prop31-h0", "thm34-h0", "not-zero-dimensional"],
)
def test_quotient_ring_dims_pinned_examples(pres, want):
    dims = quotient_ring_dims(pres, 16)
    assert {n: d for n, d in dims.items() if d} == want
    assert dims == quotient_dims_by_elimination(pres.generators, pres.relations, 16)


def _ring_model():
    """x_i of degree 2 and y_i of degree 3, d y_i = x_i x_{i+1 mod 6}: pure with
    six even and six odd generators, and H_0 is infinite."""
    xs = [Generator(f"x{i}", 2) for i in range(6)]
    ys = [Generator(f"y{i}", 3) for i in range(6)]
    diff = {y: Polynomial.gen(xs[i]) * Polynomial.gen(xs[(i + 1) % 6]) for i, y in enumerate(ys)}
    return FreeCDGA(tuple(xs + ys), diff)


def _counted_betti(monkeypatch, model, max_degree):
    """betti(model, max_degree) with the degrees it enumerates and the
    polynomials it differentiates."""
    enumerated, applied = [], []
    real_basis, real_apply_d = cohomology.basis_of_degree, cohomology.apply_d
    monkeypatch.setattr(
        cohomology, "basis_of_degree", lambda *args: enumerated.append(args[1]) or real_basis(*args)
    )
    monkeypatch.setattr(cohomology, "apply_d", lambda m, p: applied.append(p) or real_apply_d(m, p))
    return betti(model, max_degree), enumerated, applied


@pytest.mark.parametrize(
    "model",
    [biquotient_model(classifying_data("prop31", 3)), _ring_model()],
    ids=["prop31", "pure-6-6"],
)
def test_refused_models_take_the_full_complex(monkeypatch, model):
    assert cohomology._elliptic_betti(Cohomology(model), None) is None
    report, enumerated, applied = _counted_betti(monkeypatch, model, 8)
    assert sorted(enumerated) == sorted(n + k for n in range(9) for k in (0, 1))
    assert len(applied) == sum(len(basis_of_degree(model.generators, n)) for n in range(9))
    assert report.nonzero() == betti_by_elimination(model, 8)


def test_certified_models_read_betti_numbers_from_h0(monkeypatch):
    model = biquotient_model(classifying_data("thm34"))
    assert cohomology._elliptic_betti(Cohomology(model), None) == [1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 1]
    report, enumerated, applied = _counted_betti(monkeypatch, model, 16)
    assert enumerated == applied == []
    assert report.nonzero() == betti_by_elimination(model, 16) == {0: 1, 4: 2, 8: 2, 12: 1}
    assert report.max_degree == 16 and set(report.betti) == set(range(17))
    # The work is set by H_0, not by the degree asked for.
    assert betti(hp_model(2), 20000).nonzero() == {0: 1, 4: 1, 8: 1}


def test_default_degree_is_the_top_degree_of_certified_models():
    assert betti(hp_model(10)).max_degree == 40
    assert betti(hp_model(10)).nonzero() == {n: 1 for n in range(0, 41, 4)}
    report = betti(sphere_model(12), representatives=True)
    assert report.max_degree == 12 and report.nonzero() == {0: 1, 12: 1}
    assert [str(p) for p in report.representatives[12]] == ["a12"]
    assert betti(bsp_model(2)).max_degree == 8  # not elliptic: the old default


def test_standard_monomials_respect_the_basis_cap(monkeypatch):
    monkeypatch.setenv("RHT_MAX_BASIS", "2")
    pres = RingPresentation((Generator("x2", 2), Generator("y2", 2)), ())
    with pytest.raises(ResourceLimitError, match="quotient in degree 4 exceeds cap of 2 monomials"):
        quotient_ring_dims(pres, 4)


def test_ring_presentation_drops_zero_relations():
    x4 = Generator("x4", 4)
    pres = RingPresentation((x4,), (Polynomial.zero(), Polynomial.gen(x4) ** 2))
    assert pres.relations == (Polynomial.gen(x4) ** 2,)
    dims = quotient_ring_dims(pres, 12)
    assert {n: d for n, d in dims.items() if d} == {0: 1, 4: 1}


def test_empty_inputs_take_the_general_path():
    assert basis_of_degree((Generator("x4", 4),), -1) == []
    assert RowSpace().add({}) == ({}, {})


@pytest.mark.parametrize(
    "vec, tag, residue, rtag",
    [
        ({0: 3, 2: -2}, {5: 1}, {0: 3, 2: -2}, {5: 1}),
        ({0: Fraction(1, 2), 1: Fraction(-1, 3)}, {4: Fraction(1, 6)}, {0: 3, 1: -2}, {4: 1}),
        ({0: 2, 1: Fraction(2, 3)}, {4: 1}, {0: 6, 1: 2}, {4: 3}),
        ({0: 4, 3: -6}, {1: 2}, {0: 2, 3: -3}, {1: 1}),
        ({}, {7: 4}, {}, {7: 1}),
    ],
    ids=["int", "fraction", "mixed", "int-gcd-2", "empty-vec"],
)
def test_row_space_add_returns_primitive_integers_and_leaves_its_arguments(
    vec, tag, residue, rtag
):
    before = (dict(vec), dict(tag))
    got = RowSpace().add(vec, tag)
    assert (vec, tag) == before
    assert got == (residue, rtag)
    assert got[0] is not vec and got[1] is not tag
    assert all(type(c) is int for part in got for c in part.values())


def test_ring_presentation_validates_input():
    x = Generator("x4", 4)
    odd = Generator("z3", 3)
    with pytest.raises(ValueError, match="odd degree"):
        RingPresentation((odd,), ())
    with pytest.raises(ValueError, match="unknown generators"):
        RingPresentation((x,), (Polynomial.gen(Generator("w4", 4)),))
    inhomog = Polynomial.gen(x) + Polynomial.gen(x) ** 2
    with pytest.raises(Exception, match="not homogeneous"):
        RingPresentation((x,), (inhomog,))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: betti(hp_model(2), -3), "max_degree must be >= 0, got -3"),
        (
            lambda: is_quasi_iso(parse_morphism(data_text("thm34_f.morphism")), -1),
            "max_degree must be >= 0, got -1",
        ),
        (
            lambda: quotient_ring_dims(RingPresentation((Generator("x4", 4),), ()), -2),
            "max_degree must be >= 0, got -2",
        ),
        (lambda: reduce(hp_model(2), check_degree=-5), "check_degree must be >= 0, got -5"),
        (lambda: Cohomology(hp_model(2)).betti(-1), "degree must be >= 0, got -1"),
    ],
    ids=["betti", "is_quasi_iso", "quotient_ring_dims", "reduce", "Cohomology.betti"],
)
def test_negative_degree_bounds_are_rejected(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_is_quasi_iso_accepts_isomorphic_relabeling():
    m = hp_model(2)
    other = rename_generators(
        m, {g: Generator("z" + g.name[1:], g.degree) for g in m.generators}
    )
    f = Morphism(
        m,
        other,
        {g: Polynomial.gen(Generator("z" + g.name[1:], g.degree)) for g in m.generators},
    )
    report = is_quasi_iso(f, 12)
    assert report.ok
    assert report.failing_degrees() == []
    assert all(v.describe() == "bijective" for v in report.per_degree.values())


@pytest.mark.parametrize(
    "name", ["thm34_f.morphism", "thm33_n2_eta.morphism", "thm33_n3_eta.morphism"]
)
def test_is_quasi_iso_builds_no_reduced_echelon_form(monkeypatch, name):
    def refuse(self):
        raise AssertionError("RowSpace.basis is for printed representatives only")

    monkeypatch.setattr(RowSpace, "basis", refuse)
    assert is_quasi_iso(parse_morphism(data_text(name)), 24).ok


def test_is_quasi_iso_flags_failures_per_degree():
    s4 = sphere_model(4)
    bs = bsp_model(1)
    a4 = gen_of(s4, "a4")
    y4 = gen_of(bs, "y4")
    f = Morphism(bs, s4, {y4: Polynomial.gen(a4)})
    report = is_quasi_iso(f, 8)
    assert not report.ok
    assert report.failing_degrees() == [8]
    verdict = report.per_degree[8]
    assert verdict.source_dim == 1 and verdict.target_dim == 0
    assert verdict.describe() == "not-injective"


def test_is_quasi_iso_rejects_non_chain_maps():
    m = hp_model(2)
    y11 = gen_of(m, "x11")
    bad = Morphism(m, m, {gen_of(m, "x4"): Polynomial.gen(gen_of(m, "x4")), y11: Polynomial.zero()})
    with pytest.raises(ValueError, match="chain condition"):
        is_quasi_iso(bad, 12)


def test_is_quasi_iso_rejects_models_that_are_not_cdgas():
    # the identity of a model with d∘d != 0 is not a map of CDGAs
    with pytest.raises(ValueError) as info:
        is_quasi_iso(identity_morphism(D_SQUARED_NONZERO), 6)
    assert str(info.value) == "source is not a CDGA: d(d(z4)) = x2^3 is nonzero"


def test_betti_and_class_of_check_d_squared_in_each_degree():
    # no Betti number of this model comes out negative, so only the d∘d
    # check of the degree-5 stage can catch it
    assert betti(D_SQUARED_NONZERO, 4).nonzero() == {0: 1, 2: 1}
    x2_to_the_4 = Polynomial.gen(gen_of(D_SQUARED_NONZERO, "x2")) ** 4
    for run in (
        lambda: betti(D_SQUARED_NONZERO, 6),
        lambda: class_of(D_SQUARED_NONZERO, x2_to_the_4),
    ):
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == "not a CDGA: d(d(z4)) = x2^3 is nonzero"


def test_differential_shape_is_checked_when_the_cohomology_is_built():
    # d(z7) = x2^3 has degree 6, not 8, and degree 7 is past the range asked
    x2, y3, z7 = Generator("x2", 2), Generator("y3", 3), Generator("z7", 7)
    X2 = Polynomial.gen(x2)
    model = FreeCDGA((x2, y3, z7), {y3: X2 ** 2, z7: X2 ** 3})
    want = "term x2^3 of d(z7) is not a monomial of degree 8 in the model's generators"
    for build in (lambda: betti(model, 4), lambda: Cohomology(model)):
        with pytest.raises(DegreeMismatchError) as info:
            build()
        assert str(info.value) == want


def test_max_basis_cap_env_override(monkeypatch):
    monkeypatch.delenv("RHT_MAX_BASIS", raising=False)
    default = max_basis_cap()
    monkeypatch.setenv("RHT_MAX_BASIS", "123")
    assert max_basis_cap() == 123
    monkeypatch.setenv("RHT_MAX_BASIS", "not-a-number")
    with pytest.raises(ValueError, match="bad RHT_MAX_BASIS"):
        max_basis_cap()
    assert default > 0


def test_betti_respects_basis_cap(monkeypatch):
    monkeypatch.setenv("RHT_MAX_BASIS", "10")
    with pytest.raises(ResourceLimitError):
        betti(bsp_model(3), 40)
