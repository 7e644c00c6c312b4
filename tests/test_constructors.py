import pytest

from sullivan.cdga import FreeCDGA
from sullivan.cohomology import betti
from sullivan.constructors import (
    ClassifyingData,
    PontryaginData,
    biquotient_model,
    bsp_model,
    hp_model,
    projectivize,
    pure_check,
    sphere_model,
)
from sullivan.errors import (
    DegreeMismatchError,
    NotACocycleError,
    UnknownGeneratorError,
    UnsupportedDimensionError,
)
from sullivan.dsl import parse_pontryagin
from sullivan.gradedalg import Generator, Polynomial
from sullivan.presets import data_text

from helpers import within_memory


def gen_of(model, name):
    return next(g for g in model.generators if g.name == name)


def test_bsp_model_shapes():
    m = bsp_model(3)
    assert tuple(g.name for g in m.generators) == ("y4", "y8", "y12")
    assert all(m.d(g).is_zero() for g in m.generators)
    with pytest.raises(UnsupportedDimensionError):
        bsp_model(0)


def test_sphere_model_shapes():
    m = sphere_model(8)
    assert tuple((g.name, g.degree) for g in m.generators) == (("a8", 8), ("a15", 15))
    assert str(m.d(gen_of(m, "a15"))) == "a8^2"
    for bad in (0, 3, 6, -4):
        with pytest.raises(UnsupportedDimensionError):
            sphere_model(bad)


def test_hp_model_prefix_and_top_power():
    m = hp_model(3, prefix="q")
    top = gen_of(m, "q15")
    assert str(m.d(top)) == "q4^4"


def test_pontryagin_padding():
    base = hp_model(1)
    x4 = Polynomial.gen(gen_of(base, "x4"))
    data = PontryaginData(base, 3, {1: x4})
    assert data.classes == {1: x4}  # p_2 and p_3 are left out: zero
    out = projectivize(data)
    assert str(out.d(gen_of(out, "x11"))) == "x4*x4'^2 + x4'^3"


def test_pontryagin_classes_past_the_rank_must_vanish():
    base = hp_model(1)
    x4 = Polynomial.gen(gen_of(base, "x4"))
    assert PontryaginData(base, 1, {1: x4, 2: Polynomial.zero()}).classes == {1: x4}
    with pytest.raises(DegreeMismatchError, match="p_2"):
        projectivize(PontryaginData(base, 1, {1: x4, 2: x4 ** 2}))


def test_zero_entries_are_dropped_whatever_their_key():
    zero = Polynomial.zero()
    assert PontryaginData(sphere_model(8), 2, {0: zero, 2: zero, 7: zero}).classes == {}
    a4, b4, v4, w4 = (Generator(name, 4) for name in ("a4", "b4", "v4", "w4"))
    data = ClassifyingData((a4,), (b4,), (v4,), phi_h={v4: zero, w4: zero}, phi_k={w4: zero})
    assert data.phi_h == data.phi_k == {}
    assert biquotient_model(data) == biquotient_model(ClassifyingData((a4,), (b4,), (v4,)))


def test_projectivize_costs_nothing_sized_by_the_rank():
    rank = 10**9
    data = parse_pontryagin(data_text("thm33_n2.pont"), sphere_model(8), rank)
    out = within_memory(lambda: projectivize(data))
    top = gen_of(out, f"x{4 * rank - 1}")
    assert str(out.d(top)) == "x4^1000000000 + x4^999999998*a8"


def test_projectivize_trivial_bundle_over_sphere():
    base = sphere_model(8)
    out = projectivize(PontryaginData(base, 2))
    names = tuple(g.name for g in out.generators)
    assert names == ("x4", "x7", "a8", "a15")
    assert str(out.d(gen_of(out, "x7"))) == "x4^2"


def test_projectivize_with_characteristic_class():
    base = sphere_model(8)
    a8 = Polynomial.gen(gen_of(base, "a8"))
    out = projectivize(PontryaginData(base, 2, {2: a8}))
    x7 = gen_of(out, "x7")
    assert str(out.d(x7)) == "x4^2 + a8"


def test_projectivize_primes_fiber_names_on_collision():
    base = hp_model(2)  # already owns x4 and x11
    out = projectivize(PontryaginData(base, 3))
    names = {g.name for g in out.generators}
    assert "x4'" in names and "x11'" in names
    assert str(out.d(gen_of(out, "x11'"))) == "x4'^3"


def test_projectivize_rejects_bad_characteristic_data():
    base = sphere_model(8)
    a8 = Polynomial.gen(gen_of(base, "a8"))
    with pytest.raises(DegreeMismatchError):
        projectivize(PontryaginData(base, 2, {1: a8}))
    with pytest.raises(UnknownGeneratorError):
        projectivize(PontryaginData(base, 2, {1: Polynomial.gen(Generator("w4", 4))}))
    with pytest.raises(UnsupportedDimensionError):
        projectivize(PontryaginData(base, 0))


def test_projectivize_rejects_non_cocycle_class():
    c4 = Generator("c4", 4)
    e5 = Generator("e5", 5)
    base = FreeCDGA((c4, e5), {c4: Polynomial.gen(e5)})
    with pytest.raises(NotACocycleError, match="not a cocycle"):
        projectivize(PontryaginData(base, 2, {1: Polynomial.gen(c4)}))


def test_projectivize_rank_one_adds_odd_fiber_class():
    base = sphere_model(8)
    out = projectivize(PontryaginData(base, 1))
    x3 = gen_of(out, "x3")
    assert str(out.d(x3)) == "x4"
    # contractible fiber pair: same betti as the base
    assert betti(out, 16).nonzero() == betti(base, 16).nonzero()


def little_classifying_data():
    a4 = Generator("a4", 4)
    b4 = Generator("b4", 4)
    v4 = Generator("v4", 4)
    v8 = Generator("v8", 8)
    return ClassifyingData(
        wh=(a4,),
        wk=(b4,),
        v=(v4, v8),
        phi_h={v4: Polynomial.gen(a4), v8: Polynomial.gen(a4) ** 2},
        phi_k={v4: 2 * Polynomial.gen(b4)},
        suspension_names={v4: "u3"},
    )


def test_biquotient_model_structure():
    m = biquotient_model(little_classifying_data())
    assert tuple(g.name for g in m.generators) == ("u3", "a4", "b4", "sv8")
    assert str(m.d(gen_of(m, "u3"))) == "a4 - 2*b4"
    assert str(m.d(gen_of(m, "sv8"))) == "a4^2"
    assert m.d(gen_of(m, "a4")).is_zero()
    assert pure_check(m)


def test_biquotient_model_rejects_name_reuse():
    data = little_classifying_data()
    clash = ClassifyingData(
        wh=data.wh, wk=(Generator("a4", 4),), v=data.v,
        phi_h={}, phi_k={}, suspension_names={},
    )
    with pytest.raises(ValueError, match="reuses names"):
        biquotient_model(clash)


def test_biquotient_model_rejects_stray_images():
    data = little_classifying_data()
    v4 = data.v[0]
    bad = ClassifyingData(
        wh=data.wh, wk=data.wk, v=data.v,
        phi_h={v4: Polynomial.gen(data.wk[0])},
        phi_k={},
    )
    with pytest.raises(UnknownGeneratorError, match="leaves its target algebra"):
        biquotient_model(bad)


def test_biquotient_model_rejects_degree_drift():
    data = little_classifying_data()
    v8 = data.v[1]
    bad = ClassifyingData(
        wh=data.wh, wk=data.wk, v=data.v,
        phi_h={v8: Polynomial.gen(data.wh[0])},
        phi_k={},
    )
    with pytest.raises(DegreeMismatchError):
        biquotient_model(bad)


def test_biquotient_model_rejects_suspension_collision():
    data = little_classifying_data()
    bad = ClassifyingData(
        wh=data.wh, wk=data.wk, v=data.v,
        phi_h={}, phi_k={},
        suspension_names={data.v[0]: "b4"},
    )
    with pytest.raises(ValueError, match="collides"):
        biquotient_model(bad)


def test_pure_check_spots_impure_models():
    x2 = Generator("x2", 2)
    y3 = Generator("y3", 3)
    w7 = Generator("w7", 7)
    u9 = Generator("u9", 9)
    pure = FreeCDGA((x2, y3), {y3: Polynomial.gen(x2) ** 2})
    assert pure_check(pure)
    even_not_closed = FreeCDGA((x2, y3), {x2: Polynomial.zero(), y3: Polynomial.gen(x2) ** 2})
    assert pure_check(even_not_closed)  # zero image is dropped, still pure
    odd_target = FreeCDGA(
        (x2, y3, w7, u9),
        {u9: Polynomial.gen(y3) * Polynomial.gen(w7)},
    )
    assert not pure_check(odd_target)
    open_even = FreeCDGA(
        (Generator("c4", 4), Generator("e5", 5)),
        {Generator("c4", 4): Polynomial.gen(Generator("e5", 5))},
    )
    assert not pure_check(open_even)
