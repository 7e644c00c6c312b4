from dataclasses import replace
from fractions import Fraction

import pytest

from sullivan.cdga import FreeCDGA
from sullivan.cohomology import betti
from sullivan.constructors import biquotient_model, hp_model, projectivize
from sullivan.errors import VerificationFailedError
from sullivan.gradedalg import Generator, Polynomial
from sullivan.presets import classifying_data, pontryagin_setup
from sullivan import reduction
from sullivan.reduction import (
    Cancellation,
    ChangeOfVariable,
    DEFAULT_CHECK_DEGREE,
    find_reducible,
    reduce,
    replay,
)

from helpers import betti_by_elimination, random_reducible_model

x4 = Generator("x4", 4)
y4 = Generator("y4", 4)
y8 = Generator("y8", 8)
v3 = Generator("v3", 3)
v7 = Generator("v7", 7)


def test_find_reducible_picks_latest_candidate():
    m = FreeCDGA((v3, x4, y4), {v3: Polynomial.gen(x4) + Polynomial.gen(y4)})
    pair = find_reducible(m)
    assert pair is not None
    assert pair.odd_gen == v3
    assert pair.even_gen == y4  # latest in (degree, name) order
    assert pair.scalar == 1
    assert str(pair.residue) == "x4"


def test_find_reducible_skips_generators_occurring_in_residue():
    m = FreeCDGA(
        (v7, x4, y8),
        {v7: Polynomial.gen(y8) + Polynomial.gen(x4) ** 2},
    )
    pair = find_reducible(m)
    assert pair is not None and pair.even_gen == y8
    blocked = FreeCDGA(
        (v7, x4),
        {v7: Polynomial.gen(x4) ** 2},
    )
    assert find_reducible(blocked) is None


def test_find_reducible_skips_a_pair_whose_odd_generator_would_survive():
    # cancelling (v3, x4) sends x4 to 0, but v3 stays in d(w6) = v3*y4 + z7
    z7, w6 = Generator("z7", 7), Generator("w6", 6)
    X4, Y4 = Polynomial.gen(x4), Polynomial.gen(y4)
    m = FreeCDGA(
        (v3, x4, y4, z7, w6),
        {v3: X4, z7: -X4 * Y4, w6: Polynomial.gen(v3) * Y4 + Polynomial.gen(z7)},
    )
    assert find_reducible(m) is None
    out, log = reduce(m)
    assert out == m
    assert log.render() == "no reducible pair; model unchanged"
    assert betti(m, 14).nonzero() == {0: 1, 4: 1, 8: 1, 12: 1}


def test_find_reducible_skips_a_candidate_that_occurs_beyond_its_linear_term():
    # not a CDGA (d(v3) is inhomogeneous); find_reducible does not validate
    a2 = Generator("a2", 2)
    X4 = Polynomial.gen(x4)
    assert find_reducible(FreeCDGA((a2, v3, x4), {v3: X4 + X4 * Polynomial.gen(a2)})) is None


def test_find_reducible_on_closed_model():
    m = FreeCDGA((x4, v7), {})
    assert find_reducible(m) is None


def test_reduce_direct_cancellation_without_change():
    m = FreeCDGA((v3, x4, v7), {v3: 2 * Polynomial.gen(x4)})
    out, log = reduce(m, check_degree=10)
    assert tuple(g.name for g in out.generators) == ("v7",)
    assert len(log.steps) == 1
    step = log.steps[0]
    assert isinstance(step, Cancellation)
    assert step.describe() == "cancel (v3, x4)   [scalar 2]"


def _fault_next_models(monkeypatch, fault):
    """Make reduce build each next model from fault(kept, k): the pair's
    differentials after the cancellation, and the pair's number k.  Returns
    the list of odd generators paired so far."""
    real_find = reduction.find_reducible
    calls = []

    def find_and_corrupt(model):
        pair = real_find(model)
        if pair is None:
            return None
        calls.append(pair.odd_gen.name)
        return replace(pair, kept=fault(dict(pair.kept), len(calls)))

    monkeypatch.setattr(reduction, "find_reducible", find_and_corrupt)
    return calls


def test_reduce_names_a_step_that_changes_betti_numbers(monkeypatch):
    def drop_v7(kept, _):
        # a faulty step: the real cancellation, then the closed class v7 is lost
        del kept[v7]
        return kept

    _fault_next_models(monkeypatch, drop_v7)
    m = FreeCDGA((v3, x4, v7), {v3: 2 * Polynomial.gen(x4)})
    with pytest.raises(VerificationFailedError) as info:
        reduce(m, check_degree=10)
    assert str(info.value) == (
        "step 'cancel (v3, x4)   [scalar 2]' fails its certificate: "
        "image of v7 mentions unknown generators: v7"
    )


def test_reduce_names_the_first_faulty_step_in_the_middle(monkeypatch):
    def drop_v7_on_second_call(kept, k):
        if k == 2:
            del kept[v7]
        return kept

    calls = _fault_next_models(monkeypatch, drop_v7_on_second_call)
    u3, w3, y4, z4 = (Generator(n, d) for n, d in (("u3", 3), ("w3", 3), ("y4", 4), ("z4", 4)))
    m = FreeCDGA(
        (u3, v3, w3, x4, y4, z4, v7),
        {u3: Polynomial.gen(z4), v3: Polynomial.gen(x4), w3: Polynomial.gen(y4)},
    )
    with pytest.raises(VerificationFailedError) as info:
        reduce(m, check_degree=10)
    # the reduction stops at the faulty second cancellation
    assert calls == ["u3", "v3"]
    assert str(info.value) == (
        "step 'cancel (v3, x4)' fails its certificate: "
        "image of v7 mentions unknown generators: v7"
    )


def test_reduce_catches_faulty_steps_whose_betti_changes_cancel(monkeypatch):
    a7 = Generator("a7", 7)

    def drop_v7_then_add_a7(kept, k):
        # the 2nd cancellation loses the closed class v7 and the 3rd adds a
        # closed degree-7 generator, so the endpoint Betti numbers agree
        if k == 2:
            del kept[v7]
        if k == 3:
            kept[a7] = Polynomial.zero()
        return kept

    calls = _fault_next_models(monkeypatch, drop_v7_then_add_a7)
    u3, w3, y4, z4 = (Generator(n, d) for n, d in (("u3", 3), ("w3", 3), ("y4", 4), ("z4", 4)))
    m = FreeCDGA(
        (u3, v3, w3, x4, y4, z4, v7),
        {u3: Polynomial.gen(z4), v3: Polynomial.gen(x4), w3: Polynomial.gen(y4)},
    )
    with pytest.raises(VerificationFailedError) as info:
        reduce(m, check_degree=10)
    assert calls == ["u3", "v3"]
    assert str(info.value).startswith("step 'cancel (v3, x4)' fails its certificate: ")


@pytest.mark.parametrize("check_degree", [0, 10])
def test_reduce_catches_a_corrupted_differential_at_its_step(monkeypatch, check_degree):
    def corrupt_dv7(kept, _):
        # the right generators survive, but d(v7) picks up a stray term
        kept[v7] = kept[v7] + Polynomial.gen(y4) ** 2
        return kept

    _fault_next_models(monkeypatch, corrupt_dv7)
    m = FreeCDGA(
        (v3, x4, y4, v7),
        {v3: Polynomial.gen(x4), v7: Polynomial.gen(x4) ** 2},
    )
    with pytest.raises(VerificationFailedError) as info:
        reduce(m, check_degree=check_degree)
    assert str(info.value) == (
        "step 'cancel (v3, x4)' fails its certificate: chain condition fails on v7: "
        "image of d(v7) is 0, but d of the image is y4^2"
    )


@pytest.mark.parametrize("check_degree", [0, 10])
def test_reduce_catches_a_corrupted_differential_the_pair_leaves_alone(monkeypatch, check_degree):
    w7 = Generator("w7", 7)

    def corrupt_dw7(kept, _):
        # d(w7) mentions neither v3 nor x4, so the pair's map passes it
        # through and w7's identity image skips its shape checks
        kept[w7] = kept[w7] + Polynomial.gen(y4) ** 2
        return kept

    _fault_next_models(monkeypatch, corrupt_dw7)
    m = FreeCDGA(
        (v3, x4, y4, w7),
        {v3: Polynomial.gen(x4), w7: Polynomial.gen(y4) ** 2},
    )
    with pytest.raises(VerificationFailedError) as info:
        reduce(m, check_degree=check_degree)
    assert str(info.value) == (
        "step 'cancel (v3, x4)' fails its certificate: chain condition fails on w7: "
        "image of d(w7) is y4^2, but d of the image is 2*y4^2"
    )


def test_reduce_computes_betti_numbers_only_at_the_endpoints(monkeypatch):
    calls = []

    def counted(model, max_degree=None, representatives=False):
        calls.append(max_degree)
        return betti(model, max_degree, representatives)

    monkeypatch.setattr(reduction, "betti", counted)
    _, log = reduce(hp_model(2))
    assert log.steps == [] and calls == []

    model = biquotient_model(classifying_data("thm33", 3))
    _, log = reduce(model, check_degree=20)
    assert len(log.steps) == 10
    assert calls == [20, 20]
    # the input snapshot is cached, not computed again
    assert log.betti_before == betti(model, 20).betti
    assert calls == [20, 20]


def test_reduce_compares_betti_numbers_at_the_endpoints(monkeypatch):
    calls = []

    def end_gains_a_class(model, max_degree=None, representatives=False):
        report = betti(model, max_degree, representatives)
        calls.append(max_degree)
        if len(calls) == 2:
            report.betti[7] += 1
        return report

    monkeypatch.setattr(reduction, "betti", end_gains_a_class)
    m = FreeCDGA((v3, x4, v7), {v3: 2 * Polynomial.gen(x4)})
    with pytest.raises(VerificationFailedError) as info:
        reduce(m, check_degree=10)
    assert str(info.value) == "betti numbers changed by the reduction: {7: (1, 2)}"


@pytest.mark.parametrize("case, n", [("thm34", None), ("thm33", 3)])
def test_reduce_snapshots_match_the_replayed_models(case, n):
    model = biquotient_model(classifying_data(case, n))
    reduced, log = reduce(model, check_degree=20)
    assert log.betti_before == betti(model, 20).betti
    assert replay(model, log) == reduced


@pytest.mark.parametrize(
    "case, n, space",
    [("thm33", n, space) for n in range(1, 6) for space in ("biquotient", "projectivization")]
    + [(case, n, "biquotient") for case in ("prop31", "prop32") for n in range(2, 6)],
)
def test_reduce_matches_the_replayed_model_on_the_paper_inputs(case, n, space):
    # reduce builds each next model from the pair's substitution; replay
    # redoes the logged changes of variable and cancellations one by one
    if space == "biquotient":
        model = biquotient_model(classifying_data(case, n))
    else:
        model = projectivize(pontryagin_setup(case, n))
    reduced, log = reduce(model, check_degree=0)
    assert log.cancellations()
    assert replay(model, log) == reduced


def test_reduce_introduces_fresh_variable_for_residue():
    m = FreeCDGA(
        (v7, x4, y8),
        {v7: Polynomial.gen(y8) + Polynomial.gen(x4) ** 2},
    )
    out, log = reduce(m, check_degree=12)
    assert [type(s) for s in log.steps] == [ChangeOfVariable, Cancellation]
    intro = log.steps[0]
    assert intro.describe() == "introduce t8 = x4^2 + y8   [replacing y8]"
    assert tuple(g.name for g in out.generators) == ("x4",)
    assert betti(out, 12).nonzero() == betti_by_elimination(m, 12)


def test_reduce_fresh_name_avoids_collisions():
    t8 = Generator("t8", 8)
    m = FreeCDGA(
        (v7, x4, y8, t8),
        {v7: Polynomial.gen(y8) + Polynomial.gen(x4) ** 2},
    )
    _, log = reduce(m, check_degree=0)
    intro = log.steps[0]
    assert isinstance(intro, ChangeOfVariable)
    assert intro.fresh.name == "t8'"


def test_reduce_check_degree_zero_skips_snapshots():
    m = FreeCDGA((v3, x4), {v3: Polynomial.gen(x4)})
    _, log = reduce(m, check_degree=0)
    assert log.betti_before is None


def test_reduce_is_idempotent():
    model = biquotient_model(classifying_data("thm34"))
    once, log1 = reduce(model)
    twice, log2 = reduce(once)
    assert once == twice
    assert log2.steps == []
    assert log2.render() == "no reducible pair; model unchanged"


def test_reduce_default_check_degree():
    assert DEFAULT_CHECK_DEGREE == 20
    model = biquotient_model(classifying_data("thm34"))
    _, log = reduce(model)
    assert log.check_degree == 20


def test_replay_reproduces_the_reduction():
    model = biquotient_model(classifying_data("thm34"))
    reduced, log = reduce(model)
    again = replay(model, log)
    assert again == reduced


def test_reduction_log_renders_verbatim():
    model = biquotient_model(classifying_data("thm34"))
    _, log = reduce(model)
    assert log.render() == (
        "step 1: introduce t4 = a4 - 3*b4 + c4   [replacing c4]\n"
        "step 2: cancel (v3, t4)\n"
        "each pair certified by its algebra map; betti numbers equal at both ends up to degree 20"
    )


def test_reduction_log_at_check_degree_zero_claims_no_betti_check():
    # the certificates run, but no Betti numbers are compared, so the log
    # ends with the last step
    _, log = reduce(biquotient_model(classifying_data("thm33", 2)), check_degree=0)
    assert log.render() == (
        "step 1: introduce t4 = -3*b4 + z4   [replacing z4]\n"
        "step 2: cancel (v3, t4)\n"
        "step 3: introduce t8 = -3*b4^2 + z8   [replacing z8]\n"
        "step 4: cancel (v7, t8)\n"
        "step 5: introduce t12 = -3*b4^3 + z12   [replacing z12]\n"
        "step 6: cancel (v11, t12)"
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tower_reduction_ends_on_two_generators(n):
    model = biquotient_model(classifying_data("thm33", n))
    reduced, log = reduce(model, check_degree=12)
    names = tuple(g.name for g in reduced.generators)
    assert names == ("b4", f"v{8 * n - 1}")
    top = reduced.generators[1]
    b4 = reduced.generators[0]
    assert reduced.d(top) == -(Polynomial.gen(b4) ** (2 * n))
    assert len(log.changes()) == len(log.cancellations()) == 2 * n - 1


def test_reduce_preserves_betti_on_random_reducible_models(rng):
    for _ in range(15):
        m = random_reducible_model(rng)
        out, log = reduce(m, check_degree=10)
        assert len(out.generators) < len(m.generators)
        assert betti(out, 10).nonzero() == betti_by_elimination(m, 10)
        assert replay(m, log) == out


def test_reduce_certifies_each_pair_once(monkeypatch):
    calls = []
    real_check = reduction.compose_and_check

    def counted(morphism):
        calls.append(morphism)
        return real_check(morphism)

    monkeypatch.setattr(reduction, "compose_and_check", counted)
    _, log = reduce(biquotient_model(classifying_data("thm33", 2)), check_degree=0)
    assert len(log.steps) == 6
    assert len(calls) == len(log.cancellations()) == 3


a2, e3, w4, y7 = (Generator(n, d) for n, d in (("a2", 2), ("e3", 3), ("w4", 4), ("y7", 7)))
A2, E3, X4, W4 = (Polynomial.gen(g) for g in (a2, e3, x4, w4))
# not pure, and the struck x4 is not closed, so the certificate's chain
# condition on x4 has something to check
NOT_CLOSED = FreeCDGA(
    (a2, e3, x4, v3, y7, w4),
    {a2: E3, x4: -2 * A2 * E3, v3: X4 + A2 ** 2 + W4, y7: W4 ** 2},
)


def test_reduce_strikes_a_pair_whose_even_generator_is_not_closed():
    out, log = reduce(NOT_CLOSED, check_degree=0)
    assert [s.describe() for s in log.steps] == [
        "introduce t4 = a2^2 + w4 + x4   [replacing x4]",
        "cancel (v3, t4)",
    ]
    assert out == FreeCDGA((a2, e3, w4, y7), {a2: E3, y7: W4 ** 2})
    assert replay(NOT_CLOSED, log) == out
    assert betti(out, 12).nonzero() == betti_by_elimination(NOT_CLOSED, 12) == {0: 1, 4: 1}


def test_reduce_names_the_cancellation_when_the_change_of_variable_is_faulty(monkeypatch):
    def double_dy7(kept, _):
        # the substitution x4 -> -(a2^2 + w4), which the change of variable
        # and the cancellation stand for, comes out with d(y7) doubled
        kept[y7] = 2 * kept[y7]
        return kept

    _fault_next_models(monkeypatch, double_dy7)
    with pytest.raises(VerificationFailedError) as info:
        reduce(NOT_CLOSED, check_degree=0)
    assert str(info.value) == (
        "step 'cancel (v3, t4)' fails its certificate: chain condition fails on y7: "
        "image of d(y7) is w4^2, but d of the image is 2*w4^2"
    )
