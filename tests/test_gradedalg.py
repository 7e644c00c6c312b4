import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sullivan
from sullivan import gradedalg
from sullivan.constructors import biquotient_model, hp_model
from sullivan.dsl import parse_expression
from sullivan.errors import ParityMismatchError, ResourceLimitError
from sullivan.gradedalg import (
    UNIT,
    Generator,
    Monomial,
    Polynomial,
    basis_of_degree,
    substitute,
)
from sullivan.presets import classifying_data

from helpers import brute_monomials, random_polynomial

x4 = Generator("x4", 4)
y4 = Generator("y4", 4)
a3 = Generator("a3", 3)
b3 = Generator("b3", 3)
v7 = Generator("v7", 7)


def _error_text(make) -> str:
    with pytest.raises(ValueError) as info:
        make()
    return str(info.value)


def test_generator_names_are_validated():
    Generator("x4'", 4)
    Generator("_tmp", 2)
    assert _error_text(lambda: Generator("4x", 4)) == "bad generator name '4x'"
    assert _error_text(lambda: Generator("a-b", 4)) == "bad generator name 'a-b'"
    assert _error_text(lambda: Generator("", 4)) == "bad generator name ''"
    assert _error_text(lambda: Generator("x", 0)) == "generator degree must be >= 1, got 0"


def test_monomial_rejects_bad_shapes():
    assert _error_text(lambda: Monomial(((a3, 2),))) == "odd generator squared: a3^2"
    assert _error_text(lambda: Monomial(((x4, 0),))) == "exponent must be positive, got x4^0"
    assert _error_text(lambda: Monomial(((y4, 1), (x4, 1)))) == "monomial factors out of order"


def test_generator_and_monomial_repr_and_str():
    assert repr(x4) == str(x4) == "Generator('x4', 4)"
    assert repr(Generator("x4'", 4)) == "Generator(\"x4'\", 4)"
    mono = Monomial(((a3, 1), (x4, 2)))
    assert repr(mono) == "Monomial<a3*x4^2>"
    assert str(mono) == "a3*x4^2"
    assert repr(UNIT) == "Monomial<1>"


# Builds the same three objects in every process: a generator, a monomial
# and a model, whose differential maps generators to polynomials keyed by
# monomials.
_OBJECTS = """
from sullivan.constructors import hp_model
from sullivan.gradedalg import Generator, Monomial
x4, x11 = Generator("x4", 4), Generator("x11", 11)
objects = (x4, Monomial(((x4, 2), (x11, 1))), hp_model(2))
"""

_DUMP = _OBJECTS + """
import pickle, sys
with open(sys.argv[1], "wb") as out:
    pickle.dump(objects, out)
"""

_LOAD = _OBJECTS + """
import json, pickle, sys
with open(sys.argv[1], "rb") as src:
    gen, mono, model = pickle.load(src)
fresh_gen, fresh_mono, fresh_model = objects
print(json.dumps({
    "generator": gen == fresh_gen and hash(gen) == hash(fresh_gen),
    "monomial": mono == fresh_mono and hash(mono) == hash(fresh_mono),
    "dict lookups": {fresh_gen: 1}.get(gen) == 1 and {fresh_mono: 1}.get(mono) == 1,
    "model": model == fresh_model,
    "model lookups": all(
        model.d(g) == fresh_model.d(g) and {g: 1}.get(h) == 1
        for g, h in zip(fresh_model.generators, model.generators)
    ),
}))
"""


def _run_with_hash_seed(code: str, seed: str, path: Path) -> str:
    src = str(Path(sullivan.__file__).parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_pickles_hash_like_fresh_objects_under_another_hash_seed(tmp_path):
    # str hashes are salted per process, so a hash carried inside a pickle
    # would disagree with the hash of an equal object built after loading.
    path = tmp_path / "objects.pickle"
    _run_with_hash_seed(_DUMP, "1", path)
    checks = json.loads(_run_with_hash_seed(_LOAD, "2", path))
    assert checks == {name: True for name in checks}


def test_generator_ordering_is_degree_then_name():
    assert a3 < x4
    assert x4 < y4
    assert sorted([v7, y4, b3, a3, x4]) == [a3, b3, x4, y4, v7]


def test_monomial_str_forms():
    assert str(UNIT) == "1"
    assert str(Monomial(((x4, 1),))) == "x4"
    assert str(Monomial(((x4, 2), (y4, 1)))) == "x4^2*y4"


WRITTEN = {g.name: g for g in (x4, y4, a3, b3)}


def test_written_odd_generators_swap_with_a_sign():
    ab = Monomial(((a3, 1), (b3, 1)))
    assert parse_expression("b3*a3", WRITTEN) == Polynomial.monomial(ab, -1)
    assert parse_expression("a3*b3", WRITTEN) == Polynomial.monomial(ab)


def test_written_odd_squares_vanish():
    assert parse_expression("a3*x4*a3", WRITTEN).is_zero()


def test_written_even_factors_commute_freely():
    want = Polynomial.monomial(Monomial(((a3, 1), (x4, 2), (y4, 1))))
    assert parse_expression("y4*a3*x4^2", WRITTEN) == want


def test_odd_generator_squares_to_zero_in_products():
    p = Polynomial.gen(a3)
    assert (p * p).is_zero()
    assert (p ** 2).is_zero()


def test_graded_commutativity_signs():
    pa, pb = Polynomial.gen(a3), Polynomial.gen(b3)
    px = Polynomial.gen(x4)
    assert pa * pb == -(pb * pa)
    assert pa * px == px * pa


def test_polynomial_arithmetic_identities():
    p = Polynomial.gen(x4) + 2 * Polynomial.gen(y4)
    q = Polynomial.gen(x4) - Polynomial.gen(y4)
    assert p - p == Polynomial.zero()
    assert p * Polynomial.scalar(1) == p
    assert p * Polynomial.zero() == Polynomial.zero()
    assert (p + q) * q == p * q + q * q
    assert (p * q) * p == p * (q * p)


def test_polynomial_scalar_division():
    p = 3 * Polynomial.gen(x4)
    assert p / 3 == Polynomial.gen(x4)
    assert p / Fraction(1, 2) == 6 * Polynomial.gen(x4)
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_polynomial_str_is_the_document_form():
    p = -Polynomial.gen(x4) ** 2 + 3 * Polynomial.gen(x4) * Polynomial.gen(y4)
    assert str(p) == "-x4^2 + 3*x4*y4"
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.scalar(Fraction(-1, 2))) == "-1/2"
    assert str(Polynomial.gen(x4) - Polynomial.gen(y4)) == "x4 - y4"


def test_degree_and_homogeneity():
    p = Polynomial.gen(x4) * Polynomial.gen(a3)
    assert p.degree() == 7
    assert p.is_homogeneous()
    mixed = Polynomial.gen(x4) + Polynomial.gen(a3)
    assert not mixed.is_homogeneous()
    with pytest.raises(ValueError, match="inhomogeneous"):
        mixed.degree()
    assert Polynomial.zero().is_homogeneous()
    assert Polynomial.zero().degree() is None


SMALL = (a3, b3, x4, y4, v7)
THM33_N3 = biquotient_model(classifying_data("thm33", 3)).generators


@pytest.mark.parametrize(
    "gens, degree",
    [pytest.param(SMALL, d, id=str(d)) for d in (0, 3, 4, 7, 8, 11, 12, 16)]
    + [pytest.param(THM33_N3, d, id=f"thm33-n3-{d}") for d in (0, 11, 19, 24, 31)],
)
def test_basis_of_degree_matches_exhaustive_enumeration(gens, degree):
    want = sorted(brute_monomials(gens, degree), key=lambda m: m.sort_key)
    assert basis_of_degree(gens, degree) == want


def test_basis_of_degree_is_sorted_deterministically():
    gens = (x4, y4)
    basis = basis_of_degree(gens, 8)
    assert basis == sorted(basis, key=lambda m: m.sort_key)
    assert basis_of_degree(reversed(THM33_N3), 24) == basis_of_degree(THM33_N3, 24)


def test_basis_of_degree_cap():
    gens = tuple(Generator(f"e{i}_2", 2) for i in range(8))
    with pytest.raises(ResourceLimitError):
        basis_of_degree(gens, 16, max_size=10)


@pytest.mark.parametrize("degree", [0, 12, 24])
def test_basis_of_degree_cap_boundary(degree):
    basis = basis_of_degree(THM33_N3, degree)
    assert basis_of_degree(THM33_N3, degree, max_size=len(basis)) == basis
    with pytest.raises(ResourceLimitError) as info:
        basis_of_degree(THM33_N3, degree, max_size=len(basis) - 1)
    assert str(info.value) == (
        f"basis in degree {degree} exceeds cap of {len(basis) - 1} monomials"
    )


def test_basis_of_degree_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        basis_of_degree(THM33_N3, 24)
        assert gc.collect() == 0
    finally:
        gc.enable()


# The generators of the pure-gen12 benchmark model, which are the same for
# every seed: x0..x5 of degree 2 and y0..y5 of degree 3.
PURE_GEN12 = tuple(Generator(f"x{k}", 2) for k in range(6)) + tuple(
    Generator(f"y{k}", 3) for k in range(6)
)
HP2 = hp_model(2).generators


@pytest.mark.parametrize(
    "gens, degree",
    [pytest.param(THM33_N3, d, id=f"thm33-n3-{d}") for d in (11, 24, 31)]
    + [pytest.param(PURE_GEN12, 16, id="pure-gen12-16"), pytest.param(HP2, 400000, id="hp2-400000")],
)
def test_basis_of_degree_enters_no_dead_branch(monkeypatch, gens, degree):
    walk = gradedalg._walk
    added = []  # monomials added by each call of the walk

    def counted(steps, start, rest, acc, out, cap):
        before = len(out)
        walk(steps, start, rest, acc, out, cap)
        added.append(len(out) - before)

    monkeypatch.setattr(gradedalg, "_walk", counted)
    basis = basis_of_degree(gens, degree)
    assert min(added) >= 1
    assert len(added) <= len(basis) + 1
    if gens is HP2:
        assert basis == [Monomial(((HP2[0], degree // 4),))]


def test_substitute_identity_and_linearity(rng):
    gens = (x4, y4)
    p = random_polynomial(rng, gens, 8)
    assert substitute(p, x4, Polynomial.gen(x4)) == p
    shifted = substitute(p, x4, Polynomial.gen(x4) + Polynomial.gen(y4))
    back = substitute(shifted, x4, Polynomial.gen(x4) - Polynomial.gen(y4))
    assert back == p


def test_substitute_checks_parity_before_degree():
    p = Polynomial.gen(x4)
    with pytest.raises(ParityMismatchError):
        substitute(p, x4, Polynomial.gen(a3))


def test_substitute_odd_generator_elimination():
    p = Polynomial.gen(a3) * Polynomial.gen(x4)
    out = substitute(p, a3, Polynomial.gen(b3))
    assert out == Polynomial.gen(b3) * Polynomial.gen(x4)
