"""Algebraic laws checked on randomized inputs."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sullivan import cohomology
from sullivan.cdga import (
    FreeCDGA,
    Morphism,
    apply_d,
    change_of_variable,
    compose_and_check,
    rename_generators,
    tensor,
)
from sullivan.cohomology import (
    Cohomology,
    RingPresentation,
    betti,
    class_of,
    h0_presentation,
    is_quasi_iso,
    quotient_ring_dims,
)
from sullivan.constructors import ClassifyingData, PontryaginData, biquotient_model, projectivize
from sullivan.dsl import (
    parse_classifying,
    parse_expression,
    parse_model,
    parse_pontryagin,
    parse_source,
    render_classifying,
    render_model,
    render_morphism,
    render_pontryagin,
)
from sullivan.gradedalg import (
    Generator,
    Monomial,
    Polynomial,
    _times,
    basis_of_degree,
    map_generators,
    substitute,
)
from sullivan.linalg import RowSpace, Vec
from sullivan.presets import classifying_data, pontryagin_setup
from sullivan.reduction import reduce, replay

from helpers import (
    _d_matrix,
    betti_by_elimination,
    brute_monomials,
    bubble_sort_with_sign,
    clear_by_sweep,
    compose_and_check_in_full,
    dense_rank,
    echelon_by_fraction_ratio,
    leibniz_d,
    map_by_factors,
    product_by_bubble_sort,
    quotient_dims_by_elimination,
    random_pure_model,
    random_reducible_model,
    reduced_groebner_leads,
    rref_by_sweep,
    standard_counts_by_full_walk,
)

EVENS = (Generator("x2", 2), Generator("x4", 4), Generator("y4", 4))
ODDS = (Generator("a3", 3), Generator("b3", 3), Generator("c5", 5))
POOL = tuple(sorted(EVENS + ODDS))

MODEL = biquotient_model(classifying_data("thm34"))

coefficients = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
).filter(lambda c: c != 0)


@st.composite
def monomials(draw):
    powers = []
    for g in POOL:
        top = 1 if g.odd else 2
        e = draw(st.integers(min_value=0, max_value=top))
        if e:
            powers.append((g, e))
    return Monomial(tuple(powers))


@st.composite
def polynomials(draw):
    terms = draw(st.dictionaries(monomials(), coefficients, max_size=4))
    return Polynomial(terms)


@st.composite
def homogeneous_polynomials(draw):
    degree = draw(st.integers(min_value=2, max_value=12))
    basis = basis_of_degree(POOL, degree)
    if not basis:
        return Polynomial.zero(), degree
    picked = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
    coeffs = draw(
        st.lists(coefficients, min_size=len(picked), max_size=len(picked))
    )
    return Polynomial(dict(zip(picked, coeffs))), degree


@st.composite
def model_polynomials(draw):
    degree = draw(st.integers(min_value=3, max_value=14))
    basis = basis_of_degree(MODEL.generators, degree)
    if not basis:
        return Polynomial.zero(), degree
    picked = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(coefficients, min_size=len(picked), max_size=len(picked)))
    return Polynomial(dict(zip(picked, coeffs))), degree


@st.composite
def generator_images(draw):
    """A random image of every generator of POOL, of the generator's degree
    (zero allowed), so odd generators go to odd polynomials."""
    images = {}
    for g in POOL:
        basis = basis_of_degree(POOL, g.degree)
        picked = draw(st.lists(st.sampled_from(basis), max_size=2, unique=True))
        coeffs = draw(st.lists(coefficients, min_size=len(picked), max_size=len(picked)))
        images[g] = Polynomial(dict(zip(picked, coeffs)))
    return images


@st.composite
def row_spaces(draw):
    space = RowSpace()
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        space.add(draw(st.dictionaries(st.integers(0, 7), coefficients, max_size=4)))
    return space


@given(polynomials(), polynomials(), polynomials())
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == Polynomial.zero()


@given(polynomials(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_powers_add_exponents(p, a, b):
    assert p ** 1 == p
    assert p ** (a + b) == p ** a * p ** b


@given(homogeneous_polynomials(), homogeneous_polynomials())
def test_graded_commutativity(pd, qd):
    p, i = pd
    q, j = qd
    sign = -1 if (i % 2 and j % 2) else 1
    assert p * q == sign * (q * p)


@given(model_polynomials(), model_polynomials())
def test_leibniz_rule_on_products(pd, qd):
    p, degree = pd
    q, _ = qd
    sign = -1 if degree % 2 else 1
    left = apply_d(MODEL, p * q)
    right = apply_d(MODEL, p) * q + sign * (p * apply_d(MODEL, q))
    assert left == right


@given(model_polynomials())
def test_differential_squares_to_zero(pd):
    p, _ = pd
    assert apply_d(MODEL, apply_d(MODEL, p)).is_zero()


# Two odd generators of degree 3 let d(c5) hold e3*f3, the cli-nonpure
# shape a*e1*e2 + b*x1^2*x2, and any factor after an odd one has an odd
# prefix degree.
LEIBNIZ_POOL = (
    Generator("x2", 2), Generator("y2", 2), Generator("e3", 3), Generator("f3", 3), Generator("c5", 5)
)


@st.composite
def free_differentials(draw):
    """A differential on LEIBNIZ_POOL of degree +1 on each generator, that
    need not square to zero; even generators may have nonzero d."""
    diff = {}
    for g in LEIBNIZ_POOL:
        basis = basis_of_degree(LEIBNIZ_POOL, g.degree + 1)
        picked = draw(st.lists(st.sampled_from(basis), max_size=3, unique=True))
        coeffs = draw(st.lists(coefficients, min_size=len(picked), max_size=len(picked)))
        diff[g] = Polynomial(dict(zip(picked, coeffs)))
    return FreeCDGA(LEIBNIZ_POOL, diff)


@st.composite
def leibniz_monomials(draw):
    powers = []
    for g in LEIBNIZ_POOL:
        e = draw(st.integers(min_value=0, max_value=1 if g.odd else 3))
        if e:
            powers.append((g, e))
    return Monomial(tuple(powers))


@given(free_differentials(), st.dictionaries(leibniz_monomials(), coefficients, max_size=3))
def test_apply_d_matches_the_leibniz_rule_on_single_factors(model, terms):
    want = Polynomial.zero()
    for m, c in terms.items():
        want = want + leibniz_d(model, m) * c
    assert apply_d(model, Polynomial(terms)) == want


def _inserted_columns(coh, n):
    """Build coh's stage n and return it with the columns it inserts into
    its image, by basis index: each goes in with the tag {index: 1}."""
    columns = {}

    class Recording(RowSpace):
        def add(self, vec, tag=None):
            ((j, one),) = tag.items()
            assert one == 1 and j not in columns
            columns[j] = dict(vec)
            return super().add(vec, tag)

    with mock.patch.object(cohomology, "RowSpace", Recording):
        stage = coh._stage(n)
    return stage, columns


@given(
    free_differentials()
    | st.integers(min_value=0, max_value=2 ** 32 - 1).map(
        lambda seed: random_pure_model(random.Random(seed))
    )
)
@settings(deadline=None)
def test_stage_columns_are_the_leibniz_differential_of_each_basis_monomial(model):
    integral = all(
        c.denominator == 1 for g in model.generators for c in model.d(g).terms.values()
    )
    coh = Cohomology(model)
    for n in range(13):
        try:
            stage, columns = _inserted_columns(coh, n)
        except ValueError as e:  # a free differential need not square to zero
            assert str(e).startswith("not a CDGA: d(d(")
            break
        target = basis_of_degree(model.generators, n + 1)
        target_index = {m: i for i, m in enumerate(target)}
        dense = _d_matrix(model, stage.basis, target)
        assert sorted(columns) == list(range(len(stage.basis)))
        for j, mono in enumerate(stage.basis):
            image = apply_d(model, Polynomial.monomial(mono))
            assert columns[j] == {target_index[m]: c for m, c in image.terms.items()}
            assert [columns[j].get(i, 0) for i in range(len(target))] == dense[j]
            if integral:
                assert all(type(c) is int for c in columns[j].values())


def _as_if_public(m):
    """m equals and hashes like the monomial the validating constructor builds."""
    public = Monomial(m.powers)
    return m == public and hash(m) == hash(public)


def _parse_word(word):
    """The DSL term that writes word as g^e*..., parsed, and the oracle's
    reading of the same word."""
    text = "*".join(f"{g.name}^{e}" for g, e in word) or "1"
    mono, sign = bubble_sort_with_sign(word)
    want = Polynomial.zero() if mono is None else Polynomial.monomial(mono, sign)
    return parse_expression(text, {g.name: g for g in POOL}), want


@given(st.permutations(list(POOL)))
def test_written_permutations_match_a_bubble_sort(order):
    got, want = _parse_word([(g, 1) for g in order])
    assert got == want
    assert list(got.terms) == [Monomial(tuple((g, 1) for g in POOL))]


words = st.lists(st.tuples(st.sampled_from(POOL), st.integers(min_value=1, max_value=2)), max_size=6)


# The examples pin b3*a3, an odd factor written after a later one, and
# c5*x2^2*a3, where the odd c5 of the product so far is still unmerged after
# the new factor a3.
@given(words)
@example([(ODDS[1], 1), (ODDS[0], 1)])
@example([(ODDS[2], 1), (EVENS[0], 2), (ODDS[0], 1)])
def test_written_words_match_a_bubble_sort(word):
    # repeats and odd squares included
    got, want = _parse_word(word)
    assert got == want
    assert all(_as_if_public(m) for m in got.terms)


X2, _, E3, F3, C5 = LEIBNIZ_POOL


# The examples pin an odd factor of a merged between two of b, one merged
# after b runs out, and an odd generator in both factors.
@given(leibniz_monomials(), leibniz_monomials())
@example(Monomial(((F3, 1),)), Monomial(((E3, 1), (C5, 1))))
@example(Monomial(((E3, 1), (C5, 1))), Monomial(((X2, 2), (F3, 1))))
@example(Monomial(((E3, 1),)), Monomial(((X2, 1), (E3, 1))))
def test_times_matches_a_bubble_sort(a, b):
    powers, parity = _times(a.powers, b.powers)
    want = bubble_sort_with_sign(a.powers + b.powers)
    if powers is None:
        assert (None, parity) == want
    else:
        m = Monomial._canonical(powers)
        assert (m, -1 if parity & 1 else 1) == want
        assert _as_if_public(m)


@given(polynomials(), polynomials())
def test_products_match_a_bubble_sort(p, q):
    assert p * q == product_by_bubble_sort(p, q)


@given(monomials())
def test_monomial_sort_key_orders_by_degree_first(m):
    key = m.sort_key
    assert key[0] == m.degree


@given(polynomials(), st.permutations(list(POOL) + [Generator("a3", 5), Generator("w2", 2)]))
def test_generators_and_monomials_are_value_tuples(p, gens):
    """A generator is the tuple (degree, name, odd), so generators sort by
    degree, then name.  A monomial is the tuple of its (generator, exponent)
    pairs: a term is found by the plain tuple, and the checked and unchecked
    constructors build equal monomials with equal hashes."""
    assert all(tuple(g) == (g.degree, g.name, g.degree % 2 == 1) for g in gens)
    assert sorted(gens) == sorted(gens, key=lambda g: (g.degree, g.name))
    for m, c in p.terms.items():
        raw = tuple(m.powers)
        assert type(raw) is tuple and p.terms[raw] == c
        public, unchecked = Monomial(raw), Monomial._canonical(raw)
        assert public == unchecked and hash(public) == hash(unchecked) == hash(raw)


@given(polynomials())
def test_substitute_by_self_is_identity(p):
    for g in POOL:
        assert substitute(p, g, Polynomial.gen(g)) == p


@given(generator_images(), polynomials(), polynomials(), st.sampled_from(POOL))
def test_algebra_maps_are_multiplicative(images, p, q, g):
    algebra = FreeCDGA(POOL)
    f = Morphism(algebra, algebra, images)
    assert f.push(p * q) == f.push(p) * f.push(q)
    r = images[g]
    assert substitute(p * q, g, r) == substitute(p, g, r) * substitute(q, g, r)


# POOL and a generator of degree 6, whose image may be a3*b3: a one-term
# image with odd factors, whose square is zero
W6 = Generator("w6", 6)
MAP_POOL = tuple(sorted(POOL + (W6,)))


@st.composite
def map_monomials(draw):
    """A monomial on MAP_POOL, each even factor to a power up to 3."""
    powers = []
    for g in MAP_POOL:
        e = draw(st.integers(min_value=0, max_value=1 if g.odd else 3))
        if e:
            powers.append((g, e))
    return Monomial(tuple(powers))


def _drawn_homogeneous(draw, degree):
    """A polynomial of up to three basis monomials of degree on MAP_POOL, or zero."""
    basis = basis_of_degree(MAP_POOL, degree)
    picked = draw(st.lists(st.sampled_from(basis), max_size=3, unique=True)) if basis else []
    coeffs = draw(st.lists(coefficients, min_size=len(picked), max_size=len(picked)))
    return Polynomial(dict(zip(picked, coeffs)))


@st.composite
def map_images(draw):
    """Images of a drawn subset of MAP_POOL, each homogeneous of its
    generator's degree (so odd generators go to odd polynomials): g itself,
    a multiple c*g with c != 1 (-g included), g plus another monomial of its
    degree, a rename to another generator of its degree, or any combination
    of basis monomials, possibly zero or one term.  Only the first fixes g."""
    images = {}
    for g in draw(st.lists(st.sampled_from(MAP_POOL), unique=True)):
        others = [m for m in basis_of_degree(MAP_POOL, g.degree) if m.powers != ((g, 1),)]
        renames = [h for h in MAP_POOL if h.degree == g.degree and h != g]
        kind = draw(st.sampled_from(["identity", "scaled", "plus", "rename", "any"]))
        if kind == "identity":
            images[g] = Polynomial.gen(g)
        elif kind == "scaled":
            c = draw(st.just(Fraction(-1)) | coefficients.filter(lambda c: c != 1))
            images[g] = Polynomial.gen(g) * c
        elif kind == "plus" and others:
            images[g] = Polynomial.gen(g) + Polynomial.monomial(
                draw(st.sampled_from(others)), draw(coefficients)
            )
        elif kind == "rename" and renames:
            images[g] = Polynomial.gen(draw(st.sampled_from(renames)))
        else:
            images[g] = _drawn_homogeneous(draw, g.degree)
    return images


A3, B3, _ = ODDS
map_polynomials = st.dictionaries(map_monomials(), coefficients, max_size=4).map(Polynomial)


@given(map_polynomials, map_images(), st.booleans())
# two odd factors with odd images: the second image passes the first
@example(
    Polynomial({Monomial(((A3, 1), (C5, 1))): 1}),
    {A3: Polynomial.gen(B3), C5: Polynomial.gen(X2) * Polynomial.gen(A3)},
    False,
)
# w6^2 goes to (a3*b3)^2 = 0; x2^3 stays fixed or goes to zero
@example(
    Polynomial({Monomial(((X2, 3), (W6, 2))): Fraction(-2, 3)}),
    {W6: Polynomial.gen(A3) * Polynomial.gen(B3)},
    True,
)
# scaled identities are moved, not fixed: x2^3*a3 -> (2*x2)^3 * (-a3)
@example(
    Polynomial({Monomial(((X2, 3), (A3, 1))): Fraction(1, 3), Monomial(((X2, 1), (C5, 1))): 1}),
    {X2: Polynomial.gen(X2) * 2, A3: -Polynomial.gen(A3)},
    True,
)
# an image equal to g is fixed without fix_unmapped; the unmapped a3 goes to 0
@example(
    Polynomial({Monomial(((X2, 2),)): Fraction(-2), Monomial(((X2, 1), (A3, 1))): 1}),
    {X2: Polynomial.gen(X2)},
    False,
)
def test_map_generators_matches_the_factor_by_factor_map(p, images, fix_unmapped):
    mapped = map_generators(p, images, fix_unmapped)
    assert mapped == map_by_factors(p, images, fix_unmapped)
    assert all(type(c) is Fraction for c in mapped.terms.values())


@st.composite
def morphisms(draw):
    """A Morphism between free algebras on drawn subsets of MAP_POOL.  Each
    differential is homogeneous of degree |g| + 1 on MAP_POOL, so it may
    mention generators outside its algebra, and a target's d(g) is the
    source's or drawn afresh.  A source generator goes to itself (present
    in the target or not), to c*g with c != 1, to an image of its degree,
    of another degree or of two degrees, or to zero; a generator outside
    the source may have an image too."""
    source_gens = draw(st.lists(st.sampled_from(MAP_POOL), min_size=1, unique=True))
    target_gens = draw(st.lists(st.sampled_from(MAP_POOL), unique=True))
    source_d = {g: _drawn_homogeneous(draw, g.degree + 1) for g in source_gens}
    target_d = {
        g: source_d[g]
        if g in source_d and draw(st.booleans())
        else _drawn_homogeneous(draw, g.degree + 1)
        for g in target_gens
    }
    images = {}
    for g in MAP_POOL:
        kinds = ["identity", "scaled", "degree", "wrong", "two", "none"]
        kind = draw(st.sampled_from(kinds if g in source_d else ["none", "none", "identity"]))
        if kind == "identity":
            images[g] = Polynomial.gen(g)
        elif kind == "scaled":
            images[g] = Polynomial.gen(g) * draw(coefficients.filter(lambda c: c != 1))
        elif kind == "degree":
            images[g] = _drawn_homogeneous(draw, g.degree)
        elif kind == "wrong":
            images[g] = _drawn_homogeneous(draw, g.degree + draw(st.sampled_from([-1, 1, 2])))
        elif kind == "two":
            images[g] = _drawn_homogeneous(draw, g.degree) + _drawn_homogeneous(draw, g.degree + 1)
    source = FreeCDGA(tuple(source_gens), source_d)
    return Morphism(source, FreeCDGA(tuple(target_gens), target_d), images)


_D_A3 = Polynomial.gen(X2) ** 2


@given(morphisms())
# the identity image of a3, which the target lacks
@example(
    Morphism(
        FreeCDGA((X2, A3), {A3: _D_A3}),
        FreeCDGA((X2,)),
        {X2: Polynomial.gen(X2), A3: Polynomial.gen(A3)},
    )
)
# identity images, with the target's d(a3) twice the source's
@example(
    Morphism(
        FreeCDGA((X2, A3), {A3: _D_A3}),
        FreeCDGA((X2, A3), {A3: 2 * _D_A3}),
        {X2: Polynomial.gen(X2), A3: Polynomial.gen(A3)},
    )
)
# a wrong-degree image of x2 and an inhomogeneous one of a3 next to an identity
@example(
    Morphism(
        FreeCDGA((X2, A3, C5), {A3: _D_A3}),
        FreeCDGA((X2, A3, C5), {A3: _D_A3}),
        {
            X2: Polynomial.gen(A3),
            A3: Polynomial.gen(A3) + Polynomial.gen(X2) ** 2,
            C5: Polynomial.gen(C5),
        },
    )
)
def test_compose_and_check_matches_the_full_check(m):
    assert compose_and_check(m) == compose_and_check_in_full(m)


@given(
    st.tuples(map_monomials(), coefficients).map(lambda t: Polynomial({t[0]: t[1]}))
    | polynomials()
)
@example(Polynomial({Monomial(((X2, 1), (A3, 1))): Fraction(-1, 2)}))
@example(Polynomial.gen(A3) + Polynomial.gen(B3))
def test_powers_are_repeated_products(p):
    product = Polynomial.scalar(1)
    for n in range(6):
        assert p ** n == product
        product = product * p


def _combination(coeffs, rows):
    vec = {}
    for c, row in zip(coeffs, rows):
        for k, v in row.items():
            vec[k] = vec.get(k, Fraction(0)) + c * v
    return {k: v for k, v in vec.items() if v}


@given(row_spaces(), st.data())
def test_row_space_coordinates_recover_the_combination(space, data):
    coeffs = data.draw(
        st.lists(coefficients | st.just(Fraction(0)), min_size=space.rank, max_size=space.rank)
    )
    vec = _combination(coeffs, [row for _, row, _ in space.rows])
    # over the reduced echelon basis, the coordinates are the values at the pivots
    basis = space.basis()
    assert _combination([vec.get(min(row), 0) for row in basis], basis) == vec
    assert space.reduce(vec) == {}
    assert space.reduce({**vec, 8: Fraction(1)}) != {}


big_fractions = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**12
).filter(lambda c: c != 0)


@st.composite
def spanning_vectors(draw, entries=big_fractions, width=6):
    """Sparse vectors, by default with large denominators: a few free ones
    and some combinations of them with coefficients drawn like their
    entries, in a drawn order."""
    free = draw(
        st.lists(
            st.dictionaries(st.integers(0, width - 1), entries, min_size=1, max_size=width),
            min_size=1,
            max_size=4,
        )
    )
    vecs = list(free)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        coeffs = draw(st.lists(entries, min_size=len(free), max_size=len(free)))
        combo: Vec = {}
        for c, v in zip(coeffs, free):
            for k, x in v.items():
                combo[k] = combo.get(k, 0) + c * x
        vecs.append({k: x for k, x in combo.items() if x})
    return draw(st.permutations(vecs))


def _space(vecs):
    space = RowSpace()
    for v in vecs:
        space.add(v)
    return space


@given(spanning_vectors())
def test_row_space_rank_matches_dense_elimination(vecs):
    space = RowSpace()
    kernel = []
    for i, v in enumerate(vecs):
        residue, tag = space.add(v, {i: Fraction(1)})
        if not residue:
            kernel.append(tag)
    assert space.rank == dense_rank([[v.get(j, Fraction(0)) for j in range(6)] for v in vecs])
    assert len(kernel) == len(vecs) - space.rank
    for tag in kernel:
        assert tag
        total: dict[int, Fraction] = {}
        for i, c in tag.items():
            for k, x in vecs[i].items():
                total[k] = total.get(k, Fraction(0)) + c * x
        assert not any(total.values())


@given(spanning_vectors(), st.data())
def test_row_space_basis_is_the_canonical_rref(vecs, data):
    order = data.draw(st.permutations(range(len(vecs))))
    scales = data.draw(st.lists(big_fractions, min_size=len(vecs), max_size=len(vecs)))
    other = RowSpace()
    for step, i in enumerate(order):
        if step == len(order) // 2:
            other.basis()  # a query: the inserts after it see the same rows
        other.add({k: scales[i] * x for k, x in vecs[i].items()})
    basis = _space(vecs).basis()
    assert other.basis() == basis
    for row in basis:
        pivot = min(row)
        assert row[pivot] == 1
        assert all(pivot not in r for r in basis if r is not row)


@given(spanning_vectors(), st.dictionaries(st.integers(0, 5), big_fractions, max_size=6))
def test_row_space_reduce_is_the_normal_form(vecs, vec):
    space = _space(vecs)
    normal = space.reduce(vec)
    assert all(pivot not in normal for pivot, _, _ in space.rows)
    diff = {
        k: vec.get(k, Fraction(0)) - normal.get(k, Fraction(0))
        for k in vec.keys() | normal.keys()
    }
    assert space.reduce({k: x for k, x in diff.items() if x}) == {}
    assert _space(reversed(vecs)).reduce(vec) == normal


small_ints = st.integers(min_value=-6, max_value=6).filter(bool)
int_vectors = st.dictionaries(st.integers(0, 5), small_ints, max_size=6)
exact_vectors = int_vectors | st.dictionaries(st.integers(0, 5), coefficients, max_size=6)


@given(spanning_vectors(small_ints) | spanning_vectors(), exact_vectors, st.data())
def test_row_space_answers_do_not_depend_on_insertion_order(vecs, probe, data):
    # Cohomology inserts each degree's columns last to first on this law.
    order = data.draw(st.permutations(range(len(vecs))))
    space = _space(vecs)
    other = RowSpace()
    for i in order:
        other.add(vecs[i], {i: 1})
    assert other.rank == space.rank
    assert [pivot for pivot, _, _ in other.rows] == [pivot for pivot, _, _ in space.rows]
    assert other.reduce(probe) == space.reduce(probe)
    assert other.basis() == space.basis()


def _exact(values):
    return all(type(c) in (int, Fraction) for c in values)


def _integer_rows(space):
    return all(type(c) is int for _, row, tag in space.rows for c in (*row.values(), *tag.values()))


@given(st.lists(exact_vectors, max_size=6), int_vectors)
def test_row_space_answers_are_exact_and_basis_keeps_the_tags(vecs, vec):
    space = RowSpace()
    for i, v in enumerate(vecs):
        space.add(v, {i: 1})
    assert _exact(space.reduce(vec).values())
    assert _integer_rows(space)
    before = [(pivot, dict(row), dict(tag)) for pivot, row, tag in space.rows]
    for row in space.basis():
        assert _exact(row.values())
    for _, row, tag in space.rows:  # each row is still the combination its tag names
        assert _exact(tag.values())
        total: dict[int, Fraction] = {}
        for i, c in tag.items():
            for k, x in vecs[i].items():
                total[k] = total.get(k, 0) + c * x
        assert {k: x for k, x in total.items() if x} == row
    assert _exact(space.reduce(vec).values())
    assert space.rows == before and _integer_rows(space)


wide_vectors = st.dictionaries(
    st.integers(0, 40), small_ints | coefficients, min_size=1, max_size=5
)


@given(st.lists(wide_vectors, max_size=12), st.lists(wide_vectors, max_size=4))
@example(vecs=[{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}], probes=[{0: 1}])
@example(vecs=[{0: -2, 1: 2}, {0: -3, 2: -2}, {0: 3}], probes=[])
def test_clearing_visits_the_pivots_a_sweep_would(vecs, probes):
    """Sparse rows over 41 columns: a subtraction often fills in a pivot the
    vector did not hold (in the first example, clearing {0: 1} at pivot 0
    fills in pivot 1, whose row fills in pivot 2).  In the second, the third
    insert steps twice to the residue {2: -4} with the tag {1: 2, 2: 2},
    which is stored only once divided by their gcd 2."""
    space = RowSpace()
    for i, v in enumerate(vecs):
        space.add(v, {i: 1})
    rows = space.rows
    for probe in [*probes, *vecs]:
        normal = space.reduce(probe)
        assert list(normal.items()) == list(clear_by_sweep(probe, rows).items())
    basis, oracle = space.basis(), rref_by_sweep(rows)
    assert [list(r.items()) for r in basis] == [list(r.items()) for r in oracle]
    reference = echelon_by_fraction_ratio(vecs)
    assert {pivot: (row, tag) for pivot, row, tag in rows} == reference
    for pivot, row, tag in rows:
        values = [*row.values(), *tag.values()]
        assert all(type(c) is int for c in values)
        assert gcd(*values) == 1 and min(row) == pivot


@given(st.integers(min_value=0, max_value=14))
def test_basis_enumeration_is_complete_and_duplicate_free(degree):
    want = sorted(brute_monomials(POOL, degree), key=lambda m: m.sort_key)
    basis = basis_of_degree(POOL, degree)
    assert basis == want
    assert all(_as_if_public(m) for m in basis)


def _brute_force_size(degrees, n):
    """The number of exponent vectors brute_monomials tries in degree n."""
    size = 1
    for d in degrees:
        size *= 2 if d % 2 else n // d + 1
    return size


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5), st.data())
def test_basis_of_degree_matches_brute_force_on_random_generators(degrees, data):
    top = max(n for n in range(31) if _brute_force_size(degrees, n) <= 5000)
    n = data.draw(st.integers(min_value=0, max_value=top), label="n")
    gens = [Generator(f"g{i}", d) for i, d in enumerate(degrees)]
    want = sorted(brute_monomials(gens, n), key=lambda m: m.sort_key)
    assert basis_of_degree(reversed(gens), n) == want


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_models_satisfy_d_squared_zero(seed):
    model = random_pure_model(random.Random(seed))
    for g in model.generators:
        assert apply_d(model, model.d(g)).is_zero()


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=15, deadline=None)
def test_random_models_round_trip_through_documents(seed):
    model = random_pure_model(random.Random(seed))
    assert parse_model(render_model(model, name="R")).to_model() == model


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(deadline=None)
def test_reduction_preserves_cohomology_and_replays(seed):
    model = random_reducible_model(random.Random(seed))
    out, log = reduce(model, check_degree=9)
    assert betti(out, 9).betti == betti(model, 9).betti
    assert replay(model, log) == out
    again, log2 = reduce(out, check_degree=9)
    assert again == out and log2.steps == []


@given(coefficients)
@settings(max_examples=20, deadline=None)
def test_change_of_variable_is_invertible(c):
    a4 = next(g for g in MODEL.generators if g.name == "a4")
    b4 = next(g for g in MODEL.generators if g.name == "b4")
    t4 = Generator("t4", 4)
    relation = Polynomial.gen(a4) + c * Polynomial.gen(b4)
    changed = change_of_variable(MODEL, a4, t4, relation)
    back = change_of_variable(
        changed, t4, a4, Polynomial.gen(t4) - c * Polynomial.gen(b4)
    )
    assert back == MODEL
    assert betti(changed, 12).betti == betti(MODEL, 12).betti


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_renaming_preserves_betti(seed):
    model = random_pure_model(random.Random(seed))
    mapping = {
        g: Generator(f"w{i}_{g.degree}", g.degree)
        for i, g in enumerate(model.generators)
    }
    renamed = rename_generators(model, mapping)
    assert betti(renamed, 9).betti == betti(model, 9).betti


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
@settings(max_examples=25, deadline=None)
def test_class_of_reads_back_a_combination_of_representatives(seed, data):
    model = random_pure_model(random.Random(seed))
    coh = Cohomology(model)
    degrees = [n for n in range(1, 12) if coh.betti(n)]
    assume(degrees)
    n = data.draw(st.sampled_from(degrees))
    reps = coh.representatives(n)
    coeffs = data.draw(
        st.lists(coefficients | st.just(Fraction(0)), min_size=len(reps), max_size=len(reps))
    )
    assume(any(coeffs))
    combo = Polynomial.zero()
    for c, rep in zip(coeffs, reps):
        combo = combo + c * rep
    boundary = Polynomial.zero()
    below = basis_of_degree(model.generators, n - 1)
    if below:
        m = data.draw(st.sampled_from(below))
        boundary = data.draw(coefficients) * apply_d(model, Polynomial.monomial(m))
    cls = class_of(model, combo + boundary)
    assert cls.degree == n
    assert list(cls.coordinates) == coeffs
    assert cls.representative == combo


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_quasi_iso_rank_on_a_tensor_product_follows_kuenneth(seed):
    # f fixes M's generators and sends N's to 0, so on H(M (x) N) = H(M) (x) H(N)
    # it keeps exactly H(M) (x) H^0(N)
    rng = random.Random(seed)
    left, right = random_pure_model(rng), random_pure_model(rng)
    both = tensor(left, right)
    images = {
        g: Polynomial.gen(g) if g in left.generators else Polynomial.zero()
        for g in both.generators
    }
    report = is_quasi_iso(Morphism(both, both, images), 12)
    b_left, b_right = betti_by_elimination(left, 12), betti_by_elimination(right, 12)
    for d, verdict in report.per_degree.items():
        dim = sum(b_left.get(i, 0) * b_right.get(d - i, 0) for i in range(d + 1))
        assert (verdict.source_dim, verdict.target_dim, verdict.rank) == (
            dim,
            dim,
            b_left.get(d, 0),
        )


@st.composite
def homogeneous_relations(draw, degree):
    pool = basis_of_degree(EVENS, degree)
    picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    return Polynomial({m: draw(coefficients) for m in picked})


@given(st.integers(min_value=0, max_value=12), st.data())
@settings(max_examples=40, deadline=None)
def test_quotient_ring_dims_match_dense_elimination(max_degree, data):
    degrees = st.sampled_from(range(2, 13, 2))
    relations = data.draw(st.lists(degrees.flatmap(homogeneous_relations), max_size=3))
    if data.draw(st.booleans()):
        relations.append(Polynomial.zero())
    if data.draw(st.booleans()):
        relations.append(Polynomial.scalar(data.draw(coefficients)))
    if data.draw(st.booleans()):  # above max_degree, so it never acts
        relations.append(data.draw(homogeneous_relations(max_degree + 2 - max_degree % 2)))
    relations = data.draw(st.permutations(relations))
    pres = RingPresentation(EVENS, tuple(relations))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cohomology, "basis_of_degree", lambda *a: calls.append(a) or basis_of_degree(*a))
        dims = quotient_ring_dims(pres, max_degree)
    assert dims == quotient_dims_by_elimination(EVENS, relations, max_degree)
    assert calls == []  # standard monomials are counted without enumerating Q[gens]


# The degree range of the law below; low, so that the dense oracle stays
# cheap at the 1000 examples of the ci profile.
ELLIPTIC_DEGREE = 12


@st.composite
def balanced_pure_models(draw):
    """Pure models with 1-3 even generators of degrees 2-6 and as many odd
    ones of degrees 3-9, each d a random polynomial (zero when there is no
    monomial of its degree) in the even ones; some have a finite H_0."""
    count = draw(st.integers(min_value=1, max_value=3))
    evens = tuple(Generator(f"x{i}", draw(st.sampled_from((2, 4, 6)))) for i in range(count))
    odds = tuple(Generator(f"y{i}", draw(st.sampled_from((3, 5, 7, 9)))) for i in range(count))
    diff = {}
    for y in odds:
        pool = basis_of_degree(evens, y.degree + 1)
        if pool:
            picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
            diff[y] = Polynomial({m: draw(coefficients) for m in picked})
    return FreeCDGA(evens + odds, diff)


@given(balanced_pure_models())
@example(biquotient_model(classifying_data("thm34")))  # certified, N = 12
@settings(deadline=None)
def test_elliptic_betti_match_the_dense_oracle(model):
    report = betti(model, ELLIPTIC_DEGREE)
    assert report.nonzero() == betti_by_elimination(model, ELLIPTIC_DEGREE)


# The degree range of the law below, kept low so that the oracle's dense
# ranks stay cheap at the 1000 examples of the ci profile.
QUOTIENT_DEGREE = 10


def _h0(model):
    """H_0 of a pure model: its even generators modulo d of the odd ones."""
    return RingPresentation(
        model.even_generators(), tuple(model.d(g) for g in model.odd_generators())
    )


@st.composite
def presentations(draw):
    """2-4 even generators of degrees 2-6 and 1-4 homogeneous relations,
    zero ones included; most quotients are not finite-dimensional."""
    degrees = draw(st.lists(st.sampled_from((2, 4, 6)), min_size=2, max_size=4))
    gens = tuple(Generator(f"g{i}", d) for i, d in enumerate(degrees))
    relations = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pool = basis_of_degree(gens, draw(st.sampled_from(range(2, QUOTIENT_DEGREE + 1, 2))))
        picked = []
        if pool and draw(st.integers(min_value=0, max_value=3)) < 3:  # else a zero relation
            picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        relations.append(Polynomial({m: draw(coefficients) for m in picked}))
    return RingPresentation(gens, tuple(relations))


@given(presentations())
@example(_h0(projectivize(pontryagin_setup("thm34"))))  # finite: 1, 2, 2, 1
@example(_h0(biquotient_model(classifying_data("prop31", 3))))  # Q[a4], infinite
@settings(deadline=None)
def test_quotient_ring_dims_match_the_oracle_on_random_presentations(pres):
    want = quotient_dims_by_elimination(pres.generators, pres.relations, QUOTIENT_DEGREE)
    assert quotient_ring_dims(pres, QUOTIENT_DEGREE) == want


# The highest cut of the Groebner laws below; their relations reach two
# degrees past it.
GROEBNER_CUT = 12

# Taken in this order, x2^2 + x2*y2 gives the lead x2*y2 and then x2^2 the
# lead x2^2, which the first polynomial holds: a reduced basis subtracts it
# from there.
XY2 = (Generator("x2", 2), Generator("y2", 2))
X2, Y2 = map(Polynomial.gen, XY2)
UPKEEP_CASE = (XY2, (X2 ** 2 + X2 * Y2, X2 ** 2), (X2 ** 2, X2 ** 2 + X2 * Y2), GROEBNER_CUT)
# Sorted by the terms as given, x2^2 comes after x2*y2 - x2^2 but before
# x2^2 - x2*y2, so such a sort finds the leads x2*y2 and x2^2 in either order.
SCALE_CASE = (XY2, (X2 * Y2 - X2 ** 2, X2 ** 2), (X2 ** 2 - X2 * Y2, X2 ** 2), GROEBNER_CUT)


@st.composite
def groebner_inputs(draw):
    """(gens, relations, the same relations shuffled and each times a nonzero
    coefficient, cut): either 1-4 homogeneous relations over EVENS, some past
    the cut, perhaps one repeated, one linear in a generator, which makes
    that generator a lead, and a nonzero constant, whose lead divides every
    monomial; or H_0 of a random pure model."""
    cut = draw(st.integers(min_value=0, max_value=GROEBNER_CUT))
    if draw(st.booleans()):
        pres = h0_presentation(random_pure_model(random.Random(draw(st.integers(0, 2 ** 32 - 1)))))
    else:
        degrees = st.sampled_from(range(2, GROEBNER_CUT + 3, 2))
        relations = draw(st.lists(degrees.flatmap(homogeneous_relations), min_size=1, max_size=4))
        if draw(st.booleans()):
            relations.append(draw(coefficients) * draw(st.sampled_from(relations)))
        if draw(st.booleans()):
            g = draw(st.sampled_from(EVENS))
            relations.append(Polynomial.gen(g) + draw(homogeneous_relations(g.degree)))
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            relations.append(Polynomial.scalar(draw(coefficients)))
        pres = RingPresentation(EVENS, tuple(draw(st.permutations(relations))))
    count = len(pres.relations)
    scales = draw(st.lists(coefficients, min_size=count, max_size=count))
    shuffled = tuple(draw(st.permutations([c * r for c, r in zip(scales, pres.relations)])))
    return tuple(sorted(pres.generators)), pres.relations, shuffled, cut


@given(groebner_inputs())
@example(UPKEEP_CASE)
@settings(deadline=None)
def test_groebner_leads_and_counts_match_the_reduced_basis_oracle(case):
    gens, relations, _, cut = case
    cap = cohomology.DEFAULT_MAX_BASIS
    leads = cohomology._groebner(gens, relations, cut, cap)
    want = reduced_groebner_leads(gens, relations, cut, cap)
    assert sorted(leads) == sorted(want)
    counts = cohomology._standard_counts(gens, leads, cut, cap)
    assert counts == standard_counts_by_full_walk(gens, want, cut, cap)


@given(groebner_inputs())
@example(UPKEEP_CASE)
@example(SCALE_CASE)
@settings(deadline=None)
def test_groebner_leads_and_counts_ignore_the_order_of_relations(case):
    gens, relations, shuffled, cut = case
    cap = cohomology.DEFAULT_MAX_BASIS
    leads = cohomology._groebner(gens, relations, cut, cap)
    assert cohomology._groebner(gens, shuffled, cut, cap) == leads
    dims = quotient_ring_dims(RingPresentation(gens, relations), cut)
    assert quotient_ring_dims(RingPresentation(gens, shuffled), cut) == dims


def _generators(prefix, min_size=0):
    """Up to three generators of degrees 1-9 named prefix + degree, primed
    apart: h4, h6', h4''."""
    return st.lists(st.integers(min_value=1, max_value=9), min_size=min_size, max_size=3).map(
        lambda degrees: tuple(
            Generator(f"{prefix}{d}" + "'" * i, d) for i, d in enumerate(degrees)
        )
    )


@st.composite
def polynomials_over(draw, gens):
    """Up to three terms in gens (odd ones at most once), constants included."""
    ordered = sorted(gens)
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        powers = tuple(
            (g, e) for g in ordered if (e := draw(st.integers(0, 1 if g.odd else 2)))
        )
        terms[Monomial(powers)] = draw(coefficients)
    return Polynomial(terms)


@st.composite
def free_models(draw, prefix):
    gens = draw(_generators(prefix, min_size=1))
    return FreeCDGA(gens, {g: draw(polynomials_over(gens)) for g in gens})


@st.composite
def classifying_data_with_aliases(draw):
    wh, wk, v = draw(_generators("h")), draw(_generators("k")), draw(_generators("v", 1))

    def restriction(side):
        """Images of some middle generators, in any order; zero ones included."""
        assigned = draw(st.lists(st.sampled_from(v), unique=True))
        return {g: draw(polynomials_over(side)) for g in assigned}

    phi_h, phi_k = restriction(wh), restriction(wk)
    aliased = draw(st.lists(st.sampled_from(v), unique=True))
    names = {g: f"s{i}" + "'" * i for i, g in enumerate(aliased)}
    return ClassifyingData(wh, wk, v, phi_h, phi_k, names)


@given(classifying_data_with_aliases())
def test_render_round_trip_of_classifying_data(data):
    assert parse_classifying(render_classifying(data, name="B")) == data


@given(free_models("b"), st.integers(min_value=1, max_value=4), st.data())
def test_render_round_trip_of_pontryagin_data(base, rank, data):
    # some indices left out, in any order, and some classes zero
    indices = data.draw(st.lists(st.integers(min_value=1, max_value=rank), unique=True))
    classes = {i: data.draw(polynomials_over(base.generators)) for i in indices}
    pont = PontryaginData(base, rank, classes)
    assert parse_pontryagin(render_pontryagin(pont, name="P"), base, rank) == pont


@given(free_models("x"), free_models("y"), st.data())
def test_render_round_trip_of_morphisms(source, target, data):
    images = {g: data.draw(polynomials_over(target.generators)) for g in source.generators}
    f = Morphism(source, target, images)
    doc = parse_source(render_morphism(f, name="f", source_name="A", target_name="B"))
    assert doc.only("morphism").to_morphism(doc.resolved_models()) == f
