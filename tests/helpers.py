"""Shared reference implementations for the test suite.

Everything in here is written the slow, obvious way on purpose.  The
package computes ranks with a sparse row-echelon structure, enumerates
monomial bases recursively and multiplies canonical monomials by a merge;
the tests cross-check those against dense Fraction elimination, brute-force
exponent enumeration and products ordered by adjacent swaps, so a bug would
have to appear in two unrelated implementations to slip through.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd
from typing import Sequence

from sullivan.cdga import FreeCDGA, apply_d
from sullivan.errors import ResourceLimitError
from sullivan.gradedalg import Generator, Monomial, Polynomial, unknown_names

COEFF_POOL = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-3),
    Fraction(1, 2),
    Fraction(-2, 3),
    Fraction(5),
]


def brute_monomials(gens, degree):
    """Every degree-n monomial, by exhausting exponent vectors."""
    gens = sorted(gens)
    if degree == 0:
        return {Monomial(())}
    ranges = []
    for g in gens:
        top = 1 if g.odd else degree // g.degree
        ranges.append(range(top + 1))
    found = set()
    for exps in itertools.product(*ranges):
        total = sum(e * g.degree for e, g in zip(exps, gens))
        if total == degree:
            found.add(Monomial(tuple((g, e) for g, e in zip(gens, exps) if e)))
    return found


def bubble_sort_with_sign(word):
    """(monomial, sign) of a word of generator powers, or (None, 0) when it
    vanishes: adjacent swaps, each of two odd factors negating the sign,
    then equal neighbours merged."""
    items = [(g, e) for g, e in word if e]
    sign = 1
    for end in range(len(items) - 1, 0, -1):
        for i in range(end):
            (g, e), (h, f) = items[i], items[i + 1]
            if h.sort_key < g.sort_key:
                items[i], items[i + 1] = (h, f), (g, e)
                if g.odd and h.odd:
                    sign = -sign
    merged = []
    for g, e in items:
        if merged and merged[-1][0] == g:
            merged[-1] = (g, merged[-1][1] + e)
        else:
            merged.append((g, e))
    if any(g.odd and e > 1 for g, e in merged):  # an odd square is zero
        return None, 0
    return Monomial(tuple(merged)), sign


def leibniz_d(model, monomial):
    """d of a monomial by the graded Leibniz rule on its single factors:
    the sum over i of (-1)^(degree before i) times the word of the factors
    before i, a term of d(g_i) and the factors after i, each word put in
    order by bubble_sort_with_sign, with x^2*y read as the word x, x, y."""
    factors = [(g, 1) for g, e in monomial.powers for _ in range(e)]
    acc = {}
    for i, (g, _) in enumerate(factors):
        before = sum(h.degree for h, _ in factors[:i])
        for m, c in model.d(g).terms.items():
            mono, sign = bubble_sort_with_sign(factors[:i] + list(m.powers) + factors[i + 1 :])
            if sign:
                acc[mono] = acc.get(mono, 0) + (-sign if before % 2 else sign) * c
    return Polynomial(acc)


def product_by_bubble_sort(p, q):
    """p * q, each word of a term of p followed by a term of q put in order
    by bubble_sort_with_sign."""
    acc = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            mono, sign = bubble_sort_with_sign(m1.powers + m2.powers)
            if sign:
                acc[mono] = acc.get(mono, 0) + sign * c1 * c2
    return Polynomial(acc)


def map_by_factors(p, images, fix_unmapped):
    """The algebra map of gradedalg.map_generators, term by term: the
    coefficient times the image of each factor g^e, an image power computed
    afresh for each factor, multiplied in as Polynomials in monomial order."""
    acc = {}
    for mono, coeff in p.terms.items():
        term = Polynomial.scalar(coeff)
        for g, e in mono.powers:
            if g in images:
                term = term * images[g] ** e
            elif fix_unmapped:
                term = term * Polynomial.gen(g, e)
            else:
                term = Polynomial.zero()
            if term.is_zero():
                break
        for m, c in term.terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
    return Polynomial(acc)


def compose_and_check_in_full(m):
    """cdga.compose_and_check as it was before identity images skipped
    their checks: every image's names, homogeneity and degree derived, d of
    every image taken by apply_d, and the source differentials pushed by
    map_by_factors."""
    violations = []
    src = set(m.source.generators)
    tgt = set(m.target.generators)
    for g in m.images:
        if g not in src:
            violations.append(f"image assigned to non-source generator {g.name}")
    checkable = []
    for g in m.source.generators:
        img = m.image_of(g)
        ok = True
        names = unknown_names(img, tgt)
        if names:
            violations.append(f"image of {g.name} mentions unknown generators: {names}")
            ok = False
        if not img.is_zero():
            if not img.is_homogeneous():
                violations.append(f"image of {g.name} is inhomogeneous: {img}")
                ok = False
            elif img.degree() != g.degree:
                violations.append(
                    f"image of {g.name} has degree {img.degree()}, expected {g.degree}"
                )
                ok = False
        if ok:
            checkable.append(g)
    for g in checkable:
        lhs = map_by_factors(m.source.d(g), m.images, False)
        rhs = apply_d(m.target, m.image_of(g))
        if lhs != rhs:
            violations.append(
                f"chain condition fails on {g.name}: "
                f"image of d({g.name}) is {lhs}, but d of the image is {rhs}"
            )
    return violations


def dense_rank(rows):
    """Rank of a dense matrix of Fractions by plain Gaussian elimination."""
    matrix = [list(r) for r in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = None
        for i in range(rank, len(matrix)):
            if matrix[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = Fraction(1) / matrix[rank][col]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for i in range(len(matrix)):
            if i != rank and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


def clear_by_sweep(vec, rows):
    """vec cleared at each pivot of rows, (pivot, row, tag) triples in
    ascending pivot order, by one sweep over every row: at each pivot the
    residue still holds, subtract the multiple of the row that zeroes it."""
    residue = dict(vec)
    for pivot, row, _ in rows:
        if pivot in residue:
            factor = Fraction(residue[pivot]) / row[pivot]
            for k, v in row.items():
                new = residue.get(k, 0) - factor * v
                if new:
                    residue[k] = new
                else:
                    residue.pop(k, None)
    return residue


def rref_by_sweep(rows):
    """The reduced row echelon basis of the span of rows, (pivot, row, tag)
    triples in ascending pivot order: each row divided by its leading value
    and swept clear at every later pivot, from the last pivot back."""
    rref = []  # (pivot, reduced row, None), pivot ascending
    for pivot, row, _ in reversed(rows):
        lead = row[pivot]
        rest = {k: Fraction(c) / lead for k, c in row.items() if k != pivot}
        rref.insert(0, (pivot, {pivot: Fraction(1), **clear_by_sweep(rest, rref)}, None))
    return [row for _, row, _ in rref]


def echelon_by_fraction_ratio(vecs):
    """{pivot: (row, tag)} of the echelon of vecs, each inserted with the tag
    {i: 1}: scaled to integers with gcd 1, stepped by m*v - n*row with n/m =
    Fraction(v[p], row[p]) at its least column p while p is a pivot, and
    scaled so again before it is stored."""

    def primitive(vec, tag):
        values = [Fraction(c) for c in (*vec.values(), *tag.values())]
        den = 1
        for c in values:
            den = den * c.denominator // gcd(den, c.denominator)
        num = 0
        for c in values:
            num = gcd(num, (c * den).numerator)
        return (
            {k: (Fraction(c) * den / num).numerator for k, c in vec.items()},
            {k: (Fraction(c) * den / num).numerator for k, c in tag.items()},
        )

    def step(vec, row, ratio):
        out = {k: c * ratio.denominator for k, c in vec.items()}
        for k, c in row.items():
            out[k] = out.get(k, 0) - ratio.numerator * c
        return {k: c for k, c in out.items() if c}

    echelon = {}
    for i, vec in enumerate(vecs):
        vec, tag = primitive(vec, {i: 1})
        stepped = False
        while vec and min(vec) in echelon:
            pivot = min(vec)
            row, row_tag = echelon[pivot]
            ratio = Fraction(vec[pivot], row[pivot])
            vec, tag = step(vec, row, ratio), step(tag, row_tag, ratio)
            stepped = True
        if stepped:
            vec, tag = primitive(vec, tag)
        if vec:
            echelon[min(vec)] = (vec, tag)
    return echelon


def _d_matrix(model, domain_basis, target_basis):
    index = {m: j for j, m in enumerate(target_basis)}
    rows = []
    for m in domain_basis:
        image = apply_d(model, Polynomial.monomial(m))
        row = [Fraction(0)] * len(target_basis)
        for mm, c in image.terms.items():
            row[index[mm]] = c
        rows.append(row)
    return rows


def betti_by_elimination(model, max_degree):
    """Betti numbers from dense rank computations, degree by degree."""
    bases = {
        n: sorted(brute_monomials(model.generators, n), key=lambda m: m.sort_key)
        for n in range(max_degree + 2)
    }
    rank_d = {}
    for n in range(max_degree + 1):
        rank_d[n] = dense_rank(_d_matrix(model, bases[n], bases[n + 1]))
    out = {}
    for n in range(max_degree + 1):
        kernel = len(bases[n]) - rank_d[n]
        image = rank_d[n - 1] if n > 0 else 0
        b = kernel - image
        if b:
            out[n] = b
    return out


def quotient_dims_by_elimination(gens, relations, max_degree):
    """Graded dimensions of Q[gens]/(relations): in each degree, the
    brute-force basis size minus the dense rank of every monomial multiple
    of every nonzero relation."""
    out = {}
    for n in range(max_degree + 1):
        basis = sorted(brute_monomials(gens, n), key=lambda m: m.sort_key)
        index = {m: i for i, m in enumerate(basis)}
        rows = []
        for r in relations:
            if r.is_zero() or r.degree() > n:
                continue
            for m in brute_monomials(gens, n - r.degree()):
                row = [Fraction(0)] * len(basis)
                for mm, c in product_by_bubble_sort(Polynomial.monomial(m), r).terms.items():
                    row[index[mm]] = c
                rows.append(row)
        out[n] = len(basis) - dense_rank(rows)
    return out


def shift_add(p: dict, c: Fraction, shift: tuple[int, ...], g: dict) -> None:
    """p += c * x^shift * g in place, on exponent tuples; zero terms leave p."""
    for t, v in g.items():
        k = tuple(a + b for a, b in zip(shift, t))
        if v := p.pop(k, 0) + c * v:
            p[k] = v


def reduced_groebner_leads(gens: Sequence[Generator], relations: tuple, max_degree: int, cap: int) -> list:
    """cohomology._groebner as it was while it kept its basis reduced: every
    new element is subtracted from each earlier one that holds its lead,
    relations are taken in the caller's order, and pairs are queued past
    max_degree, where they are never reduced.  The leads, in the order they
    were found; as a set they are the minimal generators of the leading
    ideal up to max_degree."""
    todo: dict[int, list[dict]] = {}  # degree -> polynomials still to reduce
    for r in relations:
        p = {tuple(dict(m.powers).get(g, 0) for g in gens): c for m, c in r.terms.items()}
        todo.setdefault(r.degree(), []).append(p)
    basis: list[tuple[tuple[int, ...], dict]] = []  # (lead, monic polynomial)
    while todo and min(todo) <= max_degree:
        for p in todo.pop(min(todo)):  # a new pair's lcm lies above both leads
            nf: dict = {}
            while p:  # the normal form of p, term by term from the lead
                m = min(p)
                for lead, g in basis:
                    if all(a <= b for a, b in zip(lead, m)):
                        shift_add(p, -p[m], tuple(b - a for a, b in zip(lead, m)), g)
                        break
                else:
                    nf[m] = p.pop(m)
            if not nf:
                continue
            new = min(nf)
            p = {t: v / nf[new] for t, v in nf.items()}
            for lead, g in basis:
                if new in g:  # g has p's degree; subtracting p keeps the basis reduced
                    shift_add(g, -g[new], (0,) * len(gens), p)
                if any(a and b for a, b in zip(lead, new)):
                    lcm = tuple(map(max, lead, new))
                    s = {tuple(a + b - c for a, b, c in zip(t, lcm, new)): v for t, v in p.items()}
                    shift_add(s, Fraction(-1), tuple(a - b for a, b in zip(lcm, lead)), g)
                    todo.setdefault(sum(x.degree * e for x, e in zip(gens, lcm)), []).append(s)
            basis.append((new, p))
            if len(basis) > cap:
                raise ResourceLimitError(f"Groebner basis exceeds cap of {cap} polynomials")
    return [lead for lead, _ in basis]


def standard_counts_by_full_walk(gens: Sequence[Generator], leads: list, max_degree: int, cap: int) -> list:
    """cohomology._standard_counts as it was before it skipped the generators
    that are leads: the count per degree up to max_degree of the monomials no
    lead divides, by a depth-first walk that raises every generator and tests
    every lead."""
    counts = [0] * (max_degree + 1)
    stack = [((0,) * len(gens), 0, 0)]
    while stack:
        mono, start, degree = stack.pop()
        if degree > max_degree or any(all(a <= b for a, b in zip(lead, mono)) for lead in leads):
            continue
        counts[degree] += 1
        if counts[degree] > cap:
            raise ResourceLimitError(f"quotient in degree {degree} exceeds cap of {cap} monomials")
        for i in range(start, len(gens)):
            stack.append((mono[:i] + (mono[i] + 1,) + mono[i + 1 :], i, degree + gens[i].degree))
    return counts


def random_polynomial(rng: random.Random, gens, degree, max_terms=3):
    """A random polynomial of one degree over the given generators."""
    pool = sorted(brute_monomials(gens, degree), key=lambda m: m.sort_key)
    if not pool:
        return Polynomial.zero()
    picked = rng.sample(pool, k=min(len(pool), rng.randint(1, max_terms)))
    terms = {m: rng.choice(COEFF_POOL) for m in picked}
    return Polynomial(terms)


def random_pure_model(rng: random.Random, max_even=3, max_odd=3) -> FreeCDGA:
    """A random valid model: closed even generators, odd ones mapped into them."""
    even_degrees = rng.sample([2, 4, 6, 8], k=rng.randint(1, max_even))
    evens = tuple(Generator(f"x{d}", d) for d in sorted(even_degrees))
    odds = []
    diff = {}
    targets = sorted(
        {d for d in range(4, 17, 2) if brute_monomials(evens, d)}
    )
    for i in range(rng.randint(1, max_odd)):
        target = rng.choice(targets)
        g = Generator(f"y{target - 1}" + "'" * i, target - 1)
        odds.append(g)
        if rng.random() < 0.85:
            diff[g] = random_polynomial(rng, evens, target)
    return FreeCDGA(evens + tuple(odds), diff)


def random_reducible_model(rng: random.Random) -> FreeCDGA:
    """A random pure model guaranteed to contain a cancellable pair."""
    model = random_pure_model(rng)
    evens = tuple(g for g in model.generators if not g.odd)
    anchor = rng.choice(evens)
    name = f"v{anchor.degree - 1}"
    while model.has_gen(name):
        name += "'"
    v = Generator(name, anchor.degree - 1)
    dv = Polynomial.gen(anchor)
    extra = random_polynomial(rng, tuple(g for g in evens if g != anchor), anchor.degree)
    diff = dict(model.differential)
    diff[v] = dv + extra
    return FreeCDGA(model.generators + (v,), diff)


def total_dim(betti_map) -> int:
    return sum(betti_map.values())


def within_memory(run, limit=1 << 20):
    """run()'s result, asserting that its allocations peak below limit bytes:
    a guard against work sized by a parameter, such as a bundle rank, that
    the answer does not grow with."""
    tracemalloc.start()
    try:
        return run()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < limit, f"allocations peaked at {peak} bytes"
