"""Exact degree-truncated cohomology of free CDGAs.

Each degree gets its full monomial basis, the differential becomes a sparse
matrix, and ranks, kernels and quotient bases come from exact fraction-free
elimination; quotient rings, and Betti numbers alone where H = H_0 is finite
(_elliptic_betti), are counted from a degree-truncated Groebner basis
instead.  Representatives are the RREF rows of the cocycle space modulo
coboundaries, built as fresh rows: that form is unique for the span, so
repeated runs pick identical representatives, and a class's coordinates are
its values at their pivots.  Only representatives build it: a
quasi-isomorphism's rank in each degree is read from normal forms modulo the
target's coboundaries.

The differential's shape is checked once, when a Cohomology is built: every
term of every d(g) must be a monomial of degree |g|+1 in the model's
generators, or DegreeMismatchError names the first that is not.  d∘d = 0
is checked per degree from the d-matrix columns: the stage of degree n
sums the columns of d(g) for each generator g of degree n - 1, and a
nonzero d(d(g)) raises ValueError.  Stages are built in order from degree
0, so every computed degree has its coboundaries inside its cocycles.

Each degree's d-matrix columns are built in canonical basis order and
inserted into the elimination from the last to the first, which fills in
less.  The order changes no answer: ranks, pivots, normal forms and the
RREF depend only on the spans, and the kernel basis it yields is read only
through its size and its span modulo coboundaries.

RHT_MAX_BASIS in the environment, a nonnegative integer, overrides the
default cap of 200000 monomials per degree, which also caps the size of a
Groebner basis and its standard monomials per degree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from sullivan.cdga import FreeCDGA, Morphism, apply_d, compose_and_check
from sullivan.cdga import pure_check, refuse_non_cdga
from sullivan.errors import (
    DegreeMismatchError, NotACocycleError, ResourceLimitError, UnknownGeneratorError
)
from sullivan.gradedalg import (
    Generator,
    Monomial,
    Polynomial,
    basis_of_degree,
    repeated_names,
    unknown_names,
)
from sullivan.linalg import RowSpace, Vec, vec_sub_scaled

DEFAULT_MAX_BASIS = 200_000


def max_basis_cap() -> int:
    env = os.environ.get("RHT_MAX_BASIS")
    if env is None:
        return DEFAULT_MAX_BASIS
    try:
        cap = int(env)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"bad RHT_MAX_BASIS value {env!r}")
    return cap


def check_bound(value: Optional[int], name: str, least: int = 0) -> None:
    """Reject an integer bound below its least value (0 for degree bounds)."""
    if value is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass
class _Stage:
    """Linear data of one degree n: basis, cocycles, and d_n image."""

    basis: list[Monomial]
    index: dict[Monomial, int]
    cocycles: list[Vec]          # kernel of d_n over the degree-n basis
    image: RowSpace              # column span of d_n, over the degree-(n+1) basis


class Cohomology:
    """Per-model cache of exact cohomology data by degree."""

    def __init__(self, model: FreeCDGA):
        self.model = model
        self.cap = max_basis_cap()
        known = set(model.generators)
        # degree -> the generators of that degree with d(g) != 0, and d(g)
        self._d_by_degree: dict[int, list[tuple[Generator, Polynomial]]] = {}
        for g in model.generators:
            dg = model.d(g)
            for m in dg.terms:
                if m.degree != g.degree + 1 or not known.issuperset(m.generators()):
                    raise DegreeMismatchError(
                        f"term {m} of d({g.name}) is not a monomial of degree {g.degree + 1}"
                        " in the model's generators"
                    )
            if dg.terms:
                self._d_by_degree.setdefault(g.degree, []).append((g, dg))
        self._stages: dict[int, _Stage] = {}  # degrees 0 .. len - 1
        self._h: dict[int, RowSpace] = {}

    def _stage(self, n: int) -> _Stage:
        if n not in self._stages:
            check_bound(n, "degree")
            # In order from degree 0, so that every lower stage's d∘d check
            # has run; a loop, so a high degree cannot reach the recursion limit.
            for k in range(len(self._stages), n + 1):
                self._stages[k] = self._build_stage(k)
        return self._stages[n]

    def _build_stage(self, n: int) -> _Stage:
        basis = basis_of_degree(self.model.generators, n, self.cap)
        index = {m: i for i, m in enumerate(basis)}
        target = basis_of_degree(self.model.generators, n + 1, self.cap)
        target_index = {m: i for i, m in enumerate(target)}
        # __init__ checked the differential's shape, so every term of every
        # column is in the target basis.  Each monomial goes in with the int
        # coefficient 1, so a column stays int where d is integral.
        columns: list[Vec] = []
        for mono in basis:
            dp = apply_d(self.model, Polynomial._nonzero({mono: 1}))
            columns.append({target_index[m]: c for m, c in dp.terms.items()})
        # d(d(g)) for each generator g of degree n - 1, from the columns: d∘d
        # is a derivation, so with every lower stage checked it vanishes on
        # all of degree n - 1, and im d_{n-1} lies in ker d_n.
        for g, dg in self._d_by_degree.get(n - 1, ()):
            ddg: Vec = {}
            for m, c in dg.terms.items():
                vec_sub_scaled(ddg, columns[index[m]], -c)
            if ddg:
                dd = Polynomial({target[i]: c for i, c in ddg.items()})
                raise ValueError(f"not a CDGA: d(d({g.name})) = {dd} is nonzero")
        # Every column is built before any is inserted: one pass that builds
        # and inserts each in turn was 2-8% slower on a 12-generator pure
        # model (python 3.11.7, 2 vCPU).  Columns go in last to first, each
        # dropped once inserted: the insertion order decides the fill-in
        # (Markowitz 1957), and this one takes about a third of the
        # elimination steps of canonical order on the thm33 biquotients.  It
        # cannot change an answer: rank, pivots, normal forms and the RREF
        # depend only on the span, and the cocycles are some basis of the
        # kernel, read only through their count and their span modulo
        # coboundaries.
        image = RowSpace()
        cocycles: list[Vec] = []
        for j in reversed(range(len(columns))):
            residue, tag = image.add(columns.pop(), {j: 1})
            if not residue:
                cocycles.append(tag)
        # Rank-nullity double entry: dim ker + dim im = dim of the degree.
        assert len(cocycles) + image.rank == len(basis)
        # The d∘d check above puts the coboundaries inside the cocycles.
        assert n == 0 or len(cocycles) >= self._stages[n - 1].image.rank
        return _Stage(basis, index, cocycles, image)

    def to_vector(self, p: Polynomial, n: int) -> Vec:
        index = self._stage(n).index
        vec: Vec = {}
        for m, c in p.terms.items():
            if m.degree != n:
                raise DegreeMismatchError(f"term {m} has degree {m.degree}, expected {n}")
            # The basis holds every monomial of degree n in the model's generators.
            i = index.get(m)
            if i is None:
                names = unknown_names(p, self.model.generators)
                raise UnknownGeneratorError(f"polynomial mentions unknown generators: {names}")
            vec[i] = c
        return vec

    def to_polynomial(self, vec: Vec, n: int) -> Polynomial:
        basis = self._stage(n).basis
        return Polynomial({basis[i]: c for i, c in vec.items()})

    def coboundaries(self, n: int) -> RowSpace:
        """Echelon of the d-image landing in degree n."""
        if n == 0:
            return RowSpace()
        return self._stage(n - 1).image

    def betti(self, n: int) -> int:
        return len(self._stage(n).cocycles) - self.coboundaries(n).rank

    def h_space(self, n: int) -> RowSpace:
        """Echelon of the cocycles reduced modulo coboundaries in degree n."""
        if n not in self._h:
            cob = self.coboundaries(n)
            space = RowSpace()
            for z in self._stage(n).cocycles:
                space.add(cob.reduce(z))
            self._h[n] = space
        return self._h[n]

    def representatives(self, n: int) -> list[Polynomial]:
        """The RREF basis of H^n; the only place a reduced echelon form is built."""
        return [self.to_polynomial(v, n) for v in self.h_space(n).basis()]

    def classify(self, cocycle: Polynomial, n: int) -> Vec:
        """A cocycle's normal form modulo coboundaries, checked to lie in H^n's span."""
        residue = self.coboundaries(n).reduce(self.to_vector(cocycle, n))
        if self.h_space(n).reduce(residue):  # cannot happen for an actual cocycle
            raise AssertionError("cocycle not in the span of cohomology representatives")
        return residue


@dataclass
class CohomologyReport:
    max_degree: int
    betti: dict[int, int]
    representatives: Optional[dict[int, list[Polynomial]]] = None

    def total_dim(self) -> int:
        return sum(self.betti.values())

    def nonzero(self) -> dict[int, int]:
        return {n: b for n, b in self.betti.items() if b}


def _elliptic_betti(coh: Cohomology, max_degree: Optional[int]) -> Optional[list[int]]:
    """b_0 .. b_N, cut at max_degree, if pure_check holds with #even = #odd and
    H_0 (h0_presentation) is finite, else None.  Then H = H_0, zero above
    N = sum|y| - sum(|x| - 1) (Felix-Halperin-Thomas, GTM 205, section 32), and
    a pure power of each even x is a lead by degree N + max|x|: exactly when
    H_0 is finite, so the basis cut there certifies both ways."""
    model = coh.model
    evens, odds = model.even_generators(), model.odd_generators()
    if len(evens) != len(odds) or not pure_check(model):
        return None
    top = sum(g.degree for g in odds) - sum(g.degree - 1 for g in evens)
    relations = h0_presentation(model).relations
    leads = _groebner(evens, relations, top + max((g.degree for g in evens), default=0), coh.cap)
    powered = {lead.index(max(lead)) for lead in leads if sum(lead) == max(lead)}
    if len(powered) < len(evens):
        return None
    cut = top if max_degree is None else min(top, max_degree)
    return _standard_counts(evens, leads, cut, coh.cap)


def betti(
    model: FreeCDGA,
    max_degree: Optional[int] = None,
    representatives: bool = False,
) -> CohomologyReport:
    """Betti numbers (and optionally representatives) up to max_degree.  On a
    model _elliptic_betti certifies, max_degree defaults to its top degree N and
    the Betti numbers alone come from H_0; all else uses the full complex."""
    check_bound(max_degree, "max_degree")
    coh = Cohomology(model)
    h0 = _elliptic_betti(coh, max_degree) if max_degree is None or not representatives else None
    if max_degree is None:
        max_degree = len(h0) - 1 if h0 else min(4 * len(model.generators), 40)
    if h0 and not representatives:
        counts = h0[: max_degree + 1] + [0] * (max_degree + 1 - len(h0))
        return CohomologyReport(max_degree, dict(enumerate(counts)))
    b: dict[int, int] = {}
    reps: dict[int, list[Polynomial]] = {}
    for n in range(max_degree + 1):
        b[n] = coh.betti(n)
        if representatives:
            reps[n] = coh.representatives(n)
    return CohomologyReport(max_degree, b, reps if representatives else None)


@dataclass(frozen=True)
class CohomologyClass:
    degree: int
    coordinates: tuple[Fraction, ...]
    representative: Polynomial

    def is_zero(self) -> bool:
        return not any(self.coordinates)


def _cocycle_degree(model: FreeCDGA, p: Polynomial, shape_error: str) -> int:
    """The degree of p, which must be a nonzero homogeneous cocycle;
    shape_error is the text raised when it is zero or inhomogeneous."""
    if not p.is_homogeneous() or p.is_zero():
        raise DegreeMismatchError(shape_error)
    dp = apply_d(model, p)
    if not dp.is_zero():
        raise NotACocycleError(f"d({p}) = {dp} is nonzero")
    n = p.degree()
    assert n is not None
    return n


def _cohomology_of(model: FreeCDGA, coh: Optional[Cohomology]) -> Cohomology:
    """coh, which must belong to model, or a fresh Cohomology of model."""
    if coh is None:
        return Cohomology(model)
    if coh.model != model:
        raise ValueError("coh is the cohomology of another model")
    return coh


def _class(coh: Cohomology, cocycle: Polynomial, n: int) -> CohomologyClass:
    """The class of a cocycle of degree n; its coordinates are its normal form at the pivots."""
    # One shared zero: a Fraction built per zero coordinate was most of a cup product.
    residue, zero = coh.classify(cocycle, n), Fraction(0)
    coords = tuple(residue.get(pivot, zero) for pivot, _, _ in coh.h_space(n).rows)
    return CohomologyClass(n, coords, coh.to_polynomial(residue, n))


def class_of(
    model: FreeCDGA,
    cocycle: Polynomial,
    coh: Optional[Cohomology] = None,
) -> CohomologyClass:
    """The cohomology class of a cocycle, reduced modulo coboundaries.
    Pass one Cohomology(model) as coh to share its stages between calls."""
    coh = _cohomology_of(model, coh)
    n = _cocycle_degree(model, cocycle, "expected a nonzero homogeneous cocycle")
    return _class(coh, cocycle, n)


def cup_product(
    model: FreeCDGA,
    a: Polynomial,
    b: Polynomial,
    coh: Optional[Cohomology] = None,
) -> CohomologyClass:
    """[a] * [b] in the chosen basis of H of their degree (a*b needs no cocycle check).
    Pass one Cohomology(model) as coh to share its stages between calls."""
    coh = _cohomology_of(model, coh)
    shape = "cup product expects nonzero homogeneous cocycles"
    n = _cocycle_degree(model, a, shape) + _cocycle_degree(model, b, shape)
    return _class(coh, a * b, n)


@dataclass(frozen=True)
class RingPresentation:
    """Q[generators]/(relations), graded, on even generators; zero relations are dropped."""

    generators: tuple[Generator, ...]
    relations: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(r for r in self.relations if not r.is_zero()))
        for g in self.generators:
            if g.odd:
                raise ValueError(f"presentation generator {g.name} has odd degree")
        dupes = repeated_names(g.name for g in self.generators)
        if dupes:
            raise ValueError(f"duplicate generator name {dupes[0]}")
        known = frozenset(self.generators)
        for r in self.relations:
            names = unknown_names(r, known)
            if names:
                raise ValueError(f"relation {r} mentions unknown generators: {names}")
            if not r.is_homogeneous():
                raise DegreeMismatchError(f"relation {r} is not homogeneous")


def h0_presentation(model: FreeCDGA) -> RingPresentation:
    """H_0 = Q[even generators]/(d of the odd generators) of a pure model, whose
    only nonzero differentials are those of its odd generators."""
    return RingPresentation(model.even_generators(), tuple(model.differential.values()))


def quotient_ring_dims(pres: RingPresentation, max_degree: int) -> dict[int, int]:
    """Graded dimensions of the quotient: its standard monomials per degree."""
    check_bound(max_degree, "max_degree")
    cap = max_basis_cap()
    gens = sorted(pres.generators)
    leads = _groebner(gens, pres.relations, max_degree, cap)
    return dict(enumerate(_standard_counts(gens, leads, max_degree, cap)))


def _shift_add(p: dict, c: Fraction, shift: tuple[int, ...], g: dict) -> None:
    """p += c * x^shift * g in place, on exponent tuples; zero terms leave p."""
    for t, v in g.items():
        k = tuple(a + b for a, b in zip(shift, t))
        if v := p.pop(k, 0) + c * v:
            p[k] = v


def _groebner(gens: Sequence[Generator], relations: tuple, max_degree: int, cap: int) -> list:
    """The leads of the reduced Groebner basis of (relations) in Q[gens], cut at
    max_degree, as exponent tuples indexed like gens (ascending degree).  In
    weighted grevlex with the generators highest degree first, a homogeneous
    polynomial's lead is its least tuple.  Taken in ascending degree, the leads
    span the leading ideal exactly up to max_degree (Becker-Weispfenning, GTM
    141); leads with no common generator make no pair (Buchberger's first
    criterion)."""
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
                        _shift_add(p, -p[m], tuple(b - a for a, b in zip(lead, m)), g)
                        break
                else:
                    nf[m] = p.pop(m)
            if not nf:
                continue
            new = min(nf)
            p = {t: v / nf[new] for t, v in nf.items()}
            for lead, g in basis:
                if new in g:  # g has p's degree; subtracting p keeps the basis reduced
                    _shift_add(g, -g[new], (0,) * len(gens), p)
                if any(a and b for a, b in zip(lead, new)):
                    lcm = tuple(map(max, lead, new))
                    s = {tuple(a + b - c for a, b, c in zip(t, lcm, new)): v for t, v in p.items()}
                    _shift_add(s, Fraction(-1), tuple(a - b for a, b in zip(lcm, lead)), g)
                    todo.setdefault(sum(x.degree * e for x, e in zip(gens, lcm)), []).append(s)
            basis.append((new, p))
            if len(basis) > cap:
                raise ResourceLimitError(f"Groebner basis exceeds cap of {cap} polynomials")
    return [lead for lead, _ in basis]


def _standard_counts(gens: Sequence[Generator], leads: list, max_degree: int, cap: int) -> list:
    """The count per degree up to max_degree of the monomials no lead divides, a
    set closed under division: a depth-first walk raises one exponent at or after
    the last one raised, and stops past max_degree or at a multiple of a lead."""
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


@dataclass
class DegreeVerdict:
    source_dim: int
    target_dim: int
    rank: int

    @property
    def injective(self) -> bool:
        return self.rank == self.source_dim

    @property
    def surjective(self) -> bool:
        return self.rank == self.target_dim

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective

    def describe(self) -> str:
        if self.bijective:
            return "bijective"
        parts = []
        if not self.injective:
            parts.append("not-injective")
        if not self.surjective:
            parts.append("not-surjective")
        return ", ".join(parts)


@dataclass
class QuasiIsoReport:
    max_degree: int
    per_degree: dict[int, DegreeVerdict]

    @property
    def ok(self) -> bool:
        return all(v.bijective for v in self.per_degree.values())

    def failing_degrees(self) -> list[int]:
        return [n for n, v in self.per_degree.items() if not v.bijective]


def is_quasi_iso(m: Morphism, max_degree: int) -> QuasiIsoReport:
    """Check bijectivity of the induced map on cohomology, degree by degree.
    The rank of H^n(f) is that of the pushed classes reduced modulo the
    target's coboundaries: on cocycles, that reduction has kernel exactly them."""
    check_bound(max_degree, "max_degree")
    refuse_non_cdga(m.source, "source")
    refuse_non_cdga(m.target, "target")
    violations = compose_and_check(m)
    if violations:
        raise ValueError("not a CDGA morphism: " + "; ".join(violations))
    src = Cohomology(m.source)
    tgt = Cohomology(m.target)
    per_degree: dict[int, DegreeVerdict] = {}
    for n in range(max_degree + 1):
        image = RowSpace()
        for _, row, _ in src.h_space(n).rows:
            image.add(tgt.classify(m.push(src.to_polynomial(row, n)), n))
        per_degree[n] = DegreeVerdict(
            source_dim=src.betti(n),
            target_dim=tgt.betti(n),
            rank=image.rank,
        )
    return QuasiIsoReport(max_degree, per_degree)
