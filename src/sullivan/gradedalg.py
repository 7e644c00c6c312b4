"""Free graded-commutative algebras over Q.

A generator is a named symbol with a positive integer degree; its parity is
the degree mod 2.  A monomial is a product of generator powers kept in a
canonical order (ascending degree, then name), with odd generators never
exceeding exponent 1.  A polynomial is a sparse map from monomials to
nonzero Fractions.  Reordering factors follows the Koszul rule: swapping
two odd factors flips the sign, and the square of any odd factor is zero.

Every product of two canonical monomials, in Polynomial.__mul__,
map_generators and the Leibniz rule, is one linear merge in generator order
that counts the swaps of odd factors (_times), so products have one normal
form.  Polynomial.__mul__ and map_generators share one product of term dicts
keyed by powers (_product); map_generators takes none for a term whose every
factor the map fixes, which is its own image.  The power of a one-term
polynomial is a closed form: zero from the square on when a factor is odd,
else every exponent and the coefficient raised.

Generators and monomials are plain value tuples.  A generator is the tuple
(degree, name, odd), so tuple order is the canonical order of generators.  A
monomial is the tuple of its (generator, exponent) pairs: it equals its raw
powers tuple and hashes like it, so a polynomial's terms already are a term
dict, and one dict can mix both kinds of key.  Monomials also compare as
tuples, which is not the graded order, so the canonical order of monomials
is always their sort_key.  Hashing, equality and order are tuple code.  Only
the public constructors validate; basis enumeration and the merge build
monomials canonical by construction, unchecked (Monomial._canonical).
Pickling rebuilds both through the public constructor.

Basis enumeration walks the factors in canonical order and, by the degrees
the later generators can reach (a bitmask, read once per call as a string of
binary digits), enters only branches that end in a monomial, so its work
follows the size of the basis and not the degree.

All arithmetic is exact.  Floats never appear.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from sullivan.errors import (
    DegreeMismatchError,
    ParityMismatchError,
    ResourceLimitError,
)

Scalar = Union[int, Fraction]

# An identifier with optional trailing primes; the DSL lexes names by it too.
NAME_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*'*"
_NAME_RE = re.compile(NAME_PATTERN + r"\Z")


class _GeneratorFields(NamedTuple):
    degree: int
    name: str
    odd: bool


class Generator(_GeneratorFields):
    """A named generator of positive degree, the tuple (degree, name, odd):
    tuple order is the canonical order, by degree and then name."""

    __slots__ = ()

    def __new__(cls, name: str, degree: int) -> "Generator":
        if degree < 1:
            raise ValueError(f"generator degree must be >= 1, got {degree}")
        if not _NAME_RE.match(name):
            raise ValueError(f"bad generator name {name!r}")
        return tuple.__new__(cls, (degree, name, degree % 2 == 1))

    def __getnewargs__(self) -> tuple[str, int]:
        return self.name, self.degree

    @property
    def sort_key(self) -> tuple[int, str]:
        """(degree, name): the canonical order, which tuple order agrees with."""
        return self.degree, self.name

    def __repr__(self) -> str:
        return f"Generator({self.name!r}, {self.degree})"


_Powers = tuple[tuple[Generator, int], ...]


class Monomial(tuple):
    """A canonical product of generator powers, the tuple of its (generator,
    exponent) pairs; the empty product is 1."""

    __slots__ = ()

    def __new__(cls, powers: _Powers = ()) -> "Monomial":
        prev: Optional[Generator] = None
        for g, e in powers:
            if e < 1:
                raise ValueError(f"exponent must be positive, got {g.name}^{e}")
            if g.odd and e > 1:
                raise ValueError(f"odd generator squared: {g.name}^{e}")
            if prev is not None and not prev < g:
                raise ValueError("monomial factors out of order")
            prev = g
        return tuple.__new__(cls, powers)

    # The monomial of powers that are canonical by construction, unchecked.
    _canonical = classmethod(tuple.__new__)

    @property
    def powers(self) -> _Powers:
        """The (generator, exponent) pairs, which the monomial itself is."""
        return self

    @property
    def degree(self) -> int:
        return sum(g.degree * e for g, e in self.powers)

    def generators(self) -> Iterator[Generator]:
        return (g for g, _ in self.powers)

    def linear_generator(self) -> Optional[Generator]:
        """g when this monomial is g to the first power, else None."""
        if len(self.powers) == 1 and self.powers[0][1] == 1:
            return self.powers[0][0]
        return None

    @property
    def sort_key(self) -> tuple:
        # Graded order; within a degree, lexicographic with higher powers of
        # earlier generators first (so x^2 precedes x*y precedes y^2).
        return (self.degree, tuple((g.degree, g.name, -e) for g, e in self.powers))

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        return "*".join(g.name if e == 1 else f"{g.name}^{e}" for g, e in self.powers)

    def __repr__(self) -> str:
        return f"Monomial<{self}>"


UNIT = Monomial()


def _times(p: _Powers, q: _Powers) -> tuple[Optional[_Powers], int]:
    """The product of the canonical monomials with powers p and q.

    Returns (powers, parity) with p*q = (-1)**parity times the canonical
    monomial of powers, or (None, 0) when an odd generator occurs in both.
    One merge in generator order; each odd factor of p adds the number of odd
    factors of q merged before it, since each such pair is one swap of two
    odd factors.
    """
    out = []
    i = j = 0
    parity = 0
    q_odd = 0  # odd factors of q merged so far
    len_p, len_q = len(p), len(q)
    while i < len_p and j < len_q:
        a, b = p[i], q[j]
        g, h = a[0], b[0]
        if g < h:
            out.append(a)
            i += 1
            if g.odd:
                parity += q_odd
        elif h < g:
            out.append(b)
            j += 1
            if h.odd:
                q_odd += 1
        elif g.odd:
            return None, 0
        else:
            out.append((g, a[1] + b[1]))
            i += 1
            j += 1
    if q_odd & 1:
        parity += sum(g.odd for g, _ in p[i:])
    return tuple(out) + p[i:] + q[j:], parity


_Terms = dict[_Powers, Scalar]


def _product(a: _Terms, b: _Terms) -> _Terms:
    """The product of two term dicts {powers: coefficient}: every pair of
    terms merged by _times with its Koszul sign, and the sums that cancel
    dropped."""
    acc: _Terms = {}
    for p, c1 in a.items():
        for q, c2 in b.items():
            powers, parity = _times(p, q)
            if powers is not None:
                c = -c1 * c2 if parity & 1 else c1 * c2
                old = acc.get(powers)
                acc[powers] = c if old is None else old + c
    return {k: c for k, c in acc.items() if c}


class Polynomial:
    """Sparse polynomial: canonical monomial -> nonzero Fraction, from int or Fraction input."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, Scalar]] = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not Fraction:
                    if not isinstance(c, (int, Fraction)):
                        raise TypeError(f"coefficient {c!r} of {m} is not an int or a Fraction")
                    c = Fraction(c)
                if c:
                    clean[m] = c
        self.terms = clean

    @classmethod
    def _nonzero(cls, terms: dict[Monomial, Scalar]) -> "Polynomial":
        """The polynomial that owns terms, exact and nonzero, unchecked and not
        copied.  Values are Fractions, except that Cohomology builds its
        d-matrix columns from monomials with the int coefficient 1, so
        apply_d returns int values there; such a polynomial never leaves the
        column build."""
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def scalar(c: Scalar) -> "Polynomial":
        return Polynomial({UNIT: c})

    @staticmethod
    def gen(g: Generator, exp: int = 1) -> "Polynomial":
        if exp == 0:
            return Polynomial.scalar(1)
        return Polynomial({Monomial(((g, exp),)): Fraction(1)})

    @staticmethod
    def monomial(m: Monomial, c: Scalar = 1) -> "Polynomial":
        return Polynomial({m: c})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degrees = {m.degree for m in self.terms}
        return len(degrees) <= 1

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous polynomial; None for zero."""
        degrees = {m.degree for m in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"inhomogeneous polynomial: degrees {sorted(degrees)}")
        return degrees.pop()

    def generators(self) -> frozenset[Generator]:
        return frozenset(g for m in self.terms for g, _ in m.powers)

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return Polynomial(acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        product = _product(self.terms, other.terms)
        return Polynomial._nonzero({Monomial._canonical(k): c for k, c in product.items()})

    def __rmul__(self, other: Scalar) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other: Scalar) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Polynomial.scalar(1)
        if n == 1:
            return Polynomial(self.terms)
        if len(self.terms) == 1:  # c*m: c**n times m with every exponent times n
            ((m, c),) = self.terms.items()
            if any(g.odd for g, _ in m.powers):
                return Polynomial.zero()
            return Polynomial({Monomial._canonical(tuple((g, e * n) for g, e in m.powers)): c ** n})
        half = self ** (n // 2)
        square = half * half
        return square * self if n % 2 else square

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- rendering (doubles as the DSL expression form) ------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m, c in self.sorted_terms():
            mono = str(m)
            if not m:  # the unit monomial
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial<{self}>"


def basis_of_degree(
    gens: Iterable[Generator],
    n: int,
    max_size: Optional[int] = None,
) -> list[Monomial]:
    """All canonical monomials of total degree n (none if n < 0), in canonical order.

    A depth-first walk picks the factors in canonical order and enters a
    branch only when the degree it leaves is reachable by the generators
    after it, so every call adds at least one monomial, and it tries no
    power whose remainder lies above the highest such degree: the work
    follows the size of the basis, not the degree.  Raises
    ResourceLimitError when the count would exceed max_size.
    """
    if n < 0:
        return []
    if n == 0:
        if max_size is not None and max_size < 1:
            raise ResourceLimitError(f"basis in degree 0 exceeds cap of {max_size} monomials")
        return [Monomial._canonical(())]
    out: list[Monomial] = []
    _walk(_steps(sorted(set(gens)), n), 0, n, (), out, max_size)
    return out


def _steps(ordered: list[Generator], n: int) -> list[tuple]:
    """(g, |g|, g odd, reach, top) for each g of ordered: reach[r] is "1"
    when the generators after g reach the degree r <= n, each odd one used
    at most once, and top is the highest such r.  reach is the bitmask's
    binary digits, read once here, so that a test is O(1) and not a shift
    of an n-bit int."""
    mask = (1 << (n + 1)) - 1
    reach = 1  # the empty product
    steps = []
    for g in reversed(ordered):
        if steps:  # fold in the generator after g
            h = steps[-1][0]
            # Multiples of an even degree d by doubling: d, 2d, 4d, ... covers 0..n.
            shift = h.degree
            while shift <= n:
                reach |= (reach << shift) & mask
                if h.odd:
                    break
                shift <<= 1
        steps.append((g, g.degree, g.odd, bin(reach)[:1:-1], reach.bit_length() - 1))
    steps.reverse()
    return steps


def _walk(
    steps: list[tuple], start: int, rest: int, acc: _Powers, out: list[Monomial], cap: Optional[int]
) -> None:
    """Append acc times each monomial of degree rest > 0 on the generators of
    steps[start:], in canonical order: earlier generators first, higher
    powers first.  A branch is entered only where its rest is reachable."""
    for i in range(start, len(steps)):
        g, d, odd, reach, top = steps[i]
        if d > rest:
            break  # steps ascend by degree
        e = 1 if odd else rest // d
        r = rest - d * e
        while e and r <= top:
            if r == 0:
                out.append(Monomial._canonical(acc + ((g, e),)))
                if cap is not None and len(out) > cap:
                    raise ResourceLimitError(
                        f"basis in degree {out[-1].degree} exceeds cap of {cap} monomials"
                    )
            elif reach[r] == "1":
                _walk(steps, i + 1, r, acc + ((g, e),), out, cap)
            e -= 1
            r += d


def map_generators(
    p: Polynomial, images: Mapping[Generator, Polynomial], fix_unmapped: bool
) -> Polynomial:
    """Apply to p the algebra map that sends each generator g to images[g].

    A generator without an image stays fixed when fix_unmapped is set and
    goes to zero otherwise.  The images of a monomial's factors are
    multiplied in monomial order, so the Koszul signs of odd images come
    out right.  The image of each factor g^e is computed once per call and
    multiplied in as a term dict; monomials are built once, for the result.

    A generator of p is fixed when it is unmapped under fix_unmapped or its
    image is exactly g (see _is_gen), decided once per call.  A term whose
    factors are all fixed is its own image: its monomial and coefficient
    pass through unchanged, with no product taken.
    """
    fixed: dict[Generator, bool] = {}
    powers_of: dict[tuple[Generator, int], _Terms] = {}
    acc: _Terms = {}
    for mono, coeff in p.terms.items():
        for g, _ in mono:
            is_fixed = fixed.get(g)
            if is_fixed is None:
                is_fixed = fixed[g] = _is_gen(images[g], g) if g in images else fix_unmapped
            if not is_fixed:
                break
        else:  # every factor fixed: the term is its own image
            old = acc.get(mono)
            acc[mono] = coeff if old is None else old + coeff
            continue
        term: _Terms = {(): coeff}
        for factor in mono:
            image = powers_of.get(factor)
            if image is None:
                g, e = factor
                if g in images:
                    image = (images[g] if e == 1 else images[g] ** e).terms
                else:
                    image = {(factor,): 1} if fix_unmapped else {}
                powers_of[factor] = image
            term = _product(term, image)
            if not term:
                break
        for k, c in term.items():
            old = acc.get(k)
            acc[k] = c if old is None else old + c
    return Polynomial({Monomial._canonical(k): c for k, c in acc.items()})


def _is_gen(p: Polynomial, g: Generator) -> bool:
    """True when p is exactly g: the one term g^1 with coefficient 1.  A
    multiple c*g with c != 1, a sum g + h and another generator are not."""
    if len(p.terms) != 1:
        return False
    ((mono, c),) = p.terms.items()
    return c == 1 and mono == ((g, 1),)


def substitute(p: Polynomial, gen: Generator, replacement: Polynomial) -> Polynomial:
    """Replace every occurrence of gen in p by the given polynomial.

    The replacement must be homogeneous of the same degree as gen (zero is
    always allowed).  Parity disagreements are reported before plain degree
    disagreements.
    """
    if not replacement.is_zero():
        if not replacement.is_homogeneous():
            degs = sorted({m.degree for m in replacement.terms})
            raise DegreeMismatchError(
                f"replacement for {gen.name} is inhomogeneous: degrees {degs}"
            )
        rdeg = replacement.degree()
        assert rdeg is not None
        if rdeg % 2 != gen.degree % 2:
            raise ParityMismatchError(
                f"replacement for {gen.name} has degree {rdeg} of the wrong parity"
            )
        if rdeg != gen.degree:
            raise DegreeMismatchError(
                f"replacement for {gen.name} has degree {rdeg}, expected {gen.degree}"
            )
    return map_generators(p, {gen: replacement}, fix_unmapped=True)


def fresh_name(name: str, taken: set[str]) -> str:
    """name, primed until it is not taken; the result joins taken."""
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def repeated_names(names: Iterable[str]) -> list[str]:
    """The names that occur more than once, in the order of their first repeat."""
    seen: set[str] = set()
    repeats: list[str] = []
    for name in names:
        if name in seen and name not in repeats:
            repeats.append(name)
        seen.add(name)
    return repeats


def unknown_names(p: Polynomial, known: Iterable[Generator]) -> str:
    """The names of p's generators outside known, sorted and comma-joined
    (empty when there are none)."""
    return ", ".join(sorted(g.name for g in p.generators().difference(known)))
