"""Exact linear algebra on sparse vectors, fraction-free.

Vectors are dicts mapping column index to a nonzero int or Fraction.
RowSpace keeps an echelon basis of a span: one primitive integer row per
pivot (its leading column).  Inserting a vector eliminates it only until
its leading column is not yet a pivot, with integer ``m*v - n*row`` steps
(Bareiss, Math. Comp. 22, 1968); the stored rows are never touched again.
Ranks and kernels need nothing more.  Where a canonical basis matters
(cohomology representatives), ``basis()`` builds the reduced row echelon
form as fresh rows and writes nothing back; that form is unique for the
span, so it does not depend on the order of insertion.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Union

Vec = dict[int, Union[int, Fraction]]


def vec_sub_scaled(target: Vec, src: Vec, factor: Union[int, Fraction]) -> None:
    """target -= factor * src, dropping entries that cancel to zero."""
    for k, v in src.items():
        new = target.get(k, 0) - factor * v
        if new:
            target[k] = new
        else:
            target.pop(k, None)


def _eliminate(vec: Vec, row: Vec, ratio: Fraction) -> None:
    """vec = m*vec - n*row in place, where ratio = n/m in lowest terms: a
    nonzero multiple of vec - ratio*row, in integers when both are."""
    m = ratio.denominator
    if m != 1:
        for k in vec:
            vec[k] *= m
    vec_sub_scaled(vec, row, ratio.numerator)


def _primitive(vec: Vec, tag: Vec) -> tuple[Vec, Vec]:
    """vec and tag times one common rational: integers with gcd 1."""
    values = [*vec.values(), *tag.values()]
    den = lcm(*(c.denominator for c in values))
    num = gcd(*(c.numerator for c in values))
    return (
        {k: c.numerator * (den // c.denominator) // num for k, c in vec.items()},
        {k: c.numerator * (den // c.denominator) // num for k, c in tag.items()},
    )


def _clear(vec: Vec, rows: Iterable[tuple[int, Vec, Vec]]) -> Vec:
    """vec cleared at each pivot of rows, (pivot, row, tag) triples in ascending pivot order."""
    residue = dict(vec)
    for pivot, row, _ in rows:
        if pivot in residue:
            vec_sub_scaled(residue, row, Fraction(residue[pivot]) / row[pivot])
    return residue


class RowSpace:
    """Span of a set of sparse vectors, held in echelon form.

    Each inserted vector may carry a tag vector (over an unrelated index
    set); every row operation applied to a vector is applied to its tag,
    so a vector that reduces to zero yields, in its tag, a vanishing
    linear combination of the original inserts.  This is how kernels are
    read off while ranks are accumulated.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[int, Vec, Vec]] = []  # (pivot, row, tag), pivot ascending
        self._pivots: dict[int, tuple[Vec, Vec]] = {}  # pivot -> (row, tag)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: Vec, tag: Optional[Vec] = None) -> tuple[Vec, Vec]:
        """Eliminate vec against the space and insert the residue if nonzero.

        Returns (residue, tag), scaled together to primitive integers.  A
        zero residue means vec was already in the span.
        """
        residue, rtag = _primitive(vec, tag or {})
        stepped = False
        while residue:
            pivot = min(residue)
            hit = self._pivots.get(pivot)
            if hit is None:
                break
            row, row_tag = hit
            ratio = Fraction(residue[pivot], row[pivot])
            _eliminate(residue, row, ratio)
            _eliminate(rtag, row_tag, ratio)
            stepped = True
        if stepped:
            residue, rtag = _primitive(residue, rtag)
        if residue:  # the loop stopped at a column that is not yet a pivot
            self._pivots[pivot] = (residue, rtag)
            self.rows.insert(bisect(self.rows, pivot, key=lambda r: r[0]), (pivot, residue, rtag))
        return residue, rtag

    def reduce(self, vec: Vec) -> Vec:
        """The normal form of vec: zero at every pivot, and differing from
        vec by an element of the span.  It is unique for the span."""
        return _clear(vec, self.rows)

    def basis(self) -> list[Vec]:
        """The reduced row echelon basis of the span, in pivot order: fresh
        Fraction rows with a leading 1 and zero at every other pivot.  The
        stored rows are left as they are."""
        rref: list[tuple[int, Vec, Vec]] = []  # pivot descending
        for pivot, row, _ in reversed(self.rows):
            lead = row[pivot]
            # Rows past this pivot are already reduced and no earlier pivot
            # lies past it, so the rest of the row clears as a vector of its own.
            rest = {k: Fraction(c) / lead for k, c in row.items() if k != pivot}
            rest = _clear(rest, reversed(rref))
            rref.append((pivot, {pivot: Fraction(1), **rest}, {}))
        return [row for _, row, _ in reversed(rref)]
