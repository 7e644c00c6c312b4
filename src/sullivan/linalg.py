"""Exact linear algebra on sparse vectors, fraction-free.

Vectors are dicts mapping column index to a nonzero int or Fraction.
RowSpace keeps an echelon basis of a span: one primitive integer row per
pivot (its leading column), held by pivot.  Inserting a vector eliminates it
only until its leading column is not yet a pivot, by integer steps
``m*v - n*row`` (``_eliminate``, n/m from a gcd by ``_ratio``; Bareiss, Math.
Comp. 22, 1968), which also reduce the Groebner basis of ``cohomology``;
stored rows are never touched again.  Ranks and kernels need nothing more.
A normal form clears a vector at the pivots it holds, smallest first, taking
up the pivots each subtraction fills in, so its cost follows the pivots the
vector hits, not the rank.  Where a canonical basis matters (cohomology
representatives), ``basis()`` builds the reduced row echelon form as fresh
rows, by the same clearing, and writes nothing back; that form is unique for
the span, so it does not depend on the order of insertion.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Optional, Union

Vec = dict[int, Union[int, Fraction]]


def vec_sub_scaled(target: Vec, src: Vec, factor: Union[int, Fraction]) -> None:
    """target -= factor * src, dropping entries that cancel to zero."""
    for k, v in src.items():
        new = target.get(k, 0) - factor * v
        if new:
            target[k] = new
        else:
            target.pop(k, None)


def _ratio(a: int, b: int) -> tuple[int, int]:
    """(n, m) with n/m = a/b in lowest terms and m > 0, as Fraction(a, b) has it."""
    g = gcd(a, b) if b > 0 else -gcd(a, b)
    return a // g, b // g


def _eliminate(vec: Vec, row: Vec, n: int, m: int) -> None:
    """vec = m*vec - n*row in place, for n/m in lowest terms with m > 0: a
    nonzero multiple of vec - (n/m)*row, in integers when both are."""
    if m != 1:
        for k in vec:
            vec[k] *= m
    vec_sub_scaled(vec, row, n)


def _primitive(vec: Vec, tag: Vec) -> tuple[Vec, Vec]:
    """vec and tag times one common rational: integers with gcd 1.  Plain
    copies when they already are, found by one gcd of all the values, which
    raises TypeError on a Fraction among them."""
    values = [*vec.values(), *tag.values()]
    try:
        if gcd(*values) == 1:
            return dict(vec), dict(tag)
    except TypeError:
        pass
    den = lcm(*(c.denominator for c in values))
    num = gcd(*(c.numerator for c in values))
    return (
        {k: c.numerator * (den // c.denominator) // num for k, c in vec.items()},
        {k: c.numerator * (den // c.denominator) // num for k, c in tag.items()},
    )


def _clear(vec: Vec, rows_by_pivot: dict[int, Vec]) -> Vec:
    """vec cleared at each pivot of rows_by_pivot (pivot -> row whose least
    key is that pivot), in ascending pivot order.  A min-heap holds the
    residue's keys that are pivots; a subtraction adds only keys past its
    pivot, and those that are pivots join the heap.  The subtractions are
    those of a sweep over every row in pivot order, so the result is too."""
    residue = dict(vec)
    heap = [k for k in residue if k in rows_by_pivot]
    heapify(heap)
    while heap:
        pivot = heappop(heap)
        c = residue.get(pivot)
        if c is None:  # cancelled by an earlier subtraction, or a repeat
            continue
        row = rows_by_pivot[pivot]
        factor = Fraction(c) / row[pivot]
        for k, v in row.items():
            old = residue.get(k)
            if old is None:
                residue[k] = -factor * v
                if k in rows_by_pivot:
                    heappush(heap, k)
            elif new := old - factor * v:
                residue[k] = new
            else:
                del residue[k]
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
        self._rows: dict[int, Vec] = {}  # pivot -> primitive integer row
        self._tags: dict[int, Vec] = {}  # pivot -> that row's tag

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[tuple[int, Vec, Vec]]:
        """The stored (pivot, row, tag) triples, in ascending pivot order."""
        return [(pivot, self._rows[pivot], self._tags[pivot]) for pivot in sorted(self._rows)]

    def add(self, vec: Vec, tag: Optional[Vec] = None) -> tuple[Vec, Vec]:
        """Eliminate vec against the space and insert the residue if nonzero.

        Returns (residue, tag), scaled together to primitive integers.  A
        zero residue means vec was already in the span.
        """
        residue, rtag = _primitive(vec, tag or {})
        stepped = False
        while residue:
            pivot = min(residue)
            row = self._rows.get(pivot)
            if row is None:
                break
            n, m = _ratio(residue[pivot], row[pivot])
            _eliminate(residue, row, n, m)
            _eliminate(rtag, self._tags[pivot], n, m)
            stepped = True
        if stepped:
            residue, rtag = _primitive(residue, rtag)
        if residue:  # the loop stopped at a column that is not yet a pivot
            self._rows[pivot] = residue
            self._tags[pivot] = rtag
        return residue, rtag

    def reduce(self, vec: Vec) -> Vec:
        """The normal form of vec: zero at every pivot, and differing from
        vec by an element of the span.  It is unique for the span.  Only
        the pivots vec holds, or that clearing them fills in, are visited."""
        return _clear(vec, self._rows)

    def basis(self) -> list[Vec]:
        """The reduced row echelon basis of the span, in pivot order: fresh
        Fraction rows with a leading 1 and zero at every other pivot.  The
        stored rows are left as they are."""
        rref: dict[int, Vec] = {}  # pivot -> reduced row, filled from the last pivot
        for pivot in sorted(self._rows, reverse=True):
            row = self._rows[pivot]
            lead = row[pivot]
            # Rows past this pivot are already reduced and no earlier pivot
            # lies past it, so the rest of the row clears as a vector of its own.
            rest = _clear({k: Fraction(c) / lead for k, c in row.items() if k != pivot}, rref)
            rref[pivot] = {pivot: Fraction(1), **rest}
        return [rref[pivot] for pivot in sorted(rref)]
