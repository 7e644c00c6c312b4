"""Exact rational linear algebra on sparse vectors.

Vectors are dicts mapping column index to a nonzero Fraction.  RowSpace
keeps a reduced row echelon basis of the span; rows are normalized to a
leading coefficient of 1 and fully reduced against each other, so the
basis of a given span is unique and every computation is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

Vec = dict[int, Fraction]


def vec_sub_scaled(target: Vec, src: Vec, factor: Fraction) -> None:
    """target -= factor * src, dropping entries that cancel to zero."""
    if not factor:
        return
    for k, v in src.items():
        new = target.get(k, Fraction(0)) - factor * v
        if new:
            target[k] = new
        else:
            target.pop(k, None)


def vec_scale(v: Vec, factor: Fraction) -> Vec:
    return {k: c * factor for k, c in v.items()}


class RowSpace:
    """Span of a set of sparse vectors, held in reduced echelon form.

    Each inserted vector may carry a tag vector (over an unrelated index
    set); every row operation applied to a vector is applied to its tag,
    so a vector that reduces to zero yields, in its tag, the linear
    combination of the original inserts that produced it.  This is how
    kernels are read off while ranks are accumulated.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[int, Vec, Vec]] = []  # (pivot, row, tag), pivot ascending

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vec, tag: Optional[Vec] = None) -> tuple[Vec, Vec]:
        vec = dict(vec)
        tag = dict(tag) if tag is not None else {}
        for pivot, row, row_tag in self.rows:
            c = vec.get(pivot)
            if c:
                vec_sub_scaled(vec, row, c)
                vec_sub_scaled(tag, row_tag, c)
        return vec, tag

    def add(self, vec: Vec, tag: Optional[Vec] = None) -> tuple[Vec, Vec]:
        """Reduce vec against the space and insert the residue if nonzero.

        Returns the reduced (residue, tag).  A zero residue means vec was
        already in the span.
        """
        residue, rtag = self.reduce(vec, tag)
        if residue:
            pivot = min(residue)
            inv = Fraction(1) / residue[pivot]
            residue = vec_scale(residue, inv)
            rtag = vec_scale(rtag, inv)
            # Keep existing rows fully reduced against the new pivot.
            for i, (p, row, row_tag) in enumerate(self.rows):
                c = row.get(pivot)
                if c:
                    vec_sub_scaled(row, residue, c)
                    vec_sub_scaled(row_tag, rtag, c)
                    self.rows[i] = (p, row, row_tag)
            self.rows.append((pivot, residue, rtag))
            self.rows.sort(key=lambda r: r[0])
        return residue, rtag

    def coordinates(self, vec: Vec) -> Optional[list[Fraction]]:
        """Coefficients expressing vec over the echelon rows, or None.

        Each row is 1 at its own pivot and 0 at every other pivot, so a
        vector in the span has its coefficients at the pivots.
        """
        residue, _ = self.reduce(vec)
        if residue:
            return None
        return [vec.get(pivot, Fraction(0)) for pivot, _, _ in self.rows]

    def basis(self) -> list[Vec]:
        return [dict(row) for _, row, _ in self.rows]
