"""Seeded model documents for the pure-gen12 and cli-nonpure workloads.

A seed only relabels generators and rescales differential terms by nonzero
rationals.  Relabelling changes the canonical monomial order, and so the
pivot order of every elimination and the printed representatives, but the
models of different seeds are isomorphic over the reals, so their Betti
numbers are the literals below for every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

COEFF_POOL = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-3),
    Fraction(1, 2),
    Fraction(-2, 3),
    Fraction(5),
    Fraction(7, 4),
)

PURE_MAX_DEGREE = 16
# Twelve generators: x_i of degree 2 and y_i of degree 3, d y_i = c_i x_i x_{i+1 mod 6}.
PURE_BETTI = {
    0: 1, 2: 6, 4: 15, 5: 6, 6: 26, 7: 24, 8: 39, 9: 48, 10: 62,
    11: 78, 12: 95, 13: 114, 14: 135, 15: 158, 16: 183,
}

NONPURE_MAX_DEGREE = 16
NONPURE_CHECK_DEGREE = 20
# Twelve generators: x_k of degree 2, e_k of degree 3, c_k of degree 5,
# d c_k = a_k e_k e_{k+1} + b_k x_k^2 x_{k+1}, indices mod 4.  The e_k e_{k+1}
# term makes the model non-pure, and no differential has a linear term, so
# reduce finds no reducible pair.
NONPURE_BETTI = {
    0: 1, 2: 4, 3: 4, 4: 10, 5: 16, 6: 22, 7: 40, 8: 43, 9: 68, 10: 76,
    11: 92, 12: 111, 13: 108, 14: 134, 15: 132, 16: 151,
}


def _sum(terms: list[tuple[Fraction, str]]) -> str:
    """Render sum c*m for the document format, which has no unary plus."""
    out = ""
    for c, mono in terms:
        sign = "-" if c < 0 else ("+" if out else "")
        out += f" {sign} " if out else sign
        out += f"{abs(c)}*{mono}"
    return out


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    return [f"{prefix}{k}" for k in rng.sample(range(count), count)]


def pure_gen12_text(seed: int) -> str:
    rng = random.Random(seed)
    xs, ys = _names(rng, "x", 6), _names(rng, "y", 6)
    lines = ["model pure_gen12 {"]
    lines += [f"  gen {x} : 2;" for x in xs]
    lines += [f"  gen {y} : 3;" for y in ys]
    for i, y in enumerate(ys):
        c = rng.choice(COEFF_POOL)
        lines.append(f"  d {y} = {_sum([(c, f'{xs[i]}*{xs[(i + 1) % 6]}')])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def nonpure_text(seed: int) -> str:
    rng = random.Random(seed)
    xs, es, cs = _names(rng, "x", 4), _names(rng, "e", 4), _names(rng, "c", 4)
    lines = ["model nonpure {"]
    lines += [f"  gen {x} : 2;" for x in xs]
    lines += [f"  gen {e} : 3;" for e in es]
    lines += [f"  gen {c} : 5;" for c in cs]
    for k, c in enumerate(cs):
        a, b = rng.choice(COEFF_POOL), rng.choice(COEFF_POOL)
        terms = [(a, f"{es[k]}*{es[(k + 1) % 4]}"), (b, f"{xs[k]}^2*{xs[(k + 1) % 4]}")]
        lines.append(f"  d {c} = {_sum(terms)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def pure_basis_sizes(max_degree: int) -> list[int]:
    """|basis_n| of the pure-gen12 algebra for n <= max_degree, by series.

    The Hilbert series is 1/(1-t^2)^6 * (1+t^3)^6, expanded directly; it is
    independent of the engine's basis enumeration.
    """
    series = [1] + [0] * max_degree
    for _ in range(6):
        for n in range(2, max_degree + 1):  # multiply by 1/(1-t^2)
            series[n] += series[n - 2]
    for _ in range(6):
        for n in range(max_degree, 2, -1):  # multiply by (1+t^3)
            series[n] += series[n - 3]
    return series
