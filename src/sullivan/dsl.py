"""Plain-text documents for models, morphisms, and construction data.

Grammar (whitespace-insensitive, # starts a line comment):

    model NAME { gen IDENT : INT ;  d IDENT = EXPR ;  ... }
    morphism NAME : SRC -> DST { IDENT -> EXPR ; ... }
    biquotient NAME { wh IDENT : INT ;  wk IDENT : INT ;
                      v IDENT : INT [as IDENT] ;
                      phiH IDENT = EXPR ;  phiK IDENT = EXPR ; ... }
    pontryagin NAME { p INT = EXPR ; ... }

An EXPR is a signed sum of terms; a term is an optional rational
coefficient p or p/q, then * separated generator powers IDENT or
IDENT^INT.  ^ binds tighter than *.  Identifiers may carry trailing
primes.  Every error carries a line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from sullivan.cdga import FreeCDGA, Morphism, _violations, compose_and_check
from sullivan.constructors import ClassifyingData, PontryaginData
from sullivan.gradedalg import NAME_PATTERN, Generator, Polynomial


class DslError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | INT | PUNCT | EOF
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<ident>""" + NAME_PATTERN + r""")
      | (?P<int>[0-9]+)
      | (?P<arrow>->)
      | (?P<punct>[{}():;=+\-*^/,])
    """,
    re.VERBOSE,
)


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise DslError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            out_kind = {"ident": "IDENT", "int": "INT"}.get(kind, "PUNCT")
            tokens.append(Token(out_kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


@dataclass(frozen=True)
class RawFactor:
    name: str
    exponent: int
    line: int
    col: int


@dataclass(frozen=True)
class RawTerm:
    coefficient: Fraction
    factors: tuple[RawFactor, ...]


@dataclass(frozen=True)
class RawExpr:
    terms: tuple[RawTerm, ...]

    def resolve(self, env: Mapping[str, Generator]) -> Polynomial:
        """The sum of the terms in text order, each the product of its factors as written."""
        total = Polynomial.zero()
        for term in self.terms:
            product = Polynomial.scalar(term.coefficient)
            for f in term.factors:
                g = env.get(f.name)
                if g is None:
                    raise DslError(f"unknown generator {f.name!r}", f.line, f.col)
                product = product * Polynomial.gen(g) ** f.exponent
            total = total + product
        return total


def _one_of(words: tuple[str, ...]) -> str:
    """The expected keys for an error: 'a' / 'a' or 'b' / 'a', 'b', or 'c'."""
    quoted = [repr(w) for w in words]
    if len(quoted) <= 2:
        return " or ".join(quoted)
    return ", ".join(quoted[:-1]) + ", or " + quoted[-1]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[Token] = None) -> "DslError":
        tok = tok or self.peek()
        return DslError(message, tok.line, tok.col)

    def unexpected(self, what: str) -> "DslError":
        """The error 'expected <what>, found <the next token>' at the next token."""
        return self.fail(f"expected {what}, found {self.peek().text or 'end of input'!r}")

    def expect(self, punct: str) -> Token:
        if not self.at_punct(punct):
            raise self.unexpected(repr(punct))
        return self.next()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def ident(self, what: str) -> Token:
        if self.peek().kind != "IDENT":
            raise self.unexpected(what)
        return self.next()

    def keyword(self, keys: tuple[str, ...], what: Optional[str] = None) -> Token:
        """The next identifier, which must be one of keys."""
        tok = self.ident(what or _one_of(keys))
        if tok.text not in keys:
            raise self.fail(f"expected {_one_of(keys)}, found {tok.text!r}", tok)
        return tok

    def integer(self, what: str) -> tuple[int, Token]:
        if self.peek().kind != "INT":
            raise self.unexpected(what)
        tok = self.next()
        return int(tok.text), tok

    # -- expressions -----------------------------------------------------

    def parse_expr(self) -> RawExpr:
        terms: list[RawTerm] = []
        sign = Fraction(1)
        if self.at_punct("+") or self.at_punct("-"):
            if self.next().text == "-":
                sign = Fraction(-1)
        terms.append(self.parse_term(sign))
        while self.at_punct("+") or self.at_punct("-"):
            sign = Fraction(1) if self.next().text == "+" else Fraction(-1)
            terms.append(self.parse_term(sign))
        return RawExpr(tuple(terms))

    def parse_term(self, sign: Fraction) -> RawTerm:
        coeff = sign
        factors: list[RawFactor] = []
        if self.peek().kind == "INT":
            num, _ = self.integer("coefficient")
            coeff *= num
            if self.at_punct("/"):
                self.next()
                den, dtok = self.integer("denominator")
                if den == 0:
                    raise self.fail("zero denominator", dtok)
                coeff /= den
            if self.at_punct("*"):
                self.next()
                factors = self.parse_factors()
        elif self.peek().kind == "IDENT":
            factors = self.parse_factors()
        else:
            raise self.unexpected("a term")
        return RawTerm(coeff, tuple(factors))

    def parse_factors(self) -> list[RawFactor]:
        factors = [self.parse_factor()]
        while self.at_punct("*"):
            self.next()
            factors.append(self.parse_factor())
        return factors

    def parse_factor(self) -> RawFactor:
        tok = self.ident("a generator name")
        exp = 1
        if self.at_punct("^"):
            self.next()
            exp, etok = self.integer("exponent")
            if exp < 1:
                raise self.fail("exponent must be positive", etok)
        return RawFactor(tok.text, exp, tok.line, tok.col)


@dataclass(frozen=True)
class GenDecl:
    name: str
    degree: int
    line: int
    col: int
    alias: Optional[str] = None  # suspension name of a biquotient middle generator


@dataclass(frozen=True)
class DiffDecl:
    gen_name: str
    expr: RawExpr
    line: int
    col: int


def _declare(decls: list[GenDecl], env: dict[str, Generator], noun: str) -> tuple[Generator, ...]:
    """The declared generators, also entered into env, where no name may be yet."""
    out = []
    for decl in decls:
        if decl.name in env:
            raise DslError(f"{noun} {decl.name!r} declared twice", decl.line, decl.col)
        if decl.degree < 1:
            raise DslError(
                f"generator degree must be >= 1, got {decl.degree}", decl.line, decl.col
            )
        env[decl.name] = Generator(decl.name, decl.degree)
        out.append(env[decl.name])
    return tuple(out)


def _assign(
    decls: list[DiffDecl],
    targets: Mapping[str, Generator],
    env: Mapping[str, Generator],
    unknown: str,
    twice: str,
) -> dict[Generator, Polynomial]:
    """Assigned generators of targets -> expressions over env; the error
    texts unknown and twice are formatted with the assigned name."""
    out: dict[Generator, Polynomial] = {}
    for decl in decls:
        g = targets.get(decl.gen_name)
        if g is None:
            raise DslError(unknown.format(decl.gen_name), decl.line, decl.col)
        if g in out:
            raise DslError(twice.format(decl.gen_name), decl.line, decl.col)
        out[g] = decl.expr.resolve(env)
    return out


@dataclass
class ModelDocument:
    name: str
    gens: list[GenDecl]
    diffs: list[DiffDecl]

    def to_model(self) -> FreeCDGA:
        env: dict[str, Generator] = {}
        gens = _declare(self.gens, env, "generator")
        diff = _assign(
            self.diffs, env, env, "unknown generator {!r}", "differential of {!r} assigned twice"
        )
        return FreeCDGA(gens, diff)


@dataclass
class MorphismDocument:
    name: str
    source_name: str
    target_name: str
    assignments: list[DiffDecl]
    line: int
    col: int

    def to_morphism(self, models: Mapping[str, FreeCDGA]) -> Morphism:
        if self.source_name not in models:
            raise DslError(f"unknown source model {self.source_name!r}", self.line, self.col)
        if self.target_name not in models:
            raise DslError(f"unknown target model {self.target_name!r}", self.line, self.col)
        source = models[self.source_name]
        target = models[self.target_name]
        images = _assign(
            self.assignments,
            {g.name: g for g in source.generators},
            {g.name: g for g in target.generators},
            "unknown source generator {!r}",
            "image of {!r} assigned twice",
        )
        return Morphism(source, target, images)


@dataclass
class BiquotientDocument:
    name: str
    wh: list[GenDecl]
    wk: list[GenDecl]
    v: list[GenDecl]
    phi_h: list[DiffDecl]
    phi_k: list[DiffDecl]

    def to_classifying_data(self) -> ClassifyingData:
        seen: dict[str, Generator] = {}
        wh = _declare(self.wh, seen, "name")
        wk = _declare(self.wk, seen, "name")
        v = _declare(self.v, seen, "name")
        v_by_name = {g.name: g for g in v}

        def restriction(decls: list[DiffDecl], side: tuple[Generator, ...], label: str):
            return _assign(
                decls,
                v_by_name,
                {g.name: g for g in side},
                label + " assigned to unknown middle generator {!r}",
                label + "({}) assigned twice",
            )

        return ClassifyingData(
            wh=wh,
            wk=wk,
            v=v,
            phi_h=restriction(self.phi_h, wh, "phiH"),
            phi_k=restriction(self.phi_k, wk, "phiK"),
            suspension_names={g: d.alias for d, g in zip(self.v, v) if d.alias is not None},
        )


@dataclass
class PontryaginDocument:
    name: str
    entries: list[tuple[int, RawExpr, int, int]]

    def to_data(self, base: FreeCDGA, rank: int) -> PontryaginData:
        env = {g.name: g for g in base.generators}
        classes = [Polynomial.zero()] * rank
        seen: set[int] = set()
        for idx, expr, line, col in self.entries:
            if idx < 1 or idx > rank:
                raise DslError(f"class index {idx} outside 1..{rank}", line, col)
            if idx in seen:
                raise DslError(f"class p_{idx} assigned twice", line, col)
            seen.add(idx)
            classes[idx - 1] = expr.resolve(env)
        return PontryaginData(base=base, rank=rank, classes=tuple(classes))


@dataclass
class Source:
    """All documents of one file, in order, with name lookup by kind."""

    models: dict[str, ModelDocument] = field(default_factory=dict)
    morphisms: dict[str, MorphismDocument] = field(default_factory=dict)
    biquotients: dict[str, BiquotientDocument] = field(default_factory=dict)
    pontryagin: dict[str, PontryaginDocument] = field(default_factory=dict)

    def resolved_models(self) -> dict[str, FreeCDGA]:
        return {name: doc.to_model() for name, doc in self.models.items()}

    def only(self, kind: str, name: Optional[str] = None):
        """The document of a kind ('model', 'morphism', ...) with the given
        name, or without a name the only document of that kind in the file."""
        table = getattr(self, _DOCUMENTS[kind][0])
        if name is not None:
            if name not in table:
                raise DslError(f"no {kind} named {name!r} in the file", 1, 1)
            return table[name]
        if len(table) != 1:
            raise DslError(f"expected exactly one {kind} document, found {len(table)}", 1, 1)
        return next(iter(table.values()))


def parse_source(text: str) -> Source:
    parser = _Parser(_lex(text))
    source = Source()
    while parser.peek().kind != "EOF":
        head = parser.keyword(tuple(_DOCUMENTS), "a document keyword")
        table_name, parse_body = _DOCUMENTS[head.text]
        name_tok = parser.ident(f"a {head.text} name")
        table = getattr(source, table_name)
        doc = parse_body(parser, name_tok)
        if name_tok.text in table:
            raise parser.fail(f"document {name_tok.text!r} defined twice", name_tok)
        table[name_tok.text] = doc
    return source


# Statement forms of the model and biquotient bodies: a key followed by ':'
# declares a generator (KEY NAME : INT ;), a key followed by '=' assigns an
# expression to one (KEY NAME = EXPR ;).  Only a biquotient's middle
# generators, key 'v', may name their suspension with a trailing `as NAME`.
# The keys are in the field order of the document a body makes.
_MODEL_FORMS = {"gen": ":", "d": "="}
_BIQUOTIENT_FORMS = {"wh": ":", "wk": ":", "v": ":", "phiH": "=", "phiK": "="}


def _parse_statements(
    parser: _Parser, forms: Mapping[str, str], assigned: str = "a generator name"
) -> list[list]:
    """A `{ ... }` body: one list of GenDecls or DiffDecls per key, in key order.
    assigned names what an assignment's name must be, for errors."""
    keys = tuple(forms)
    out: dict[str, list] = {key: [] for key in keys}
    parser.expect("{")
    while not parser.at_punct("}"):
        key = parser.keyword(keys).text
        gen_tok = parser.ident("a generator name" if forms[key] == ":" else assigned)
        parser.expect(forms[key])
        if forms[key] == ":":
            degree, _ = parser.integer("a degree")
            alias: Optional[str] = None
            if key == "v" and parser.peek().text == "as":
                parser.next()
                alias = parser.ident("a suspension name").text
            out[key].append(GenDecl(gen_tok.text, degree, gen_tok.line, gen_tok.col, alias))
        else:
            expr = parser.parse_expr()
            out[key].append(DiffDecl(gen_tok.text, expr, gen_tok.line, gen_tok.col))
        parser.expect(";")
    parser.expect("}")
    return list(out.values())


def _parse_model_body(parser: _Parser, name_tok: Token) -> ModelDocument:
    return ModelDocument(name_tok.text, *_parse_statements(parser, _MODEL_FORMS))


def _parse_biquotient_body(parser: _Parser, name_tok: Token) -> BiquotientDocument:
    body = _parse_statements(parser, _BIQUOTIENT_FORMS, "a middle generator name")
    return BiquotientDocument(name_tok.text, *body)


def _parse_morphism_body(parser: _Parser, name_tok: Token) -> MorphismDocument:
    parser.expect(":")
    src = parser.ident("a source model name")
    parser.expect("->")
    dst = parser.ident("a target model name")
    parser.expect("{")
    doc = MorphismDocument(
        name_tok.text, src.text, dst.text, [], name_tok.line, name_tok.col
    )
    while not parser.at_punct("}"):
        gen_tok = parser.ident("a source generator name")
        parser.expect("->")
        expr = parser.parse_expr()
        parser.expect(";")
        doc.assignments.append(DiffDecl(gen_tok.text, expr, gen_tok.line, gen_tok.col))
    parser.expect("}")
    return doc


def _parse_pontryagin_body(parser: _Parser, name_tok: Token) -> PontryaginDocument:
    parser.expect("{")
    doc = PontryaginDocument(name_tok.text, [])
    while not parser.at_punct("}"):
        parser.keyword(("p",))
        idx, itok = parser.integer("a class index")
        parser.expect("=")
        expr = parser.parse_expr()
        parser.expect(";")
        doc.entries.append((idx, expr, itok.line, itok.col))
    parser.expect("}")
    return doc


# Document keyword -> (Source table, body parser).
_DOCUMENTS = {
    "model": ("models", _parse_model_body),
    "morphism": ("morphisms", _parse_morphism_body),
    "biquotient": ("biquotients", _parse_biquotient_body),
    "pontryagin": ("pontryagin", _parse_pontryagin_body),
}


# -- convenience entry points -------------------------------------------


def parse_model(text: str, name: Optional[str] = None) -> ModelDocument:
    """The single (or named) model document of a file."""
    return parse_source(text).only("model", name)


def parse_morphism(text: str) -> Morphism:
    """The single morphism of a file, resolved against its model documents
    and checked to be a CDGA map."""
    source = parse_source(text)
    doc = source.only("morphism")
    morphism = doc.to_morphism(source.resolved_models())
    violations = compose_and_check(morphism)
    if violations:
        raise DslError(
            f"morphism {doc.name!r} is not a CDGA map: " + "; ".join(violations), doc.line, doc.col
        )
    return morphism


def parse_classifying(text: str, name: Optional[str] = None) -> ClassifyingData:
    """The single (or named) biquotient document of a file, resolved."""
    return parse_source(text).only("biquotient", name).to_classifying_data()


def parse_pontryagin(text: str, base: FreeCDGA, rank: int) -> PontryaginData:
    """The single pontryagin document of a file, resolved over a base model."""
    return parse_source(text).only("pontryagin").to_data(base, rank)


def parse_expression(text: str, gens: Mapping[str, Generator]) -> Polynomial:
    """A standalone expression over the given generators."""
    parser = _Parser(_lex(text))
    expr = parser.parse_expr()
    if parser.peek().kind != "EOF":
        raise parser.fail(f"unexpected trailing input {parser.peek().text!r}")
    return expr.resolve(gens)


def check_document(doc: ModelDocument) -> list[str]:
    """Validation diagnostics for a model document, tagged with positions.

    Each violation names a generator with a nonzero differential and is
    placed at that generator's d declaration, so the offending line is part
    of the message.
    """
    decls = {decl.gen_name: decl for decl in doc.diffs}
    return [
        str(DslError(violation, decls[g.name].line, decls[g.name].col))
        for g, violation in _violations(doc.to_model())
    ]


def render_model(model: FreeCDGA, name: str = "M") -> str:
    """Render a model as a document; parsing it back gives an equal model."""
    lines = [f"model {name} {{"]
    for g in model.generators:
        lines.append(f"  gen {g.name} : {g.degree};")
    for g in model.generators:
        dg = model.d(g)
        if not dg.is_zero():
            lines.append(f"  d {g.name} = {dg};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_morphism(
    m: Morphism, name: str = "f", source_name: str = "A", target_name: str = "B"
) -> str:
    lines = [
        render_model(m.source, source_name),
        render_model(m.target, target_name),
        f"morphism {name} : {source_name} -> {target_name} {{",
    ]
    for g in m.source.generators:
        lines.append(f"  {g.name} -> {m.image_of(g)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_classifying(data: ClassifyingData, name: str = "B") -> str:
    """Render classifying data as a biquotient document (round-trips).

    Zero restriction images are omitted; parsing the result gives back
    equal ClassifyingData provided the input also omits them.
    """
    lines = [f"biquotient {name} {{"]
    for g in data.wh:
        lines.append(f"  wh {g.name} : {g.degree};")
    for g in data.wk:
        lines.append(f"  wk {g.name} : {g.degree};")
    for g in data.v:
        suffix = ""
        sname = data.suspension_names.get(g)
        if sname is not None:
            suffix = f" as {sname}"
        lines.append(f"  v {g.name} : {g.degree}{suffix};")
    for label, phi in (("phiH", data.phi_h), ("phiK", data.phi_k)):
        for g in data.v:
            img = phi.get(g)
            if img is not None and not img.is_zero():
                lines.append(f"  {label} {g.name} = {img};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_pontryagin(data: PontryaginData, name: str = "P") -> str:
    """Render the nonzero characteristic classes as a pontryagin document."""
    lines = [f"pontryagin {name} {{"]
    for i, p in enumerate(data.padded_classes(), start=1):
        if not p.is_zero():
            lines.append(f"  p {i} = {p};")
    lines.append("}")
    return "\n".join(lines) + "\n"
