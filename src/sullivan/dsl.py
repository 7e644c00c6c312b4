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
primes.

One statement loop reads every body, driven by its document kind's table
of statement forms: a statement declares a generator (NAME : INT) or
assigns an expression to a name (NAME = EXPR, or NAME -> EXPR in a
morphism).  A statement keeps its name token, and an expression the token
of each generator it names, as their positions.  Resolution declares
generators through one routine and resolves every assignment
(differentials, phiH and phiK, morphism images, Pontryagin classes)
through one other.  Every error carries a line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional

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


def _error(message: str, tok: Token) -> DslError:
    return DslError(message, tok.line, tok.col)


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


# An expression is parsed before the generators it names are known, into
# its terms: a tuple of (coefficient, ((name token, exponent), ...)).
def _resolve(terms: tuple, env: Mapping[str, Generator]) -> Polynomial:
    """The sum of the terms in text order, each the product of its factors as written."""
    total = Polynomial.zero()
    for coefficient, factors in terms:
        product = Polynomial.scalar(coefficient)
        for tok, exponent in factors:
            g = env.get(tok.text)
            if g is None:
                raise _error(f"unknown generator {tok.text!r}", tok)
            product = product * Polynomial.gen(g) ** exponent
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

    def unexpected(self, what: str) -> DslError:
        """The error 'expected <what>, found <the next token>' at the next token."""
        tok = self.peek()
        return _error(f"expected {what}, found {tok.text or 'end of input'!r}", tok)

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def accept(self, text: str) -> bool:
        """Step over the next token if it reads text."""
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, punct: str) -> Token:
        if not self.at(punct):
            raise self.unexpected(repr(punct))
        return self.next()

    def take(self, kind: str, what: str) -> Token:
        """The next token, which must be of kind (IDENT or INT); what names it in errors."""
        if self.peek().kind != kind:
            raise self.unexpected(what)
        return self.next()

    def keyword(self, keys: tuple[str, ...], what: Optional[str] = None) -> str:
        """The next identifier, which must be one of keys."""
        tok = self.take("IDENT", what or _one_of(keys))
        if tok.text not in keys:
            raise _error(f"expected {_one_of(keys)}, found {tok.text!r}", tok)
        return tok.text

    def integer(self, what: str) -> tuple[int, Token]:
        tok = self.take("INT", what)
        return int(tok.text), tok

    # -- expressions -----------------------------------------------------

    def parse_expr(self) -> tuple:
        """A signed sum of terms; only the first may leave out its sign."""
        terms = []
        while not terms or self.at("+") or self.at("-"):
            sign = Fraction(1)
            if self.at("+") or self.at("-"):
                sign = Fraction(-1 if self.next().text == "-" else 1)
            terms.append(self.parse_term(sign))
        return tuple(terms)

    def parse_term(self, coefficient: Fraction) -> tuple:
        if self.peek().kind == "INT":
            coefficient *= int(self.next().text)
            if self.accept("/"):
                den, dtok = self.integer("denominator")
                if den == 0:
                    raise _error("zero denominator", dtok)
                coefficient /= den
            if not self.accept("*"):
                return coefficient, ()
        elif self.peek().kind != "IDENT":
            raise self.unexpected("a term")
        factors = [self.parse_factor()]
        while self.accept("*"):
            factors.append(self.parse_factor())
        return coefficient, tuple(factors)

    def parse_factor(self) -> tuple[Token, int]:
        tok = self.take("IDENT", "a generator name")
        if not self.accept("^"):
            return tok, 1
        exponent, etok = self.integer("exponent")
        if exponent < 1:
            raise _error("exponent must be positive", etok)
        return tok, exponent


@dataclass(frozen=True)
class _Statement:
    name: Token  # the declared or assigned name as written: a position for errors
    value: object  # a degree, or an expression's terms
    alias: Optional[str] = None  # suspension name of a biquotient middle generator


# Each document type's `forms` maps a body keyword to its statement form: the
# token kind of the name, what the name is called in errors, and the
# separator after it.  A degree follows ':', an
# expression follows '=' or '->'.  Only a middle generator, key 'v', may name
# its suspension with a trailing `as NAME`.  A morphism statement starts
# with its name, so its one form has the empty key.
_DECLARE = ("IDENT", "a generator name", ":")
_ASSIGN = ("IDENT", "a generator name", "=")
_RESTRICT = ("IDENT", "a middle generator name", "=")


def _parse_body(parser: _Parser, forms: Mapping[str, tuple[str, str, str]]) -> dict:
    """A `{ ... }` body: its statements by key, each list in text order."""
    body: dict[str, list[_Statement]] = {key: [] for key in forms}
    parser.expect("{")
    while not parser.at("}"):
        key = "" if "" in forms else parser.keyword(tuple(forms))
        kind, what, separator = forms[key]
        name = parser.take(kind, what)
        parser.expect(separator)
        alias = None
        if separator == ":":
            value, _ = parser.integer("a degree")
            if key == "v" and parser.accept("as"):
                alias = parser.take("IDENT", "a suspension name").text
        else:
            value = parser.parse_expr()
        parser.expect(";")
        body[key].append(_Statement(name, value, alias))
    parser.expect("}")
    return body


def _declare(
    statements: list[_Statement], env: dict[str, Generator], noun: str
) -> tuple[Generator, ...]:
    """The declared generators, also entered into env, where no name may be yet."""
    for s in statements:
        if s.name.text in env:
            raise _error(f"{noun} {s.name.text!r} declared twice", s.name)
        if s.value < 1:
            raise _error(f"generator degree must be >= 1, got {s.value}", s.name)
        env[s.name.text] = Generator(s.name.text, s.value)
    return tuple(env[s.name.text] for s in statements)


def _assign(
    statements: list[_Statement],
    target: Callable,
    env: Mapping[str, Generator],
    unknown: str,
    twice: str,
    key: Callable = str,
) -> dict:
    """What each statement assigns -> its expression resolved over env.
    target takes key(the statement's name) to what it assigns, or to None;
    the error texts unknown and twice are formatted with that key."""
    out: dict = {}
    for s in statements:
        k = key(s.name.text)
        assigned = target(k)
        if assigned is None:
            raise _error(unknown.format(k), s.name)
        if assigned in out:
            raise _error(twice.format(k), s.name)
        out[assigned] = _resolve(s.value, env)
    return out


def _by_name(gens: tuple[Generator, ...]) -> dict[str, Generator]:
    return {g.name: g for g in gens}


@dataclass
class _Document:
    head: Token  # the document's name as written
    body: dict[str, list[_Statement]]
    header: tuple[Token, ...] = ()  # a morphism's source and target model names

    @property
    def name(self) -> str:
        return self.head.text


class ModelDocument(_Document):
    forms = {"gen": _DECLARE, "d": _ASSIGN}

    def to_model(self) -> FreeCDGA:
        env: dict[str, Generator] = {}
        gens = _declare(self.body["gen"], env, "generator")
        diff = _assign(
            self.body["d"],
            env.get,
            env,
            "unknown generator {!r}",
            "differential of {!r} assigned twice",
        )
        return FreeCDGA(gens, diff)


class MorphismDocument(_Document):
    forms = {"": ("IDENT", "a source generator name", "->")}

    @property
    def source_name(self) -> str:
        return self.header[0].text

    @property
    def target_name(self) -> str:
        return self.header[1].text

    def to_morphism(self, models: Mapping[str, FreeCDGA]) -> Morphism:
        for end, tok in zip(("source", "target"), self.header):
            if tok.text not in models:
                raise _error(f"unknown {end} model {tok.text!r}", self.head)
        source, target = (models[tok.text] for tok in self.header)
        images = _assign(
            self.body[""],
            _by_name(source.generators).get,
            _by_name(target.generators),
            "unknown source generator {!r}",
            "image of {!r} assigned twice",
        )
        return Morphism(source, target, images)


class BiquotientDocument(_Document):
    forms = {"wh": _DECLARE, "wk": _DECLARE, "v": _DECLARE, "phiH": _RESTRICT, "phiK": _RESTRICT}

    def to_classifying_data(self) -> ClassifyingData:
        seen: dict[str, Generator] = {}
        wh, wk, v = (_declare(self.body[key], seen, "name") for key in ("wh", "wk", "v"))

        def restriction(key: str, side: tuple[Generator, ...]):
            return _assign(
                self.body[key],
                _by_name(v).get,
                _by_name(side),
                key + " assigned to unknown middle generator {!r}",
                key + "({}) assigned twice",
            )

        phi_h, phi_k = restriction("phiH", wh), restriction("phiK", wk)
        aliases = {g: s.alias for s, g in zip(self.body["v"], v) if s.alias is not None}
        return ClassifyingData(wh, wk, v, phi_h, phi_k, suspension_names=aliases)


class PontryaginDocument(_Document):
    forms = {"p": ("INT", "a class index", "=")}

    def to_data(self, base: FreeCDGA, rank: int) -> PontryaginData:
        classes = _assign(
            self.body["p"],
            lambda i: i if 1 <= i <= rank else None,
            _by_name(base.generators),
            f"class index {{}} outside 1..{rank}",
            "class p_{} assigned twice",
            int,
        )
        return PontryaginData(base=base, rank=rank, classes=classes)


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


# Document keyword -> (Source table, document type).
_DOCUMENTS = {
    "model": ("models", ModelDocument),
    "morphism": ("morphisms", MorphismDocument),
    "biquotient": ("biquotients", BiquotientDocument),
    "pontryagin": ("pontryagin", PontryaginDocument),
}


def parse_source(text: str) -> Source:
    parser = _Parser(_lex(text))
    source = Source()
    while parser.peek().kind != "EOF":
        kind = parser.keyword(tuple(_DOCUMENTS), "a document keyword")
        table_name, document = _DOCUMENTS[kind]
        head = parser.take("IDENT", f"a {kind} name")
        header: tuple[Token, ...] = ()
        if kind == "morphism":
            parser.expect(":")
            src = parser.take("IDENT", "a source model name")
            parser.expect("->")
            header = (src, parser.take("IDENT", "a target model name"))
        doc = document(head, _parse_body(parser, document.forms), header)
        table = getattr(source, table_name)
        if head.text in table:
            raise _error(f"document {head.text!r} defined twice", head)
        table[head.text] = doc
    return source


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
        message = f"morphism {doc.name!r} is not a CDGA map: " + "; ".join(violations)
        raise _error(message, doc.head)
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
    terms = parser.parse_expr()
    if parser.peek().kind != "EOF":
        raise _error(f"unexpected trailing input {parser.peek().text!r}", parser.peek())
    return _resolve(terms, gens)


def check_document(doc: ModelDocument) -> list[str]:
    """Validation diagnostics for a model document, tagged with positions.

    Each violation names a generator with a nonzero differential and is
    placed at that generator's d statement, so the offending line is part
    of the message.
    """
    names = {s.name.text: s.name for s in doc.body["d"]}
    return [str(_error(violation, names[g.name])) for g, violation in _violations(doc.to_model())]


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
    """Render classifying data as a biquotient document; parsing it back
    gives equal ClassifyingData."""
    lines = [f"biquotient {name} {{"]
    for key, gens in (("wh", data.wh), ("wk", data.wk), ("v", data.v)):
        for g in gens:
            alias = data.suspension_names.get(g) if key == "v" else None
            suffix = "" if alias is None else f" as {alias}"
            lines.append(f"  {key} {g.name} : {g.degree}{suffix};")
    for label, phi in (("phiH", data.phi_h), ("phiK", data.phi_k)):
        for g in data.v:
            if g in phi:
                lines.append(f"  {label} {g.name} = {phi[g]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_pontryagin(data: PontryaginData, name: str = "P") -> str:
    """Render the characteristic classes as a pontryagin document."""
    lines = [f"pontryagin {name} {{"]
    for i, p in data.classes.items():
        lines.append(f"  p {i} = {p};")
    lines.append("}")
    return "\n".join(lines) + "\n"
