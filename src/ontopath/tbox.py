"""TBoxes of the supported ontology fragment: parsing, validation, normal form.

The fragment admits concept inclusions built from the top concept,
concept names, existential restrictions over (possibly inverted) roles,
and conjunction, plus role inclusions.  Concept names start with an
uppercase letter, role names with a lowercase letter; ``top`` is the
reserved name of the universal concept.  Negation is not part of the
fragment and is rejected with a dedicated diagnostic.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FragmentViolation, TBoxSyntaxError

TOP = "top"
FRESH_PREFIX = "__nf"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = {"top", "exists", "inv"}
_NEGATION_WORDS = {"not", "neg"}


@dataclass(frozen=True)
class Role:
    """A role name, optionally inverted.  Double inversion never nests."""

    name: str
    inverted: bool = False

    def inverse(self) -> "Role":
        return Role(self.name, not self.inverted)

    def __str__(self) -> str:
        return f"inv({self.name})" if self.inverted else self.name


class ConceptExpr:
    """Base class for concept expressions."""


@dataclass(frozen=True)
class Top(ConceptExpr):
    def __str__(self) -> str:
        return TOP


@dataclass(frozen=True)
class Name(ConceptExpr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Exists(ConceptExpr):
    role: Role
    inner: ConceptExpr

    def __str__(self) -> str:
        inner = f"({self.inner})" if isinstance(self.inner, And) else str(self.inner)
        return f"exists {self.role} . {inner}"


@dataclass(frozen=True)
class And(ConceptExpr):
    """Conjunction with canonical (flattened, sorted, deduplicated) parts.

    Build values through :func:`conj` so that equality is insensitive to
    associativity and commutativity.
    """

    parts: tuple

    def __str__(self) -> str:
        return " & ".join(f"({p})" if isinstance(p, And) else str(p) for p in self.parts)


def conj(parts) -> ConceptExpr:
    """Canonical conjunction: flattens, drops ``top``, sorts and dedups."""
    flat = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.parts)
        elif isinstance(p, Top):
            continue
        else:
            flat.append(p)
    unique = sorted(set(flat), key=str)
    if not unique:
        return Top()
    if len(unique) == 1:
        return unique[0]
    return And(tuple(unique))


@dataclass(frozen=True)
class ConceptInclusion:
    lhs: ConceptExpr
    rhs: ConceptExpr

    def __str__(self) -> str:
        return f"{self.lhs} <= {self.rhs}"


@dataclass(frozen=True)
class RoleInclusion:
    sub: Role
    sup: Role

    def __str__(self) -> str:
        return f"{self.sub} <= {self.sup}"


# Normal-form axioms.  Every one of these is also expressible as a plain
# axiom (see as_axiom); names may include normalization-fresh `__nf` names.

@dataclass(frozen=True)
class AtomicInclusion:
    """A <= B with both sides concept names or top."""

    lhs: str
    rhs: str


@dataclass(frozen=True)
class ConjInclusion:
    """B1 & ... & Bk <= A with k >= 2, all names."""

    lhs: tuple
    rhs: str


@dataclass(frozen=True)
class ExistsLeft:
    """exists role . filler <= rhs (filler a name or top)."""

    role: Role
    filler: str
    rhs: str


@dataclass(frozen=True)
class ExistsRight:
    """lhs <= exists role . filler."""

    lhs: str
    role: Role
    filler: str


def _name_expr(name: str) -> ConceptExpr:
    return Top() if name == TOP else Name(name)


def as_axiom(nf):
    """Convert a normal-form axiom back into a plain axiom."""
    if isinstance(nf, AtomicInclusion):
        return ConceptInclusion(_name_expr(nf.lhs), _name_expr(nf.rhs))
    if isinstance(nf, ConjInclusion):
        return ConceptInclusion(conj([Name(n) for n in nf.lhs]), _name_expr(nf.rhs))
    if isinstance(nf, ExistsLeft):
        return ConceptInclusion(Exists(nf.role, _name_expr(nf.filler)), _name_expr(nf.rhs))
    if isinstance(nf, ExistsRight):
        return ConceptInclusion(_name_expr(nf.lhs), Exists(nf.role, _name_expr(nf.filler)))
    if isinstance(nf, RoleInclusion):
        return nf
    raise TypeError(f"not a normal-form axiom: {nf!r}")


@dataclass(frozen=True)
class TBox:
    """An ordered sequence of axioms, optionally with its normal form."""

    axioms: tuple
    normalized: tuple = None

    def __str__(self) -> str:
        return tbox_to_text(self)


# ---------------------------------------------------------------------------
# Parsing


@dataclass(frozen=True)
class _Tok:
    kind: str  # NAME, OP, NEG
    text: str
    col: int


def _tokenize_line(line: str, lineno: int):
    tokens = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "#":
            break
        if c.isspace():
            i += 1
            continue
        if c in "!~¬":
            tokens.append(_Tok("NEG", c, i + 1))
            i += 1
            continue
        if line.startswith("<=", i):
            tokens.append(_Tok("OP", "<=", i + 1))
            i += 2
            continue
        if c in "&().":
            tokens.append(_Tok("OP", c, i + 1))
            i += 1
            continue
        m = _IDENT_RE.match(line, i)
        if m:
            word = m.group(0)
            kind = "NEG" if word in _NEGATION_WORDS else "NAME"
            tokens.append(_Tok(kind, word, i + 1))
            i = m.end()
            continue
        raise TBoxSyntaxError(f"unexpected character {c!r}", lineno, i + 1)
    return tokens


class _LineParser:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise TBoxSyntaxError("unexpected end of axiom", self.lineno)
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise TBoxSyntaxError(f"expected {text!r}, found {tok.text!r}", self.lineno, tok.col)
        return tok

    def error(self, message, tok=None):
        col = tok.col if tok is not None else None
        raise TBoxSyntaxError(message, self.lineno, col)

    # role := NAME | inv ( NAME )
    def parse_role(self) -> Role:
        tok = self.next()
        if tok.kind == "NEG":
            raise FragmentViolation(
                "negation is not part of the input fragment", construct="negation")
        if tok.kind != "NAME":
            self.error(f"expected a role, found {tok.text!r}", tok)
        if tok.text == "inv":
            self.expect("(")
            inner = self.next()
            if inner.kind != "NAME" or inner.text in _KEYWORDS:
                self.error("expected a role name inside inv(...)", inner)
            _check_role_name(inner.text, self.lineno, inner.col)
            self.expect(")")
            return Role(inner.text, inverted=True)
        if tok.text in _KEYWORDS:
            self.error(f"{tok.text!r} is not a valid role name", tok)
        _check_role_name(tok.text, self.lineno, tok.col)
        return Role(tok.text)

    # cexpr := andexpr; andexpr := primary (& primary)*
    # primary := top | NAME | exists role . primary | ( cexpr )
    def parse_concept(self) -> ConceptExpr:
        parts = [self.parse_primary()]
        while self.peek() is not None and self.peek().text == "&":
            self.next()
            parts.append(self.parse_primary())
        return conj(parts) if len(parts) > 1 else parts[0]

    def parse_primary(self) -> ConceptExpr:
        tok = self.next()
        if tok.kind == "NEG":
            raise FragmentViolation(
                "negation is not part of the input fragment", construct="negation")
        if tok.text == "(":
            inner = self.parse_concept()
            self.expect(")")
            return inner
        if tok.kind != "NAME":
            self.error(f"expected a concept, found {tok.text!r}", tok)
        if tok.text == TOP:
            return Top()
        if tok.text == "exists":
            role = self.parse_role()
            self.expect(".")
            return Exists(role, self.parse_primary())
        _check_concept_name(tok.text, self.lineno, tok.col)
        return Name(tok.text)


def _check_concept_name(name, lineno=None, col=None):
    if name.startswith(FRESH_PREFIX):
        raise TBoxSyntaxError(
            f"identifier {name!r} uses the reserved prefix {FRESH_PREFIX!r}", lineno, col)
    if name in _KEYWORDS or not name[0].isupper():
        raise TBoxSyntaxError(
            f"concept names start with an uppercase letter, got {name!r}", lineno, col)


def _check_role_name(name, lineno=None, col=None):
    if name.startswith(FRESH_PREFIX):
        raise TBoxSyntaxError(
            f"identifier {name!r} uses the reserved prefix {FRESH_PREFIX!r}", lineno, col)
    if not name[0].islower() or name in _KEYWORDS:
        raise TBoxSyntaxError(
            f"role names start with a lowercase letter, got {name!r}", lineno, col)


def _try_role_inclusion(parser: _LineParser):
    """A line is a role inclusion iff it matches role <= role exactly."""
    saved = parser.pos
    try:
        sub = parser.parse_role()
        parser.expect("<=")
        sup = parser.parse_role()
        if parser.peek() is not None:
            raise TBoxSyntaxError("trailing input", parser.lineno)
        return RoleInclusion(sub, sup)
    except TBoxSyntaxError:
        parser.pos = saved
        return None


def parse_tbox(text: str) -> TBox:
    """Parse a line-oriented TBox document (one axiom per line, # comments)."""
    axioms = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(line, lineno)
        if not tokens:
            continue
        parser = _LineParser(tokens, lineno)
        role_incl = _try_role_inclusion(parser)
        if role_incl is not None:
            axioms.append(role_incl)
            continue
        lhs = parser.parse_concept()
        parser.expect("<=")
        rhs = parser.parse_concept()
        trailing = parser.peek()
        if trailing is not None:
            parser.error(f"trailing input {trailing.text!r}", trailing)
        axioms.append(ConceptInclusion(lhs, rhs))
    return TBox(tuple(axioms))


def tbox_to_text(t: TBox) -> str:
    return "\n".join(str(ax) for ax in t.axioms) + ("\n" if t.axioms else "")


# ---------------------------------------------------------------------------
# Validation


def _walk_concepts(expr, axiom):
    if isinstance(expr, Top):
        return
    if isinstance(expr, Name):
        if not _IDENT_RE.fullmatch(expr.name) or not expr.name[0].isupper():
            raise FragmentViolation(
                f"invalid concept name {expr.name!r}", axiom, construct="concept name")
        return
    if isinstance(expr, Exists):
        _check_role(expr.role, axiom)
        _walk_concepts(expr.inner, axiom)
        return
    if isinstance(expr, And):
        if len(expr.parts) < 2:
            raise FragmentViolation("conjunction needs two conjuncts", axiom, construct="conjunction")
        for p in expr.parts:
            _walk_concepts(p, axiom)
        return
    raise FragmentViolation(
        f"construct {type(expr).__name__} is outside the fragment", axiom,
        construct=type(expr).__name__)


def _check_role(role, axiom):
    if (not _IDENT_RE.fullmatch(role.name) or role.name in _KEYWORDS
            or not role.name[0].islower()):
        raise FragmentViolation(f"invalid role name {role.name!r}", axiom, construct="role name")


def validate_fragment(t: TBox) -> None:
    """Raise FragmentViolation unless every axiom lies in the fragment."""
    for ax in t.axioms:
        if isinstance(ax, ConceptInclusion):
            _walk_concepts(ax.lhs, ax)
            _walk_concepts(ax.rhs, ax)
        elif isinstance(ax, RoleInclusion):
            _check_role(ax.sub, ax)
            _check_role(ax.sup, ax)
        else:
            raise FragmentViolation(
                f"unknown axiom kind {type(ax).__name__}", ax, construct=type(ax).__name__)


# ---------------------------------------------------------------------------
# Normalization


class _Normalizer:
    def __init__(self):
        self.counter = 0
        self.out = []

    def fresh(self) -> str:
        name = f"{FRESH_PREFIX}{self.counter}"
        self.counter += 1
        return name

    def name_of(self, expr):
        """The plain name of an atomic-side expression, or None."""
        if isinstance(expr, Top):
            return TOP
        if isinstance(expr, Name):
            return expr.name
        return None

    def axiom(self, lhs: ConceptExpr, rhs: ConceptExpr):
        # Split conjunctions on the right first: C <= D1 & D2 becomes two axioms.
        if isinstance(rhs, And):
            for part in rhs.parts:
                self.axiom(lhs, part)
            return
        if isinstance(rhs, Exists):
            filler_name = self.name_of(rhs.inner)
            if filler_name is None:
                # C <= exists r . D with complex D: route through a fresh name,
                # main axiom first, then the definition of the fresh name.
                fresh = self.fresh()
                self.axiom(lhs, Exists(rhs.role, Name(fresh)))
                self.axiom(Name(fresh), rhs.inner)
                return
            lhs_name = self.name_of(lhs)
            if lhs_name is None:
                fresh = self.fresh()
                self.axiom(lhs, Name(fresh))
                self.out.append(ExistsRight(fresh, rhs.role, filler_name))
                return
            self.out.append(ExistsRight(lhs_name, rhs.role, filler_name))
            return
        rhs_name = self.name_of(rhs)
        if rhs_name is None:
            raise FragmentViolation(
                f"cannot normalize right-hand side {rhs}", ConceptInclusion(lhs, rhs))
        self.left(lhs, rhs_name)

    def left(self, lhs: ConceptExpr, rhs_name: str):
        name = self.name_of(lhs)
        if name is not None:
            self.out.append(AtomicInclusion(name, rhs_name))
            return
        if isinstance(lhs, Exists):
            filler_name = self.name_of(lhs.inner)
            if filler_name is None:
                # exists r . D <= A with complex D: define the filler first.
                fresh = self.fresh()
                self.left(lhs.inner, fresh)
                self.out.append(ExistsLeft(lhs.role, fresh, rhs_name))
                return
            self.out.append(ExistsLeft(lhs.role, filler_name, rhs_name))
            return
        if isinstance(lhs, And):
            names = []
            for part in sorted(lhs.parts, key=str):
                part_name = self.name_of(part)
                if part_name is None:
                    fresh = self.fresh()
                    self.left(part, fresh)
                    part_name = fresh
                names.append(part_name)
            unique = tuple(sorted(set(names)))
            if len(unique) == 1:
                self.out.append(AtomicInclusion(unique[0], rhs_name))
            else:
                self.out.append(ConjInclusion(unique, rhs_name))
            return
        raise FragmentViolation(
            f"cannot normalize left-hand side {lhs}",
            ConceptInclusion(lhs, Name(rhs_name)))


def normalize(t: TBox) -> TBox:
    """Return the same TBox with its normal-form sequence filled in.

    The transformation is the standard structural one: right-hand
    conjunctions split, nested fillers flattened through deterministic
    fresh names (`__nf0`, `__nf1`, ...).  It is a conservative extension:
    certain answers over the original vocabulary are unchanged.
    """
    if t.normalized is not None:
        return t
    norm = _Normalizer()
    for ax in t.axioms:
        if isinstance(ax, RoleInclusion):
            norm.out.append(ax)
        else:
            norm.axiom(ax.lhs, ax.rhs)
    return TBox(t.axioms, tuple(norm.out))


def concept_names(normalized) -> tuple:
    """All concept names mentioned in a normal-form sequence, top included."""
    names = {TOP}
    for nf in normalized:
        if isinstance(nf, AtomicInclusion):
            names.update((nf.lhs, nf.rhs))
        elif isinstance(nf, ConjInclusion):
            names.update(nf.lhs)
            names.add(nf.rhs)
        elif isinstance(nf, ExistsLeft):
            names.update((nf.filler, nf.rhs))
        elif isinstance(nf, ExistsRight):
            names.update((nf.lhs, nf.filler))
    return tuple(sorted(names))
