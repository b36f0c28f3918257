"""Query model: navigational input queries and regular-path output queries.

Input queries (NCQs) are conjunctions of concept atoms (possibly unions of
labels), plain role atoms, and data tests.  Rewriting produces C2RPQs whose
role atoms carry arbitrary path expressions (concatenation, union, Kleene
star, node tests), grouped into a UC2RPQ.  Path expressions are kept in a
canonical form (flattened operators, sorted union branches, merged node
tests) so that structural comparisons are deterministic.

Canonical form is an invariant of construction: the smart constructors
`concat_path`, `union_path` and `star_path` return it whenever their
arguments are canonical, and the parser, `inverse_path` and
`substitute_role` build every path through them.  Nothing re-walks a path
to canonicalize it; `canon_path`/`canon_query` are kept only at
`rewrite_ncq`'s input, for hand-built queries.

The composite nodes (`Concat`, `UnionPath`, `Star`) each keep four
derived values once first asked for: their hash, their unparenthesized
text (`path_to_str`, which is also `union_path`'s sort key), that text's
length (`path_size`, computed from the parts' lengths without rendering)
and their inverse (`inverse_path`).  The values are stored on the node itself,
outside the dataclass fields, so equality and repr ignore them, and they
die with the node; no table outlives a rewriting.  Pickling or copying a
node carries its fields only, since a string's hash differs between
processes.  `EdgeStep` and `NodeTest` are cheap to hash and render, and
keep nothing.  Atoms and `C2RPQ`s keep their text (`atom_to_str`,
`query_to_str`, the keys the rewriter and the emitter sort by) the same
way; a text does not depend on the hash seed, so a copy may carry it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import QuerySyntaxError
from .tbox import TOP, Role

COMPARISON_OPS = ("<=", ">=", "!=", "=", "<", ">")


# ---------------------------------------------------------------------------
# Data tests


@dataclass(frozen=True)
class DataTest:
    key: str
    op: str
    value: object  # int, float or str

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        if self.op not in ("=", "!=") and not isinstance(self.value, (int, float)):
            raise ValueError("ordered comparisons require a numeric literal")


@dataclass(frozen=True)
class TestAnd:
    left: object
    right: object


@dataclass(frozen=True)
class TestOr:
    left: object
    right: object


@dataclass(frozen=True)
class TestNot:
    inner: object


# ---------------------------------------------------------------------------
# Path expressions


class PathExpr:
    """Base class for path expressions."""


_PREC_UNION, _PREC_CONCAT, _PREC_STAR = 1, 2, 3


class _Composite(PathExpr):
    """A node built from sub-paths; it keeps its derived values (see above).

    Subclasses bind `__hash__` in their own body, where dataclass leaves an
    explicit one in place, set `_prec`, their printing precedence, and
    return their one field from `_fields`.
    """

    _hash = _text = _size = _inv = None  # shadowed on the instance once computed

    def __hash__(self):
        h = self._hash
        if h is None:
            # The value dataclass would generate, so set orders do not move.
            h = hash(self._fields())
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return (type(self), self._fields())


@dataclass(frozen=True)
class NodeTest(PathExpr):
    """Zero-length step requiring some label of `labels` at the node."""

    labels: frozenset

    def __post_init__(self):
        object.__setattr__(self, "labels", frozenset(self.labels))


@dataclass(frozen=True)
class EdgeStep(PathExpr):
    role: Role


@dataclass(frozen=True)
class Concat(_Composite):
    parts: tuple

    __hash__ = _Composite.__hash__
    _prec = _PREC_CONCAT

    def _fields(self) -> tuple:
        return (self.parts,)


@dataclass(frozen=True)
class UnionPath(_Composite):
    branches: tuple

    __hash__ = _Composite.__hash__
    _prec = _PREC_UNION

    def _fields(self) -> tuple:
        return (self.branches,)


@dataclass(frozen=True)
class Star(_Composite):
    inner: PathExpr

    __hash__ = _Composite.__hash__
    _prec = _PREC_STAR

    def _fields(self) -> tuple:
        return (self.inner,)


@dataclass(frozen=True)
class PropTest(PathExpr):
    """A data test as a path element: on a node, a filtered zero-length
    step; on an edge, the endpoint pair whose property map passes the test
    (`flipped` looks the pair up in reverse orientation).

    No parser or rewriter builds one, and the evaluator, the printer and
    the Cypher emitter reject it.  The type is kept only as vocabulary for
    the benchmark's walk-oracle reference, which filters edges by a
    property with it.
    """

    test: object
    on_edge: bool = False
    flipped: bool = False


ANY_NODE = NodeTest(frozenset({TOP}))


def concat_path(parts) -> PathExpr:
    """Canonical concatenation: flattens and drops zero-length `<top>` units."""
    flat = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        elif p == ANY_NODE:
            continue
        else:
            flat.append(p)
    if not flat:
        return ANY_NODE
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def union_path(branches) -> PathExpr:
    """Canonical union: flattens, merges node tests, sorts and dedups."""
    flat = []
    for b in branches:
        if isinstance(b, UnionPath):
            flat.extend(b.branches)
        else:
            flat.append(b)
    labels = set()
    rest = []
    for b in flat:
        if isinstance(b, NodeTest):
            labels.update(b.labels)
        else:
            rest.append(b)
    if labels:
        rest.append(NodeTest(frozenset(labels if TOP not in labels else {TOP})))
    unique = sorted(set(rest), key=path_to_str)
    if len(unique) == 1:
        return unique[0]
    return UnionPath(tuple(unique))


def star_path(inner: PathExpr) -> PathExpr:
    if isinstance(inner, Star):
        return inner
    if isinstance(inner, NodeTest):
        # Zero iterations already admit every node.
        return ANY_NODE
    return Star(inner)


def canon_path(p: PathExpr) -> PathExpr:
    if isinstance(p, Concat):
        return concat_path([canon_path(x) for x in p.parts])
    if isinstance(p, UnionPath):
        return union_path([canon_path(x) for x in p.branches])
    if isinstance(p, Star):
        return star_path(canon_path(p.inner))
    return p


def inverse_path(p: PathExpr) -> PathExpr:
    """The reverse of a path: concatenations flip, edges invert."""
    if isinstance(p, EdgeStep):
        return EdgeStep(p.role.inverse())
    if isinstance(p, NodeTest):
        return p
    if not isinstance(p, _Composite):
        raise TypeError(f"not a path expression: {p!r}")
    inv = p._inv
    if inv is None:
        if isinstance(p, Concat):
            inv = concat_path([inverse_path(x) for x in reversed(p.parts)])
        elif isinstance(p, UnionPath):
            inv = union_path([inverse_path(x) for x in p.branches])
        else:
            inv = star_path(inverse_path(p.inner))
        object.__setattr__(p, "_inv", inv)
    return inv


# ---------------------------------------------------------------------------
# Atoms and queries


@dataclass(frozen=True)
class ConceptAtom:
    """`(A1|...|Ak)(x)`: x carries at least one of the labels."""

    labels: frozenset
    var: str

    _text = None  # shadowed on the instance once computed (see above)

    def __post_init__(self):
        object.__setattr__(self, "labels", frozenset(self.labels))


@dataclass(frozen=True)
class RoleAtom:
    path: PathExpr
    src: str
    dst: str

    _text = None


@dataclass(frozen=True)
class TestAtom:
    test: object
    vars: tuple

    _text = None


@dataclass(frozen=True)
class C2RPQ:
    answer_vars: tuple
    atoms: frozenset

    _text = None

    def __post_init__(self):
        object.__setattr__(self, "answer_vars", tuple(self.answer_vars))
        object.__setattr__(self, "atoms", frozenset(self.atoms))

    def variables(self) -> frozenset:
        out = set(self.answer_vars)
        for atom in self.atoms:
            out.update(atom_vars(atom))
        return frozenset(out)

    def __str__(self) -> str:
        return query_to_str(self)


@dataclass(frozen=True)
class UC2RPQ:
    answer_vars: tuple
    branches: tuple

    def __post_init__(self):
        for q in self.branches:
            if len(q.answer_vars) != len(self.answer_vars):
                raise ValueError("union members must share the answer arity")

    def __str__(self) -> str:
        return "\n".join(query_to_str(q) for q in self.branches)


def atom_vars(atom) -> tuple:
    if isinstance(atom, ConceptAtom):
        return (atom.var,)
    if isinstance(atom, RoleAtom):
        return (atom.src, atom.dst)
    return tuple(atom.vars)


def canon_query(q: C2RPQ) -> C2RPQ:
    atoms = set()
    for atom in q.atoms:
        if isinstance(atom, RoleAtom):
            atoms.add(RoleAtom(canon_path(atom.path), atom.src, atom.dst))
        else:
            atoms.add(atom)
    return C2RPQ(q.answer_vars, frozenset(atoms))


# ---------------------------------------------------------------------------
# Printing


def _value_to_str(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return repr(value)


def test_to_str(t) -> str:
    if isinstance(t, DataTest):
        return f"{t.key}{t.op}{_value_to_str(t.value)}"
    if isinstance(t, TestNot):
        return f"!({test_to_str(t.inner)})"
    if isinstance(t, TestAnd):
        return f"({test_to_str(t.left)} & {test_to_str(t.right)})"
    if isinstance(t, TestOr):
        return f"({test_to_str(t.left)} | {test_to_str(t.right)})"
    raise TypeError(f"not a test expression: {t!r}")


def path_to_str(p: PathExpr, prec: int = 0) -> str:
    if isinstance(p, EdgeStep):
        return str(p.role)
    if isinstance(p, NodeTest):
        return "<" + "|".join(sorted(p.labels)) + ">"
    if not isinstance(p, _Composite):
        raise TypeError(f"not a path expression: {p!r}")
    s = p._text
    if s is None:
        if isinstance(p, Star):
            s = path_to_str(p.inner, _PREC_STAR) + "*"
        elif isinstance(p, Concat):
            s = ".".join(path_to_str(x, _PREC_CONCAT) for x in p.parts)
        else:
            s = "|".join(path_to_str(x, _PREC_UNION) for x in p.branches)
        object.__setattr__(p, "_text", s)
    return f"({s})" if p._prec < prec else s


def path_size(p: PathExpr, prec: int = 0) -> int:
    """`len(path_to_str(p, prec))` without rendering: a composite's size is
    summed from its parts' sizes by the printer's rules, and kept."""
    if isinstance(p, _Composite):
        n = p._size
        if n is None:
            if p._text is not None:
                n = len(p._text)
            elif isinstance(p, Star):
                n = path_size(p.inner, _PREC_STAR) + 1
            else:
                if isinstance(p, Concat):
                    parts, inner = p.parts, _PREC_CONCAT
                else:
                    parts, inner = p.branches, _PREC_UNION
                n = len(parts) - 1
                for x in parts:
                    n += path_size(x, inner)
            object.__setattr__(p, "_size", n)
        return n + 2 if p._prec < prec else n
    if isinstance(p, EdgeStep):
        return len(str(p.role))
    if isinstance(p, NodeTest):
        return sum(map(len, p.labels)) + len(p.labels) + 1
    raise TypeError(f"not a path expression: {p!r}")


def role_atom_to_str(path: PathExpr, src: str, dst: str) -> str:
    """`atom_to_str(RoleAtom(path, src, dst))`, without building the atom."""
    return f"{path_to_str(path, _PREC_STAR)}({src},{dst})"


def atom_to_str(atom) -> str:
    s = getattr(atom, "_text", None)
    if s is not None:
        return s
    if isinstance(atom, ConceptAtom):
        labels = sorted(atom.labels)
        head = labels[0] if len(labels) == 1 else "(" + "|".join(labels) + ")"
        s = f"{head}({atom.var})"
    elif isinstance(atom, RoleAtom):
        s = role_atom_to_str(atom.path, atom.src, atom.dst)
    elif isinstance(atom, TestAtom):
        s = f"{test_to_str(atom.test)}({','.join(atom.vars)})"
    else:
        raise TypeError(f"not an atom: {atom!r}")
    object.__setattr__(atom, "_text", s)
    return s


def atom_sort_key(atom):
    kind = {ConceptAtom: 0, RoleAtom: 1, TestAtom: 2}[type(atom)]
    return (kind, atom_to_str(atom))


def query_to_str(q: C2RPQ) -> str:
    s = q._text
    if s is None:
        head = f"q({','.join(q.answer_vars)})"
        body = ", ".join(text for _, text in sorted(map(atom_sort_key, q.atoms)))
        s = f"{head} :- {body}"
        object.__setattr__(q, "_text", s)
    return s


def rewriting_to_str(u: UC2RPQ) -> str:
    return "\n".join(sorted(query_to_str(q) for q in u.branches)) + "\n"


# ---------------------------------------------------------------------------
# Parsing


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#.*)
  | (?P<ARROW>:-)
  | (?P<NUMBER>-?\d+(?:\.\d+)?)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\]|\\.)*")
  | (?P<OP><=|>=|!=|[()<>=,|.*&!])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _QTok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize_query(text: str):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise QuerySyntaxError(
                    f"unexpected character {line[pos]!r}", lineno, pos + 1)
            kind = m.lastgroup
            if kind not in ("WS", "COMMENT"):
                tokens.append(_QTok(kind, m.group(0), lineno, pos + 1))
            pos = m.end()
    return tokens


class _QueryParser:
    """Recursive-descent parser with savepoints for atom disambiguation."""

    def __init__(self, tokens, extended=False):
        self.tokens = tokens
        self.extended = extended
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise QuerySyntaxError("unexpected end of query")
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise QuerySyntaxError(
                f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, text):
        tok = self.peek()
        return tok is not None and tok.text == text

    def parse_query(self) -> C2RPQ:
        head = self.next()
        if head.kind != "NAME":
            raise QuerySyntaxError("query must start with a head predicate",
                                   head.line, head.col)
        self.expect("(")
        answer_vars = []
        if not self.at(")"):
            answer_vars.append(self._var())
            while self.at(","):
                self.next()
                answer_vars.append(self._var())
        self.expect(")")
        self.expect(":-")
        atoms = [self.parse_atom()]
        while self.at(","):
            self.next()
            atoms.append(self.parse_atom())
        tok = self.peek()
        if tok is not None:
            raise QuerySyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return C2RPQ(tuple(answer_vars), frozenset(atoms))

    def _var(self) -> str:
        tok = self.next()
        if tok.kind != "NAME":
            raise QuerySyntaxError(f"expected a variable, found {tok.text!r}",
                                   tok.line, tok.col)
        return tok.text

    def _args(self) -> tuple:
        self.expect("(")
        out = [self._var()]
        if self.at(","):
            self.next()
            out.append(self._var())
        self.expect(")")
        return tuple(out)

    def parse_atom(self):
        saved = self.pos
        try:
            return self._test_atom()
        except QuerySyntaxError:
            self.pos = saved
        return self._path_atom()

    # -- data tests ---------------------------------------------------------

    def _test_atom(self) -> TestAtom:
        expr = self._test_expr()
        vars_ = self._args()
        return TestAtom(expr, vars_)

    def _test_expr(self):
        left = self._test_term()
        while self.at("&") or self.at("|"):
            op = self.next().text
            right = self._test_term()
            left = TestAnd(left, right) if op == "&" else TestOr(left, right)
        return left

    def _test_term(self):
        if self.at("!"):
            self.next()
            return TestNot(self._test_term())
        if self.at("("):
            saved = self.pos
            self.next()
            try:
                inner = self._test_expr()
                self.expect(")")
                return inner
            except QuerySyntaxError:
                self.pos = saved
                raise
        key = self.next()
        if key.kind != "NAME":
            raise QuerySyntaxError("expected a property key", key.line, key.col)
        op = self.next()
        if op.text not in COMPARISON_OPS:
            raise QuerySyntaxError(f"expected a comparison operator, found {op.text!r}",
                                   op.line, op.col)
        value = self._literal()
        try:
            return DataTest(key.text, op.text, value)
        except ValueError as exc:
            raise QuerySyntaxError(str(exc), op.line, op.col) from None

    def _literal(self):
        tok = self.next()
        if tok.kind == "NUMBER":
            return float(tok.text) if "." in tok.text else int(tok.text)
        if tok.kind == "STRING":
            body = tok.text[1:-1]
            return body.replace('\\"', '"').replace("\\\\", "\\")
        raise QuerySyntaxError(f"expected a literal, found {tok.text!r}",
                               tok.line, tok.col)

    # -- paths ----------------------------------------------------------------

    def _path_atom(self):
        path = self._path_union()
        vars_ = self._args()
        if len(vars_) == 1:
            if not isinstance(path, NodeTest):
                tok = self.peek()
                raise QuerySyntaxError(
                    "a unary atom must be a concept label or union of labels",
                    tok.line if tok else None, tok.col if tok else None)
            return ConceptAtom(path.labels, vars_[0])
        if not self.extended and not isinstance(path, EdgeStep):
            raise QuerySyntaxError(
                "input queries only admit plain role atoms; "
                "navigational paths need the extended grammar")
        return RoleAtom(path, vars_[0], vars_[1])

    def _path_union(self) -> PathExpr:
        branches = [self._path_concat()]
        while self.at("|"):
            self.next()
            branches.append(self._path_concat())
        return union_path(branches) if len(branches) > 1 else branches[0]

    def _path_concat(self) -> PathExpr:
        parts = [self._path_postfix()]
        while self.at("."):
            self.next()
            parts.append(self._path_postfix())
        return concat_path(parts) if len(parts) > 1 else parts[0]

    def _path_postfix(self) -> PathExpr:
        p = self._path_primary()
        while self.at("*"):
            self.next()
            p = star_path(p)
        return p

    def _path_primary(self) -> PathExpr:
        tok = self.next()
        if tok.text == "(":
            inner = self._path_union()
            self.expect(")")
            return inner
        if tok.text == "<":
            labels = [self._label()]
            while self.at("|"):
                self.next()
                labels.append(self._label())
            self.expect(">")
            return NodeTest(frozenset(labels))
        if tok.kind != "NAME":
            raise QuerySyntaxError(f"expected a path, found {tok.text!r}",
                                   tok.line, tok.col)
        if tok.text == "inv":
            self.expect("(")
            name = self.next()
            if name.kind != "NAME":
                raise QuerySyntaxError("expected a role name inside inv(...)",
                                       name.line, name.col)
            self.expect(")")
            return EdgeStep(Role(name.text, inverted=True))
        if tok.text == TOP or tok.text[0].isupper() or tok.text.startswith("_"):
            # Underscore-initial names are normalization-fresh concept names.
            return NodeTest(frozenset({tok.text}))
        return EdgeStep(Role(tok.text))

    def _label(self) -> str:
        tok = self.next()
        if tok.kind != "NAME":
            raise QuerySyntaxError(f"expected a label, found {tok.text!r}",
                                   tok.line, tok.col)
        return tok.text


def _validate_query(q: C2RPQ, connected: bool) -> C2RPQ:
    occurring = set()
    for atom in q.atoms:
        occurring.update(atom_vars(atom))
    for v in q.answer_vars:
        if v not in occurring:
            raise QuerySyntaxError(f"answer variable {v!r} does not occur in the body")
    non_test = set()
    for atom in q.atoms:
        if not isinstance(atom, TestAtom):
            non_test.update(atom_vars(atom))
    missing = occurring - non_test
    if missing:
        raise QuerySyntaxError(
            f"variables occur only in data tests: {', '.join(sorted(missing))}")
    if connected and len(non_test) > 1:
        parent = {v: v for v in non_test}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for atom in q.atoms:
            if isinstance(atom, RoleAtom):
                parent[find(atom.src)] = find(atom.dst)
        roots = {find(v) for v in non_test}
        if len(roots) > 1:
            raise QuerySyntaxError("query body is not connected")
    return q


def parse_query(text: str, extended: bool = False) -> C2RPQ:
    """Parse a single query; `extended` admits navigational path atoms."""
    parser = _QueryParser(_tokenize_query(text), extended=extended)
    q = parser.parse_query()
    return _validate_query(q, connected=not extended)


def parse_rewriting(text: str) -> UC2RPQ:
    """Parse a union of queries, one per non-empty line (extended grammar)."""
    branches = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        branches.append(parse_query(stripped, extended=True))
    if not branches:
        raise QuerySyntaxError("no queries found")
    return UC2RPQ(branches[0].answer_vars, tuple(branches))


# ---------------------------------------------------------------------------
# Structural containment and the pruning insert


def _bind(mapping, var, node):
    bound = mapping.get(var)
    if bound is None:
        out = dict(mapping)
        out[var] = node
        return out
    return mapping if bound == node else None


def _atom_targets(atom2, inv, atoms1):
    """Candidate (target requirements) for mapping atom2 into a query.

    `inv` is the inverse of atom2's path when atom2 is a role atom.  Yields
    (pairs of (source var, target var)) lists; a candidate is usable if all
    pairs can be bound consistently.
    """
    if isinstance(atom2, ConceptAtom):
        for a1 in atoms1:
            if isinstance(a1, ConceptAtom) and a1.labels <= atom2.labels:
                yield [(atom2.var, a1.var)]
            elif (isinstance(a1, RoleAtom) and isinstance(a1.path, NodeTest)
                  and a1.path.labels <= atom2.labels):
                # A node-test role atom pins both endpoints to the same node.
                yield [(atom2.var, a1.src)]
                yield [(atom2.var, a1.dst)]
    elif isinstance(atom2, RoleAtom):
        for a1 in atoms1:
            if isinstance(a1, RoleAtom):
                if a1.path == atom2.path:
                    yield [(atom2.src, a1.src), (atom2.dst, a1.dst)]
                if a1.path == inv:
                    yield [(atom2.src, a1.dst), (atom2.dst, a1.src)]
            elif (isinstance(a1, ConceptAtom) and isinstance(atom2.path, NodeTest)
                  and a1.labels <= atom2.path.labels):
                yield [(atom2.src, a1.var), (atom2.dst, a1.var)]
    elif isinstance(atom2, TestAtom):
        for a1 in atoms1:
            if (isinstance(a1, TestAtom) and a1.test == atom2.test
                    and len(a1.vars) == len(atom2.vars)):
                yield list(zip(atom2.vars, a1.vars))


def contains_structurally(q: C2RPQ, q2: C2RPQ) -> bool:
    """Sound, incomplete containment: true implies eval(q) <= eval(q2).

    Looks for a homomorphism from q2's atoms into q's atoms that is the
    identity on answer variables (positionally), allows concept atoms to
    land on atoms with fewer labels, and matches path expressions up to
    canonical syntactic equality (either orientation).
    """
    if len(q.answer_vars) != len(q2.answer_vars):
        raise ValueError("containment needs matching answer arity")
    mapping = {}
    for v2, v1 in zip(q2.answer_vars, q.answer_vars):
        mapping = _bind(mapping, v2, v1)
        if mapping is None:
            return False
    atoms2 = tuple(q2.atoms)
    inverses = [None] * len(atoms2)  # filled when the search first reaches an atom

    def search(i, mapping):
        if i == len(atoms2):
            return True
        atom2 = atoms2[i]
        if isinstance(atom2, RoleAtom) and inverses[i] is None:
            inverses[i] = inverse_path(atom2.path)
        for pairs in _atom_targets(atom2, inverses[i], q.atoms):
            m = mapping
            for var2, var1 in pairs:
                m = _bind(m, var2, var1)
                if m is None:
                    break
            else:
                if search(i + 1, m):
                    return True
        return False

    return search(0, mapping)


def add_subseteq(members: tuple, q: C2RPQ) -> tuple:
    """Insert q unless it is structurally contained in a member; drop members
    structurally contained in q.  Keeps the collection an antichain."""
    for existing in members:
        if contains_structurally(q, existing):
            return members
    kept = tuple(m for m in members if not contains_structurally(m, q))
    return kept + (q,)


def _same(items, originals) -> bool:
    return all(a is b for a, b in zip(items, originals))


def substitute_role(q: C2RPQ, replacements: dict, memo: dict = None) -> C2RPQ:
    """Replace every edge step over a role of `replacements` in one walk.

    `replacements` maps roles to paths.  A step over the inverse of a key
    (when that inverse is not a key itself) receives the reversed
    replacement, computed once.  The result is the same as substituting
    one role after another when no replacement introduces a step that
    another replacement would widen further, as holds for the rewriter's
    subrole unions (each is closed under the roles it contains).

    Paths must be canonical.  `memo` caches the substituted form of every
    sub-path, so that paths shared between queries are walked once; pass
    the same dict only to calls with the same `replacements`.
    """
    if memo is None:
        memo = {}

    def subst(p: PathExpr) -> PathExpr:
        hit = memo.get(p)
        if hit is not None:
            return hit
        if isinstance(p, EdgeStep):
            out = replacements.get(p.role)
            if out is None:
                out = replacements.get(p.role.inverse())
                out = p if out is None else inverse_path(out)
        elif isinstance(p, Concat):
            parts = [subst(x) for x in p.parts]
            out = p if _same(parts, p.parts) else concat_path(parts)
        elif isinstance(p, UnionPath):
            branches = [subst(x) for x in p.branches]
            out = p if _same(branches, p.branches) else union_path(branches)
        elif isinstance(p, Star):
            inner = subst(p.inner)
            out = p if inner is p.inner else star_path(inner)
        else:
            out = p
        memo[p] = out
        return out

    atoms = set()
    for atom in q.atoms:
        if isinstance(atom, RoleAtom):
            atoms.add(RoleAtom(subst(atom.path), atom.src, atom.dst))
        else:
            atoms.add(atom)
    return C2RPQ(q.answer_vars, frozenset(atoms))
