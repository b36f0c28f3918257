"""Concept dependency graph and the three rewriting primitives built on it.

The graph inverts the normal-form axioms: an epsilon edge A -> B records
B <= A, a role edge A -(p)-> B records exists p . B <= A, and a conjunction
hyperedge A -> {B1..Bk} records B1 & ... & Bk <= A.

Three queries are answered here:

* ``witness``: which label sets jointly entail a concept (backward chaining
  over the conjunction hyperedges of the concept and of its subsumees);
* ``rewr_concept``: a regular path expression matching exactly the
  data-level derivations of a concept, obtained by reading the graph as a
  finite automaton and eliminating states.  Each step eliminates the state
  of least weight, the characters its elimination adds (Delgado & Morais,
  CIAA 2004), with ties to the deepest state and then by name.  Each edge
  carries its expression's text length and each state the sums over its
  edges, so a weight costs O(1); each state keeps a successor map and a
  predecessor set, so an elimination touches only the state's own edges.
  An expression longer than `MAX_PATH_SIZE` characters raises;
* ``rewrite_role``: the union of a role's entailed subroles.

To keep rewritings complete on entailments that route through existential
witnesses, the graph also runs a consequence-based label completion: for
every concept name a set of certain subsumers, and for every existential
axiom the labels certainly carried by its witness (including effects of the
edge back to the witness's parent).  As in consequence-based reasoners
(Kazakov, Krötzsch & Simančík, JAR 2014), the names and the witnesses are
the contexts of one rule loop, `_saturate`: a semi-naive worklist that
draws the consequences of each new (context, label) fact once, over
indexes built once per graph.  Asking what a witness carries when its
parent has one more label is the same loop over two temporary contexts.
Derived subsumptions feed extra epsilon transitions into the automaton, so
one concept path covers every entailed subsumee; everything remains sound
because each completion rule is valid in every model.
"""
from __future__ import annotations

from collections import deque

from .errors import BudgetExceededError
from .query import (
    ANY_NODE,
    Concat,
    EdgeStep,
    NodeTest,
    PathExpr,
    Star,
    UnionPath,
    concat_path,
    path_size,
    star_path,
    union_path,
)
from .tbox import (
    TOP,
    AtomicInclusion,
    ConjInclusion,
    ExistsLeft,
    ExistsRight,
    Role,
    RoleInclusion,
    TBox,
    concept_names,
    normalize,
)

DEFAULT_WITNESS_CAP = 1024
# Characters per expression built while a concept path is eliminated.
MAX_PATH_SIZE = 1_000_000
# The context of the witness that `witness_labels_with` saturates.
_HYPOTHESIZED = "\x00witness"


class RoleOrder:
    """Reflexive-transitive closure of role inclusions, closed under inversion."""

    def __init__(self, normalized):
        self._sup = {}
        self._sub = {}
        for nf in normalized:
            if isinstance(nf, RoleInclusion):
                for sub, sup in ((nf.sub, nf.sup), (nf.sub.inverse(), nf.sup.inverse())):
                    self._sup.setdefault(sub, set()).add(sup)
                    self._sub.setdefault(sup, set()).add(sub)
        self._above = {}
        self._below = {}

    def _closure(self, role: Role, direct, memo) -> frozenset:
        hit = memo.get(role)
        if hit is not None:
            return hit
        seen = {role}
        stack = [role]
        while stack:
            for nxt in direct.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        result = frozenset(seen)
        memo[role] = result
        return result

    def superroles(self, role: Role) -> frozenset:
        return self._closure(role, self._sup, self._above)

    def subroles(self, role: Role) -> frozenset:
        return self._closure(role, self._sub, self._below)

    def with_subroles(self):
        """The super-roles of role inclusions and their inverses: the only
        roles that can have a subrole other than themselves."""
        return self._sub.keys()

    def is_subrole(self, sub: Role, sup: Role) -> bool:
        return sup in self.superroles(sub)


class DependencyGraph:
    """Built once from a TBox; the three query operations are pure.

    Construction saturates the label sets of every concept name and every
    existential witness in one `_saturate` call.  Internal memo tables
    (concept paths, hypothesis closures, witness sets) only ever gain
    entries that are deterministic functions of the immutable inputs, so
    sharing one graph across threads is safe.
    """

    def __init__(self, t: TBox):
        t = normalize(t)
        self.tbox = t
        nf = t.normalized
        self.nodes = concept_names(nf)
        self.eps_edges = tuple(
            (ax.rhs, ax.lhs) for ax in nf if isinstance(ax, AtomicInclusion))
        self.role_edges = tuple(
            (ax.rhs, ax.role, ax.filler) for ax in nf if isinstance(ax, ExistsLeft))
        self.conj_edges = tuple(
            (ax.rhs, frozenset(ax.lhs)) for ax in nf if isinstance(ax, ConjInclusion))
        self.roles = RoleOrder(nf)
        self.ex_right = tuple(
            (i, ax) for i, ax in enumerate(nf) if isinstance(ax, ExistsRight))
        # Indexes for `_saturate`: ε-edges by subsumee, conjunctions by
        # member, existential axioms by left-hand side, and for each
        # existential axiom the role edges its edge to the witness matches,
        # as filler -> right-hand sides: read from the witness by a holder of
        # the left-hand side, and, through the edge back, from the parent by
        # the witness.
        self._supers = {}
        for sup, sub in self.eps_edges:
            self._supers.setdefault(sub, []).append(sup)
        self._conj_by_part = {}
        for sup, parts in self.conj_edges:
            for part in parts:
                self._conj_by_part.setdefault(part, []).append((sup, parts))
        self._ex_right_by_lhs = {}
        self._reads_witness = {}
        self._reads_parent = {}
        for i, ax in self.ex_right:
            self._ex_right_by_lhs.setdefault(ax.lhs, []).append(i)
            down = self._reads_witness[i] = {}
            up = self._reads_parent[i] = {}
            back = ax.role.inverse()
            for sup, role, filler in self.role_edges:
                if self.roles.is_subrole(ax.role, role):
                    down.setdefault(filler, []).append(sup)
                if self.roles.is_subrole(back, role):
                    up.setdefault(filler, []).append(sup)
        starts = {name: (name,) for name in self.nodes}
        witnesses = {}
        for i, ax in self.ex_right:
            starts[i] = (ax.filler,)
            witnesses[i] = i
        labels = self._saturate(starts, witnesses, {})
        self._subsumers = {name: frozenset(labels[name]) for name in self.nodes}
        self._witness_labels = {i: frozenset(labels[i]) for i, _ in self.ex_right}
        # Transitions by source state, as (regex, dst) with the regex in
        # the form `_eliminate` works on.
        self._outgoing = {}
        for src, label, dst in self._build_automaton():
            regex = _EPS if label is None else _r(False, label)
            self._outgoing.setdefault(src, []).append((regex, dst))
        self._concept_paths = {}
        self._hypothesis_cache = {}
        # For `witness`: conjunctions by each non-top subsumer of their
        # right-hand side, and its results by (name, cap).
        self._conjs_by_subsumer = {}
        for rhs, parts in sorted(self.conj_edges, key=lambda e: (e[0], sorted(e[1]))):
            for sup in sorted(self.subsumers(rhs) - {TOP}):  # TOP needs no witnessing
                self._conjs_by_subsumer.setdefault(sup, []).append(parts)
        self._witness_sets = {}

    # -- label completion ---------------------------------------------------

    def _saturate(self, starts, witnesses, closed) -> dict:
        """Grow label sets to their least fixpoint under every
        non-generating consequence, and return them by context.

        A context is a concept name or an existential axiom's witness;
        `starts` gives each context its starting labels, and `witnesses`
        maps each witness context among them to its axiom's index.  The
        rules are the ε-edges, the conjunctions, the role edges a holder of
        an axiom's left-hand side reads from the witness, and those the
        witness reads back from its parent: the context named by that
        left-hand side.  A parent reads its own witness; any other holder
        of axiom j's left-hand side reads the witness context j, either
        grown here or among the sets in `closed`.

        Semi-naive: each context keeps a worklist of labels to add, and the
        consequences of a (context, label) fact are drawn once, when it is
        added.  A witness listens to its parent, and a holder of an axiom's
        left-hand side to the witness it reads, so a new fact reaches
        exactly the contexts whose rules look at it.
        """
        supers, conj_by_part = self._supers, self._conj_by_part
        by_lhs, reads_witness = self._ex_right_by_lhs, self._reads_witness
        axioms = self.tbox.normalized
        children = {}
        listeners = {}  # context -> [(listener, filler -> what the listener gains)]
        for w, i in witnesses.items():
            lhs = axioms[i].lhs
            children[lhs, i] = w
            if self._reads_parent[i]:
                listeners.setdefault(lhs, []).append((w, self._reads_parent[i]))
        labels = dict(closed)
        pending = {}  # each context's labels still to add, with their consequences
        for ctx, start in starts.items():
            labels[ctx] = set()
            pending[ctx] = [*start, TOP]
        busy = list(starts)  # every context with a nonempty worklist is on it
        while busy:
            ctx = busy.pop()
            got, todo = labels[ctx], pending[ctx]
            hearers = listeners.get(ctx)
            while todo:
                name = todo.pop()
                if name in got:
                    continue
                got.add(name)
                todo.extend(supers.get(name, ()))
                for sup, parts in conj_by_part.get(name, ()):
                    if parts <= got:
                        todo.append(sup)
                for j in by_lhs.get(name, ()):
                    heard = reads_witness[j]
                    if heard:
                        w = children.get((ctx, j), j)
                        listeners.setdefault(w, []).append((ctx, heard))
                        hearers = listeners.get(ctx)  # a witness may read itself
                        seen = labels[w]
                        for filler, sups in heard.items():
                            if filler in seen:
                                todo.extend(sups)
                if hearers:
                    for other, heard in hearers:
                        sups = heard.get(name)
                        if sups:
                            queue = pending[other]
                            if not queue:
                                busy.append(other)
                            queue.extend(sups)
        return labels

    def subsumers(self, name: str) -> frozenset:
        """Concept names certainly entailed for anything labeled `name`."""
        return self._subsumers.get(name, frozenset({name, TOP}))

    def entails_subsumption(self, sub: str, sup: str) -> bool:
        return sup == TOP or sup in self.subsumers(sub)

    def witness_labels(self, axiom_index: int) -> frozenset:
        """Labels certainly carried by the witness of an ExistsRight axiom."""
        return self._witness_labels[axiom_index]

    def witness_labels_with(self, axiom_index: int, extra_parent_label: str) -> frozenset:
        """Witness labels when the parent additionally carries one label.

        One saturation over two contexts: the parent, starting from the
        axiom's left-hand side and the extra label, and its witness, which
        reads the parent through the edge between them, while the parent
        reads it back.  Every other witness is read closed.  When no role
        edge leads from the witness back to its parent, the witness never
        reads the parent's labels, and the result is its plain
        `witness_labels`.
        """
        if not self._reads_parent[axiom_index]:
            return self._witness_labels[axiom_index]
        key = (axiom_index, extra_parent_label)
        hit = self._hypothesis_cache.get(key)
        if hit is None:
            ax = self.tbox.normalized[axiom_index]
            starts = {ax.lhs: (ax.lhs, extra_parent_label), _HYPOTHESIZED: (ax.filler,)}
            labels = self._saturate(starts, {_HYPOTHESIZED: axiom_index}, self._witness_labels)
            hit = self._hypothesis_cache[key] = frozenset(labels[_HYPOTHESIZED])
        return hit

    # -- automaton ------------------------------------------------------------

    def _label_tests(self, name: str, seen=None) -> PathExpr:
        """Zero-length path expressions that certify `name` at a node."""
        if seen is None:
            seen = frozenset()
        labels = {y for y in self.nodes if name in self._subsumers[y]}
        branches = [NodeTest(frozenset(labels))] if labels else []
        for rhs, parts in self.conj_edges:
            if rhs != name or parts & seen:
                continue
            guarded = seen | parts | {name}
            branches.append(concat_path(
                [self._label_tests(p, guarded) for p in sorted(parts)]))
        return union_path(branches) if len(branches) > 1 else branches[0]

    def _build_automaton(self):
        """Transitions (src, label, dst); label None means epsilon."""
        trans = []
        for src in self.nodes:
            if src == TOP:
                continue
            for dst in self.nodes:
                if dst != src and src in self._subsumers[dst]:
                    trans.append((src, None, dst))
        for rhs, role, filler in self.role_edges:
            if rhs != TOP:
                trans.append((rhs, EdgeStep(role), filler))
        for rhs, parts in self.conj_edges:
            if rhs == TOP:
                continue
            for target in sorted(parts):
                prefix = concat_path(
                    [self._label_tests(p, parts) for p in sorted(parts) if p != target])
                trans.append((rhs, prefix, target))
        return tuple(trans)

    # -- regex extraction -------------------------------------------------------

    def concept_path(self, name: str) -> PathExpr:
        cached = self._concept_paths.get(name)
        if cached is not None:
            return cached
        result = self._eliminate(name)
        self._concept_paths[name] = result
        return result

    def _eliminate(self, start: str) -> PathExpr:
        outgoing = self._outgoing
        if start not in outgoing:
            # Nothing derives the concept: its path is its own node test,
            # which is what eliminating the lone state would give.
            return ANY_NODE if start == TOP else NodeTest(frozenset({start}))
        # Breadth-first depths of the states reachable from the start
        # concept; elimination is restricted to them.
        depth = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for state in frontier:
                for _, dst in outgoing.get(state, ()):
                    if dst not in depth:
                        depth[dst] = depth[state] + 1
                        nxt.append(dst)
            frontier = nxt
        if len(depth) == 1:
            # A lone state needs no order: its loops' star, then its test.
            loop = None
            for regex, _ in outgoing[start]:
                loop = regex if loop is None else _r_union(loop, regex)
            final = _EPS if start == TOP else _r(False, NodeTest(frozenset({start})))
            return _r_to_path(_capped(start, _r_concat(_r_star(loop), final)))

        # succ[u][v] is the regex on the edge u -> v; pred[v] holds every u
        # with such an edge, as an insertion-ordered dict.  size_in[v] and
        # size_out[u] sum the sizes of a state's edges other than its loop.
        START, FINAL = "\x00start", "\x00final"
        succ = {START: {}}
        pred = {FINAL: {}}
        for state in depth:
            succ[state] = {}
            pred[state] = {}
        size_in = dict.fromkeys(pred, 0)
        size_out = dict.fromkeys(succ, 0)

        def merge(u, v, regex):
            out = succ[u]
            old = out.get(v)
            if old is None:
                pred[v][u] = None
                grown = regex[2]
            elif regex != _EPS or not _r_accepts_epsilon(old):
                regex = _r_union(old, regex)
                grown = regex[2] - old[2]
            else:
                return
            out[v] = _capped(start, regex)
            if u != v:
                size_out[u] += grown
                size_in[v] += grown

        merge(START, start, _EPS)
        for src in depth:
            for regex, dst in outgoing.get(src, ()):
                merge(src, dst, regex)
        for state in sorted(depth):
            if state == TOP:
                merge(state, FINAL, _EPS)
            else:
                merge(state, FINAL, _r(False, NodeTest(frozenset({state}))))

        def priority(s):
            """The size eliminating s adds (Delgado & Morais, CIAA 2004),
            then the deepest state first, then by name."""
            out = succ[s]
            ins = len(pred[s])
            outs = len(out)
            loop = out.get(s)
            if loop is None:
                loop = _EPS
            else:
                ins -= 1
                outs -= 1
            return (size_in[s] * (outs - 1) + size_out[s] * (ins - 1)
                    + loop[2] * (ins * outs - 1), -depth[s], s)

        remaining = set(depth)
        while remaining:
            state = min(remaining, key=priority) if len(remaining) > 1 else remaining.pop()
            remaining.discard(state)
            outs = succ.pop(state)
            ins = pred.pop(state)
            loop_star = _r_star(outs.pop(state, None))
            ins.pop(state, None)
            for v, r_out in outs.items():
                del pred[v][state]
                size_in[v] -= r_out[2]
            for u in ins:
                r_in = succ[u].pop(state)
                size_out[u] -= r_in[2]
                prefix = _r_concat(r_in, loop_star)
                for v, r_out in outs.items():
                    merge(u, v, _r_concat(prefix, r_out))
        return _r_to_path(succ[START].get(FINAL))


# -- regexes during elimination: (accepts_epsilon, expr-or-None, size) --------
#
# A regex's size is its expression's text length, `path_size`, which a
# composite keeps once computed, so no regex is rendered to weigh it.


def _nullable(expr: PathExpr) -> bool:
    """Whether the expression already matches the zero-length walk everywhere."""
    if isinstance(expr, Star) or expr == ANY_NODE:
        return True
    if isinstance(expr, UnionPath):
        return any(_nullable(b) for b in expr.branches)
    if isinstance(expr, Concat):
        return all(_nullable(p) for p in expr.parts)
    return False


def _r(eps, expr):
    if eps and _nullable(expr):
        eps = False
    return (eps, expr, path_size(expr))


_EPS = (True, None, 0)  # the only regex without an expression


def _r_accepts_epsilon(a) -> bool:
    """Whether the regex matches the zero-length walk, so a union with ε is a."""
    return a[0] or (a[1] is not None and _nullable(a[1]))


def _r_union(a, b):
    eps = a[0] or b[0]
    exprs = [x for x in (a[1], b[1]) if x is not None]
    return _r(eps, exprs[0] if len(exprs) == 1 else union_path(exprs))


def _r_concat(a, b):
    if a == _EPS:
        return b
    if b == _EPS:
        return a
    eps = a[0] and b[0]
    branches = [concat_path([a[1], b[1]])]
    if a[0]:
        branches.append(b[1])
    if b[0]:
        branches.append(a[1])
    return _r(eps, branches[0] if len(branches) == 1 else union_path(branches))


def _r_star(a):
    if a is None or a[1] is None:
        return _EPS
    return _r(True, star_path(a[1]))


def _capped(start, r):
    """r, unless its size passes the cap on the path of `start`."""
    if r[2] > MAX_PATH_SIZE:
        raise BudgetExceededError(
            f"concept path for {start!r} exceeds {MAX_PATH_SIZE} characters")
    return r


def _r_to_path(r) -> PathExpr:
    eps, expr, _ = r
    if not eps or _nullable(expr):
        return expr
    return union_path([ANY_NODE, expr])


# ---------------------------------------------------------------------------
# Public operations


def build_dependency_graph(t: TBox) -> DependencyGraph:
    return DependencyGraph(t)


def witness(name: str, g: DependencyGraph, cap: int = DEFAULT_WITNESS_CAP):
    """All label sets that jointly entail `name` through conjunction axioms.

    Expansion replaces a set element by the left-hand side of a conjunction
    axiom whose right-hand side entails that element.  Entailed subsumees
    get no sets of their own: the concept path of each member already
    matches them through its epsilon transitions.  A set other than {name}
    is dropped when its members entail every member of another set, since
    its branch is then contained in the other's (of two sets that entail
    each other, the smaller is kept).  The result always contains {name}.
    Raises BudgetExceededError past `cap` sets; only results are kept on
    the graph, so every call over the cap raises.
    """
    known = g._witness_sets.get((name, cap))
    if known is not None:
        return known
    conjs = g._conjs_by_subsumer
    start = frozenset({name})
    if name not in conjs:
        # No conjunction entails the name, so nothing expands {name}.
        result = g._witness_sets[(name, cap)] = (start,)
        return result
    visited = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for member in sorted(current):
            for parts in conjs.get(member, ()):
                candidate = current - {member} | parts
                if candidate not in visited:
                    if len(visited) >= cap:
                        raise BudgetExceededError(
                            f"witness expansion for {name!r} exceeds {cap} sets")
                    visited.add(candidate)
                    queue.append(candidate)

    def covers(s, other):
        return all(any(g.entails_subsumption(m, o) for m in s) for o in other)

    def key(s):
        return (len(s), sorted(s))

    minimal = [
        s for s in visited
        if s == start or not any(
            other != s and covers(s, other)
            and not (covers(other, s) and key(s) < key(other))
            for other in visited)
    ]
    result = g._witness_sets[(name, cap)] = tuple(sorted(minimal, key=key))
    return result


def rewr_concept(name: str, g: DependencyGraph) -> PathExpr:
    """A path expression whose matches from a node certify the concept there."""
    return g.concept_path(name)


def rewrite_role(role: Role, g: DependencyGraph) -> PathExpr:
    """Union over the entailed subroles of `role` (always including itself)."""
    return union_path([EdgeStep(sub) for sub in sorted(g.roles.subroles(role), key=str)])


def dump_dependency_graph(g: DependencyGraph) -> str:
    """Line-based debug dump for golden-file tests."""
    lines = []
    for sup, sub in sorted(g.eps_edges):
        lines.append(f"eps {sup} <- {sub}")
    for sup, role, filler in sorted(g.role_edges, key=lambda e: (e[0], str(e[1]), e[2])):
        lines.append(f"role {sup} <-[{role}] {filler}")
    for sup, parts in sorted(g.conj_edges, key=lambda e: (e[0], sorted(e[1]))):
        lines.append(f"conj {sup} <- {{{','.join(sorted(parts))}}}")
    return "\n".join(lines) + ("\n" if lines else "")
