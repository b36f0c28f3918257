"""Concept dependency graph and the three rewriting primitives built on it.

The graph inverts the normal-form axioms: an epsilon edge A -> B records
B <= A, a role edge A -(p)-> B records exists p . B <= A, and a conjunction
hyperedge A -> {B1..Bk} records B1 & ... & Bk <= A.

Three queries are answered here:

* ``witness``: which label sets jointly entail a concept (backward chaining
  over the told and derived conjunction hyperedges of the concept and of
  its subsumees), at most the graph's `witness_cap` of them;
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

Entailment comes from one Horn-ELHI saturation over *contexts*, as in
consequence-based reasoners (Kazakov, Krötzsch & Simančík, JAR 2014): a
context is a set of concept names, and its labels are all that a node
carrying them certainly carries.  A holder of an existential axiom's
left-hand side reads a witness context of its own, the filler plus what
the witness reads back from that holder.  On these contexts the graph
derives, as Clipper does (Eiter, Ortiz, Šimkus, Tran & Xiao, AAAI 2012),
the minimal sets `lhs & H` of parent labels under which the witness
carries what a caller needs: for clipping, a label of each concept atom
on the clipped variable; for a label G the parent reads back from the
witness, the conjunction `lhs & H <= G`.  Derived conjunctions join the
told ones in the automaton, so one concept path covers every entailed
subsumee, and in witness sets.  Every rule is valid in every model, so
everything stays sound.

The graph's `witness_cap` is the one bound on label sets: the parent sets
of one ask, which the derived conjunctions are built on, and the witness
sets of one name; past it, an ask raises BudgetExceededError.
"""
from __future__ import annotations

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


class _cached:
    """A value computed on first access and stored on the instance, whose
    attribute then shadows this descriptor: `functools.cached_property`
    without the lock it takes on Python 3.11 and earlier, which costs about
    1 µs per first access, several per graph, each of them per rewrite."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class DependencyGraph:
    """Built once from a TBox; the three query operations are pure.

    Construction saturates the context of every concept name in one
    `_saturate` call.  Everything else (other contexts, minimal parent
    sets, derived conjunctions, the automaton, concept paths and witness
    sets) is derived on first ask and kept.  Every memo table only ever
    gains complete entries that are deterministic functions of the
    immutable inputs, so sharing one graph across threads is safe.
    `witness_cap`, their only bound, caps the minimal label sets derived
    for one ask, parent sets and witness sets alike.
    """

    def __init__(self, t: TBox, witness_cap: int = DEFAULT_WITNESS_CAP):
        if witness_cap < 1:  # {name} alone is one witness set
            raise ValueError(f"witness_cap must be at least 1, got {witness_cap}")
        t = normalize(t)
        self.tbox = t
        self.witness_cap = witness_cap
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
        # member, and for each existential axiom the role edges its edge to
        # the witness matches, as filler -> right-hand sides: read from the
        # witness by a holder of the left-hand side, and, through the edge
        # back, from the holder by the witness.  A label opens the axioms
        # whose witness context it can start or change.
        self._supers = {}
        for sup, sub in self.eps_edges:
            self._supers.setdefault(sub, []).append(sup)
        self._conj_by_part = {}
        for sup, parts in self.conj_edges:
            for part in parts:
                self._conj_by_part.setdefault(part, []).append((sup, parts))
        self._reads_witness = {}
        self._reads_parent = {}
        self._opens = {}
        for i, ax in self.ex_right:
            down = self._reads_witness[i] = {}
            up = self._reads_parent[i] = {}
            back = ax.role.inverse()
            for sup, role, filler in self.role_edges:
                if self.roles.is_subrole(ax.role, role):
                    down.setdefault(filler, []).append(sup)
                if self.roles.is_subrole(back, role):
                    up.setdefault(filler, []).append(sup)
            if down:
                for label in dict.fromkeys((ax.lhs, *up)):
                    self._opens.setdefault(label, []).append(i)
        self._labels = {}
        starts = {name: frozenset((name,)) for name in self.nodes}
        labels = self._saturate(starts.values())
        self._subsumers = {name: frozenset(labels[s]) for name, s in starts.items()}
        self._parent_sets = {}
        self._witness_sets = {}
        self._concept_paths = {}

    # -- saturation -----------------------------------------------------------

    def _saturate(self, starts) -> dict:
        """Grow the contexts `starts`, and those they come to read, to their
        least fixpoint, and return the label sets of the contexts grown.
        The rules are the ε-edges, the conjunctions and the role edges a
        holder of an axiom's left-hand side reads from its witness: the
        filler's context, grown by what the witness reads back from the
        holder's labels.

        Semi-naive: each context keeps a worklist of labels to add, and the
        consequences of a (context, label) fact are drawn once, when it is
        added.  A holder listens to each witness it grows here; a context
        saturated before never changes, since it reads no new context.  The
        sets grown join the graph's only when they are complete.
        """
        closed = self._labels
        labels, pending, listeners, opened = {}, {}, {}, set()
        supers, conj_by_part, opens = self._supers, self._conj_by_part, self._opens
        axioms = self.tbox.normalized
        busy = []  # every context with a nonempty worklist is on it
        for start in starts:
            if start not in closed and start not in labels:
                labels[start], pending[start] = set(), [*start, TOP]
                busy.append(start)
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
                for j in opens.get(name, ()):
                    if axioms[j].lhs not in got:
                        continue
                    w = self._witness_start(j, got)
                    if (ctx, j, w) in opened:
                        continue
                    opened.add((ctx, j, w))
                    heard = self._reads_witness[j]
                    seen = closed.get(w)
                    if seen is None:
                        if w not in labels:
                            labels[w], pending[w] = set(), [*w, TOP]
                            busy.append(w)
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
        closed.update(labels)
        return labels

    def _witness_start(self, axiom_index: int, parent) -> frozenset:
        """The context of an axiom's witness below a parent carrying `parent`."""
        up = self._reads_parent[axiom_index]
        return frozenset((self.tbox.normalized[axiom_index].filler,
                          *(sup for filler in up if filler in parent for sup in up[filler])))

    def _closure(self, start: frozenset):
        """The labels of the context `start`, saturated on first ask."""
        hit = self._labels.get(start)
        return self._saturate((start,))[start] if hit is None else hit

    def subsumers(self, name: str) -> frozenset:
        """Concept names certainly entailed for anything labeled `name`."""
        return self._subsumers.get(name, frozenset({name, TOP}))

    def entails_subsumption(self, sub: str, sup: str) -> bool:
        return sup == TOP or sup in self.subsumers(sub)

    def witness_labels(self, axiom_index: int) -> frozenset:
        """Labels certainly carried by the witness of an ExistsRight axiom."""
        lhs = self.tbox.normalized[axiom_index].lhs
        return frozenset(self._closure(self._witness_start(axiom_index, self._subsumers[lhs])))

    # -- derived conjunctions -------------------------------------------------

    def parent_sets(self, axiom_index: int, needs: frozenset) -> tuple:
        """The ⊆-minimal parent label sets M, smallest first, under which
        the witness of an existential axiom carries a label of each set in
        `needs`: M is the axiom's left-hand side plus labels the witness
        reads from its parent.  Empty when no such set exists; past the
        graph's `witness_cap` sets, this raises.

        The witness's labels grow with M, so the search is dualize and
        advance over the labels H the witness can read: shrink a set that
        works to a minimal one label by label, then try the complement of
        each minimal set meeting every minimal H found so far, until none
        works.  Each try is two context lookups, saturated on first ask.
        """
        key = (axiom_index, needs)
        hit = self._parent_sets.get(key)
        if hit is None:
            lhs = self.tbox.normalized[axiom_index].lhs
            cap = self.witness_cap

            def works(h):
                parent = self._closure(frozenset((lhs, *h)))
                carried = self._closure(self._witness_start(axiom_index, parent))
                return all(labels & carried for labels in needs)
            if works(()):
                hit = (frozenset((lhs,)),)
            else:
                keys = frozenset(self._reads_parent[axiom_index]) - self._subsumers[lhs]
                found, blockers = [], [frozenset()]
                while blockers:
                    free = next((keys - b for b in blockers if works(keys - b)), None)
                    if free is None:
                        break
                    for k in sorted(free):
                        if works(free - {k}):
                            free -= {k}
                    found.append(free)
                    blockers = sorted(_minimal(b if b & free else b | {k}
                                               for b in blockers for k in free),
                                      key=lambda b: (len(b), sorted(b)))
                    if len(found) > cap or len(blockers) > cap:
                        raise BudgetExceededError(
                            f"parent label sets of axiom {axiom_index} exceed {cap}")
                hit = tuple(sorted((frozenset((lhs, *h)) for h in found),
                                   key=lambda m: (len(m), sorted(m))))
            self._parent_sets[key] = hit
        return hit

    @_cached
    def derived_conj_edges(self) -> tuple:
        """(G, M) for each conjunction M <= G derived through a witness: M
        is a minimal parent set under which the witness carries a filler G
        is read back from, and no proper subset of M entails G."""
        derived = set()
        for i, _ax in self.ex_right:
            read_back = {}
            for filler, sups in self._reads_witness[i].items() if self._reads_parent[i] else ():
                for sup in sups:
                    read_back.setdefault(sup, set()).add(filler)
            for sup, fillers in read_back.items():
                for body in self.parent_sets(i, frozenset((frozenset(fillers),))):
                    if len(body) > 1 and not any(sup in self._closure(body - {m}) for m in body):
                        derived.add((sup, body))
        return tuple(sorted(derived, key=lambda e: (e[0], sorted(e[1]))))

    @_cached
    def all_conj_edges(self) -> tuple:
        """The told conjunction edges, then the derived ones."""
        return self.conj_edges + self.derived_conj_edges

    @_cached
    def _rules_by_subsumer(self) -> dict:
        """Conjunction edge bodies by each non-top subsumer of their head."""
        rules = {}
        for rhs, parts in self.all_conj_edges:
            for sup in self.subsumers(rhs) - {TOP}:  # TOP needs no witnessing
                rules.setdefault(sup, []).append(parts)
        return rules

    def witness_sets(self, name: str) -> tuple:
        """All label sets that jointly entail `name` through conjunctions.

        The candidates are the ⊆-minimal label sets that entail `name`
        through the told and derived conjunction edges: {name}, and for
        each edge whose right-hand side entails `name`, a union of one set
        of each of its members.  The sets of the names they are made of
        grow together, round by round, to their least fixpoint; past the
        graph's `witness_cap` sets for one name, this raises.

        Entailed subsumees get no sets of their own: the concept path of
        each member already matches them through its epsilon transitions.
        A set other than {name} is dropped when its members entail every
        member of another set, since its branch is then contained in the
        other's (of two sets that entail each other, the smaller is kept).
        The result always contains {name}.  Only results are kept, so
        every ask past the cap raises.
        """
        known = self._witness_sets.get(name)
        if known is not None:
            return known
        rules = self._rules_by_subsumer
        start = frozenset({name})
        if name not in rules:  # no conjunction entails the name
            known = self._witness_sets[name] = (start,)
            return known
        cap = self.witness_cap
        sets = {name: frozenset({start})}
        changed = True
        while changed:
            changed = False
            for x in sorted(sets.keys() & rules.keys()):
                grown = {frozenset({x})}
                for parts in rules[x]:
                    unions = {frozenset()}
                    for part in parts:
                        if part not in sets:
                            sets[part], changed = frozenset({frozenset({part})}), True
                        unions = {u | s for u in unions for s in sets[part]}
                    grown |= unions
                grown = _minimal(grown)
                if len(grown) > cap:
                    raise BudgetExceededError(f"witness sets for {name!r} exceed {cap}")
                if grown != sets[x]:
                    sets[x], changed = grown, True

        def covers(s, other):
            return all(any(self.entails_subsumption(m, o) for m in s) for o in other)

        def key(s):
            return (len(s), sorted(s))

        candidates = sets[name]
        result = self._witness_sets[name] = tuple(sorted((
            s for s in candidates
            if s == start or not any(
                other != s and covers(s, other)
                and not (covers(other, s) and key(s) < key(other))
                for other in candidates)), key=key))
        return result

    # -- automaton ------------------------------------------------------------

    def _label_tests(self, name: str, seen=frozenset()) -> PathExpr:
        """Zero-length path expressions that certify `name` at a node."""
        labels = {y for y in self.nodes if name in self._subsumers[y]}
        branches = [NodeTest(frozenset(labels))] if labels else []
        for rhs, parts in self.all_conj_edges:
            if rhs != name or parts & seen:
                continue
            guarded = seen | parts | {name}
            branches.append(concat_path(
                [self._label_tests(p, guarded) for p in sorted(parts)]))
        return union_path(branches) if len(branches) > 1 else branches[0]

    @_cached
    def _outgoing(self) -> dict:
        """Automaton transitions by source state, as (regex, dst): an epsilon
        to each subsumee, an edge step per role edge, and to each member of
        a told or derived conjunction the label tests of the others."""
        trans = [(src, _EPS, dst) for src in self.nodes if src != TOP
                 for dst in self.nodes if dst != src and src in self._subsumers[dst]]
        trans += [(rhs, _r(False, EdgeStep(role)), filler)
                  for rhs, role, filler in self.role_edges if rhs != TOP]
        for rhs, parts in self.all_conj_edges:
            for target in sorted(parts) if rhs != TOP else ():
                prefix = concat_path(
                    [self._label_tests(p, parts) for p in sorted(parts) if p != target])
                trans.append((rhs, _r(False, prefix), target))
        outgoing = {}
        for src, regex, dst in trans:
            outgoing.setdefault(src, []).append((regex, dst))
        return outgoing

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


def _minimal(sets) -> frozenset:
    """The ⊆-minimal sets among `sets`."""
    kept = []
    for s in sorted(set(sets), key=len):
        if not any(k <= s for k in kept):
            kept.append(s)
    return frozenset(kept)


# ---------------------------------------------------------------------------
# Public operations


def build_dependency_graph(t: TBox, witness_cap: int = DEFAULT_WITNESS_CAP) -> DependencyGraph:
    return DependencyGraph(t, witness_cap)


def witness(name: str, g: DependencyGraph):
    """All label sets that jointly entail `name`: `DependencyGraph.witness_sets`."""
    return g.witness_sets(name)


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
