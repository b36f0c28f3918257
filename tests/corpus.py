"""Randomized instance generator for the acceptance sweeps.

Instances stay within the desk-scale bounds: TBoxes of at most 12
normal-form axioms over 8 concept names and 4 roles, data graphs of at
most 6 nodes, connected input queries with at most 4 atoms and one answer
variable.
"""
from __future__ import annotations

import random

from oracles import random_graph

from ontopath.errors import QuerySyntaxError
from ontopath.query import parse_query
from ontopath.tbox import parse_tbox

NAMES = [f"A{i}" for i in range(8)]
ROLES = [f"r{i}" for i in range(4)]
PROP_KEYS = ("k0", "k1")


def _role_term(rng, invert_prob=0.25):
    role = rng.choice(ROLES)
    return f"inv({role})" if rng.random() < invert_prob else role


def random_tbox(rng: random.Random):
    lines = []
    generating = 0
    for _ in range(rng.randint(2, 12)):
        kind = rng.random()
        if kind < 0.30:
            a, b = rng.sample(NAMES, 2)
            lines.append(f"{a} <= {b}")
        elif kind < 0.46:
            a, b = rng.sample(NAMES, 2)
            lines.append(f"{a} & {b} <= {rng.choice(NAMES)}")
        elif kind < 0.70:
            filler = "top" if rng.random() < 0.15 else rng.choice(NAMES)
            lines.append(f"exists {_role_term(rng)} . {filler} <= {rng.choice(NAMES)}")
        elif kind < 0.88 and generating < 3:
            generating += 1
            filler = "top" if rng.random() < 0.15 else rng.choice(NAMES)
            lines.append(f"{rng.choice(NAMES)} <= exists {_role_term(rng)} . {filler}")
        else:
            sub, sup = rng.sample(ROLES, 2)
            sub_term = f"inv({sub})" if rng.random() < 0.2 else sub
            sup_term = f"inv({sup})" if rng.random() < 0.15 else sup
            lines.append(f"{sub_term} <= {sup_term}")
    return parse_tbox("\n".join(lines))


def random_query(rng: random.Random):
    while True:
        known = ["x"]
        atoms = []
        for position in range(rng.randint(1, 4)):
            kind = rng.random()
            src = rng.choice(known)
            if position > 0 and kind < 0.30:
                count = 2 if rng.random() < 0.25 else 1
                labels = rng.sample(NAMES, count)
                atoms.append(f"({'|'.join(labels)})({src})" if count > 1
                             else f"{labels[0]}({src})")
            elif kind < 0.85 or position == 0:
                if rng.random() < 0.65 and len(known) < 4:
                    dst = f"v{len(known)}"
                    known.append(dst)
                else:
                    dst = rng.choice(known)
                atoms.append(f"{_role_term(rng)}({src},{dst})")
            else:
                key = rng.choice(PROP_KEYS)
                op = rng.choice([">", "<", ">=", "<=", "=", "!="])
                atoms.append(f"{key}{op}{rng.randint(0, 40)}({src})")
        try:
            return parse_query(f"q(x) :- {', '.join(atoms)}")
        except QuerySyntaxError:
            continue


def random_instance(rng: random.Random):
    t = random_tbox(rng)
    g = random_graph(rng, max_nodes=6, roles=tuple(ROLES), labels=tuple(NAMES),
                     edge_prob=0.18, prop_keys=PROP_KEYS)
    q = random_query(rng)
    return t, g, q


def ontology_tbox(n, seed):
    """TBox text at ontology scale: 1.5·n axioms over n concept names and
    n // 4 roles, mixing all five axiom kinds with inverse roles and at most
    max(3, n // 10) existential right-hand sides.  Every draw passes
    `validate_fragment`; the query is `q(x) :- A0(x)`."""
    rng = random.Random(1000 * n + seed)
    names = [f"A{i}" for i in range(n)]
    roles = [f"r{i}" for i in range(max(2, n // 4))]
    def role():
        r = rng.choice(roles)
        return f"inv({r})" if rng.random() < 0.25 else r
    cap, ex_right, axioms = max(3, n // 10), 0, []
    for _ in range(int(1.5 * n)):
        u = rng.random()
        if u < 0.45:
            a, b = rng.sample(names, 2); axioms.append(f"{a} <= {b}")
        elif u < 0.55:
            a, b, c = rng.sample(names, 3)
            axioms.append(f"{a} & {b} <= {c}")
        elif u < 0.85:
            a, b = rng.sample(names, 2)
            axioms.append(f"exists {role()} . {a} <= {b}")
        elif u < 0.95 and ex_right < cap:
            ex_right += 1
            a, b = rng.sample(names, 2)
            axioms.append(f"{a} <= exists {role()} . {b}")
        else:
            r1, r2 = rng.sample(roles, 2); axioms.append(f"{r1} <= {r2}")
    return "\n".join(axioms)
