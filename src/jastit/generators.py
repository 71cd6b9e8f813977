"""Seeded random structure generators for the tests and the scripts.

Frames come out of parent-vector trees, so the ordering is always a genuine
tree of moments.  Models are grown so that the whiteboard constraints hold
by construction where we can arrange it cheaply, and are filtered through
the validator where we cannot; callers always get back something the
validator accepts with no violations.

No other package module imports this one, so importing ``jastit`` does not
pay for it.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterator, Optional

from .diagnostics import violations
from .frames import JstitFrame, StitFrame, TemporalFrame
from .models import EVERYTHING, JstitModel, Universe, validate_model
from .syntax import (
    And,
    Announced,
    Box,
    Cstit,
    Formula,
    Knows,
    Not,
    Polynomial,
    PropVar,
    Proves,
    ProofConst,
    ProofVar,
    App,
    Check,
    Sum,
    dia,
    disj,
    implies,
)


def all_trees(n: int) -> Iterator[list[Optional[int]]]:
    """Every parent vector on n nodes, in lexicographic order."""
    if n == 1:
        yield [None]
        return
    for tail in itertools.product(*(range(i) for i in range(1, n))):
        yield [None, *tail]


def random_parent_vector(rng: random.Random, n: int) -> list[Optional[int]]:
    """parents[i] < i for i > 0; parents[0] is the root."""
    return [None] + [rng.randrange(i) for i in range(1, n)]


def tree_data(rng: random.Random, n: int, dense_p: float = 0.0
              ) -> tuple[list[str], list[tuple[str, str]], list[tuple[str, str]]]:
    names = [f"m{i}" for i in range(n)]
    parents = random_parent_vector(rng, n)
    covers = [(names[p], names[i]) for i, p in enumerate(parents) if p is not None]
    dense = [e for e in covers if rng.random() < dense_p]
    return names, covers, dense


def random_temporal_frame(rng: random.Random, n: int, dense_p: float = 0.0) -> TemporalFrame:
    names, covers, dense = tree_data(rng, n, dense_p)
    return TemporalFrame(names, covers, dense=dense)


def _random_choice_table(rng: random.Random, frame: StitFrame) -> dict:
    """Random per-moment partitions built from unions of undividedness classes.

    Only agent 0 gets a nontrivial partition; the rest keep the vacuous one,
    which keeps the joint-choice condition satisfied without any search.
    """
    choice = {}
    for m in frame.moments:
        classes = frame.undivided_classes(m)
        if len(classes) < 2 or rng.random() < 0.3:
            continue
        k = rng.randint(2, len(classes))
        cells: list[set[str]] = [set() for _ in range(k)]
        for i, cls in enumerate(classes):
            cells[i if i < k else rng.randrange(k)] |= cls
        choice[(m, 0)] = [frozenset(c) for c in cells if c]
    return choice


def random_stit_frame(rng: random.Random, n: int, agents: int = 2,
                      dense_p: float = 0.0) -> StitFrame:
    names, covers, dense = tree_data(rng, n, dense_p)
    base = StitFrame(names, covers, agents, dense=dense)
    choice = _random_choice_table(rng, base)
    return StitFrame(names, covers, agents, choice=choice, dense=dense)


def random_preorder_extension(rng: random.Random, frame, base: frozenset,
                              extra_pairs: int) -> frozenset:
    """Grow a reflexive-transitive relation on the moments from ``base``."""
    moments = list(frame.moments)
    pairs = set(base)
    for _ in range(extra_pairs):
        a, b = rng.choice(moments), rng.choice(moments)
        pairs.add((a, b))
        changed = True
        while changed:
            changed = False
            for x, y in list(pairs):
                for y2, z in list(pairs):
                    if y == y2 and (x, z) not in pairs:
                        pairs.add((x, z))
                        changed = True
    return frozenset(pairs)


def random_jstit_frame(rng: random.Random, n: int, agents: int = 2,
                       dense_p: float = 0.0, r_extra: int = 0,
                       re_extra: int = 0) -> JstitFrame:
    stit = random_stit_frame(rng, n, agents, dense_p)
    r = random_preorder_extension(rng, stit, stit.leq, r_extra)
    re = random_preorder_extension(rng, stit, r, re_extra)
    return JstitFrame(stit.moments, stit.leq, agents, choice=stit.choice,
                      dense=stit.dense, r=r, re=re)


def mixsucc_witness_frame(rng: random.Random, n: int = 5
                          ) -> tuple[StitFrame, str, str]:
    """A stit frame that fails the mixed-successor condition, with the
    failing pair: a branching moment whose only cover toward the target
    carries a density annotation."""
    n = max(n, 4)
    while True:
        names, covers, _ = tree_data(rng, n)
        frame = TemporalFrame(names, covers)
        branching = [m for m in names
                     if sum(1 for a, _ in covers if a == m) >= 2]
        if not branching:
            continue
        a = rng.choice(branching)
        children = [b for x, b in covers if x == a]
        c = rng.choice(children)
        below = [m for m in names if frame.le(c, m)]
        b = rng.choice(below)
        stit = StitFrame(names, covers, 2, dense=[(a, c)])
        return stit, a, b


POLY_POOL: tuple[Polynomial, ...] = (ProofVar("x"), ProofVar("y"), ProofConst("c"))


def random_model(rng: random.Random, frame: JstitFrame,
                 prop_names: tuple[str, ...] = ("p", "q"),
                 explicit_evidence: bool = False,
                 retries: int = 25) -> JstitModel:
    """A model over ``frame`` that the validator accepts with no violations."""
    formulas = [PropVar(p) for p in prop_names]
    formulas += [Announced(t) for t in POLY_POOL]
    formulas += [Proves(POLY_POOL[0], PropVar(prop_names[0]))]
    uni = Universe.close(formulas=formulas, polynomials=POLY_POOL)

    pairs = [(m, h.name) for m in frame.moments for h in frame.histories_through(m)]
    valuation = {p: {mh for mh in pairs if rng.random() < 0.4}
                 for p in prop_names}

    evidence: dict = {}
    default = EVERYTHING
    if explicit_evidence:
        default = frozenset()
        base = frozenset(f for f in uni.formulas if rng.random() < 0.3)
        extra = frozenset(f for f in uni.formulas if rng.random() < 0.3)
        seed_m = rng.choice(list(frame.moments))
        upward = {m2 for m2 in frame.moments if (seed_m, m2) in frame.re}
        for t in POLY_POOL:
            for m in frame.moments:
                evidence[(m, t)] = base | (extra if m in upward else frozenset())

    for _ in range(retries):
        act = _grow_act(rng, frame)
        model = JstitModel(frame, uni, act, dict(evidence), valuation,
                           evidence_default=default)
        if not violations(validate_model(model)):
            return model
    model = JstitModel(frame, uni, {}, dict(evidence), valuation,
                       evidence_default=default)
    assert not violations(validate_model(model))
    return model


def _grow_act(rng: random.Random, frame: JstitFrame) -> dict:
    """Presented proofs grow along every history; new proofs enter on a
    proper subclass of the histories through a moment whenever possible, so
    they are not settled before having been presented."""
    act: dict[tuple[str, str], frozenset] = {}
    order = sorted(frame.moments, key=lambda m: sum(frame.lt(x, m) for x in frame.moments))
    for m in order:
        classes = frame.undivided_classes(m)
        for cls in classes:
            inherited = frozenset()
            for name in cls:
                chain = frame.history(name).chain
                i = chain.index(m)
                if i > 0:
                    inherited |= act.get((chain[i - 1], name), frozenset())
            fresh = frozenset()
            if len(classes) > 1 and rng.random() < 0.5:
                fresh = frozenset({rng.choice(POLY_POOL)})
            for name in cls:
                act[(m, name)] = inherited | fresh
    return act


def random_formula(rng: random.Random, depth: int = 4,
                   prop_names: tuple[str, ...] = ("p", "q", "r"),
                   agents: int = 2) -> Formula:
    if depth <= 0 or rng.random() < 0.25:
        return PropVar(rng.choice(prop_names))
    kind = rng.randrange(7)
    sub = lambda: random_formula(rng, depth - 1, prop_names, agents)
    if kind == 0:
        return Not(sub())
    if kind == 1:
        return And(sub(), sub())
    if kind == 2:
        return Cstit(rng.randrange(agents), sub())
    if kind == 3:
        return Box(sub())
    if kind == 4:
        return Knows(sub())
    if kind == 5:
        return Proves(random_polynomial(rng, depth - 1), sub())
    return Announced(random_polynomial(rng, depth - 1))


def random_polynomial(rng: random.Random, depth: int = 3) -> Polynomial:
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(POLY_POOL)
    kind = rng.randrange(3)
    if kind == 0:
        return Sum(random_polynomial(rng, depth - 1), random_polynomial(rng, depth - 1))
    if kind == 1:
        return App(random_polynomial(rng, depth - 1), random_polynomial(rng, depth - 1))
    return Check(random_polynomial(rng, depth - 1))


def scheme_instance(rng: random.Random, scheme: str, agents: int,
                    fill: Callable[[random.Random, int], Formula],
                    poly: Callable[[random.Random], Polynomial]) -> Formula:
    """A random instance of axiom group ``scheme`` (A0..A9); ``fill`` draws
    the substituted formulas and ``poly`` the substituted polynomials."""
    a, b = fill(rng, agents), fill(rng, agents)
    s, t = poly(rng), poly(rng)
    j = rng.randrange(agents)
    if scheme == "A0":
        return rng.choice((
            implies(a, a),
            implies(a, implies(b, a)),
            implies(implies(implies(a, b), a), a),
            implies(And(a, b), a),
            implies(a, disj(a, b)),
            implies(Not(Not(a)), a),
            implies(implies(a, b), implies(Not(b), Not(a))),
            disj(a, Not(a)),
        ))
    if scheme == "A1":
        wrap = (lambda g: Box(g)) if rng.random() < 0.5 \
            else (lambda g: Cstit(j, g))
        k = rng.randrange(3)
        if k == 0:
            return implies(wrap(implies(a, b)), implies(wrap(a), wrap(b)))
        if k == 1:
            return implies(wrap(a), a)
        poss = Not(wrap(Not(a)))
        return implies(poss, wrap(poss))
    if scheme == "A2":
        return implies(Box(a), Cstit(j, a))
    if scheme == "A3":
        n = 1 if agents < 2 else rng.randint(1, 2)
        who = rng.sample(range(agents), n)
        stits = [Cstit(jj, fill(rng, agents)) for jj in who]
        if n == 1:
            return implies(dia(stits[0]), dia(stits[0]))
        return implies(And(dia(stits[0]), dia(stits[1])),
                       dia(And(stits[0], stits[1])))
    if scheme == "A4":
        return implies(Proves(s, implies(a, b)),
                       implies(Proves(t, a), Proves(App(s, t), b)))
    if scheme == "A5":
        return implies(Proves(t, a),
                       And(Proves(Check(t), Proves(t, a)), Knows(a)))
    if scheme == "A6":
        return implies(disj(Proves(s, a), Proves(t, a)),
                       Proves(Sum(s, t), a))
    if scheme == "A7":
        k = rng.randrange(3)
        if k == 0:
            return implies(Knows(implies(a, b)),
                           implies(Knows(a), Knows(b)))
        if k == 1:
            return implies(Knows(a), a)
        return implies(Knows(a), Knows(Knows(a)))
    if scheme == "A8":
        return implies(Knows(a), Box(Knows(Box(a))))
    assert scheme == "A9"
    return implies(Box(Announced(t)), Knows(Box(Announced(t))))
