"""Seeded inputs for the benchmark, written as plain text and JSON.

Nothing here imports the package: formulas come out as concrete syntax
strings and frames as frame documents (dicts), so the package only sees
them when a workload parses or loads them.

Generated inputs are stratified. The features that set the cost of a
search or a classification (axiom scheme and variant, filler size, the
number of distinct propositional variables and proof polynomials, frame
size and density rate) are fixed by an item's position in its block;
the seed only picks the concrete operators, atoms, agents and tree
shapes. Two seeds therefore give different inputs with the same make-up,
which keeps the run-to-run spread of the timings small.
"""

from __future__ import annotations

import random

SCHEMES = ("A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9")
AGENTS = 2


def par(s: str) -> str:
    return f"({s})"


def imp(a: str, b: str) -> str:
    return f"({a}) -> ({b})"


def disj(a: str, b: str) -> str:
    return f"({a}) | ({b})"


def conj(a: str, b: str) -> str:
    return f"({a}) & ({b})"


def dia(a: str) -> str:
    return f"Dia ({a})"


# ---------------------------------------------------------------------------
# formulas

def filler(rng: random.Random, size: int, atom: str, polys: str = "xy") -> str:
    """Random formula with exactly `size` connectives over one variable.

    The leftmost leaf is `atom`; later leaves are `atom` or an
    announcement of one of `polys`, so the filler mentions exactly one
    propositional variable and no polynomial outside `polys`.
    """
    first = [True]

    def leaf() -> str:
        if first[0] or not polys or rng.random() < 0.7:
            first[0] = False
            return atom
        return f"E {rng.choice(polys)}"

    def build(n: int) -> str:
        if n == 0:
            return leaf()
        k = rng.randrange(5)
        if k == 4 and n >= 1:
            left = rng.randrange(n)
            return conj(build(left), build(n - 1 - left))
        sub = build(n - 1)
        return (f"~{par(sub)}", f"Box {par(sub)}", f"K {par(sub)}",
                f"[{rng.randrange(AGENTS)}] {par(sub)}")[k]

    return build(size)


def scheme_instance(rng: random.Random, scheme: str, variant: int, size: int,
                    polys: str = "xy") -> str:
    """An instance of `scheme` in the given variant with fillers of `size`
    connectives; fillers a and b use the variables p and q and announce
    only members of `polys`."""
    a, b = filler(rng, size, "p", polys), filler(rng, size, "q", polys)
    s, t = rng.sample("xy", 2)
    j = rng.randrange(AGENTS)
    if scheme == "A0":
        return (
            imp(a, a),
            imp(a, imp(b, a)),
            imp(imp(imp(a, b), a), a),
            imp(conj(a, b), a),
            imp(a, disj(a, b)),
            imp(f"~~{par(a)}", a),
            imp(imp(a, b), imp(f"~{par(b)}", f"~{par(a)}")),
            disj(a, f"~{par(a)}"),
        )[variant % 8]
    if scheme == "A1":
        op = ("Box", f"[{j}]")[variant % 2]
        k = (variant // 2) % 3
        if k == 0:
            return imp(f"{op} {par(imp(a, b))}", imp(f"{op} {par(a)}", f"{op} {par(b)}"))
        if k == 1:
            return imp(f"{op} {par(a)}", a)
        poss = f"~{op} ~{par(a)}"
        return imp(poss, f"{op} {par(poss)}")
    if scheme == "A2":
        return imp(f"Box {par(a)}", f"[{j}] {par(a)}")
    if scheme == "A3":
        if variant % 2 == 0:
            st = f"[{j}] {par(a)}"
            return imp(dia(st), dia(st))
        s1, s2 = f"[0] {par(a)}", f"[1] {par(b)}"
        if rng.random() < 0.5:
            s1, s2 = f"[1] {par(a)}", f"[0] {par(b)}"
        return imp(conj(dia(s1), dia(s2)), dia(conj(s1, s2)))
    if scheme == "A4":
        return imp(f"{s} : {par(imp(a, b))}",
                   imp(f"{t} : {par(a)}", f"({s} * {t}) : {par(b)}"))
    if scheme == "A5":
        return imp(f"{t} : {par(a)}",
                   conj(f"!{t} : ({t} : {par(a)})", f"K {par(a)}"))
    if scheme == "A6":
        return imp(disj(f"{s} : {par(a)}", f"{t} : {par(a)}"),
                   f"({s} + {t}) : {par(a)}")
    if scheme == "A7":
        k = variant % 3
        if k == 0:
            return imp(f"K {par(imp(a, b))}", imp(f"K {par(a)}", f"K {par(b)}"))
        if k == 1:
            return imp(f"K {par(a)}", a)
        return imp(f"K {par(a)}", f"K K {par(a)}")
    if scheme == "A8":
        return imp(f"K {par(a)}", f"Box K Box {par(a)}")
    if scheme == "A9":
        return imp(f"Box E {t}", f"K Box E {t}")
    raise ValueError(f"unknown scheme {scheme!r}")


# Formulas that fail only on a branching tree, so a search up to three
# moments must find a counter-model with at least two histories.
BRANCHING = (
    "p -> Box p",
    "[0] p -> [1] p",
    "E x -> Box E x",
    "Box (p | q) -> Box p | Box q",
    "E x -> K E x",
    "E x & ~Box E x -> [0] E x",
)


# ---------------------------------------------------------------------------
# frames

def random_tree(rng: random.Random, n: int) -> tuple[list[str], list[list[str]]]:
    names = [f"m{i}" for i in range(n)]
    covers = [[names[rng.randrange(i)], names[i]] for i in range(1, n)]
    return names, covers


def closure(pairs: set, moments: list[str]) -> set:
    """Reflexive-transitive closure, recomputed here so the generator needs
    nothing from the package."""
    rel = set(pairs) | {(m, m) for m in moments}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def density_frame(rng: random.Random, n: int, dense_p: float,
                  extra_pairs: int) -> dict:
    """Frame document: a random rooted tree on n moments, each cover
    annotated dense with probability dense_p, r and re grown by up to
    extra_pairs random pairs each (keeping leq <= r <= re)."""
    names, covers = random_tree(rng, n)
    dense = [c for c in covers if rng.random() < dense_p]
    leq = closure({tuple(c) for c in covers}, names)
    r = set(leq)
    for _ in range(rng.randint(0, extra_pairs)):
        r.add((rng.choice(names), rng.choice(names)))
    r = closure(r, names)
    re = set(r)
    for _ in range(rng.randint(0, extra_pairs)):
        re.add((rng.choice(names), rng.choice(names)))
    re = closure(re, names)
    return {
        "moments": names,
        "order": covers,
        "agents": AGENTS,
        "dense": dense,
        "r": sorted([a, b] for a, b in r if a != b),
        "re": sorted([a, b] for a, b in re if a != b),
    }


def witness_frame(rng: random.Random, n: int, dense_p: float) -> dict:
    """Frame document that breaks the mixed-successor and the regularity
    condition by construction.

    A root r below a branching moment b with children c and d; the cover
    (b, c) is annotated dense. The remaining n - 4 moments hang anywhere
    below c or d, and each of their covers is annotated dense with
    probability dense_p. Then (b, c) witnesses the mixed-successor failure,
    and (b, c, a history through d, the up-set of c) a regularity failure
    under r = re = the temporal order.
    """
    names = [f"m{i}" for i in range(n)]
    root, b, c, d = names[:4]
    covers = [[root, b], [b, c], [b, d]]
    under_c, under_d = [c], [d]
    for m in names[4:]:
        side = under_c if rng.random() < 0.5 else under_d
        covers.append([rng.choice(side), m])
        side.append(m)
    dense = [[b, c]] + [cv for cv in covers[3:] if rng.random() < dense_p]
    return {"moments": names, "order": covers, "agents": AGENTS, "dense": dense}


# ---------------------------------------------------------------------------
# proofs

def _boxed_announcements(rng: random.Random, k: int) -> list[str]:
    """k literals `Box E t` or `~(Box E t)` over small polynomials."""
    out = []
    for _ in range(k):
        lit = f"Box E ({rng.choice(('x', 'y', 'x * y', 'x + y', '!x'))})"
        out.append(f"~{par(lit)}" if rng.random() < 0.4 else lit)
    return out


def proof_document(rng: random.Random, bad: bool) -> dict:
    """A proof with axiom, mp, knec and rd lines, sound unless `bad`.

    The bad variant cites, in its last line, modus ponens from two lines
    whose formulas do not fit together.
    """
    boxed = _boxed_announcements(rng, rng.randint(1, 3))
    stripped = [lit.replace("Box E", "E") for lit in boxed]
    alpha = filler(rng, rng.randint(1, 3), "p")
    kb = f"K {par(alpha)}"
    big = boxed[0]
    small = stripped[0]
    for lit, s in zip(boxed[1:], stripped[1:]):
        big, small = disj(big, lit), disj(small, s)
    psi = filler(rng, rng.randint(1, 3), "q")
    a7 = imp(f"K {par(big)}", big)                       # K A -> A
    lines = [
        (a7, {"kind": "axiom", "scheme": "A7"}),
        (imp(f"K {par(big)}", small), {"kind": "rd", "i": 1}),
        (f"K {par(a7)}", {"kind": "knec", "i": 1}),
        (imp(a7, imp(psi, a7)), {"kind": "axiom", "scheme": "A0"}),
        (imp(psi, a7), {"kind": "mp", "i": 1, "j": 4}),
        (imp(kb, alpha), {"kind": "axiom", "scheme": "A7"}),
        (f"K {par(imp(kb, alpha))}", {"kind": "knec", "i": 6}),
        (imp(f"K {par(imp(kb, alpha))}", imp(f"K {par(kb)}", f"K {par(alpha)}")),
         {"kind": "axiom", "scheme": "A7"}),
        (imp(f"K {par(kb)}", f"K {par(alpha)}"), {"kind": "mp", "i": 7, "j": 8}),
    ]
    if bad:
        lines.append((imp(psi, alpha), {"kind": "mp", "i": 2, "j": 8}))
    return {"lines": [{"formula": f, "just": j} for f, j in lines]}
