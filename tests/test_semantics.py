import itertools
import random
import sys
from dataclasses import replace

import pytest

from jastit.calculus import SCHEME_IDS
from jastit.documents import canonical_json, dump_model
from jastit.generators import all_trees, random_formula, random_jstit_frame, random_model, scheme_instance
from oracles import (
    naive_act_valid, naive_acts, naive_find_countermodel, naive_partitions, naive_preorders,
    naive_satisfies, naive_slots,
)
from jastit.diagnostics import ResourceBoundExceeded, violations
from jastit.frames import JstitFrame, is_regular, validate_frame
from jastit.models import JstitModel, OutOfUniverseError, Universe, act_violations, validate_model
from jastit import semantics
from jastit.semantics import Index, SearchBounds, find_countermodel, satisfies, valid_in_model
from jastit.countermodels import RegWitness, TARGET_FORMULA, build_jstit_countermodel
from jastit.syntax import (
    Announced, Box, Knows, Not, ProofVar, PropVar, parse_formula, render,
)


def golden_frame() -> JstitFrame:
    return JstitFrame(
        ["r", "m0", "c", "cc"],
        [("r", "m0"), ("m0", "c"), ("m0", "cc")],
        agents=2,
        dense=[("m0", "c")],
    )


def golden_countermodel():
    frame = golden_frame()
    _, w = is_regular(frame)
    return build_jstit_countermodel(frame, RegWitness(*w))


def _widen(model, formulas):
    uni = model.universe.extended(formulas=formulas)
    return JstitModel(model.frame, uni, model.act, dict(model.evidence),
                      dict(model.valuation), model.evidence_default)


# ---------------------------------------------------------------------------
# clause-by-clause spot checks on the golden counter-model

def test_announcement_clause():
    model, _ = golden_countermodel()
    wide = _widen(model, [parse_formula("E x & E y")])
    assert satisfies(wide, ("m0", "h0"), parse_formula("E y"))
    assert not satisfies(wide, ("m0", "h0"), parse_formula("E x"))
    assert satisfies(wide, ("c", "h0"), parse_formula("E x & E y"))
    assert not satisfies(wide, ("cc", "h1"), parse_formula("E y"))


def test_settledness_clause():
    model, _ = golden_countermodel()
    wide = _widen(model, [parse_formula("Box (E x & E y)"),
                          parse_formula("~Box E y | ~Box E x")])
    # E y holds on h0 but not h1 at m0, so it is not settled there
    assert not satisfies(wide, ("m0", "h0"), parse_formula("Box E y"))
    assert satisfies(wide, ("c", "h0"), parse_formula("Box (E x & E y)"))
    assert satisfies(wide, ("m0", "h0"), parse_formula("~Box E y | ~Box E x"))


def test_knowledge_clause():
    model, _ = golden_countermodel()
    # r reaches every moment through r, where announcements vary
    wide = _widen(model, [parse_formula("K ~E x"), parse_formula("K (E x | ~E x)")])
    assert not satisfies(wide, ("r", "h0"), parse_formula("K ~E x"))
    assert satisfies(wide, ("r", "h0"), parse_formula("K (E x | ~E x)"))


def test_target_falsified_at_returned_index():
    model, idx = golden_countermodel()
    assert idx == Index("m0", "h0")
    assert not satisfies(model, idx, TARGET_FORMULA)
    assert satisfies(model, idx, parse_formula("K (Box E x | ~Box E y)"))
    assert not satisfies(model, idx, parse_formula("E x | ~E y"))


def test_stit_clause_trivial_choice():
    model, _ = golden_countermodel()
    wide = _widen(model, [parse_formula("[0] E y"), parse_formula("[1] E y")])
    # vacuous partitions make the stit modalities agree with Box
    for m, h in [("m0", "h0"), ("c", "h0")]:
        for f in ["[0] E y", "[1] E y"]:
            assert satisfies(wide, (m, h), parse_formula(f)) == \
                satisfies(wide, (m, h), parse_formula("Box E y"))


def test_proves_clause_everything_evidence():
    model, _ = golden_countermodel()
    wide = _widen(model, [parse_formula("x : E y"), parse_formula("x : (E x | ~E x)")])
    # admissibility is vacuous here, so only the re-spread of the content
    # matters: E y fails at (cc, h1), an re-successor of m0
    assert not satisfies(wide, ("m0", "h0"), parse_formula("x : E y"))
    assert satisfies(wide, ("m0", "h0"), parse_formula("x : (E x | ~E x)"))
    # at the leaf c the only re-successor is c itself, where E y holds
    assert satisfies(wide, ("c", "h0"), parse_formula("x : E y"))


def test_proves_clause_empty_evidence():
    model, _ = golden_countermodel()
    wide = _widen(model, [parse_formula("x : (E x | ~E x)")])
    empty = JstitModel(wide.frame, wide.universe, wide.act, dict(wide.evidence),
                       dict(wide.valuation), evidence_default=frozenset())
    assert not satisfies(empty, ("c", "h0"), parse_formula("x : (E x | ~E x)"))


# ---------------------------------------------------------------------------
# index handling

def test_index_forms_and_errors():
    model, _ = golden_countermodel()
    f = parse_formula("E y")
    assert satisfies(model, Index("m0", "h0"), f) == satisfies(model, ("m0", "h0"), f)
    with pytest.raises(ValueError):
        satisfies(model, ("m0", "h9"), f)
    with pytest.raises(ValueError):
        satisfies(model, ("c", "h1"), f)  # h1 does not pass through c
    with pytest.raises(OutOfUniverseError):
        satisfies(model, ("m0", "h0"), parse_formula("zz9"))


def test_valid_in_model():
    model, idx = golden_countermodel()
    ok, where = valid_in_model(model, TARGET_FORMULA)
    assert not ok and where == idx
    wide = _widen(model, [parse_formula("E y | ~E y")])
    ok, where = valid_in_model(wide, parse_formula("E y | ~E y"))
    assert ok and where is None


# ---------------------------------------------------------------------------
# agreement with the reference evaluator

def test_satisfies_agrees_with_reference():
    rng = random.Random(47)
    checked = 0
    for i in range(18):
        frame = random_jstit_frame(rng, rng.randint(2, 5), dense_p=0.2,
                                   r_extra=i % 2, re_extra=i % 2)
        model = random_model(rng, frame, explicit_evidence=(i % 3 == 0))
        probes = [random_formula(rng, depth=3) for _ in range(6)]
        wide = _widen(model, probes)
        for f in probes:
            for m in frame.moments:
                for h in frame.histories_through(m):
                    got = satisfies(wide, (m, h.name), f)
                    want = naive_satisfies(wide, m, h.name, f)
                    assert got == want, (render(f), m, h.name)
                    checked += 1
    assert checked > 400


def test_truth_vectors_agree_with_reference_bit_by_bit():
    # bit v of a truth vector is the truth under the v-th valuation of p and
    # q over the first two moment-history pairs, as the search numbers them
    rng = random.Random(53)
    for i in range(6):
        frame = random_jstit_frame(rng, rng.randint(2, 4), dense_p=0.2,
                                   r_extra=i % 2, re_extra=i % 2)
        model = random_model(rng, frame, explicit_evidence=(i % 3 == 0))
        probes = [random_formula(rng, depth=3, prop_names=("p", "q")) for _ in range(4)]
        wide = _widen(model, probes)
        cells = [(p, pair) for p in ("p", "q") for pair in wide.mh_pairs()[:2]]
        width = 1 << len(cells)
        atoms = {(p, m, h): vector for (p, (m, h)), vector
                 in zip(cells, semantics._low_bit_vectors(width))}
        ev = semantics._Evaluator(frame, wide.act, wide.evidence_at, atoms, (1 << width) - 1)
        for v in range(width):
            one = JstitModel(frame, wide.universe, wide.act, dict(wide.evidence),
                             semantics._valuation(cells, v), wide.evidence_default)
            for f in probes:
                for m, h in one.mh_pairs():
                    assert bool(ev.sat(m, h, f) >> v & 1) == naive_satisfies(one, m, h, f), \
                        (render(f), v, m, h)


# ---------------------------------------------------------------------------
# bounded search

def test_search_finds_announcement_failure():
    found = find_countermodel(parse_formula("E x"))
    assert found is not None
    model, idx = found
    assert not satisfies(model, idx, parse_formula("E x"))
    assert violations(validate_model(model)) == []


def test_search_respects_soundness_probes():
    for text in ["x : p -> p", "x : p -> K p", "K p -> Box p",
                 "Box E x -> K Box E x"]:
        assert find_countermodel(parse_formula(text)) is None, text


def test_search_refutes_invalid_formulas():
    for text in ["Box p -> K p", "p -> x : p", "E x -> Box E x"]:
        found = find_countermodel(parse_formula(text))
        assert found is not None, text
        model, idx = found
        assert not satisfies(model, idx, parse_formula(text))
        assert violations(validate_model(model)) == []


def test_search_empty_evidence_mode():
    found = find_countermodel(parse_formula("x : (p -> p)"),
                              SearchBounds(evidence_mode="empty"))
    assert found is not None
    model, idx = found
    assert model.evidence_default == frozenset()
    assert not satisfies(model, idx, parse_formula("x : (p -> p)"))


def test_search_budget_exhaustion():
    with pytest.raises(ResourceBoundExceeded):
        find_countermodel(parse_formula("x : p -> p"), SearchBounds(budget=50))


def test_search_budget_is_exact():
    # x : p -> p holds; at two moments the search settles it after exactly 10
    # candidates: 2 valuations at one moment, then 4 for each of the two
    # values of re (f reads no r, choice map or act), against the oracle's 40
    f = parse_formula("x : p -> p")
    assert find_countermodel(f, SearchBounds(max_moments=2, budget=10)) is None
    with pytest.raises(ResourceBoundExceeded,
                       match=r"budget of 9 candidates \(at 2 moments\)"):
        find_countermodel(f, SearchBounds(max_moments=2, budget=9))
    assert naive_find_countermodel(f, SearchBounds(max_moments=2)) == (None, 40)


def test_search_settles_a4_at_three_moments():
    # an A4 instance that exhausted the default budget before the search
    # skipped the parts of a model the formula cannot read
    f = parse_formula("x : ([0] p -> p) -> y : [0] p -> x * y : p")
    assert find_countermodel(f, SearchBounds(max_moments=3)) is None


def _describe(outcome) -> tuple:
    if outcome is None:
        return ("none",)
    model, idx = outcome
    return ("model", canonical_json(dump_model(model)), idx)


def _search(f, bounds):
    try:
        return find_countermodel(f, bounds)
    except ResourceBoundExceeded as e:
        return e


# Formulas whose first counter-model is decided by one part of a model the
# search enumerates only when the formula reads it, and the agent count each
# is searched with: r under K, the choice map under [j], re under a proof
# assertion, the whiteboard under E with the unannounced x and y in the
# universe, and one formula reading all four.
READ_PARTS = (
    ("~K p -> K ~K p", 1),
    ("K p -> x : p", 1),
    ("[0] p -> [1] p", 2),
    ("~x : p -> x : ~x : p", 1),
    ("~E (x * y)", 1),
    ("E x -> ([0] p -> [1] p) | (~K p -> K ~K p) | ~x : ~x : p", 2),
)


def _agrees_with_oracle(f, bounds) -> str:
    """The search's outcome kind, after checking it against the oracle: an
    answer must be the unbounded oracle's, and a bound hit must also be one
    for the oracle at the same budget."""
    got = _search(f, bounds)
    if isinstance(got, ResourceBoundExceeded):
        want, _ = naive_find_countermodel(f, bounds)
        assert isinstance(want, ResourceBoundExceeded), (render(f), bounds)
        return "bound"
    want, _ = naive_find_countermodel(f, replace(bounds, budget=sys.maxsize))
    assert _describe(got) == _describe(want), (render(f), bounds)
    return _describe(got)[0]


def test_search_agrees_with_per_candidate_oracle():
    # the search skips what f cannot read and validates once per act; the
    # oracle builds and validates every candidate of the full enumeration
    polys = (ProofVar("x"), ProofVar("y"))

    def filler(rng, agents):
        a = PropVar(rng.choice("pq"))
        return rng.choice((a, a, Not(a), Box(a), Knows(a), Announced(rng.choice(polys))))

    rng = random.Random(11)
    corpus = [parse_formula(t) for t in
              ("E x -> Box E x", "E x -> E y", "x : p -> E x", "K E x -> E x & E y")]
    for scheme in SCHEME_IDS:
        f = scheme_instance(rng, scheme, 1, filler, lambda r: r.choice(polys))
        corpus += [f, Not(f)]
    kinds = set()
    for f in corpus:
        for mode in ("everything", "empty"):
            for moments in (2, 3):
                bounds = SearchBounds(max_moments=moments, evidence_mode=mode, agents=1,
                                      budget=rng.randrange(20, 250))
                kinds.add(_agrees_with_oracle(f, bounds))
    assert kinds == {"model", "none", "bound"}
    for text, agents in READ_PARTS:
        for mode in ("everything", "empty"):
            for moments in (2, 3):
                bounds = SearchBounds(max_moments=moments, evidence_mode=mode,
                                      agents=agents)
                assert _agrees_with_oracle(parse_formula(text), bounds) != "bound"


def test_search_agrees_with_oracle_across_valuation_blocks(monkeypatch):
    # with blocks of 4 valuations, the three-moment star's 256 valuations
    # span 64 blocks; the two-moment chain spends candidates 5-20, the
    # star's first counter-models are candidates 38 and 39, and the budgets
    # stop inside a block, at its last valuation or one past it
    monkeypatch.setattr(semantics, "_BLOCK", 4)
    kinds = set()
    for text in ("p & q -> Box p", "Box (p | q) -> Box p | Box q"):
        for mode in ("everything", "empty"):
            for budget in (6, 21, 24, 25, 37, 38, 39):
                bounds = SearchBounds(max_moments=3, evidence_mode=mode, agents=1,
                                      budget=budget)
                kinds.add(_agrees_with_oracle(parse_formula(text), bounds))
    assert kinds == {"model", "bound"}


def test_relation_pairs_agree_with_naive_preorders():
    trees = 0
    for n in range(1, 5):
        for parents in all_trees(n):
            moments = [f"m{i}" for i in range(n)]
            edges = [(moments[p], m) for p, m in zip(parents, moments) if p is not None]
            base = JstitFrame(moments, edges, agents=2)
            pres = sorted(naive_preorders(base.moments, base.leq), key=sorted)
            assert semantics._relation_pairs(base) == [
                (r, re) for r in pres for re in pres if r <= re], parents
            trees += 1
    assert trees == 10


def _table_key(choice: dict) -> frozenset:
    return frozenset((key, frozenset(map(frozenset, cells))) for key, cells in choice.items())


def test_search_layers_agree_with_brute_force_on_small_trees():
    x, y = ProofVar("x"), ProofVar("y")
    trees = 0
    for tree in semantics._trees(SearchBounds(max_moments=4)):
        moments, edges, base, mh = tree.moments, tree.edges, tree.base, tree.mh
        trees += 1
        slots = naive_slots(base)
        assert list(tree.parent_slot.items()) == list(slots.items()), edges
        acts = [tree.act([x, y], p) for p in tree.acts(2)]
        assert acts == list(naive_acts(slots, [x, y])), edges
        # validate_model reads neither choice nor r, and the order's re
        # admits every act a larger re does: the act layer is complete
        universe = Universe.close(polynomials=[x])
        acts = [tree.act([x], p) for p in tree.acts(1)]
        for picks in itertools.product((frozenset(), frozenset([x])), repeat=len(mh)):
            act = dict(zip(mh, picks))
            if not violations(validate_model(JstitModel(base, universe, act))):
                assert act in acts, (edges, act)
        for agents in (1, 2):
            options = semantics._joint_choice_options(
                JstitFrame(moments, edges, agents=agents))
            found = [_table_key(choice) for choice in options]
            keys = [(m, j) for m in moments for j in range(agents)]
            partitions = [naive_partitions([h for m2, h in mh if m2 == m]) for m, _ in keys]
            valid = set()
            for picks in itertools.product(*partitions):
                choice = dict(zip(keys, picks))
                frame = JstitFrame(moments, edges, agents=agents, choice=choice)
                if not violations(validate_frame(frame)):
                    valid.add(_table_key(choice))
            assert len(set(found)) == len(found) and set(found) == valid, (edges, agents)
    assert trees == 10


def test_one_cell_choice_is_the_first_joint_choice():
    trees = 0
    for agents in (1, 2, 3):
        for tree in semantics._trees(SearchBounds(max_moments=4, agents=agents)):
            first = semantics._joint_choice_options(tree.base)[0]
            assert list(semantics._one_cell_choice(tree.base).items()) == list(first.items())
            assert tree.one_cell_choice == tree.joint_choices[0] == first
            trees += 1
    assert trees == 30


def test_placement_table_agrees_with_naive_act_oracle():
    # an act is valid iff each of its placements is: the table's verdict
    # equals the naive restatement and act_violations on every act over
    # {x, y}, every tree of 1-4 moments and every re the search visits
    x, y = ProofVar("x"), ProofVar("y")
    triples = 0
    for tree in semantics._trees(SearchBounds(max_moments=4)):
        acts = [(p, tree.act([x, y], p)) for p in tree.acts(2)]
        for r, re in tree.relation_pairs(False, True):
            frame = tree.frame(0, r, re)
            valid = tree.valid_placements(frame)
            for placements, act in acts:
                verdict = all(p in valid for p in placements)
                assert verdict == naive_act_valid(frame, act), (tree.edges, sorted(re), act)
                assert verdict == (not violations(act_violations(frame, act)))
                triples += 1
    assert triples == 44_130


@pytest.fixture
def fresh_tables():
    # the search keeps its tree tables for the process: a test that patches
    # what builds them starts and ends without any
    semantics._tree_table.cache_clear()
    yield
    semantics._tree_table.cache_clear()


def test_search_tables_are_built_once_and_bounded(monkeypatch, fresh_tables):
    frames, decided = [], []

    class CountingFrame(JstitFrame):
        def __init__(self, *args, **kwargs):
            frames.append(args)
            super().__init__(*args, **kwargs)

    def counting_act_violations(frame, act):
        decided.append(act)
        return act_violations(frame, act)

    monkeypatch.setattr(semantics, "JstitFrame", CountingFrame)
    monkeypatch.setattr(semantics, "act_violations", counting_act_violations)
    for text in ("E x -> Box E x", "E x -> E x"):
        semantics._tree_table.cache_clear()
        first = find_countermodel(parse_formula(text))
        assert frames and decided
        frames.clear()
        decided.clear()
        assert find_countermodel(parse_formula(text)) == first
        assert frames == [] and decided == []
    # the four-moment star has 405 relation pairs and several joint choice
    # maps; the budget stops the search well inside it
    with pytest.raises(ResourceBoundExceeded):
        find_countermodel(parse_formula("[0] K E x -> K E x"),
                          SearchBounds(max_moments=4, budget=20_000))
    held = [len(tree._frames) for tree in semantics._trees(SearchBounds(max_moments=4))]
    assert max(held) == semantics._FRAMES_PER_TREE, held


def test_search_builds_only_the_returned_model(monkeypatch, fresh_tables):
    # act validity is decided from the frame and the act, so no other
    # model is built and validate_model, which takes a model, is not called
    built = []

    class CountingModel(JstitModel):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(semantics, "JstitModel", CountingModel)
    found = find_countermodel(parse_formula("E x -> Box E x"))
    assert found is not None and built == [found[0].frame]
    built.clear()
    assert find_countermodel(parse_formula("E x -> E x"), SearchBounds(max_moments=3)) is None
    assert built == []
    with pytest.raises(ResourceBoundExceeded):
        find_countermodel(parse_formula("E x -> E x"), SearchBounds(budget=9))
    assert built == []


def test_set_partitions_are_bell_many_and_distinct():
    for n, bell in enumerate((1, 1, 2, 5, 15, 52, 203)):
        items = tuple(range(n))
        parts = semantics._set_partitions(items)
        assert len(parts) == bell
        assert len(set(parts)) == bell
        for p in parts:
            assert sorted(x for cell in p for x in cell) == list(items)


def test_search_rejects_unknown_mode_and_agents():
    with pytest.raises(ValueError):
        find_countermodel(parse_formula("p"), SearchBounds(evidence_mode="x"))
    with pytest.raises(ValueError):
        find_countermodel(parse_formula("[5] p"), SearchBounds(agents=2))


def test_found_models_are_minimal_first():
    found = find_countermodel(parse_formula("p"))
    assert found is not None
    model, _ = found
    assert len(model.frame.moments) == 1
