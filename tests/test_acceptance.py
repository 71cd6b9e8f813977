"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single ``criterion N: PASS`` line on success (visible
under ``pytest -s``); under ``pytest -v`` the test names themselves give
the per-criterion verdict. All randomness is seeded, every structure is
desk-scale (frames of at most ten moments, two agents), and each test is
budgeted to finish well under a minute.
"""

import itertools
import random

from jastit.generators import (
    all_trees,
    mixsucc_witness_frame,
    random_formula,
    random_jstit_frame,
    random_model,
    random_polynomial,
    random_preorder_extension,
    scheme_instance,
    tree_data,
)
from oracles import (
    naive_mixsucc,
    naive_regular,
    naive_satisfies,
    naive_theta,
    rd_conclusions,
    rd_premises,
)
from jastit.calculus import (
    Axiom, Proof, RD, SCHEME_IDS, match_axiom, match_rd, verify_proof,
)
from jastit.countermodels import (
    RegWitness,
    TARGET_FORMULA,
    build_jstit_countermodel,
    build_stit_countermodel,
    build_temporal_countermodel,
    complete_mixsucc_witness,
)
from jastit.diagnostics import violations
from jastit.frames import JstitFrame, is_mixsucc, is_regular, theta, validate_frame
from jastit.models import (
    ConstantSpecification,
    JstitModel,
    Universe,
    validate_model,
)
from jastit.semantics import Index, satisfies, valid_in_model
from jastit.syntax import (
    Announced,
    Box,
    Check,
    Cstit,
    Knows,
    Not,
    ProofVar,
    PropVar,
    Proves,
    Sum,
    dia,
    iff,
    implies,
    parse_formula,
    render,
)


def _pass(n: int, msg: str) -> None:
    print(f"criterion {n}: PASS - {msg}")


def _widen(model: JstitModel, formulas) -> JstitModel:
    uni = model.universe.extended(formulas=formulas)
    return JstitModel(model.frame, uni, model.act, dict(model.evidence),
                      dict(model.valuation), model.evidence_default)


# ---------------------------------------------------------------------------
# criterion 1: counter-model replays falsify the target at the returned index

def test_criterion_1_falsification_replays():
    rng = random.Random(101)
    stit_runs = temporal_runs = 0
    for _ in range(20):
        frame, a, b = mixsucc_witness_frame(rng, rng.randint(4, 9))
        ok, pair = is_mixsucc(frame)
        assert not ok
        w = complete_mixsucc_witness(frame, *pair)

        model, idx = build_stit_countermodel(frame, w)
        assert violations(validate_frame(model.frame)) == []
        assert violations(validate_model(model)) == []
        assert not satisfies(model, idx, TARGET_FORMULA)
        stit_runs += 1

        temporal = frame.temporal_reduct()
        wt = complete_mixsucc_witness(temporal, a, b)
        tmodel, tidx = build_temporal_countermodel(temporal, wt, agents=2)
        assert violations(validate_frame(tmodel.frame)) == []
        assert violations(validate_model(tmodel)) == []
        assert not satisfies(tmodel, tidx, TARGET_FORMULA)
        temporal_runs += 1

    jstit_runs = 0
    while jstit_runs < 20:
        f = random_jstit_frame(rng, rng.randint(4, 8), dense_p=0.5,
                               r_extra=rng.randint(0, 2),
                               re_extra=rng.randint(0, 2))
        ok, wit = is_regular(f)
        if ok:
            continue
        model, idx = build_jstit_countermodel(f, RegWitness(*wit))
        assert violations(validate_frame(model.frame)) == []
        assert violations(validate_model(model)) == []
        assert not satisfies(model, idx, TARGET_FORMULA)
        jstit_runs += 1

    assert stit_runs >= 20 and temporal_runs >= 20 and jstit_runs >= 20
    _pass(1, f"{stit_runs}/{stit_runs} stit, {temporal_runs}/{temporal_runs} "
             f"temporal, {jstit_runs}/{jstit_runs} jstit replays falsified "
             "the target on validated models")


# ---------------------------------------------------------------------------
# criterion 2: every axiom scheme is valid on validated models over regular
# frames

def _fill(rng: random.Random, agents: int):
    return random_formula(rng, rng.randint(0, 2), ("p", "q"), agents)


def _poly(rng: random.Random):
    return random_polynomial(rng, 1)


def test_criterion_2_soundness_sweep():
    rng = random.Random(211)
    cs = ConstantSpecification.from_entries(
        [(("c",), implies(PropVar("p"), PropVar("p")))])
    counts = {sch: 0 for sch in SCHEME_IDS}
    models = 0
    failures = []
    while models < 200:
        frame = random_jstit_frame(rng, rng.randint(3, 6),
                                   r_extra=rng.randint(0, 2),
                                   re_extra=rng.randint(0, 2))
        assert is_regular(frame)[0]
        model = random_model(rng, frame)
        assert violations(validate_model(model, cs)) == []
        models += 1

        instances = {sch: scheme_instance(rng, sch, frame.agents, _fill, _poly)
                     for sch in SCHEME_IDS}
        assert all(match_axiom(f) is not None for f in instances.values())
        wide = _widen(model, instances.values())
        for sch, inst in instances.items():
            ok, where = valid_in_model(wide, inst)
            if not ok:
                failures.append((sch, render(inst), where))
            counts[sch] += 1

    assert failures == [], failures
    assert all(c >= 50 for c in counts.values())
    _pass(2, f"{sum(counts.values())} scheme instances "
             f"({min(counts.values())}+ per scheme) valid on {models} "
             "validated specification-normal models, 0 failures")


# ---------------------------------------------------------------------------
# criterion 3: the two-line derivation of the target formula checks out

def test_criterion_3_target_derivation():
    step = parse_formula("K (Box E x | ~Box E y) -> (Box E x | ~Box E y)")
    proof = Proof([(step, Axiom("A7")), (TARGET_FORMULA, RD(1))])
    verdict = verify_proof(proof)
    assert verdict.ok
    assert all(line.ok for line in verdict.lines)
    assert "A7" in verdict.lines[0].message
    _pass(3, "two-line proof (A7 instance, then the announcement rule) "
             "of the target accepted with an empty specification")


# ---------------------------------------------------------------------------
# criterion 4: support-set members always have a strict predecessor

def _tree_frame(parents, dense, agents: int = 1) -> JstitFrame:
    names = [f"m{i}" for i in range(len(parents))]
    covers = [(names[p], names[i])
              for i, p in enumerate(parents) if p is not None]
    return JstitFrame(names, covers, agents=agents, dense=dense)


def test_criterion_4_theta_members_have_strict_predecessors():
    corpus = []
    for n in range(1, 5):
        for parents in all_trees(n):
            names = [f"m{i}" for i in range(n)]
            covers = [(names[p], names[i])
                      for i, p in enumerate(parents) if p is not None]
            for k in range(len(covers) + 1):
                for dense in itertools.combinations(covers, k):
                    corpus.append(_tree_frame(parents, dense))
    rng = random.Random(401)
    for _ in range(60):
        corpus.append(random_jstit_frame(rng, rng.randint(5, 8),
                                         dense_p=rng.choice((0.0, 0.3, 0.6)),
                                         r_extra=rng.randint(0, 2),
                                         re_extra=rng.randint(0, 2)))

    checked = 0
    for frame in corpus:
        for m in frame.moments:
            for s in theta(frame, m):
                for member in s:
                    assert any(frame.lt(x, member) for x in frame.moments), \
                        (frame.moments, m, s, member)
                    checked += 1
    assert checked > 1000
    _pass(4, f"{checked} support-set members across {len(corpus)} frames "
             "all have a strict predecessor")


# ---------------------------------------------------------------------------
# criterion 5: relation extensions of mixed-successor frames stay regular

def test_criterion_5_extensions_of_mixsucc_frames_are_regular():
    rng = random.Random(501)
    frames = pairs = 0
    for _ in range(100):
        names, covers, _ = tree_data(rng, rng.randint(3, 7))
        base = JstitFrame(names, covers, agents=2)
        assert is_mixsucc(base)[0]
        frames += 1
        for _ in range(5):
            r = random_preorder_extension(rng, base, base.leq,
                                          rng.randint(0, 3))
            re = random_preorder_extension(rng, base, r, rng.randint(0, 3))
            f = JstitFrame(names, covers, agents=2, r=r, re=re)
            ok, wit = is_regular(f)
            assert ok, (names, covers, sorted(r), sorted(re), wit)
            pairs += 1
    assert frames == 100 and pairs == 500
    _pass(5, f"{pairs} relation extensions over {frames} mixed-successor "
             "frames all classify regular")


# ---------------------------------------------------------------------------
# criterion 6: classifiers and satisfaction agree with brute-force oracles

def _exhaustive_frames():
    for n in range(1, 6):
        for parents in all_trees(n):
            names = [f"m{i}" for i in range(n)]
            covers = [(names[p], names[i])
                      for i, p in enumerate(parents) if p is not None]
            for k in range(len(covers) + 1):
                for dense in itertools.combinations(covers, k):
                    yield _tree_frame(parents, dense)


def test_criterion_6_oracle_equivalence():
    exhaustive = 0
    sat_probe_rng = random.Random(601)
    for i, f in enumerate(_exhaustive_frames()):
        assert is_mixsucc(f)[0] == naive_mixsucc(f), f
        for m in f.moments:
            assert set(theta(f, m)) == naive_theta(f, m), (f, m)
        assert is_regular(f)[0] == naive_regular(f), f
        exhaustive += 1
        if i % 10 == 0:
            model = random_model(sat_probe_rng, f)
            probes = [random_formula(sat_probe_rng, 2, ("p", "q"), f.agents)
                      for _ in range(3)]
            wide = _widen(model, probes)
            for g in probes:
                for m in f.moments:
                    for h in f.histories_through(m):
                        assert (satisfies(wide, Index(m, h.name), g)
                                == naive_satisfies(wide, m, h.name, g))

    rng = random.Random(607)
    random_checks = 0
    for _ in range(400):
        f = random_jstit_frame(rng, rng.randint(6, 9),
                               dense_p=rng.choice((0.0, 0.3, 0.6)),
                               r_extra=rng.randint(0, 2),
                               re_extra=rng.randint(0, 2))
        assert is_mixsucc(f)[0] == naive_mixsucc(f), f
        random_checks += 1
    for _ in range(100):
        f = random_jstit_frame(rng, rng.randint(6, 7),
                               dense_p=rng.choice((0.0, 0.4)),
                               re_extra=rng.randint(0, 2))
        for m in f.moments:
            assert set(theta(f, m)) == naive_theta(f, m), (f, m)
            random_checks += 1
    for _ in range(60):
        f = random_jstit_frame(rng, rng.randint(6, 7),
                               dense_p=rng.choice((0.0, 0.4)),
                               r_extra=rng.randint(0, 1),
                               re_extra=rng.randint(0, 1))
        assert is_regular(f)[0] == naive_regular(f), f
        random_checks += 1
    for _ in range(25):
        f = random_jstit_frame(rng, rng.randint(5, 7), dense_p=0.3)
        model = random_model(rng, f, explicit_evidence=rng.random() < 0.4)
        probes = [random_formula(rng, 2, ("p", "q"), f.agents)
                  for _ in range(4)]
        wide = _widen(model, probes)
        for g in probes:
            for m in f.moments:
                for h in f.histories_through(m):
                    assert (satisfies(wide, Index(m, h.name), g)
                            == naive_satisfies(wide, m, h.name, g))
                    random_checks += 1

    assert exhaustive >= 400 and random_checks >= 1000
    _pass(6, f"classifiers and satisfaction match the oracles on "
             f"{exhaustive} exhaustive small frames and {random_checks} "
             "random larger checks")


# ---------------------------------------------------------------------------
# criterion 7: parse/render round trip and announcement-rule matching

def test_criterion_7_roundtrip_and_rule_matching():
    rng = random.Random(701)
    for _ in range(10_000):
        f = random_formula(rng, rng.randint(1, 4))
        assert parse_formula(render(f)) == f, render(f)

    x, y, c = ProofVar("x"), ProofVar("y"), Sum(ProofVar("x"), ProofVar("y"))
    antecedent = PropVar("p")
    pairs_checked = 0
    parts_pool = [
        ((False, x),),
        ((True, y),),
        ((False, x), (True, y)),
        ((True, x), (True, y)),
        ((False, x), (True, y), (False, c)),
        ((True, x), (False, y), (True, c)),
    ]
    for parts in parts_pool:
        prems = rd_premises(antecedent, parts)
        concs = rd_conclusions(antecedent, parts)
        for prem in prems:
            for conc in concs:
                assert match_rd(prem, conc), (render(prem), render(conc))
                pairs_checked += 1
        if len(parts) > 1:
            for prem in prems:
                for conc in rd_conclusions(antecedent, parts[:-1]):
                    assert not match_rd(prem, conc)
    _pass(7, f"10000 parse/render round trips exact; announcement rule "
             f"matched all {pairs_checked} ordering/bracketing variants "
             "and rejected every dropped-disjunct variant")


# ---------------------------------------------------------------------------
# criterion 8: hand-picked consistent sets get explicit finite models

def _point_model(props_true=("p", "q"), evidence_default=None):
    frame = JstitFrame(["w"], [], agents=1)
    val = {p: {("w", "h0")} for p in props_true}
    uni = Universe.close(
        formulas=[PropVar("p"), PropVar("q"),
                  Proves(ProofVar("x"), PropVar("p"))])
    kwargs = {}
    if evidence_default is not None:
        kwargs["evidence_default"] = evidence_default
    return JstitModel(frame, uni, {}, {}, val, **kwargs), Index("w", "h0")


def _chain_model(act_polys):
    frame = JstitFrame(["r", "c"], [("r", "c")], agents=1,
                       dense=[("r", "c")])
    uni = Universe.close(
        formulas=[Announced(ProofVar("x")), Announced(ProofVar("y"))],
        polynomials=list(act_polys))
    model = JstitModel(frame, uni, {("c", "h0"): act_polys}, {}, {})
    return model, Index("c", "h0")


def _choice_model():
    frame = JstitFrame(
        ["r", "a", "b"], [("r", "a"), ("r", "b")], agents=2,
        choice={("r", 0): [frozenset({"h0"}), frozenset({"h1"})]})
    val = {"p": {("r", "h0"), ("a", "h0")}}
    model = JstitModel(frame, None, {}, {}, val)
    return model, Index("r", "h0")


def _golden_model():
    frame = JstitFrame(["r", "m0", "c", "cc"],
                       [("r", "m0"), ("m0", "c"), ("m0", "cc")],
                       agents=2, dense=[("m0", "c")])
    _, wit = is_regular(frame)
    model, idx = build_jstit_countermodel(frame, RegWitness(*wit))
    return model, idx


def test_criterion_8_consistent_sets_have_explicit_models():
    p, q = PropVar("p"), PropVar("q")
    x = ProofVar("x")
    cases = [
        ("factive point", _point_model(),
         [p, Knows(p), Box(p), Proves(x, p)]),
        ("lone announcement", _chain_model(frozenset({x})),
         [parse_formula("E x"), parse_formula("~E y")]),
        ("false equivalents", _point_model(props_true=()),
         [iff(p, q), Not(p), Not(q)]),
        ("open choice", _choice_model(),
         [dia(Cstit(0, p)), dia(Cstit(0, Not(p)))]),
        ("closed knowledge", _point_model(),
         [Knows(implies(p, q)), Knows(p), q]),
        ("unproven truth", _point_model(evidence_default=frozenset()),
         [Not(Proves(x, p)), p]),
        ("composite announcement",
         _chain_model(frozenset({Sum(ProofVar("x"), ProofVar("y"))})),
         [parse_formula("E x + y"), parse_formula("~E x"),
          parse_formula("~E y")]),
        ("known disjunction, falsified target", _golden_model(),
         [parse_formula("K (Box E x | ~Box E y)"), parse_formula("~E x"),
          parse_formula("E y")]),
        ("agent asymmetry", _choice_model(),
         [Cstit(0, p), Not(Cstit(1, p)), Not(Box(p))]),
        ("checked proof", _point_model(),
         [Proves(Check(x), Proves(x, p)), Proves(x, p), Knows(p),
          Box(Knows(p))]),
    ]
    for name, (model, idx), formulas in cases:
        assert violations(validate_model(model)) == [], name
        wide = _widen(model, formulas)
        for f in formulas:
            assert satisfies(wide, idx, f), (name, render(f))
    assert len(cases) == 10
    _pass(8, "10 hand-picked consistent sets each satisfied at an index "
             "of an explicit validated finite model")
