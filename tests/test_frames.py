import itertools
import random

import pytest

from jastit.generators import (
    all_trees,
    mixsucc_witness_frame,
    random_jstit_frame,
    random_parent_vector,
    random_stit_frame,
)
from oracles import naive_histories, naive_mixsucc, naive_regular, naive_theta
from jastit.diagnostics import ResourceBoundExceeded, violations
from jastit.frames import (
    JstitFrame,
    StitFrame,
    TemporalFrame,
    is_mixsucc,
    is_regular,
    is_unirelational,
    theta,
    validate_frame,
)


def golden_frame() -> JstitFrame:
    """Four moments, one branching, one density-annotated cover."""
    return JstitFrame(
        ["r", "m0", "c", "cc"],
        [("r", "m0"), ("m0", "c"), ("m0", "cc")],
        agents=2,
        dense=[("m0", "c")],
    )


# ---------------------------------------------------------------------------
# temporal layer

def test_history_enumeration_and_names():
    f = golden_frame()
    assert [(h.name, h.chain) for h in f.histories] == [
        ("h0", ("r", "m0", "c")),
        ("h1", ("r", "m0", "cc")),
    ]
    assert "m0" in f.history("h0")
    with pytest.raises(KeyError):
        f.history("h9")


def test_history_names_are_deterministic():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 7)
        parents = random_parent_vector(rng, n)
        names = [f"m{i}" for i in range(n)]
        covers = [(names[p], names[i]) for i, p in enumerate(parents) if p is not None]
        a = TemporalFrame(names, covers)
        b = TemporalFrame(reversed(names), reversed(covers))
        assert [h.chain for h in a.histories] == [h.chain for h in b.histories]


def test_order_accessors():
    f = golden_frame()
    assert f.le("r", "c") and f.lt("r", "c") and not f.lt("c", "c")
    assert f.covers("m0", "c") and not f.covers("r", "c")
    assert f.next("r", "m0")
    assert f.next("m0", "cc")
    # density annotation suppresses the immediate-successor reading
    assert not f.next("m0", "c")


def test_order_closure_matches_explicit_relation():
    covers = TemporalFrame(["a", "b", "c"], [("a", "b"), ("b", "c")])
    full = TemporalFrame(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c"), ("a", "c"), ("a", "a"), ("b", "b"), ("c", "c")],
    )
    assert covers == full
    assert hash(covers) == hash(full)


def test_histories_against_subset_enumeration():
    rng = random.Random(3)
    for _ in range(25):
        f = random_jstit_frame(rng, rng.randint(1, 6))
        assert {frozenset(h.chain) for h in f.histories} == naive_histories(f)


def test_undividedness():
    f = golden_frame()
    assert f.undivided_at("r", "h0", "h1")
    assert not f.undivided_at("m0", "h0", "h1")
    assert f.undivided_classes("r") == (frozenset({"h0", "h1"}),)
    assert f.undivided_classes("m0") == (frozenset({"h0"}), frozenset({"h1"}))
    assert f.undivided_classes("c") == (frozenset({"h0"}),)


# ---------------------------------------------------------------------------
# frame validation

def test_validate_clean_frame():
    assert validate_frame(golden_frame()) == []


def test_order_cycle_detected():
    f = TemporalFrame(["a", "b"], [("a", "b"), ("b", "a")])
    assert {d.code for d in violations(validate_frame(f))} == {"order-cycle"}


def test_historical_connection_detected():
    f = TemporalFrame(["a", "b"], [])
    assert {d.code for d in violations(validate_frame(f))} == {"historical-connection"}


def test_backward_branching_detected():
    f = TemporalFrame(
        ["r", "a", "b", "c"],
        [("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")],
    )
    assert {d.code for d in violations(validate_frame(f))} == {"backward-branching"}


def test_dense_pair_must_cover():
    f = TemporalFrame(["r", "a", "c"], [("r", "a"), ("a", "c")], dense=[("r", "c")])
    assert {d.code for d in violations(validate_frame(f))} == {"dense-not-cover"}


def test_choice_domain_and_partition():
    s = StitFrame(["r", "a", "b"], [("r", "a"), ("r", "b")], 1,
                  choice={("r", 0): [["h0", "h9"], ["h1"]]})
    assert {d.code for d in validate_frame(s)} == {"choice-domain"}
    s = StitFrame(["r", "a", "b"], [("r", "a"), ("r", "b")], 1,
                  choice={("r", 0): [["h0"]]})
    assert {d.code for d in validate_frame(s)} == {"choice-partition"}


def test_choice_must_respect_undividedness():
    s = StitFrame(["r", "a", "b", "c"], [("r", "a"), ("a", "b"), ("a", "c")], 1,
                  choice={("r", 0): [["h0"], ["h1"]]})
    assert {d.code for d in validate_frame(s)} == {"choice-undivided"}


def test_choice_independence():
    s = StitFrame(["r", "a", "b"], [("r", "a"), ("r", "b")], 2,
                  choice={("r", 0): [["h0"], ["h1"]],
                          ("r", 1): [["h0"], ["h1"]]})
    assert {d.code for d in validate_frame(s)} == {"choice-independence"}


def test_relation_sandwich_checks():
    j = JstitFrame(["r", "a"], [("r", "a")], 1,
                   re=[("r", "r"), ("a", "a")], close_relations=False)
    assert {d.code for d in validate_frame(j)} == {"r-not-in-re"}
    j = JstitFrame(["r", "a"], [("r", "a")], 1,
                   r=[("r", "r")], close_relations=False)
    codes = {d.code for d in validate_frame(j)}
    assert "order-not-in-r" in codes and "r-not-preorder" in codes


def test_choice_defaults_are_vacuous():
    f = golden_frame()
    for m in f.moments:
        for j in range(f.agents):
            assert f.choice_cells(m, j) == (frozenset(h.name for h in f.histories_through(m)),)
    assert f.choice_cell("m0", 1, "h0") == {"h0", "h1"}


def test_with_relations_extends():
    f = golden_frame()
    g = f.with_relations(re=set(f.re) | {("c", "cc")})
    assert ("c", "cc") in g.re
    assert g.r == f.r
    assert not is_unirelational(g)
    assert is_unirelational(f)


# ---------------------------------------------------------------------------
# golden classifier values

def test_golden_mixsucc():
    assert is_mixsucc(golden_frame()) == (False, ("m0", "c"))


def test_golden_theta():
    f = golden_frame()
    assert set(theta(f, "c")) == {frozenset({"c"}), frozenset({"c", "cc"})}
    assert set(theta(f, "cc")) == {frozenset({"cc"}), frozenset({"c", "cc"})}
    assert theta(f, "m0") == ()
    assert theta(f, "r") == ()


def test_golden_regular():
    assert is_regular(golden_frame()) == (False, ("m0", "c", "h1", frozenset({"c"})))


def test_theta_unknown_moment():
    with pytest.raises(ValueError):
        theta(golden_frame(), "zz")


def test_theta_cap():
    n = 17
    names = [f"m{i:02d}" for i in range(n)]
    chain = list(zip(names, names[1:]))
    f = JstitFrame(names, chain, 1, dense=[chain[-1]])
    with pytest.raises(ResourceBoundExceeded):
        theta(f, names[-1])
    assert theta(f, names[-1], max_moments=n) == (frozenset({names[-1]}),)


def test_every_theta_member_has_a_predecessor():
    rng = random.Random(5)
    for _ in range(30):
        f = random_jstit_frame(rng, rng.randint(1, 6), dense_p=0.3,
                               r_extra=rng.randint(0, 2), re_extra=rng.randint(0, 2))
        for m in f.moments:
            for s in theta(f, m):
                assert m in s
                for x in s:
                    assert any(f.lt(y, x) for y in f.moments)


# ---------------------------------------------------------------------------
# classifier agreement with the quantifier-sweep oracles

def _frames_from(parents, dense_choices, rng):
    names = [f"m{i}" for i in range(len(parents))]
    covers = [(names[p], names[i]) for i, p in enumerate(parents) if p is not None]
    seen = set()
    for dense in dense_choices(covers):
        key = frozenset(dense)
        if key in seen:
            continue
        seen.add(key)
        yield JstitFrame(names, covers, agents=1, dense=dense)


def _exhaustive_corpus():
    rng = random.Random(17)
    for n in range(1, 5):
        for parents in all_trees(n):
            def all_subsets(covers):
                for k in range(len(covers) + 1):
                    yield from itertools.combinations(covers, k)
            yield from _frames_from(parents, all_subsets, rng)
    for parents in all_trees(5):
        def sampled(covers):
            yield ()
            yield tuple(covers)
            for _ in range(3):
                yield tuple(e for e in covers if rng.random() < 0.4)
        yield from _frames_from(parents, sampled, rng)


def test_classifiers_agree_with_oracles_exhaustively():
    count = 0
    for f in _exhaustive_corpus():
        got, witness = is_mixsucc(f)
        assert got == naive_mixsucc(f), f
        if not got:
            assert witness is not None
        for m in f.moments:
            assert set(theta(f, m)) == naive_theta(f, m), (f, m)
        got, witness = is_regular(f)
        assert got == naive_regular(f), f
        count += 1
    assert count > 150


def test_classifiers_agree_on_extended_relations():
    rng = random.Random(23)
    for _ in range(40):
        f = random_jstit_frame(rng, rng.randint(2, 6), dense_p=0.3,
                               r_extra=rng.randint(0, 2), re_extra=rng.randint(0, 2))
        assert is_mixsucc(f)[0] == naive_mixsucc(f)
        for m in f.moments:
            assert set(theta(f, m)) == naive_theta(f, m), (f, m)
        assert is_regular(f)[0] == naive_regular(f)


def test_generated_witness_frames_fail_mixsucc():
    rng = random.Random(29)
    for _ in range(25):
        frame, a, b = mixsucc_witness_frame(rng, rng.randint(4, 7))
        ok, witness = is_mixsucc(frame)
        assert not ok
        assert not naive_mixsucc(frame)
        m, m1 = witness
        assert frame.lt(m, m1)


def test_random_stit_frames_validate():
    rng = random.Random(31)
    for _ in range(25):
        s = random_stit_frame(rng, rng.randint(2, 7), agents=rng.randint(1, 3),
                              dense_p=0.2)
        assert violations(validate_frame(s)) == []
        assert s.temporal_reduct() == TemporalFrame(s.moments, s.leq, dense=s.dense)
