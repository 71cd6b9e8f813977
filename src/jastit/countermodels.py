"""Explicit falsifying-model constructions for the frame classifiers.

Each builder turns a classifier witness into a concrete model that falsifies
the fixed target formula

    K(Box E x | ~Box E y) -> (E x | ~E y)

at a determined moment-history pair. The target says: if it is known that
x's presence on the whiteboard is settled or y's is not, then x is actually
present or y actually absent. Frames on which it can fail are exactly those
admitting the witnesses below, which is what makes the formula a separator
for the frame classes involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .frames import (
    History, JstitFrame, StitFrame, TemporalFrame, theta,
)
from .models import JstitModel, Universe
from .semantics import Index
from .syntax import ProofVar, parse_formula

__all__ = [
    "TARGET_FORMULA", "POLY_X", "POLY_Y",
    "MixsuccWitness", "RegWitness", "WitnessError",
    "complete_mixsucc_witness",
    "build_stit_countermodel", "build_temporal_countermodel",
    "build_jstit_countermodel", "dense_pairs_supporting",
]

TARGET_FORMULA = parse_formula("K(Box E x | ~Box E y) -> (E x | ~E y)")
POLY_X = ProofVar("x")
POLY_Y = ProofVar("y")

_TARGET_UNIVERSE = Universe.close(formulas=[TARGET_FORMULA])


class WitnessError(ValueError):
    """A witness fails one of its defining conjuncts; the message names it."""

    def __init__(self, conjunct: str, detail: str):
        self.conjunct = conjunct
        super().__init__(f"witness invalid ({conjunct}): {detail}")


@dataclass(frozen=True)
class MixsuccWitness:
    """Moments m0 strictly below m1 with no immediate successor of m0 at or
    below m1, plus two histories through m0 divided at m0."""

    m0: str
    m1: str
    h0: str
    h1: str


@dataclass(frozen=True)
class RegWitness:
    """A regularity failure: support set S shared by every Theta family on
    the interval above m0 up to m1, missing m0, with an escape history h'
    through m0 divided from everything through m1."""

    m0: str
    m1: str
    h_prime: str
    s: frozenset


def _history_through(frame: TemporalFrame, name: str, m: str, role: str) -> History:
    try:
        h = frame.history(name)
    except KeyError:
        raise WitnessError(role, f"unknown history {name!r}")
    if m not in h:
        raise WitnessError(role, f"{name} does not pass through {m}")
    return h


def _check_no_next_below(frame: TemporalFrame, m0: str, m1: str) -> None:
    for m in frame.moments:
        if frame.le(m, m1) and frame.next(m0, m):
            raise WitnessError(
                "no immediate successor up to m1",
                f"next({m0}, {m}) holds with {m} below or at {m1}")


def check_mixsucc_witness(frame: TemporalFrame, w: MixsuccWitness) -> None:
    if w.m0 not in frame.moments or w.m1 not in frame.moments:
        raise WitnessError("moments", f"unknown moment in ({w.m0!r}, {w.m1!r})")
    if not frame.lt(w.m0, w.m1):
        raise WitnessError("m0 strictly before m1", f"not {w.m0} < {w.m1}")
    h0 = _history_through(frame, w.h0, w.m0, "h0 through m0")
    h1 = _history_through(frame, w.h1, w.m0, "h1 through m0")
    if frame.undivided_at(w.m0, h0, h1):
        raise WitnessError("h0 divided from h1 at m0",
                           f"{w.h0} and {w.h1} share a moment after {w.m0}")
    _check_no_next_below(frame, w.m0, w.m1)


def complete_mixsucc_witness(frame: TemporalFrame, m0: str, m1: str,
                             h0: Optional[str] = None, h1: Optional[str] = None
                             ) -> MixsuccWitness:
    """Fill in the least divided history pair at m0 when none is given."""
    if h0 is None or h1 is None:
        hs = frame.histories_through(m0) if m0 in frame.moments else ()
        for a in hs:
            for b in hs:
                if a.name < b.name and not frame.undivided_at(m0, a, b):
                    w = MixsuccWitness(m0, m1, a.name, b.name)
                    check_mixsucc_witness(frame, w)
                    return w
        raise WitnessError("h0 divided from h1 at m0",
                           f"all histories through {m0} are pairwise undivided")
    w = MixsuccWitness(m0, m1, h0, h1)
    check_mixsucc_witness(frame, w)
    return w


def check_reg_witness(frame: JstitFrame, w: RegWitness) -> None:
    if w.m0 not in frame.moments or w.m1 not in frame.moments:
        raise WitnessError("moments", f"unknown moment in ({w.m0!r}, {w.m1!r})")
    if not frame.lt(w.m0, w.m1):
        raise WitnessError("m0 strictly before m1", f"not {w.m0} < {w.m1}")
    unknown = sorted(set(w.s) - set(frame.moments))
    if unknown:
        raise WitnessError("support set", f"unknown moments {unknown}")
    if w.m0 in w.s:
        raise WitnessError("m0 outside S", f"{w.m0} is in S")
    for mid in frame.moments:
        if frame.lt(w.m0, mid) and frame.le(mid, w.m1):
            if w.s not in theta(frame, mid):
                raise WitnessError(
                    "S in every Theta family on the interval",
                    f"S is not in the Theta family of {mid}")
    hp = _history_through(frame, w.h_prime, w.m0, "h' through m0")
    for g in frame.histories_through(w.m1):
        if frame.undivided_at(w.m0, hp, g):
            raise WitnessError(
                "h' divided from every history through m1",
                f"{w.h_prime} is undivided from {g.name} at {w.m0}")
    for m2 in hp.chain:
        if frame.next(w.m0, m2) and m2 in w.s:
            raise WitnessError(
                "h' avoids next successors inside S",
                f"{m2} on {w.h_prime} is a next successor of {w.m0} inside S")
    _check_no_next_below(frame, w.m0, w.m1)


def dense_pairs_supporting(frame: TemporalFrame, m0: str, m1: str) -> tuple:
    """Annotated covers of m0 at or below m1: the pairs whose declared
    stretches make the witness possible on a finite order."""
    return tuple(sorted(
        (a, b) for a, b in frame.dense
        if a == m0 and frame.le(b, m1) and frame.covers(a, b)
    ))


# ---------------------------------------------------------------------------
# builders

def _least_history_through(frame: TemporalFrame, m: str) -> History:
    return frame.histories_through(m)[0]


def _build_settled_announcement_model(frame: JstitFrame, m0: str, m1: str,
                                      act_of) -> tuple[JstitModel, Index]:
    act = {}
    for m in frame.moments:
        for h in frame.histories_through(m):
            act[(m, h.name)] = act_of(m, h)
    model = JstitModel(frame, _TARGET_UNIVERSE, act, {}, {})
    h2 = _least_history_through(frame, m1)
    return model, Index(m0, h2.name)


def build_stit_countermodel(frame: StitFrame, w: MixsuccWitness
                            ) -> tuple[JstitModel, Index]:
    """Extend a choice frame violating the mixed-successor condition to a
    model falsifying the target formula at (m0, least history through m1).

    The epistemic relations are both set to the temporal order, evidence is
    Everything, the valuation empty. y is presented exactly on the bundle of
    histories staying undivided from the falsifying one at m0; x joins y
    strictly later on that bundle, so x never becomes settled at m0 while y
    is already presented there.
    """
    check_mixsucc_witness(frame, w)
    jframe = JstitFrame(frame.moments, frame.leq, frame.agents, frame.choice,
                        dense=frame.dense)
    h2 = _least_history_through(jframe, w.m1)

    def act_of(m: str, h: History) -> frozenset:
        if m == w.m0 and jframe.undivided_at(w.m0, h, h2):
            return frozenset([POLY_Y])
        if jframe.lt(w.m0, m) and w.m0 in h and jframe.undivided_at(w.m0, h, h2):
            return frozenset([POLY_X, POLY_Y])
        return frozenset()

    return _build_settled_announcement_model(jframe, w.m0, w.m1, act_of)


def build_temporal_countermodel(frame: TemporalFrame, w: MixsuccWitness,
                                agents: int = 2) -> tuple[JstitModel, Index]:
    """Same construction over a bare temporal frame: every agent gets the
    vacuous single-cell choice everywhere, so the stit modalities collapse
    into historical necessity."""
    stit = StitFrame(frame.moments, frame.leq, agents, choice=None, dense=frame.dense)
    return build_stit_countermodel(stit, w)


def build_jstit_countermodel(frame: JstitFrame, w: RegWitness
                             ) -> tuple[JstitModel, Index]:
    """Extend a jstit frame violating regularity to a falsifying model.

    Keeps the frame's own epistemic relations. x and y ride on the support
    set S: both are presented inside S and on any history about to enter S,
    while at m0 itself only y is presented, and only on histories undivided
    from the falsifying one.
    """
    check_reg_witness(frame, w)
    h2 = _least_history_through(frame, w.m1)

    def act_of(m: str, h: History) -> frozenset:
        if m == w.m0 and frame.undivided_at(w.m0, h, h2):
            return frozenset([POLY_Y])
        if m in w.s or any(m2 in w.s and frame.next(m, m2) for m2 in h.chain):
            return frozenset([POLY_X, POLY_Y])
        return frozenset()

    return _build_settled_announcement_model(frame, w.m0, w.m1, act_of)
