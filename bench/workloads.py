"""The three workloads: seeded inputs, one item's work, and its checks.

A workload's inputs form a pool of blocks. Every block has the same
make-up, so whole blocks keep the mix of items fixed however long a run
lasts. `run` is the timed work of one item; `check` runs outside the
timed region and returns a list of errors, empty when the output is
right; `digest` condenses an output so that a repeat of the item can be
compared with the checked first run. Checks rest on the naive oracles in tests/oracles.py, on
properties the method must have, and on facts the generator built in.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import gen

# ---------------------------------------------------------------------------
# search

# Connectives per filler formula. The search grows steeply with the
# universe, and larger fillers make the cost of an instance swing widely.
FILLER_SIZE = 1
# Instances per block. A4 is where an axiom sweep spends most of its
# time. Four A4 and three A5 searches put the 90th percentile and the
# median inside those two tight groups; between groups, a quantile would
# jump with every seed.
SCHEME_COUNTS = {s: 1 for s in gen.SCHEMES} | {"A4": 4, "A5": 3}
# searched exhaustively up to three moments; A3 in its one-agent variant,
# since the two-agent one takes seconds per instance. Their fillers
# announce nothing: at three moments each polynomial in the universe
# doubles the search, so a chance announcement would swamp the mix.
DEEP_SCHEMES = ("A2", "A3", "A8", "A9")
# evidence mode "empty"; A4 is left out, its search takes seconds there
EMPTY_SCHEMES = ("A5", "A6")


@dataclass
class SearchItem:
    key: str
    text: str
    max_moments: int
    evidence_mode: str
    scheme: str = ""            # the axiom scheme, or "" for a branching formula
    formula: Any = None
    bounds: Any = None


class Search:
    """find_countermodel verdicts on axiom instances and on formulas that
    fail only on a branching tree."""

    name = "search"

    def generate(self, pkg, seed: int, workdir: Path) -> list[list[SearchItem]]:
        rng = random.Random(f"search-{seed}")
        blocks = []
        for b in range(12):
            block = []
            for scheme in gen.SCHEMES:
                for k in range(SCHEME_COUNTS[scheme]):
                    variant = b * SCHEME_COUNTS[scheme] + k
                    text = gen.scheme_instance(rng, scheme, variant, FILLER_SIZE)
                    block.append(SearchItem(f"{b}.{scheme}.{k}", text, 2, "everything",
                                            scheme))
            for scheme in DEEP_SCHEMES:
                text = gen.scheme_instance(rng, scheme, 0, FILLER_SIZE, polys="")
                block.append(SearchItem(f"{b}.deep.{scheme}", text, 3, "everything", scheme))
            for scheme in EMPTY_SCHEMES:
                text = gen.scheme_instance(rng, scheme, b, FILLER_SIZE)
                block.append(SearchItem(f"{b}.empty.{scheme}", text, 2, "empty", scheme))
            for i, text in enumerate(gen.BRANCHING):
                block.append(SearchItem(f"{b}.branching.{i}", text, 3, "everything"))
            blocks.append(block)
        for block in blocks:
            for item in block:
                item.formula = pkg.syntax.parse_formula(item.text)
                item.bounds = pkg.semantics.SearchBounds(
                    max_moments=item.max_moments, evidence_mode=item.evidence_mode)
        return blocks

    def run(self, pkg, item: SearchItem):
        return pkg.semantics.find_countermodel(item.formula, item.bounds)

    def digest(self, found):
        return None if found is None else (hash(found[0]), found[1])

    def check(self, pkg, item: SearchItem, found) -> list[str]:
        if item.scheme:
            errors = []
            got = pkg.calculus.match_axiom(item.formula)
            if got is None or got.scheme != item.scheme:
                errors.append(f"{item.key}: match_axiom names "
                              f"{got and got.scheme}, not {item.scheme}")
            if found is not None:
                errors.append(f"{item.key}: counter-model to an axiom instance "
                              f"{item.text}, a soundness fault")
            return errors
        if found is None:
            return [f"{item.key}: no counter-model for {item.text}"]
        model, idx = found
        errors = []
        if pkg.oracles.naive_satisfies(model, idx.moment, idx.history, item.formula):
            errors.append(f"{item.key}: naive evaluation finds {item.text} true "
                          f"at ({idx.moment}, {idx.history})")
        bad = pkg.diagnostics.violations(pkg.models.validate_model(model))
        if bad:
            errors.append(f"{item.key}: counter-model has violations: {bad[0]}")
        if len(model.frame.histories) < 2:
            errors.append(f"{item.key}: {item.text} fails on a frame with one history")
        return errors


# ---------------------------------------------------------------------------
# classify

DENSITIES = (0.0, 0.25, 0.5, 0.75)
# Frame sizes per block, weighted toward small frames since theta's cost
# doubles with each moment: a run has well over a hundred items, and the
# median and the 90th percentile fall inside the 10- and 13-moment
# groups rather than between two groups. One 8-moment frame per block:
# the naive oracles check those and take about a second each.
CLASSIFY_SIZES = (8, 9, 9, 10, 10, 10, 10, 10, 11, 11, 12, 13, 13, 14)
EXTRA_PAIRS = 2
ORACLE_MAX_MOMENTS = 8


@dataclass
class ClassifyItem:
    key: str
    doc: dict


def _raw_relations(doc: dict) -> dict:
    """Order, next, re and histories recomputed from the document alone."""
    moments = doc["moments"]
    leq = gen.closure({tuple(c) for c in doc["order"]}, moments)
    re = gen.closure({tuple(p) for p in doc["re"]}, moments)
    dense = {tuple(p) for p in doc["dense"]}
    kids: dict = {m: [] for m in moments}
    has_parent = set()
    for a, b in doc["order"]:
        kids[a].append(b)
        has_parent.add(b)
    histories = []

    def walk(path: list) -> None:
        if not kids[path[-1]]:
            histories.append(frozenset(path))
        for k in kids[path[-1]]:
            walk(path + [k])

    for m in moments:
        if m not in has_parent:
            walk([m])
    nxt = {(a, b) for a, b in doc["order"] if (a, b) not in dense}
    return {"leq": leq, "re": re, "next": nxt, "histories": histories}


def _theta_errors(raw: dict, moments, m: str, family) -> list[str]:
    """Each member contains m and meets the defining conditions; the
    family is closed under intersection (both closure rules are Horn)."""
    errors = []
    leq, re, nxt = raw["leq"], raw["re"], raw["next"]
    fam = set(family)
    for s in family:
        if m not in s:
            errors.append(f"theta({m}) member {sorted(s)} misses {m}")
        for x in s:
            if not any(a != x and (a, x) in leq for a in moments):
                errors.append(f"theta({m}) member {sorted(s)}: {x} has no predecessor")
        if any(a in s and b not in s for a, b in re):
            errors.append(f"theta({m}) member {sorted(s)} is not re-closed")
        for m1 in moments:
            if m1 in s:
                continue
            hs = [h for h in raw["histories"] if m1 in h]
            if hs and all(any((m1, m2) in nxt and m2 in s for m2 in h) for h in hs):
                errors.append(f"theta({m}) member {sorted(s)} should pull in {m1}")
    for s in family:
        for t in family:
            if s & t not in fam:
                errors.append(f"theta({m}) not closed under intersection: "
                              f"{sorted(s)} & {sorted(t)}")
                return errors
    return errors


class Classify:
    """Frame classification: validate_frame, is_mixsucc, theta at every
    moment and is_regular on fresh density-annotated jstit frames."""

    name = "classify"

    def generate(self, pkg, seed: int, workdir: Path) -> list[list[ClassifyItem]]:
        rng = random.Random(f"classify-{seed}")
        blocks = []
        for b in range(16):
            block = []
            for i, n in enumerate(CLASSIFY_SIZES):
                dense_p = DENSITIES[(b + i) % len(DENSITIES)]
                doc = gen.density_frame(rng, n, dense_p, EXTRA_PAIRS)
                block.append(ClassifyItem(f"{b}.{i}.n{n}.d{dense_p}", doc))
            blocks.append(block)
        return blocks

    def run(self, pkg, item: ClassifyItem):
        d = item.doc
        frames = pkg.frames
        frame = frames.JstitFrame(d["moments"], d["order"], d["agents"],
                                  dense=d["dense"], r=d["r"], re=d["re"])
        diags = frames.validate_frame(frame)
        mix = frames.is_mixsucc(frame)
        families = {m: frames.theta(frame, m) for m in frame.moments}
        reg = frames.is_regular(frame)
        return frame, diags, mix, families, reg

    def digest(self, out):
        frame, diags, mix, families, reg = out
        return hash((tuple(diags), mix, tuple(families.items()), reg))

    def check(self, pkg, item: ClassifyItem, out) -> list[str]:
        frame, diags, mix, families, reg = out
        moments = item.doc["moments"]
        errors = [f"{item.key}: validate_frame: {d}" for d in diags]
        raw = _raw_relations(item.doc)
        for m in moments:
            errors += [f"{item.key}: {e}" for e in
                       _theta_errors(raw, moments, m, families.get(m, ()))]
        if len(moments) <= ORACLE_MAX_MOMENTS:
            o = pkg.oracles
            for m in moments:
                if set(families[m]) != o.naive_theta(frame, m):
                    errors.append(f"{item.key}: theta({m}) differs from naive_theta")
            if mix[0] != o.naive_mixsucc(frame):
                errors.append(f"{item.key}: is_mixsucc differs from naive_mixsucc")
            if reg[0] != o.naive_regular(frame):
                errors.append(f"{item.key}: is_regular differs from naive_regular")
        return errors


# ---------------------------------------------------------------------------
# replay

TARGET = "K(Box E x | ~Box E y) -> (E x | ~E y)"
REPLAY_SIZES = (6, 7, 8, 9, 10, 11, 12)
# kinds per size, per block. Most items cost about the same, but jstit
# frames of 11 and 12 moments cost two to three times as much; with jstit
# at a fifth of the items that tail stays near a twentieth of a block, so
# the 90th percentile falls inside the main group instead of at its edge.
REPLAY_KINDS = ("stit", "temporal", "jstit", "stit", "temporal")
REPLAY_DENSE_P = 0.3
BAD_PROOF_EVERY = 4


@dataclass
class ReplayItem:
    key: str
    kind: str
    frame_path: Path
    proof_path: Path
    model_path: Path
    bad_proof: bool
    proof_lines: int


def cli(pkg, argv: list[str]) -> tuple[int, str]:
    """jastit.cli.main in process; exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


class Replay:
    """A user's document path through the command line: countermodel,
    check-model and eval on its output, and verify-proof."""

    name = "replay"

    def generate(self, pkg, seed: int, workdir: Path) -> list[list[ReplayItem]]:
        rng = random.Random(f"replay-{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        blocks = []
        # a small pool: every document is written at set-up, and file writes
        # are the noisiest part of it
        for b in range(4):
            block = []
            for n in REPLAY_SIZES:
                for kind in REPLAY_KINDS:
                    key = f"{b}.{len(block)}.{kind}.n{n}"
                    frame = gen.witness_frame(rng, n, REPLAY_DENSE_P)
                    bad = len(block) % BAD_PROOF_EVERY == BAD_PROOF_EVERY - 1
                    proof = gen.proof_document(rng, bad)
                    item = ReplayItem(key, kind, workdir / f"frame-{key}.json",
                                      workdir / f"proof-{key}.json",
                                      workdir / f"model-{key}.json", bad,
                                      len(proof["lines"]))
                    item.frame_path.write_text(json.dumps(frame), encoding="utf-8")
                    item.proof_path.write_text(json.dumps(proof), encoding="utf-8")
                    block.append(item)
            blocks.append(block)
        return blocks

    def run(self, pkg, item: ReplayItem):
        made = cli(pkg, ["countermodel", "--kind", item.kind, str(item.frame_path)])
        if made[0] != 1:
            raise RuntimeError(f"countermodel exited {made[0]}")
        item.model_path.write_text(made[1], encoding="utf-8")
        moment, history = json.loads(made[1])["index"]
        checked = cli(pkg, ["check-model", str(item.model_path)])
        evaluated = cli(pkg, ["eval", "--at", f"{moment},{history}",
                              "--formula", TARGET, str(item.model_path)])
        verified = cli(pkg, ["verify-proof", str(item.proof_path)])
        return made, checked, evaluated, verified

    def digest(self, out):
        return hash(out)

    def check(self, pkg, item: ReplayItem, out) -> list[str]:
        (c1, doc_text), (c2, checked), (c3, value), (c4, verdict) = out
        k = item.key
        errors = []
        if c1 != 1:
            errors.append(f"{k}: countermodel exited {c1}, not 1")
        try:
            doc = json.loads(doc_text)
        except json.JSONDecodeError:
            return errors + [f"{k}: countermodel printed no JSON document"]
        want = "reg" if item.kind == "jstit" else "mixsucc"
        if doc.get("witness", {}).get("kind") != want:
            errors.append(f"{k}: witness kind is not {want}")
        summary = checked.strip().splitlines()[-1:]
        if c2 != 0 or not summary or not summary[0].startswith("0 violation(s)"):
            errors.append(f"{k}: check-model exited {c2}: {summary}")
        if c3 != 1 or value.strip() != "false":
            errors.append(f"{k}: eval printed {value.strip()!r} and exited {c3}, "
                          "not false and 1")
        model = pkg.documents.load_model(doc)
        moment, history = doc["index"]
        if pkg.oracles.naive_satisfies(model, moment, history,
                                       pkg.syntax.parse_formula(TARGET)):
            errors.append(f"{k}: naive evaluation finds the target true")
        lines = verdict.splitlines()
        failed = [ln for ln in lines if ": FAIL" in ln]
        if item.bad_proof:
            last = f"line {item.proof_lines}:"
            if c4 != 1 or len(failed) != 1 or not failed[0].startswith(last):
                errors.append(f"{k}: verify-proof exited {c4} on a proof whose "
                              f"line {item.proof_lines} is bad: {failed}")
        elif c4 != 0 or failed:
            errors.append(f"{k}: verify-proof exited {c4} on a sound proof: {failed}")
        return errors


WORKLOADS = {w.name: w for w in (Search(), Classify(), Replay())}
