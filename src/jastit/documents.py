"""JSON interchange for frames, models, proofs, witnesses.

Frame document:

    {
      "moments": ["r", "m0", "c"],
      "order": [["r", "m0"], ["m0", "c"]],     reflexive-transitive closure
                                               is applied on load
      "agents": 2,
      "choice": {"m0,0": [[0], [1]]},          cells list indices into the
                                               canonical history order at m0
      "r": [["m0", "c"]],                      omitted: the temporal order
      "re": [["m0", "c"]],                     omitted: same as "r"
      "dense": [["m0", "c"]]                   declared stretch annotations
    }

Model documents extend frame documents with "act" ({"m/h": ["x", "x + y"]}),
"evidence" ({"m/t": "*" or [formula strings], "default": same}), "valuation"
({"p": [["m", "h"], ...]}) and an optional "universe" block; when "universe"
is omitted the universe is closed over everything the other blocks mention.
The "*" value is the whole-universe evidence set.

Proof document:

    {
      "lines": [{"formula": "Box p -> [0] p", "just": {"kind": "axiom"}},
                {"formula": "...", "just": {"kind": "mp", "i": 1, "j": 2}}],
      "cs": [{"chain": ["d", "c"], "formula": "Box p -> [0] p"}]
    }

Justification kinds: axiom (optional "scheme"), mp (i antecedent line, j
implication line), knec, rd, rcs, boxnec, cstitnec (with "agent"); line
numbers count from 1. One table maps each kind to its record class in
``calculus``, and the class's dataclass fields are the block's other keys;
witnesses ("mixsucc", "reg") are read and written the same way.

Dumps are canonical: sorted keys, sorted pair lists, every moment-history
pair listed in "act", and an explicit "default" in "evidence", so equal
structures serialize to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Optional, Union, get_args

from .calculus import (
    Axiom, BoxNec, CstitNec, KNec, MP, Proof, RCS, RD,
)
from .countermodels import (
    MixsuccWitness, RegWitness, TARGET_FORMULA, dense_pairs_supporting,
)
from .diagnostics import DocumentError, ResourceBoundExceeded
from .frames import JstitFrame, TemporalFrame
from .models import (
    ConstantSpecification, EVERYTHING, JstitModel, Universe, cs_entry_key,
)
from .semantics import Index
from .syntax import (
    AST_DUMP_MAX_NODES, Formula, ParseError, Polynomial, parse_formula,
    parse_polynomial, render, render_polynomial, tree_size,
)

__all__ = [
    "DocumentError", "canonical_json", "ast_dump",
    "load_frame", "dump_frame", "load_model", "dump_model",
    "load_cs", "dump_cs", "load_proof", "dump_proof",
    "load_witness", "dump_witness", "countermodel_document",
]


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# small shape helpers

def _is_int(x: Any) -> bool:
    """JSON true/false load as bool, which Python counts as an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _need(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise DocumentError(f"{where} is missing the {key!r} key")
    return doc[key]


def _str_field(doc: dict, key: str, where: str) -> str:
    value = _need(doc, key, where)
    if not isinstance(value, str):
        raise DocumentError(f"{where}.{key} must be a string")
    return value


def _str_list(x: Any, where: str) -> list[str]:
    if not isinstance(x, list) or not all(isinstance(s, str) for s in x):
        raise DocumentError(f"{where} must be a list of strings")
    return x


def _pair_list(x: Any, where: str) -> list[tuple[str, str]]:
    if not isinstance(x, list):
        raise DocumentError(f"{where} must be a list of [a, b] pairs")
    out = []
    for i, pair in enumerate(x):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(s, str) for s in pair)):
            raise DocumentError(f"{where}[{i}] must be a pair of strings")
        out.append((pair[0], pair[1]))
    return out


def _formula(text: Any, where: str) -> Formula:
    if not isinstance(text, str):
        raise DocumentError(f"{where} must be a formula string")
    try:
        return parse_formula(text)
    except ParseError as e:
        raise DocumentError(f"{where}: {e}") from e


def _polynomial(text: Any, where: str) -> Polynomial:
    if not isinstance(text, str):
        raise DocumentError(f"{where} must be a polynomial string")
    try:
        return parse_polynomial(text)
    except ParseError as e:
        raise DocumentError(f"{where}: {e}") from e


def _check_keys(doc: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise DocumentError(f"{where} has unknown keys: {', '.join(unknown)}")


# ---------------------------------------------------------------------------
# frames

_FRAME_KEYS = frozenset(
    {"moments", "order", "agents", "choice", "r", "re", "dense"})
_MODEL_KEYS = _FRAME_KEYS | frozenset(
    {"act", "evidence", "valuation", "universe"})

# counter-model reports are model documents plus these; the loader accepts
# and ignores them so a report can be fed straight back to check/eval
_REPORT_KEYS = frozenset({"witness", "falsified", "index", "provenance"})


def _frame_from(doc: dict, default_agents: int, where: str) -> JstitFrame:
    moments = _str_list(_need(doc, "moments", where), f"{where}.moments")
    order = _pair_list(doc.get("order", []), f"{where}.order")
    dense = _pair_list(doc.get("dense", []), f"{where}.dense")
    agents = doc.get("agents", default_agents)
    if not _is_int(agents):
        raise DocumentError(f"{where}.agents must be an integer")

    choice = None
    if "choice" in doc:
        raw = doc["choice"]
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}.choice must be an object")
        try:
            base = TemporalFrame(moments, order, dense)
        except ValueError as e:
            raise DocumentError(f"{where}: {e}") from e
        choice = {}
        for key, cells in raw.items():
            m, sep, jtext = key.rpartition(",")
            digits = jtext.removeprefix("-")
            if not sep or not (digits.isascii() and digits.isdigit()):
                raise DocumentError(
                    f"{where}.choice key {key!r} is not of the form \"moment,agent\"")
            if m not in base.moments:
                raise DocumentError(f"{where}.choice mentions unknown moment {m!r}")
            names = [h.name for h in base.histories_through(m)]
            if not isinstance(cells, list):
                raise DocumentError(f"{where}.choice[{key!r}] must be a list of cells")
            named_cells = []
            for cell in cells:
                if not isinstance(cell, list) or not all(_is_int(i) for i in cell):
                    raise DocumentError(
                        f"{where}.choice[{key!r}] cells must be lists of history indices")
                for i in cell:
                    if not 0 <= i < len(names):
                        raise DocumentError(
                            f"{where}.choice[{key!r}] index {i} out of range; "
                            f"{m} lies on {len(names)} histories")
                named_cells.append([names[i] for i in cell])
            choice[(m, int(jtext))] = named_cells

    r = _pair_list(doc["r"], f"{where}.r") if "r" in doc else None
    re = _pair_list(doc["re"], f"{where}.re") if "re" in doc else None
    try:
        return JstitFrame(moments, order, agents, choice, dense=dense, r=r, re=re)
    except ValueError as e:
        raise DocumentError(f"{where}: {e}") from e


def load_frame(doc: dict, *, default_agents: int = 2) -> JstitFrame:
    """Read a frame document. A missing "agents" falls back to the given
    default; "r"/"re" default to the temporal order."""
    if not isinstance(doc, dict):
        raise DocumentError("frame document must be an object")
    _check_keys(doc, _FRAME_KEYS, "frame document")
    return _frame_from(doc, default_agents, "frame document")


def dump_frame(frame: JstitFrame) -> dict:
    covers = sorted(
        [a, b] for a in frame.moments for b in frame.moments if frame.covers(a, b))
    doc: dict = {
        "moments": list(frame.moments),
        "order": covers,
        "agents": frame.agents,
        "r": sorted([a, b] for a, b in frame.r if a != b),
        "re": sorted([a, b] for a, b in frame.re if a != b),
        "dense": sorted([a, b] for a, b in frame.dense),
    }
    if frame.choice:
        choice: dict = {}
        for (m, j), cells in sorted(frame.choice.items()):
            index_of = {h.name: i for i, h in enumerate(frame.histories_through(m))}
            choice[f"{m},{j}"] = sorted(
                sorted(index_of[name] for name in cell) for cell in cells)
        doc["choice"] = choice
    return doc


# ---------------------------------------------------------------------------
# models

def _split_key(key: str, what: str) -> tuple[str, str]:
    head, sep, tail = key.partition("/")
    if not sep or not head or not tail:
        raise DocumentError(f"{what} key {key!r} is not of the form \"a/b\"")
    return head, tail


def load_model(doc: dict, *, default_agents: int = 2) -> JstitModel:
    if not isinstance(doc, dict):
        raise DocumentError("model document must be an object")
    _check_keys(doc, _MODEL_KEYS | _REPORT_KEYS, "model document")
    frame = _frame_from(doc, default_agents, "model document")

    universe = None
    if "universe" in doc:
        ublock = doc["universe"]
        if not isinstance(ublock, dict):
            raise DocumentError("model document.universe must be an object")
        _check_keys(ublock, frozenset({"polynomials", "formulas", "prop_vars"}),
                    "universe block")
        universe = Universe.close(
            formulas=[_formula(s, "universe formula")
                      for s in _str_list(ublock.get("formulas", []), "universe.formulas")],
            polynomials=[_polynomial(s, "universe polynomial")
                         for s in _str_list(ublock.get("polynomials", []),
                                            "universe.polynomials")],
            prop_vars=_str_list(ublock.get("prop_vars", []), "universe.prop_vars"),
        )

    act = {}
    for key, value in _object(doc, "act").items():
        m, h = _split_key(key, "act")
        act[(m, h)] = frozenset(
            _polynomial(s, f"act[{key!r}]") for s in _str_list(value, f"act[{key!r}]"))

    evidence = {}
    default = EVERYTHING
    for key, value in _object(doc, "evidence").items():
        if key == "default":
            default = _evidence_set(value, "evidence default")
            continue
        m, t = _split_key(key, "evidence")
        evidence[(m, _polynomial(t, f"evidence key {key!r}"))] = \
            _evidence_set(value, f"evidence[{key!r}]")

    valuation = {}
    for p, pairs in _object(doc, "valuation").items():
        valuation[p] = [tuple(pair) for pair in _pair_list(pairs, f"valuation[{p!r}]")]

    try:
        return JstitModel(frame, universe, act, evidence, valuation,
                          evidence_default=default)
    except ValueError as e:
        raise DocumentError(f"model document: {e}") from e


def _object(doc: dict, key: str) -> dict:
    """An optional block of a model document; absent or null reads as empty."""
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise DocumentError(f"model document.{key} must be an object")
    return value


def _evidence_set(value: Any, where: str):
    if value == "*":
        return EVERYTHING
    if isinstance(value, list):
        return frozenset(_formula(s, where) for s in value)
    raise DocumentError(f'{where} must be "*" or a list of formula strings')


def dump_model(model: JstitModel) -> dict:
    doc = dump_frame(model.frame)
    doc["act"] = {
        f"{m}/{h}": sorted(render_polynomial(t) for t in ts)
        for (m, h), ts in model.act.items()
    }
    evidence: dict = {
        "default": _dump_evidence_set(model.evidence_default),
    }
    for (m, t), es in model.evidence.items():
        evidence[f"{m}/{render_polynomial(t)}"] = _dump_evidence_set(es)
    doc["evidence"] = evidence
    doc["valuation"] = {
        p: sorted([m, h] for m, h in model.valuation.get(p, frozenset()))
        for p in sorted(model.universe.prop_vars)
    }
    doc["universe"] = {
        "polynomials": sorted(render_polynomial(t) for t in model.universe.polynomials),
        "formulas": sorted(render(f) for f in model.universe.formulas),
        "prop_vars": sorted(model.universe.prop_vars),
    }
    return doc


def _dump_evidence_set(es) -> Union[str, list[str]]:
    if es is EVERYTHING:
        return "*"
    return sorted(render(f) for f in es)


# ---------------------------------------------------------------------------
# constant specifications and proofs

def load_cs(entries: Any) -> ConstantSpecification:
    if not isinstance(entries, list):
        raise DocumentError("constant specification must be a list of entries")
    parsed = []
    for i, entry in enumerate(entries):
        where = f"cs[{i}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{where} must be an object")
        _check_keys(entry, frozenset({"chain", "formula"}), where)
        chain = _str_list(_need(entry, "chain", where), f"{where}.chain")
        payload = _formula(_need(entry, "formula", where), f"{where}.formula")
        parsed.append((tuple(chain), payload))
    try:
        return ConstantSpecification.from_entries(parsed)
    except ValueError as e:
        raise DocumentError(f"constant specification: {e}") from e


def dump_cs(cs: ConstantSpecification) -> list[dict]:
    return [{"chain": list(chain), "formula": render(payload)}
            for chain, payload in sorted(cs.entries, key=cs_entry_key)]


# kind name to record class; a block's keys besides "kind" are the
# class's dataclass fields
_JUSTIFICATIONS = {
    "axiom": Axiom, "mp": MP, "knec": KNec, "rd": RD, "rcs": RCS,
    "boxnec": BoxNec, "cstitnec": CstitNec,
}
_WITNESSES = {"mixsucc": MixsuccWitness, "reg": RegWitness}
_KIND_OF = {cls: kind for table in (_JUSTIFICATIONS, _WITNESSES)
            for kind, cls in table.items()}


def _int_field(block: dict, key: str, where: str) -> int:
    value = _need(block, key, where)
    if not _is_int(value):
        raise DocumentError(f"{where}.{key} must be an integer")
    return value


# field reader by annotation (the record modules postpone annotations, so
# a field's type is its annotation text)
_FIELD_READERS = {
    "int": _int_field,
    "str": _str_field,
    "Optional[str]": lambda block, key, where: (
        None if block.get(key) is None else _str_field(block, key, where)),
    "frozenset": lambda block, key, where: frozenset(
        _str_list(_need(block, key, where), f"{where}.{key}")),
}


def _load_record(block: Any, table: dict, where: str, unknown: str):
    """The record that block spells out: table maps its "kind" to a record
    class, whose dataclass fields are the block's other keys. unknown is the
    error for any other kind, with {!r} for the kind."""
    if not isinstance(block, dict):
        raise DocumentError(f"{where} must be an object")
    kind = _need(block, "kind", where)
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DocumentError(unknown.format(kind))
    _check_keys(block, {"kind", *(f.name for f in fields(cls))}, where)
    values = {f.name: _FIELD_READERS[f.type](block, f.name, where)
              for f in fields(cls)}
    try:
        return cls(**values)
    except ValueError as e:  # a value the record's constructor refuses
        raise DocumentError(f"{where}: {e}") from e


def _dump_record(record) -> dict:
    """record as a block: its kind and each field not None, sets sorted."""
    out = {"kind": _KIND_OF[type(record)]}
    for f in fields(record):
        value = getattr(record, f.name)
        if value is not None:
            out[f.name] = sorted(value) if isinstance(value, frozenset) else value
    return out


def load_proof(doc: dict) -> tuple[Proof, ConstantSpecification]:
    if not isinstance(doc, dict):
        raise DocumentError("proof document must be an object")
    _check_keys(doc, frozenset({"lines", "cs"}), "proof document")
    raw_lines = _need(doc, "lines", "proof document")
    if not isinstance(raw_lines, list):
        raise DocumentError("proof document.lines must be a list")
    lines = []
    for i, block in enumerate(raw_lines, start=1):
        where = f"line {i}"
        if not isinstance(block, dict):
            raise DocumentError(f"{where} must be an object")
        _check_keys(block, frozenset({"formula", "just"}), where)
        formula = _formula(_need(block, "formula", where), f"{where}.formula")
        just = _load_record(_need(block, "just", where), _JUSTIFICATIONS, f"{where}.just",
                            f"{where}.just.kind {{!r}} is not a justification kind")
        lines.append((formula, just))
    cs = load_cs(doc.get("cs", []))
    return Proof(lines), cs


def dump_proof(proof: Proof, cs: Optional[ConstantSpecification] = None) -> dict:
    doc: dict = {
        "lines": [{"formula": render(line.formula), "just": _dump_record(line.just)}
                  for line in proof.lines],
    }
    if cs is not None and cs.entries:
        doc["cs"] = dump_cs(cs)
    return doc


# ---------------------------------------------------------------------------
# witnesses and counter-model output

def load_witness(doc: Any) -> Union[MixsuccWitness, RegWitness]:
    return _load_record(doc, _WITNESSES, "witness",
                        "witness kind {!r} is neither mixsucc nor reg")


def dump_witness(w: Union[MixsuccWitness, RegWitness]) -> dict:
    return _dump_record(w)


def countermodel_document(model: JstitModel, index: Index,
                          w: Union[MixsuccWitness, RegWitness]) -> dict:
    doc = dump_model(model)
    doc["witness"] = dump_witness(w)
    doc["falsified"] = render(TARGET_FORMULA)
    doc["index"] = [index.moment, index.history]
    used = dense_pairs_supporting(model.frame, w.m0, w.m1)
    if used:
        doc["provenance"] = (
            "witness relies on declared stretch annotations: "
            + ", ".join(f"{a} < {b}" for a, b in used))
    return doc


# ---------------------------------------------------------------------------
# AST display

_AST_TYPES = get_args(Formula) + get_args(Polynomial)


def _field_values(x: Union[Formula, Polynomial]) -> list:
    return [getattr(x, f.name) for f in fields(x)]


def ast_dump(x: Union[Formula, Polynomial]) -> str:
    """Compact constructor tree, e.g. Not(And(PropVar(p), PropVar(q))).

    Raises ResourceBoundExceeded when the tree has more than
    AST_DUMP_MAX_NODES nodes."""
    if not isinstance(x, _AST_TYPES):
        raise TypeError(f"not a formula or polynomial: {x!r}")
    size = tree_size(x)
    if size > AST_DUMP_MAX_NODES:
        raise ResourceBoundExceeded(
            f"constructor tree of {size} nodes exceeds the {AST_DUMP_MAX_NODES} "
            "that ast_dump prints")
    return _dump(x)


def _dump(x: Union[Formula, Polynomial]) -> str:
    args = (_dump(v) if isinstance(v, _AST_TYPES) else str(v) for v in _field_values(x))
    return f"{type(x).__name__}({', '.join(args)})"
