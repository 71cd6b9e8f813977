"""Finite-structure toolkit for the stit logic of justification announcements.

The package mechanizes a branching-time semantics in which agents present
proof polynomials to a community: formulas mix stit operators, historical
necessity, knowledge, proof assertions t:A and presentation assertions Et.
It provides the syntax (jastit.syntax), temporal/stit/jstit frames with
their constraint validators and frame-condition classifiers
(jastit.frames), models over declared finite universes (jastit.models),
the satisfaction relation and bounded counter-model search
(jastit.semantics), the Hilbert calculus with axiom recognition and proof
checking (jastit.calculus), explicit falsifying-model builders
(jastit.countermodels), JSON interchange (jastit.documents), and a batch
command line (jastit.cli).
"""

from .calculus import (
    Axiom, AxiomMatch, BoxNec, CstitNec, KNec, LineVerdict, MP, Proof,
    ProofLine, ProofVerdict, RCS, RD, check_cs, is_tautology, match_axiom,
    match_rd, verify_proof,
)
from .countermodels import (
    MixsuccWitness, RegWitness, TARGET_FORMULA, WitnessError,
    build_jstit_countermodel, build_stit_countermodel,
    build_temporal_countermodel, complete_mixsucc_witness,
)
from .diagnostics import Diagnostic, ResourceBoundExceeded, violations, warnings
from .documents import (
    DocumentError, ast_dump, canonical_json, countermodel_document,
    dump_frame, dump_model, dump_proof, load_cs, load_frame, load_model,
    load_proof, load_witness,
)
from .frames import (
    History, JstitFrame, StitFrame, TemporalFrame, is_mixsucc, is_regular,
    is_unirelational, theta, validate_frame,
)
from .models import (
    ConstantSpecification, EVERYTHING, JstitModel, OutOfUniverseError,
    Universe, act_settled, act_violations, validate_model,
)
from .semantics import (
    Index, SearchBounds, find_countermodel, satisfies, valid_in_model,
)
from .syntax import (
    And, Announced, App, Box, Check, Cstit, Formula, Knows, Not, ParseError,
    Polynomial, ProofConst, ProofVar, PropVar, Proves, Sum, bot, dia, disj,
    iff, implies, parse_formula, parse_polynomial, render, render_polynomial,
    subformulas, subpolynomials, top,
)

__version__ = "0.1.0"
