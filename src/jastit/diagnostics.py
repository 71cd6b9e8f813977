"""Diagnostic records shared by the frame and model validators, and the
errors that report bad input or an exhausted bound."""

from __future__ import annotations

from dataclasses import dataclass, field

VIOLATION = "violation"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    code: str
    message: str
    witness: tuple = field(default=())

    def __str__(self) -> str:
        w = f" witness={self.witness!r}" if self.witness else ""
        return f"{self.severity}[{self.code}] {self.message}{w}"


class Report(list):
    """Diagnostics in the order the validators find them."""

    def bad(self, code: str, message: str, witness: tuple = ()) -> None:
        self.append(Diagnostic(VIOLATION, code, message, witness))

    def note(self, code: str, message: str, witness: tuple = ()) -> None:
        self.append(Diagnostic(WARNING, code, message, witness))


def violations(diags) -> list[Diagnostic]:
    return [d for d in diags if d.severity == VIOLATION]


def warnings(diags) -> list[Diagnostic]:
    return [d for d in diags if d.severity == WARNING]


class DocumentError(ValueError):
    """Input does not fit what it is used for: a document's shape, a
    formula's agents, a search bound, an evaluation index; message says where."""


class ResourceBoundExceeded(Exception):
    """A configured enumeration cap would be exceeded; raised instead of running forever."""
