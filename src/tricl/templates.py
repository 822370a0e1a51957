"""Clause templates that turn annotation records into descriptive sentences.

A template is an ordered list of clauses; each clause is literal text with at
most one slot, ``{label}`` or one of the ``AUX_FIELDS``; any other braced name
is a config error. Rendering inserts each value verbatim and deletes every
clause whose slot has no value, so incomplete annotations still produce a
complete sentence. The clause carrying the ``label`` slot is mandatory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ConfigError

LABEL_SLOT = "label"
AUX_FIELDS = ("distance", "depth", "location", "wind")

_SLOT_RE = re.compile(r"\{([^{}]*)\}")


@dataclass(frozen=True)
class AnnotationRecord:
    """Vessel type plus whatever auxiliary annotations a recording carries."""

    vessel_type: str
    distance: str | None = None
    depth: str | None = None
    location: str | None = None
    wind: str | None = None

    def __post_init__(self):
        if not self.vessel_type:
            raise ConfigError("vessel_type must be nonempty")
        for f in AUX_FIELDS:
            v = getattr(self, f)
            if v is not None and v == "":
                raise ConfigError(f"annotation field {f!r} must be absent or nonempty")

    def value_for(self, slot: str) -> str | None:
        return self.vessel_type if slot == LABEL_SLOT else getattr(self, slot)


@dataclass(frozen=True)
class Clause:
    text: str
    slot: str | None


@dataclass(frozen=True)
class TemplateSpec:
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        label_clauses = [c for c in self.clauses if c.slot == LABEL_SLOT]
        if len(label_clauses) != 1:
            raise ConfigError(f"template must contain exactly one {{{LABEL_SLOT}}} clause, found {len(label_clauses)}")


def parse_template(text: str) -> TemplateSpec:
    """One clause per line; slot syntax ``{name}``, and ``{ name }`` is stored
    as ``{name}``; blank lines ignored."""
    clauses = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        slots = _SLOT_RE.findall(line)
        if len(slots) > 1:
            raise ConfigError(f"clause has more than one slot: {line!r}")
        slot = slots[0].strip() if slots else None
        if slot not in (None, LABEL_SLOT, *AUX_FIELDS):
            raise ConfigError(f"unknown slot {{{slot}}} in clause {line!r}; known: {LABEL_SLOT}, {', '.join(AUX_FIELDS)}")
        clauses.append(Clause(text=_SLOT_RE.sub(f"{{{slot}}}", line) if slot else line, slot=slot))
    if not clauses:
        raise ConfigError("template has no clauses")
    return TemplateSpec(tuple(clauses))


def render_template(template: TemplateSpec, record: AnnotationRecord) -> str:
    """Fill slots, delete clauses with missing values, join, add the period."""
    parts = []
    for clause in template.clauses:
        if clause.slot is None:
            parts.append(clause.text)
            continue
        value = record.value_for(clause.slot)
        if value is None:
            continue
        parts.append(clause.text.replace(f"{{{clause.slot}}}", value))
    sentence = " ".join(parts).rstrip(" ,")
    if not sentence.endswith("."):
        sentence += "."
    return sentence


def candidate_queue(test_template: TemplateSpec, label_set: list[str]) -> list[str]:
    """One rendered sentence per candidate label, order preserved."""
    if not label_set:
        raise ConfigError("label set is empty")
    if len(set(label_set)) != len(label_set):
        raise ConfigError(f"duplicate labels in candidate set: {label_set}")
    return [render_template(test_template, AnnotationRecord(vessel_type=label)) for label in label_set]


# The default training template carries every auxiliary annotation; the
# default test template carries the label only.
AUX_TEMPLATE_TEXT = (
    "The sound belongs to {label},\n"
    "which is in {distance} distance,\n"
    "and the channel depth is {depth},\n"
    "and it is recorded near {location},\n"
    "and the wind speed is {wind}\n"
)
LABEL_TEMPLATE_TEXT = "The sound belongs to {label}\n"
