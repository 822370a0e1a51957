import itertools

import pytest

from tricl.errors import ConfigError
from tricl.templates import (
    AUX_FIELDS,
    AUX_TEMPLATE_TEXT,
    LABEL_TEMPLATE_TEXT,
    AnnotationRecord,
    Clause,
    TemplateSpec,
    candidate_queue,
    parse_template,
    render_template,
)

AUX_TEMPLATE = parse_template(AUX_TEMPLATE_TEXT)
LABEL_TEMPLATE = parse_template(LABEL_TEMPLATE_TEXT)


def test_full_record_renders_reference_sentence():
    record = AnnotationRecord(vessel_type="Fishboat", distance="close", depth="shallow")
    assert (
        render_template(AUX_TEMPLATE, record)
        == "The sound belongs to Fishboat, which is in close distance, and the channel depth is shallow."
    )


def test_missing_field_equals_template_without_that_clause():
    record = AnnotationRecord(vessel_type="Fishboat", distance="close", depth="shallow")
    with_wind_clause = render_template(AUX_TEMPLATE, record)
    trimmed = TemplateSpec(tuple(c for c in AUX_TEMPLATE.clauses if c.slot != "wind"))
    assert with_wind_clause == render_template(trimmed, record)


def test_label_only_degenerate_case():
    assert render_template(AUX_TEMPLATE, AnnotationRecord(vessel_type="Fishboat")) == "The sound belongs to Fishboat."


def test_clause_deletion_equivalence_over_power_set():
    # deleting a value from the record == deleting its clause from the template
    values = {"distance": "far", "depth": "deep", "location": "the coast", "wind": "windy"}
    for present in itertools.chain.from_iterable(
        itertools.combinations(AUX_FIELDS, k) for k in range(len(AUX_FIELDS) + 1)
    ):
        record = AnnotationRecord("RORO", **{f: values[f] for f in present})
        kept = tuple(c for c in AUX_TEMPLATE.clauses if c.slot is None or c.slot == "label" or c.slot in present)
        full_record = AnnotationRecord("RORO", **values)
        assert render_template(AUX_TEMPLATE, record) == render_template(TemplateSpec(kept), full_record)


def test_rendered_sentence_contains_vessel_type_and_period():
    for vt in ("Dredger", "Oceanliner", "Naturalnoise"):
        out = render_template(AUX_TEMPLATE, AnnotationRecord(vessel_type=vt, wind="calm"))
        assert vt in out and out.endswith(".") and out


def test_template_requires_label_clause():
    with pytest.raises(ConfigError, match="label"):
        parse_template("the depth is {depth}")


def test_clause_single_slot_limit():
    with pytest.raises(ConfigError):
        parse_template("{label} at {distance} distance")


def test_candidate_queue_order_and_content():
    out = candidate_queue(LABEL_TEMPLATE, ["Fishboat", "RORO"])
    assert out == ["The sound belongs to Fishboat.", "The sound belongs to RORO."]


def test_candidate_queue_single_label():
    assert candidate_queue(LABEL_TEMPLATE, ["Tug"]) == ["The sound belongs to Tug."]


def test_candidate_queue_nine_shipsear_types():
    types = ["Dredger", "Fishboat", "Motorboat", "Musselboat", "Naturalnoise",
             "Oceanliner", "Passengers", "RORO", "Sailboat"]
    assert len(candidate_queue(LABEL_TEMPLATE, types)) == 9


def test_candidate_queue_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate"):
        candidate_queue(LABEL_TEMPLATE, ["Tug", "Tug"])


def test_empty_vessel_type_rejected():
    with pytest.raises(ConfigError):
        AnnotationRecord(vessel_type="")


def test_empty_aux_string_rejected():
    with pytest.raises(ConfigError):
        AnnotationRecord(vessel_type="Tug", wind="")


def test_literal_clause_kept():
    spec = TemplateSpec((Clause("A recording.", None), Clause("It is {label}", "label")))
    assert render_template(spec, AnnotationRecord("Tug")) == "A recording. It is Tug."


@pytest.mark.parametrize("value", ["C:\\data\\x", "Ria\\tde Vigo", "\\g<0>", "\\1", "{label}", "50 % & more"])
def test_value_inserted_verbatim(value):
    # values are text, never replacement templates: "\\d" used to raise re.error
    sentence = render_template(AUX_TEMPLATE, AnnotationRecord("Tug", location=value))
    assert sentence == f"The sound belongs to Tug, and it is recorded near {value}."


@pytest.mark.parametrize("slot", ["distnace", "", "Label", "label_", "vessel type"])
def test_unknown_slot_is_config_error(slot):
    with pytest.raises(ConfigError, match=f"unknown slot {{{slot}}}"):
        parse_template(f"The sound belongs to {{label}},\nwhich is in {{{slot}}} distance")


def test_slot_stored_canonically():
    spec = parse_template("The sound belongs to { label },\nwhich is in {distance } distance")
    assert spec.clauses == (Clause("The sound belongs to {label},", "label"), Clause("which is in {distance} distance", "distance"))
