"""The claim registry: arms against the steps they replace, arms in child
processes, the delta rule, and the names the tables and drivers use."""

import ast
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import tricl.experiments as experiments
from tricl.experiments import (
    ARMS,
    CLAIMS,
    PRESETS,
    claim_delta,
    held_out_accuracy,
    prepare,
    run_arm,
    run_claims,
    train_on_fold,
)
from tricl.presets import AUX_TEMPLATE_TEXT, experiment_run_config

SCRIPTS = Path(__file__).parent.parent / "scripts"


def test_end_to_end_arm_is_train_on_fold_and_held_out_accuracy(tmp_path):
    accuracy, trace, n_train = run_arm("end-to-end", 0, tmp_path, 1)
    model, dataset, folds, lines = train_on_fold(prepare("three_class", tmp_path), AUX_TEMPLATE_TEXT,
                                                 experiment_run_config(seed=0, epochs=1))
    assert accuracy == held_out_accuracy(model, dataset, folds)
    assert trace == lines
    assert n_train == len(dataset.split_by_fold(folds, 0)[0].samples)


ARMS_IN_CHILDREN = [("end-to-end", 1, 25), ("pretrained", 1, 1)]


def _run_all(work):
    return [run_arm(name, 0, work, epochs, tune_epochs) for name, epochs, tune_epochs in ARMS_IN_CHILDREN]


@pytest.mark.parametrize("method", ["spawn", "fork"])
def test_arms_in_a_child_process_equal_the_in_process_run(tmp_path, method):
    here = _run_all(tmp_path / "here")
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(method)) as pool:
        there = pool.submit(_run_all, tmp_path / "there").result(timeout=300)
    assert there == here
    (_, log_lines, _), (_, losses, n_train) = here
    assert isinstance(log_lines[-1], str) and isinstance(losses[-1], float) and n_train > 0


def test_claim_delta_is_the_arm_minus_the_best_control():
    scores = {"aux-tri": [0.5, 0.25], "multilabel": [0.25, 0.25], "multitask": [0.75, 0.25], "category": [0.5, 0.5]}
    delta, best = claim_delta("classifier paradigms", scores)
    assert best == "multitask"  # the first of the two controls tied at the best mean
    assert delta == -0.125  # negative: the arm lost
    assert claim_delta("classifier paradigms", {**scores, "aux-tri": [1.0, 0.75]}) == (0.375, "multitask")


def test_run_claims_runs_each_arm_once_per_seed_and_reports_as_it_goes(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "run_arm",
                        lambda name, seed, *_: calls.append((seed, name)) or (seed / 10, [], 1))
    reported = []
    scores = run_claims(["auxiliary templates", "tri-modal"], [3, 4], "unused", 1,
                        lambda seed, name, *result: reported.append((seed, name, *result)))
    assert calls == [(3, "aux-tri"), (3, "label-tri"), (3, "aux-bi"), (4, "aux-tri"), (4, "label-tri"), (4, "aux-bi")]
    assert reported == [(seed, name, seed / 10, [], 1) for seed, name in calls]
    assert scores == {"aux-tri": [0.3, 0.4], "label-tri": [0.3, 0.4], "aux-bi": [0.3, 0.4]}


def _driver_names(path):
    """The arm and claim names a driver passes to the registry as literals
    or as the keys of a module-level table."""
    tree = ast.parse(path.read_text())
    tables = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)}

    def names(node):
        if isinstance(node, ast.Constant):
            return {node.value}
        if isinstance(node, ast.List):
            return {item.value for item in node.elts}
        return {key.value for key in getattr(tables.get(getattr(node, "id", None)), "keys", [])}

    arms, claims = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "ARMS":
            arms |= names(node.slice)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_arm":
            arms |= names(node.args[0])
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("run_claims", "claim_delta"):
            claims |= names(node.args[0])
    return arms, claims


def test_every_name_the_claims_and_drivers_use_is_registered():
    for arm, controls in CLAIMS.values():
        assert {arm, *controls} <= ARMS.keys()
    assert {arm.preset for arm in ARMS.values()} <= PRESETS.keys()
    drivers = sorted(SCRIPTS.glob("run_*.py"))
    assert len(drivers) == 4
    named_arms, named_claims = set(), set()
    for driver in drivers:
        arms, claims = _driver_names(driver)
        assert arms or claims, driver.name
        named_arms |= arms
        named_claims |= claims
    assert named_arms <= ARMS.keys()
    assert named_claims == CLAIMS.keys()
