"""Tests of the benchmark's own logic: percentiles, self time, the output
checks, the wrappers and the metric names in BENCHMARK.json."""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from svpo import env as env_module
from svpo import evaluate, infer, mcts, model, pairs, train
from svpo.env import Env, EnvConfig, gen_dataset
from svpo.evaluate import ExperimentConfig
from svpo.model import Model
from svpo.train import default_pretrain_config, default_svpo_config

from svpobench import checks, metrics, speed, tracing

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_percentile_refuses_without_ten_samples_beyond():
    with pytest.raises(tracing.NotEnoughSamples):
        tracing.percentile(range(99), 90)
    with pytest.raises(tracing.NotEnoughSamples):
        tracing.percentile([], 50)
    assert tracing.percentile(range(100), 90) == pytest.approx(89.1)
    assert tracing.percentile(range(1, 22), 50) == 11
    with pytest.raises(ValueError):
        tracing.percentile(range(1000), 100)


def test_self_time_subtracts_direct_children_only():
    rec = tracing.Recorder()
    rec.spans = [tracing.Span("stage", 0.0, 10.0),
                 tracing.Span("step", 1.0, 4.0, parent=0),
                 tracing.Span("inner", 2.0, 3.0, parent=1),
                 tracing.Span("step", 5.0, 6.0, parent=0)]
    assert rec.self_times() == [6.0, 2.0, 1.0, 1.0]
    count, total, own = rec.span_totals()
    assert count["step"] == 2
    assert total["step"] == 4.0 and own["step"] == 3.0


def test_span_nesting_follows_the_call_stack():
    rec = tracing.Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.add("hot", 0.5)
    rec.close(inner)
    rec.add("hot", 0.25)
    rec.close(outer)
    assert [s.parent for s in rec.spans] == [None, 0]
    assert rec.calls["hot"] == 2 and rec.seconds["hot"] == 0.75
    assert rec.within["hot", "inner"] == 1
    assert rec.within["hot", "outer"] == 1


@pytest.fixture(scope="module")
def searched():
    env = Env(EnvConfig())
    questions = gen_dataset(seed=5, n=3, difficulty="easy")
    env.register(questions)
    m = Model(env)
    params = m.init_params(seed=0)
    forest = mcts.build_forest(m, questions[0], params,
                               mcts.SearchConfig(max_simulations=30),
                               rng_seed=1)
    pairs.label_correct(forest)
    found = pairs.extract_pairs(forest, pairs.PairCounts(), rng_seed=0)
    solution = infer.greedy_decode(m, params, questions[1])
    return questions, params, forest, found, solution


def test_checks_pass_on_sound_outputs(searched):
    questions, params, forest, found, solution = searched
    assert found
    assert checks.check_solution(questions[1], solution) == []
    for pair in found:
        assert checks.check_pair(questions[0], pair) == []
    for tree in forest.trees:
        assert checks.check_tree(tree) == []
    assert checks.check_params(params) == []


def test_solution_check_fires_on_corruption(searched):
    questions, _, _, _, solution = searched
    flipped = dataclasses.replace(solution, correct=not solution.correct)
    assert checks.check_solution(questions[1], flipped)
    answer_first = next(a.id for a in Env().vocab if a.kind == "terminal")
    illegal = dataclasses.replace(solution, steps=(answer_first,))
    assert checks.check_solution(questions[1], illegal)
    out_of_vocab = dataclasses.replace(solution, steps=(999,))
    assert checks.check_solution(questions[1], out_of_vocab)


def test_pair_check_fires_on_corruption(searched):
    questions, _, _, found, _ = searched
    pair = found[0]
    other = {"sibling": "cousin"}.get(pair.kind, "sibling")
    assert checks.check_pair(questions[0],
                             dataclasses.replace(pair, kind=other))
    too_deep = pair.loser + (0,) * 10
    assert checks.check_pair(questions[0],
                             dataclasses.replace(pair, loser=too_deep))


def test_tree_check_fires_on_corruption(searched):
    _, _, forest, _, _ = searched
    tree = forest.trees[0]
    root = tree.root
    root.N += 1
    try:
        assert checks.check_tree(tree)
    finally:
        root.N -= 1
    child = tree.nodes[root.children[0]]
    child.N -= 1
    try:
        assert checks.check_tree(tree)
    finally:
        child.N += 1
    assert checks.check_tree(tree) == []


def test_params_and_log_checks_fire_on_non_finite(searched, tmp_path):
    _, params, _, _, _ = searched
    broken = params.copy()
    broken.w_value[0] = np.nan
    assert checks.check_params(broken)
    row = {field: 0.0 for field in train.LOG_FIELDS}
    row.update(step=1, stage="svpo")
    train.save_log_csv([row], tmp_path / "log.csv")
    assert checks.check_log(tmp_path / "log.csv") == []
    row["dpo"] = float("inf")
    train.save_log_csv([row], tmp_path / "log.csv")
    assert checks.check_log(tmp_path / "log.csv")


def test_report_counts_each_item_once():
    report = checks.CheckReport()
    report.record([])
    report.record(["a", "b"])
    assert report.attempted == 2 and report.failed == 1


def test_digest_ignores_timings_only():
    summary = {"metrics": {"acc": 0.5, "stage_times": {"a": 1.0},
                           "wall_s": 3.0}, "data": [{"n_pairs": 4}]}
    assert checks.strip_timings(summary) == {"metrics": {"acc": 0.5},
                                             "data": [{"n_pairs": 4}]}
    assert checks.digest([b"ab", b"c"]) != checks.digest([b"a", b"bc"])


def _patched_names():
    owners = [evaluate, mcts, pairs, infer, train, env_module, model.Model,
              model.Featurizer, env_module.Env]
    return {(owner, name): value
            for owner in owners for name, value in vars(owner).items()
            if callable(value)}


def _tiny_config(out_seed=0):
    return ExperimentConfig(
        seed=out_seed, n_train=6, n_test=4, difficulty="easy",
        max_value_targets=200,
        search=mcts.SearchConfig(max_simulations=20, max_trees=2),
        pretrain=default_pretrain_config(epochs=1),
        svpo=default_svpo_config(epochs=1))


def test_wrappers_restore_the_originals(tmp_path):
    before = _patched_names()
    rec = tracing.Recorder()
    with tracing.instrument(rec, traced=True):
        assert evaluate.build_forest is not before[evaluate, "build_forest"]
        assert model.Model.__dict__["legal_logprobs"] is not before[
            model.Model, "legal_logprobs"]
        bundle = evaluate.run_pipeline(_tiny_config(), tmp_path)
    assert _patched_names() == before
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Recorder(), traced=True):
            raise RuntimeError("pass failed")
    assert _patched_names() == before

    # the traced pipeline saw every layer and wrote every artifact
    counts, _, _ = rec.span_totals()
    assert counts["evaluate.run_pipeline"] == 1
    assert counts["mcts.build_forest"] == 10
    assert counts["evaluate.artifacts"] == 10
    assert rec.calls["model.seq_logprob_grad"] > 0
    assert rec.items["pairs.count"] == len(bundle.corpus.pairs) + len(
        bundle.heldout)
    assert len(rec.decodes) == 2 * 4 * 3


def test_untraced_level_skips_hot_counters(tmp_path):
    rec = tracing.Recorder()
    with tracing.instrument(rec, traced=False):
        evaluate.run_pipeline(_tiny_config(), tmp_path)
    counts, _, _ = rec.span_totals()
    assert not rec.calls
    assert counts["infer.sbs"] == 2 * 4 * 2
    assert counts["train.svpo_batch_grad"] > 0
    assert "evaluate.artifacts" not in counts


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == metrics.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"pipeline-medium",
                                                      "search-hard"}


def test_per_layer_names_are_complete_and_zero_when_unused():
    from svpobench.workloads import PassResult
    idle = PassResult(setup_s=0.0, wall_s=1.0, traced=True,
                      rec=tracing.Recorder(), quality={},
                      checks=checks.CheckReport(), digest="")
    layers = metrics.pass_per_layer(idle)
    assert list(layers) != []
    assert set(layers) | {"trace.overhead_s"} == {
        name for name, _ in metrics.PER_LAYER}
    assert not any(layers.values())


def test_baseline_expectations_name_real_metrics():
    baseline = json.loads((BENCHMARK.parent / "svpobench" /
                           "baseline.json").read_text())
    layers = {name for name, _ in metrics.PER_LAYER}
    e2e = {m[0] for m in metrics.END_TO_END + metrics.REPORTED}
    for workload in baseline["expected"].values():
        for move in workload["moves"]:
            assert set(move["per_layer"]) <= layers
            assert set(move["end_to_end"]) <= e2e


def _timed_pass(inner_s, sbs_seconds, log=None):
    from svpobench.workloads import PassResult
    rec = tracing.Recorder(speed=log or speed.SpeedLog())
    rec.spans = [tracing.Span("stage", 0.0, 10.0),
                 tracing.Span("inner", 1.0, 1.0 + inner_s, parent=0)]
    for s in sbs_seconds:
        rec.spans.append(tracing.Span("infer.sbs", 20.0, 20.0 + s))
    rec.decodes = [("sbs_b3", None, None, s) for s in sbs_seconds]
    return PassResult(setup_s=0.0, wall_s=0.0, traced=False, rec=rec,
                      quality={}, checks=checks.CheckReport(), digest="")


def test_run_timings_take_each_span_at_its_median():
    slow = [1.0] * 100
    fast = [0.001 * i for i in range(100)]
    out = metrics.run_end_to_end([_timed_pass(5.0, slow),
                                  _timed_pass(3.0, fast),
                                  _timed_pass(8.0, fast)])
    # outer self times 5, 7 and 2 s, inner 5, 3 and 8 s: medians 5 and 5
    assert out["wall_s"] == pytest.approx(10.0 + sum(fast))
    assert out["decode_qps"] == pytest.approx(100 / sum(fast))
    assert out["sbs_ms_p90"] == pytest.approx(
        tracing.percentile([x * 1e3 for x in fast], 90))
    with pytest.raises(ValueError):
        metrics.run_end_to_end([_timed_pass(1.0, fast),
                                _timed_pass(1.0, fast[1:])])
    moved = _timed_pass(1.0, fast)
    moved.rec.spans[2].parent = 0
    with pytest.raises(ValueError):
        metrics.reference_spans([_timed_pass(1.0, fast), moved])


def test_timings_are_rescaled_by_the_speed_near_each_span():
    log = speed.SpeedLog(window=1.0)
    # twice the reference kernel time until t=15, the reference after
    log.times = [0.0, 10.0, 20.0, 30.0]
    log.seconds = [2 * speed.REFERENCE_S] * 2 + [speed.REFERENCE_S] * 2
    assert log.slowdown(9.5) == pytest.approx(2.0)
    assert log.slowdown(24.0) == pytest.approx(1.0)
    assert speed.SpeedLog().slowdown(5.0) == 1.0
    out = metrics.run_end_to_end([_timed_pass(4.0, [0.5] * 100, log)])
    # stage and inner end before t=15 and are halved; decodes end at 20.5
    assert out["wall_s"] == pytest.approx(5.0 + 50.0)
    assert out["sbs_ms_p50"] == pytest.approx(500.0)


def test_speed_samples_inside_a_span_are_not_its_work():
    rec = tracing.Recorder(speed=speed.SpeedLog(every=0.0))
    outer = rec.open("outer")
    rec.close(rec.open("inner"))
    rec.close(outer)
    assert rec.paused[outer] > 0
    assert len(rec.speed.seconds) == 2
    own = rec.self_times()
    assert own[outer] == pytest.approx(
        rec.spans[outer].duration - rec.spans[1].duration - rec.paused[outer])
