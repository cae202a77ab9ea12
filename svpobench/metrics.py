"""End-to-end and per-layer metrics from the passes of one run.

Every pass of a run repeats the same inputs. The timings of the
untraced passes are rescaled to the reference speed span by span and
then taken as medians over the passes (see ``reference_spans``); every
other metric is computed per pass and the run reports the median over
its passes. ``.s`` of a span name is the summed
self time of its spans (duration minus the child spans it covers);
``.s`` of an aggregate counter is its inclusive time.
A layer a workload never calls reads 0.
"""
from __future__ import annotations

from statistics import fmean, median

from .tracing import percentile

# (name, unit, better) of the metrics in the result line of an untraced run
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("sbs_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("solve_rate", "ratio", "higher"),
]

# printed by an untraced run but kept out of its result line. The first
# three time the same calls as wall_s and sbs_ms_p90, but each over a part
# of a pass only; the rest do not apply to every workload, or read 0 on a
# sound run
REPORTED = [
    ("annotate_qps", "1/s"),
    ("decode_qps", "1/s"),
    ("sbs_ms_p50", "ms"),
    ("pretrain_steps_per_s", "1/s"),
    ("svpo_steps_per_s", "1/s"),
    ("acc_greedy_pretrain", "ratio"),
    ("acc_greedy", "ratio"),
    ("acc_sbs_b1", "ratio"),
    ("acc_sbs_b3", "ratio"),
    ("winrate_heldout_implicit", "ratio"),
    ("winrate_heldout_explicit", "ratio"),
    ("failed_share", "ratio"),
]

_AGGREGATE_NAMES = [
    "env.transition", "model.legal_logprobs", "model.seq_logprob",
    "model.value", "model.seq_logprob_grad", "model.value_forward",
    "model.value_grad", "mcts.select", "mcts.expand_and_evaluate",
    "mcts.backup",
]
_STAGES = ["build_corpus", "pretrain_stage", "svpo_stage", "heldout_stage",
           "eval_accuracy_suite", "eval_win_rates", "artifacts"]

PER_LAYER = (
    [("env.transition.calls", "count"), ("env.transition.s", "s"),
     ("env.replay.calls", "count"), ("env.replay.steps", "count"),
     ("env.replay.s", "s"),
     ("model.legal_logprobs.calls", "count"),
     ("model.legal_logprobs.s", "s"),
     ("model.legal_logprobs.us_per_call", "us"),
     ("model.features.calls", "count"),
     ("model.features.distinct_states", "count"),
     ("model.features.hit_ratio", "ratio")]
    + [(f"model.{f}.{m}", "count" if m == "calls" else "s")
       for f in ("seq_logprob", "value") for m in ("calls", "s")]
    + [("model.seq_logprob_grad.calls", "count"),
       ("model.seq_logprob_grad.steps", "count"),
       ("model.seq_logprob_grad.s", "s")]
    + [(f"model.{f}.{m}", "count" if m == "calls" else "s")
       for f in ("value_forward", "value_grad") for m in ("calls", "s")]
    + [("mcts.build_forest.calls", "count"), ("mcts.build_forest.s", "s"),
       ("mcts.trees", "count"), ("mcts.nodes", "count"),
       ("mcts.trees_per_question", "ratio"), ("mcts.nodes_per_s", "1/s")]
    + [(f"mcts.{f}.{m}", "count" if m == "calls" else "s")
       for f in ("select", "expand_and_evaluate", "backup")
       for m in ("calls", "s")]
    + [("mcts.target_ratio", "ratio"),
       ("pairs.extract_pairs.calls", "count"), ("pairs.extract_pairs.s", "s"),
       ("pairs.count", "count"), ("pairs.kind.sibling", "count"),
       ("pairs.kind.cousin", "count"), ("pairs.kind.terminal", "count"),
       ("pairs.pos_neg_ratio", "ratio"), ("pairs.value_targets", "count"),
       ("pairs.solutions", "count")]
    + [(f"train.{f}_batch_grad.ms_{p}", "ms")
       for f in ("pretrain", "svpo") for p in ("p50", "p90")]
    + [("train.prefix_evals", "count"), ("train.prefix_dedup_ratio", "ratio"),
       ("train.ref_logprob_calls", "count"),
       ("train.loop_overhead_s", "s"),
       ("train.pretrain_steps_per_s", "1/s"),
       ("train.svpo_steps_per_s", "1/s"),
       ("infer.greedy_decode.calls", "count"), ("infer.greedy_decode.s", "s"),
       ("infer.sbs.calls", "count"), ("infer.sbs.s", "s"),
       ("infer.sbs.expansions", "count"), ("infer.sbs.value_calls", "count"),
       ("infer.decode_steps_mean", "steps")]
    + [(f"evaluate.{stage}.s", "s") for stage in _STAGES]
    + [("evaluate.artifacts.bytes", "bytes"), ("trace.overhead_s", "s")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ms_percentiles(durations: list[float]) -> tuple[float, float]:
    """(p50, p90) in ms, both 0 when the layer never ran."""
    if not durations:
        return 0.0, 0.0
    ms = [d * 1e3 for d in durations]
    return percentile(ms, 50), percentile(ms, 90)


def _stage_rate(p, key: str, stage: str) -> float:
    seconds = sum(p.rec.durations(f"evaluate.{stage}"))
    return _ratio(p.steps.get(key, 0), seconds)


def reference_spans(passes) -> tuple[list, list[float]]:
    """The spans of a run's passes, each with its duration in reference
    seconds.

    Passes repeat the same calls, so they record the same spans in the
    same order. Each span's self time is divided by the machine's
    slowdown when the span ended (see ``speed``) and the median over the
    passes is taken; a span's duration is that plus the durations of its
    child spans."""
    spans = passes[0].rec.spans
    shape = [(s.name, s.parent) for s in spans]
    if any([(s.name, s.parent) for s in p.rec.spans] != shape
           for p in passes):
        raise ValueError("passes recorded different spans")
    per_pass = [[own / p.rec.speed.slowdown(s.end) for own, s
                 in zip(p.rec.self_times(), p.rec.spans)] for p in passes]
    typical = [median(own) for own in zip(*per_pass)]
    # children are recorded after their parent, so walking backwards
    # completes every span before it is added to its parent
    for i in reversed(range(len(spans))):
        if spans[i].parent is not None:
            typical[spans[i].parent] += typical[i]
    return spans, typical


_DECODES = ("infer.greedy_decode", "infer.sbs")


def run_end_to_end(passes) -> dict:
    """End-to-end timings of a run's untraced passes, in reference seconds
    from ``reference_spans``.

    The untraced level records a span for every stage, per-question call
    and training step, so ``wall_s``, the sum of the top-level spans, is
    the timed part of a pass (search-hard leaves out only the loop
    around its calls) and each rate and latency is taken over the same
    spans."""
    spans, seconds = reference_spans(passes)

    def total(*names):
        return sum(t for s, t in zip(spans, seconds) if s.name in names)

    def count(*names):
        return sum(s.name in names for s in spans)

    out = {"wall_s": sum(t for s, t in zip(spans, seconds)
                         if s.parent is None),
           "annotate_qps": _ratio(count("mcts.build_forest"),
                                  total("mcts.build_forest",
                                        "pairs.label_correct")),
           "decode_qps": _ratio(count(*_DECODES), total(*_DECODES))}
    steps = passes[0].steps
    if steps:
        for key in ("pretrain", "svpo"):
            out[f"{key}_steps_per_s"] = _ratio(
                steps[key], total(f"evaluate.{key}_stage"))
    # b1=1 and b1=3 differ about threefold in cost, so a percentile over
    # both would fall between two modes; the latency is that of the b1=3
    # beam search the paper's claims rest on
    decodes = [t for s, t in zip(spans, seconds) if s.name in _DECODES]
    kinds = [kind for kind, *_ in passes[0].rec.decodes]
    out["sbs_ms_p50"], out["sbs_ms_p90"] = _ms_percentiles(
        [t for kind, t in zip(kinds, decodes, strict=True)
         if kind == "sbs_b3"])
    return out


def pass_per_layer(p) -> dict:
    """Every PER_LAYER metric of one traced pass, except the overhead."""
    rec = p.rec
    count, total, own = rec.span_totals()
    calls, seconds, items = rec.calls, rec.seconds, rec.items
    v: dict = {}
    for name in _AGGREGATE_NAMES:
        v[f"{name}.calls"] = calls[name]
        v[f"{name}.s"] = seconds[name]
    v["env.replay.calls"] = calls["env.replay"]
    v["env.replay.steps"] = items["env.replay.steps"]
    v["env.replay.s"] = seconds["env.replay"]
    v["model.legal_logprobs.us_per_call"] = 1e6 * _ratio(
        seconds["model.legal_logprobs"], calls["model.legal_logprobs"])
    v["model.features.calls"] = calls["model.features"]
    v["model.features.distinct_states"] = len(rec.distinct)
    v["model.features.hit_ratio"] = (
        1.0 - _ratio(len(rec.distinct), calls["model.features"])
        if calls["model.features"] else 0.0)
    v["model.seq_logprob_grad.steps"] = items["model.seq_logprob_grad.steps"]

    n_forests = count["mcts.build_forest"]
    v["mcts.build_forest.calls"] = n_forests
    v["mcts.build_forest.s"] = own["mcts.build_forest"]
    v["mcts.trees"] = items["mcts.trees"]
    v["mcts.nodes"] = items["mcts.nodes"]
    v["mcts.trees_per_question"] = _ratio(items["mcts.trees"], n_forests)
    v["mcts.nodes_per_s"] = _ratio(items["mcts.nodes"],
                                   total["mcts.build_forest"])
    v["mcts.target_ratio"] = _ratio(items["mcts.target_reached"], n_forests)

    v["pairs.extract_pairs.calls"] = count["pairs.extract_pairs"]
    v["pairs.extract_pairs.s"] = own["pairs.extract_pairs"]
    for key in ("count", "kind.sibling", "kind.cousin", "kind.terminal",
                "value_targets", "solutions"):
        v[f"pairs.{key}"] = items[f"pairs.{key}"]
    v["pairs.pos_neg_ratio"] = _ratio(items["pairs.count"],
                                      items["pairs.positives"])

    for stage in ("pretrain", "svpo"):
        p50, p90 = _ms_percentiles(rec.durations(f"train.{stage}_batch_grad"))
        v[f"train.{stage}_batch_grad.ms_p50"] = p50
        v[f"train.{stage}_batch_grad.ms_p90"] = p90
    prefix_evals = rec.within["model.grads_logprob_and_value",
                              "train.svpo_batch_grad"]
    v["train.prefix_evals"] = prefix_evals
    v["train.prefix_dedup_ratio"] = (
        1.0 - _ratio(prefix_evals, 2 * items["train.svpo_pairs"])
        if items["train.svpo_pairs"] else 0.0)
    v["train.ref_logprob_calls"] = rec.within["model.seq_logprob",
                                              "train.svpo_batch_grad"]
    v["train.loop_overhead_s"] = (own["evaluate.pretrain_stage"]
                                  + own["evaluate.svpo_stage"])
    v["train.pretrain_steps_per_s"] = _stage_rate(p, "pretrain",
                                                  "pretrain_stage")
    v["train.svpo_steps_per_s"] = _stage_rate(p, "svpo", "svpo_stage")

    for name in ("greedy_decode", "sbs"):
        v[f"infer.{name}.calls"] = count[f"infer.{name}"]
        v[f"infer.{name}.s"] = own[f"infer.{name}"]
    v["infer.sbs.expansions"] = rec.within["model.legal_logprobs", "infer.sbs"]
    v["infer.sbs.value_calls"] = rec.within["model.value", "infer.sbs"]
    v["infer.decode_steps_mean"] = (
        fmean(len(s.steps) for _, _, s, _ in rec.decodes)
        if rec.decodes else 0.0)

    for stage in _STAGES:
        v[f"evaluate.{stage}.s"] = own[f"evaluate.{stage}"]
    v["evaluate.artifacts.bytes"] = items["evaluate.artifacts.bytes"]
    return v


def medians(rows: list[dict]) -> dict:
    return {k: median(row[k] for row in rows) for k in rows[0]}
