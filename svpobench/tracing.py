"""Spans, aggregate counters and the wrappers that record them.

The benchmark measures every layer of ``svpo`` from outside: it replaces
public functions with timing wrappers for the length of one pass and puts
the originals back afterwards. Each wrapper goes on the name the caller
actually looks up (``evaluate`` imports ``build_forest``, ``greedy_decode``
and ``sbs`` by name, ``mcts.build_forest`` calls ``select`` and friends as
module globals, ``Model`` methods live on the class, and
``evaluate._write_artifacts`` imports the ``save_*`` functions at call
time).

Two levels exist. The light level, used for the end-to-end metrics, only
records stage-level, per-question and per-training-step spans (a few
thousand per pass at most), so that every timed stretch of a pass is cut
into short spans. The full level, used by the traced run, adds the
artifact and extraction spans and aggregate counters (count and total
time, no span per call) for the hot per-state functions.
"""
from __future__ import annotations

import functools
import math
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from svpo import env, evaluate, infer, mcts, model, pairs, train

from .speed import SpeedLog


class NotEnoughSamples(ValueError):
    """A percentile was asked for without enough samples beyond it."""


def percentile(values, q: float, min_beyond: int = 10) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation.

    Refuses when fewer than ``min_beyond`` samples lie above it, since a
    tail figure resting on a handful of samples does not repeat."""
    if not 0 < q < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    data = sorted(values)
    beyond = math.floor(len(data) * (100 - q) / 100)
    if not data or beyond < min_beyond:
        raise NotEnoughSamples(
            f"p{q:g} of {len(data)} samples has {beyond} beyond it, "
            f"needs {min_beyond}")
    pos = (len(data) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """In-memory trace of one pass: spans, aggregates and side records.

    ``calls``/``seconds`` hold aggregate counters; ``within`` counts
    aggregate calls by the innermost open span, which is how calls are
    attributed to a caller (value calls made by SBS, say) without a span
    per call. ``items`` collects extra counts (steps, nodes, bytes) and
    ``decodes`` keeps the decoded solutions the checks need. Closing a
    span may time the reference kernel in ``speed``; that time is kept in
    ``paused`` under the innermost open span.
    """

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    seconds: defaultdict = field(default_factory=lambda: defaultdict(float))
    within: Counter = field(default_factory=Counter)
    items: Counter = field(default_factory=Counter)
    distinct: set = field(default_factory=set)
    decodes: list = field(default_factory=list)
    speed: SpeedLog = field(default_factory=SpeedLog)
    paused: Counter = field(default_factory=Counter)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self.stack.pop()
        # a speed sample taken inside a span is not that span's work
        spent = self.speed.maybe_sample()
        if spent and self.stack:
            self.paused[self.stack[-1]] += spent

    def current(self) -> str | None:
        return self.spans[self.stack[-1]].name if self.stack else None

    def add(self, name: str, seconds: float) -> None:
        self.calls[name] += 1
        self.seconds[name] += seconds
        self.within[name, self.current()] += 1

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover
        and the speed samples taken inside it. Children of one span
        never overlap (the program is single threaded), so covered time
        is the sum of child durations."""
        own = [s.duration - self.paused[i] for i, s in enumerate(self.spans)]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def span_totals(self) -> tuple[Counter, defaultdict, defaultdict]:
        """(count, total duration, total self time) per span name."""
        count: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for s, self_s in zip(self.spans, self.self_times()):
            count[s.name] += 1
            total[s.name] += s.duration
            own[s.name] += self_s
        return count, total, own

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def to_record(self) -> dict:
        return {"spans": [{"name": s.name, "start": s.start, "end": s.end,
                           "parent": s.parent} for s in self.spans],
                "aggregates": {name: {"calls": n, "s": self.seconds[name]}
                               for name, n in sorted(self.calls.items())}}


# -- wrappers -------------------------------------------------------------

def span_wrapper(rec: Recorder, name: str, fn, after=None):
    """Record one span per call; ``after(rec, span, args, kwargs, result)``
    runs once the span is closed, so its cost is not charged to the span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, rec.spans[index], args, kwargs, result)
        return result
    return wrapper


def aggregate_wrapper(rec: Recorder, name: str, fn, before=None):
    """Count calls and total time; ``before(rec, args)`` sees the inputs."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.add(name, perf_counter() - t0)
    return wrapper


class Patcher:
    """Replaces attributes and restores the exact original objects."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def original(self, owner, attr: str):
        # class attributes are read from __dict__ so that restoring puts
        # back the function object itself, not a bound method
        return owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, self.original(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _forest_done(rec, span, args, kwargs, forest):
    config = args[3] if len(args) > 3 else kwargs["config"]
    rec.items["mcts.trees"] += len(forest.trees)
    rec.items["mcts.nodes"] += sum(len(t.nodes) for t in forest.trees)
    found = len(mcts.correct_solutions(forest))
    rec.items["mcts.target_reached"] += found >= config.target_correct


def _decoded(rec, span, args, kwargs, solution):
    """Keep (kind, question, solution, seconds); SBS kinds carry their
    beam width."""
    config = args[3] if len(args) > 3 else kwargs.get("config")
    kind = "greedy" if config is None else f"sbs_b{config.b1}"
    rec.decodes.append((kind, args[2], solution, span.duration))


def _count_pairs(rec, span, args, kwargs, result):
    rec.items["pairs.count"] += len(result)
    rec.items["pairs.positives"] += len(
        {(p.question_id, p.tree, p.winner) for p in result})
    for p in result:
        rec.items[f"pairs.kind.{p.kind}"] += 1


def _count_items(key):
    def after(rec, span, args, kwargs, result):
        rec.items[key] += len(result)
    return after


def _svpo_batch(rec, span, args, kwargs, result):
    rec.items["train.svpo_pairs"] += len(args[3])


def _saved(rec, span, args, kwargs, result):
    rec.items["evaluate.artifacts.bytes"] += os.path.getsize(args[1])


def _replay_steps(rec, args):
    rec.items["env.replay.steps"] += len(args[2])


def _grad_steps(rec, args):
    rec.items["model.seq_logprob_grad.steps"] += len(args[3])


def _feature_key(rec, args):
    rec.distinct.add((args[1].id, args[2].steps))


# (owner modules or classes, attribute, span or aggregate name, hook)
_STAGES = [
    ((evaluate,), "run_pipeline", "evaluate.run_pipeline", None),
    ((evaluate,), "build_corpus", "evaluate.build_corpus", None),
    ((evaluate,), "pretrain_stage", "evaluate.pretrain_stage", None),
    ((evaluate,), "svpo_stage", "evaluate.svpo_stage", None),
    ((evaluate,), "heldout_stage", "evaluate.heldout_stage", None),
    ((evaluate,), "eval_accuracy_suite", "evaluate.eval_accuracy_suite",
     None),
    ((evaluate,), "eval_win_rates", "evaluate.eval_win_rates", None),
]
_PER_CALL = [
    ((mcts, evaluate), "build_forest", "mcts.build_forest", _forest_done),
    ((pairs, evaluate), "label_correct", "pairs.label_correct", None),
    ((pairs, evaluate), "extract_pairs", "pairs.extract_pairs", _count_pairs),
    ((infer, evaluate), "greedy_decode", "infer.greedy_decode", _decoded),
    ((infer, evaluate), "sbs", "infer.sbs", _decoded),
    ((train,), "pretrain_batch_grad", "train.pretrain_batch_grad", None),
    ((train,), "svpo_batch_grad", "train.svpo_batch_grad", _svpo_batch),
]
_TRACED_SPANS = [
    ((pairs, evaluate), "extract_value_targets",
     "pairs.extract_value_targets", _count_items("pairs.value_targets")),
    ((pairs, evaluate), "extract_sft_solutions",
     "pairs.extract_sft_solutions", _count_items("pairs.solutions")),
    ((env,), "save_dataset", "evaluate.artifacts", _saved),
    ((mcts,), "save_forests", "evaluate.artifacts", _saved),
    ((pairs,), "save_pairs", "evaluate.artifacts", _saved),
    ((pairs,), "save_value_targets", "evaluate.artifacts", _saved),
    ((pairs,), "save_solutions", "evaluate.artifacts", _saved),
    ((train,), "save_checkpoint", "evaluate.artifacts", _saved),
    ((train,), "save_log_csv", "evaluate.artifacts", _saved),
]
_AGGREGATES = [
    (env.Env, "transition", "env.transition", None),
    (env.Env, "replay", "env.replay", _replay_steps),
    (model.Model, "legal_logprobs", "model.legal_logprobs", None),
    (model.Featurizer, "features", "model.features", _feature_key),
    (model.Model, "seq_logprob", "model.seq_logprob", None),
    (model.Model, "value", "model.value", None),
    (model.Model, "seq_logprob_grad", "model.seq_logprob_grad", _grad_steps),
    (model.Model, "value_forward", "model.value_forward", None),
    (model.Model, "value_grad", "model.value_grad", None),
    (model.Model, "grads_logprob_and_value", "model.grads_logprob_and_value",
     None),
    (mcts, "select", "mcts.select", None),
    (mcts, "expand_and_evaluate", "mcts.expand_and_evaluate", None),
    (mcts, "backup", "mcts.backup", None),
]


@contextmanager
def instrument(rec: Recorder, traced: bool):
    """Install the wrappers for one pass and always restore the originals.

    Untraced: stage, per-question and per-step spans only. Traced: also
    the pair/target/artifact spans and counters and the hot aggregates."""
    patcher = Patcher()
    try:
        table = _STAGES + _PER_CALL + (_TRACED_SPANS if traced else [])
        for owners, attr, name, after in table:
            wrapper = span_wrapper(rec, name,
                                   patcher.original(owners[0], attr), after)
            for owner in owners:
                patcher.set(owner, attr, wrapper)
        if traced:
            for owner, attr, name, before in _AGGREGATES:
                patcher.set(owner, attr, aggregate_wrapper(
                    rec, name, patcher.original(owner, attr), before))
        yield rec
    finally:
        patcher.restore()
