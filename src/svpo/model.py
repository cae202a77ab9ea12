"""Policy-value model over hand-built state features.

One shared hidden layer (d -> h, tanh) feeds two heads: a softmax policy
over the action vocabulary, masked to the legal subset per state, and a
scalar value head with a tanh activation, so values live in (-1, 1) and
pairwise value differences in (-2, 2). All gradients are derived by hand
and exposed analytically; nothing here depends on an autodiff framework.
Log-probabilities are computed in log space with the usual max-shift.

Search and decoding evaluate whole rows of states at once. MCTS reads
only the policy and calls `Model.logits` (feature rows, trunk, policy
head), scoring all new rollout children of an expansion in one call. SBS
scores all children of a level through `Model.policy_value`, which adds
the masked log-softmax and the value head to `logits`; `legal_logprobs`,
`value` and `value_forward` are one-row calls into it. Feature rows come
from one featurizer, `Featurizer.rows`: each row is a copy of its
question's base row (the question-only blocks, computed once per
question and kept by question id) with the state's few entries written
by index. A batch holds one question's states, so the question and its
base row are looked up only when a state's question id differs from the
previous state's. Weighted sampling has one pick routine, `draw`: it
reads a Python float sequence (search keeps its probabilities as
`.tolist()` rows) and a uniform from the caller, and picks what
`Generator.choice` would pick for that uniform. `sample_distinct` is a
loop of `draw` calls over the weights left, and an MCTS rollout is one
`draw`; search and pair extraction read their generators directly.
The softmaxes call the ufunc reductions `np.maximum.reduce` and
`np.add.reduce` themselves, which `ndarray.max` and `ndarray.sum` reach
through Python-level wrappers; the bits are the same. Training and
win-rate scoring go through one batched prefix kernel,
`Model.seq_logprob_grad`: it evaluates a batch of prefix ids, which
`Model.prefix_rows` gave the prefixes it compiled once, and returns the
gradient of any weighted sum of their log-probabilities and end-state
values. It sums its three weight gradients over fixed blocks of 256
rows, in order, so they come out the same bits at one and two BLAS
threads.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .env import INTERMEDIATE, Env, EnvConfig, Question, State
from .env import DepthExceeded, IllegalAction  # re-raised with context

HIDDEN = 32  # width of the shared tanh layer
SCRATCH_LO, SCRATCH_HI = -8, 30  # scratch values with their own bucket


class IllegalPrefix(Exception):
    """A step sequence leaves the legal action set at some step."""


@dataclass
class PolicyValueParams:
    """Trainable tensors: shared trunk, policy head, value head."""

    w_shared: np.ndarray  # (d, h)
    w_policy: np.ndarray  # (h, vocab)
    w_value: np.ndarray   # (h,)

    @property
    def d(self) -> int:
        return self.w_shared.shape[0]

    @property
    def h(self) -> int:
        return self.w_shared.shape[1]

    @property
    def vocab(self) -> int:
        return self.w_policy.shape[1]

    def copy(self) -> "PolicyValueParams":
        return PolicyValueParams(self.w_shared.copy(), self.w_policy.copy(),
                                 self.w_value.copy())


@dataclass
class Gradients:
    """Mirrors PolicyValueParams."""

    w_shared: np.ndarray
    w_policy: np.ndarray
    w_value: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.w_shared ** 2)
                             + np.sum(self.w_policy ** 2)
                             + np.sum(self.w_value ** 2)))


@dataclass(frozen=True)
class PrefixEval:
    """seq_logprob and end-state value of one prefix, with both gradients."""

    logprob: float
    value: float
    grad_logprob: Gradients
    grad_value: Gradients


@dataclass(frozen=True)
class PrefixRows:
    """Compiled prefixes. Prefix id i is the row of its end state in `x`;
    its steps are actions[start[i]:][:length[i]], taken from the states at
    rows before[start[i]:][:length[i]]. `ids` maps each key to its id."""

    x: np.ndarray  # (distinct states, d)
    start: np.ndarray
    length: np.ndarray
    before: np.ndarray
    actions: np.ndarray
    ids: dict[tuple[int, tuple[int, ...]], int]

    def lookup(self, keys) -> np.ndarray:
        """The ids of compiled (question id, steps) keys."""
        return np.array([self.ids[q, tuple(s)] for q, s in keys], np.intp)


def init_params(d: int, h: int, vocab: int, seed: int,
                scale: float = 0.05) -> PolicyValueParams:
    """Small Gaussian init. Exact zeros are a training fixed point (the
    tanh trunk kills every gradient), so training always starts here."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return PolicyValueParams(
        w_shared=scale * rng.standard_normal((d, h)),
        w_policy=scale * rng.standard_normal((h, vocab)),
        w_value=scale * rng.standard_normal(h))


def zeros_params(d: int, h: int, vocab: int) -> PolicyValueParams:
    return PolicyValueParams(np.zeros((d, h)), np.zeros((h, vocab)),
                             np.zeros(h))


class Featurizer:
    """Deterministic feature map for (question, state) pairs.

    Blocks: bias, depth one-hot, last-action one-hot, start one-hot,
    canonical chain length one-hot, op histogram of the chain (order
    deliberately dropped: recovering a workable step order from the
    unordered spec is the learning problem), scratch bucket one-hot with
    out-of-range flags, scaled scratch, and parity.

    The first four blocks depend on the question alone. They form its
    base row, computed once per question and kept by question id with
    the Question it was built from (about 700 bytes a question); `rows`
    copies it for each state and writes the state's entries by index.
    """

    scratch_lo = SCRATCH_LO  # read by callers that index the bucket block

    def __init__(self, config: EnvConfig):
        self.config = config
        from .env import vocabulary
        self.vocab = vocabulary(config)
        self.n_ops = sum(1 for a in self.vocab if a.kind == INTERMEDIATE)
        self.n_start = config.start_hi - config.start_lo + 1
        self.n_len = config.max_depth - 1  # chain lengths 1..max_depth-1
        self.n_bucket = SCRATCH_HI - SCRATCH_LO + 1
        self._offsets = {}
        dim = 0
        for name, width in [
            ("bias", 1),
            ("depth", config.max_depth + 1),
            ("last", len(self.vocab)),
            ("start", self.n_start),
            ("chain_len", self.n_len),
            ("hist", self.n_ops),
            ("bucket", self.n_bucket),
            ("flags", 2),
            ("scaled", 1),
            ("parity", 1),
        ]:
            self._offsets[name] = dim
            dim += width
        self.dim = dim
        self._state_blocks = tuple(self._offsets[name] for name in (
            "depth", "last", "bucket", "flags", "scaled", "parity"))
        # question id -> (Question, base row); the Question is compared by
        # identity, since `features(question, state)` may be handed two
        # Questions under one id
        self._base: dict[int, tuple[Question, np.ndarray]] = {}

    def block(self, name: str) -> int:
        """Start index of a named feature block (bias, depth, last, ...)."""
        return self._offsets[name]

    def rows(self, env: Env, states) -> np.ndarray:
        """The (len(states), dim) feature rows of `states`, each state's
        question looked up in `env`. This is the one featurizer."""
        return self._rows(states, env.question)

    def features(self, question: Question, state: State) -> np.ndarray:
        """The feature row of one state of `question`."""
        return self._rows([state], lambda _: question)[0]

    def _rows(self, states, question_of) -> np.ndarray:
        """Each row starts as a copy of its question's base row and then
        gets the state's entries: depth, last action, scratch bucket or
        flag, scaled scratch and parity. `question_of(id)` gives a
        state's Question; it and the base row are looked up only when
        the question id changes from the previous state's."""
        x = np.empty((len(states), self.dim))
        depth, last, bucket, flags, scaled, parity = self._state_blocks
        qid = base = None
        for i, s in enumerate(states):
            if s.question_id != qid:
                qid = s.question_id
                base = self._base_row(question_of(qid))
            x[i] = base
            x[i, depth + s.depth] = 1.0
            if s.steps:
                x[i, last + s.steps[-1]] = 1.0
            scratch = s.scratch
            if scratch < SCRATCH_LO:
                x[i, flags] = 1.0
            elif scratch > SCRATCH_HI:
                x[i, flags + 1] = 1.0
            else:
                x[i, bucket + (scratch - SCRATCH_LO)] = 1.0
            x[i, scaled] = scratch / 16.0
            x[i, parity] = float(scratch % 2)
        return x

    def _base_row(self, question: Question) -> np.ndarray:
        """The question-only entries: bias, start, chain length and op
        histogram; zeros elsewhere. Kept per question id while the same
        Question object asks for it."""
        cached = self._base.get(question.id)
        if cached is not None and cached[0] is question:
            return cached[1]
        x = np.zeros(self.dim)
        off = self._offsets
        x[off["bias"]] = 1.0
        x[off["start"] + (question.start - self.config.start_lo)] = 1.0
        x[off["chain_len"] + len(question.chain) - 1] = 1.0
        for aid in question.chain:
            x[off["hist"] + aid] += 0.5
        self._base[question.id] = (question, x)
        return x


class Model:
    """Env + featurizer + the parametric policy/value functions.

    Parameters are always passed explicitly, so a single Model instance
    can serve both a live policy and a frozen reference snapshot.
    """

    def __init__(self, env: Env):
        self.env = env
        self.featurizer = Featurizer(env.config)
        self.d = self.featurizer.dim
        self.vocab_size = len(env.vocab)

    # -- constructors -----------------------------------------------------

    def init_params(self, seed: int, scale: float = 0.05) -> PolicyValueParams:
        return init_params(self.d, HIDDEN, self.vocab_size, seed, scale)

    def zeros_params(self) -> PolicyValueParams:
        return zeros_params(self.d, HIDDEN, self.vocab_size)

    # -- forward ----------------------------------------------------------

    def logits(self, params: PolicyValueParams, states):
        """Feature rows (`Featurizer.rows`), tanh trunk and policy head of
        each state, with no softmax or mask; empty arrays for no states.

        Returns (logits (n, vocab), hidden (n, h), features (n, d))."""
        x = self.featurizer.rows(self.env, states)
        hidden = np.tanh(x @ params.w_shared)
        return hidden @ params.w_policy, hidden, x

    def policy_value(self, params: PolicyValueParams, states):
        """`logits`, its log-softmax over the whole vocabulary (answers
        -inf in a depth-0 state, where Env.legal_actions forbids them)
        and the value head.

        Returns (log-probs (n, vocab), values (n,), hidden (n, h),
        features (n, d))."""
        logits, hidden, x = self.logits(params, states)
        depth0 = [i for i, s in enumerate(states) if s.depth == 0]
        logp = self._log_softmax(logits, depth0)
        values = np.tanh((hidden * params.w_value).sum(axis=1))
        return logp, values, hidden, x

    def _log_softmax(self, logits: np.ndarray, depth0) -> np.ndarray:
        """Row-wise log-softmax in place, with the answers, the columns
        past the intermediate actions, masked out of the rows `depth0`
        (answering needs one computation step)."""
        if len(depth0):
            logits[depth0, self.featurizer.n_ops:] = -np.inf
        logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
        logits -= np.log(np.add.reduce(np.exp(logits), axis=1,
                                       keepdims=True))
        return logits

    def legal_rows(self, state: State, rows: np.ndarray):
        """(legal actions of `state`, `rows` restricted to them): `rows` is
        one whole-vocabulary row or a stack of rows along the last axis,
        and the legal set is a vocabulary prefix, so this is a view of the
        first columns. Raises env.DepthExceeded at the depth budget."""
        legal = self.env.legal_actions(state)
        return legal, rows[..., :len(legal)]

    def legal_logprobs(self, params: PolicyValueParams, state: State):
        """(legal actions, their log-probs)."""
        logp = self.policy_value(params, [state])[0]
        return self.legal_rows(state, logp[0])

    def seq_logprob(self, params: PolicyValueParams, question: Question,
                    steps) -> float:
        """Sum of step log-probs over a whole prefix; 0.0 for the empty one."""
        logprobs, _, _ = self.seq_logprob_grad(
            params, self.prefix_rows([(question.id, steps)]), [len(steps)])
        return float(logprobs[0])

    def value(self, params: PolicyValueParams, state: State) -> float:
        return float(self.policy_value(params, [state])[1][0])

    def value_forward(self, params: PolicyValueParams, state: State):
        """(value, hidden activations, features) — the pieces a caller
        needs to assemble its own chain rule without re-featurizing."""
        _, values, hidden, x = self.policy_value(params, [state])
        return float(values[0]), hidden[0], x[0]

    # -- the batched prefix kernel: training and scoring -----------------

    def prefix_rows(self, keys) -> PrefixRows:
        """Compile (question id, steps) keys for `seq_logprob_grad`: every
        distinct state along them is replayed through the Env, and all of
        them are featurized in one `Featurizer.rows` call. A key passed
        twice gets one id; a prefix compiled alone has id len(steps).
        Raises IllegalPrefix when a prefix leaves the legal action set."""
        env = self.env
        # every distinct state's row, keyed by the edge that reaches it:
        # (None, question id) for a root, (row, action id) for a step
        states, edges, ids, start, before, actions = [], {}, {}, [], [], []
        for qid, steps in keys:
            steps, path = tuple(steps), []
            for aid in (qid,) + steps:
                row = edges.setdefault((path[-1] if path else None, aid),
                                       len(states))
                if row == len(states):
                    try:
                        states.append(
                            env.transition(states[path[-1]], env.action(aid))
                            if path else env.initial_state(env.question(qid)))
                    except (IllegalAction, DepthExceeded) as exc:
                        raise IllegalPrefix(f"prefix {steps} of question "
                                            f"{qid}: {exc}") from exc
                    start.append(-1)
                path.append(row)
            if start[row] < 0:
                start[row] = len(before)
                before += path[:-1]
                actions += steps
                ids[qid, steps] = row
        arrays = (np.array(a, dtype=np.intp) for a in (
            start, [len(s.steps) for s in states], before, actions))
        return PrefixRows(self.featurizer.rows(env, states), *arrays, ids)

    def seq_logprob_grad(self, params: PolicyValueParams, rows: PrefixRows,
                         ids, coef=None):
        """The batched prefix kernel: every prefix's seq_logprob and
        end-state value in one pass, and optionally one gradient.

        Prefix i is the one with id `ids[i]` in `rows`, which `prefix_rows`
        compiled. `coef` gives per-prefix coefficients (a, b), as arrays or
        scalars, or as a function of (logprobs, values) that returns them;
        the gradient is then that of sum_i a_i * logprob_i + b_i * value_i.
        The whole pass is a handful of matmuls over the batch's rows, which
        one index takes from `rows.x` (every step's state, then every end
        state): tanh(X W_s), a log-softmax masked to the legal actions,
        G^T dL and X^T dU, the last two summed over 256-row blocks
        (`_blocked_tdot`).

        Returns (logprobs, values, Gradients or None without `coef`)."""
        ids = np.asarray(ids, dtype=np.intp)
        lengths = rows.length[ids]
        n, n_steps = len(ids), int(lengths.sum())
        segment = np.repeat(np.arange(n), lengths)
        offsets = np.cumsum(lengths) - lengths
        at = np.arange(n_steps)
        flat = np.repeat(rows.start[ids] - offsets, lengths) + at
        x = rows.x[np.concatenate([rows.before[flat], ids])]
        chosen = rows.actions[flat]
        depth0 = offsets[lengths > 0]
        hidden = np.tanh(x @ params.w_shared)
        g, g_end = hidden[:n_steps], hidden[n_steps:]
        logp = self._log_softmax(g @ params.w_policy, depth0)
        logprobs = np.bincount(segment, weights=logp[at, chosen],
                               minlength=n)
        # a row-wise sum, unlike a matrix-vector product, gives equal end
        # states bit-equal values wherever they sit in the batch
        values = np.tanh((g_end * params.w_value).sum(axis=1))
        if coef is None:
            return logprobs, values, None
        a, b = coef(logprobs, values) if callable(coef) else coef
        a = np.broadcast_to(np.asarray(a, dtype=float), (n,))[segment]
        dpre = np.broadcast_to(b, (n,)) * (1.0 - values * values)
        # d logp(chosen) / d logit_j = delta - p_j on the legal subset
        dlogits = np.exp(logp) * -a[:, None]
        dlogits[at, chosen] += a
        du = np.concatenate([dlogits @ params.w_policy.T,
                             np.outer(dpre, params.w_value)])
        du *= 1.0 - hidden * hidden
        return logprobs, values, Gradients(
            _blocked_tdot(x, du), _blocked_tdot(g, dlogits),
            _blocked_tdot(g_end, dpre))

    def value_grad(self, params: PolicyValueParams, state: State):
        """(value, exact gradient of the tanh value head)."""
        rows = self.prefix_rows([(state.question_id, state.steps)])
        _, values, grad = self.seq_logprob_grad(params, rows,
                                                [len(state.steps)], (0.0, 1.0))
        return float(values[0]), grad

    def grads_logprob_and_value(self, params: PolicyValueParams,
                                question: Question, steps) -> PrefixEval:
        """Evaluate one prefix: seq_logprob, end-state value, both gradients."""
        rows, ids = self.prefix_rows([(question.id, steps)]), [len(steps)]
        logprobs, values, grad_lp = self.seq_logprob_grad(params, rows, ids,
                                                          (1.0, 0.0))
        _, _, grad_v = self.seq_logprob_grad(params, rows, ids, (0.0, 1.0))
        return PrefixEval(float(logprobs[0]), float(values[0]), grad_lp,
                          grad_v)


# rows per block of a weight-gradient sum
_BLOCK = 256


def _blocked_tdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b, summed over fixed blocks of `_BLOCK` rows in order. BLAS
    splits one long product differently at 1 and 2 threads, which moves
    its low bits; the blocks' products, and so their ordered sum, come
    out the same at both."""
    out = a[:_BLOCK].T @ b[:_BLOCK]
    for i in range(_BLOCK, len(a), _BLOCK):
        out += a[i:i + _BLOCK].T @ b[i:i + _BLOCK]
    return out


def temper(logprobs: np.ndarray, temperature: float) -> np.ndarray:
    """Renormalized softmax of logprobs / temperature along the last
    axis, overflow-safe; -inf entries get probability 0."""
    z = logprobs / temperature
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    p = np.exp(z)
    return p / np.add.reduce(p, axis=-1, keepdims=True)


def _index(probs: np.ndarray, u: float) -> int:
    """`rng.choice(len(probs), p=probs)`'s pick for the uniform u that
    rng yields: the cdf divided by its last entry, searched to the right.
    It skips choice's validation of `p`, which is most of choice's cost;
    `probs` must be a float array with a positive sum."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


# a pick this close to a cdf boundary, relative to the mass left, is
# redone in choice's arithmetic. Both cdfs of n weights lie within about
# n ulps of the exact one, so a pick further out is the same in both for
# any n below several thousand
_BOUNDARY = 1e-12
_NORMAL = float(np.finfo(float).tiny)


def draw(weights, u: float) -> int:
    """The index `Generator.choice(len(weights), p=weights / sum)` picks
    for the uniform u that the generator yields; if the weights' sum
    underflows to zero (very low temperatures), the pick is uniform.
    `weights` is any sequence of floats, a list or an array.

    It scales u by the mass and bisects the running sums in Python
    floats. A pick whose scaled uniform lies within 1e-12 times the mass
    of a boundary, or whose mass is zero or subnormal, is redone in
    choice's numpy arithmetic (`_index`)."""
    cdf = list(accumulate(weights))
    mass = cdf[-1]
    x = u * mass
    j = bisect_right(cdf, x)
    near = _BOUNDARY * mass
    if (not mass >= _NORMAL or (j and x - cdf[j - 1] <= near)
            or j == len(cdf) or cdf[j] - x <= near):
        w = np.array(weights)
        total = w.sum()
        j = _index(w / total if total > 0
                   else np.full(len(w), 1.0 / len(w)), u)
    return j


def sample_distinct(weights, uniforms: list[float]) -> list[int]:
    """len(uniforms) distinct indices, drawn one by one without
    replacement, each by `draw` over the weights still left; pick i
    reads uniforms[i], and there must be at most len(weights) of them.

    Given the uniforms a generator yields, the picks are those of one
    `Generator.choice` call per pick over the normalized weights left, so
    a caller that passes `rng.random(n).tolist()` consumes the generator
    exactly as n such calls would."""
    remaining = list(range(len(weights)))
    left = list(weights)
    picks: list[int] = []
    for u in uniforms:
        j = draw(left, u)
        picks.append(remaining.pop(j))
        left.pop(j)
    return picks


def spawn_generator(*entropy: int) -> np.random.Generator:
    """Deterministic generator from a tuple of non-negative integers:
    `SeedSequence(entropy)`'s, which raises ValueError on a negative
    integer."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy)))


# -- parameter (de)serialization ------------------------------------------

def params_to_record(params: PolicyValueParams) -> dict:
    return {"d": params.d, "h": params.h, "vocab": params.vocab,
            "w_shared": params.w_shared.tolist(),
            "w_policy": params.w_policy.tolist(),
            "w_value": params.w_value.tolist()}


def params_from_record(rec: dict) -> PolicyValueParams:
    params = PolicyValueParams(
        w_shared=np.asarray(rec["w_shared"], dtype=np.float64),
        w_policy=np.asarray(rec["w_policy"], dtype=np.float64),
        w_value=np.asarray(rec["w_value"], dtype=np.float64))
    expect = (rec["d"], rec["h"], rec["vocab"])
    got = (params.d, params.h, params.vocab)
    if expect != got:
        raise ValueError(f"shape header {expect} does not match tensors {got}")
    return params
