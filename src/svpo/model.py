"""Policy-value model over hand-built state features.

One shared hidden layer (d -> h, tanh) feeds two heads: a softmax policy
over the action vocabulary, masked to the legal subset per state, and a
scalar value head with a tanh activation, so values live in (-1, 1) and
pairwise value differences in (-2, 2). All gradients are derived by hand
and exposed analytically; nothing here depends on an autodiff framework.
Log-probabilities are computed in log space with the usual max-shift.

Search and decoding evaluate whole rows of states at once through
`Model.policy_value`: MCTS scores all new rollout children of an
expansion in one call and SBS all children of a level. `legal_logprobs`,
`value` and `value_forward` are one-row calls into it. Sampling goes
through `draw`, `draw_rows` and `sample_distinct`, which consume a
generator exactly as `Generator.choice` does. Training and win-rate
scoring go through one batched prefix kernel, `Model.seq_logprob_grad`:
it evaluates many (question, prefix) sequences at once and returns the
gradient of any weighted sum of their log-probabilities and end-state
values.
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .env import INTERMEDIATE, TERMINAL, Env, EnvConfig, Question, State
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
    """Mirrors PolicyValueParams; supports in-place accumulation."""

    w_shared: np.ndarray
    w_policy: np.ndarray
    w_value: np.ndarray

    @staticmethod
    def zeros_like(params: PolicyValueParams) -> "Gradients":
        return Gradients(np.zeros_like(params.w_shared),
                         np.zeros_like(params.w_policy),
                         np.zeros_like(params.w_value))

    def add_scaled(self, other: "Gradients", scale: float = 1.0) -> None:
        self.w_shared += scale * other.w_shared
        self.w_policy += scale * other.w_policy
        self.w_value += scale * other.w_value

    def scale(self, factor: float) -> None:
        self.w_shared *= factor
        self.w_policy *= factor
        self.w_value *= factor

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
        self._cache: dict[tuple, np.ndarray] = {}

    def block(self, name: str) -> int:
        """Start index of a named feature block (bias, depth, last, ...)."""
        return self._offsets[name]

    def cached(self, question_id: int, steps: tuple[int, ...]):
        """The feature row of an already featurized state, else None."""
        return self._cache.get((question_id, steps))

    def features(self, question: Question, state: State) -> np.ndarray:
        key = (question.id, state.steps)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        x = np.zeros(self.dim)
        off = self._offsets
        x[off["bias"]] = 1.0
        x[off["depth"] + state.depth] = 1.0
        if state.steps:
            x[off["last"] + state.steps[-1]] = 1.0
        x[off["start"] + (question.start - self.config.start_lo)] = 1.0
        x[off["chain_len"] + len(question.chain) - 1] = 1.0
        for aid in question.chain:
            x[off["hist"] + aid] += 0.5
        s = state.scratch
        if s < SCRATCH_LO:
            x[off["flags"]] = 1.0
        elif s > SCRATCH_HI:
            x[off["flags"] + 1] = 1.0
        else:
            x[off["bucket"] + (s - SCRATCH_LO)] = 1.0
        x[off["scaled"]] = s / 16.0
        x[off["parity"]] = float(s % 2)
        self._cache[key] = x
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
        self._answer_ids = np.array(
            [a.id for a in env.vocab if a.kind == TERMINAL], dtype=np.intp)

    # -- constructors -----------------------------------------------------

    def init_params(self, seed: int, scale: float = 0.05) -> PolicyValueParams:
        return init_params(self.d, HIDDEN, self.vocab_size, seed, scale)

    def zeros_params(self) -> PolicyValueParams:
        return zeros_params(self.d, HIDDEN, self.vocab_size)

    # -- forward ----------------------------------------------------------

    def policy_value(self, params: PolicyValueParams, states):
        """The batched forward over a list of states, one row each.

        Row i of the log-probs spans the whole vocabulary; answers are
        -inf in a depth-0 state, where Env.legal_actions forbids them
        (`legal_rows` restricts a row to the legal actions). Feature rows
        come from `Featurizer.features`.

        Returns (log-probs (n, vocab), values (n,), hidden (n, h),
        features (n, d))."""
        features = self.featurizer.features
        question = self.env.question
        x = np.array([features(question(s.question_id), s)
                      for s in states]).reshape(-1, self.d)
        hidden = np.tanh(x @ params.w_shared)
        depth0 = [i for i, s in enumerate(states) if s.depth == 0]
        logp = self._log_softmax(hidden @ params.w_policy, depth0)
        values = np.tanh((hidden * params.w_value).sum(axis=1))
        return logp, values, hidden, x

    def _log_softmax(self, logits: np.ndarray, depth0) -> np.ndarray:
        """Row-wise log-softmax in place, with the answers masked out of
        the rows `depth0` (answering needs one computation step)."""
        if len(depth0):
            logits[np.ix_(depth0, self._answer_ids)] = -np.inf
        logits -= logits.max(axis=1, keepdims=True)
        logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
        return logits

    def legal_rows(self, state: State, *rows: np.ndarray):
        """(legal actions of `state`, each whole-vocabulary row restricted
        to them). Raises env.DepthExceeded at the depth budget."""
        legal = self.env.legal_actions(state)
        if len(legal) < self.vocab_size:
            ids = [a.id for a in legal]
            rows = tuple(row[ids] for row in rows)
        return (legal, *rows)

    def legal_logprobs(self, params: PolicyValueParams, state: State):
        """(legal actions, their log-probs, hidden activations, features)."""
        logp, _, hidden, x = self.policy_value(params, [state])
        legal, logprobs = self.legal_rows(state, logp[0])
        return legal, logprobs, hidden[0], x[0]

    def seq_logprob(self, params: PolicyValueParams, question: Question,
                    steps) -> float:
        """Sum of step log-probs over a whole prefix; 0.0 for the empty one."""
        logprobs, _, _ = self.seq_logprob_grad(params, [question.id], [steps])
        return float(logprobs[0])

    def value(self, params: PolicyValueParams, state: State) -> float:
        return float(self.policy_value(params, [state])[1][0])

    def value_forward(self, params: PolicyValueParams, state: State):
        """(value, hidden activations, features) — the pieces a caller
        needs to assemble its own chain rule without re-featurizing."""
        _, values, hidden, x = self.policy_value(params, [state])
        return float(values[0]), hidden[0], x[0]

    def sample_step(self, params: PolicyValueParams, state: State,
                    temperature: float, rng) -> int:
        """Sample a legal action id at the given temperature (> 0)."""
        if temperature <= 0:
            raise ValueError("temperature must be > 0")
        legal, logprobs, _, _ = self.legal_logprobs(params, state)
        return legal[draw(temper(logprobs, temperature),
                          as_generator(rng))].id

    # -- the batched prefix kernel: training and scoring -----------------

    def _gather(self, question_ids, prefixes):
        """Feature rows of a batch of prefixes, taken from the featurizer
        cache: the state before every step, then every end state. Also
        each step's chosen action id, the index of its prefix, and the
        positions of the depth-0 rows."""
        cached = self.featurizer.cached
        rows: list[np.ndarray] = []
        ends: list[np.ndarray] = []
        chosen: list[int] = []
        segment: list[int] = []
        depth0: list[int] = []
        for i, (qid, steps) in enumerate(zip(question_ids, prefixes)):
            steps = tuple(steps)
            # states come only from the Env, which refuses illegal steps,
            # so a prefix whose states are all cached is legal; any other
            # prefix is replayed and raises at its first illegal step
            states = [cached(qid, steps[:t]) for t in range(len(steps) + 1)]
            if any(x is None for x in states):
                states = self._replay_rows(qid, steps)
            if steps:
                depth0.append(len(rows))
            rows.extend(states[:-1])
            ends.append(states[-1])
            chosen.extend(steps)
            segment.extend([i] * len(steps))
        return (np.array(rows + ends).reshape(-1, self.d),
                np.array(chosen, dtype=np.intp),
                np.array(segment, dtype=np.intp),
                np.array(depth0, dtype=np.intp))

    def _replay_rows(self, question_id: int, steps) -> list[np.ndarray]:
        """Feature rows of every state along a prefix, start to end."""
        env = self.env
        question = env.question(question_id)
        state = env.initial_state(question)
        rows = [self.featurizer.features(question, state)]
        try:
            for aid in steps:
                state = env.transition(state, env.action(aid))
                rows.append(self.featurizer.features(question, state))
        except (IllegalAction, DepthExceeded) as exc:
            raise IllegalPrefix(
                f"prefix {steps} of question {question_id}: {exc}") from exc
        return rows

    def seq_logprob_grad(self, params: PolicyValueParams, question_ids,
                         prefixes, coef=None):
        """The batched prefix kernel: every prefix's seq_logprob and
        end-state value in one pass, and optionally one gradient.

        Prefix i is the step tuple `prefixes[i]` of question
        `question_ids[i]`. `coef` gives per-prefix coefficients (a, b),
        as arrays or scalars, or as a function of (logprobs, values) that
        returns them; the gradient is then that of sum_i a_i * logprob_i +
        b_i * value_i. The whole pass is a handful of matmuls over the
        gathered rows: tanh(X W_s), a log-softmax masked to the legal
        actions, G^T dL and X^T dU.

        Returns (logprobs, values, Gradients or None without `coef`).
        Raises IllegalPrefix when a prefix leaves the legal action set."""
        x, chosen, segment, depth0 = self._gather(question_ids, prefixes)
        n, n_steps = len(prefixes), len(chosen)
        hidden = np.tanh(x @ params.w_shared)
        g, g_end = hidden[:n_steps], hidden[n_steps:]
        logp = self._log_softmax(g @ params.w_policy, depth0)
        at = np.arange(n_steps)
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
        return logprobs, values, Gradients(x.T @ du, g.T @ dlogits,
                                           g_end.T @ dpre)

    def value_grad(self, params: PolicyValueParams, state: State):
        """(value, exact gradient of the tanh value head)."""
        _, values, grad = self.seq_logprob_grad(
            params, [state.question_id], [state.steps], (0.0, 1.0))
        return float(values[0]), grad

    def grads_logprob_and_value(self, params: PolicyValueParams,
                                question: Question, steps) -> PrefixEval:
        """Evaluate one prefix: seq_logprob, end-state value, both gradients."""
        logprobs, values, grad_lp = self.seq_logprob_grad(
            params, [question.id], [steps], (1.0, 0.0))
        _, _, grad_v = self.seq_logprob_grad(params, [question.id], [steps],
                                             (0.0, 1.0))
        return PrefixEval(float(logprobs[0]), float(values[0]), grad_lp,
                          grad_v)


def temper(logprobs: np.ndarray, temperature: float) -> np.ndarray:
    """Renormalized softmax of logprobs / temperature along the last
    axis, overflow-safe; -inf entries get probability 0."""
    z = logprobs / temperature
    z -= z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    return p / p.sum(axis=-1, keepdims=True)


def draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn from the distribution `probs`.

    This is the algorithm `rng.choice(len(probs), p=probs)` runs, so it
    returns the same index and leaves `rng` in the same state. It skips
    choice's validation of `p`, which is most of choice's cost; `probs`
    must be a float array with a positive sum."""
    return _index(probs, rng.random())


def _index(probs: np.ndarray, u: float) -> int:
    """choice's pick for the uniform u: the cdf divided by its last
    entry, searched to the right."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def draw_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row i's index for the uniform u[i], by `draw`'s arithmetic on each
    row (cumsum, divided by the last entry, entries <= u counted), so it
    equals `draw(probs[i], rng)` when rng yields u[i]."""
    cdf = probs.cumsum(axis=1)
    cdf = cdf / cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


# a pick this close to a cdf boundary, relative to the mass left, is
# redone in choice's arithmetic. Both cdfs of n weights lie within about
# n ulps of the exact one, so a pick further out is the same in both for
# any n below several thousand
_BOUNDARY = 1e-12
_NORMAL = float(np.finfo(float).tiny)


def sample_distinct(weights: np.ndarray, k: int,
                    rng: np.random.Generator) -> list[int]:
    """min(k, len(weights)) distinct indices, drawn one by one without
    replacement, each in proportion to the weights still left. If the
    remaining mass underflows to zero (very low temperatures), the
    leftovers are treated as uniform.

    The picks and the generator's end state are those of one `draw` per
    pick over the normalized weights left. All uniforms come from one
    `rng.random(n)` call, which yields the values n `random()` calls
    would. Each pick scales its uniform by the mass left and bisects the
    running sums in Python floats. A pick whose scaled uniform lies
    within 1e-12 times that mass of a boundary, or whose mass is zero or
    subnormal, is redone in `draw`'s numpy arithmetic."""
    n = min(k, len(weights))
    if n <= 0:
        return []
    remaining = list(range(len(weights)))
    left = weights.tolist()
    picks: list[int] = []
    for u in rng.random(n).tolist():
        cdf = list(accumulate(left))
        mass = cdf[-1]
        x = u * mass
        j = bisect_right(cdf, x)
        near = _BOUNDARY * mass
        if (not mass >= _NORMAL or (j and x - cdf[j - 1] <= near)
                or j == len(cdf) or cdf[j] - x <= near):
            w = np.array(left)
            total = w.sum()
            j = _index(w / total if total > 0
                       else np.full(len(w), 1.0 / len(w)), u)
        picks.append(remaining.pop(j))
        left.pop(j)
    return picks


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(rng)))


def spawn_generator(*entropy: int) -> np.random.Generator:
    """Deterministic generator from a tuple of integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


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


def save_params(params: PolicyValueParams, path: str | Path) -> None:
    """JSON dump. Floats are written with shortest round-trip repr, so a
    load reproduces every tensor bit-exactly."""
    with open(path, "w") as fh:
        json.dump(params_to_record(params), fh)


def load_params(path: str | Path) -> PolicyValueParams:
    with open(path) as fh:
        return params_from_record(json.load(fh))


# -- flat-vector helpers (optimizer-free introspection, FD harnesses) ------

def params_to_vec(params: PolicyValueParams) -> np.ndarray:
    return np.concatenate([params.w_shared.ravel(), params.w_policy.ravel(),
                           params.w_value.ravel()])

def vec_to_params(vec: np.ndarray, like: PolicyValueParams) -> PolicyValueParams:
    a = like.w_shared.size
    b = like.w_policy.size
    return PolicyValueParams(
        w_shared=vec[:a].reshape(like.w_shared.shape).copy(),
        w_policy=vec[a:a + b].reshape(like.w_policy.shape).copy(),
        w_value=vec[a + b:].copy())

def grads_to_vec(grad: Gradients) -> np.ndarray:
    return np.concatenate([grad.w_shared.ravel(), grad.w_policy.ravel(),
                           grad.w_value.ravel()])
