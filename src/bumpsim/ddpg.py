"""From-scratch DDPG: tanh MLPs, reverse-mode gradients, Adam, replay, OU noise.

No ML framework; everything is explicit numpy so gradients can be audited
against finite differences. The actor maps a normalized observation to a
commanded velocity in [0, u_max] through a tanh squash; the critic maps
(normalized observation, normalized action) to a scalar value with a linear
output head.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict

import numpy as np

from .config import AgentConfig
from .sensors import Observation
from .vehicle import GRAVITY_NOMINAL

CHECKPOINT_VERSION = 1
ACC_NORM_SCALE = 10.0  # m/s^2 scale for the IMU deviation channel


class InsufficientData(RuntimeError):
    """Replay buffer has fewer transitions than the batch size."""


class CheckpointError(ValueError):
    """Base class for checkpoint load failures. A ValueError, so the CLI
    reports it as it reports a bad config, without importing this module."""


class FormatVersionMismatch(CheckpointError):
    """Checkpoint file carries an unsupported format version."""


class Mlp:
    """Fully connected net, tanh hidden layers, identity output head."""

    def __init__(self, sizes, rng=None):
        self.sizes = tuple(int(s) for s in sizes)
        layers = list(zip(self.sizes[:-1], self.sizes[1:]))
        # Every parameter is a view into one flat vector, weights then biases
        # (the parameters() order), so Adam and the soft update run a few
        # ufuncs per net rather than a few per array.
        self.flat = np.zeros(sum((n_in + 1) * n_out for n_in, n_out in layers))
        self._bind()
        if rng is not None:
            for i, (n_in, n_out) in enumerate(layers):
                if i == len(layers) - 1:
                    bound = 3e-3  # small final layer keeps initial outputs near zero
                else:
                    bound = 1.0 / math.sqrt(n_in)
                self.weights[i][...] = rng.uniform(-bound, bound, size=(n_in, n_out))
                self.biases[i][...] = rng.uniform(-bound, bound, size=n_out)

    def _bind(self):
        """Point weights and biases at their views of flat."""
        views = self.split(self.flat)
        n = len(self.sizes) - 1
        self.weights, self.biases = views[:n], views[n:]

    # A pickle holds flat alone: views pickle as copies of their own.
    def __getstate__(self):
        return {"sizes": self.sizes, "flat": self.flat}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind()

    def parameters(self):
        return self.weights + self.biases

    def split(self, flat: np.ndarray) -> list:
        """Views of a flat parameter-sized vector, shaped like parameters()."""
        shapes = [(n_in, n_out) for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:])]
        shapes += [(n_out,) for _, n_out in shapes]
        views, start = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[start:start + size].reshape(shape))
            start += size
        return views

    def copy(self) -> "Mlp":
        clone = Mlp(self.sizes)
        clone.flat[...] = self.flat
        return clone

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batched forward pass; x has shape (batch, sizes[0])."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass retaining per-layer activations for backward()."""
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i != last:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def backward(self, acts, grad_out: np.ndarray, param_grads=True):
        """Reverse-mode gradients of sum(grad_out * output); grad_out has the
        output's shape. Returns (grad, grad_input): grad is laid out like flat,
        or None with param_grads=False, and grad_input matches the forward batch.
        """
        n = len(self.weights)
        grad = np.empty_like(self.flat) if param_grads else None
        views = self.split(grad) if param_grads else None  # weights, biases
        g = grad_out
        for i in range(n - 1, -1, -1):
            if i != n - 1:
                g = g * (1.0 - acts[i + 1] ** 2)  # tanh'
            if param_grads:
                np.matmul(acts[i].T, g, out=views[i])
                g.sum(axis=0, out=views[n + i])
            g = g @ self.weights[i].T
        return grad, g


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam optimizer over one flat parameter vector, updated in place."""

    def __init__(self, param: np.ndarray, lr: float):
        self.param = param
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)

    def step(self, grad: np.ndarray):
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        m, v = self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        self.param -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


def replay_columns(rows):
    """(obs, action, reward, next_obs, done) views of one replay row or a
    matrix of them: the one place that names the columns of a row,
    obs (3) | action | reward | next_obs (3) | done. The first four are the
    critic's input."""
    return rows[..., :3], rows[..., 3], rows[..., 4], rows[..., 5:8], rows[..., 8]


class ReplayBuffer:
    """Fixed-capacity ring of transition rows with uniform sampling."""

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.rows = np.zeros((self.capacity, 9))
        self.size = 0
        self.cursor = 0

    def push(self, obs, action, r, next_obs, done):
        for column, value in zip(replay_columns(self.rows[self.cursor]),
                                 (obs, action, r, next_obs, done)):
            column[...] = value
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """batch_size rows drawn uniformly with replacement, as one matrix."""
        if self.size < batch_size:
            raise InsufficientData(
                f"buffer holds {self.size} < batch size {batch_size}"
            )
        return self.rows[rng.integers(0, self.size, size=batch_size)]


class OUNoise:
    """Mean-reverting exploration noise with multiplicative variance decay."""

    def __init__(self, variance, decay, floor, mean_reversion):
        self.variance = variance
        self.decay = decay
        self.floor = floor
        self.mean_reversion = mean_reversion
        self.value = 0.0

    def reset(self):
        self.value = 0.0

    def sample(self, rng: np.random.Generator) -> float:
        self.value += (
            self.mean_reversion * (0.0 - self.value)
            + math.sqrt(self.variance) * rng.standard_normal()
        )
        self.variance = max(self.floor, self.variance * (1.0 - self.decay))
        return self.value


def _write_json(f, v):
    """Write the bytes that json.dump would write for v with every ndarray
    in it as its .tolist(), one matrix row at a time.

    json.dump goes through the pure-Python encoder: for a 64x64 agent it
    takes about twice as long. json.dumps uses the C encoder, but it holds
    the chunks of the whole document at once, which for that agent adds
    about 4 MB to peak RSS. Splitting dicts, matrices and lists of lists or
    arrays, and handing the C encoder one row at a time, keeps its speed;
    only that row is ever held as Python floats.
    """
    if isinstance(v, dict):
        f.write("{")
        for i, (k, x) in enumerate(v.items()):
            f.write((", " if i else "") + json.dumps(k) + ": ")
            _write_json(f, x)
        f.write("}")
    elif (isinstance(v, np.ndarray) and v.ndim == 2
          or isinstance(v, list) and v and isinstance(v[0], (list, np.ndarray))):
        f.write("[")
        for i, x in enumerate(v):
            if i:
                f.write(", ")
            _write_json(f, x)
        f.write("]")
    elif isinstance(v, np.ndarray):
        f.write(json.dumps(v.tolist()))
    else:
        f.write(json.dumps(v))


class DdpgAgent:
    """Actor-critic agent with target networks and a replay buffer."""

    def __init__(self, config: AgentConfig = AgentConfig(), seed=0):
        self.config = config
        ss = np.random.SeedSequence(seed)
        init_ss, sample_ss, noise_ss = ss.spawn(3)
        init_rng = np.random.default_rng(init_ss)
        self.sample_rng = np.random.default_rng(sample_ss)
        self.noise_rng = np.random.default_rng(noise_ss)
        h = config.hidden_sizes
        self.actor = Mlp((3, *h, 1), rng=init_rng)
        self.critic = Mlp((4, *h, 1), rng=init_rng)
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.actor_opt = Adam(self.actor.flat, lr=config.actor_lr)
        self.critic_opt = Adam(self.critic.flat, lr=config.critic_lr)
        self.buffer = ReplayBuffer(config.buffer_capacity)
        self.noise = OUNoise(
            variance=config.noise_variance,
            decay=config.noise_decay,
            floor=config.noise_floor,
            mean_reversion=config.noise_mean_reversion,
        )
        self.episode_count = 0

    # -- observation/action scaling -------------------------------------

    def normalize_obs(self, obs: Observation) -> np.ndarray:
        return np.array([
            obs.x_dot / self.config.u_max,
            (obs.z_ddot_meas - GRAVITY_NOMINAL) / ACC_NORM_SCALE,
            obs.p,
        ])

    # -- acting ----------------------------------------------------------

    @staticmethod
    def _squash(y: np.ndarray, u_max: float) -> np.ndarray:
        return (np.tanh(y) + 1.0) * 0.5 * u_max

    def act(self, obs: Observation) -> float:
        """Deterministic policy output in [0, u_max]."""
        x = self.normalize_obs(obs)[None, :]
        y = self.actor.forward(x)[0, 0]
        return float(self._squash(y, self.config.u_max))

    def explore(self, obs: Observation) -> float:
        """Policy output plus OU exploration noise, clamped to [0, u_max]."""
        u = self.act(obs) + self.noise.sample(self.noise_rng)
        return min(max(u, 0.0), self.config.u_max)

    # -- learning ----------------------------------------------------------

    def store(self, obs, action, r, next_obs, done):
        self.buffer.push(
            self.normalize_obs(obs), action / self.config.u_max,
            r * self.config.reward_scale,
            self.normalize_obs(next_obs), done,
        )

    def update(self):
        """One critic regression step and one actor ascent step on a batch."""
        cfg = self.config
        rows = self.buffer.sample(cfg.batch_size, self.sample_rng)
        obs, _, rew, nobs, done = replay_columns(rows)
        n = cfg.batch_size

        # Critic target: y = r + gamma * (1 - done) * Q'(s', mu'(s'))
        ny = self.target_actor.forward(nobs)
        na = self._squash(ny, 1.0)  # normalized action in [0, 1]
        nq = self.target_critic.forward(np.hstack([nobs, na]))[:, 0]
        y = rew + cfg.gamma * (1.0 - done) * nq

        q, cache = self.critic.forward_cached(rows[:, :4])  # obs | action
        td = q[:, 0] - y
        critic_loss = float(np.mean(td * td))
        grad_q = (2.0 / n) * td[:, None]
        self.critic_opt.step(self.critic.backward(cache, grad_q)[0])

        # Actor: ascend mean Q(s, mu(s)) by chaining critic input gradients
        # through the tanh squash into the actor.
        ay, acache = self.actor.forward_cached(obs)
        a = self._squash(ay, 1.0)
        q_pi, ccache = self.critic.forward_cached(np.hstack([obs, a]))
        actor_objective = float(np.mean(q_pi))
        grad_q = np.full((n, 1), 1.0 / n)
        _, grad_in = self.critic.backward(ccache, grad_q, param_grads=False)
        grad_a = grad_in[:, 3:]  # d mean Q / d action column
        grad_y = grad_a * 0.5 * (1.0 - np.tanh(ay) ** 2)
        # Negate: the optimizer minimizes, the actor maximizes Q.
        self.actor_opt.step(-self.actor.backward(acache, grad_y)[0])

        return {"critic_loss": critic_loss, "actor_objective": actor_objective}

    def soft_update(self):
        """Blend online parameters into targets: t <- tau*p + (1-tau)*t."""
        tau = self.config.tau_soft
        for src, dst in (
            (self.actor, self.target_actor),
            (self.critic, self.target_critic),
        ):
            dst.flat *= 1.0 - tau
            dst.flat += tau * src.flat

    # -- persistence -------------------------------------------------------

    def save(self, path: str):
        """Write a versioned JSON checkpoint (parameters, moments, noise, config)."""
        def net(m: Mlp):
            return {
                "sizes": list(m.sizes),
                "weights": m.weights,
                "biases": m.biases,
            }

        def opt(o: Adam, m: Mlp):
            return {
                "t": o.t,
                "m": m.split(o.m),
                "v": m.split(o.v),
            }

        doc = {
            "format_version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "actor": net(self.actor),
            "critic": net(self.critic),
            "target_actor": net(self.target_actor),
            "target_critic": net(self.target_critic),
            "actor_opt": opt(self.actor_opt, self.actor),
            "critic_opt": opt(self.critic_opt, self.critic),
            "noise": {
                "variance": self.noise.variance,
                "value": self.noise.value,
            },
            "episode_count": self.episode_count,
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            _write_json(f, doc)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "DdpgAgent":
        try:
            with open(path) as f:
                doc = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise CheckpointError(f"unreadable checkpoint {path}: {e}") from e
        if not isinstance(doc, dict):
            raise CheckpointError(
                f"checkpoint {path} must hold a JSON object, got {type(doc).__name__}"
            )
        version = doc.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise FormatVersionMismatch(
                f"checkpoint version {version!r} != supported {CHECKPOINT_VERSION}"
            )

        def fill(views, arrays):
            arrays = [np.array(a) for a in arrays]
            if [a.shape for a in arrays] != [v.shape for v in views]:
                raise ValueError("array shapes do not match the network sizes")
            for view, a in zip(views, arrays):
                # Numbers only: numpy would also read "1.5", True or null.
                if a.dtype.kind not in "iuf" or not np.isfinite(a).all():
                    raise ValueError("arrays must hold finite numbers")
                view[...] = a

        def count(x):
            if not (type(x) is int and x >= 0):
                raise ValueError(f"expected an integer >= 0, got {x!r}")
            return x

        def number(x):
            if not (type(x) in (int, float) and math.isfinite(x)):
                raise ValueError(f"expected a finite number, got {x!r}")
            return float(x)

        def load_net(m: Mlp, d):
            sizes = d["sizes"]
            if type(sizes) is not list or [count(s) for s in sizes] != list(m.sizes):
                raise ValueError(f"sizes {sizes!r} != configured {list(m.sizes)}")
            fill(m.parameters(), d["weights"] + d["biases"])

        def load_opt(o: Adam, m: Mlp, d):
            o.t = count(d["t"])
            fill(m.split(o.m), d["m"])
            fill(m.split(o.v), d["v"])
            if (o.v < 0.0).any():  # a mean of squared gradients
                raise ValueError("Adam second moments must be >= 0")

        try:
            cfg_doc = dict(doc["config"])
            cfg_doc["hidden_sizes"] = tuple(cfg_doc["hidden_sizes"])
            agent = cls(AgentConfig(**cfg_doc))
            load_net(agent.actor, doc["actor"])
            load_net(agent.critic, doc["critic"])
            load_net(agent.target_actor, doc["target_actor"])
            load_net(agent.target_critic, doc["target_critic"])
            load_opt(agent.actor_opt, agent.actor, doc["actor_opt"])
            load_opt(agent.critic_opt, agent.critic, doc["critic_opt"])
            agent.noise.variance = number(doc["noise"]["variance"])
            agent.noise.value = number(doc["noise"]["value"])
            if agent.noise.variance < 0.0:
                raise ValueError(f"noise variance {agent.noise.variance} < 0")
            agent.episode_count = count(doc["episode_count"])
        # OverflowError: an integer beyond the float range, or an infinite
        # buffer_capacity.
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise CheckpointError(f"malformed checkpoint {path}: {e!r}") from e
        return agent
