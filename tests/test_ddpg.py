import copy
import dataclasses
import functools
import json
import math
import operator
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bumpsim.ddpg import (
    Adam,
    AgentConfig,
    CheckpointError,
    DdpgAgent,
    FormatVersionMismatch,
    InsufficientData,
    Mlp,
    OUNoise,
    ReplayBuffer,
    replay_columns,
)
from bumpsim.sensors import Observation


def finite_difference_grads(net, x, gout, h=1e-5):
    """Central finite differences of sum(gout * net(x)) w.r.t. parameters."""
    def objective():
        return float(np.sum(net.forward(x) * gout))

    fd = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            hi = objective()
            p[idx] = orig - h
            lo = objective()
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * h)
        fd.append(g)
    return fd


def central_differences(flat, loss, h=1e-6):
    """Central differences of loss() in each entry of the vector flat, which
    loss reads in place."""
    fd = np.empty_like(flat)
    for i, orig in enumerate(flat.copy()):
        flat[i] = orig + h
        hi = loss()
        flat[i] = orig - h
        lo = loss()
        flat[i] = orig
        fd[i] = (hi - lo) / (2 * h)
    return fd


def assert_grads_close(analytic, numeric, rel=1e-4):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        assert np.max(np.abs(a - n) / denom) < rel


class TestMlpForward:
    def test_zero_parameters_give_zero_output(self):
        net = Mlp((3, 8, 1))
        assert net.forward(np.ones((5, 3))) == pytest.approx(np.zeros((5, 1)))

    def test_final_bias_shifts_output_linearly(self):
        net = Mlp((4, 8, 1), rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((6, 4))
        before = net.forward(x).copy()
        net.biases[-1] += 2.5
        assert net.forward(x) == pytest.approx(before + 2.5)

    def test_deterministic(self):
        net = Mlp((3, 16, 16, 1), rng=np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal((2, 3))
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_outputs_finite_for_random_draws(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            net = Mlp((4, 8, 1), rng=rng)
            x = rng.standard_normal((100, 4))
            assert np.all(np.isfinite(net.forward(x)))


class TestBackprop:
    @pytest.mark.parametrize("sizes", [(2, 5, 1), (3, 8, 8, 1), (4, 6, 3, 2)])
    def test_matches_finite_differences(self, sizes):
        rng = np.random.default_rng(hash(sizes) % 2**32)
        net = Mlp(sizes, rng=rng)
        x = rng.standard_normal((4, sizes[0]))
        gout = rng.standard_normal((4, sizes[-1]))
        _, acts = net.forward_cached(x)
        grad, _ = net.backward(acts, gout)
        assert_grads_close(net.split(grad), finite_difference_grads(net, x, gout))

    def test_zero_output_grad_gives_zero_param_grads(self):
        rng = np.random.default_rng(9)
        net = Mlp((3, 6, 1), rng=rng)
        _, acts = net.forward_cached(rng.standard_normal((4, 3)))
        grad, _ = net.backward(acts, np.zeros((4, 1)))
        for g in net.split(grad):
            assert np.all(g == 0.0)

    def test_single_linear_layer_analytic(self):
        net = Mlp((1, 1))
        net.weights[0][0, 0] = 0.7
        x = np.array([[2.0]])
        gout = np.array([[3.0]])
        _, acts = net.forward_cached(x)
        grad, gin = net.backward(acts, gout)
        gw, gb = net.split(grad)
        assert gw[0, 0] == 6.0  # input * output_grad
        assert gb[0] == 3.0
        assert gin[0, 0] == pytest.approx(0.7 * 3.0)

    def test_input_gradient_alone_has_the_same_bits(self):
        rng = np.random.default_rng(12)
        net = Mlp((4, 8, 8, 1), rng=rng)
        _, acts = net.forward_cached(rng.standard_normal((5, 4)))
        gout = rng.standard_normal((5, 1))
        grad, gin = net.backward(acts, gout)
        none, gin_only = net.backward(acts, gout, param_grads=False)
        assert grad.shape == net.flat.shape and none is None
        assert gin_only.tobytes() == gin.tobytes()


class TestActorCritic:
    def test_zero_parameter_actor_outputs_midpoint(self):
        agent = DdpgAgent(AgentConfig(), seed=0)
        for p in agent.actor.parameters():
            p[:] = 0.0
        obs = Observation(x_dot=0.5, z_ddot_meas=10.1, p=0.2)
        assert agent.act(obs) == agent.config.u_max / 2

    def test_actor_output_bounded(self):
        rng = np.random.default_rng(21)
        agent = DdpgAgent(AgentConfig(), seed=0)
        for _ in range(200):
            for p in agent.actor.parameters():
                p[:] = rng.standard_normal(p.shape) * 3
            obs = Observation(
                x_dot=rng.uniform(-5, 5), z_ddot_meas=rng.uniform(0, 20),
                p=rng.uniform(0, 1),
            )
            u = agent.act(obs)
            assert 0.0 <= u <= agent.config.u_max

    def test_zero_parameter_critic_outputs_zero(self):
        agent = DdpgAgent(AgentConfig(), seed=0)
        for p in agent.critic.parameters():
            p[:] = 0.0
        q = agent.critic.forward(np.array([[0.5, 0.1, 0.2, 0.3]]))
        assert q[0, 0] == 0.0

    def test_gradcheck_through_actor_squash(self):
        # d/dy of (tanh(y)+1)/2 * u_max must chain correctly
        agent = DdpgAgent(AgentConfig(hidden_sizes=(8,)), seed=1)
        obs = np.random.default_rng(5).standard_normal((3, 3))
        h = 1e-6

        def mean_action():
            y = agent.actor.forward(obs)
            return float(np.mean(agent._squash(y, agent.config.u_max)))

        ay, acache = agent.actor.forward_cached(obs)
        gy = (0.5 * agent.config.u_max * (1 - np.tanh(ay) ** 2)) / obs.shape[0]
        grad, _ = agent.actor.backward(acache, gy)
        gw = agent.actor.split(grad)
        w = agent.actor.weights[0]
        orig = w[0, 0]
        w[0, 0] = orig + h
        hi = mean_action()
        w[0, 0] = orig - h
        lo = mean_action()
        w[0, 0] = orig
        assert gw[0][0, 0] == pytest.approx((hi - lo) / (2 * h), rel=1e-4)


class TestSoftUpdate:
    def test_affine_identity(self):
        agent = DdpgAgent(AgentConfig(tau_soft=1e-3), seed=0)
        agent.actor.weights[0][:] = 1.0
        agent.target_actor.weights[0][:] = 0.0
        agent.soft_update()
        expected = 1e-3 * 1.0 + (1 - 1e-3) * 0.0
        assert np.all(agent.target_actor.weights[0] == expected)

    def test_equal_parameters_are_fixed_point(self):
        agent = DdpgAgent(AgentConfig(), seed=3)
        for p, t in zip(agent.actor.parameters(), agent.target_actor.parameters()):
            t[:] = p
        for p, t in zip(agent.critic.parameters(), agent.target_critic.parameters()):
            t[:] = p
        agent.soft_update()
        tau = agent.config.tau_soft
        for p, t in zip(agent.actor.parameters(), agent.target_actor.parameters()):
            assert np.array_equal(t, p * (1.0 - tau) + tau * p)

    def test_affine_combination_matches_elementwise_formula(self):
        agent = DdpgAgent(AgentConfig(tau_soft=0.25), seed=7)
        online = [p.copy() for p in agent.critic.parameters()]
        target = [t.copy() for t in agent.target_critic.parameters()]
        agent.soft_update()
        for p, t0, t1 in zip(online, target, agent.target_critic.parameters()):
            assert np.array_equal(t1, t0 * 0.75 + 0.25 * p)

    def test_tau_one_is_hard_copy(self):
        agent = DdpgAgent(AgentConfig(tau_soft=1.0), seed=4)
        agent.actor.weights[0][:] = 7.0
        agent.soft_update()
        assert np.all(agent.target_actor.weights[0] == 7.0)


class TestReplayBuffer:
    def test_fifo_eviction_keeps_last_capacity_items(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(25):
            buf.push([float(i)] * 3, 0.0, float(i), [0.0] * 3, False)
        assert buf.size == 10
        kept = sorted(replay_columns(buf.rows)[2].tolist())
        assert kept == [float(i) for i in range(15, 25)]

    def test_sampling_is_uniform(self):
        capacity = 20
        buf = ReplayBuffer(capacity=capacity)
        for i in range(capacity):
            buf.push([0.0] * 3, 0.0, float(i), [0.0] * 3, False)
        rng = np.random.default_rng(8)
        draws = 100_000
        counts = np.zeros(capacity)
        for _ in range(draws // capacity):
            _, _, rewards, _, _ = replay_columns(buf.sample(capacity, rng))
            for r in rewards:
                counts[int(r)] += 1
        expected = draws / capacity
        sigma = math.sqrt(draws * (1 / capacity) * (1 - 1 / capacity))
        assert np.all(np.abs(counts - expected) < 5 * sigma)

    def test_sample_smaller_than_batch_raises(self):
        buf = ReplayBuffer(capacity=10)
        buf.push([0, 0, 0], 0.0, 0.0, [0, 0, 0], False)
        with pytest.raises(InsufficientData):
            buf.sample(2, np.random.default_rng(0))


class TestNoise:
    def test_variance_decay_closed_form(self):
        noise = OUNoise(variance=0.8, decay=1e-4, floor=0.01, mean_reversion=0.15)
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            noise.sample(rng)
        assert noise.variance == pytest.approx(0.8 * (1 - 1e-4) ** 10_000, rel=1e-12)
        assert noise.variance == pytest.approx(0.8 * math.exp(-1), rel=1e-3)

    def test_variance_floor_holds(self):
        noise = OUNoise(variance=0.02, decay=0.5, floor=0.01, mean_reversion=0.15)
        rng = np.random.default_rng(0)
        history = []
        for _ in range(50):
            noise.sample(rng)
            history.append(noise.variance)
        assert min(history) >= 0.01
        assert history == sorted(history, reverse=True)  # never increases

    def test_zero_variance_sample_reverts_toward_zero(self):
        noise = OUNoise(variance=0.0, decay=0.0, floor=0.0, mean_reversion=0.15)
        noise.value = 1.0
        assert noise.sample(np.random.default_rng(0)) == 1.0 - 0.15
        assert noise.value == 1.0 - 0.15

    def test_zero_variance_explore_equals_act(self):
        agent = DdpgAgent(AgentConfig(), seed=2)
        agent.noise.variance = 0.0
        agent.noise.floor = 0.0
        agent.noise.value = 0.0
        agent.noise.mean_reversion = 0.15
        obs = Observation(x_dot=0.7, z_ddot_meas=9.9, p=0.05)
        assert agent.explore(obs) == agent.act(obs)

    def test_explore_stays_in_action_bounds(self):
        agent = DdpgAgent(AgentConfig(noise_variance=5.0), seed=6)
        obs = Observation(x_dot=1.0, z_ddot_meas=9.8, p=0.0)
        for _ in range(1000):
            u = agent.explore(obs)
            assert 0.0 <= u <= agent.config.u_max


def filled_agent(seed=0, n=200, **config):
    agent = DdpgAgent(AgentConfig(batch_size=16, warmup_steps=0, **config),
                      seed=seed)
    rng = np.random.default_rng(seed + 100)
    for _ in range(n):
        o = Observation(rng.uniform(0, 2), rng.uniform(9, 11), rng.uniform(0, 1))
        o2 = Observation(rng.uniform(0, 2), rng.uniform(9, 11), rng.uniform(0, 1))
        agent.store(o, rng.uniform(0, 2), rng.uniform(-10, 0), o2,
                    rng.uniform() < 0.05)
    return agent


class TestUpdate:
    def test_terminal_transitions_use_reward_as_target(self):
        agent = DdpgAgent(AgentConfig(batch_size=1), seed=0)
        obs = Observation(1.0, 9.8, 0.0)
        agent.store(obs, 1.0, -1.0, obs, True)
        # with done = 1 the bootstrap term vanishes: y = the stored reward
        # (rewards enter the buffer pre-multiplied by reward_scale)
        o, a, r, no, d = replay_columns(
            agent.buffer.sample(1, np.random.default_rng(0)))
        ny = agent.target_actor.forward(no)
        na = agent._squash(ny, 1.0)
        nq = agent.target_critic.forward(np.hstack([no, na]))[:, 0]
        y = r + agent.config.gamma * (1.0 - d) * nq
        assert y[0] == -1.0 * agent.config.reward_scale
        assert r[0] == -1.0 * agent.config.reward_scale

    def test_critic_step_matches_finite_differences_of_the_td_loss(self, monkeypatch):
        # The gradient that update hands the critic's Adam step is that of
        # mean((Q(s, a) - y)^2), y = r + gamma (1 - done) Q'(s', mu'(s')),
        # over the rows the same sample_rng state draws. The target nets are
        # set away from the online ones and the batch mixes terminal and
        # non-terminal rows, so a target built from an online net, without
        # gamma or without done shows, as does a misread column.
        gamma = 0.7
        agent = DdpgAgent(AgentConfig(hidden_sizes=(3, 2), batch_size=8,
                                      gamma=gamma), seed=0)
        rng = np.random.default_rng(3)
        for net in (agent.critic, agent.target_actor, agent.target_critic):
            net.flat[...] = rng.uniform(-1.0, 1.0, net.flat.size)
        for k in range(12):
            agent.buffer.push(rng.uniform(-1.0, 1.0, 3), rng.uniform(),
                              rng.uniform(-1.0, 0.0), rng.uniform(-1.0, 1.0, 3),
                              k % 3 == 0)
        rows = agent.buffer.sample(8, copy.deepcopy(agent.sample_rng))
        # A row is obs (3) | action | reward | next_obs (3) | done.
        sa, r, s2, done = rows[:, :4].copy(), rows[:, 4], rows[:, 5:8], rows[:, 8]
        assert 0.0 < done.sum() < len(done)
        a2 = (np.tanh(agent.target_actor.forward(s2)) + 1.0) / 2.0
        q2 = agent.target_critic.forward(np.hstack([s2, a2]))[:, 0]
        y = r + gamma * (1.0 - done) * q2

        def loss():
            return np.mean((agent.critic.forward(sa)[:, 0] - y) ** 2)

        fd = central_differences(agent.critic.flat, loss)
        grads = []
        monkeypatch.setattr(agent.critic_opt, "step", grads.append)
        agent.update()
        np.testing.assert_allclose(grads[0], fd, rtol=1e-6, atol=1e-9)

    def test_actor_step_matches_finite_differences_of_minus_q(self, monkeypatch):
        # After the critic step, the gradient that update hands the actor's
        # Adam step is that of -mean Q(s, mu(s)) under the stepped critic,
        # over the same sampled rows, with mu(s) = (tanh(actor(s)) + 1) / 2.
        # Random nets keep tanh' away from 1, so a chain without it shows,
        # as does a step that ascends -Q.
        agent = DdpgAgent(AgentConfig(hidden_sizes=(3, 2), batch_size=8), seed=0)
        rng = np.random.default_rng(4)
        for net in (agent.actor, agent.critic, agent.target_actor,
                    agent.target_critic):
            net.flat[...] = rng.uniform(-1.0, 1.0, net.flat.size)
        for k in range(12):
            agent.buffer.push(rng.uniform(-1.0, 1.0, 3), rng.uniform(),
                              rng.uniform(-1.0, 0.0), rng.uniform(-1.0, 1.0, 3),
                              k % 3 == 0)
        s = agent.buffer.sample(8, copy.deepcopy(agent.sample_rng))[:, :3].copy()
        grads = []
        monkeypatch.setattr(agent.actor_opt, "step", grads.append)
        critic_before = agent.critic.flat.copy()
        agent.update()
        assert not np.array_equal(agent.critic.flat, critic_before)
        y = agent.actor.forward(s)
        assert np.all(np.abs(np.tanh(y)) > 0.05)

        def loss():
            a = (np.tanh(agent.actor.forward(s)) + 1.0) / 2.0
            return -np.mean(agent.critic.forward(np.hstack([s, a])))

        fd = central_differences(agent.actor.flat, loss)
        np.testing.assert_allclose(grads[0], fd, rtol=1e-6, atol=1e-9)

    def test_update_returns_losses_and_changes_parameters(self):
        agent = filled_agent()
        before = [p.copy() for p in agent.actor.parameters()]
        out = agent.update()
        assert set(out) == {"critic_loss", "actor_objective"}
        assert math.isfinite(out["critic_loss"])
        changed = any(
            not np.array_equal(b, p)
            for b, p in zip(before, agent.actor.parameters())
        )
        assert changed

    def test_update_without_data_raises(self):
        agent = DdpgAgent(AgentConfig(batch_size=64), seed=0)
        with pytest.raises(InsufficientData):
            agent.update()

    def test_critic_regresses_toward_fixed_target(self):
        # repeated updates on a single repeated transition shrink the MSE
        agent = DdpgAgent(
            AgentConfig(batch_size=8, critic_lr=1e-2), seed=5
        )
        obs = Observation(1.0, 9.8, 0.0)
        for _ in range(8):
            agent.store(obs, 1.0, -1.0, obs, True)
        losses = [agent.update()["critic_loss"] for _ in range(200)]
        assert losses[-1] < losses[10]
        assert losses[-1] < 0.05


def write_checkpoint(path, where=(), value=None):
    """Save a small valid checkpoint at path, with the field at key path
    where, if one is given, set to value; returns the document."""
    DdpgAgent(AgentConfig(hidden_sizes=(2,), batch_size=4, buffer_capacity=8),
              seed=0).save(str(path))
    doc = json.loads(Path(path).read_text())
    if where:
        *parents, last = where
        functools.reduce(operator.getitem, parents, doc)[last] = value
        Path(path).write_text(json.dumps(doc))
    return doc


def key_paths(node, prefix=()):
    """The key path of every value inside a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


class TestCheckpoint:
    def test_round_trip_preserves_behavior_and_state(self, tmp_path):
        agent = filled_agent(seed=9)
        for _ in range(5):
            agent.update()
            agent.soft_update()
        agent.episode_count = 42
        path = str(tmp_path / "ckpt.json")
        agent.save(path)
        loaded = DdpgAgent.load(path)
        rng = np.random.default_rng(0)
        for _ in range(100):
            obs = Observation(rng.uniform(0, 2), rng.uniform(9, 11),
                              rng.uniform(0, 1))
            assert loaded.act(obs) == agent.act(obs)
        assert loaded.episode_count == 42
        assert loaded.noise.variance == agent.noise.variance
        assert np.array_equal(agent.critic_opt.m, loaded.critic_opt.m)
        assert loaded.actor_opt.t == agent.actor_opt.t

    def test_resumed_updates_match_uninterrupted(self, tmp_path):
        # load writes into the flat vectors that Adam and soft_update act on,
        # so a loaded agent learns exactly as the saved one goes on to.
        agent = filled_agent(seed=9)
        for _ in range(5):
            agent.update()
            agent.soft_update()
        path = str(tmp_path / "ckpt.json")
        agent.save(path)
        loaded = DdpgAgent.load(path)
        loaded.buffer = copy.deepcopy(agent.buffer)
        loaded.sample_rng.bit_generator.state = agent.sample_rng.bit_generator.state
        for a in (agent, loaded):
            for _ in range(5):
                a.update()
                a.soft_update()
        for name in ("actor", "critic", "target_actor", "target_critic"):
            assert np.array_equal(getattr(loaded, name).flat,
                                  getattr(agent, name).flat)
        for name in ("actor_opt", "critic_opt"):
            for a, b in zip(getattr(agent, name).m + getattr(agent, name).v,
                            getattr(loaded, name).m + getattr(loaded, name).v):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("key", ["actor", "target_critic"])
    def test_rejects_arrays_of_the_wrong_shape(self, tmp_path, key):
        agent = DdpgAgent(AgentConfig(hidden_sizes=(4, 4)), seed=0)
        path = str(tmp_path / "ckpt.json")
        agent.save(path)
        doc = json.loads(Path(path).read_text())
        doc[key]["weights"][0] = [[1.0]]
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(CheckpointError):
            DdpgAgent.load(path)

    def test_checkpoint_is_one_json_encoding(self, tmp_path):
        # save writes dict values one at a time; the file must still be
        # exactly what json.dump writes for the whole document.
        agent = DdpgAgent(AgentConfig(hidden_sizes=(4, 4)), seed=0)
        path = str(tmp_path / "ckpt.json")
        agent.save(path)
        text = Path(path).read_text()
        assert json.dumps(json.loads(text)) == text

    def test_checkpoint_is_json_dumps_of_the_tolist_document(self, tmp_path):
        # save hands _write_json the arrays themselves; a width-1 hidden
        # layer makes (n, 1) and (1, 1) matrices and (1,) vectors.
        agent = filled_agent(seed=4, hidden_sizes=(1,))
        agent.update()

        def net(m):
            return {"sizes": list(m.sizes),
                    "weights": [w.tolist() for w in m.weights],
                    "biases": [b.tolist() for b in m.biases]}

        def opt(o, m):
            return {"t": o.t, "m": [a.tolist() for a in m.split(o.m)],
                    "v": [a.tolist() for a in m.split(o.v)]}

        expected = {
            "format_version": 1,
            "config": dataclasses.asdict(agent.config),
            "actor": net(agent.actor), "critic": net(agent.critic),
            "target_actor": net(agent.target_actor),
            "target_critic": net(agent.target_critic),
            "actor_opt": opt(agent.actor_opt, agent.actor),
            "critic_opt": opt(agent.critic_opt, agent.critic),
            "noise": {"variance": agent.noise.variance,
                      "value": agent.noise.value},
            "episode_count": agent.episode_count,
        }
        path = tmp_path / "ckpt.json"
        agent.save(str(path))
        assert path.read_text() == json.dumps(expected)

    def test_rejects_other_format_version(self, tmp_path):
        agent = DdpgAgent(AgentConfig(), seed=0)
        path = str(tmp_path / "ckpt.json")
        agent.save(path)
        doc = json.loads(Path(path).read_text())
        doc["format_version"] = 99
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(FormatVersionMismatch):
            DdpgAgent.load(path)

    def test_rejects_truncated_file(self, tmp_path):
        agent = DdpgAgent(AgentConfig(), seed=0)
        path = str(tmp_path / "ckpt.json")
        agent.save(path)
        blob = Path(path).read_text()
        with open(path, "w") as f:
            f.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            DdpgAgent.load(path)

    @pytest.mark.parametrize("where, value", [
        (("actor", "weights", 0, 0, 0), math.nan),
        (("target_critic", "biases", 0, 0), math.inf),
        (("actor", "weights", 0, 0, 0), "0.5"),
        (("critic", "biases", 1, 0), True),
        (("critic_opt", "m", 0, 0, 0), math.nan),
        (("actor_opt", "v", 0, 0, 0), -1.0),
        (("actor_opt", "t"), "x"),
        (("actor_opt", "t"), -1),
        (("actor_opt", "t"), True),
        (("critic_opt", "t"), 1.5),
        (("noise", "variance"), "v"),
        (("noise", "variance"), -0.5),
        (("noise", "value"), math.nan),
        (("actor", "sizes"), [3, 5, 1]),
        (("critic", "sizes", 1), 2.0),
        (("episode_count",), -5),
        (("episode_count",), True),
        (("config", "noise_variance"), -1.0),
        (("config", "buffer_capacity"), math.inf),
        (("config", "u_max"), "x"),
        (("config", "reward_scale"), "x"),
        (("config", "reward_scale"), 0.0),
        (("config", "noise_mean_reversion"), math.nan),
        (("config", "noise_mean_reversion"), 1.5),
    ], ids=lambda x: ".".join(map(str, x)) if isinstance(x, tuple) else repr(x))
    def test_rejects_bad_values(self, tmp_path, where, value):
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, where, value)
        with pytest.raises(CheckpointError):
            DdpgAgent.load(str(path))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_field_changed_loads_clean_or_raises(self, tmp_path, data):
        path = tmp_path / "ckpt.json"
        paths = list(key_paths(write_checkpoint(path)))
        # Small integers and floats: a layer width or buffer capacity is
        # allocated before the arrays are compared with it.
        value = data.draw(st.one_of(
            st.none(), st.booleans(), st.integers(-3, 1000),
            st.floats(-1e3, 1e3),
            st.sampled_from([math.nan, math.inf, -math.inf, 10**400, "x", "1.5",
                             [], {}, [1.0]]),
        ))
        write_checkpoint(path, data.draw(st.sampled_from(paths)), value)
        try:
            agent = DdpgAgent.load(str(path))
        except CheckpointError:
            return
        for net in (agent.actor, agent.critic, agent.target_actor,
                    agent.target_critic):
            assert np.isfinite(net.flat).all()
        for opt in (agent.actor_opt, agent.critic_opt):
            assert np.isfinite(opt.m).all() and (opt.v >= 0.0).all()
            assert type(opt.t) is int and opt.t >= 0
        assert type(agent.noise.variance) is float and agent.noise.variance >= 0.0
        assert type(agent.noise.value) is float and math.isfinite(agent.noise.value)
        assert type(agent.episode_count) is int and agent.episode_count >= 0


class TestPickle:
    def test_unpickled_agent_trains_bit_identically(self):
        agent = filled_agent(seed=3)
        clone = pickle.loads(pickle.dumps(agent))
        assert clone.actor_opt.param is clone.actor.flat
        for net in (clone.actor, clone.critic, clone.target_actor,
                    clone.target_critic):
            assert all(np.shares_memory(p, net.flat) for p in net.parameters())
        for a in (agent, clone):
            for _ in range(50):
                a.update()
                a.soft_update()
        for name in ("actor", "critic", "target_actor", "target_critic"):
            assert np.array_equal(getattr(clone, name).flat,
                                  getattr(agent, name).flat)
        rng = np.random.default_rng(0)
        for _ in range(20):
            obs = Observation(rng.uniform(0, 2), rng.uniform(9, 11),
                              rng.uniform(0, 1))
            assert clone.act(obs) == agent.act(obs)


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        p = np.array([1.0])
        opt = Adam(p, lr=0.1)
        g = np.array([0.5])
        opt.step(g)
        # bias-corrected first step moves by ~lr against the gradient sign
        m_hat, v_hat = 0.5, 0.25
        expected = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert p[0] == pytest.approx(expected)


class TestConfigValidation:
    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            AgentConfig(gamma=0.0)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            AgentConfig(tau_soft=2.0)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            AgentConfig(actor_lr=-1.0)

    @pytest.mark.parametrize("batch_size, buffer_capacity", [(0, 10), (64, 63)])
    def test_rejects_batch_outside_buffer(self, batch_size, buffer_capacity):
        with pytest.raises(ValueError):
            AgentConfig(batch_size=batch_size, buffer_capacity=buffer_capacity)

    @pytest.mark.parametrize("hidden_sizes", [(0,), (8, -1)])
    def test_rejects_layer_width_below_one(self, hidden_sizes):
        with pytest.raises(ValueError, match="hidden_sizes"):
            AgentConfig(hidden_sizes=hidden_sizes)

    @pytest.mark.parametrize("key, value", [
        ("noise_variance", -1.0), ("noise_variance", math.nan),
        ("noise_floor", -0.01), ("noise_decay", -1e-4), ("noise_decay", 1.5),
        ("noise_mean_reversion", -0.01), ("noise_mean_reversion", 1.5),
        ("noise_mean_reversion", math.nan),
    ])
    def test_rejects_out_of_range_noise(self, key, value):
        with pytest.raises(ValueError, match=f"agent.{key}"):
            AgentConfig(**{key: value})

    @pytest.mark.parametrize("value", [0.0, -0.01, math.inf, math.nan])
    def test_rejects_reward_scale_outside_positive_finite(self, value):
        with pytest.raises(ValueError, match="agent.reward_scale"):
            AgentConfig(reward_scale=value)

    def test_noise_bounds_are_inclusive(self):
        AgentConfig(noise_variance=0.0, noise_floor=0.0, noise_decay=0.0)
        AgentConfig(noise_decay=1.0)

    def test_mean_reversion_and_reward_scale_edges(self):
        AgentConfig(noise_mean_reversion=0.0)
        AgentConfig(noise_mean_reversion=1.0)
        AgentConfig(reward_scale=5e-324)  # the least positive double
        AgentConfig(reward_scale=1.7976931348623157e308)
