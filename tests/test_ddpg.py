import copy
import json
import math

import numpy as np
import pytest

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
        gw, gb, _ = net.backward(acts, gout)
        assert_grads_close(gw + gb, finite_difference_grads(net, x, gout))

    def test_zero_output_grad_gives_zero_param_grads(self):
        rng = np.random.default_rng(9)
        net = Mlp((3, 6, 1), rng=rng)
        _, acts = net.forward_cached(rng.standard_normal((4, 3)))
        gw, gb, _ = net.backward(acts, np.zeros((4, 1)))
        for g in gw + gb:
            assert np.all(g == 0.0)

    def test_single_linear_layer_analytic(self):
        net = Mlp((1, 1))
        net.weights[0][0, 0] = 0.7
        x = np.array([[2.0]])
        gout = np.array([[3.0]])
        _, acts = net.forward_cached(x)
        gw, gb, gin = net.backward(acts, gout)
        assert gw[0][0, 0] == 6.0  # input * output_grad
        assert gb[0][0] == 3.0
        assert gin[0, 0] == pytest.approx(0.7 * 3.0)


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
        gw, gb, _ = agent.actor.backward(acache, gy)
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
        buf = ReplayBuffer(capacity=10, obs_dim=1)
        for i in range(25):
            buf.push([float(i)], 0.0, float(i), [0.0], False)
        assert buf.size == 10
        kept = sorted(buf.rewards.tolist())
        assert kept == [float(i) for i in range(15, 25)]

    def test_sampling_is_uniform(self):
        capacity = 20
        buf = ReplayBuffer(capacity=capacity, obs_dim=1)
        for i in range(capacity):
            buf.push([0.0], 0.0, float(i), [0.0], False)
        rng = np.random.default_rng(8)
        draws = 100_000
        counts = np.zeros(capacity)
        for _ in range(draws // capacity):
            _, _, rewards, _, _ = buf.sample(capacity, rng)
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
        noise = OUNoise(variance=0.8, decay=1e-4, floor=0.01)
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            noise.sample(rng)
        assert noise.variance == pytest.approx(0.8 * (1 - 1e-4) ** 10_000, rel=1e-12)
        assert noise.variance == pytest.approx(0.8 * math.exp(-1), rel=1e-3)

    def test_variance_floor_holds(self):
        noise = OUNoise(variance=0.02, decay=0.5, floor=0.01)
        rng = np.random.default_rng(0)
        history = []
        for _ in range(50):
            noise.sample(rng)
            history.append(noise.variance)
        assert min(history) >= 0.01
        assert history == sorted(history, reverse=True)  # never increases

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


def filled_agent(seed=0, n=200):
    agent = DdpgAgent(AgentConfig(batch_size=16, warmup_steps=0), seed=seed)
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
        o, a, r, no, d = agent.buffer.sample(1, np.random.default_rng(0))
        ny = agent.target_actor.forward(no)
        na = agent._squash(ny, 1.0)
        nq = agent.target_critic.forward(np.hstack([no, na]))[:, 0]
        y = r + agent.config.gamma * (1.0 - d) * nq
        assert y[0] == -1.0 * agent.config.reward_scale
        assert r[0] == -1.0 * agent.config.reward_scale

    def test_bootstrap_target_arithmetic(self):
        # y = r + gamma * Q' for non-terminal: -1 + 0.99 * -2 = -2.98
        assert -1.0 + 0.99 * (1.0 - 0.0) * -2.0 == pytest.approx(-2.98)

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
        for a, b in zip(agent.critic_opt.m, loaded.critic_opt.m):
            assert np.array_equal(a, b)
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
        doc = json.loads(open(path).read())
        doc[key]["weights"][0] = [[1.0]]
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(CheckpointError):
            DdpgAgent.load(path)

    def test_rejects_other_format_version(self, tmp_path):
        agent = DdpgAgent(AgentConfig(), seed=0)
        path = str(tmp_path / "ckpt.json")
        agent.save(path)
        doc = json.loads(open(path).read())
        doc["format_version"] = 99
        with open(path, "w") as f:
            json.dump(doc, f)
        with pytest.raises(FormatVersionMismatch):
            DdpgAgent.load(path)

    def test_rejects_truncated_file(self, tmp_path):
        agent = DdpgAgent(AgentConfig(), seed=0)
        path = str(tmp_path / "ckpt.json")
        agent.save(path)
        blob = open(path).read()
        with open(path, "w") as f:
            f.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            DdpgAgent.load(path)


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        p = np.array([1.0])
        opt = Adam([p], lr=0.1)
        g = np.array([0.5])
        opt.step([g])
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
