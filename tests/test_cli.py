"""Command-line interface tests, driven through main() in-process."""

import json
import math
import socket
import threading

import pytest

from bumpsim.cli import MAX_SWEEP_SPEEDS, main
from bumpsim.config import DEFAULTS
from bumpsim.protocol import PROTOCOL_VERSION


@pytest.fixture
def tiny_config(tmp_path):
    """A config small enough that train/compare finish in seconds."""
    doc = {
        "agent": {"batch_size": 16, "buffer_capacity": 2000,
                  "warmup_steps": 20, "hidden_sizes": [8, 8]},
        "episode": {"max_steps": 50},
        "train": {"episodes": 2, "seed": 0, "checkpoint_interval": 1},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestArgHandling:
    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = main(["train", "--config", "/no/such/file.json",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "/no/such/file.json" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"agent": {"learning_rate": 1.0}}))
        rc = main(["train", "--config", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_eval_requires_exactly_one_policy_source(self, tiny_config,
                                                     tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["eval", "--config", tiny_config, "--out", out]) == 1
        assert main(["eval", "--config", tiny_config, "--out", out,
                     "--checkpoint", "x.json",
                     "--constant-velocity", "1.0"]) == 1

    @pytest.mark.parametrize("doc, where", [
        ({"vehicle": {"m": "1.0"}}, "vehicle.m"),
        ({"train": {"episodes": "3"}}, "train.episodes"),
        ({"train": {"episodes": 3.0}}, "train.episodes"),
        ({"reward": {"w2": True}}, "reward.w2"),
        ({"agent": {"hidden_sizes": 64}}, "agent.hidden_sizes"),
        ({"terrain": {"sigma_range": 5}}, "terrain.sigma_range"),
        ({"terrain": {"sigma_range": [0.03, 0.05, 0.08]}}, "terrain.sigma_range"),
        ({"terrain": {"fixed_bumps": [{"H": 0.01}]}}, "terrain.fixed_bumps"),
        ({"terrain": {"fixed_bumps": [{"H": 0.01, "mu": 5.0, "sigma": 0.05,
                                       "x": 1.0}]}}, "terrain.fixed_bumps"),
        # The first update would raise InsufficientData mid-run.
        ({"agent": {"warmup_steps": 10}}, "agent.warmup_steps"),
        # Tracks that only the first reset would find impossible to build.
        ({"terrain": {"n_bumps": 20}}, "terrain.n_bumps"),
        ({"terrain": {"n_bumps": -1}}, "terrain.n_bumps"),
        ({"terrain": {"bump_height": -0.01}}, "terrain.bump_height"),
        ({"agent": {"hidden_sizes": [0]}}, "agent.hidden_sizes"),
        # Integers that float() cannot convert, in every kind of float key.
        ({"vehicle": {"m": 10**400}}, "vehicle.m"),
        ({"episode": {"dt": 10**400}}, "episode.dt"),
        ({"reward": {"w2": -10**400}}, "reward.w2"),
        ({"terrain": {"bump_height": 10**400}}, "terrain.bump_height"),
        ({"terrain": {"sigma_range": [0.03, 10**400]}}, "terrain.sigma_range"),
        ({"terrain": {"fixed_bumps": [{"H": 0.01, "mu": 5.0,
                                       "sigma": 10**400}]}}, "terrain.fixed_bumps"),
        # An integer key takes only integers with a float value, too.
        ({"terrain": {"n_bumps": 10**400}}, "terrain.n_bumps"),
        # Used to train a whole episode, then divide by zero.
        ({"train": {"checkpoint_interval": 0}}, "train.checkpoint_interval"),
        # Used to ask numpy for one reset seed per episode, up front.
        ({"train": {"episodes": 10**15}}, "train.episodes"),
        ({"train": {"episodes": 10**400}}, "train.episodes"),
        # Python's json reads NaN and Infinity; a float key takes neither.
        ({"agent": {"noise_variance": math.nan}}, "agent.noise_variance"),
        ({"reward": {"x_dot_d": math.nan}, "train": {"episodes": 1},
          "episode": {"max_steps": 10}}, "reward.x_dot_d"),
        ({"terrain": {"sigma_range": [0.03, math.inf]}}, "terrain.sigma_range"),
        ({"terrain": {"fixed_bumps": [{"H": -math.inf, "mu": 5.0,
                                       "sigma": 0.05}]}}, "terrain.fixed_bumps"),
    ])
    def test_bad_config_exits_1_before_any_output(self, tmp_path, capsys,
                                                  doc, where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        # Each asks numpy for more than the address space: nothing is
        # allocated, and numpy raises a MemoryError at once.
        {"agent": {"buffer_capacity": 10**15}},
        {"agent": {"hidden_sizes": [10**15]}},
    ])
    def test_out_of_memory_exits_1(self, tmp_path, capsys, doc):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bumpsim train: ") and err.count("\n") == 1

    def test_deeply_nested_config_exits_1_before_any_output(self, tmp_path,
                                                             capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"train": ' + "[" * 5000 + "]" * 5000 + "}")
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "deep.json" in err and "Traceback" not in err
        assert not out.exists()

    def test_resolved_config_bytes_for_empty_document(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        out = tmp_path / "out"
        assert main(["eval", "--config", str(path), "--constant-velocity",
                     "2.0", "--out", str(out)]) == 0
        expected = {
            "vehicle": {
                "m": 1.391, "inertia": 0.001897, "k1": 19.6, "k2": 19.6,
                "c1": 77.6, "c2": 77.6, "L1": 0.128, "L2": 0.128,
                "tau": 0.3, "u_max": 2.0,
            },
            "terrain": {
                "track_length": 10.0, "n_bumps": 3, "sigma_range": [0.03, 0.08],
                "min_spacing": 1.0, "placement_range": [2.0, 9.0],
                "bump_height": 0.008, "fixed_bumps": None,
            },
            "camera": {"lookahead_max": 2.0, "lookahead_min": 0.2, "gain": 0.3},
            "reward": {
                "variant": "function_weighted", "w2": 75.0, "x_dot_d": 1.0,
                "threshold": 0.05, "slope": 100.0, "heavy_weight": 100.0,
            },
            "agent": {
                "actor_lr": 1e-4, "critic_lr": 1e-3, "gamma": 0.99,
                "batch_size": 64, "tau_soft": 1e-3, "buffer_capacity": 100000,
                "warmup_steps": 1000, "hidden_sizes": [64, 64],
                "noise_variance": 0.8, "noise_decay": 1e-4, "noise_floor": 0.01,
                "noise_mean_reversion": 0.15, "reward_scale": 0.01,
            },
            "episode": {"dt": 1.0 / 120.0, "max_steps": 3600,
                        "initial_x_dot": 0.0},
            "train": {"episodes": 500, "seed": 0, "checkpoint_interval": 100},
        }
        assert (out / "resolved_config.json").read_text() == \
            json.dumps(expected, indent=2) + "\n"

    def test_sweep_rejects_nonpositive_step(self, tiny_config, tmp_path,
                                            capsys):
        rc = main(["sweep", "--config", tiny_config, "--step", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "--step" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--max", "inf"], "--max"),
        (["--min", "nan"], "--min"),
        (["--min", "0"], "--min"),
        (["--min", "-1"], "--min"),
        # One speed over the cap; the cap is checked before the list is built.
        (["--min", "1", "--max", str(MAX_SWEEP_SPEEDS + 1), "--step", "1"],
         "--step"),
        (["--min", "1e-300", "--max", "1e300", "--step", "1e-300"], "--step"),
    ])
    def test_sweep_rejects_bad_flags_before_any_output(self, tmp_path, capsys,
                                                       flags, named):
        # Each run over a 1 mm flat track would end after one step.
        path = tmp_path / "short.json"
        path.write_text(json.dumps(
            {"terrain": {"track_length": 0.001, "fixed_bumps": []}}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), *flags,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bumpsim sweep: ") and named in err
        assert not out.exists()

    def test_serve_rejects_out_of_range_port(self, tiny_config, capsys):
        assert main(["serve", "--config", tiny_config,
                     "--addr", "127.0.0.1:99999"]) == 1
        assert "99999" in capsys.readouterr().err

    def test_eval_rejects_zero_episodes(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["eval", "--config", tiny_config, "--constant-velocity",
                     "1.0", "--episodes", "0", "--out", str(out)]) == 1
        assert "--episodes" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_rejects_nan_constant_velocity(self, tiny_config, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        assert main(["eval", "--config", tiny_config, "--constant-velocity",
                     "nan", "--out", str(out)]) == 1
        assert "--constant-velocity" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_creates_checkpoint_metrics_and_echo(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", tiny_config,
                     "--out", str(out)]) == 0
        assert (out / "checkpoint.json").exists()
        assert (out / "train_metrics.csv").exists()
        echoed = json.loads((out / "resolved_config.json").read_text())
        assert set(echoed) == set(DEFAULTS)
        assert echoed["agent"]["batch_size"] == 16
        assert echoed["vehicle"] == DEFAULTS["vehicle"]

    def test_episodes_override_echoed_and_applied(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", tiny_config, "--episodes", "3",
                     "--seed", "5", "--out", str(out)]) == 0
        echoed = json.loads((out / "resolved_config.json").read_text())
        assert echoed["train"]["episodes"] == 3
        assert echoed["train"]["seed"] == 5
        lines = (out / "train_metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_repeated_runs_byte_identical(self, tiny_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", tiny_config, "--seed", "9",
                         "--out", str(out)]) == 0
            outs.append((out / "train_metrics.csv").read_bytes())
        assert outs[0] == outs[1]


class TestEvalCommand:
    def test_constant_velocity_baseline(self, tiny_config, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval", "--config", tiny_config,
                     "--constant-velocity", "1.0", "--out", str(out)]) == 0
        assert (out / "eval_metrics.csv").exists()
        assert (out / "open_loop_episode_0.csv").exists()

    def test_checkpoint_policy(self, tiny_config, tmp_path):
        run = tmp_path / "run"
        main(["train", "--config", tiny_config, "--out", str(run)])
        out = tmp_path / "eval"
        assert main(["eval", "--config", tiny_config,
                     "--checkpoint", str(run / "checkpoint.json"),
                     "--out", str(out)]) == 0
        assert (out / "policy_episode_0.csv").exists()

    @pytest.mark.parametrize("text", [
        "[]", "3", "null", '{"format_version": 0}',
        '{"format_version": 1, "config": {"bogus": 1}}',
        '{"format_version": 1, "config": [1]}',
        pytest.param("[" * 5000 + "]" * 5000, id="deep_nesting"),
    ])
    def test_bad_checkpoint_exits_1(self, tiny_config, tmp_path, capsys, text):
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(text)
        out = tmp_path / "eval"
        assert main(["eval", "--config", tiny_config, "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 1
        assert "checkpoint" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_writes_expected_rows(self, tiny_config, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", tiny_config, "--min", "0.4",
                     "--max", "0.8", "--step", "0.2",
                     "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3
        assert [row.split(",")[0] for row in lines[1:]] == \
            ["0.4", "0.6000000000000001", "0.8"]


class TestCompareCommand:
    def test_produces_comparison_outputs(self, tiny_config, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--config", tiny_config, "--seeds", "0,1",
                     "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 + 3  # header, 3 variants x 2 seeds, means
        assert "lowest mean peak_abs_acc_dev:" in \
            (out / "comparison.txt").read_text()


class TestServeCommand:
    def test_binds_and_answers_hello(self, tiny_config):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        t = threading.Thread(
            target=main,
            args=(["serve", "--config", tiny_config,
                   "--addr", f"127.0.0.1:{port}"],),
            daemon=True,
        )
        t.start()
        for _ in range(50):
            try:
                sock = socket.create_connection(("127.0.0.1", port),
                                                timeout=0.2)
                break
            except OSError:
                import time

                time.sleep(0.1)
        else:
            pytest.fail("serve never bound its port")
        sock.sendall(json.dumps(
            {"type": "hello", "version": PROTOCOL_VERSION}).encode() + b"\n")
        ack = json.loads(sock.makefile("rb").readline())
        assert ack["type"] == "hello_ack"
        sock.sendall(b'{"type": "close"}\n')
        sock.close()
