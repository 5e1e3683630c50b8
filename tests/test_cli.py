"""Command-line interface tests, driven through main() in-process."""

import csv
import functools
import json
import math
import operator
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import bumpsim
from bumpsim import config as cfg
from bumpsim.cli import MAX_SWEEP_SPEEDS, main
from bumpsim.config import DEFAULTS
from bumpsim.ddpg import AgentConfig, DdpgAgent
from bumpsim.env import BumpEnv
from bumpsim.protocol import PROTOCOL_VERSION
from bumpsim.terrain import MAX_BUMPS

# One episode of ten steps: a run that a bad document does not stop ends fast.
SHORT = {"train": {"episodes": 1}, "episode": {"max_steps": 10}}

# Each asks numpy for more than the address space: nothing is allocated, and
# numpy raises a MemoryError at once.
OUT_OF_MEMORY = [
    {"agent": {"buffer_capacity": 10**15}},
    {"agent": {"hidden_sizes": [10**15]}},
]


def python_env():
    """The environment of a fresh python that imports this bumpsim."""
    return {**os.environ,
            "PYTHONPATH": str(Path(bumpsim.__file__).resolve().parent.parent)}


def run_python(args, cwd):
    """Run python with args in a fresh process that imports this bumpsim."""
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=60, env=python_env())


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
        # Tracks that used to fail only at a reset, or to run on bumps the
        # spec does not describe.
        ({**SHORT, "terrain": {"placement_range": [2.0, 50.0]}},
         "terrain.placement_range"),
        ({**SHORT, "terrain": {"placement_range": [-1.0, 9.0]}},
         "terrain.placement_range"),
        ({**SHORT, "terrain": {"n_bumps": 5, "min_spacing": -1.0}},
         "terrain.min_spacing"),
        ({**SHORT, "terrain": {"n_bumps": MAX_BUMPS + 1, "min_spacing": 0.0}},
         "terrain.n_bumps"),
        ({**SHORT, "terrain": {"sigma_range": [0.08, 0.03]}}, "terrain.sigma_range"),
        ({**SHORT, "terrain": {"sigma_range": [-0.08, -0.03]}}, "terrain.sigma_range"),
        ({**SHORT, "train": {"episodes": 1, "seed": -1}}, "train.seed"),
        # A negative variance used to end in "math domain error" and a
        # negative decay in a NaN action, both after --out existed; a decay
        # above 1 and a negative floor ran.
        ({**SHORT, "agent": {"noise_variance": -1.0}}, "agent.noise_variance"),
        ({**SHORT, "agent": {"noise_decay": -1.0}}, "agent.noise_decay"),
        ({**SHORT, "agent": {"noise_decay": 1.5}}, "agent.noise_decay"),
        ({**SHORT, "agent": {"noise_floor": -1.0}}, "agent.noise_floor"),
        # Each used to run.
        ({**SHORT, "agent": {"reward_scale": 0.0}}, "agent.reward_scale"),
        ({**SHORT, "agent": {"reward_scale": -1.0}}, "agent.reward_scale"),
        ({**SHORT, "agent": {"noise_mean_reversion": -0.5}},
         "agent.noise_mean_reversion"),
        ({**SHORT, "agent": {"noise_mean_reversion": 1.5}},
         "agent.noise_mean_reversion"),
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

    @staticmethod
    def out_of_memory_exits_1(tmp_path, capsys, doc, command):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bumpsim {command}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("doc", OUT_OF_MEMORY)
    def test_out_of_memory_exits_1(self, tmp_path, capsys, doc):
        self.out_of_memory_exits_1(tmp_path, capsys, doc, "train")

    @pytest.mark.parametrize("doc", OUT_OF_MEMORY)
    def test_compare_out_of_memory_exits_1(self, tmp_path, capsys, doc):
        self.out_of_memory_exits_1(tmp_path, capsys, doc, "compare")

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

    @pytest.mark.parametrize("terrain", [
        {"track_length": 5.0,
         "fixed_bumps": [{"H": 0.01, "mu": 2.5, "sigma": 0.05}]},
        {"track_length": 1.5, "sigma_range": [0.08, 0.03], "min_spacing": -1.0,
         "fixed_bumps": [{"H": 0.01, "mu": 0.75, "sigma": 0.05}]},
        {"track_length": 1.5, "n_bumps": 0},
        # 20 bumps 1 m apart would not fit in [2, 9], but none are drawn.
        {"track_length": 5.0, "n_bumps": 20,
         "fixed_bumps": [{"H": 0.01, "mu": 2.5, "sigma": 0.05}]},
    ])
    def test_tracks_drawing_no_bumps_skip_the_draw_bounds(self, tmp_path,
                                                          terrain):
        # The default placement range [2, 9] ends past each track, but a
        # fixed or flat track never draws from it.
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"terrain": terrain,
                                    "episode": {"max_steps": 50}}))
        out = tmp_path / "out"
        assert main(["eval", "--config", str(path), "--constant-velocity",
                     "1", "--out", str(out)]) == 0
        assert (out / "eval_metrics.csv").exists()

    def test_sweep_skips_the_draw_bounds(self, tmp_path):
        # The sweep runs on its own single-bump track and draws none.
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"terrain": {"track_length": 5.0}}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--min", "1", "--max", "1",
                     "--out", str(out)]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 2

    def test_sweep_ignores_the_draw_and_episode_keys(self, tmp_path):
        # Neither 20 bumps that would not fit nor an episode section that an
        # env would reject reaches the sweep, which reads neither.
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"terrain": {"track_length": 5.0, "n_bumps": 20},
                                    "episode": {"max_steps": 0}}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--min", "1", "--max", "1",
                     "--out", str(out)]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 2

    def test_dynamics_error_exits_1_in_one_line(self, tmp_path, capsys):
        # Stiff springs over a tall, narrow bump tip the chassis over.
        path = tmp_path / "tip.json"
        path.write_text(json.dumps({
            "terrain": {"bump_height": 1000.0, "sigma_range": [0.03, 0.031]},
            "vehicle": {"k1": 1e6, "k2": 1e6}}))
        assert main(["eval", "--config", str(path), "--constant-velocity", "2",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bumpsim eval: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-1"],
        ["compare", "--seeds=-1"],
        ["compare", "--seeds", "0,-1"],
    ])
    def test_negative_seed_exits_1_before_any_output(self, tiny_config, tmp_path,
                                                     capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--config", tiny_config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bumpsim {argv[0]}: ") and err.count("\n") == 1
        assert "seed" in err
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

    def test_config_seed_applies_without_the_flag(self, tiny_config, tmp_path):
        doc = json.loads(Path(tiny_config).read_text())
        doc["train"]["seed"] = 5
        seeded = tmp_path / "seeded.json"
        seeded.write_text(json.dumps(doc))
        runs = {}
        for name, argv in (("config", ["--config", str(seeded)]),
                           ("flag", ["--config", tiny_config, "--seed", "5"]),
                           ("zero", ["--config", tiny_config])):
            out = tmp_path / name
            assert main(["train", *argv, "--out", str(out)]) == 0
            echoed = json.loads((out / "resolved_config.json").read_text())
            runs[name] = (echoed["train"]["seed"],
                          (out / "train_metrics.csv").read_bytes())
        assert runs["config"] == runs["flag"]
        assert runs["config"][0] == 5 and runs["zero"][0] == 0
        assert runs["config"][1] != runs["zero"][1]

    def test_builds_one_agent_and_trains_it_as_train_would(
            self, tiny_config, tmp_path, monkeypatch):
        from bumpsim.harness import train
        built = []
        init = DdpgAgent.__init__

        def counting_init(agent, *args, **kwargs):
            built.append(agent)
            init(agent, *args, **kwargs)

        monkeypatch.setattr(DdpgAgent, "__init__", counting_init)
        out = tmp_path / "cli"
        assert main(["train", "--config", tiny_config, "--seed", "5",
                     "--out", str(out)]) == 0
        assert len(built) == 1
        # The agent cmd_train hands over trains as the one train builds.
        resolved = cfg.load(tiny_config)
        resolved["train"]["seed"] = 5
        train(cfg.train_config(resolved, str(tmp_path / "lib")))
        for name in ("checkpoint.json", "train_metrics.csv"):
            assert (out / name).read_bytes() == \
                (tmp_path / "lib" / name).read_bytes()

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

    def test_integer_for_a_float_key_runs_as_a_float(self, tmp_path):
        # An integer u_max used to reach the clamp as an int: u_x read 3.
        doc = {"vehicle": {"u_max": 3}, "terrain": {"fixed_bumps": []},
               "episode": {"max_steps": 5}}
        path = tmp_path / "int.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "eval"
        assert main(["eval", "--config", str(path), "--constant-velocity", "5",
                     "--out", str(out)]) == 0
        with open(out / "open_loop_episode_0.csv", newline="") as f:
            assert [row["u_x"] for row in csv.DictReader(f)] == ["3.0"] * 5
        assert '"u_max": 3.0' in (out / "resolved_config.json").read_text()
        resolved = cfg.resolve(doc)
        env = BumpEnv(params=cfg.vehicle_params(resolved),
                      episode=cfg.episode_config(resolved))
        assert type(env.params.u_max) is float
        env.reset()
        assert type(env.step(5.0)[3]["u_x"]) is float

    @pytest.mark.parametrize("text", [
        "[]", "3", "null", '{"format_version": 0}',
        '{"format_version": 1, "config": {"bogus": 1}}',
        '{"format_version": 1, "config": [1]}',
        pytest.param("[" * 5000 + "]" * 5000, id="deep_nesting"),
        # (path, value): one field of a valid checkpoint. Each used to load.
        pytest.param((("actor", "weights", 0, 0, 0), math.nan), id="nan_weight"),
        pytest.param((("actor_opt", "t"), "x"), id="string_adam_t"),
        pytest.param((("noise", "variance"), "v"), id="string_noise_variance"),
        pytest.param((("actor", "sizes"), [3, 5, 1]), id="wrong_sizes"),
        pytest.param((("episode_count",), -5), id="negative_episode_count"),
        # Used to end in a ZeroDivisionError traceback after --out existed.
        pytest.param((("config", "u_max"), 0.0), id="zero_u_max"),
        # Used to load, and eval exited 0.
        pytest.param((("config", "reward_scale"), "x"), id="string_reward_scale"),
        pytest.param((("config", "noise_mean_reversion"), math.nan),
                     id="nan_noise_mean_reversion"),
    ])
    def test_bad_checkpoint_exits_1(self, tiny_config, tmp_path, capsys, text):
        ckpt = tmp_path / "checkpoint.json"
        if isinstance(text, tuple):
            (*parents, last), value = text
            DdpgAgent(AgentConfig(hidden_sizes=(2,))).save(str(ckpt))
            doc = json.loads(ckpt.read_text())
            functools.reduce(operator.getitem, parents, doc)[last] = value
            text = json.dumps(doc)
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

    @pytest.mark.parametrize("flags, speeds", [
        # A ratio (max - min) / step whose fraction is 0.5 or more once
        # swept one speed past --max, as 2.5 here, which is above u_max.
        (["--min", "0.5", "--max", "2.4", "--step", "0.5"],
         ["0.5", "1.0", "1.5", "2.0"]),
        (["--min", "0.1", "--max", "0.18", "--step", "0.1"], ["0.1"]),
        # (0.7 - 0.1) / 0.2 rounds to just under 3: 0.7 is still swept.
        (["--min", "0.1", "--max", "0.7", "--step", "0.2"],
         ["0.1", "0.30000000000000004", "0.5", "0.7000000000000001"]),
    ], ids=["ratio_3.8", "ratio_0.8", "ratio_just_under_3"])
    def test_grid_stops_at_max(self, tmp_path, flags, speeds):
        # Each run over a 1 mm flat track ends after one step.
        path = tmp_path / "short.json"
        path.write_text(json.dumps(
            {"terrain": {"track_length": 0.001, "fixed_bumps": []}}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), *flags,
                     "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == speeds

    def test_rejects_speeds_above_u_max_before_any_output(self, tmp_path, capsys):
        # The car runs any command above vehicle.u_max at u_max, so rows
        # labelled 2.5 and 3.0 ran at about 2.0 m/s. The built grid is
        # checked, not --max: test_grid_stops_at_max[ratio_3.8] passes
        # --max 2.4 and sweeps up to 2.0.
        path = tmp_path / "short.json"
        path.write_text(json.dumps(
            {"terrain": {"track_length": 0.001, "fixed_bumps": []}}))
        flags = ["--min", "1.5", "--max", "3", "--step", "0.5"]
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), *flags,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bumpsim sweep: ") and err.count("\n") == 1
        assert "--max" in err and "vehicle.u_max" in err
        assert not out.exists()
        # With the clamp raised to 3 m/s the same grid runs.
        path.write_text(json.dumps(
            {"terrain": {"track_length": 0.001, "fixed_bumps": []},
             "vehicle": {"u_max": 3.0}}))
        assert main(["sweep", "--config", str(path), *flags,
                     "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["1.5", "2.0", "2.5", "3.0"]

    @pytest.mark.parametrize("run", [
        "from bumpsim.harness import sweep_velocities\n"
        "sweep_velocities([0.5, 1.0])",
        "from bumpsim.cli import main\n"
        "assert main(['sweep', '--config', 'config.json', '--min', '0.5',"
        " '--max', '1.0', '--step', '0.5', '--out', 'out']) == 0",
    ], ids=["harness", "cli"])
    def test_fixed_track_imports_no_rng(self, tmp_path, run):
        # Nothing on a fixed track is drawn, so numpy.random stays unloaded.
        (tmp_path / "config.json").write_text("{}")
        done = run_python(
            ["-c", f"import sys\n{run}\nprint('numpy.random' in sys.modules)"],
            cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


class TestImports:
    def test_serve_and_remote_env_import_no_numpy(self, tmp_path):
        # The simulator, the server and its client need only the standard
        # library; a seeded and then an unseeded reset draw tracks.
        run = (
            "import sys\n"
            "from bumpsim import cli, config as cfg\n"
            "from bumpsim.protocol import EnvServer, RemoteEnv\n"
            "resolved = cfg.resolve({})\n"
            "server = EnvServer(lambda: cli._env(resolved)).start()\n"
            "with RemoteEnv(server.address) as env:\n"
            "    env.reset(seed=3)\n"
            "    env.step(1.0)\n"
            "    env.reset()\n"
            "server.shutdown()\n"
            "print('numpy' in sys.modules)"
        )
        done = run_python(["-c", run], cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_acting_imports_no_rng_and_exploring_does(self, tmp_path):
        # The initial weights come from the standard library's PCG64; the
        # replay and noise Generators are built at their first use.
        (tmp_path / "config.json").write_text(json.dumps(SHORT))
        run = (
            "import sys\n"
            "from bumpsim import cli, config as cfg\n"
            "from bumpsim.ddpg import DdpgAgent\n"
            "from bumpsim.harness import evaluate\n"
            "env = cli._env(cfg.load('config.json'))\n"
            "agent = DdpgAgent(seed=3)\n"
            "evaluate(agent.act, env, episodes=2, out_dir='eval', tag='policy')\n"
            "agent.save('checkpoint.json')\n"
            "obs = env.reset(seed=1)\n"
            "DdpgAgent.load('checkpoint.json').act(obs)\n"
            "assert cli.main(['eval', '--config', 'config.json', '--checkpoint',"
            " 'checkpoint.json', '--out', 'cli_eval']) == 0\n"
            "print('numpy.random' in sys.modules)\n"
            "agent.explore(obs)\n"
            "print('numpy.random' in sys.modules)"
        )
        done = run_python(["-c", run], cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\nTrue\n"

    def test_package_names_load_on_first_use(self, tmp_path):
        run = (
            "import sys\n"
            "import bumpsim\n"
            "print('numpy' in sys.modules)\n"
            "from bumpsim import DdpgAgent, train\n"
            "print(DdpgAgent.__module__, train.__module__)"
        )
        done = run_python(["-c", run], cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\nbumpsim.ddpg bumpsim.harness\n"


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
    def test_bad_config_exits_1_at_start_up(self, tmp_path):
        # Used to bind and listen, then drop the first client and exit 1.
        (tmp_path / "bad.json").write_text(json.dumps({"terrain": {"n_bumps": 20}}))
        done = run_python(["-m", "bumpsim.cli", "serve", "--config", "bad.json",
                           "--addr", "127.0.0.1:0"], cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr.startswith("bumpsim serve: ")
        assert done.stderr.count("\n") == 1 and "terrain.n_bumps" in done.stderr

    @pytest.mark.parametrize("stop", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_signal_stops_it_cleanly_with_sigint_ignored(self, tiny_config, stop):
        # A non-interactive shell starts a background job with SIGINT
        # ignored. Such a server used to ignore SIGINT, and SIGTERM killed it
        # (-15) without its shutdown. Either signal used to leave the
        # listening socket unclosed.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        server = subprocess.Popen(
            # -X dev reports a socket left unclosed on stderr.
            [sys.executable, "-X", "dev", "-m", "bumpsim.cli", "serve",
             "--config", tiny_config, "--addr", f"127.0.0.1:{port}"],
            env=python_env(), stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
        try:
            deadline = time.monotonic() + 30.0
            while True:
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
                    break
                except OSError:
                    assert server.poll() is None and time.monotonic() < deadline, \
                        "serve never bound its port"
                    time.sleep(0.05)
            server.send_signal(stop)
            assert server.wait(timeout=5.0) == 0
            assert server.stderr.read() == ""
        finally:
            server.kill()
            server.wait()
            server.stderr.close()

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
                time.sleep(0.1)
        else:
            pytest.fail("serve never bound its port")
        sock.sendall(json.dumps(
            {"type": "hello", "version": PROTOCOL_VERSION}).encode() + b"\n")
        ack = json.loads(sock.makefile("rb").readline())
        assert ack["type"] == "hello_ack"
        sock.sendall(b'{"type": "close"}\n')
        sock.close()
