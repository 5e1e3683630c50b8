"""TCP environment protocol tests: loopback equivalence and error handling."""

import gc
import json
import socket
import time
import warnings

import numpy as np
import pytest

from bumpsim import protocol
from bumpsim.env import BumpEnv, EpisodeConfig, RewardSpec
from bumpsim.harness import constant_policy, evaluate
from bumpsim.protocol import (
    MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
    ConnectionLost,
    EnvServer,
    RemoteEnv,
    RemoteEnvError,
    Timeout,
    VersionMismatch,
)
from bumpsim.terrain import Bump, TerrainProfile
from bumpsim.vehicle import VehicleParams


def make_env():
    return BumpEnv(episode=EpisodeConfig(max_steps=200))


@pytest.fixture
def server():
    s = EnvServer(make_env, port=0).start()
    yield s
    s.shutdown()


def raw_session(address):
    sock = socket.create_connection(address, timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    reader = sock.makefile("rb")
    return sock, reader


def send_line(sock, reader, line: str) -> dict:
    sock.sendall(line.encode() + b"\n")
    return json.loads(reader.readline())


class TestHandshake:
    def test_hello_ack_carries_specs(self, server):
        with RemoteEnv(server.address) as env:
            assert env.obs_spec == ["x_dot", "z_ddot_meas", "p"]
            assert env.action_spec == {"low": 0.0, "high": 2.0}
            assert env.reward_spec == RewardSpec()

    def test_integer_u_max_is_sent_as_a_float(self):
        s = EnvServer(lambda: BumpEnv(params=VehicleParams(u_max=3))).start()
        try:
            with RemoteEnv(s.address) as env:
                assert repr(env.action_spec["high"]) == "3.0"
        finally:
            s.shutdown()

    def test_integer_x_dot_d_and_initial_x_dot_are_sent_as_floats(self):
        s = EnvServer(lambda: BumpEnv(
            reward_spec=RewardSpec(x_dot_d=1),
            episode=EpisodeConfig(initial_x_dot=1))).start()
        try:
            # RemoteEnv rebuilds a RewardSpec, so read the ack as sent.
            sock, reader = raw_session(s.address)
            ack = send_line(sock, reader, json.dumps(
                {"type": "hello", "version": PROTOCOL_VERSION}))
            reader.close()
            sock.close()
            assert repr(ack["reward_spec"]["x_dot_d"]) == "1.0"
            with RemoteEnv(s.address) as env:
                assert repr(env.reset(seed=0).x_dot) == "1.0"
        finally:
            s.shutdown()

    def test_version_mismatch_rejected(self, server):
        sock, reader = raw_session(server.address)
        resp = send_line(sock, reader, json.dumps({"type": "hello", "version": 999}))
        assert resp == {
            "type": "error", "code": "VERSION_MISMATCH",
            "message": f"server speaks version {PROTOCOL_VERSION}",
        }
        sock.close()

    def test_client_raises_on_version_mismatch(self):
        import threading

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def old_server():
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()
                conn.sendall(json.dumps({
                    "type": "error", "code": "VERSION_MISMATCH",
                    "message": "server speaks version 0",
                }).encode() + b"\n")

        t = threading.Thread(target=old_server, daemon=True)
        t.start()
        with pytest.raises(VersionMismatch):
            RemoteEnv(listener.getsockname())
        t.join(timeout=5.0)
        listener.close()


    def test_failed_handshake_closes_the_socket(self):
        # A listener that takes the connection and never answers.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(Timeout):
                    RemoteEnv(listener.getsockname(), timeout=0.2)
                gc.collect()  # an unclosed socket warns when it is collected
        finally:
            listener.close()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestLoopbackEquivalence:
    def test_bit_identical_to_in_process(self, server):
        local = make_env()
        remote = RemoteEnv(server.address)
        actions = [0.0, 0.5, 1.0, 2.0, 0.25, 1.75] * 40
        for seed in (0, 1234):
            lo = local.reset(seed=seed)
            ro = remote.reset(seed=seed)
            assert (ro.x_dot, ro.z_ddot_meas, ro.p) == \
                (lo.x_dot, lo.z_ddot_meas, lo.p)
            done = False
            i = 0
            while not done:
                a = actions[i % len(actions)]
                lo, lr, ldone, linfo = local.step(a)
                ro, rr, rdone, rinfo = remote.step(a)
                assert (ro.x_dot, ro.z_ddot_meas, ro.p) == \
                    (lo.x_dot, lo.z_ddot_meas, lo.p)
                assert rr == lr
                assert rdone == ldone
                assert rinfo == linfo
                done = ldone
                i += 1
        remote.close()

    def test_rollout_matches_in_process(self, tmp_path):
        # A remote env used to have no reward spec, so an episode raised
        # AttributeError reading its desired velocity.
        def factory():
            return BumpEnv(reward_spec=RewardSpec(x_dot_d=0.7),
                           episode=EpisodeConfig(max_steps=300))

        def recorded(env, seed, out):
            m = evaluate(constant_policy(0.9), env, base_seed=seed,
                         out_dir=str(out))
            return m, (out / "eval_episode_0.csv").read_bytes()

        s = EnvServer(factory, port=0).start()
        try:
            with RemoteEnv(s.address) as remote:
                for seed in (0, 1234):
                    got = recorded(remote, seed, tmp_path / f"remote{seed}")
                    want = recorded(factory(), seed, tmp_path / f"local{seed}")
                    assert got == want
        finally:
            s.shutdown()

    def test_throughput_at_least_120hz(self, server):
        remote = RemoteEnv(server.address)
        remote.reset(seed=0)
        n = 2000
        t0 = time.perf_counter()
        for _ in range(n):
            _, _, done, _ = remote.step(0.1)
            if done:
                remote.reset(seed=0)
        rate = n / (time.perf_counter() - t0)
        remote.close()
        assert rate >= 120.0, f"loopback rate {rate:.0f} Hz below 120 Hz"


class TestErrors:
    def test_step_before_reset(self, server):
        with RemoteEnv(server.address) as env:
            with pytest.raises(RemoteEnvError) as exc:
                env.step(1.0)
            assert exc.value.code == "NOT_RESET"
            # Session survives the error.
            env.reset(seed=0)
            env.step(1.0)

    def test_malformed_json_keeps_session_alive(self, server):
        sock, reader = raw_session(server.address)
        resp = send_line(sock, reader, "{not json")
        assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
        resp = send_line(sock, reader, json.dumps(
            {"type": "hello", "version": PROTOCOL_VERSION}))
        assert resp["type"] == "hello_ack"
        sock.close()

    def test_bad_requests_get_in_band_errors(self, server):
        sock, reader = raw_session(server.address)
        cases = [
            json.dumps([1, 2, 3]),
            json.dumps({"no_type": 1}),
            json.dumps({"type": "warp"}),
            json.dumps({"type": "reset", "seed": "abc"}),
            json.dumps({"type": "step", "u_x": "fast"}),
        ]
        for line in cases:
            resp = send_line(sock, reader, line)
            assert resp["type"] == "error", line
            assert resp["code"] in ("BAD_REQUEST", "NOT_RESET")
        sock.close()

    @pytest.mark.parametrize("seed", [True, False])
    def test_boolean_reset_seed_rejected(self, server, seed):
        # A JSON boolean is a Python int; true used to be served as seed 1.
        sock, reader = raw_session(server.address)
        resp = send_line(sock, reader, json.dumps({"type": "reset", "seed": seed}))
        assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
        resp = send_line(sock, reader, json.dumps({"type": "reset", "seed": 1}))
        assert resp["type"] == "state"
        reader.close()
        sock.close()

    def test_float_reset_seed_raises_as_the_local_env_does(self, server):
        # RemoteEnv.reset used to send int(1.5) and so reset at seed 1.
        local = make_env()
        with pytest.raises(TypeError):
            local.reset(seed=1.5)
        with RemoteEnv(server.address) as remote:
            with pytest.raises(TypeError):
                remote.reset(seed=1.5)
            assert remote.reset(seed=1) == local.reset(seed=1)
            assert remote.reset(seed=np.int64(2)) == local.reset(seed=2)

    def test_env_error_on_reset_keeps_session_alive(self, server):
        # An invalid seed used to raise inside the session handler and kill
        # the server thread.
        with RemoteEnv(server.address) as env:
            with pytest.raises(RemoteEnvError) as exc:
                env.reset(seed=-1)
            assert exc.value.code == "BAD_REQUEST"
            env.reset(seed=0)
            env.step(1.0)
        with RemoteEnv(server.address) as env:
            env.reset(seed=1)

    def test_dynamics_error_is_in_band(self):
        # A bump this tall makes the road slope overflow at the first wheel.
        track = TerrainProfile(bumps=(Bump(1e308, 0.2, 0.01),), track_length=1.0)
        s = EnvServer(lambda: BumpEnv(episode=EpisodeConfig(track=track)),
                      port=0).start()
        try:
            with RemoteEnv(s.address) as env:
                for _ in range(2):
                    with pytest.raises(RemoteEnvError) as exc:
                        env.reset(seed=0)
                    assert exc.value.code == "DYNAMICS_ERROR"
                    assert "NonFinite" in exc.value.message
        finally:
            s.shutdown()

    def test_nan_action_rejected(self, server):
        sock, reader = raw_session(server.address)
        send_line(sock, reader, json.dumps({"type": "reset", "seed": 0}))
        resp = send_line(sock, reader, '{"type": "step", "u_x": NaN}')
        assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
        sock.close()

    @pytest.mark.parametrize("line", [
        # An integer beyond the float range: math.isfinite raises OverflowError.
        json.dumps({"type": "step", "u_x": 10**400}),
        # Nesting past the parser's recursion limit: RecursionError.
        "[" * 2000 + "]" * 2000,
    ], ids=["huge_integer_u_x", "deep_nesting"])
    def test_requests_that_used_to_kill_the_server(self, server, line):
        # Either request used to end the session handler with an exception
        # and with it the server thread, so the next client timed out.
        assert len(line) < MAX_REQUEST_BYTES
        sock, reader = raw_session(server.address)
        send_line(sock, reader, json.dumps({"type": "reset", "seed": 0}))
        resp = send_line(sock, reader, line)
        assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
        resp = send_line(sock, reader, json.dumps({"type": "step", "u_x": 1.0}))
        assert resp["type"] == "state"
        reader.close()
        sock.close()
        with RemoteEnv(server.address, timeout=2.0) as env:  # the server still serves
            env.reset(seed=0)
            env.step(1.0)

    def test_exactly_one_response_per_request(self, server):
        sock, reader = raw_session(server.address)
        lines = [
            json.dumps({"type": "hello", "version": PROTOCOL_VERSION}),
            json.dumps({"type": "reset", "seed": 7}),
            json.dumps({"type": "step", "u_x": 0.5}),
            "garbage",
            json.dumps({"type": "step", "u_x": 1.5}),
        ]
        sock.sendall(("\n".join(lines) + "\n").encode())
        for _ in lines:
            resp = json.loads(reader.readline())
            assert "type" in resp
        sock.settimeout(0.3)
        with pytest.raises(socket.timeout):
            sock.recv(1)
        sock.close()

    def test_mid_episode_shutdown_raises_connection_lost(self):
        s = EnvServer(make_env, port=0).start()
        env = RemoteEnv(s.address)
        env.reset(seed=0)
        env.step(1.0)
        s.shutdown()
        with pytest.raises(ConnectionLost):
            for _ in range(50):
                env.step(1.0)
        env.close()

    def test_request_line_length_is_capped(self, server):
        hello = json.dumps({"type": "hello", "version": PROTOCOL_VERSION})
        sock, reader = raw_session(server.address)
        # A line of exactly the limit, newline included, is still served.
        resp = send_line(sock, reader, hello.ljust(MAX_REQUEST_BYTES - 1))
        assert resp["type"] == "hello_ack"
        resp = send_line(sock, reader, "x" * MAX_REQUEST_BYTES)
        assert resp["type"] == "error" and resp["code"] == "BAD_REQUEST"
        try:
            assert reader.readline() == b""  # the session ended
        except ConnectionResetError:
            pass
        sock.close()
        with RemoteEnv(server.address) as env:  # the server still serves
            env.reset(seed=0)
            env.step(1.0)

    def test_idle_session_is_dropped(self, server, monkeypatch):
        monkeypatch.setattr(protocol, "IDLE_TIMEOUT_S", 0.3)
        sock, reader = raw_session(server.address)  # connects, sends nothing
        try:
            assert reader.readline() == b""  # the server ended the session
        finally:
            reader.close()
            sock.close()
        with RemoteEnv(server.address, timeout=2.0) as env:
            env.reset(seed=0)
            env.step(1.0)

    def test_sequential_sessions(self, server):
        for _ in range(3):
            with RemoteEnv(server.address) as env:
                env.reset(seed=1)
                env.step(0.5)
