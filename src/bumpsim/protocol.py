"""Newline-delimited JSON protocol exposing an environment over TCP.

Mirrors the host-to-vehicle control loop: a remote agent sends
hello/reset/step/close requests, the server answers with exactly one response
per request. One client session at a time; the environment is stateful and
sequential. All numbers travel as decimal JSON, which round-trips IEEE
doubles exactly, so a loopback client is bit-identical to the in-process env.
"""

from __future__ import annotations

import json
import operator
import socket
import threading
from dataclasses import asdict

from .config import has_type
from .env import EnvNotReset, RewardSpec
from .sensors import Observation
from .vehicle import DynamicsError

PROTOCOL_VERSION = 2
OBS_SPEC = list(Observation._fields)
# Longest request line the server reads, newline included. The longest valid
# request is a step of well under 100 bytes; a longer line ends the session
# rather than growing the server's read buffer without bound.
MAX_REQUEST_BYTES = 4096
# Seconds a session may wait for its next request. The server holds one
# session at a time, so a client that connects and sends nothing would
# otherwise shut every other client out; past this the session ends and the
# server accepts the next client.
IDLE_TIMEOUT_S = 60.0


class ProtocolError(Exception):
    """Base class for client-side protocol failures."""


class ConnectionLost(ProtocolError):
    """Server closed or the connection dropped mid-session."""


class Timeout(ProtocolError):
    """No response within the configured timeout."""


class VersionMismatch(ProtocolError):
    """Server speaks a different protocol version."""


class RemoteEnvError(ProtocolError):
    """Server answered with an in-band error response."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _error(code: str, message: str) -> dict:
    return {"type": "error", "code": code, "message": message}


def _state(obs: Observation, reward, done: bool, info: dict) -> dict:
    """The response to a reset (reward None) or a step."""
    return {"type": "state", "obs": obs._asdict(), "reward": reward,
            "done": done, "info": info}


def _env_error(e: Exception) -> dict:
    """In-band error for an exception the env raised while serving a request:
    the session stays open and the client may reset."""
    code = "DYNAMICS_ERROR" if isinstance(e, DynamicsError) else "BAD_REQUEST"
    return _error(code, f"{type(e).__name__}: {e}")


class EnvServer:
    """Serves one environment to one client at a time over TCP."""

    def __init__(self, env_factory, host: str = "127.0.0.1", port: int = 0):
        self._env_factory = env_factory
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except (OSError, OverflowError) as e:  # OverflowError: port out of range
            self._sock.close()
            raise OSError(f"cannot bind {host}:{port}: {e}") from e
        self._sock.listen(1)
        self._shutdown = threading.Event()
        self._thread: threading.Thread | None = None
        self._active_conn: socket.socket | None = None

    @property
    def address(self):
        return self._sock.getsockname()

    def serve_forever(self):
        """Accept loop: one sequential session after another until shutdown
        or a KeyboardInterrupt; either way it closes the listening socket."""
        self._sock.settimeout(0.2)
        try:
            while not self._shutdown.is_set():
                try:
                    conn, _ = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                with conn:
                    conn.settimeout(IDLE_TIMEOUT_S)
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    self._active_conn = conn
                    try:
                        self._handle_session(conn)
                    finally:
                        self._active_conn = None
        except KeyboardInterrupt:
            pass
        finally:
            self._sock.close()

    def start(self):
        """Run the accept loop on a background thread (for tests/embedding)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def shutdown(self):
        self._shutdown.set()
        conn = self._active_conn
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _handle_session(self, conn: socket.socket):
        env = self._env_factory()
        reader = conn.makefile("rb")
        try:
            while raw := reader.readline(MAX_REQUEST_BYTES + 1):
                if self._shutdown.is_set():
                    return
                if len(raw) > MAX_REQUEST_BYTES:
                    response, closing = _error(
                        "BAD_REQUEST",
                        f"request line longer than {MAX_REQUEST_BYTES} bytes",
                    ), True
                else:
                    line = raw.decode("utf-8", errors="replace").strip()
                    if not line:
                        continue
                    response, closing = self._respond(env, line)
                conn.sendall((json.dumps(response) + "\n").encode())
                if closing:
                    return
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            return
        finally:
            reader.close()

    def _respond(self, env, line: str):
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            return _error("BAD_REQUEST", "malformed JSON"), False
        except RecursionError:
            return _error("BAD_REQUEST", "JSON nested too deeply"), False
        if not isinstance(msg, dict) or "type" not in msg:
            return _error("BAD_REQUEST", "request must be an object with 'type'"), False
        kind = msg["type"]
        if kind == "hello":
            if msg.get("version") != PROTOCOL_VERSION:
                return _error(
                    "VERSION_MISMATCH",
                    f"server speaks version {PROTOCOL_VERSION}",
                ), False
            return {
                "type": "hello_ack",
                "version": PROTOCOL_VERSION,
                "obs_spec": OBS_SPEC,
                "action_spec": {"low": 0.0, "high": env.params.u_max},
                "reward_spec": asdict(env.reward_spec),
            }, False
        if kind == "reset":
            seed = msg.get("seed")
            if seed is not None and type(seed) is not int:  # nor a bool
                return _error("BAD_REQUEST", "seed must be an integer"), False
            try:
                obs = env.reset(seed=seed)
            except (ValueError, DynamicsError) as e:
                return _env_error(e), False
            return _state(obs, None, False, {}), False
        if kind == "step":
            u_x = msg.get("u_x")
            if not has_type(u_x, float):
                return _error("BAD_REQUEST", "u_x must be a finite number"), False
            try:
                obs, r, done, info = env.step(float(u_x))
            except EnvNotReset:
                return _error("NOT_RESET", "step before reset"), False
            except (ValueError, DynamicsError) as e:
                return _env_error(e), False
            return _state(obs, r, done, info), False
        if kind == "close":
            return {"type": "closed"}, True
        return _error("BAD_REQUEST", f"unknown request type {kind!r}"), False


class RemoteEnv:
    """Client adapter with the same reset/step contract as the local env."""

    def __init__(self, address, timeout: float = 10.0):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._reader = self._sock.makefile("rb")
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            ack = self._request({"type": "hello", "version": PROTOCOL_VERSION})
            if ack["type"] == "error" and ack.get("code") == "VERSION_MISMATCH":
                raise VersionMismatch(ack.get("message", ""))
            if ack["type"] != "hello_ack":
                raise ProtocolError(f"unexpected handshake response: {ack}")
            self.obs_spec = ack["obs_spec"]
            self.action_spec = ack["action_spec"]
            # The harness reads the desired velocity of the server's reward.
            self.reward_spec = RewardSpec(**ack["reward_spec"])
        except BaseException:
            # No caller gets an object to close, so close the socket here.
            self._reader.close()
            self._sock.close()
            raise

    def _request(self, msg: dict) -> dict:
        try:
            self._sock.sendall((json.dumps(msg) + "\n").encode())
            raw = self._reader.readline()
        except socket.timeout as e:
            raise Timeout(str(e)) from e
        except OSError as e:
            raise ConnectionLost(str(e)) from e
        if not raw:
            raise ConnectionLost("server closed the connection")
        return json.loads(raw)

    def reset(self, seed=None) -> Observation:
        msg = {"type": "reset"}
        if seed is not None:  # an int, as BumpEnv.reset takes, or a TypeError
            msg["seed"] = operator.index(seed)
        resp = self._request(msg)
        if resp["type"] == "error":
            raise RemoteEnvError(resp["code"], resp["message"])
        return Observation(**resp["obs"])

    def step(self, action: float):
        resp = self._request({"type": "step", "u_x": float(action)})
        if resp["type"] == "error":
            raise RemoteEnvError(resp["code"], resp["message"])
        return Observation(**resp["obs"]), resp["reward"], resp["done"], resp["info"]

    def close(self):
        try:
            self._request({"type": "close"})
        except ProtocolError:
            pass
        self._reader.close()
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
