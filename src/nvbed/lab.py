"""Simulated experiment computer.

Owns a hidden ground-truth NV system whose bright/dark references drift as a
reflected random walk in simulated time, executes experiment configurations,
and returns count triples.  The clock is simulated (it advances by the
computed experiment duration plus configurable overheads), so runs are fast
and bit-reproducible regardless of wall-clock timing.

The TCP service speaks newline-delimited UTF-8 JSON with a protocol version
field::

    request:  {"v": 1, "type": "run", "config": {"kind": "rabi", ...}}
              {"v": 1, "type": "track"}
              {"v": 1, "type": "ping"}
    response: {"v": 1, "status": "ok", "datum": {"X": ..., "Y": ..., "Z": ...,
               "N": ..., "timestamp": ...}, "cache_hit": false}
              {"v": 1, "status": "error", "error": "..."}

Every request line gets exactly one response line; malformed JSON, a bad
config or a failed run gets an error response on the open connection.  One
connection is served at a time and others queue; one idle for
``IDLE_TIMEOUT_S``, far above a paper-scale gap between requests, is dropped.

A request may carry an ``"id"`` string, which its response echoes.  The
server keeps the response to the last request that had an id and answers a
repeat of that id with it instead of executing again, so a client that lost
a reply can re-send without running the experiment twice.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import secrets
import socket
import socketserver
import threading
from dataclasses import dataclass, field

import numpy as np

from .measurement import Datum, ReferenceRates, sample_datum
from .qutrit import ExperimentConfig, SimulationAccuracyError, SpinParams
from .qutrit import survival_probability
from .smc import DriftParams, ModelParameters

PROTOCOL_VERSION = 1
IDLE_TIMEOUT_S = 600.0


class LabProtocolError(RuntimeError):
    """The peer answered with an error status or an unusable message."""


class LabConnectionError(ConnectionError):
    """The experiment computer could not be reached."""


@dataclass(frozen=True)
class LabTimings:
    """Per-shot pulse-sequence timings (ns) and request overheads (s).

    The per-shot durations are invented defaults for the preparation laser,
    settling, the three measurement windows, and the adiabatic dark-reference
    transfer; real setups calibrate them independently.
    """

    prepare_ns: float = 3000.0
    settle_ns: float = 1000.0
    measure_ns: float = 300.0
    adiabatic_ns: float = 2000.0
    upload_latency_s: float = 0.5
    request_overhead_s: float = 0.01
    track_duration_s: float = 5.0

    def experiment_seconds(self, config: ExperimentConfig) -> float:
        per_shot = (
            self.prepare_ns
            + self.settle_ns
            + config.evolution_time
            + 3.0 * self.measure_ns
            + self.adiabatic_ns
        )
        return config.repetitions * per_shot * 1e-9


def waveform_key(config: ExperimentConfig) -> str:
    """128-bit cache key of the pulse shape.

    The repetition count is a sequencer setting, not part of the stored
    waveform, so it is excluded; any change in pulse timing or carrier
    frequency yields a different key.
    """
    canonical = json.dumps(
        {
            "kind": config.kind,
            "pulse_time": config.pulse_time,
            "wait_time": config.wait_time,
            "drive_frequency": config.drive_frequency,
        },
        sort_keys=True,
    )
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def default_truth() -> ModelParameters:
    return ModelParameters(
        spin=SpinParams(11.55, 2.0, -0.86, 2.18, 0.35),
        refs=ReferenceRates(0.05, 0.02),
        drift=DriftParams(0.036, 0.036, 0.7),
    )


@dataclass
class TrueSystem:
    """Ground truth hidden from the inference engine.

    The true references follow a correlated random walk, reflected so that
    0 < beta < alpha always holds; a tracking operation refocuses them back
    to their nominal values up to a multiplicative refocus error.
    """

    truth: ModelParameters
    rng: np.random.Generator
    timings: LabTimings = field(default_factory=LabTimings)
    refocus_sigma: float = 0.01
    clock: float = 0.0  # simulated seconds

    def __post_init__(self):
        self.alpha = self.truth.refs.bright
        self.beta = self.truth.refs.dark
        self._survival_cache = {}
        self._waveforms = set()
        self.cache_hits = 0
        self.uploads = 0
        self.tracking_count = 0

    def _drifted(self, dt_seconds: float) -> tuple:
        """The references after ``dt_seconds`` of drift, not yet stored."""
        if dt_seconds <= 0:
            return self.alpha, self.beta
        drift = self.truth.drift
        scale = np.sqrt(dt_seconds / 3600.0)
        z1, z2 = self.rng.standard_normal(2)
        d_alpha = drift.sigma_alpha * scale * z1
        d_beta = drift.sigma_beta * scale * (
            drift.correlation * z1
            + np.sqrt(1.0 - drift.correlation**2) * z2
        )
        return _reflect_refs(self.alpha + d_alpha, self.beta + d_beta)

    def execute(self, config: ExperimentConfig) -> tuple:
        """Run one experiment; returns (datum, cache_hit).  All or nothing: a
        failed simulation or draw leaves the lab, its stream included, as it was."""
        p = self._survival(config)
        key = waveform_key(config)
        cache_hit = key in self._waveforms
        clock = self.clock if cache_hit else self.clock + self.timings.upload_latency_s
        elapsed = (
            self.timings.experiment_seconds(config) + self.timings.request_overhead_s
        )
        clock += elapsed
        stream = self.rng.bit_generator.state
        try:
            alpha, beta = self._drifted(elapsed)
            refs = ReferenceRates(alpha, beta)
            datum = sample_datum(p, refs, config.repetitions, self.rng, clock)
        except Exception:
            self.rng.bit_generator.state = stream
            raise
        self.clock, self.alpha, self.beta = clock, alpha, beta
        if cache_hit:
            self.cache_hits += 1
        else:
            self._waveforms.add(key)
            self.uploads += 1
        return datum, cache_hit

    def track(self) -> None:
        """Refocus: restore the references to nominal up to a refocus error."""
        self.clock += self.timings.track_duration_s
        eps_a, eps_b = self.rng.normal(0.0, self.refocus_sigma, size=2)
        self.alpha, self.beta = _reflect_refs(
            self.truth.refs.bright * (1.0 + eps_a),
            self.truth.refs.dark * (1.0 + eps_b),
        )
        self.tracking_count += 1

    def _survival(self, config: ExperimentConfig) -> float:
        key = (config.kind, config.pulse_time, config.wait_time, config.drive_frequency)
        if key not in self._survival_cache:
            self._survival_cache[key] = survival_probability(self.truth.spin, config)
        return self._survival_cache[key]


def _reflect_refs(alpha: float, beta: float, floor: float = 1e-9) -> tuple:
    beta = abs(beta)
    if beta < floor:
        beta = floor
    if alpha < beta:
        alpha = 2.0 * beta - alpha
    if alpha <= beta:
        alpha = beta * (1.0 + 1e-9)
    return alpha, beta


class InProcessLab:
    """Same interface as the TCP client, but bound to a local TrueSystem."""

    def __init__(self, system: TrueSystem):
        self.system = system
        self.last_cache_hit = None

    def ping(self) -> bool:
        return True

    def run(self, config: ExperimentConfig) -> Datum:
        datum, cache_hit = self.system.execute(config)
        self.last_cache_hit = cache_hit
        return datum

    def track(self) -> None:
        self.system.track()

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------------
# TCP service
# ----------------------------------------------------------------------------


def _handle_request(system: TrueSystem, message) -> dict:
    if not isinstance(message, dict):
        return _error("expected an object")
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        return _error(f"unsupported protocol version {version!r}")
    kind = message.get("type")
    if kind == "ping":
        return {"v": PROTOCOL_VERSION, "status": "ok"}
    if kind == "track":
        system.track()
        return {"v": PROTOCOL_VERSION, "status": "ok"}
    if kind == "run":
        try:
            config = ExperimentConfig.from_dict(message["config"])
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            return _error(f"bad config: {err}")
        try:
            datum, cache_hit = system.execute(config)
        except (ValueError, SimulationAccuracyError) as err:
            return _error(f"run failed: {err}")
        return {
            "v": PROTOCOL_VERSION,
            "status": "ok",
            "datum": datum.to_dict(),
            "cache_hit": cache_hit,
        }
    return _error(f"unknown type {kind!r}")


def _error(text: str) -> dict:
    return {"v": PROTOCOL_VERSION, "status": "error", "error": text}


class _LabRequestHandler(socketserver.StreamRequestHandler):
    def setup(self):
        self.timeout = IDLE_TIMEOUT_S
        super().setup()

    def handle(self):
        try:
            for raw in self.rfile:
                response = self.server.respond(raw.decode("utf-8"))
                self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
                self.wfile.flush()
        except TimeoutError:
            pass  # idle too long: drop the connection


class LabServer(socketserver.TCPServer):
    """Serves one connection at a time against an exclusively-owned system."""

    allow_reuse_address = True

    def __init__(self, system: TrueSystem, address=("127.0.0.1", 0)):
        super().__init__(address, _LabRequestHandler)
        self.system = system
        self._last_id = None
        self._last_response = None

    def respond(self, line: str) -> dict:
        """The response to one request line; a repeated id gets the stored one."""
        try:
            message = json.loads(line)
        except json.JSONDecodeError as err:
            return _error(f"bad json: {err}")
        request_id = message.get("id") if isinstance(message, dict) else None
        if request_id is None:
            return _handle_request(self.system, message)
        if request_id != self._last_id:
            response = _handle_request(self.system, message)
            response["id"] = request_id
            self._last_id, self._last_response = request_id, response
        return self._last_response

    @property
    def address(self) -> str:
        host, port = self.server_address
        return f"{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def serve(bind_address: str, system: TrueSystem) -> None:
    """Serve requests forever (CLI entry point)."""
    host, port = _parse_address(bind_address)
    with LabServer(system, (host, port)) as server:
        print(f"experiment server listening on {server.address}", flush=True)
        server.serve_forever()


def _parse_address(address: str) -> tuple:
    if address.startswith("tcp://"):
        address = address[len("tcp://"):]
    host, _, port = address.rpartition(":")
    if not host:
        raise ValueError(f"address must look like host:port, got {address!r}")
    return host, int(port)


class LabClient:
    """Blocking newline-JSON client with a single reconnect-and-retry.

    Every request carries an id unique to this client, and the retry re-sends
    the same id, so the server answers it from its stored reply when the
    first attempt executed but its reply was lost.
    """

    def __init__(self, address: str, timeout: float = 60.0):
        self._address = _parse_address(address)
        self._timeout = timeout
        self._sock = None
        self._reader = None
        self._session = secrets.token_hex(8)
        self._sequence = itertools.count(1)
        self.last_cache_hit = None
        self._connect()

    def _connect(self):
        try:
            self._sock = socket.create_connection(self._address, timeout=self._timeout)
        except OSError as err:
            raise LabConnectionError(
                f"cannot reach experiment server at {self._address}: {err}"
            ) from err
        self._reader = self._sock.makefile("rb")

    def _exchange(self, request: dict) -> dict:
        payload = (json.dumps(request) + "\n").encode("utf-8")
        try:
            self._sock.sendall(payload)
            line = self._reader.readline()
        except OSError as err:
            raise LabConnectionError(f"transport failure: {err}") from err
        if not line:
            raise LabConnectionError("server closed the connection")
        response = json.loads(line.decode("utf-8"))
        if response.get("v") != PROTOCOL_VERSION:
            raise LabProtocolError(
                f"protocol version mismatch: {response.get('v')!r}"
            )
        if response.get("status") != "ok":
            raise LabProtocolError(response.get("error", "unknown server error"))
        if response.get("id") != request["id"]:
            raise LabProtocolError(
                f"reply to request {response.get('id')!r}, expected {request['id']!r}"
            )
        return response

    def _request(self, request: dict) -> dict:
        request = {**request, "id": f"{self._session}-{next(self._sequence)}"}
        try:
            return self._exchange(request)
        except LabConnectionError:
            self.close()
            self._connect()
            return self._exchange(request)

    def ping(self) -> bool:
        self._request({"v": PROTOCOL_VERSION, "type": "ping"})
        return True

    def run(self, config: ExperimentConfig) -> Datum:
        response = self._request(
            {"v": PROTOCOL_VERSION, "type": "run", "config": config.to_dict()}
        )
        self.last_cache_hit = bool(response.get("cache_hit"))
        return Datum.from_dict(response["datum"])

    def track(self) -> None:
        self._request({"v": PROTOCOL_VERSION, "type": "track"})

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
