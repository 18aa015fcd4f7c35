"""Simulated experiment computer.

Owns a hidden ground-truth NV system whose bright/dark references drift as a
reflected random walk in simulated time, executes experiment configurations,
and returns count triples.  The clock is simulated, so runs are fast and
bit-reproducible regardless of wall-clock timing: a run advances it by
:func:`experiment_seconds` plus ``REQUEST_OVERHEAD_S`` (and
``UPLOAD_LATENCY_S`` on a new shape), a track by ``TRACK_DURATION_S``.

A run whose ``ExperimentConfig.shape`` was uploaded before is a cache hit:
it skips the upload latency and reuses the stored survival probability.

The TCP service speaks newline-delimited UTF-8 JSON with a protocol version
field::

    request:  {"v": 1, "type": "run", "config": {"kind": "rabi", ...}}
              {"v": 1, "type": "track"}
              {"v": 1, "type": "ping"}
    response: {"v": 1, "status": "ok", "datum": {"X": ..., "Y": ..., "Z": ...,
               "N": ..., "timestamp": ...}, "cache_hit": false}
              {"v": 1, "status": "error", "error": "..."}

Every request line gets exactly one response line; a line that is not UTF-8
JSON, a bad config or a failed run gets an error response on the open
connection.  One connection is served at a time and others queue; one idle
for ``IDLE_TIMEOUT_S``, far above a paper-scale gap between requests, is
dropped.

A request may carry an ``"id"`` string, which its response echoes.  The
server keeps the response to the last request that had an id and answers a
repeat of that id with it instead of executing again, so a client that lost
a reply can re-send without running the experiment twice.
"""

from __future__ import annotations

import itertools
import json
import secrets
import socket
import socketserver
from dataclasses import dataclass

import numpy as np

from .measurement import Datum, ReferenceRates, sample_datum
from .qutrit import ExperimentConfig, SimulationAccuracyError, SpinParams
from .qutrit import survival_probability
from .smc import DriftParams, ModelParameters

PROTOCOL_VERSION = 1
IDLE_TIMEOUT_S = 600.0
# relative standard deviation of each reference after a refocus, and the
# smallest dark reference rate a drift or a refocus leaves
REFOCUS_SIGMA = 0.01
REF_FLOOR = 1e-9
# Per-shot pulse-sequence timings (ns): the preparation laser, settling, each
# of the three measurement windows and the adiabatic dark-reference transfer.
# Invented values; real setups calibrate them independently.
PREPARE_NS = 3000.0
SETTLE_NS = 1000.0
MEASURE_NS = 300.0
ADIABATIC_NS = 2000.0
# per-request overheads (s): uploading a new waveform, any request, a track
UPLOAD_LATENCY_S = 0.5
REQUEST_OVERHEAD_S = 0.01
TRACK_DURATION_S = 5.0


class LabProtocolError(RuntimeError):
    """The peer answered with an error status or an unusable message."""


class LabConnectionError(ConnectionError):
    """The experiment computer could not be reached."""


def experiment_seconds(config: ExperimentConfig) -> float:
    """Simulated seconds the pulse sequence of ``config`` takes, all shots."""
    per_shot = (
        PREPARE_NS
        + SETTLE_NS
        + config.evolution_time
        + 3.0 * MEASURE_NS
        + ADIABATIC_NS
    )
    return config.repetitions * per_shot * 1e-9


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
    to their nominal values up to a relative refocus error ``REFOCUS_SIGMA``.
    ``clock`` counts simulated seconds by the module's timing constants.

    ``_waveforms``, the one waveform store, maps each shape a successful run
    uploaded to the truth's survival probability; ``uploads`` is its size.
    """

    truth: ModelParameters
    rng: np.random.Generator

    def __post_init__(self):
        self.clock = 0.0  # simulated seconds
        self.alpha = self.truth.refs.bright
        self.beta = self.truth.refs.dark
        self._waveforms = {}
        self.cache_hits = 0
        self.tracking_count = 0

    @property
    def uploads(self) -> int:
        return len(self._waveforms)

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
        shape = config.shape
        cache_hit = shape in self._waveforms
        if cache_hit:
            p = self._waveforms[shape]
        else:
            p = survival_probability(self.truth.spin, config)
        clock = self.clock if cache_hit else self.clock + UPLOAD_LATENCY_S
        elapsed = experiment_seconds(config) + REQUEST_OVERHEAD_S
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
        self._waveforms[shape] = p
        self.cache_hits += cache_hit
        return datum, cache_hit

    def track(self) -> None:
        """Refocus: restore the references to nominal up to a refocus error."""
        self.clock += TRACK_DURATION_S
        eps_a, eps_b = self.rng.normal(0.0, REFOCUS_SIGMA, size=2)
        self.alpha, self.beta = _reflect_refs(
            self.truth.refs.bright * (1.0 + eps_a),
            self.truth.refs.dark * (1.0 + eps_b),
        )
        self.tracking_count += 1


def _reflect_refs(alpha: float, beta: float) -> tuple:
    beta = max(abs(beta), REF_FLOOR)
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
                response = self.server.respond(raw)
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

    def respond(self, line: bytes | str) -> dict:
        """The response to one request line; a repeated id gets the stored one."""
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            message = json.loads(line)
        except (ValueError, RecursionError) as err:  # not UTF-8, bad or too deep
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


def serve(bind_address: str, system: TrueSystem) -> None:
    """Serve requests forever (CLI entry point)."""
    host, port = _parse_address(bind_address)
    with LabServer(system, (host, port)) as server:
        print(f"experiment server listening on {server.address}", flush=True)
        server.serve_forever()


def _parse_address(address: str) -> tuple:
    """(host, port) of ``[tcp://]host:port``, the port an integer in 0-65535:
    ``getaddrinfo`` would take a larger one modulo 65536, as another port."""
    host, _, port = address.removeprefix("tcp://").rpartition(":")
    if not (host and port.isdecimal() and int(port) <= 65535):
        raise ValueError(f"address must be host:port, port 0-65535; got {address!r}")
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
        try:
            response = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):  # bad JSON or UTF-8, or too deep
            response = None
        if not isinstance(response, dict):
            raise LabProtocolError(f"reply is not a JSON object: {line[:80]!r}")
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
        try:
            datum = Datum.from_dict(response["datum"])
            if datum.repetitions != config.repetitions:
                raise ValueError(f"N is not the {config.repetitions} requested")
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            reply = str(response)[:200]
            raise LabProtocolError(f"no usable datum in reply {reply}") from err
        return datum

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
