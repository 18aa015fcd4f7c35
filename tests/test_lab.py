import json
import socket
import threading

import numpy as np
import pytest

from nvbed import lab as labmod
from nvbed.lab import (
    InProcessLab,
    LabClient,
    LabConnectionError,
    LabProtocolError,
    LabServer,
    TrueSystem,
    default_truth,
)
from nvbed.measurement import ReferenceRates
from nvbed.qutrit import ExperimentConfig, SpinParams
from nvbed.smc import DriftParams, ModelParameters
from helpers import serve_in_background

RUN_CFG = ExperimentConfig("rabi", pulse_time=22.0, repetitions=500)


def make_truth(sigma=0.036, alpha=0.05, beta=0.02):
    return ModelParameters(
        spin=SpinParams(11.55, 2.0, -0.86, 2.18, 0.35),
        refs=ReferenceRates(alpha, beta),
        drift=DriftParams(sigma, sigma, 0.7),
    )


def make_system(seed=0, **kwargs):
    return TrueSystem(make_truth(**kwargs), np.random.default_rng(seed))


class LostReplyServer(LabServer):
    """Executes the first run, then drops the connection instead of replying."""

    def __init__(self, system):
        super().__init__(system)
        self.dropped = 0

    def respond(self, line):
        response = super().respond(line)
        if not self.dropped and "datum" in response:
            self.dropped += 1
            raise ConnectionResetError("reply lost")
        return response

    def handle_error(self, request, client_address):
        pass  # the lost reply is the point of this server


@pytest.fixture
def server():
    system = make_system(seed=42)
    srv = LabServer(system, ("127.0.0.1", 0))
    serve_in_background(srv)
    yield srv
    srv.shutdown()
    srv.server_close()


class TestWaveformCache:
    def test_equal_configs_share_keys(self):
        a = ExperimentConfig("rabi", pulse_time=22.0, repetitions=100)
        b = ExperimentConfig("rabi", pulse_time=22.0, repetitions=100)
        assert a.shape == b.shape

    def test_repetitions_do_not_change_the_waveform(self):
        a = ExperimentConfig("rabi", pulse_time=22.0, repetitions=100)
        b = ExperimentConfig("rabi", pulse_time=22.0, repetitions=9000)
        assert a.shape == b.shape

    def test_pulse_timing_changes_key(self):
        a = ExperimentConfig("rabi", pulse_time=22.0)
        b = ExperimentConfig("rabi", pulse_time=24.0)
        c = ExperimentConfig("ramsey", pulse_time=22.0, wait_time=40.0)
        keys = {a.shape, b.shape, c.shape}
        assert len(keys) == 3

    def test_cache_hit_skips_upload_latency(self):
        system = make_system(sigma=0.0)
        t0 = system.clock
        system.execute(RUN_CFG)
        first = system.clock - t0
        t1 = system.clock
        system.execute(RUN_CFG)
        second = system.clock - t1
        assert system.uploads == 1
        assert system.cache_hits == 1
        assert first - second == pytest.approx(labmod.UPLOAD_LATENCY_S)


class TestTrueSystem:
    def test_zero_drift_keeps_references_constant(self):
        system = make_system(sigma=0.0)
        for _ in range(20):
            system.execute(RUN_CFG)
        assert system.alpha == 0.05
        assert system.beta == 0.02

    def test_bright_rate_recovered_at_unit_survival(self):
        # a vanishing pulse keeps the spin in |0>, so Z ~ Poisson(N alpha)
        system = make_system(sigma=0.0)
        cfg = ExperimentConfig("rabi", pulse_time=1e-6, repetitions=3000)
        draws = np.array(
            [system.execute(cfg)[0].signal_counts / 3000 for _ in range(300)]
        )
        sigma_mc = np.sqrt(0.05 / 3000 / 300)
        assert draws.mean() == pytest.approx(0.05, abs=4 * sigma_mc)

    def test_reflection_keeps_references_ordered(self):
        system = make_system(sigma=5.0)  # absurdly fast drift
        for _ in range(500):
            system.execute(RUN_CFG)
            assert 0.0 < system.beta < system.alpha

    def test_tracking_restores_nominal_references(self):
        system = make_system(seed=3, sigma=2.0)
        for _ in range(50):
            system.execute(RUN_CFG)
        drifted = abs(system.alpha - 0.05)
        assert drifted > 0.005  # the walk has wandered
        system.track()
        assert abs(system.alpha - 0.05) <= 4 * labmod.REFOCUS_SIGMA * 0.05
        assert abs(system.beta - 0.02) <= 4 * labmod.REFOCUS_SIGMA * 0.02
        assert system.tracking_count == 1

    def test_clock_advances_by_experiment_duration(self, monkeypatch):
        monkeypatch.setattr(labmod, "UPLOAD_LATENCY_S", 0.0)
        monkeypatch.setattr(labmod, "REQUEST_OVERHEAD_S", 0.0)
        system = make_system(sigma=0.0)
        system.execute(RUN_CFG)
        per_shot_ns = 3000 + 1000 + 22.0 + 3 * 300 + 2000
        assert system.clock == pytest.approx(500 * per_shot_ns * 1e-9)
        # a Ramsey shot evolves for both pulses and the wait
        start = system.clock
        system.execute(
            ExperimentConfig("ramsey", pulse_time=22.0, wait_time=40.0, repetitions=300)
        )
        per_shot_ns = 3000 + 1000 + (2 * 22.0 + 40.0) + 3 * 300 + 2000
        assert system.clock - start == pytest.approx(300 * per_shot_ns * 1e-9)
        monkeypatch.setattr(labmod, "TRACK_DURATION_S", 7.25)
        start = system.clock
        system.track()
        assert system.clock - start == pytest.approx(7.25)

    def test_identical_seeds_replay_identically(self):
        configs = [
            ExperimentConfig("rabi", pulse_time=float(t), repetitions=200)
            for t in (10, 20, 10, 30)
        ] + [ExperimentConfig("ramsey", pulse_time=22.0, wait_time=100.0, repetitions=50)]
        runs = []
        for _ in range(2):
            system = make_system(seed=7)
            data = []
            for cfg in configs:
                datum, _ = system.execute(cfg)
                data.append(datum)
            system.track()
            datum, _ = system.execute(configs[0])
            data.append(datum)
            runs.append(data)
        assert runs[0] == runs[1]


class TestInProcessLab:
    def test_run_and_cache_flag(self):
        lab = InProcessLab(make_system(seed=1))
        datum = lab.run(RUN_CFG)
        assert lab.last_cache_hit is False
        assert datum.repetitions == 500
        lab.run(RUN_CFG)
        assert lab.last_cache_hit is True
        assert lab.ping()


class TestTcpService:
    def test_ping(self, server):
        with LabClient(server.address) as client:
            assert client.ping()

    def test_run_returns_valid_datum(self, server):
        with LabClient(server.address) as client:
            datum = client.run(RUN_CFG)
            assert datum.repetitions == 500
            assert min(datum.bright_counts, datum.dark_counts, datum.signal_counts) >= 0
            assert datum.timestamp > 0

    def test_repeat_config_reports_cache_hit(self, server):
        with LabClient(server.address) as client:
            client.run(RUN_CFG)
            assert client.last_cache_hit is False
            client.run(RUN_CFG)
            assert client.last_cache_hit is True

    def test_track_round_trip(self, server):
        with LabClient(server.address) as client:
            client.track()
            assert server.system.tracking_count == 1

    def test_config_fields_survive_the_wire_bit_exactly(self, server):
        cfg = ExperimentConfig(
            "ramsey",
            pulse_time=21.999999999999996,
            wait_time=646.0000000000001,
            drive_frequency=2870.0,
            repetitions=4667,
        )
        with LabClient(server.address) as client:
            client.run(cfg)
        assert cfg.shape in server.system._waveforms

    def test_malformed_json_keeps_connection_alive(self, server):
        with socket.create_connection(
            (server.server_address[0], server.server_address[1]), timeout=10
        ) as sock:
            with sock.makefile("rb") as reader:
                # not JSON, not UTF-8, nested deeper than the parser goes
                for line in (b"this is not json", b"\xff\xfe", b"[" * 100000):
                    sock.sendall(line + b"\n")
                    reply = json.loads(reader.readline())
                    assert reply["status"] == "error"
                    assert reply["error"].startswith("bad json")
                    sock.sendall(b'{"v": 1, "type": "ping"}\n')
                    reply = json.loads(reader.readline())
                    assert reply["status"] == "ok"

    def test_unknown_type_and_version_mismatch(self, server):
        with socket.create_connection(
            (server.server_address[0], server.server_address[1]), timeout=10
        ) as sock:
            with sock.makefile("rb") as reader:
                sock.sendall(b'{"v": 1, "type": "selfdestruct"}\n')
                assert json.loads(reader.readline())["status"] == "error"
                sock.sendall(b'{"v": 99, "type": "ping"}\n')
                reply = json.loads(reader.readline())
                assert reply["status"] == "error"
                assert "version" in reply["error"]

    def test_client_raises_typed_protocol_error(self, server):
        with LabClient(server.address) as client:
            with pytest.raises(LabProtocolError):
                client._request({"v": 1, "type": "selfdestruct"})

    @pytest.mark.parametrize(
        "reply",
        [b"garbage", b"\xff", b"[1]", b"null", pytest.param(b"[" * 100000, id="deep")],
    )
    def test_reply_that_is_not_an_object_is_a_protocol_error(self, reply):
        # a stub server answers the one request with ``reply``; every socket
        # has a timeout, so a client that waits for more fails, not hangs
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)

        def answer_once():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10)
                with conn.makefile("rb") as reader:
                    reader.readline()
                    conn.sendall(reply + b"\n")
                    reader.readline()  # hold the connection until the client closes

        stub = threading.Thread(target=answer_once, daemon=True)
        stub.start()
        host, port = listener.getsockname()
        try:
            with LabClient(f"{host}:{port}", timeout=10) as client:
                with pytest.raises(LabProtocolError, match="not a JSON object"):
                    client.ping()
        finally:
            stub.join(timeout=10)
            listener.close()
        assert not stub.is_alive()

    @pytest.mark.parametrize(
        "datum",
        [
            "absent",
            {"X": 1, "Z": 1, "N": 10},  # no dark count
            {"X": "a", "Y": 1, "Z": 1, "N": 10},
            {"X": -1, "Y": 1, "Z": 1, "N": 10},
            None,
            # nothing is coerced: each below is one wrong field of a datum
            # that answers RUN_CFG
            {"X": 1.7, "Y": 1, "Z": 1, "N": 500},
            {"X": 1, "Y": True, "Z": 1, "N": 500},
            {"X": 1, "Y": 1, "Z": "3", "N": 500},
            {"X": 1, "Y": 1, "Z": 1, "N": 500.0},
            {"X": 1, "Y": 1, "Z": 1, "N": 10},  # not the requested N
            {"X": 1, "Y": 1, "Z": 1, "N": 500, "timestamp": "5"},
            {"X": 1, "Y": 1, "Z": 1, "N": 500, "timestamp": float("nan")},
            {"X": 1, "Y": 1, "Z": 1, "N": 500, "timestamp": float("inf")},
        ],
    )
    def test_reply_with_a_malformed_datum_is_a_protocol_error(self, datum):
        # a one-shot stub answers the run with an ok reply to its id that
        # carries ``datum``
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)
        reply = {"v": 1, "status": "ok", "cache_hit": False}
        if datum != "absent":
            reply["datum"] = datum

        def answer_once():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10)
                with conn.makefile("rb") as reader:
                    request = json.loads(reader.readline())
                    answer = {**reply, "id": request["id"]}
                    conn.sendall((json.dumps(answer) + "\n").encode())
                    reader.readline()  # hold the connection until the client closes

        stub = threading.Thread(target=answer_once, daemon=True)
        stub.start()
        host, port = listener.getsockname()
        try:
            with LabClient(f"{host}:{port}", timeout=10) as client:
                with pytest.raises(LabProtocolError, match="no usable datum") as err:
                    client.run(RUN_CFG)
        finally:
            stub.join(timeout=10)
            listener.close()
        assert not stub.is_alive()
        assert "'status': 'ok'" in str(err.value)  # names the reply

    def test_server_down_raises_connection_error(self):
        with pytest.raises(LabConnectionError):
            LabClient("127.0.0.1:1")  # reserved port, nothing listening

    def test_soak_one_thousand_requests(self, server):
        configs = [
            ExperimentConfig("rabi", pulse_time=2.0 * (1 + i % 50), repetitions=10)
            for i in range(1000)
        ]
        with LabClient(server.address) as client:
            for i, cfg in enumerate(configs):
                datum = client.run(cfg)
                assert datum.repetitions == 10
                if i % 100 == 0:
                    assert client.ping()

    def test_one_response_line_per_request_line(self, server):
        with socket.create_connection(
            (server.server_address[0], server.server_address[1]), timeout=10
        ) as sock:
            with sock.makefile("rb") as reader:
                burst = (
                    b'{"v": 1, "type": "ping"}\n'
                    b"garbage\n"
                    b'{"v": 1, "type": "run", "config": {"kind": "rabi", "pulse_time": 8.0, "repetitions": 5}}\n'
                )
                sock.sendall(burst)
                replies = [json.loads(reader.readline()) for _ in range(3)]
                assert [r["status"] for r in replies] == ["ok", "error", "ok"]


class TestIdleConnection:
    def test_silent_client_is_dropped(self, monkeypatch):
        monkeypatch.setattr(labmod, "IDLE_TIMEOUT_S", 0.2)
        srv = LabServer(make_system(seed=42), ("127.0.0.1", 0))
        thread = serve_in_background(srv)
        try:
            with socket.create_connection(srv.server_address[:2], timeout=10):
                # the silent connection holds the one-connection server
                # until it has been idle for IDLE_TIMEOUT_S
                with LabClient(srv.address, timeout=5) as client:
                    assert client.ping()
        finally:
            srv.shutdown()
            srv.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestLostReply:
    def test_retried_run_executes_once(self):
        srv = LostReplyServer(make_system(seed=42))
        serve_in_background(srv)
        try:
            with LabClient(srv.address) as client:
                datum = client.run(RUN_CFG)
        finally:
            srv.shutdown()
            srv.server_close()
        reference = make_system(seed=42)
        expected, _ = reference.execute(RUN_CFG)
        assert srv.dropped == 1
        assert datum == expected
        assert srv.system.clock == reference.clock
        assert srv.system.uploads == reference.uploads == 1
        assert srv.system.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_repeated_id_replays_and_new_id_executes(self, server):
        line = json.dumps({"v": 1, "type": "track", "id": "a-1"})
        first = server.respond(line)
        assert server.respond(line) is first
        assert first["id"] == "a-1"
        assert server.system.tracking_count == 1
        server.respond(json.dumps({"v": 1, "type": "track", "id": "a-2"}))
        server.respond(json.dumps({"v": 1, "type": "track"}))
        server.respond(json.dumps({"v": 1, "type": "track"}))
        assert server.system.tracking_count == 4


def lab_state(system):
    return (
        system.clock,
        system.alpha,
        system.beta,
        system.uploads,
        system.cache_hits,
        system.rng.bit_generator.state,
        frozenset(system._waveforms),
    )


class TestNonFiniteConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("wait_time", "NaN"),
            ("pulse_time", "Infinity"),
            ("drive_frequency", "NaN"),
            ("wait_time", "-Infinity"),
            ("repetitions", "1e400"),
        ],
    )
    def test_rejected_without_touching_the_lab(self, server, field, value):
        config = {
            "kind": "ramsey",
            "pulse_time": 22.0,
            "wait_time": 300.0,
            "drive_frequency": 2870.0,
            "repetitions": 500,
        }
        text = json.dumps({**config, field: "VALUE"}).replace('"VALUE"', value)
        bad = f'{{"v": 1, "type": "run", "config": {text}}}\n'.encode()
        before = lab_state(server.system)
        with socket.create_connection(
            (server.server_address[0], server.server_address[1]), timeout=10
        ) as sock:
            with sock.makefile("rb") as reader:
                sock.sendall(bad)
                reply = json.loads(reader.readline())
                assert reply["status"] == "error"
                assert reply["error"].startswith("bad config")
                assert lab_state(server.system) == before
                good = {"v": 1, "type": "run", "config": config}
                sock.sendall((json.dumps(good) + "\n").encode())
                assert json.loads(reader.readline())["status"] == "ok"
        assert server.system.uploads == before[3] + 1

    @pytest.mark.parametrize("value", ["1e300", str(2**53 + 1)])
    def test_huge_repetitions_rejected_without_touching_the_lab(self, server, value):
        # a rate past numpy's Poisson limit used to raise only after the
        # clock and the references had moved
        config = {"kind": "rabi", "pulse_time": 20.0, "repetitions": 500}
        text = json.dumps({**config, "repetitions": "VALUE"}).replace('"VALUE"', value)
        bad = f'{{"v": 1, "type": "run", "config": {text}}}\n'.encode()
        before = lab_state(server.system)
        # the reader is closed on every path: an open one keeps the
        # connection, and with it the one-connection server, busy
        address = server.server_address[:2]
        with socket.create_connection(address, timeout=10) as sock:
            with sock.makefile("rb") as reader:
                sock.sendall(bad)
                reply = json.loads(reader.readline())
                assert reply["status"] == "error"
                assert reply["error"].startswith("bad config")
                assert lab_state(server.system) == before
                good = {"v": 1, "type": "run", "config": config}
                sock.sendall((json.dumps(good) + "\n").encode())
                reply = json.loads(reader.readline())
        assert reply["status"] == "ok"
        assert reply["datum"]["N"] == 500
        assert server.system.uploads == before[3] + 1

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "rabi", "pulse_time": 1e300, "repetitions": 10},
            {"kind": "ramsey", "pulse_time": 20, "wait_time": 1e300, "repetitions": 10},
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_leaves_the_lab_as_it_was(self, server, config):
        # finite but unphysical timings: the first simulates to nan, the
        # second drifts the references past numpy's Poisson limit
        before = lab_state(server.system)
        address = server.server_address[:2]
        with socket.create_connection(address, timeout=10) as sock:
            with sock.makefile("rb") as reader:
                bad = {"v": 1, "type": "run", "config": config}
                sock.sendall((json.dumps(bad) + "\n").encode())
                reply = json.loads(reader.readline())
                assert reply["status"] == "error"
                assert reply["error"].startswith("run failed")
                assert lab_state(server.system) == before
                good = {"v": 1, "type": "run", "config": RUN_CFG.to_dict()}
                sock.sendall((json.dumps(good) + "\n").encode())
                reply = json.loads(reader.readline())
        assert reply["status"] == "ok"
        assert reply["datum"]["N"] == RUN_CFG.repetitions
        assert server.system.uploads == before[3] + 1
        assert server.system.clock < 1e3

    @pytest.mark.parametrize("value", ["2.9", "true", '"500"'])
    def test_non_integral_repetitions_rejected_without_touching_the_lab(
        self, server, value
    ):
        # 2.9 used to run int(2.9) = 2 shots and reply ok
        config = {"kind": "rabi", "pulse_time": 20.0, "repetitions": 500}
        text = json.dumps({**config, "repetitions": "VALUE"}).replace('"VALUE"', value)
        bad = f'{{"v": 1, "type": "run", "config": {text}}}\n'.encode()
        before = lab_state(server.system)
        address = server.server_address[:2]
        with socket.create_connection(address, timeout=10) as sock:
            with sock.makefile("rb") as reader:
                sock.sendall(bad)
                reply = json.loads(reader.readline())
                assert reply["status"] == "error"
                assert reply["error"].startswith("bad config")
                assert lab_state(server.system) == before
                good = {"v": 1, "type": "run", "config": config}
                sock.sendall((json.dumps(good) + "\n").encode())
                reply = json.loads(reader.readline())
        assert reply["status"] == "ok"
        assert reply["datum"]["N"] == 500
        assert server.system.uploads == before[3] + 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pulse_time", '"22"'),
            ("pulse_time", "true"),
            ("wait_time", '"300"'),
            ("drive_frequency", "false"),
        ],
    )
    def test_non_numeric_timing_rejected_without_touching_the_lab(
        self, server, field, value
    ):
        # "22" used to run as a 22 ns pulse and true as a 1 ns pulse
        config = {
            "kind": "ramsey",
            "pulse_time": 22.0,
            "wait_time": 300.0,
            "drive_frequency": 2870.0,
            "repetitions": 500,
        }
        text = json.dumps({**config, field: "VALUE"}).replace('"VALUE"', value)
        bad = f'{{"v": 1, "type": "run", "config": {text}}}\n'.encode()
        before = lab_state(server.system)
        address = server.server_address[:2]
        with socket.create_connection(address, timeout=10) as sock:
            with sock.makefile("rb") as reader:
                sock.sendall(bad)
                reply = json.loads(reader.readline())
                assert reply["status"] == "error"
                assert reply["error"].startswith("bad config")
                assert field in reply["error"]
                assert lab_state(server.system) == before
                good = {"v": 1, "type": "run", "config": config}
                sock.sendall((json.dumps(good) + "\n").encode())
                reply = json.loads(reader.readline())
        assert reply["status"] == "ok"
        assert server.system.uploads == before[3] + 1

    def test_repetitions_up_to_2_to_the_53(self):
        assert ExperimentConfig("rabi", 20.0, repetitions=2**53).repetitions == 2**53
        with pytest.raises(ValueError, match="repetitions"):
            ExperimentConfig("rabi", 20.0, repetitions=2**53 + 1)
