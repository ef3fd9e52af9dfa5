#!/usr/bin/env python3
"""Soak test for the `ftsynth serve` daemon.

Usage:
    tools/soak_service.py [--ftsynth PATH] [--requests N] [--clients N]

Drives a live daemon through ~200 mixed requests (default) and checks the
robustness ladder end to end, from outside the process boundary:

  * valid analyse/report/fmea/info traffic across engines (including the
    anytime bound engine at several convergence targets) and order
    policies, byte-compared against fresh serial CLI runs of the same
    flags (the daemon's byte-identity contract);
  * malformed JSON lines, unknown commands and unbudgeted requests, which
    must each earn their distinct wire error and never take the daemon
    down;
  * requests for missing and malformed model files, which must degrade
    into the CLI's diagnostic exit codes inside an ok envelope;
  * tiny deadlines, which must come back promptly as either a partial
    result or a `deadline` shed -- never a hang;
  * a mid-run SIGKILL of the daemon followed by a restart, which starts
    cold: the new daemon must answer the same requests byte-identically
    (a crash costs warm state, never correctness);
  * an orderly `shutdown` request, after which the process must exit 0.

Exits non-zero on the first contract violation, printing what diverged.
CI runs this as the daemon soak job; it is also handy interactively when
touching src/service/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time


class Client:
    """Line-delimited JSON client for one daemon connection."""

    def __init__(self, socket_path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120)
        self.sock.connect(socket_path)
        self.buffer = b""

    def call(self, request: dict) -> dict:
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def send_raw(self, line: bytes) -> dict:
        self.sock.sendall(line + b"\n")
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer += chunk
        response, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(response)

    def close(self) -> None:
        self.sock.close()


def wait_for_socket(path: str, process: subprocess.Popen, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"daemon exited early with {process.returncode}"
            )
        if os.path.exists(path):
            try:
                Client(path).close()
                return
            except OSError:
                pass
        time.sleep(0.05)
    raise RuntimeError("daemon socket never came up")


def start_daemon(ftsynth: str, sock: str) -> subprocess.Popen:
    if os.path.exists(sock):
        os.unlink(sock)
    process = subprocess.Popen(
        [ftsynth, "serve", "--socket", sock, "--executors", "2"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    wait_for_socket(sock, process)
    return process


def serial_reference(ftsynth: str, args: list[str]) -> tuple[int, bytes]:
    run = subprocess.run(
        [ftsynth] + args + ["--jobs", "1"], capture_output=True, check=False
    )
    return run.returncode, run.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ftsynth", default="./build/tools/ftsynth")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--seed", type=int, default=20010423)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    workdir = tempfile.mkdtemp(prefix="ftsynth_soak_")
    sock = os.path.join(workdir, "daemon.sock")

    malformed_model = os.path.join(workdir, "malformed.mdl")
    with open(malformed_model, "w", encoding="utf-8") as handle:
        handle.write('Model { Name "broken" System { Block {')  # truncated

    # The valid workload: (request fields, CLI flags) pairs whose daemon
    # output must be byte-identical to the serial CLI.
    model = "examples/duplex.mdl"
    workload = []
    for engine in ("micsup", "mocus", "zbdd"):
        for order in ("static", "sift"):
            workload.append(
                (
                    {"command": "analyse", "model": model, "engine": engine,
                     "order": order},
                    ["analyse", model, "--engine", engine, "--order", order],
                )
            )
    # FMEA on the zbdd engine, which keeps its diagram for the columns.
    workload.append(
        (
            {"command": "fmea", "model": model, "engine": "zbdd"},
            ["fmea", model, "--engine", "zbdd"],
        )
    )
    # The anytime bound engine: default convergence target, an explicit
    # tight target (distinct response-memo key), and a run-to-exhaustion
    # request -- all byte-identical to the serial CLI.
    workload.append(
        (
            {"command": "analyse", "model": model, "engine": "bound"},
            ["analyse", model, "--engine", "bound"],
        )
    )
    workload.append(
        (
            {"command": "analyse", "model": model, "engine": "bound",
             "bound_epsilon": 1e-9},
            ["analyse", model, "--engine", "bound", "--bound-epsilon", "1e-9"],
        )
    )
    workload.append(
        (
            {"command": "report", "model": model, "engine": "bound",
             "bound_epsilon": -1},
            ["report", model, "--engine", "bound", "--bound-epsilon", "-1"],
        )
    )
    workload.append(({"command": "info", "model": model}, ["info", model]))
    workload.append(({"command": "fmea", "model": model}, ["fmea", model]))
    workload.append(({"command": "report", "model": model}, ["report", model]))
    # Open-PSA event-tree traffic: the daemon sniffs the XML model, runs
    # the sequence pipeline, and must answer byte-identically to the
    # serial CLI -- including the structured `sequences` wire field, which
    # rides through the response memo (checked below for every ok
    # analyse/report answer on this model).
    xml_model = "tests/openpsa/event_tree.xml"
    workload.append(
        ({"command": "analyse", "model": xml_model}, ["analyse", xml_model])
    )
    workload.append(
        (
            {"command": "analyse", "model": xml_model, "engine": "bound",
             "bound_epsilon": -1},
            ["analyse", xml_model, "--engine", "bound",
             "--bound-epsilon", "-1"],
        )
    )
    workload.append(
        ({"command": "report", "model": xml_model}, ["report", xml_model])
    )
    workload.append(
        ({"command": "info", "model": xml_model}, ["info", xml_model])
    )

    print("computing serial references ...")
    references = [serial_reference(args.ftsynth, flags) for _, flags in workload]
    for (request, flags), (code, _) in zip(workload, references):
        if code != 0:
            print(f"reference run failed: {flags} -> {code}", file=sys.stderr)
            return 1

    failures: list[str] = []
    counters = {"ok": 0, "wire_error": 0}

    def check(response: dict, request: dict, reference: tuple[int, bytes] | None) -> None:
        if reference is not None:
            code, stdout = reference
            if response.get("status") != "ok":
                failures.append(f"{request}: expected ok, got {response}")
            elif response.get("exit_code") != code:
                failures.append(
                    f"{request}: exit {response.get('exit_code')} != {code}"
                )
            elif response.get("output", "").encode() != stdout:
                failures.append(f"{request}: output diverged from serial CLI")
            elif (
                request.get("model", "").endswith(".xml")
                and request["command"] in ("analyse", "report")
                and len(response.get("sequences", [])) != 2
            ):
                # Both LOSP sequences must arrive as structured rows on
                # every answer -- cold, warm, and memo-replayed alike.
                failures.append(f"{request}: missing sequences field")
            else:
                counters["ok"] += 1
        else:
            counters["wire_error"] += 1

    def run_mixed_traffic(count: int) -> None:
        clients = [Client(sock) for _ in range(args.clients)]
        try:
            for i in range(count):
                client = clients[i % len(clients)]
                roll = rng.random()
                if roll < 0.55:
                    index = rng.randrange(len(workload))
                    request = dict(workload[index][0])
                    request["deadline_ms"] = 600000
                    request["id"] = i
                    response = client.call(request)
                    check(response, request, references[index])
                elif roll < 0.65:  # malformed JSON: bad-request, no crash
                    response = client.send_raw(b'{"command": "analyse", ')
                    if response.get("error") != "bad-request":
                        failures.append(f"malformed JSON -> {response}")
                    counters["wire_error"] += 1
                elif roll < 0.72:  # unknown command
                    response = client.call(
                        {"command": "explode", "model": model,
                         "deadline_ms": 1000}
                    )
                    if response.get("error") != "bad-request":
                        failures.append(f"unknown command -> {response}")
                    counters["wire_error"] += 1
                elif roll < 0.79:  # missing budget
                    response = client.call({"command": "info", "model": model})
                    if response.get("error") != "budget-required":
                        failures.append(f"unbudgeted -> {response}")
                    counters["wire_error"] += 1
                elif roll < 0.86:  # malformed model: degrades inside ok envelope
                    response = client.call(
                        {"command": "analyse", "model": malformed_model,
                         "deadline_ms": 600000}
                    )
                    if response.get("status") == "ok":
                        if response.get("exit_code") == 0:
                            failures.append("malformed model analysed cleanly")
                    else:
                        failures.append(f"malformed model -> {response}")
                    counters["wire_error"] += 1
                elif roll < 0.93:  # missing model file
                    response = client.call(
                        {"command": "analyse", "model": "/nonexistent.mdl",
                         "deadline_ms": 600000}
                    )
                    if response.get("status") != "ok" or response.get("exit_code") != 2:
                        failures.append(f"missing model -> {response}")
                    counters["wire_error"] += 1
                else:  # tiny deadline: partial result or deadline shed, never a hang
                    request = {"command": "fmea", "model": model,
                               "deadline_ms": 1}
                    response = client.call(request)
                    if response.get("status") == "error" and response.get(
                        "error"
                    ) not in ("deadline", "overloaded"):
                        failures.append(f"tiny deadline -> {response}")
                    counters["wire_error"] += 1
        finally:
            for client in clients:
                client.close()

    half = args.requests // 2
    print(f"phase 1: {half} mixed requests against a cold daemon ...")
    daemon = start_daemon(args.ftsynth, sock)
    run_mixed_traffic(half)

    # Kill hard: no shutdown handler runs, exactly like a crash.
    print("SIGKILL mid-run; restarting cold ...")
    daemon.send_signal(signal.SIGKILL)
    daemon.wait()

    daemon = start_daemon(args.ftsynth, sock)
    print(f"phase 2: {args.requests - half} mixed requests after the crash ...")
    run_mixed_traffic(args.requests - half)

    print("orderly shutdown ...")
    shutdown_client = Client(sock)
    response = shutdown_client.call({"command": "shutdown"})
    shutdown_client.close()
    if response.get("status") != "ok":
        failures.append(f"shutdown -> {response}")
    exit_code = daemon.wait(timeout=60)
    if exit_code != 0:
        failures.append(f"daemon exited {exit_code} after shutdown")

    print(
        f"done: {counters['ok']} byte-checked ok responses, "
        f"{counters['wire_error']} degraded/error paths exercised"
    )
    if failures:
        print(f"\n{len(failures)} contract violation(s):", file=sys.stderr)
        for failure in failures[:20]:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("soak passed: no contract violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
