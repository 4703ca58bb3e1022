"""Starting, watching and stopping the system under test.

The daemon and the coordinator are the shipped entry points,
``python -m repro.cli serve`` and ``python -m repro.cli fleet serve``,
started as subprocesses on ephemeral loopback ports; the traced variant
starts the same entry points through ``perfbench/traced.py``.  What the
benchmark learns about them comes from their ready lines, their RPC
ops, and ``/proc/<pid>``.
"""

from __future__ import annotations

import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.service.rpc import rpc_call

HOST = "127.0.0.1"

_DAEMON_READY = re.compile(
    r"repro\.service up: .* udp=(\d+) tcp=(\d+) rpc=(\d+)"
)
_FLEET_READY = re.compile(r"repro\.fleet coordinator up: rpc=(\d+)")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Proc:
    """One SUT subprocess."""

    def __init__(
        self, argv: List[str], root: str, workdir: str, tag: str,
        trace: bool, cpus: Set[int],
    ) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.trace_path: Optional[str] = None
        if trace:
            self.trace_path = os.path.join(workdir, f"{tag}.spans.json")
            env["PERFBENCH_TRACE_OUT"] = self.trace_path
            entry = [os.path.join(root, "perfbench", "traced.py")]
        else:
            entry = ["-m", "repro.cli"]
        self.tag = tag
        self.log_path = os.path.join(workdir, f"{tag}.log")
        self._log = open(self.log_path, "wb")
        self.popen = subprocess.Popen(
            [sys.executable] + entry + argv,
            stdout=subprocess.PIPE, stderr=self._log, stdin=subprocess.DEVNULL,
            cwd=root, env=env,
        )
        os.sched_setaffinity(self.popen.pid, cpus)
        self._buf = b""

    @property
    def pid(self) -> int:
        return self.popen.pid

    def read_line(self, pattern: "re.Pattern", deadline: float) -> "re.Match":
        """Block until a stdout line matches ``pattern``."""
        fd = self.popen.stdout.fileno()
        while True:
            while b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                match = pattern.search(line.decode("utf-8", "replace"))
                if match:
                    return match
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"{self.tag}: no ready line in time")
            ready, _, _ = select.select([fd], [], [], min(left, 0.5))
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BenchError(
                        f"{self.tag} exited with {self.popen.wait()} before "
                        f"its ready line; see {self.log_path}"
                    )
                self._buf += chunk

    def vm_hwm_mib(self) -> float:
        """Peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError(f"{self.tag}: no VmHWM in /proc/{self.pid}/status")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, wait for the graceful exit, kill if it hangs."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(timeout)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
        if self.popen.stdout is not None:
            self.popen.stdout.close()
        self._log.close()
        return self.popen.returncode

    def kill(self) -> None:
        if self.popen.poll() is None:
            self.popen.kill()
        self.popen.wait()
        if self.popen.stdout is not None:
            self.popen.stdout.close()
        self._log.close()


@dataclass
class Daemon:
    proc: Proc
    udp: int
    tcp: int
    rpc: int


@dataclass
class System:
    """A live SUT: one daemon, or a coordinator plus daemons."""

    daemons: List[Daemon]
    coordinator: Optional[Proc] = None
    coordinator_rpc: Optional[int] = None
    setup_s: float = 0.0
    procs: List[Proc] = field(default_factory=list)

    @property
    def query_rpc(self) -> int:
        """Where ``top`` queries and epoch cycles go."""
        if self.coordinator_rpc is not None:
            return self.coordinator_rpc
        return self.daemons[0].rpc

    def stats(self, i: int) -> dict:
        return rpc_call(HOST, self.daemons[i].rpc, "stats", timeout=30.0)

    def metrics(self, i: int) -> dict:
        return rpc_call(HOST, self.daemons[i].rpc, "metrics", timeout=30.0)

    def fleet_metrics(self) -> dict:
        return rpc_call(HOST, self.coordinator_rpc, "metrics", timeout=30.0)

    def rss_mib(self) -> float:
        return max(p.vm_hwm_mib() for p in self.procs)

    def stop(self) -> List[str]:
        """Stop daemons first, then the coordinator; return the span
        files the traced processes wrote."""
        order = [d.proc for d in self.daemons]
        if self.coordinator is not None:
            self._await_register_answers()
            order.append(self.coordinator)
        codes = [(p, p.stop()) for p in order]
        bad = [f"{p.tag}={code}" for p, code in codes if code != 0]
        if bad:
            raise BenchError(f"unclean exit: {', '.join(bad)}")
        return [p.trace_path for p in order if p.trace_path]

    def _await_register_answers(self, timeout: float = 10.0) -> None:
        """Wait until every member holds the answer to its ``register``
        call.  The coordinator counts a member ``alive`` before that
        answer arrives, and a member stopped in between never finishes
        its shutdown on Python 3.11: ``asyncio.wait_for`` hands its
        fleet agent the answer in place of the cancellation, so the
        agent keeps heartbeating and the daemon's goodbye waits for it
        forever.  Stopping right after set-up hit that about once in
        200 stops."""
        give_up = time.monotonic() + timeout
        for i in range(len(self.daemons)):
            while not any(
                m["name"] == "repro_fleet_registrations" and m["value"] >= 1
                for m in self.metrics(i).get("metrics", [])
            ):
                if time.monotonic() > give_up:
                    raise BenchError(f"d{i} never got its register answer")
                time.sleep(0.005)

    def kill(self) -> None:
        for p in self.procs:
            p.kill()


def cpu_plan(
    daemons: int, available: Set[int]
) -> Tuple[Set[int], List[Set[int]]]:
    """The CPUs of the generator and of each daemon, out of
    ``available``.

    The generator is not part of the system under test.  Left to the
    scheduler, a daemon woken by loopback traffic is often pulled onto
    the generator's CPU, and its throughput then flips between two
    levels from one second to the next.  So each daemon gets a CPU of
    its own, and the generator the CPUs no daemon has (all of them when
    the daemons take every CPU, as a fleet does on two).  The
    coordinator may use any CPU.
    """
    cpus = sorted(available)
    if len(cpus) < 2:
        return set(cpus), [set(cpus)] * daemons
    own = [{cpus[i % len(cpus)]} for i in range(daemons)]
    rest = set(cpus) - set().union(*own)
    return (rest or set(cpus)), own


def _free_tcp_port() -> int:
    """A loopback port nothing listens on right now."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def _daemon_argv(q: int, fleet: Optional[str], daemon_id: str) -> List[str]:
    argv = [
        "serve", "-q", str(q), "--host", HOST,
        "--udp-port", "0", "--tcp-port", "0", "--rpc-port", "0",
        "--log-level", "warning",
    ]
    if fleet is not None:
        argv += ["--fleet", fleet, "--daemon-id", daemon_id]
    return argv


def start(
    root: str, workdir: str, tag: str, q: int, daemons: int, trace: bool,
    deadline: float, spawned: List[Proc],
    plan: Tuple[Set[int], List[Set[int]]],
) -> System:
    """Start the SUT and wait until it serves: the daemon's ready line,
    or, for a fleet, every member ``alive`` in the coordinator's
    ``status``.  ``setup_s`` is the wall time from the first spawn.
    Every process started is also appended to ``spawned``, so the
    caller can reap it whatever happens."""
    procs: List[Proc] = []
    everywhere = set(plan[0]).union(*plan[1])
    t0 = time.monotonic()

    def spawn(argv: List[str], name: str, cpus: Set[int]) -> Proc:
        proc = Proc(argv, root, workdir, f"{tag}-{name}", trace, cpus)
        procs.append(proc)
        spawned.append(proc)
        return proc

    try:
        if daemons == 1:
            proc = spawn(_daemon_argv(q, None, "d0"), "d0", plan[1][0])
            udp, tcp, rpc = map(int, proc.read_line(_DAEMON_READY,
                                                    deadline).groups())
            system = System([Daemon(proc, udp, tcp, rpc)], procs=procs)
        else:
            # The whole fleet starts at once, as an operator brings one
            # up: members retry registration until the coordinator
            # listens, so its port is chosen here rather than read
            # from its ready line.
            port = _free_tcp_port()
            coord = spawn(
                ["fleet", "serve", "--host", HOST, "--port", str(port),
                 "-q", str(q), "--log-level", "warning"],
                "coord", everywhere,
            )
            members = [
                spawn(_daemon_argv(q, f"{HOST}:{port}", f"d{i}"), f"d{i}",
                      plan[1][i])
                for i in range(daemons)
            ]
            coord.read_line(_FLEET_READY, deadline)
            found = []
            for proc in members:
                udp, tcp, rpc = map(int, proc.read_line(_DAEMON_READY,
                                                        deadline).groups())
                found.append(Daemon(proc, udp, tcp, rpc))
            while True:
                status = rpc_call(HOST, port, "status", timeout=10.0)
                if status["daemons"]["alive"] == daemons:
                    break
                if time.monotonic() > deadline:
                    raise BenchError("fleet members did not all register")
                time.sleep(0.005)
            system = System(found, coord, port, procs=procs)
        system.setup_s = time.monotonic() - t0
        return system
    except BaseException:
        for p in procs:
            p.kill()
        raise


# ----------------------------------------------------------------------
# Kernel socket queues, read from /proc/<pid>/net/{udp,tcp}.
# ----------------------------------------------------------------------

def _rows(pid: int, proto: str):
    with open(f"/proc/{pid}/net/{proto}", encoding="ascii") as fh:
        next(fh)
        for line in fh:
            f = line.split()
            local_port = int(f[1].rsplit(":", 1)[1], 16)
            remote_port = int(f[2].rsplit(":", 1)[1], 16)
            tx, rx = (int(x, 16) for x in f[4].split(":"))
            yield f, local_port, remote_port, tx, rx


def udp_queues(pid: int, ports: List[int]) -> Dict[int, int]:
    """UDP port → bytes queued for the reader."""
    wanted = set(ports)
    return {
        local: rx for _f, local, _remote, _tx, rx in _rows(pid, "udp")
        if local in wanted
    }


def tcp_backlog(pid: int, port: int) -> int:
    """Bytes still queued on either side of connections to ``port``."""
    total = 0
    for f, local, remote, tx, rx in _rows(pid, "tcp"):
        if f[3] != "01":  # ESTABLISHED only
            continue
        if local == port:
            total += rx
        elif remote == port:
            total += tx
    return total
