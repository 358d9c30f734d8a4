#!/usr/bin/env python3
"""CI smoke check for the cache server front end.

Usage:
  check_server_smoke.py [SERVER_BIN] [LOADGEN_BIN]

Runs the whole check once per server transport backend (epoll, then
io_uring). For each leg it starts s3fifo_server on an ephemeral port with
--transport pinned, then:
  1. speaks the protocol directly over a socket: set/get round-trips the
     stored bytes, delete removes it, stats reports coherent counters;
  2. runs a short closed-loop s3fifo_loadgen burst (the loadgen always runs
     on epoll) and checks every requested op completed with a plausible
     hit ratio;
  3. re-reads stats and checks the server counted at least the loadgen
     ops AND that the data-plane counters name the pinned transport;
  4. sends SIGINT and verifies a clean exit with a shutdown stats line.

The io_uring leg SKIPs — it does not fail — when the kernel or a seccomp
sandbox denies io_uring_setup (EPERM/ENOSYS/EACCES): the server refuses to
start, this tool logs the fallback explicitly, and the epoll leg remains
the binding check. Any other io_uring failure is a real failure.

Exits non-zero with a diagnostic on any violation.
"""

import re
import signal
import socket
import subprocess
import sys
import time

TRANSPORTS = ("epoll", "uring")

# Denial errnos that mean "this environment forbids io_uring", not "the
# transport is broken": the uring leg skips on these and only these.
URING_DENIED = ("EPERM", "ENOSYS", "EACCES")


def fail(msg):
    print(f"server smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def recv_until(sock, suffix, limit=1 << 20):
    buf = b""
    while not buf.endswith(suffix):
        chunk = sock.recv(65536)
        if not chunk:
            fail(f"connection closed waiting for {suffix!r}; got {buf!r}")
        buf += chunk
        if len(buf) > limit:
            fail(f"response exceeded {limit} bytes waiting for {suffix!r}")
    return buf


def read_stats(port):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        s.sendall(b"stats\r\n")
        raw = recv_until(s, b"END\r\n").decode()
    stats = {}
    text = {}
    for line in raw.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "STAT":
            text[parts[1]] = parts[2]
            if parts[2].isdigit():
                stats[parts[1]] = int(parts[2])
    if not stats:
        fail(f"stats response had no STAT lines: {raw!r}")
    return stats, text


def check_protocol(port):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        # Pipelined set + get: the stored bytes must round-trip.
        s.sendall(b"set smoke 0 0 5\r\nhello\r\nget smoke\r\n")
        resp = recv_until(s, b"END\r\n")
        if not resp.startswith(b"STORED\r\n"):
            fail(f"set did not report STORED: {resp!r}")
        if b"VALUE smoke 0 5\r\nhello\r\n" not in resp:
            fail(f"get did not return the stored value: {resp!r}")
        # Delete, then the next get must miss (END with no VALUE).
        s.sendall(b"delete smoke\r\nget smoke\r\n")
        resp = recv_until(s, b"END\r\n")
        if not resp.startswith(b"DELETED\r\n"):
            fail(f"delete did not report DELETED: {resp!r}")
        if b"VALUE smoke" in resp:
            fail(f"get after delete still returned a value: {resp!r}")
        # Malformed command: an error line, connection stays usable.
        s.sendall(b"bogus\r\nversion\r\n")
        resp = recv_until(s, b"\r\n")
        while b"VERSION" not in resp:
            resp += recv_until(s, b"\r\n")
        if not resp.startswith(b"ERROR"):
            fail(f"unknown command did not yield ERROR: {resp!r}")
        s.sendall(b"quit\r\n")
    print("server smoke: protocol round-trip OK")


def run_leg(server_bin, loadgen_bin, transport):
    """Returns True if the leg ran, False if it was skipped."""
    server = subprocess.Popen(
        [server_bin, "--port", "0", "--workers", "2", "--capacity", "20000",
         "--transport", transport],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = server.stdout.readline()
        if not line:
            # Startup failure: decide skip vs fail from the diagnostic.
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                fail(f"transport={transport} produced no output and hung")
            err = server.stderr.read().strip()
            if transport == "uring" and any(e in err for e in URING_DENIED):
                print(f"server smoke: transport=uring SKIPPED "
                      f"(io_uring denied by this environment: {err!r}); "
                      f"epoll leg remains the binding check")
                return False
            fail(f"transport={transport} failed to start: {err!r}")
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if not m:
            fail(f"server did not announce a port: {line!r}")
        port = int(m.group(1))
        if f"transport={transport}" not in line:
            fail(f"server did not announce transport={transport}: {line!r}")

        check_protocol(port)

        ops = 50000
        load = subprocess.run(
            [loadgen_bin, "--port", str(port), "--connections", "4",
             "--depth", "16", "--ops", str(ops), "--objects", "100000"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if load.returncode != 0:
            fail(f"loadgen exited {load.returncode}: {load.stderr}")
        m = re.search(r"mode=closed .*ops=(\d+) .*hit_ratio=([0-9.]+)",
                      load.stdout)
        if not m:
            fail(f"loadgen output unparseable: {load.stdout!r}")
        done, hit_ratio = int(m.group(1)), float(m.group(2))
        if done != ops:
            fail(f"loadgen completed {done} of {ops} ops")
        if not 0.0 < hit_ratio < 1.0:
            fail(f"implausible hit ratio {hit_ratio}")
        print(f"server smoke: loadgen OK ({load.stdout.splitlines()[0]})")

        stats, text = read_stats(port)
        # The default Zipf trace is get-dominated; a generous floor guards
        # against the server under-counting without pinning the exact mix.
        if stats.get("cmd_get", 0) < ops // 2:
            fail(f"server counted only {stats.get('cmd_get')} gets for "
                 f"{ops} ops")
        if stats.get("get_hits", 0) + stats.get("get_misses", 0) < ops // 2:
            fail(f"hit+miss counters incoherent: {stats}")
        if stats.get("batches", 0) == 0:
            fail("server never batched pipelined gets")
        if text.get("transport") != transport:
            fail(f"stats reported transport={text.get('transport')!r}, "
                 f"expected {transport}")
        if stats.get("transport_syscalls", 0) == 0:
            fail("data-plane counters missing: transport_syscalls == 0")
        print(
            "server smoke: stats OK "
            f"(cmd_get={stats['cmd_get']} batches={stats['batches']} "
            f"transport_syscalls={stats['transport_syscalls']})"
        )

        server.send_signal(signal.SIGINT)
        out, _ = server.communicate(timeout=10)
        if server.returncode != 0:
            fail(f"server exited {server.returncode} on SIGINT")
        if "shutdown:" not in out:
            fail(f"no shutdown stats line: {out!r}")
        print(f"server smoke: transport={transport} OK, clean shutdown "
              f"({out.strip().splitlines()[-1]})")
        return True
    finally:
        if server.poll() is None:
            server.kill()


def main(argv):
    server_bin = argv[1] if len(argv) > 1 else "./build/src/s3fifo_server"
    loadgen_bin = argv[2] if len(argv) > 2 else "./build/src/s3fifo_loadgen"
    ran = []
    for transport in TRANSPORTS:
        print(f"server smoke: --- transport={transport} ---")
        if run_leg(server_bin, loadgen_bin, transport):
            ran.append(transport)
    if "epoll" not in ran:
        fail("epoll leg did not run")  # unreachable: epoll never skips
    print(f"server smoke OK: transports covered = {', '.join(ran)}")


if __name__ == "__main__":
    main(sys.argv)
