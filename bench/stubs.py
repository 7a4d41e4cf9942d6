"""Stub-node helper for the loopback-live workload.

Usage: python3 bench/stubs.py HOST [HOST ...]

Serves cloudforecast's stub node (`make_node_server`, unchanged, so its
default accept queue of 5 stays) on HOST:80 for every HOST, prints "ready",
and runs until its standard input closes, so it cannot outlive the benchmark
process that holds the other end of the pipe.
"""

import sys

from cloudforecast.services import make_node_server, start_in_thread


def main(hosts):
    for host in hosts:
        try:
            server = make_node_server(host, 80)
        except OSError as exc:
            sys.stderr.write(f"error: cannot bind {host}:80: {exc}\n")
            return 1
        start_in_thread(server)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    try:
        sys.stdin.read()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
