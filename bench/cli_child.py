"""Run one cloudforecast CLI command with the benchmark's tracing installed.

Usage: python3 bench/cli_child.py RECORD_JSON ARGS...

Runs `cloudforecast ARGS...` in this process as one traced operation and
writes its per-operation record and spans to RECORD_JSON. The import of
cloudforecast.cli happens before tracing starts; the traced run measures it
separately as cli.import_ms.
"""

import json
import sys

import tracer
from cloudforecast import cli


def main(record_path, argv):
    t = tracer.Tracer()
    t.install()
    t.begin_op(0)
    try:
        code = cli.main(argv)
    finally:
        record = t.end_op()
        t.uninstall()
        record["spans"] = t.spans
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
