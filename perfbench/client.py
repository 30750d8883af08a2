"""Closed-loop HTTP client for the serve-zipf workload.

Reads a JSON spec on stdin (``port``, request ``bodies``, the ``sequence``
of body indices and ``seconds``), then keeps one keep-alive connection
busy: it sends the next ``POST /yield`` only after the previous response
arrived, taking requests from the sequence in order until ``seconds`` have
passed. Prints one JSON object: every request's ``[body index, latency s,
status]``, the first response body per body index, and how many later
responses differed from that first one. Uses the standard library only.
"""

from __future__ import annotations

import http.client
import json
import sys
import time


def main() -> int:
    spec = json.load(sys.stdin)
    bodies = [body.encode("utf-8") for body in spec["bodies"]]
    sequence = spec["sequence"]
    requests = []
    first = {}
    inconsistent = 0
    started = time.perf_counter()
    deadline = started + spec["seconds"]
    conn = http.client.HTTPConnection("127.0.0.1", spec["port"], timeout=120)
    try:
        while time.perf_counter() < deadline:
            index = sequence[len(requests) % len(sequence)]
            t0 = time.perf_counter()
            conn.request("POST", "/yield", body=bodies[index],
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            requests.append([index, time.perf_counter() - t0,
                             response.status])
            if response.status == 200:
                inconsistent += first.setdefault(index, data) != data
    except Exception as err:  # reported, and the run fails on it
        print(f"client error: {err!r}", file=sys.stderr)
        return 1
    finally:
        conn.close()
    json.dump({
        "elapsed": time.perf_counter() - started,
        "requests": requests,
        "first": {str(k): v.decode("utf-8") for k, v in first.items()},
        "inconsistent": inconsistent,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
