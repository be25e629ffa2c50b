"""Open-loop request generator for ``serve-mixed`` (standard library only).

Runs as its own process so that its work never shares an interpreter
lock with the server's front end::

    python3 perfbench/loadgen.py HOST PORT SCHEDULE.json RESULTS.json

The schedule is a list of ``{"due": seconds, "path": ..., "body": ...}``
entries.  Requests go out when due, whatever happened to earlier ones,
over at most ``CONNECTIONS`` connections at a time; when both are busy
a request waits and that wait counts against its latency, because every
latency is measured from when the request was due.  ``lag_ms`` is how
late the generator itself was: the time from when a request was both
due and had a free connection to when its send began.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time

CONNECTIONS = 2
TIMEOUT_S = 30.0


def send(host: str, port: int, path: str, body: str):
    """One HTTP exchange: ``(status, response text)``; status 0 on transport error."""
    connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
    try:
        connection.request("POST", path, body=body.encode("utf-8"),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8", errors="replace")
    except (OSError, http.client.HTTPException) as error:
        return 0, f"transport error: {error}"
    finally:
        connection.close()


def main(argv) -> int:
    host, port, schedule_path, results_path = argv[1], int(argv[2]), argv[3], argv[4]
    with open(schedule_path, encoding="utf-8") as handle:
        schedule = json.load(handle)
    results = [None] * len(schedule)
    lock = threading.Lock()
    next_index = [0]
    origin = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                index = next_index[0]
                if index >= len(schedule):
                    return
                next_index[0] += 1
            picked = time.perf_counter()
            item = schedule[index]
            due = origin + item["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            begin = time.perf_counter()
            status, text = send(host, port, item["path"], item["body"])
            end = time.perf_counter()
            results[index] = {
                "status": status,
                "latency_ms": (end - due) * 1000,
                "lag_ms": (begin - max(due, picked)) * 1000,
                "send_offset_ms": (begin - due) * 1000,
                "response": text,
            }

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump({"window_s": time.perf_counter() - origin, "results": results}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
