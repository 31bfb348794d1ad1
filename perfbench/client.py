"""Closed-loop HTTP client, run in its own process.

The client shares no interpreter lock with the gateway it measures. It
imports only the standard library, so a spawned client starts quickly.
"""

from __future__ import annotations

import time
from http.client import HTTPConnection
from urllib.parse import quote

#: the gateway's coverage header (repro.gateway.server.EXACT_HEADER)
EXACT_HEADER = "X-Repro-Exact"


def client_main(conn, host, port, queries, offset, sample_every, sample_phase) -> None:
    """Handshake, wait for the deadline, run the loop, send the record back.

    The next request leaves when the last answer has been read. A request
    still in flight when the clock stops is dropped: it is neither attempted
    nor failed.
    """
    record = {"latencies": [], "statuses": {}, "samples": []}
    connection = HTTPConnection(host, port, timeout=30)
    try:
        conn.send("ready")
        deadline = conn.recv()
        index = offset
        while time.perf_counter() < deadline:
            query = queries[index % len(queries)]
            index += 1
            started = time.perf_counter()
            exact = ""
            try:
                connection.request("GET", "/rank?q=" + quote(query))
                response = connection.getresponse()
                body = response.read()
                status = str(response.status)
                exact = response.getheader(EXACT_HEADER, "")
            except OSError as error:
                body, status = b"", f"conn:{type(error).__name__}"
                connection.close()
                connection = HTTPConnection(host, port, timeout=30)
            ended = time.perf_counter()
            if ended > deadline:
                break
            record["latencies"].append(ended - started)
            record["statuses"][status] = record["statuses"].get(status, 0) + 1
            if status == "200" and index % sample_every == sample_phase:
                record["samples"].append((query, body, exact))
        conn.send(record)
    finally:
        connection.close()
        conn.close()
