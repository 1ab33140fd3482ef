"""The client's half of the protocol against a server that lies: every
response table that does not decode must surface as ``ServiceError``
naming the column, never as whatever numpy or ``binascii`` raised."""

import base64
import json
import socket
import threading

import numpy as np
import pytest

from repro.plan import Query
from repro.serve import QueryClient, ServiceError


def b64(values, dtype="<f8"):
    return base64.b64encode(np.asarray(values, dtype=dtype)).decode()


def answer_with(response):
    """A one-shot server: answers the first request line with ``response``
    (one JSON line) and closes.  Returns (host, port, thread)."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as f:
                f.readline()
                f.write(json.dumps(response).encode() + b"\n")
                f.flush()

    thread = threading.Thread(target=serve)
    thread.start()
    return (*listener.getsockname()[:2], thread)


def query_against(table, rows=2):
    host, port, thread = answer_with(
        {"status": "ok", "cache": "miss", "rows": rows, "table": table})
    try:
        with QueryClient(host, port, timeout=30) as client:
            return client.query(Query())
    finally:
        thread.join(timeout=30)
        assert not thread.is_alive()


GOOD = b64([1.0, 2.0])  # 16 bytes -> "AAAAAAAA8D8AAAAAAAAAQA=="

#: (table payload, what the ServiceError must mention)
MALFORMED = {
    "truncated base64": (
        {"dtypes": {"x": "<f8"}, "columns": {"x": GOOD[:-3]}}, "column 'x'"),
    "bad alphabet": (
        {"dtypes": {"x": "<f8"}, "columns": {"x": "AAAA*AAA" + GOOD[8:]}},
        "column 'x'"),
    "packed object dtype": (
        {"dtypes": {"x": "O"}, "columns": {"x": GOOD}}, "column 'x'"),
    "packed void dtype": (
        {"dtypes": {"x": "V8"}, "columns": {"x": GOOD}}, "column 'x'"),
    "packed string dtype": (
        {"dtypes": {"x": "<U4"}, "columns": {"x": GOOD}}, "column 'x'"),
    "packed without a dtype": (
        {"dtypes": {}, "columns": {"x": GOOD}}, "column 'x'"),
    "dtype that does not parse": (
        {"dtypes": {"x": "<q9"}, "columns": {"x": GOOD}}, "column 'x'"),
    "7 bytes for <f8": (
        {"dtypes": {"x": "<f8"},
         "columns": {"x": base64.b64encode(bytes(7)).decode()}},
        "column 'x'"),
    "list with an object dtype": (
        {"dtypes": {"x": "O"}, "columns": {"x": [1, 2]}}, "column 'x'"),
    "list that is not numbers": (
        {"dtypes": {"x": "<f8"}, "columns": {"x": ["a", None]}},
        "column 'x'"),
    "payload neither string nor list": (
        {"dtypes": {"x": "<f8"}, "columns": {"x": 7}}, "column 'x'"),
    "ragged columns": (
        {"dtypes": {"x": "<f8", "y": "<f8"},
         "columns": {"x": GOOD, "y": b64([1.0, 2.0, 3.0])}}, "column 'y'"),
    "columns missing": ({"dtypes": {"x": "<f8"}}, "'columns'"),
    "columns not an object": (
        {"dtypes": {"x": "<f8"}, "columns": [GOOD]}, "'columns'"),
    "table not an object": ([1, 2], "must be an object"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_table_is_a_service_error_naming_the_column(case):
    table, mention = MALFORMED[case]
    with pytest.raises(ServiceError, match="bad response table") as err:
        query_against(table)
    assert mention in str(err.value)


def test_lying_row_count_is_a_service_error():
    table = {"dtypes": {"x": "<f8"}, "columns": {"x": GOOD}}
    with pytest.raises(ServiceError, match="2 rows decoded.*rows=5"):
        query_against(table, rows=5)


def test_well_formed_table_decodes_to_read_only_views():
    resp = query_against({"dtypes": {"x": "<f8", "host": "<U1"},
                          "columns": {"x": GOOD, "host": ["a", "b"]}})
    assert resp["table"]["x"].tolist() == [1.0, 2.0]
    assert resp["table"]["host"].tolist() == ["a", "b"]
    assert not resp["table"]["x"].flags.writeable


def stats_against_error():
    return answer_with({"status": "error",
                        "error": "response could not be encoded: boom"})


def test_stats_error_answer_is_a_service_error():
    host, port, thread = stats_against_error()
    try:
        with QueryClient(host, port, timeout=30) as client:
            with pytest.raises(ServiceError,
                               match="^stats: response could not be encoded"):
                client.stats()
    finally:
        thread.join(timeout=30)
        assert not thread.is_alive()


def test_cli_stats_error_answer_exits_1(capsys):
    from repro.__main__ import main

    host, port, thread = stats_against_error()
    try:
        assert main(["query", "--host", host, "--port", str(port),
                     "--stats"]) == 1
    finally:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert capsys.readouterr().out == (
        "error: stats: response could not be encoded: boom\n")
