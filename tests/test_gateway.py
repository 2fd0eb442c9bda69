"""Mock and HTTP gateway behavior: scripts, determinism, wire protocol."""

from __future__ import annotations

import ast
import contextlib
import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import wait
from functools import partial
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures

import kgconflict
from kgconflict import (
    BackendUnavailable,
    EmptyInput,
    GenerationRequest,
    HttpGateway,
    LogprobsUnsupported,
    ParseError,
    PipelineError,
    ScriptMiss,
    TokenCandidate,
    TokenPosition,
    ValidationError,
    cosine,
    load_mock_script,
)
from kgconflict.gateway import GATHER_HELPERS, GenerationResult, ModelGateway, gather
from kgconflict.http_gateway import _parse_chat_response


def _script(tmp_path, entries):
    return load_mock_script(fixtures.write_script(tmp_path / "s.jsonl", entries))


# ---------------------------------------------------------------------------
# Request/response types


def test_generation_request_validation():
    with pytest.raises(ValidationError):
        GenerationRequest(prompt="")
    with pytest.raises(ValidationError):
        GenerationRequest(prompt="x", temperature=-0.1)
    with pytest.raises(ValidationError):
        GenerationRequest(prompt="x", logprob_top_k=0)
    with pytest.raises(ValidationError):
        GenerationRequest(prompt="x", max_tokens=0)


@pytest.mark.parametrize("temperature", [math.nan, math.inf])
def test_generation_request_rejects_non_finite_temperature(temperature):
    with pytest.raises(ValidationError, match="temperature: must be finite"):
        GenerationRequest(prompt="x", temperature=temperature)


@pytest.mark.parametrize("token, candidates, message", [
    pytest.param("a", [("a", 0.5)], "candidate 'a' has invalid logprob 0.5", id="positive"),
    pytest.param("a", [("a", -0.1), ("b", math.nan)],
                 "candidate 'b' has invalid logprob nan", id="nan"),
    pytest.param("a", [("a", math.inf)], "candidate 'a' has invalid logprob inf", id="inf"),
    pytest.param("a", [("a", -0.1), ("b", -math.inf)],
                 "candidate 'b' has invalid logprob -inf", id="minus-inf"),
    pytest.param("a", [("a", math.log(0.8)), ("b", math.log(0.8))],
                 "candidate masses sum to 1.600000000 > 1", id="excess-mass"),
    pytest.param("a", [("b", -0.1)], "chosen token 'a' not among its own candidates",
                 id="chosen-missing"),
    pytest.param("a", [], "empty candidate list", id="no-candidates"),
])
def test_token_position_is_checked_when_built(token, candidates, message):
    cands = tuple(TokenCandidate(t, lp) for t, lp in candidates)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        TokenPosition(token=token, candidates=cands)


def test_token_position_columns_equal_candidates_and_round_trip():
    columns = TokenPosition("a", ("a", "b"), (-0.1, -2.5))
    paired = TokenPosition(token="a", candidates=(TokenCandidate("a", -0.1),
                                                   TokenCandidate("b", -2.5)))
    assert paired == columns
    assert hash(paired) == hash(columns)
    assert columns.candidates == (TokenCandidate("a", -0.1), TokenCandidate("b", -2.5))
    assert TokenPosition(token="a", candidates=columns.candidates) == columns
    with pytest.raises(dataclasses.FrozenInstanceError):
        columns.candidates = ()


@pytest.mark.parametrize("tokens, logprobs, candidates, message", [
    pytest.param(("a", "b"), (-0.1,), None, "2 candidate tokens but 1 logprobs",
                 id="short-logprobs"),
    pytest.param(("a",), (-0.1, -2.5), None, "1 candidate tokens but 2 logprobs",
                 id="short-tokens"),
    pytest.param(("a",), (-0.1,), (TokenCandidate("a", -0.1),),
                 "give candidates or the columns, not both", id="both-forms"),
])
def test_token_position_columns_must_agree(tokens, logprobs, candidates, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        TokenPosition("a", tokens, logprobs, candidates=candidates)


def test_chosen_logprob_of_a_repeated_token_is_its_first():
    assert TokenPosition("a", ("b", "a", "a"), (-1.0, -2.0, -3.0)).chosen_logprob() == -2.0


def test_script_names_the_faulty_token_position(tmp_path):
    entry = fixtures.gen_entry("q", "ab", [
        {"token": "a", "candidates": [["a", 0.0]]},
        {"token": "b", "candidates": [["b", -0.1], ["c", 0.3]]},
    ])
    path = fixtures.write_script(tmp_path / "bad.jsonl", [entry])
    with pytest.raises(ParseError, match=re.escape(
            "script line 1: token position 2: candidate 'c' has invalid logprob 0.3")):
        load_mock_script(path)


def test_script_rejects_chosen_token_missing_from_candidates(tmp_path):
    entry = {
        "kind": "generate", "match": "q", "regex": False,
        "response": {"text": "a",
                     "tokens": [{"token": "a", "candidates": [["b", -0.1]]}]},
    }
    path = fixtures.write_script(tmp_path / "bad.jsonl", [entry])
    with pytest.raises(ParseError, match="line 1"):
        load_mock_script(path)


# ---------------------------------------------------------------------------
# Mock backend: generate


def test_scripted_identity(tmp_path):
    gw = _script(tmp_path, [
        fixtures.gen_entry("Q1", "Sinaloa", fixtures.one_token("Sinaloa")),
    ])
    result = gw.generate(GenerationRequest(prompt="Q1"))
    assert result.text == "Sinaloa"
    assert len(result.tokens) == 1
    assert result.tokens.positions[0].candidates[0].logprob == 0.0


def test_unknown_prompt_raises_script_miss(tmp_path):
    gw = _script(tmp_path, [
        fixtures.gen_entry("Q1", "Sinaloa", fixtures.one_token("Sinaloa")),
    ])
    with pytest.raises(ScriptMiss):
        gw.generate(GenerationRequest(prompt="something else"))


def test_exact_match_is_not_a_regex(tmp_path):
    gw = _script(tmp_path, [
        fixtures.gen_entry("Q.", "dot", fixtures.one_token("dot")),
    ])
    with pytest.raises(ScriptMiss):
        gw.generate(GenerationRequest(prompt="Qx"))
    assert gw.generate(GenerationRequest(prompt="Q.")).text == "dot"


def test_regex_match_first_entry_wins(tmp_path):
    gw = _script(tmp_path, [
        fixtures.gen_entry("specific", "first", fixtures.one_token("first"),
                           regex=True),
        fixtures.gen_entry(".*", "generic", fixtures.one_token("generic"),
                           regex=True),
    ])
    assert gw.generate(GenerationRequest(prompt="a specific prompt")).text == "first"
    assert gw.generate(GenerationRequest(prompt="anything")).text == "generic"


@pytest.mark.parametrize("order, prompt, expected", [
    pytest.param(["regex", "exact"], "Q1", "regex", id="regex-before-exact-shadows"),
    pytest.param(["exact", "regex"], "Q1", "exact", id="regex-after-exact-does-not"),
    pytest.param(["exact", "regex"], "Q2", "regex", id="exact-miss-falls-to-regex"),
    pytest.param(["exact", "exact2"], "Q1", "exact", id="first-of-equal-exact-wins"),
])
def test_exact_and_regex_entries_first_match_wins(tmp_path, order, prompt, expected):
    entries = {
        "regex": fixtures.gen_entry("^Q", "regex", fixtures.one_token("regex"),
                                    regex=True),
        "exact": fixtures.gen_entry("Q1", "exact", fixtures.one_token("exact")),
        "exact2": fixtures.gen_entry("Q1", "exact2", fixtures.one_token("exact2")),
    }
    gw = _script(tmp_path, [entries[name] for name in order])
    assert gw.generate(GenerationRequest(prompt=prompt)).text == expected


def test_embed_override_first_match_wins(tmp_path):
    gw = _script(tmp_path, [
        fixtures.embed_entry("^a", [1.0, 0.0], regex=True),
        fixtures.embed_entry("ab", [0.0, 1.0]),
        fixtures.embed_entry("b", [0.0, 1.0]),
        fixtures.embed_entry("b", [1.0, 1.0]),
    ])
    assert [v.values for v in gw.embed(["ab", "b"])] == [(1.0, 0.0), (0.0, 1.0)]


def test_mock_generate_is_bit_identical(tmp_path):
    gw = _script(tmp_path, [
        fixtures.gen_entry("Q", "ab", fixtures.sharp_tokens(["a", "b"])),
    ])
    first = gw.generate(GenerationRequest(prompt="Q"))
    second = gw.generate(GenerationRequest(prompt="Q"))
    assert first == second


def test_candidate_mass_within_tolerance(tmp_path):
    gw = _script(tmp_path, [
        fixtures.gen_entry("Q", "x", fixtures.uniform_tokens(["x"], fan=4)),
    ])
    result = gw.generate(GenerationRequest(prompt="Q"))
    for pos in result.tokens.positions:
        mass = sum(math.exp(c.logprob) for c in pos.candidates)
        assert mass <= 1.0 + 1e-6


# ---------------------------------------------------------------------------
# Mock backend: script parsing


def test_malformed_script_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "generate", "match": "q"}\n', encoding="utf-8")
    with pytest.raises(ParseError, match="line 1"):
        load_mock_script(path)


def test_invalid_json_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps(fixtures.gen_entry("q", "a", fixtures.one_token("a")))
    path.write_text(good + "\n{nope\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_mock_script(path)


@pytest.mark.parametrize("entry", [
    pytest.param(fixtures.embed_entry("a", [1.0, 10**400]), id="embed-vector"),
    pytest.param(fixtures.gen_entry("q", "a", [{"token": "a", "candidates": [
        ["a", 0.0], ["b", -(10**400)]]}]), id="candidate-logprob"),
])
def test_script_int_too_large_for_float_reports_line_number(tmp_path, entry):
    good = fixtures.gen_entry("q0", "a", fixtures.one_token("a"))
    path = fixtures.write_script(tmp_path / "bad.jsonl", [good, entry])
    with pytest.raises(ParseError, match="line 2: int too large"):
        load_mock_script(path)


@pytest.mark.parametrize("entry, message", [
    pytest.param(fixtures.embed_entry("a", [1.0, True]),
                 "line 2: embed response needs a non-empty finite 'vector'",
                 id="bool-embed-vector"),
    pytest.param(fixtures.gen_entry("q", "a", [{"token": "a", "candidates": [
        ["a", 0.0], ["b", False]]}]),
        r"line 2: candidate must be \[token, logprob\]", id="bool-candidate-logprob"),
])
def test_script_bool_is_not_a_number_reports_line_number(tmp_path, entry, message):
    good = fixtures.gen_entry("q0", "a", fixtures.one_token("a"))
    path = fixtures.write_script(tmp_path / "bad.jsonl", [good, entry])
    with pytest.raises(ParseError, match=message):
        load_mock_script(path)


def test_script_regex_nested_too_deeply_is_a_bad_regex(tmp_path):
    good = fixtures.gen_entry("q0", "a", fixtures.one_token("a"))
    deep = fixtures.gen_entry(fixtures.DEEP_REGEX, "a", fixtures.one_token("a"),
                              regex=True)
    path = fixtures.write_script(tmp_path / "bad.jsonl", [good, deep])
    with pytest.raises(ParseError, match="^script line 2: bad regex: "):
        load_mock_script(path)


def test_script_rejects_token_text_mismatch(tmp_path):
    entry = fixtures.gen_entry("q", "hello", fixtures.one_token("other"))
    path = fixtures.write_script(tmp_path / "bad.jsonl", [entry])
    with pytest.raises(ParseError, match="reconstruct"):
        load_mock_script(path)


def test_script_rejects_positive_logprob(tmp_path):
    entry = {
        "kind": "generate", "match": "q", "regex": False,
        "response": {"text": "a",
                     "tokens": [{"token": "a", "candidates": [["a", 0.2]]}]},
    }
    path = fixtures.write_script(tmp_path / "bad.jsonl", [entry])
    with pytest.raises(ParseError):
        load_mock_script(path)


def test_script_rejects_mixed_embed_dimensions(tmp_path):
    entries = [
        fixtures.embed_entry("a", [1.0, 0.0]),
        fixtures.embed_entry("b", [1.0, 0.0, 0.0]),
    ]
    path = fixtures.write_script(tmp_path / "bad.jsonl", entries)
    with pytest.raises(ParseError, match="dimension"):
        load_mock_script(path)


# ---------------------------------------------------------------------------
# Mock backend: embeddings


def test_embed_is_deterministic(tmp_path):
    gw = _script(tmp_path, [])
    one, two = gw.embed(["a", "a"])
    assert one == two
    again = gw.embed(["a"])[0]
    assert again == one


def test_embed_shapes_and_order(tmp_path):
    gw = _script(tmp_path, [])
    vectors = gw.embed(["x", "y", "z"])
    assert len(vectors) == 3
    assert len({len(v.values) for v in vectors}) == 1
    assert gw.embed(["y"])[0] == vectors[1]


def test_embed_self_cosine_is_one(tmp_path):
    gw = _script(tmp_path, [])
    u = np.asarray(gw.embed(["x"])[0].values)
    v = np.asarray(gw.embed(["x"])[0].values)
    assert cosine(u, v) == pytest.approx(1.0, abs=1e-9)


def test_embed_overrides_control_similarity(tmp_path):
    gw = _script(tmp_path, [
        fixtures.embed_entry("x", [1.0, 0.0]),
        fixtures.embed_entry("y", [0.0, 1.0]),
    ])
    u, v = (np.asarray(e.values) for e in gw.embed(["x", "y"]))
    assert cosine(u, v) == pytest.approx(0.0, abs=1e-9)


def test_embed_rejects_empty_inputs(tmp_path):
    gw = _script(tmp_path, [])
    with pytest.raises(EmptyInput):
        gw.embed([])
    with pytest.raises(EmptyInput):
        gw.embed(["ok", ""])


# ---------------------------------------------------------------------------
# HTTP backend against a local fake server


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.seen.append(
            {"path": self.path, "body": body, "headers": dict(self.headers)}
        )
        reply = self.server.responder(self.path, body)
        if reply is None:  # hang up without replying
            return
        # A bytes payload is sent as is; a third item holds headers to add or
        # override (a longer Content-Length than the body cuts the reply short).
        status, payload, *extra = reply
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json", "Content-Length": str(len(data)),
                   **(extra[0] if extra else {})}
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # so a redirect followed as a GET is seen too

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _serving():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.seen = []
    server.responder = lambda path, body: (200, {})
    # shutdown() waits for the loop's next poll, so a short interval keeps
    # each teardown quick.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def fake_server():
    with _serving() as served:
        yield served


def _chat_payload(text="Paris", top=None, include_logprobs=True):
    content_items = []
    if top is None:
        top = [{"token": "Paris", "logprob": -0.01},
               {"token": "London", "logprob": -4.8}]
    content_items.append({"token": text, "logprob": -0.01, "top_logprobs": top})
    choice = {"message": {"content": text}}
    if include_logprobs:
        choice["logprobs"] = {"content": content_items}
    return {"choices": [choice]}


def test_http_generate_parses_wire_protocol(fake_server, monkeypatch):
    server, url = fake_server
    monkeypatch.setenv("MODEL_API_KEY", "sekret")
    payload = _chat_payload(
        text="Paris",
        top=[{"token": "Paris", "logprob": -0.01},
             {"token": "London", "logprob": -4.8}],
    )
    server.responder = lambda path, body: (200, payload)
    gw = HttpGateway(url, model_id="m1", backoff=0.0)
    result = gw.generate(GenerationRequest(prompt="capital of France?",
                                           logprob_top_k=10))
    assert result.text == "Paris"
    assert result.tokens.positions[0].chosen_logprob() == -0.01
    request = server.seen[0]
    assert request["path"] == "/v1/chat/completions"
    assert request["body"]["model"] == "m1"
    assert request["body"]["temperature"] == 0.0
    assert request["body"]["logprobs"] is True
    assert request["body"]["top_logprobs"] == 10
    assert request["body"]["messages"] == [
        {"role": "user", "content": "capital of France?"}
    ]
    assert request["headers"]["Authorization"] == "Bearer sekret"


def test_http_generate_top_k_bound(fake_server):
    server, url = fake_server
    top = [{"token": "Paris", "logprob": -0.05}]
    top += [{"token": f"t{i}", "logprob": -float(i + 6)} for i in range(1, 10)]
    server.responder = lambda path, body: (200, _chat_payload(top=top))
    gw = HttpGateway(url, model_id="m1", backoff=0.0)
    result = gw.generate(GenerationRequest(prompt="q", logprob_top_k=10))
    assert len(result.tokens.positions[0].candidates) <= 10


def test_http_generate_inserts_missing_chosen_token(fake_server):
    server, url = fake_server
    top = [{"token": f"t{i}", "logprob": -float(i + 6)} for i in range(10)]
    server.responder = lambda path, body: (200, _chat_payload(text="Paris", top=top))
    gw = HttpGateway(url, model_id="m1", backoff=0.0)
    result = gw.generate(GenerationRequest(prompt="q", logprob_top_k=10))
    pos = result.tokens.positions[0]
    assert len(pos.candidates) <= 10
    assert pos.chosen_logprob() == -0.01


def test_http_generate_without_logprobs_hard_fails(fake_server):
    server, url = fake_server
    server.responder = lambda path, body: (
        200, _chat_payload(include_logprobs=False)
    )
    gw = HttpGateway(url, model_id="m1", backoff=0.0)
    with pytest.raises(LogprobsUnsupported):
        gw.generate(GenerationRequest(prompt="q"))


def test_http_retries_then_backend_unavailable(fake_server):
    server, url = fake_server
    server.responder = lambda path, body: (503, {"error": "down"})
    gw = HttpGateway(url, model_id="m1", backoff=0.0, max_attempts=3)
    with pytest.raises(BackendUnavailable):
        gw.generate(GenerationRequest(prompt="q"))
    assert len(server.seen) == 3


def test_http_recovers_on_retry(fake_server):
    server, url = fake_server
    payload = _chat_payload()

    def responder(path, body):
        if len(server.seen) == 1:
            return 503, {"error": "warming up"}
        return 200, payload

    server.responder = responder
    gw = HttpGateway(url, model_id="m1", backoff=0.0, max_attempts=3)
    result = gw.generate(GenerationRequest(prompt="q"))
    assert result.text == "Paris"
    assert len(server.seen) == 2


def test_http_auth_failure_does_not_retry(fake_server):
    server, url = fake_server
    server.responder = lambda path, body: (401, {"error": "no"})
    gw = HttpGateway(url, model_id="m1", backoff=0.0, max_attempts=3)
    with pytest.raises(BackendUnavailable):
        gw.generate(GenerationRequest(prompt="q"))
    assert len(server.seen) == 1


def test_http_unreachable_host_is_backend_unavailable():
    gw = HttpGateway("http://127.0.0.1:9", model_id="m1", backoff=0.0,
                     max_attempts=2, timeout=0.2)
    with pytest.raises(BackendUnavailable):
        gw.generate(GenerationRequest(prompt="q"))


def test_http_url_without_scheme_is_backend_unavailable(fake_server, caplog):
    server, url = fake_server
    gw = HttpGateway(url.removeprefix("http://"), model_id="m1", backoff=0.0,
                     max_attempts=3)
    with pytest.raises(BackendUnavailable, match="after 3 attempts"):
        gw.generate(GenerationRequest(prompt="q"))
    assert sum("failed (attempt" in r.getMessage() for r in caplog.records) == 3
    assert server.seen == []


@pytest.mark.parametrize("reply", [
    pytest.param(None, id="hang-up"),
    pytest.param((200, b'{"choices": [', {"Content-Length": "100"}), id="truncated-body"),
    pytest.param((500, b"overloaded", {"Content-Length": "100"}),
                 id="truncated-error-body"),
])
def test_http_broken_reply_is_retried(fake_server, reply):
    server, url = fake_server
    server.responder = lambda path, body: reply
    gw = HttpGateway(url, model_id="m1", backoff=0.0, max_attempts=3)
    with pytest.raises(BackendUnavailable, match="after 3 attempts"):
        gw.generate(GenerationRequest(prompt="q"))
    assert len(server.seen) == 3


def test_http_2xx_other_than_200_is_backend_unavailable(fake_server):
    server, url = fake_server
    server.responder = lambda path, body: (204, b"")
    gw = HttpGateway(url, model_id="m1", backoff=0.0, max_attempts=3)
    with pytest.raises(BackendUnavailable, match="HTTP 204"):
        gw.generate(GenerationRequest(prompt="q"))
    assert len(server.seen) == 1


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_http_redirect_is_not_followed(fake_server, monkeypatch, status):
    server, url = fake_server
    monkeypatch.setenv("MODEL_API_KEY", "sekret")
    with _serving() as (elsewhere, elsewhere_url):
        elsewhere.responder = lambda path, body: (200, _chat_payload())
        server.responder = lambda path, body: (
            status, b"moved", {"Location": f"{elsewhere_url}/chat/completions"}
        )
        gw = HttpGateway(url, model_id="m1", backoff=0.0, max_attempts=3)
        with pytest.raises(BackendUnavailable, match=f"HTTP {status} .*moved"):
            gw.generate(GenerationRequest(prompt="q"))
    assert len(server.seen) == 1
    assert server.seen[0]["headers"]["Authorization"] == "Bearer sekret"
    assert elsewhere.seen == []


def test_http_non_utf8_error_body_is_backend_unavailable(fake_server):
    server, url = fake_server
    server.responder = lambda path, body: (500, b"\xff\xfe down \xc3")
    gw = HttpGateway(url, model_id="m1", backoff=0.0, max_attempts=2)
    with pytest.raises(BackendUnavailable, match="HTTP 500 .*down"):
        gw.generate(GenerationRequest(prompt="q"))
    assert len(server.seen) == 2


def test_package_imports_without_requests():
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys; sys.modules['requests'] = None; import kgconflict; "
        "print(kgconflict.HttpGateway.__module__)"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "kgconflict.http_gateway"
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == ["numpy>=1.24"]


def test_http_embed_parses_and_orders(fake_server):
    server, url = fake_server

    def responder(path, body):
        assert path == "/v1/embeddings"
        rows = [
            {"index": i, "embedding": [float(i), 1.0]}
            for i in range(len(body["input"]))
        ]
        return 200, {"data": list(reversed(rows))}

    server.responder = responder
    gw = HttpGateway(url, model_id="m1", embed_model_id="e1", backoff=0.0)
    vectors = gw.embed(["a", "b"])
    assert [v.values for v in vectors] == [(0.0, 1.0), (1.0, 1.0)]
    assert server.seen[0]["body"] == {"model": "e1", "input": ["a", "b"]}


def test_http_embed_row_without_index_answers_its_position(fake_server):
    server, url = fake_server
    server.responder = lambda path, body: (200, {"data": [
        {"embedding": [0.0, 1.0]}, {"index": 1, "embedding": [1.0, 1.0]},
    ]})
    gw = HttpGateway(url, model_id="m1", backoff=0.0)
    assert [v.values for v in gw.embed(["a", "b"])] == [(0.0, 1.0), (1.0, 1.0)]


def _with_logprobs_content(*items):
    payload = _chat_payload()
    payload["choices"][0]["logprobs"]["content"] = list(items)
    return payload


@pytest.mark.parametrize("call, payload", [
    pytest.param("generate", [], id="generate-list-body"),
    pytest.param("generate", {"choices": ["Paris"]}, id="string-choice"),
    pytest.param("generate", {"choices": [{"message": "Paris"}]}, id="string-message"),
    pytest.param("generate", {"choices": [{"message": {"content": "Paris"},
                                           "logprobs": ["Paris"]}]},
                 id="list-logprobs"),
    pytest.param("generate", _with_logprobs_content("Paris"), id="string-content-entry"),
    pytest.param("generate", _with_logprobs_content(
        {"token": "Paris", "logprob": -0.01, "top_logprobs": ["Paris"]}),
        id="string-top-logprobs-entry"),
    pytest.param("embed", [], id="embed-list-body"),
    pytest.param("embed", {"data": ["a", "b"]}, id="string-embeddings-row"),
])
def test_http_non_object_json_is_parse_error(fake_server, call, payload):
    server, url = fake_server
    server.responder = lambda path, body: (200, payload)
    gw = HttpGateway(url, model_id="m1", backoff=0.0)
    with pytest.raises(ParseError, match="is not a JSON object"):
        if call == "generate":
            gw.generate(GenerationRequest(prompt="q"))
        else:
            gw.embed(["a", "b"])


@pytest.mark.parametrize("call, payload, message", [
    pytest.param("generate", _with_logprobs_content(
        {"token": "Paris", "logprob": -0.01, "top_logprobs": 5}),
        "top_logprobs is not a list", id="int-top-logprobs"),
    pytest.param("generate", {"choices": [{**_chat_payload()["choices"][0],
                                           "finish_reason": "length"}]},
                 "truncated at max_tokens", id="truncated-reply"),
    pytest.param("embed", {"data": [{"index": "1", "embedding": [1.0]},
                                    {"index": 0, "embedding": [2.0]}]},
                 "index '1' is not an integer", id="string-embeddings-index"),
    pytest.param("embed", {"data": [{"index": True, "embedding": [1.0]},
                                    {"index": 0, "embedding": [2.0]}]},
                 "index True is not an integer", id="bool-embeddings-index"),
    pytest.param("embed", {"data": [{"index": 0, "embedding": [1.0]},
                                    {"index": 0, "embedding": [2.0]}]},
                 "index 0 is repeated or not below 2", id="duplicate-index"),
    pytest.param("embed", {"data": [{"index": 3, "embedding": [1.0]},
                                    {"index": 7, "embedding": [2.0]}]},
                 "index 3 is repeated or not below 2", id="index-out-of-range"),
    pytest.param("generate", _with_logprobs_content(
        {"token": "Paris", "logprob": -10**400, "top_logprobs": []}),
        "logprob -1000.* is not a finite number", id="logprob-overflow"),
    pytest.param("generate", _with_logprobs_content(
        {"token": "Paris", "logprob": -0.01,
         "top_logprobs": [{"token": "Paris", "logprob": True}]}),
        "logprob True is not a finite number", id="bool-candidate-logprob"),
    pytest.param("generate", _with_logprobs_content(
        {"token": "Paris", "logprob": -0.01,
         "top_logprobs": [{"token": "Paris", "logprob": 5.0}]}),
        "top_logprobs entry logprob 5.0 is above 0", id="positive-candidate-logprob"),
    pytest.param("generate", _with_logprobs_content(
        {"token": "Paris", "logprob": -0.01,
         "top_logprobs": [{"token": "Paris", "logprob": 7.0},
                          {"token": "London", "logprob": -25.0}]}),
        "top_logprobs entry logprob 7.0 is above 0", id="positive-beside-negative"),
    pytest.param("generate", _with_logprobs_content(
        {"token": "Paris", "logprob": 5.0, "top_logprobs": []}),
        "logprobs content entry logprob 5.0 is above 0", id="positive-chosen-logprob"),
    pytest.param("generate", _with_logprobs_content(
        {"token": "Paris", "logprob": -0.01, "top_logprobs": []},
        {"token": "Paris", "logprob": -0.2,
         "top_logprobs": [{"token": "Paris", "logprob": math.log(0.8)},
                          {"token": "Lyon", "logprob": math.log(0.8)}]}),
        "^chat response logprobs violate invariants: token position 2: "
        "candidate masses sum to 1.600000000 > 1$", id="second-position-excess-mass"),
    pytest.param("embed", {"data": [{"index": 0, "embedding": ["abc"]},
                                    {"index": 1, "embedding": [2.0]}]},
                 "value 'abc' is not a finite number", id="string-embedding-value"),
    pytest.param("embed", {"data": [{"index": 0, "embedding": [None]},
                                    {"index": 1, "embedding": [2.0]}]},
                 "value None is not a finite number", id="null-embedding-value"),
    pytest.param("embed", {"data": [{"index": 0, "embedding": [float("nan")]},
                                    {"index": 1, "embedding": [2.0]}]},
                 "value nan is not a finite number", id="nan-embedding-value"),
])
def test_http_malformed_reply_is_parse_error(fake_server, call, payload, message):
    server, url = fake_server
    server.responder = lambda path, body: (200, payload)
    gw = HttpGateway(url, model_id="m1", backoff=0.0)
    with pytest.raises(ParseError, match=message):
        if call == "generate":
            gw.generate(GenerationRequest(prompt="q"))
        else:
            gw.embed(["a", "b"])


def test_http_logprob_float_noise_is_stored_as_zero(fake_server):
    server, url = fake_server
    server.responder = lambda path, body: (200, _with_logprobs_content(
        {"token": "Paris", "logprob": 1e-9,
         "top_logprobs": [{"token": "Paris", "logprob": 1e-9}]}))
    gw = HttpGateway(url, model_id="m1", backoff=0.0)
    result = gw.generate(GenerationRequest(prompt="q"))
    assert result.tokens.positions[0].candidates == (TokenCandidate("Paris", 0.0),)


@pytest.mark.parametrize("logprob, sign", [
    pytest.param(-0.0, -1.0, id="minus-zero-kept"),
    pytest.param(0.0, 1.0, id="zero"),
    pytest.param(1e-9, 1.0, id="noise-to-zero"),
])
def test_http_logprob_sign_of_zero(fake_server, logprob, sign):
    server, url = fake_server
    server.responder = lambda path, body: (200, _with_logprobs_content(
        {"token": "Paris", "logprob": logprob,
         "top_logprobs": [{"token": "Paris", "logprob": logprob}]}))
    gw = HttpGateway(url, model_id="m1", backoff=0.0)
    (stored,) = gw.generate(GenerationRequest(prompt="q")).tokens.positions[0].logprobs
    assert stored == 0.0
    assert math.copysign(1.0, stored) == sign


def test_http_eviction_keeps_the_first_of_tied_candidates():
    top = [{"token": "t0", "logprob": -3.0}, {"token": "t1", "logprob": -4.0},
           {"token": "t2", "logprob": -3.0}, {"token": "t3", "logprob": -2.5},
           {"token": "t4", "logprob": -3.0}]
    body = _with_logprobs_content({"token": "Paris", "logprob": -0.3, "top_logprobs": top})
    result = _parse_chat_response(body, GenerationRequest(prompt="q", logprob_top_k=4), "m1")
    pos = result.tokens.positions[0]
    assert pos.tokens == ("t3", "t0", "t2", "Paris")
    assert pos.logprobs == (-2.5, -3.0, -3.0, -0.3)


def test_http_embed_row_count_mismatch(fake_server):
    server, url = fake_server
    server.responder = lambda path, body: (
        200, {"data": [{"index": 0, "embedding": [1.0]}]}
    )
    gw = HttpGateway(url, model_id="m1", backoff=0.0)
    with pytest.raises(ParseError):
        gw.embed(["a", "b"])


# ---------------------------------------------------------------------------
# Fuzz gate on the reply parsers: a JSON object body either parses or raises
# a PipelineError, never anything else.

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)
_VALID_EMBED_REPLY = {"data": [{"index": 1, "embedding": [0.5, -1.0]},
                               {"index": 0, "embedding": [2, 0.25]}]}


def _locations(value):
    """Every (container, key) inside a JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield value, key
        yield from _locations(child)


@st.composite
def _mutated(draw, valid: dict) -> dict:
    """The valid reply with up to three values replaced by arbitrary JSON or dropped."""
    body = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        locations = list(_locations(body))
        if not locations:
            break
        container, key = draw(st.sampled_from(locations))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_JSON)
    return body


def _parses_or_raises_pipeline_error(call) -> None:
    try:
        call()
    except PipelineError:
        pass


@settings(max_examples=200, deadline=None)
@given(body=st.dictionaries(st.text(max_size=8), _JSON, max_size=4)
       | _mutated(_chat_payload(top=[{"token": "Paris", "logprob": -0.01},
                                     {"token": "Lyon", "logprob": -5.0},
                                     {"token": "Nice", "logprob": -6.5}])))
def test_chat_reply_parser_fuzz(body):
    request = GenerationRequest(prompt="q", logprob_top_k=2)
    _parses_or_raises_pipeline_error(
        lambda: _parse_chat_response(body, request, "m1"))


@settings(max_examples=200, deadline=None)
@given(body=st.dictionaries(st.text(max_size=8), _JSON, max_size=4)
       | _mutated(_VALID_EMBED_REPLY))
def test_embed_reply_parser_fuzz(body):
    gateway = HttpGateway("http://127.0.0.1:9/v1", model_id="m1")
    gateway._post = lambda url, payload: body
    _parses_or_raises_pipeline_error(lambda: gateway.embed(["a", "b"]))


# ---------------------------------------------------------------------------
# One call site: every model request is built and sent by gateway.ask


def _model_call_sites(node: ast.AST, where: str, found: set) -> None:
    """Add (callee, enclosing module.class.function) for each call that
    builds a GenerationRequest or calls a ``generate``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("GenerationRequest", "generate"):
                found.add((name, where))
        scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        _model_call_sites(child, f"{where}.{child.name}" if scope else where, found)


def test_gateway_ask_is_the_only_model_call_site():
    package = Path(kgconflict.__file__).parent
    found: set = set()
    for path in sorted(package.glob("*.py")):
        _model_call_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, found)
    assert found == {("GenerationRequest", "gateway.ask"), ("generate", "gateway.ask")}
    # Nothing reads a reply's latency or checks a gateway with isinstance.
    assert "latency" not in GenerationResult.__dataclass_fields__
    assert not getattr(ModelGateway, "_is_runtime_protocol", False)


# ---------------------------------------------------------------------------
# gather: the calling thread and up to p - 1 shared helpers run the calls


class _Leaves:
    """n calls that record (index, thread) as they end and the number in
    flight. Later calls hold for less, so they tend to end first; a call in
    ``failing`` raises ValueError(index) after it ran."""

    def __init__(self, n: int, failing: frozenset = frozenset()) -> None:
        self.lock = threading.Lock()
        self.inflight = self.inflight_max = 0
        self.ran: list[tuple[int, int]] = []
        self.calls = [partial(self._call, i, (n - i) * 0.002, i in failing)
                      for i in range(n)]

    def _call(self, i: int, hold: float, fail: bool) -> int:
        with self.lock:
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        time.sleep(hold)
        with self.lock:
            self.inflight -= 1
            self.ran.append((i, threading.get_ident()))
        if fail:
            raise ValueError(i)
        return i * i


def _finishes(run, timeout: float = 10.0):
    """run()'s result, from a thread that must end within the timeout."""
    out = []
    worker = threading.Thread(target=lambda: out.append(run()), daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), "gather did not finish"
    return out[0]


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("parallelism", [1, 2, 3, 4])
def test_gather_results_by_index_with_the_caller_and_at_most_p_threads(parallelism, n):
    leaves = _Leaves(n)
    assert gather(leaves.calls, parallelism) == [i * i for i in range(n)]
    threads = {thread for _i, thread in leaves.ran}
    assert threading.get_ident() in threads
    assert len(threads) <= parallelism and leaves.inflight_max <= parallelism
    if parallelism == 1:
        assert [i for i, _thread in leaves.ran] == list(range(n))


@pytest.mark.parametrize("failing", [{0}, {4}, {1, 4}, {2, 3, 5}, set(range(6))])
@pytest.mark.parametrize("parallelism", [1, 3])
def test_gather_raises_the_lowest_index_error(parallelism, failing):
    """Above p = 1 every call runs first; at p = 1 the calls stop at it."""
    leaves = _Leaves(6, frozenset(failing))
    with pytest.raises(ValueError, match=f"^{min(failing)}$"):
        gather(leaves.calls, parallelism)
    ran = 6 if parallelism > 1 else min(failing) + 1
    assert sorted(i for i, _thread in leaves.ran) == list(range(ran))


def test_gather_runs_each_call_once_under_fast_thread_switching():
    runs = [0] * 200

    def call(i: int) -> int:
        runs[i] += 1
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = _finishes(lambda: gather([partial(call, i) for i in range(200)], 8))
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(200)) and runs == [1] * 200


def test_gather_nested_in_a_call_completes_on_its_caller():
    def outer(i: int):
        caller = threading.get_ident()
        inner = gather([partial(lambda j: (i, j, threading.get_ident()), j)
                        for j in range(3)], 3)
        return [(i2, j) for i2, j, _thread in inner], inner[0][2] == caller

    results = _finishes(lambda: gather([partial(outer, i) for i in range(4)], 3))
    assert results == [([(i, j) for j in range(3)], True) for i in range(4)]


def test_gather_completes_on_its_caller_while_every_helper_is_blocked():
    release = threading.Event()
    # One more than the pool holds, so a blocked call is queued ahead of
    # any helper the gather asks for.
    blockers = [kgconflict.gateway._HELPERS.submit(release.wait, 10)
                for _ in range(GATHER_HELPERS + 1)]
    try:
        leaves = _Leaves(5)
        assert _finishes(lambda: gather(leaves.calls, 3)) == [i * i for i in range(5)]
        assert len({thread for _i, thread in leaves.ran}) == 1
    finally:
        release.set()
        assert not wait(blockers, timeout=10).not_done
