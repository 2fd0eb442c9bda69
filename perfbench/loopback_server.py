"""OpenAI-compatible loopback server that answers from a mock script.

Run as ``python3 loopback_server.py SRC_DIR SCRIPT``. It listens on
127.0.0.1 only, on a free port that it prints as the first line of its
standard output. It speaks ``POST .../chat/completions`` (with per-token
``top_logprobs``) and ``POST .../embeddings`` in the shapes ``HttpGateway``
parses, answering each from ``MockGateway`` so that HTTP and in-process
runs can be compared value for value. HTTP/1.1 keep-alive is honoured with
one thread per connection. ``GET /stats`` returns the connections
accepted, requests served, response bytes and summed handler time; the
stats requests themselves are not counted. The server exits when its
standard input closes.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.response_bytes = 0
        self.handler_s = 0.0
        self.stats_requests = 0


def _chat_payload(result) -> dict:
    content = [
        {
            "token": pos.token,
            "logprob": pos.chosen_logprob(),
            "top_logprobs": [{"token": c.token, "logprob": c.logprob}
                             for c in pos.candidates],
        }
        for pos in result.tokens.positions
    ]
    return {
        "object": "chat.completion",
        "model": result.model_id,
        "choices": [{
            "index": 0,
            "message": {"role": "assistant", "content": result.text},
            "finish_reason": "stop",
            "logprobs": {"content": content},
        }],
    }


def make_server(gateway, request_type) -> ThreadingHTTPServer:
    stats = _Stats()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args) -> None:  # noqa: A002
            pass

        def _send(self, status: int, payload: dict) -> int:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return len(data)

        def do_GET(self) -> None:
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            with stats.lock:
                stats.stats_requests += 1
                payload = {
                    "connections": stats.connections - stats.stats_requests,
                    "requests": stats.requests,
                    "response_bytes": stats.response_bytes,
                    "handler_s": stats.handler_s,
                }
            self.close_connection = True
            self._send(200, payload)

        def do_POST(self) -> None:
            start = time.perf_counter()
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            try:
                if self.path.endswith("/chat/completions"):
                    result = gateway.generate(request_type(
                        prompt=body["messages"][-1]["content"],
                        temperature=body.get("temperature", 0.0),
                        max_tokens=body.get("max_tokens", 256),
                        logprob_top_k=body.get("top_logprobs", 10),
                        model_id=body.get("model"),
                    ))
                    status, payload = 200, _chat_payload(result)
                elif self.path.endswith("/embeddings"):
                    vectors = gateway.embed(body["input"])
                    status, payload = 200, {"object": "list", "data": [
                        {"index": i, "embedding": list(v.values)}
                        for i, v in enumerate(vectors)
                    ]}
                else:
                    status, payload = 404, {"error": "not found"}
            except Exception as exc:  # reported to the client, which fails the record
                status, payload = 400, {"error": f"{type(exc).__name__}: {exc}"}
            sent = self._send(status, payload)
            with stats.lock:
                stats.requests += 1
                stats.response_bytes += sent
                stats.handler_s += time.perf_counter() - start

    class Server(ThreadingHTTPServer):
        daemon_threads = True

        def process_request(self, request, client_address):
            with stats.lock:
                stats.connections += 1
            super().process_request(request, client_address)

    return Server(("127.0.0.1", 0), Handler)


def main(argv: list[str]) -> int:
    src, script = argv
    sys.path.insert(0, src)
    from kgconflict.gateway import GenerationRequest, load_mock_script

    server = make_server(load_mock_script(script), GenerationRequest)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes our stdin
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
