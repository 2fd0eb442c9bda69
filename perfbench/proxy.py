"""Benchmark-side gateway proxy: counts calls, injects latency, feeds the tracer.

Every workload puts this proxy between ``run_eval`` and the gateway that
``build_gateway`` returned, so ``calls_per_query`` and
``prompt_kchars_per_query`` are measured at the same boundary for the mock
and the HTTP backend alike.
"""

from __future__ import annotations

import threading
import time


class ProxyGateway:
    """Forwards ``generate``/``embed`` after sleeping ``delay_s``.

    The sleep stands in for one backend round-trip (L), so a query's wall
    time on the backend-bound workload counts rounds of L. When a tracer is
    attached, each call is also recorded as a gateway span.
    """

    def __init__(self, inner, delay_s: float = 0.0, tracer=None) -> None:
        self._inner = inner
        self._delay_s = delay_s
        self._tracer = tracer
        self._lock = threading.Lock()
        self.generate_calls = 0
        self.embed_calls = 0
        self.prompt_chars = 0

    def _call(self, kind: str, fn, arg, prompt: str, texts: int):
        with self._lock:
            if kind == "generate":
                self.generate_calls += 1
                self.prompt_chars += len(prompt)
            else:
                self.embed_calls += 1
        if self._tracer is None:
            if self._delay_s:
                time.sleep(self._delay_s)
            return fn(arg)
        return self._tracer.gateway_call(kind, fn, arg, prompt, texts, self._delay_s)

    def generate(self, req):
        return self._call("generate", self._inner.generate, req, req.prompt, 0)

    def embed(self, texts):
        return self._call("embed", self._inner.embed, texts, texts[0] if texts else "",
                          len(texts))
