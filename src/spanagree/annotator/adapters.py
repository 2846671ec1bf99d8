"""Provider adapters: one HTTP client for chat-completion endpoints and
a canned-response mock that satisfies the same contract for hermetic
runs and tests."""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol

from ..config import DecodingParams
from ..ingest import IngestError, KeyTypes, ParseError, check_object, decode_json, read_jsonl


@dataclass(frozen=True)
class CompletionResult:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency_s: float = 0.0


class ProviderError(RuntimeError):
    """Transport-level failure talking to the provider."""


class MissingApiKey(ProviderError):
    def __init__(self, env_var: str):
        super().__init__(f"API key environment variable {env_var} is not set")
        self.env_var = env_var


class ProviderAdapter(Protocol):
    def complete(
        self,
        prompt: str,
        decoding: DecodingParams,
        schema: dict | None = None,
        request_id: str = "",
    ) -> CompletionResult: ...


class MockAdapter:
    """Replays canned responses keyed by request id.

    Repeated requests for the same id walk through its reply list (so a
    retry loop can be fed a different answer per attempt); the last
    reply repeats once the list is exhausted. Latency is always 0 to
    keep runs byte-reproducible.
    """

    def __init__(self, replies: dict[str, list[str]]):
        for request_id, items in replies.items():
            if not items:
                raise ValueError(f"no replies for request id {request_id!r}")
        self._replies = {k: list(v) for k, v in replies.items()}
        self._served: dict[str, int] = {}
        self._lock = threading.Lock()
        self.calls = 0

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "MockAdapter":
        """Load replies from JSONL lines {"example_id": ..., "replies": [...]}
        (a single "reply" string is also accepted); a malformed line or a
        repeated example_id raises ParseError."""
        replies: dict[str, list[str]] = {}
        seen: dict[str, int] = {}
        rows = read_jsonl(Path(path), {"example_id": str}, {"replies": list, "reply": str})
        for lineno, row in rows:
            items = row.get("replies") or [row.get("reply")]
            if not all(isinstance(item, str) for item in items):
                raise ParseError(
                    path, lineno, "needs a non-empty 'replies' list of strings or a 'reply'"
                )
            example_id = row["example_id"]
            if example_id in seen:
                raise ParseError(
                    path,
                    lineno,
                    f"duplicate example_id {example_id!r} (first seen on line {seen[example_id]})",
                )
            seen[example_id] = lineno
            replies[example_id] = items
        return cls(replies)

    def complete(
        self,
        prompt: str,
        decoding: DecodingParams,
        schema: dict | None = None,
        request_id: str = "",
    ) -> CompletionResult:
        with self._lock:
            self.calls += 1
            if request_id not in self._replies:
                raise ProviderError(f"mock has no reply for request {request_id!r}")
            served = self._served.get(request_id, 0)
            self._served[request_id] = served + 1
        items = self._replies[request_id]
        text = items[min(served, len(items) - 1)]
        return CompletionResult(
            text=text,
            prompt_tokens=len(prompt.split()),
            completion_tokens=len(text.split()),
            latency_s=0.0,
        )


class OpenAIChatAdapter:
    """Minimal client for OpenAI-compatible chat-completion endpoints.

    The API key is read from the configured environment variable at
    construction time and never logged. Constrained output is requested
    through the json_schema response format when a schema is given.
    """

    def __init__(
        self,
        model_id: str,
        base_url: str = "https://api.openai.com/v1",
        api_key_env: str = "OPENAI_API_KEY",
        timeout: float = 120.0,
    ):
        key = os.environ.get(api_key_env)
        if not key:
            raise MissingApiKey(api_key_env)
        if not base_url.startswith(("http://", "https://")):
            raise ValueError(f"base_url must be an http:// or https:// URL, not {base_url!r}")
        self.model_id = model_id
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def complete(
        self,
        prompt: str,
        decoding: DecodingParams,
        schema: dict | None = None,
        request_id: str = "",
    ) -> CompletionResult:
        # Imported here, not at module level: they load ssl, socket and
        # email, which no command without an HTTP request should pay for.
        import http.client
        import urllib.request

        payload: dict = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": decoding.temperature,
        }
        if decoding.seed is not None:
            payload["seed"] = decoding.seed
        if schema is not None:
            payload["response_format"] = {
                "type": "json_schema",
                "json_schema": {
                    "name": "annotations",
                    "strict": True,
                    "schema": schema,
                },
            }
        request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps(payload).encode("utf-8"),
            headers=self._headers,
        )
        started = time.monotonic()
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = decode_json(response.read())
        except (OSError, http.client.HTTPException) as exc:
            # HTTPError (a non-2xx reply, named by its status), URLError,
            # timeouts and a body cut short of its Content-Length.
            raise ProviderError(f"chat completion request failed: {exc}") from exc
        except ValueError as exc:
            raise ProviderError(f"provider returned invalid JSON: {exc}") from exc
        latency = time.monotonic() - started
        try:
            body = _read_keys(body, "response", {"choices": list}, {"usage": dict})
            if not body["choices"]:
                raise IngestError("response: 'choices' is empty")
            choice = _read_keys(body["choices"][0], "response choice 0", {"message": dict}, {})
            message = _read_keys(choice["message"], "response message", {}, {"content": str})
            usage = _read_keys(
                body.get("usage") or {},
                "response usage",
                {},
                {"prompt_tokens": int, "completion_tokens": int},
            )
        except IngestError as exc:
            raise ProviderError(f"malformed provider response: {exc}") from exc
        return CompletionResult(
            text=message.get("content") or "",
            prompt_tokens=usage.get("prompt_tokens") or 0,
            completion_tokens=usage.get("completion_tokens") or 0,
            latency_s=latency,
        )


def _read_keys(obj: Any, where: str, required: KeyTypes, optional: KeyTypes) -> Any:
    """The keys of a provider object that this client reads, checked with
    check_object; any other key is the provider's own and is ignored."""
    if isinstance(obj, dict):
        obj = {key: value for key, value in obj.items() if key in required or key in optional}
    check_object(obj, required, optional, where)
    return obj
