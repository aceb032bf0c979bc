"""Prompted-generation gateway: roles, templates, adapters, replay cache.

Every generation call goes through one funnel, LlmGateway.complete, which
renders the role template, invokes the adapter, and records a logical call
with its tree location. Adapters carry a physical invocation counter
(backend_calls) so replay can prove it touched no backend. A template is
split into literal and slot pieces once, when it is built, so a render only
fills slots and joins; the replay cache's key is backend_io's one cache
digest, so a replayed call costs a render, a hash and a dict lookup. The
hash covers only the part of the prompt after its template's head: the
caching adapter hashes each head once, and the key is the same.
"""

from __future__ import annotations

import enum
import math
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Protocol

from contregen.backend_io import JsonlCache, post_with_retries, read_json, read_text
from contregen.errors import (
    ConfigError,
    DataError,
    FixtureMissError,
    LlmBackendError,
    TemplateRenderError,
)

if TYPE_CHECKING:
    import requests


class PromptRole(str, enum.Enum):
    PLAN = "plan"
    NECESSITY = "necessity"
    REWRITE = "rewrite"
    RELEVANCE = "relevance"
    SUMMARIZE_LEAF = "summarize_leaf"
    MERGE_INTERMEDIATE = "merge_intermediate"
    GENERATE_ROOT = "generate_root"
    BASELINE_GENERATE = "baseline_generate"
    BASELINE_FOLLOWUP = "baseline_followup"


# Slot whose value identifies a call for fixture lookup and trace grouping.
KEY_SLOT: dict[PromptRole, str] = {
    PromptRole.PLAN: "query",
    PromptRole.NECESSITY: "subquestion",
    PromptRole.REWRITE: "subquestion",
    PromptRole.RELEVANCE: "subquestion",
    PromptRole.SUMMARIZE_LEAF: "query",
    PromptRole.MERGE_INTERMEDIATE: "query",
    PromptRole.GENERATE_ROOT: "query",
    PromptRole.BASELINE_GENERATE: "query",
    PromptRole.BASELINE_FOLLOWUP: "query",
}

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """A role's prompt text with {slot} placeholders and a one-shot exemplar.

    The text is split once, when the template is built, into alternating
    literal and slot-name pieces (literal, name, literal, ..., literal); a
    render fills the names in order and joins the pieces. Slot values (which
    come from arbitrary passage text) are never re-read, so braces inside
    them are never re-interpreted, and the first slot missing in template
    order is the one a TemplateRenderError names.
    """

    role: PromptRole
    text: str
    _pieces: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_pieces", tuple(_PLACEHOLDER_RE.split(self.text)))

    def render(self, slots: Mapping[str, str]) -> str:
        pieces = list(self._pieces)
        for i in range(1, len(pieces), 2):
            name = pieces[i]
            if name not in slots:
                raise TemplateRenderError(self.role.value, name)
            pieces[i] = str(slots[name])
        return "".join(pieces)


def load_templates(override_dir: Optional[str | Path] = None) -> dict[PromptRole, PromptTemplate]:
    """Load the packaged template assets, any of which an override dir may
    replace; an override that cannot be read is a DataError naming it."""
    templates: dict[PromptRole, PromptTemplate] = {}
    asset_root = Path(__file__).with_name("templates")
    for role in PromptRole:
        text = read_text(asset_root / f"{role.value}.txt", "template file")
        templates[role] = PromptTemplate(role=role, text=text)
    if override_dir is not None:
        override = Path(override_dir)
        if not override.is_dir():
            raise ConfigError(f"template override dir does not exist: {override}")
        for role in PromptRole:
            candidate = override / f"{role.value}.txt"
            if candidate.exists():
                templates[role] = PromptTemplate(
                    role=role, text=read_text(candidate, "template file"))
    return templates


class Adapter(Protocol):
    adapter_id: str
    backend_calls: int

    def complete(self, role: PromptRole, prompt: str, slots: Mapping[str, str]) -> str: ...


class ScriptedAdapter:
    """Deterministic adapter fed from a fixture table: role -> key -> response.

    The key is the value of the role's key slot. A response is a string, or a
    list of strings consumed in call order (for iterative baselines). Any
    miss, including list exhaustion, is a hard error rather than a fallback.
    """

    adapter_id = "scripted"

    def __init__(self, fixtures: Mapping[str, Mapping[str, object]]) -> None:
        for role_name, table in fixtures.items():
            PromptRole(role_name)  # reject unknown role keys up front
            for key, value in table.items():
                if not (isinstance(value, str) or isinstance(value, list)
                        and all(isinstance(item, str) for item in value)):
                    raise ValueError(f"role {role_name!r} key {key!r}: the response must "
                                     "be a string or a list of strings")
        self._fixtures = {role: dict(table) for role, table in fixtures.items()}
        self._cursors: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()  # guards backend_calls and _cursors
        self.backend_calls = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedAdapter":
        data = read_json(path, "fixture file")
        if not isinstance(data, dict) or not all(isinstance(t, dict) for t in data.values()):
            raise DataError(f"fixture file {path} must map role names to objects")
        try:
            return cls(data)
        except ValueError as exc:  # an unknown role name or a response of the wrong type
            raise DataError(f"fixture file {path}: {exc}") from None

    def complete(self, role: PromptRole, prompt: str, slots: Mapping[str, str]) -> str:
        key = str(slots.get(KEY_SLOT[role], ""))
        table = self._fixtures.get(role._value_)
        value = table.get(key) if table is not None else None
        with self._lock:
            self.backend_calls += 1
            if value is None:
                raise FixtureMissError(
                    f"no fixture for role {role.value!r} with key {key!r}")
            if isinstance(value, list):
                cursor = self._cursors.get((role.value, key), 0)
                if cursor >= len(value):
                    raise FixtureMissError(
                        f"fixture list for role {role.value!r} key {key!r} exhausted "
                        f"after {len(value)} responses")
                self._cursors[(role.value, key)] = cursor + 1
                value = value[cursor]
        return value


class OpenAiChatAdapter:
    """Chat-completions client pinned to deterministic settings.

    temperature 0, 1024 max new tokens, posted to ENDPOINT; the API key
    comes from the environment via the caller, never from config files. Each
    POST waits up to TIMEOUT_S, with backend_io.ATTEMPTS attempts in all.
    """

    ENDPOINT = "https://api.openai.com/v1/chat/completions"
    TIMEOUT_S = 120.0

    def __init__(self, model: str, api_key: str,
                 session: Optional[requests.Session] = None) -> None:
        self.model = model
        self.adapter_id = f"openai:{model}"
        self.backend_calls = 0
        self._lock = threading.Lock()  # guards backend_calls and the session's creation
        self._api_key = api_key
        self._session = session

    def complete(self, role: PromptRole, prompt: str, slots: Mapping[str, str]) -> str:
        with self._lock:
            self.backend_calls += 1
            if self._session is None:
                import requests  # deferred: only a POST pays for loading it
                self._session = requests.Session()
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
            "max_tokens": 1024,
        }
        response = post_with_retries(
            self._session, self.ENDPOINT, payload,
            {"Authorization": f"Bearer {self._api_key}"}, self.TIMEOUT_S,
            lambda reason: LlmBackendError(
                f"generation backend failed ({role.value}): {reason}"))
        try:
            content = response.json()["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}, not str")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise LlmBackendError(
                f"malformed completion response ({type(exc).__name__}: {exc})") from exc
        return content


class LlmCache(JsonlCache):
    """Model responses keyed by the cache digest of (adapter-id, role, full prompt)."""

    value_field = "response"
    miss_message = "generation cache has no entry for role {role}"
    # own attributes: perfbench wraps and restores them on each cache class
    __init__, get, put = JsonlCache.__init__, JsonlCache.get, JsonlCache.put

    @staticmethod
    def decode(response) -> str:
        if not isinstance(response, str):
            raise TypeError(f"response is {type(response).__name__}, not a string")
        return response

    @staticmethod
    def key(adapter_id: str, role: str, prompt: str, prefix: Optional[tuple] = None) -> str:
        """The digest of (adapter_id, role, prompt); prefix, from
        JsonlCache.digest_prefix(adapter_id, role, head), lets it hash only
        the part of a prompt after the head, with the same result."""
        return JsonlCache.digest(adapter_id, role, prompt, prefix=prefix)


class CachingAdapter:
    """Wraps an adapter with the replay cache; a strict cache forbids misses.

    With the templates the prompts are rendered from, a key hashes only the
    part of each prompt after its template's head (the literal text before
    the first slot), the head's share of the hash being computed once per
    role; a prompt that does not start with its head, or an adapter built
    without templates, hashes the whole key. The keys are the same either way.
    """

    def __init__(self, inner: Adapter, cache: LlmCache,
                 templates: Optional[Mapping[PromptRole, PromptTemplate]] = None) -> None:
        self.inner = inner
        self.cache = cache
        self.adapter_id = inner.adapter_id
        self._prefixes = {  # role name -> the key prefix of its template's head
            role.value: JsonlCache.digest_prefix(self.adapter_id, role.value,
                                                 template._pieces[0])
            for role, template in (templates or {}).items()}

    @property
    def backend_calls(self) -> int:
        return self.inner.backend_calls

    def complete(self, role: PromptRole, prompt: str, slots: Mapping[str, str]) -> str:
        name = role._value_  # what role.value returns, without its descriptor
        cache = self.cache
        return cache.lookup(cache.key(self.adapter_id, name, prompt, self._prefixes.get(name)),
                            {"role": name, "prompt": prompt},
                            self.inner.complete, role, prompt, slots)


@dataclass(slots=True)
class LlmCall:
    """One logical generation call as recorded in a trace."""

    role: str
    prompt: str
    response: str
    node_path: str
    approx_tokens: int


class LlmGateway:
    """Single funnel for generation: render template, call adapter, record."""

    def __init__(self, adapter: Adapter,
                 templates: Optional[Mapping[PromptRole, PromptTemplate]] = None,
                 on_call: Optional[Callable[[LlmCall], None]] = None) -> None:
        self.adapter = adapter
        self.templates = dict(templates) if templates is not None else load_templates()
        self.on_call = on_call

    def complete(self, role: PromptRole, slots: Mapping[str, str],
                 node_path: str = "") -> str:
        prompt = self.templates[role].render(slots)
        response = self.adapter.complete(role, prompt, slots)
        call = LlmCall(role=role._value_, prompt=prompt, response=response,
                       node_path=node_path,
                       approx_tokens=math.ceil((len(prompt) + len(response)) / 4))
        if self.on_call is not None:
            self.on_call(call)
        return response


__all__ = [
    "Adapter",
    "CachingAdapter",
    "KEY_SLOT",
    "LlmCache",
    "LlmCall",
    "LlmGateway",
    "OpenAiChatAdapter",
    "PromptRole",
    "PromptTemplate",
    "ScriptedAdapter",
    "load_templates",
]
