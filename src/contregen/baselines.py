"""Chain-style iterative retrieval baselines.

Three comparison methods sharing the engine's retriever and gateway:
single-shot retrieve-then-generate, iterative regeneration where each round
retrieves with the previous response plus the original question, and
follow-up questioning that retrieves per follow-up until a stop marker.
Per-round accumulated id lists are kept for recall-per-iteration curves.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Optional

from contregen.errors import INT_FLOORS
from contregen.llm import LlmGateway, PromptRole
from contregen.planner import render_passages
from contregen.retrieval import Hits, RetrieverHandle

logger = logging.getLogger(__name__)

STOP_MARKER = "no follow-up"

_FOLLOWUP_RE = re.compile(r"^\s*follow\s*[- ]?up\s*:\s*(.+?)\s*$", re.IGNORECASE)


@dataclass(frozen=True)
class BaselineRun:
    answer: str
    retrieved_ids: tuple[str, ...]
    # the accumulated ids (ordered, deduped) after each round
    rounds: tuple[tuple[str, ...], ...]


def _extend(accumulated: list[str], seen: set[str], hits: Hits) -> None:
    for pid, _ in hits:
        if pid not in seen:
            seen.add(pid)
            accumulated.append(pid)


def _passages_block(retriever: RetrieverHandle, ids) -> str:
    return render_passages([retriever.text(pid) for pid in ids])


def run_retgen(gateway: LlmGateway, retriever: RetrieverHandle, query: str,
               topk: int) -> BaselineRun:
    """One retrieval with the question itself, one generation call."""
    ids = tuple(pid for pid, _ in retriever.retrieve(query, topk))
    answer = gateway.complete(
        PromptRole.BASELINE_GENERATE,
        {"query": query, "passages": _passages_block(retriever, ids)},
        node_path="retgen",
    )
    return BaselineRun(answer=answer, retrieved_ids=ids, rounds=(ids,))


def run_iterretgen(gateway: LlmGateway, retriever: RetrieverHandle, query: str,
                   topk: int, max_iterations: int) -> BaselineRun:
    """Round 1 retrieves with the question; later rounds prepend the previous
    response to it. Every round regenerates, so the call count equals the
    iteration count."""
    if max_iterations < INT_FLOORS["max_iterations"]:
        raise ValueError(f"max_iterations must be >= {INT_FLOORS['max_iterations']}")
    accumulated: list[str] = []
    seen: set[str] = set()
    rounds: list[tuple[str, ...]] = []
    response = ""
    for round_no in range(1, max_iterations + 1):
        current_query = query if round_no == 1 else f"{response} {query}"
        hits = retriever.retrieve(current_query, topk)
        _extend(accumulated, seen, hits)
        response = gateway.complete(
            PromptRole.BASELINE_GENERATE,
            {"query": query,
             "passages": _passages_block(retriever, [pid for pid, _ in hits])},
            node_path=f"iterretgen.{round_no}",
        )
        rounds.append(tuple(accumulated))
    return BaselineRun(answer=response, retrieved_ids=tuple(accumulated),
                       rounds=tuple(rounds))


def parse_followup(response: str) -> Optional[str]:
    """The follow-up question from the first nonempty line, None on the stop
    marker. Anything unparseable also stops, so a malformed response cannot
    loop forever."""
    for line in response.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.lower().startswith(STOP_MARKER):
            return None
        match = _FOLLOWUP_RE.match(stripped)
        if match:
            return match.group(1)
        logger.warning("unparseable follow-up %r; stopping", stripped)
        return None
    return None


def run_selfask(gateway: LlmGateway, retriever: RetrieverHandle, query: str,
                topk: int, max_iterations: int) -> BaselineRun:
    """Seed retrieval with the question, then one follow-up call per round.

    Each follow-up question retrieves the next hit set; the call's response
    may also carry an intermediate answer, which rides along in the history.
    A final generation over all accumulated context closes the run, so the
    call count is rounds + 1.
    """
    if max_iterations < INT_FLOORS["max_iterations"]:
        raise ValueError(f"max_iterations must be >= {INT_FLOORS['max_iterations']}")
    accumulated: list[str] = []
    seen: set[str] = set()
    _extend(accumulated, seen, retriever.retrieve(query, topk))
    history: list[str] = []
    rounds: list[tuple[str, ...]] = []
    for round_no in range(1, max_iterations + 1):
        response = gateway.complete(
            PromptRole.BASELINE_FOLLOWUP,
            {"query": query,
             "passages": _passages_block(retriever, accumulated),
             "history": "\n".join(history)},
            node_path=f"selfask.{round_no}",
        )
        followup = parse_followup(response)
        if followup is not None:
            history.append(response.strip())
            _extend(accumulated, seen, retriever.retrieve(followup, topk))
        rounds.append(tuple(accumulated))
        if followup is None:
            break
    answer = gateway.complete(
        PromptRole.BASELINE_GENERATE,
        {"query": query, "passages": _passages_block(retriever, accumulated)},
        node_path="selfask.final",
    )
    return BaselineRun(answer=answer, retrieved_ids=tuple(accumulated),
                       rounds=tuple(rounds))


__all__ = [
    "BaselineRun",
    "STOP_MARKER",
    "parse_followup",
    "run_iterretgen",
    "run_retgen",
    "run_selfask",
]
