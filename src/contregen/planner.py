"""Sub-question planning: prompt the model, parse its list, clean it up."""

from __future__ import annotations

import logging
import re
from typing import Sequence

from contregen.llm import LlmGateway, PromptRole

logger = logging.getLogger(__name__)

# "1. text", "2) text", "- text", "* text"
_ITEM_RE = re.compile(r"^\s*(?:\d+[.)]|[-*])\s+(.*\S)\s*$")

PASSAGE_CHAR_BUDGET = 4000


def render_passages(texts: Sequence[str]) -> str:
    """Numbered passage block for prompts, cut off at PASSAGE_CHAR_BUDGET.

    Whole passages are dropped once the budget is reached (never split),
    except that a first passage too large on its own is hard-truncated so
    the prompt always carries some evidence.
    """
    lines: list[str] = []
    used = 0
    omitted = 0
    for position, text in enumerate(texts, start=1):
        line = f"[{position}] {text}"
        if not lines and len(line) > PASSAGE_CHAR_BUDGET:
            lines.append(line[:PASSAGE_CHAR_BUDGET] + " [passage truncated]")
            omitted = len(texts) - position
            break
        cost = len(line) + 1 if lines else len(line)  # the newline that joins it
        if used + cost > PASSAGE_CHAR_BUDGET:
            omitted = len(texts) - position + 1
            break
        lines.append(line)
        used += cost
    if omitted:
        lines.append(f"[{omitted} more passages omitted]")
    return "\n".join(lines)


def parse_numbered_list(text: str) -> list[str]:
    """Extract items from a numbered or bulleted list; other lines are ignored."""
    items = []
    for line in text.splitlines():
        match = _ITEM_RE.match(line)
        if match:
            items.append(match.group(1))
    return items


def _normalize(text: str) -> str:
    return " ".join(text.lower().split())


def propose_plan(gateway: LlmGateway, query: str, main_query: str,
                 passages_block: str, max_plan_size: int,
                 node_path: str = "") -> tuple[str, ...]:
    """The sub-questions of one planning call: the parsed list deduplicated,
    stripped of items that merely restate the query being expanded, and
    truncated.

    An unparseable response yields an empty plan (the node becomes a leaf)
    rather than an error.
    """
    response = gateway.complete(
        PromptRole.PLAN,
        {"query": query, "main_query": main_query, "passages": passages_block},
        node_path=node_path,
    )
    raw_items = parse_numbered_list(response)
    if not raw_items and response.strip():
        logger.warning("plan response for %r had no list items", query)
    seen: set[str] = set()
    kept: list[str] = []
    banned = {_normalize(query), _normalize(main_query)}
    for item in raw_items:
        norm = _normalize(item)
        if not norm or norm in seen or norm in banned:
            continue
        seen.add(norm)
        kept.append(item)
        if len(kept) == max_plan_size:
            break
    return tuple(kept)


__all__ = [
    "PASSAGE_CHAR_BUDGET",
    "parse_numbered_list",
    "propose_plan",
    "render_passages",
]
