"""Two-step vetting of planned sub-questions.

Step one asks whether the sub-question is needed at all and, only if so,
rewrites it into a standalone retrieval query. Step two probes retrieval
with the rewritten form and asks whether the hits actually bear on it; an
empty probe fails immediately without spending a generation call. Yes/no
parsing is fail-closed: anything that is not a clear yes counts as no.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from contregen.llm import LlmGateway, PromptRole
from contregen.planner import render_passages
from contregen.retrieval import RetrieverHandle

logger = logging.getLogger(__name__)


def parse_yes_no(text: str) -> Optional[bool]:
    """Read the verdict from the first nonempty line; None when unclear."""
    for line in text.splitlines():
        stripped = line.strip().lower()
        if not stripped:
            continue
        word = stripped.split()[0].rstrip(".,:;!")
        if word == "yes":
            return True
        if word == "no":
            return False
        return None
    return None


@dataclass
class VerificationOutcome:
    subquestion: str
    rewritten: str
    necessary: bool
    relevant: bool
    # Hits from the relevance probe; an accepted sub-question's node reuses
    # them so the same retrieval is not issued twice.
    probe_hits: tuple[tuple[str, float], ...]

    @property
    def accepted(self) -> bool:
        return self.necessary and self.relevant


def _verdict(response: str, step: str, subject: str) -> bool:
    """The model's yes/no, fail-closed: a reply that is not a clear yes is no."""
    verdict = parse_yes_no(response)
    if verdict is None:
        logger.warning("unparseable %s verdict for %r; treating as no", step, subject)
    return bool(verdict)


def verify(gateway: LlmGateway, retriever: RetrieverHandle, subquestion: str,
           main_query: str, topk: int, node_path: str = "") -> VerificationOutcome:
    slots = {"subquestion": subquestion, "main_query": main_query}
    response = gateway.complete(PromptRole.NECESSITY, slots, node_path=node_path)
    if not _verdict(response, "necessity", subquestion):
        return VerificationOutcome(subquestion=subquestion, rewritten=subquestion,
                                   necessary=False, relevant=False, probe_hits=())
    rewritten = gateway.complete(PromptRole.REWRITE, slots, node_path=node_path).strip()
    if not rewritten:
        logger.warning("empty rewrite for %r; keeping the original form", subquestion)
        rewritten = subquestion
    hits = retriever.retrieve(rewritten, topk)
    relevant = False
    if hits:  # an empty probe is irrelevant without asking the model
        passages_block = render_passages([retriever.text(pid) for pid, _ in hits])
        response = gateway.complete(
            PromptRole.RELEVANCE,
            {"subquestion": rewritten, "main_query": main_query, "passages": passages_block},
            node_path=node_path)
        relevant = _verdict(response, "relevance", rewritten)
    return VerificationOutcome(subquestion=subquestion, rewritten=rewritten,
                               necessary=True, relevant=relevant, probe_hits=hits)


__all__ = [
    "VerificationOutcome",
    "parse_yes_no",
    "verify",
]
