"""Bottom-up answer synthesis over an explored query tree.

Leaves are summarized from their own passages; each internal node merges
its children's summaries with its own passages; the root call produces the
final long-form answer. When a node's child-summary block outgrows the
character budget, pairs of summaries are folded into one (longest two
first) with extra merge calls until the block fits.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from contregen.llm import LlmGateway, PromptRole
from contregen.planner import render_passages
from contregen.tree import QueryTreeNode

logger = logging.getLogger(__name__)

SUMMARY_CHAR_BUDGET = 24000


def _block(summaries: list[str]) -> str:
    return "\n".join("- " + s for s in summaries)


@dataclass
class SynthesisResult:
    answer: str
    fold_merges: int


def synthesize(gateway: LlmGateway, root: QueryTreeNode, lookup,
               char_budget: int = SUMMARY_CHAR_BUDGET) -> SynthesisResult:
    """Produce the final answer and set every node's summary; lookup maps a
    passage id to its text."""
    fold_merges = 0

    def passages_block(node: QueryTreeNode) -> str:
        return render_passages([lookup(pid) for pid, _ in node.retrieved])

    def fold_children(node: QueryTreeNode, summaries: list[str]) -> list[str]:
        """Shrink the summary block under the budget by pairwise merging.

        Picks the two longest entries (ties resolved to the earlier index);
        the merged summary replaces the earlier one, keeping child order
        stable otherwise. A lone summary still over the budget is cut so that
        its block, "- " included, fits; a budget under 2 cannot hold even the
        prefix, so there the block is "- " alone.
        """
        nonlocal fold_merges
        while len(_block(summaries)) > char_budget and len(summaries) >= 2:
            by_length = sorted(range(len(summaries)),
                               key=lambda i: (-len(summaries[i]), i))
            first, second = sorted(by_length[:2])
            merged = gateway.complete(
                PromptRole.MERGE_INTERMEDIATE,
                {"query": node.query, "passages": "",
                 "child_summaries": _block([summaries[first], summaries[second]])},
                node_path=node.path,
            ).strip()
            fold_merges += 1
            summaries[first] = merged
            del summaries[second]
        if summaries and len(_block(summaries)) > char_budget:
            logger.warning("hard-truncating an over-budget summary at %s", node.path)
            summaries[0] = summaries[0][:max(char_budget - 2, 0)]
        return summaries

    def visit(node: QueryTreeNode, is_root: bool) -> str:
        if node.is_leaf() and not is_root:
            summary = gateway.complete(
                PromptRole.SUMMARIZE_LEAF,
                {"query": node.query, "passages": passages_block(node)},
                node_path=node.path,
            ).strip()
        else:
            child_summaries = fold_children(
                node, [visit(child, False) for child in node.children])
            role = PromptRole.GENERATE_ROOT if is_root else PromptRole.MERGE_INTERMEDIATE
            summary = gateway.complete(
                role,
                {"query": node.query, "passages": passages_block(node),
                 "child_summaries": _block(child_summaries)},
                node_path=node.path,
            ).strip()
        node.summary = summary
        return summary

    answer = visit(root, is_root=True)
    return SynthesisResult(answer=answer, fold_merges=fold_merges)


__all__ = ["SUMMARY_CHAR_BUDGET", "SynthesisResult", "synthesize"]
