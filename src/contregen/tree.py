"""Recursive query-tree exploration.

The root retrieves for the main question, plans sub-questions, and for each
one in plan order runs the two-step vetting; an accepted sub-question
becomes a child (reusing its relevance-probe hits as its retrieval) and is
explored depth-first before the next sibling is vetted. Nodes at max_depth
are leaves and are never planned, so generation calls follow a strict
pre-order schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from contregen.errors import INT_FLOORS, DataError, below_floor
from contregen.llm import LlmGateway
from contregen.planner import propose_plan, render_passages
from contregen.retrieval import RetrieverHandle, _checked_hits
from contregen.verifier import verify


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int
    max_plan_size: int
    topk: int

    def __post_init__(self) -> None:
        name = below_floor(vars(self))
        if name:
            raise ValueError(f"{name} must be >= {INT_FLOORS[name]}")


@dataclass
class QueryTreeNode:
    query: str            # standalone (rewritten) form used for retrieval
    original_query: str   # as the planner produced it
    depth: int
    path: str             # "0" at the root, then "0.1", "0.1.0", ...
    retrieved: tuple[tuple[str, float], ...] = ()
    children: list["QueryTreeNode"] = field(default_factory=list)
    summary: Optional[str] = None

    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()


def build_tree(gateway: LlmGateway, retriever: RetrieverHandle, query: str,
               config: TreeConfig) -> QueryTreeNode:
    """The explored tree of query; an error from a backend propagates as raised."""
    root = QueryTreeNode(query=query, original_query=query, depth=0, path="0",
                         retrieved=retriever.retrieve(query, config.topk))
    _expand(gateway, retriever, root, query, config)
    return root


def _expand(gateway: LlmGateway, retriever: RetrieverHandle,
            node: QueryTreeNode, main_query: str, config: TreeConfig) -> None:
    if node.depth >= config.max_depth:
        return
    passages_block = render_passages(
        [retriever.text(pid) for pid, _ in node.retrieved])
    plan = propose_plan(gateway, node.query, main_query, passages_block,
                        config.max_plan_size, node_path=node.path)
    for subquestion in plan:
        outcome = verify(gateway, retriever, subquestion, main_query,
                         config.topk, node_path=node.path)
        if not outcome.accepted:
            continue
        child = QueryTreeNode(
            query=outcome.rewritten,
            original_query=subquestion,
            depth=node.depth + 1,
            path=f"{node.path}.{len(node.children)}",
            retrieved=outcome.probe_hits,
        )
        node.children.append(child)
        _expand(gateway, retriever, child, main_query, config)


def collect_passages(root: QueryTreeNode, dedup: bool) -> list[str]:
    """Passage ids over the whole tree in pre-order; with dedup, only the
    first occurrence of each."""
    out: list[str] = []
    seen: set[str] = set()
    for node in root.walk():
        for pid, _ in node.retrieved:
            if dedup:
                if pid in seen:
                    continue
                seen.add(pid)
            out.append(pid)
    return out


def export_tree(root: QueryTreeNode) -> dict:
    """JSON-ready nested structure: the node's fields, with retrieved as
    [pid, score] lists and children exported likewise; import_tree round-trips it."""
    return {**vars(root), "retrieved": [list(hit) for hit in root.retrieved],
            "children": [export_tree(child) for child in root.children]}


def import_tree(data: dict) -> QueryTreeNode:
    """The tree export_tree wrote; a DataError if a field is missing or of
    the wrong type, at any depth."""
    try:
        node = QueryTreeNode(
            query=data["query"],
            original_query=data["original_query"],
            depth=data["depth"],
            path=data["path"],
            retrieved=_checked_hits(data["retrieved"]),
            summary=data.get("summary"),
        )
        if not all(isinstance(text, str) for text in (node.query, node.original_query,
                                                      node.path)):
            raise TypeError("query, original_query and path must be strings")
        if isinstance(node.depth, bool) or not isinstance(node.depth, int):
            raise TypeError("depth must be an integer")
        if node.summary is not None and not isinstance(node.summary, str):
            raise TypeError("summary must be null or a string")
        children = data.get("children", [])
        if not isinstance(children, list):
            raise TypeError("children must be a list")
        node.children = [import_tree(child) for child in children]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed tree export ({type(exc).__name__}: {exc})") from exc
    return node


def to_dot(root: QueryTreeNode) -> str:
    """Graph description (DOT) of the tree, queries cut to 40 characters as labels."""
    lines = ["digraph querytree {", "  rankdir=TB;"]
    for node in root.walk():
        label = node.query if len(node.query) <= 40 else node.query[:37] + "..."
        text = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  "{node.path}" [label="{text}"];')
        for child in node.children:
            lines.append(f'  "{node.path}" -> "{child.path}";')
    lines.append("}")
    return "\n".join(lines)


__all__ = [
    "QueryTreeNode",
    "TreeConfig",
    "build_tree",
    "collect_passages",
    "export_tree",
    "import_tree",
    "to_dot",
]
