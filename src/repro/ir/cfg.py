"""Control-flow graph queries over a :class:`~repro.ir.function.Function`.

The CFG is implied by block terminators; this module materialises
predecessor maps, traversal orders, back-edge identification (via DFS
from the entry, as the paper prescribes for loop-carried detection) and
critical-edge splitting (needed so each assertion edge has its own block).
:func:`strongly_connected_components` is the one Tarjan implementation,
used for block regions (frequency solver) and the call graph alike.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Branch, Jump, Phi

Edge = Tuple[str, str]


class CFG:
    """A snapshot of a function's control-flow structure.

    Construct a new one after any structural mutation of the function.
    """

    def __init__(self, function: Function):
        self.function = function
        self.successors: Dict[str, List[str]] = {}
        self.predecessors: Dict[str, List[str]] = {label: [] for label in function.blocks}
        for label, block in function.blocks.items():
            succs = block.successors()
            self.successors[label] = succs
            for succ in succs:
                if succ not in self.predecessors:
                    raise KeyError(f"terminator of {label} targets unknown block {succ!r}")
                self.predecessors[succ].append(label)
        self._back_edges: FrozenSet[Edge] = frozenset()
        self._dfs_order: List[str] = []
        self._compute_dfs()

    # -- traversal ---------------------------------------------------------

    def _compute_dfs(self) -> None:
        entry = self.function.entry_label
        assert entry is not None
        color: Dict[str, int] = {}  # 0 unseen (absent), 1 on stack, 2 done
        back_edges: Set[Edge] = set()
        order: List[str] = []
        # Iterative DFS with explicit colour marking to find back edges.
        stack: List[Tuple[str, int]] = [(entry, 0)]
        color[entry] = 1
        order.append(entry)
        while stack:
            node, child_index = stack.pop()
            succs = self.successors[node]
            if child_index < len(succs):
                stack.append((node, child_index + 1))
                child = succs[child_index]
                state = color.get(child, 0)
                if state == 0:
                    color[child] = 1
                    order.append(child)
                    stack.append((child, 0))
                elif state == 1:
                    back_edges.add((node, child))
            else:
                color[node] = 2
        self._back_edges = frozenset(back_edges)
        self._dfs_order = order

    @property
    def back_edges(self) -> FrozenSet[Edge]:
        """Edges (src, dst) that close a cycle in DFS from the entry."""
        return self._back_edges

    def is_back_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._back_edges

    def dfs_preorder(self) -> List[str]:
        """Reachable blocks in DFS pre-order from the entry."""
        return list(self._dfs_order)

    def reverse_postorder(self) -> List[str]:
        entry = self.function.entry_label
        assert entry is not None
        visited: Set[str] = set()
        postorder: List[str] = []
        stack: List[Tuple[str, int]] = [(entry, 0)]
        visited.add(entry)
        while stack:
            node, child_index = stack.pop()
            succs = self.successors[node]
            if child_index < len(succs):
                stack.append((node, child_index + 1))
                child = succs[child_index]
                if child not in visited:
                    visited.add(child)
                    stack.append((child, 0))
            else:
                postorder.append(node)
        postorder.reverse()
        return postorder

    def reachable(self) -> Set[str]:
        return set(self._dfs_order)

    # -- edges ---------------------------------------------------------------

    def edges(self) -> List[Edge]:
        out: List[Edge] = []
        for src, succs in self.successors.items():
            for dst in succs:
                out.append((src, dst))
        return out

    def is_critical(self, src: str, dst: str) -> bool:
        """An edge is critical when src has >1 successors and dst >1 preds."""
        return len(self.successors[src]) > 1 and len(self.predecessors[dst]) > 1


def strongly_connected_components(
    roots: Iterable[str], successors: Callable[[str], Sequence[str]]
) -> List[List[str]]:
    """Tarjan's strongly connected components of the graph reached from ``roots``.

    Iterative, so deep graphs stay off the call stack.  Components come
    in reverse topological order -- each after every component it
    reaches -- and ``roots`` and each ``successors(node)`` are visited in
    the order given, so the result is deterministic.
    """
    number: Dict[str, int] = {}
    low: Dict[str, int] = {}
    open_nodes: List[str] = []
    on_stack: Set[str] = set()
    components: List[List[str]] = []
    for root in roots:
        if root in number:
            continue
        number[root] = low[root] = len(number)
        open_nodes.append(root)
        on_stack.add(root)
        work: List[Tuple[str, Sequence[str], int]] = [(root, successors(root), 0)]
        while work:
            node, succs, child_index = work[-1]
            if child_index < len(succs):
                work[-1] = (node, succs, child_index + 1)
                child = succs[child_index]
                if child not in number:
                    number[child] = low[child] = len(number)
                    open_nodes.append(child)
                    on_stack.add(child)
                    work.append((child, successors(child), 0))
                elif child in on_stack:
                    low[node] = min(low[node], number[child])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == number[node]:
                component = []
                while True:
                    member = open_nodes.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def split_critical_edges(function: Function) -> int:
    """Give every conditional out-edge a destination with a unique predecessor.

    Out-edges of a :class:`Branch` whose destination has more than one
    predecessor get a fresh forwarding block inserted.  Returns the number
    of edges split.  Must run *before* SSA construction (phis are assumed
    absent in multi-predecessor destinations being split; pre-existing phi
    incomings are redirected only for the single-slot case).  After this
    pass assertion (Pi) nodes can be placed at the top of each branch
    successor.
    """
    pred_count: Dict[str, int] = {label: 0 for label in function.blocks}
    for block in function.blocks.values():
        for succ in block.successors():
            pred_count[succ] += 1
    split_count = 0
    for label in list(function.blocks):
        term = function.blocks[label].terminator
        if not isinstance(term, Branch):
            continue
        for slot in ("true_target", "false_target"):
            dst = getattr(term, slot)
            if pred_count[dst] <= 1:
                continue
            mid = function.new_block(hint="split")
            mid.append(Jump(dst))
            setattr(term, slot, mid.label)
            _redirect_phis(function.block(dst), old_pred=label, new_pred=mid.label)
            split_count += 1
    return split_count


def _redirect_phis(block: BasicBlock, old_pred: str, new_pred: str) -> None:
    for phi in block.phis():
        phi.incomings = [
            (new_pred if label == old_pred else label, value)
            for label, value in phi.incomings
        ]


def remove_unreachable_blocks(function: Function) -> List[str]:
    """Delete blocks not reachable from the entry; returns removed labels.

    Phi incomings from removed predecessors are dropped.
    """
    cfg = CFG(function)
    reachable = cfg.reachable()
    removed = [label for label in function.blocks if label not in reachable]
    for label in removed:
        del function.blocks[label]
    for block in function.blocks.values():
        for phi in block.phis():
            phi.incomings = [
                (label, value) for label, value in phi.incomings if label in reachable
            ]
    return removed
