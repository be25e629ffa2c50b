"""Block and edge frequency propagation from branch probabilities.

The paper's applications section points at [WuLarus94]: given a
probability for every conditional branch, the expected execution
frequency of each block satisfies the flow equations

    freq(entry) = 1
    freq(b)     = sum over predecessors p of freq(p) * prob(p -> b)

which form a linear system ``(I - Pᵀ) x = e_entry``; loops make it
genuinely simultaneous (a header's frequency is the geometric closure
of its body probability).  It is the linear equational form of
probabilistic data flow (Di Pierro & Wiklicky).

**Solver.**  The system is sparse and, once the blocks are numbered in a
topological order of the loop nest, almost lower triangular: a block's
row refers to its predecessors, which come earlier except along back
edges.  :func:`_solve_flow` keeps one dict per row and eliminates the
rows in that order (Gaussian elimination without pivoting, row by row),
then recovers the frequencies by back substitution.  Only back edges put
entries above the diagonal, so fill-in starts only there.

The numbering matters for how far fill-in spreads.  :func:`_nested_order`
is a topological order in which every loop -- every strongly connected
region, found recursively as in Bourdoncle's weak topological order --
is contiguous, its head first.  A row inside a loop then carries only
the columns of the back edges of the loops that enclose it, and those
columns are eliminated before the first block after the loop.  A plain
reverse postorder does not promise this: when the DFS enters a loop's
body before its exit, the body lands after everything that follows the
loop, and every block in between carries the latch's column: fill-in
quadratic in the length of a program made of many consecutive loops.

**Why no pivoting is needed.**  Every edge probability is scaled by
``1 - DAMPING`` (an always-taken loop has no finite frequency otherwise).
Column ``j`` of ``I - Pᵀ`` holds ``1 - c·p(j→j)`` on the diagonal and
``-c·p(j→i)`` below and above it, where ``c = 1 - DAMPING`` and a block's
out-edge probabilities sum to at most 1.  The off-diagonal magnitudes of
the column therefore sum to ``c·(1 - p(j→j)) < 1 - c·p(j→j)``: the matrix
is strictly diagonally dominant by columns.  Gaussian elimination keeps
that property in every Schur complement, so no pivot is ever zero and
elimination in any order -- this one in particular -- is backward stable
(partial pivoting would never swap a row).

**Irreducible graphs.**  Nothing above assumes reducibility: an edge into
the middle of a cycle is just one more entry below the diagonal, and a
cycle entered twice is just a back edge whose target is not a dominator.
The region decomposition needs no dominators either: a cycle entered at
two blocks is one strongly connected region whose head is simply the
block of it the DFS reached first.  The elimination is exact Gaussian
elimination over the same matrix, so it reaches the same fixed point as
an interval-based Wu–Larus elimination would on reducible graphs, and is
still exact where intervals do not exist.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Set, Tuple, Union

from repro.ir.cfg import CFG, strongly_connected_components
from repro.ir.function import Function
from repro.ir.instructions import Branch, Jump

Edge = Tuple[str, str]

# Loop-continuation probabilities are clamped below 1 by this margin so
# the flow system stays solvable (an always-taken loop has no finite
# frequency).
DAMPING = 1e-9
FREQUENCY_CAP = 1e12


class FrequencyResult:
    """Block and edge frequencies relative to one function entry."""

    def __init__(self, block_frequency: Dict[str, float], edge_frequency: Dict[Edge, float]):
        self.block_frequency = block_frequency
        self.edge_frequency = edge_frequency

    def frequency(self, label: str) -> float:
        return self.block_frequency.get(label, 0.0)


def edge_probabilities(
    function: Function, branch_probability: Dict[str, float]
) -> Dict[Edge, float]:
    """Per-edge local probability: P(edge taken | block executed)."""
    out: Dict[Edge, float] = {}
    for label, block in function.blocks.items():
        term = block.terminator
        if isinstance(term, Jump):
            out[(label, term.target)] = 1.0
        elif isinstance(term, Branch):
            p = min(1.0 - DAMPING, max(DAMPING, branch_probability.get(label, 0.5)))
            if term.true_target == term.false_target:
                out[(label, term.true_target)] = 1.0
            else:
                out[(label, term.true_target)] = p
                out[(label, term.false_target)] = 1.0 - p
    return out


def propagate_frequencies(
    function: Function, branch_probability: Dict[str, float]
) -> FrequencyResult:
    """Solve the flow equations for expected block/edge frequencies."""
    labels = _nested_order(CFG(function))
    index = {label: i for i, label in enumerate(labels)}
    probabilities = edge_probabilities(function, branch_probability)

    # rows[i][j]: coefficient of freq(labels[j]) in block i's equation.
    rows: List[Dict[int, float]] = [{i: 1.0} for i in range(len(labels))]
    for (src, dst), p in probabilities.items():
        if src in index and dst in index:
            row = rows[index[dst]]
            column = index[src]
            row[column] = row.get(column, 0.0) - p * (1.0 - DAMPING)
    entry = function.entry_label
    assert entry is not None
    solution = _solve_flow(rows, index[entry])
    block_frequency = {
        label: min(max(solution[i], 0.0), FREQUENCY_CAP)
        for i, label in enumerate(labels)
    }
    edge_frequency = {
        (src, dst): block_frequency.get(src, 0.0) * p
        for (src, dst), p in probabilities.items()
        if src in index
    }
    return FrequencyResult(block_frequency, edge_frequency)


def _nested_order(cfg: CFG) -> List[str]:
    """The reachable blocks in topological order with every loop contiguous.

    A region (at first all reachable blocks) splits into its strongly
    connected components in topological order.  A single block without a
    self-loop is emitted as is; a cycle emits its head -- its block the
    DFS from the entry reached first -- and then the rest of the cycle as
    a region of its own, which drops the edges back to the head.  An
    explicit stack keeps deep loop nests off the call stack.
    """
    rank = {label: i for i, label in enumerate(cfg.dfs_preorder())}
    order: List[str] = []
    stack: List[Union[str, Set[str]]] = [set(rank)]
    while stack:
        region = stack.pop()
        if isinstance(region, str):
            order.append(region)
            continue
        components = strongly_connected_components(
            sorted(region, key=rank.__getitem__),
            lambda label: [succ for succ in cfg.successors[label] if succ in region],
        )
        # Reverse topological order: pushed in it, the first runs first.
        for component in components:
            head = min(component, key=rank.__getitem__)
            if len(component) > 1 or head in cfg.successors[head]:
                stack.append(set(component) - {head})
            stack.append(head)
    return order


def _solve_flow(rows: List[Dict[int, float]], entry: int) -> List[float]:
    """Solve ``rows · x = e_entry`` by sparse elimination in row order.

    ``rows`` is consumed.  Row ``i`` is reduced against the already
    eliminated rows ``k < i`` it refers to, in increasing ``k`` (a heap,
    because eliminating ``k`` can fill in later columns below ``i``);
    what is left is row ``i`` of the upper factor.  See the module
    docstring for why the pivots never vanish.
    """
    pivots: List[float] = []
    upper: List[Dict[int, float]] = []
    forward: List[float] = []
    for i, row in enumerate(rows):
        value = 1.0 if i == entry else 0.0
        pending = [k for k in row if k < i]
        pending.sort()
        while pending:
            k = heappop(pending)
            factor = row.pop(k) / pivots[k]
            for j, coefficient in upper[k].items():
                if j not in row and j < i:
                    heappush(pending, j)
                row[j] = row.get(j, 0.0) - factor * coefficient
            value -= factor * forward[k]
        pivots.append(row.pop(i))
        upper.append(row)
        forward.append(value)
    solution = [0.0] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        value = forward[i]
        for j, coefficient in upper[i].items():
            value -= coefficient * solution[j]
        solution[i] = value / pivots[i]
    return solution


def function_frequencies(
    functions: Dict[str, Function],
    branch_probabilities: Dict[str, Dict[str, float]],
    entry: str = "main",
    max_rounds: int = 32,
) -> Dict[str, float]:
    """Whole-program function invocation frequencies.

    Iterates call-site frequencies through the call graph: a function's
    invocation frequency is the frequency-weighted sum of its call sites
    (the entry function gets 1).  Recursion converges geometrically and
    is cut off after ``max_rounds``.
    """
    from repro.ir.instructions import Call

    local: Dict[str, FrequencyResult] = {
        name: propagate_frequencies(func, branch_probabilities.get(name, {}))
        for name, func in functions.items()
    }
    call_weights: Dict[str, Dict[str, float]] = {name: {} for name in functions}
    for name, func in functions.items():
        result = local[name]
        for label, block in func.blocks.items():
            weight = result.frequency(label)
            for instr in block.instructions:
                if isinstance(instr, Call):
                    weights = call_weights[name]
                    weights[instr.callee] = weights.get(instr.callee, 0.0) + weight

    freq = {name: (1.0 if name == entry else 0.0) for name in functions}
    for _ in range(max_rounds):
        new_freq = {name: (1.0 if name == entry else 0.0) for name in functions}
        for caller, callees in call_weights.items():
            for callee, weight in callees.items():
                if callee in new_freq:
                    new_freq[callee] += freq[caller] * weight
        if all(
            abs(new_freq[name] - freq[name]) <= 1e-6 * max(1.0, freq[name])
            for name in functions
        ):
            freq = new_freq
            break
        freq = {name: min(value, FREQUENCY_CAP) for name, value in new_freq.items()}
    return freq
