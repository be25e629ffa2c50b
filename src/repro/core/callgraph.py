"""Call graph construction and traversal orders.

Interprocedural value range propagation processes callees before callers
where possible (so return ranges are available) and iterates over
recursive components.  The call graph provides that order via Tarjan
SCC condensation.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.cfg import strongly_connected_components
from repro.ir.function import Function, Module
from repro.ir.instructions import Call


class CallSite:
    """One call instruction, with its location."""

    __slots__ = ("caller", "block_label", "instruction")

    def __init__(self, caller: str, block_label: str, instruction: Call):
        self.caller = caller
        self.block_label = block_label
        self.instruction = instruction

    @property
    def callee(self) -> str:
        return self.instruction.callee

    def __repr__(self) -> str:
        return f"CallSite({self.caller} -> {self.callee} at {self.block_label})"


class CallGraph:
    """Functions, their call sites, and SCC-based orders."""

    def __init__(self, module: Module):
        self.module = module
        self.call_sites: List[CallSite] = []
        self.callees: Dict[str, Set[str]] = {name: set() for name in module.functions}
        self.callers: Dict[str, Set[str]] = {name: set() for name in module.functions}
        for name, function in module.functions.items():
            for label, block in function.blocks.items():
                for instr in block.instructions:
                    if isinstance(instr, Call):
                        site = CallSite(name, label, instr)
                        self.call_sites.append(site)
                        if instr.callee in self.callees:
                            self.callees[name].add(instr.callee)
                            self.callers[instr.callee].add(name)

    def sites_of_callee(self, callee: str) -> List[CallSite]:
        return [site for site in self.call_sites if site.callee == callee]

    def sites_in_caller(self, caller: str) -> List[CallSite]:
        return [site for site in self.call_sites if site.caller == caller]

    def is_recursive(self, name: str) -> bool:
        for scc in self.sccs():
            if name in scc:
                return len(scc) > 1 or name in self.callees[name]
        return False

    def sccs(self) -> List[List[str]]:
        """Strongly connected components in reverse topological order
        (callees before callers)."""
        components = strongly_connected_components(
            sorted(self.module.functions), lambda name: sorted(self.callees[name])
        )
        return [sorted(component) for component in components]

    def bottom_up_order(self) -> List[str]:
        """Function names, callees before callers."""
        return [name for component in self.sccs() for name in component]
