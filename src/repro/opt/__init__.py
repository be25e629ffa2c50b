"""Optimisation clients of value range propagation (paper §6).

* :mod:`repro.opt.unreachable` -- probability-0 edges and dead blocks;
* :mod:`repro.opt.constfold` -- the constant/copy subsumption rewrites;
* :mod:`repro.opt.dce` -- dead code elimination + certain-branch folding;
* :mod:`repro.opt.boundscheck` -- array bounds-check elimination;
* :mod:`repro.opt.array_alias` -- index-range alias disambiguation;
* :mod:`repro.opt.layout` -- Pettis–Hansen code layout from predictions;
* :mod:`repro.opt.speculation` -- hoisting usefulness for global scheduling;
* :mod:`repro.opt.superblock` -- trace (superblock) selection;
* :mod:`repro.opt.inlining` -- prediction-driven function inlining;
* :mod:`repro.opt.function_order` -- frequency-ordered function processing.

The package re-exports nothing: import each client from its submodule
(``from repro.opt.layout import chain_layout``), so that a caller which
needs one client -- ``repro check`` needs only bounds checks -- loads
only that one.
"""

__all__: list = []

