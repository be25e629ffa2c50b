"""Seeded inputs for every workload.

The analyser only ever sees the files and payloads built here; the same
seed gives byte-identical inputs.  Three program families:

* the 31 suite programs of :mod:`repro.workloads` (the paper's SPEC
  stand-in), exported as ``.toy`` files, plus ``examples/*.toy``;
* size-scaled synthetic programs with the shape of
  :func:`repro.evalharness.synthetic_program` (a counted loop, a
  data-dependent branch and an accumulation per unit) whose constants
  come from the seed, so every seed yields programs no cache has seen;
* multi-component programs for serving: disjoint call-graph components
  (``top_i -> leaf_i``), so a one-function edit leaves the
  other components replayable from the incremental store.

Plus two kinds of hostile input: seeded syntax errors, and the
700-deep ``if`` nest that the ROADMAP lists as a ``RecursionError``.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.common import CLI_DIR, ROOT

EXAMPLES = ("examples/clamp.toy", "examples/countdown.toy")
#: Units of the one large program of the CLI workload.
LARGE_UNITS = 16
DEEP_NEST = 700


def suite_programs() -> List[Tuple[str, str]]:
    """``(name, source)`` for every suite program, in registry order."""
    from repro.workloads import all_workloads

    return [(w.name, w.source) for w in all_workloads()]


def suite_path(name: str) -> Path:
    """Where the CLI workload writes suite program ``name``."""
    return CLI_DIR / "suite" / f"{name}.toy"


def export_suite() -> List[str]:
    """Write the suite as ``.toy`` files; returns their paths from ROOT."""
    (CLI_DIR / "suite").mkdir(parents=True, exist_ok=True)
    paths = []
    for name, source in suite_programs():
        suite_path(name).write_text(source, encoding="utf-8")
        paths.append(str(suite_path(name).relative_to(ROOT)))
    return paths


def deep_nest(depth: int = DEEP_NEST) -> str:
    """``depth`` nested ``if`` statements around one assignment."""
    lines = ["func main(n) {", "  var x = 0;"]
    lines += [f"if (n > {level}) {{" for level in range(depth)]
    lines.append("x = 1;")
    lines += ["}"] * depth
    lines += ["  return x;", "}"]
    return "\n".join(lines) + "\n"


def syntax_error(rng: random.Random, sources: List[str]) -> Tuple[str, str]:
    """A seeded broken copy of one source and the message it must produce.

    Breaks the program at a seeded spot (stray ``)`` after a statement,
    truncation after a ``{``, or an illegal character) and keeps only
    variants the front end really rejects, so the expected CLI answer
    is always ``error: <message>``.
    """
    from repro.lang import LexError, LoweringError, ParseError, compile_source

    while True:
        source = rng.choice(sources)
        kind = rng.randrange(3)
        marker = ";" if kind == 0 else "{"
        spots = [i for i, ch in enumerate(source) if ch == marker]
        spot = rng.choice(spots)
        if kind == 0:
            broken = source[: spot + 1] + " )" + source[spot + 1:]
        elif kind == 1:
            broken = source[: spot + 1]
        else:
            broken = source[: spot + 1] + " $ " + source[spot + 1:]
        try:
            compile_source(broken)
        except (LexError, ParseError, LoweringError) as error:
            return broken, str(error)


def synthetic_variant(units: int, rng: random.Random) -> str:
    """A size-scaled synthetic program with seeded loop limits."""
    parts = ["func main(n) {", "  var acc = 0;"]
    for unit in range(units):
        limit = rng.randint(8, 24)
        threshold = rng.randint(2, limit - 2)
        modulus = rng.randint(2, 5)
        parts.append(f"  var v{unit} = 0;")
        parts.append(
            f"  for (i{unit} = 0; i{unit} < {limit}; i{unit} = i{unit} + 1) {{")
        parts.append(f"    if (i{unit} > {threshold}) {{ v{unit} = v{unit} + 2; }}")
        parts.append(f"    else {{ v{unit} = v{unit} + 1; }}")
        parts.append(f"    if (v{unit} % {modulus} == 0) {{ acc = acc + 1; }}")
        parts.append("  }")
        parts.append(f"  if (v{unit} > {limit}) {{ acc = acc + v{unit}; }}")
    parts.append("  return acc;")
    parts.append("}")
    return "\n".join(parts) + "\n"


_COMPONENT = """\
func leaf_{i}(x) {{
  var t = 0;
  for (j = 0; j < {trip}; j = j + 1) {{
    if (x + j > {threshold}) {{ t = t + 2; }} else {{ t = t + 1; }}
  }}
  return t;
}}

func top_{i}(n) {{
  var s = leaf_{i}(n);
  if (s > {cut}) {{ return s - {cut}; }}
  return s;
}}
"""


class ServeProgram:
    """A multi-component program kept as its constants, so it can be edited."""

    def __init__(self, components: List[Dict[str, int]]):
        self.components = components

    @classmethod
    def draw(cls, rng: random.Random, count: int = 2) -> "ServeProgram":
        components = []
        for _ in range(count):
            components.append({
                "trip": rng.randint(12, 40),
                "threshold": rng.randint(4, 60),
                "cut": rng.randint(20, 90),
            })
        return cls(components)

    def edited(self, rng: random.Random) -> "ServeProgram":
        """The same program with one ``leaf_i`` threshold changed."""
        components = [dict(c) for c in self.components]
        target = components[rng.randrange(len(components))]
        target["threshold"] += rng.choice((-3, -2, -1, 1, 2, 3))
        return ServeProgram(components)

    def source(self) -> str:
        parts = [_COMPONENT.format(i=i, **c) for i, c in enumerate(self.components)]
        parts.append("func main(n) {\n  return top_0(n);\n}\n")
        return "\n".join(parts)
