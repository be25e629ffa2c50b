"""Record the fixtures the benchmark checks outputs against.

Run once from the repository root, on the commit whose behaviour the
fixtures should pin::

    python3 perfbench/record_fixtures.py

Writes ``perfbench/fixtures/cli_outputs.json`` (stdout and exit code of
``repro predict`` and ``repro check`` for every fixed CLI input) and
``perfbench/fixtures/ref_profiles.json`` (branch counts of every suite
program on its ref inputs, from the profiling interpreter -- the
independent oracle for ``quality.within10_pct``; recording them here
spares timed runs ~16 s of interpretation).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import cli_oneshot  # noqa: E402
from perfbench.common import FIXTURES  # noqa: E402


def record_cli_outputs() -> dict:
    out = {}
    for path in cli_oneshot.fixed_files():
        out[path] = {}
        for command in ("predict", "check"):
            call = cli_oneshot.run_cli(command, path)
            out[path][command] = {"stdout": call.stdout, "exit": call.exit_code}
    return out


def record_ref_profiles() -> dict:
    from repro.ir import prepare_module
    from repro.lang import compile_source
    from repro.profiling import run_module
    from repro.workloads import all_workloads

    out = {}
    for workload in all_workloads():
        module = compile_source(workload.source, module_name=workload.name)
        prepare_module(module)
        ref = run_module(module, args=workload.ref_args,
                         input_values=workload.ref_inputs,
                         max_steps=workload.max_steps)
        out[workload.name] = sorted(
            [function, label, counts[0], counts[1]]
            for (function, label), counts in ref.branch_counts.items()
        )
    return out


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, build in (("cli_outputs.json", record_cli_outputs),
                        ("ref_profiles.json", record_ref_profiles)):
        (FIXTURES / name).write_text(
            json.dumps(build(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {FIXTURES / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
