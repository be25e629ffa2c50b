"""Cold-start import budget of the one-shot CLI.

``repro predict``/``check`` start a fresh interpreter per call, so what
``import repro.cli`` loads is most of their wall time.  Wall time swings
too much on a shared runner to gate on, so this gates on what is
deterministic: the set and the number of modules loaded.  A child
process with numpy blocked (``sys.modules["numpy"] = None`` makes every
``import numpy`` fail) also proves the runtime never needs numpy: every
command prints the same as in a child without the block.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.workloads import get_workload

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules an untraced predict/check must not pay for at import time.
NOT_AT_IMPORT = [
    "numpy",
    "repro.profiling",
    "repro.opt",
    "repro.server",
    "repro.incremental",
    "repro.diagnostics",
    "repro.observability.metrics",
]
#: ``len(sys.modules)`` after ``import repro.cli`` (282 while the
#: frequency solver imported numpy).
MODULE_BUDGET = 190

PROBE = textwrap.dedent(
    """
    import io, json, sys
    from contextlib import redirect_stderr, redirect_stdout

    block, workload_file = sys.argv[1] == "block", sys.argv[2]
    if block:
        sys.modules["numpy"] = None
    import repro.cli

    loaded = [name for name, module in sys.modules.items() if module is not None]
    runs = []
    for argv in (
        ["predict", workload_file],
        ["check", workload_file],
        ["opt", "--pipeline", "optimize", workload_file],
        ["evaluate", "--workload", "fir"],
    ):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = repro.cli.main(argv) or 0
            except SystemExit as exit:
                code = exit.code
        runs.append([argv[0], code, out.getvalue()])
    print(json.dumps({"loaded": loaded, "runs": runs}))
    """
)


def _probe(block: bool, workload_file: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, "block" if block else "open", str(workload_file)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    return json.loads(proc.stdout)


def _strip_timings(text: str) -> str:
    # ``opt`` prints each pass's wall time; everything else must match.
    return re.sub(r"\d+\.\d{6}", "<seconds>", text)


@pytest.fixture(scope="module")
def probes(tmp_path_factory):
    path = tmp_path_factory.mktemp("budget") / "fir.toy"
    path.write_text(get_workload("fir").source, encoding="utf-8")
    return _probe(True, path), _probe(False, path)


def test_import_skips_unused_layers(probes):
    blocked, _ = probes
    eager = [name for name in NOT_AT_IMPORT if name in blocked["loaded"]]
    assert not eager, f"import repro.cli loaded {eager}"


def test_module_count_within_budget(probes):
    blocked, _ = probes
    assert len(blocked["loaded"]) <= MODULE_BUDGET


def test_commands_run_without_numpy(probes):
    blocked, unblocked = probes
    assert [run[0] for run in blocked["runs"]] == ["predict", "check", "opt", "evaluate"]
    for (command, code, out), (_, want_code, want_out) in zip(
        blocked["runs"], unblocked["runs"]
    ):
        assert code == want_code == 0, command
        assert out, command
        assert _strip_timings(out) == _strip_timings(want_out), command
