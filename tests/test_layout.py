"""Guards on the package layout that the benchmark and the library rely on."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_library_import_leaves_the_test_harness_unloaded():
    code = (
        "import sys, causaltab, causaltab.pipeline, causaltab.discovery; "
        "sys.exit('causaltab.synth' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr or "causaltab.synth was imported"


def test_benchmark_tracer_installs_and_uninstalls():
    # perfbench/tracing.py wraps module attributes by name; a rename of any
    # of them fails here rather than in the benchmark
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    from causaltab import pipeline

    original = pipeline.effect_table
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert pipeline.effect_table is not original
    finally:
        tracer.uninstall()
    assert pipeline.effect_table is original
