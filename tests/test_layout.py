"""Guards on the package layout that the benchmark and the library rely on."""

import ast
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "causaltab"


def test_library_import_leaves_the_test_harness_unloaded():
    code = (
        "import sys, causaltab, causaltab.pipeline, causaltab.discovery, causaltab.cli; "
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


def _without(text: str, nodes) -> str:
    """``text`` with the source lines of ``nodes`` blanked out."""
    lines = text.splitlines()
    for node in nodes:
        lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _defines(node, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(getattr(t, "id", None) == name for t in targets)


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a name in a module's __all__ must be used by the library, the
    # benchmark or the README; one that only tests call belongs in tests/
    others = [*PACKAGE.glob("*.py"), *(REPO / "perfbench").glob("*.py"), REPO / "README.md"]
    texts = {path: path.read_text(encoding="utf-8") for path in others}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(texts[path])
        exports = [n for n in module.body if _defines(n, "__all__")]
        for export in exports:
            for name in ast.literal_eval(export.value):
                word = re.compile(rf"\b{re.escape(name)}\b")
                own = _without(texts[path], [export, *(n for n in module.body if _defines(n, name))])
                if not word.search(own) and not any(
                    word.search(text) for other, text in texts.items() if other != path
                ):
                    unused.append(f"{path.stem}.{name}")
    assert unused == []
