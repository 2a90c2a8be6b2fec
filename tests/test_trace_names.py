import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_trace_names_resolve():
    # perfbench/tracing.py wraps package functions by name, so a renamed one
    # fails its install; a subprocess leaves this process's functions unwrapped
    code = "import sys; sys.path[:0]=['perfbench','src']; import tracing; tracing.install(tracing.Tracer())"
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
