"""Every counter/histogram write outside ``repro.obs`` is one booking call.

:func:`repro.obs.metrics.count` / :func:`~repro.obs.metrics.observe`
write the registry, the request timeline and the open span together.  A
direct ``get_metrics().counter(...).inc()`` or ``.histogram(...)
.observe()`` would feed ``/metrics`` alone and let the three views drift
apart again, so this AST scan fails on any such write.  Reads of an
instrument (``.histogram(...).percentiles()``) and gauges are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Read-only uses of an instrument returned by ``.counter()``/``.histogram()``.
READS = {"percentiles", "summary", "quantile", "count_below", "value",
         "count", "total", "mean"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        if "obs" not in path.relative_to(SRC).parts[:1]:
            yield path


def _violations(source: str, where: str):
    tree = ast.parse(source, filename=where)
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "histogram")):
            up = parents.get(node)
            if not (isinstance(up, ast.Attribute) and up.attr in READS):
                yield f"{where}:{node.lineno}: .{node.func.attr}(...) write"
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith("timeline_"):
                    yield f"{where}:{node.lineno}: imports {alias.name}"
        if (isinstance(node, ast.Attribute)
                and node.attr.startswith("timeline_")):
            yield f"{where}:{node.lineno}: uses {node.attr}"


def test_scan_covers_the_stack():
    names = {p.relative_to(SRC).parts[0] for p in _modules()}
    assert {"engine", "exec", "serve", "shard", "plan", "gpusim"} <= names


def test_counter_and_histogram_writes_go_through_one_booking_call():
    found = [v for p in _modules()
             for v in _violations(p.read_text(), str(p.relative_to(SRC)))]
    assert found == [], (
        "book counters/histograms with repro.obs.count/observe:\n"
        + "\n".join(found)
    )


def test_scan_flags_direct_writes():
    bad = (
        "from repro.obs.context import timeline_gone\n"
        "m.counter('a', k=1).inc()\n"
        "h = m.histogram('b')\n"
        "m.histogram('b').percentiles()\n"
        "m.gauge('c').set(1)\n"
    )
    found = list(_violations(bad, "bad.py"))
    assert sorted(f.split(":")[1] for f in found) == ["1", "2", "3"], found
