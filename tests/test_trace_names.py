"""The functions the bench's traced pass wraps by name stay on the CLI path.

``bench/tracing.py`` replaces each ``(module, attribute)`` of its span
lists by a timing wrapper; a name that no command calls any more would
silently read 0.  The module is imported as it is, without writing
bytecode next to it, and its own ``Tracer`` and ``installed`` record the
calls.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ultrapoly.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def _spans(tracing):
    return tracing.LAYER_SPANS + tracing.PART_SPANS + tracing.READ_SPANS


def test_every_traced_name_resolves(tracing):
    for module, attribute, _, _ in _spans(tracing):
        owner, name = tracing._resolve(module, attribute)
        assert callable(getattr(owner, name)), (module, attribute)


def test_every_traced_name_is_called(tracing, tmp_path):
    streams = [[0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    padic = tmp_path / "padic.json"
    padic.write_text(
        json.dumps({"labels": list("abcde"), "prime": 2, "padic_points": streams})
    )
    config = tmp_path / "k1.json"
    config.write_text(json.dumps({"schedule": {"j": list(range(6)), "k": [1] * 6}}))
    raw = tmp_path / "raw.json"
    matrix = [["0", "1/4", "0.5", "1"], ["1/4", "0", "1/2", "1"], ["0.5", "1/2", "0", "1"]]
    matrix.append(["1", "1", "1", "0"])
    raw.write_text(json.dumps({"labels": list("wxyz"), "prime": 3, "matrix": matrix}))
    bundle = tmp_path / "padic" / "expansion.json"
    runs = [
        ["expand", str(padic), "--config", str(config), "--out", str(tmp_path / "padic")],
        ["expand", str(raw), "--out", str(tmp_path / "raw")],
        ["shadow", str(bundle), "--csv", "--out", str(tmp_path / "shadow")],
        ["export", "dot", str(bundle), "--out", str(tmp_path / "dot")],
    ]
    tracer = tracing.Tracer("names", 0)
    with tracing.installed(tracer, _spans(tracing)):
        for argv in runs:
            with redirect_stdout(io.StringIO()):
                assert main(argv) == EXIT_OK, argv
    called = {span["name"] for span in tracer.spans}
    assert [name for _, _, name, _ in _spans(tracing) if name not in called] == []
