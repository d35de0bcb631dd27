"""The benchmark's tracer looks program functions up by name.

``kbench/spans.py`` wraps every name in its ``METHODS`` and ``PRIVATE``
lists and raises if one is gone, so renaming or deleting such a name
breaks the traced benchmark rounds.  This runs one traced request to
catch that here.
"""

import importlib.util
import json
import sys
from pathlib import Path

from ktower import cli
from ktower.fgab import FgAbGroup, Homomorphism, hom_to_json
from ktower.intlin import IntMatrix

SPANS = Path(__file__).resolve().parent.parent / "kbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("kbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # leave the benchmark directory as it is: no bytecode cache
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_hom_request(tmp_path, capsys):
    z = FgAbGroup.free(1)
    payload = tmp_path / "hom.json"
    payload.write_text(json.dumps(hom_to_json(Homomorphism(z, z, IntMatrix.from_rows([[2]])))))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        code = cli.main(["hom", "--format", "json", "--input", str(payload)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.counts["intlin.snf.calls"] > 0
    assert tracer.counts["fgab.kernel.calls"] == 1
