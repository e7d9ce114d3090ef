"""Registering the package ships UDF code by value, submodules included."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

# Runs in an isolated interpreter (``-I``, cwd outside the repo) where
# ``documentai_ray`` cannot be imported, so a by-reference pickle fails
# here with ModuleNotFoundError.
_LOADER = textwrap.dedent("""
    import json, pickle, sys
    try:
        import documentai_ray
    except ModuleNotFoundError:
        pass
    else:
        sys.exit("documentai_ray is importable in the loader")
    fn, batch = pickle.loads(sys.stdin.buffer.read())
    print(json.dumps(fn(batch).to_pylist()))
""")

# Runs in a fresh interpreter so ``stages.extract`` is provably imported
# only after registration.
_DRIVER = textwrap.dedent("""
    import json, subprocess, sys
    import pyarrow as pa
    from ray import cloudpickle
    import documentai_ray

    documentai_ray.register_for_ray_by_value()
    assert "documentai_ray.stages.extract" not in sys.modules
    from documentai_ray.stages.extract import extract_batch

    batch = pa.table({"url": ["u1", "u2"], "html": [
        b"<html><body><p>Purchase order PO-1 dated today.</p></body></html>",
        b"<html><head><title>t</title></head><body><h1>Hi</h1></body></html>",
    ]})
    out = subprocess.run([sys.executable, "-I", "-c", sys.argv[2]],
                         input=cloudpickle.dumps((extract_batch, batch)),
                         capture_output=True, cwd=sys.argv[1])
    assert out.returncode == 0, out.stderr.decode()[-1500:]
    remote = json.loads(out.stdout)
    local = extract_batch(batch).to_pylist()
    assert remote == local, (remote, local)
    assert local[0]["text"]
    print("ok")
""")


def test_registered_package_pickles_later_submodules_by_value(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _DRIVER, str(tmp_path), _LOADER],
        capture_output=True, text=True, cwd=REPO)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip().endswith("ok")
