import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_make_figure_data_writes_every_manifest_output(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_figure_data.py"), "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    manifests = sorted(tmp_path.glob("*/*_manifest.json"))
    assert {m.parent.name for m in manifests} == {
        "temperature", "thermo", "linear_response", "cumulants", "lr_cumulants",
        "distribution", "verify_oracle",
    }
    for manifest in manifests:
        outputs = json.loads(manifest.read_text())["outputs"]
        assert outputs
        for name in outputs:
            assert name.endswith(".csv")
            assert (manifest.parent / name).is_file(), f"{manifest.parent.name}: {name} missing"
