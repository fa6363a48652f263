import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_verify_suites.py"


def test_quick_plan_passes_every_suite():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(SCRIPT), "--quick"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    verdicts = re.findall(r"^\w+ +(PASS|FAIL) +checks=", result.stdout, re.M)
    assert verdicts == ["PASS"] * 9
