import os
import subprocess
import sys
from pathlib import Path

import edgesched

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = ("import os, edgesched; "
         "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")


def threads_after_import(**preset):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.split()


class TestBlasThreads:
    def test_import_caps_threads_at_one(self):
        assert threads_after_import() == ["1", "1"]

    def test_user_setting_wins(self):
        assert threads_after_import(OPENBLAS_NUM_THREADS="3") == ["3", "1"]


def test_every_export_resolves():
    missing = [name for name in edgesched.__all__
               if not hasattr(edgesched, name)]
    assert missing == []
