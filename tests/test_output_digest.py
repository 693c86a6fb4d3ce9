"""``tests/output_digest.py`` prints one SHA-256 per output family, the same on every run."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_one_digest_per_family_and_repeatable(tmp_path):
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tests", "output_digest.py")],
            cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    lines = outputs[0].splitlines()
    assert [line.split()[0] for line in lines] == ["gradients", "training", "captions", "alphas",
                                                   "checkpoint", "metrics"]
    for line in lines:
        assert re.fullmatch(r"[a-z]+ [0-9a-f]{64}", line), line
    assert outputs[1] == outputs[0]
    assert os.listdir(tmp_path) == []  # the gen-synth data goes to a removed temp directory
