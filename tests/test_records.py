"""The committed benchmark records can be regenerated.

Each `BENCH_*.json` at the root of the repository names, in its
"command", the script under scripts/ that wrote it.  A record whose
script is gone describes code nobody can rerun.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_benchmark_record_names_a_script_that_exists():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for record in records:
        command = json.loads(record.read_text(encoding="utf-8"))["command"]
        scripts = re.findall(r"scripts/[\w./-]+\.py", command)
        assert scripts, f"{record.name}: no script under scripts/ in {command!r}"
        for script in scripts:
            assert (ROOT / script).is_file(), f"{record.name}: {script} does not exist"
