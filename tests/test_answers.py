"""Every answer section of ``tools/dump_answers.py`` against the checked-in
digest, ``tests/answers.digest``.

A change that means to change an answer regenerates the digest with
``python3 tools/dump_answers.py --digest . tests/answers.digest`` and
declares which sections changed; any other change must leave it as it is.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tests" / "answers.digest"


def _sections(text):
    """{section name: (sha256, line count)} of a digest."""
    out = {}
    for line in text.splitlines():
        sha, count, name = line.split(" ", 2)
        out[name] = (sha, int(count))
    return out


def test_every_answer_section_matches_the_checked_in_digest(tmp_path):
    out = tmp_path / "answers.digest"
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "dump_answers.py"), "--digest", str(ROOT), str(out)],
        check=True,
        capture_output=True,
        timeout=600,
    )
    want, got = _sections(DIGEST.read_text()), _sections(out.read_text())
    report = {
        "changed": [name for name in want if name in got and got[name] != want[name]],
        "missing": [name for name in want if name not in got],
        "new": [name for name in got if name not in want],
    }
    assert not any(report.values()), "answer sections: " + "; ".join(
        f"{kind} {', '.join(names)}" for kind, names in report.items() if names
    )
