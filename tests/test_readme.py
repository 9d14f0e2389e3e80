"""README's "Quick start (library)" example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_verbatim():
    """The first Python fence of README.md executes unchanged, and its first
    print matches the output shown in its comment.  It passes FieldElement
    sets to subgroup_from_MB and FieldElement messages to encode, so it
    guards the element-or-encoding boundary of the public API."""
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    shown = re.search(r"print\(inst\.summary\(\)\)\s+# (.*)", code).group(1)
    assert out.getvalue().splitlines()[0] == shown
