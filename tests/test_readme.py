"""The README's Library example runs as written and shows what its comments claim."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    (code,) = re.findall(r"## Library\n\n```python\n(.*?)```", text, flags=re.DOTALL)
    scope: dict = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["gf"].coeffs[35] % 40 == 0
    assert scope["rk_series"](3, 100).coeffs[7] == 0
    assert scope["summary"] == {"pass": 19, "fail": 0, "skipped": 0}
    assert len(scope["reports"]) == 19
