"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_is_accepted():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["result"].outcome is namespace["protocol"].Outcome.ACCEPTED
