import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # the library sketch names public hrsp functions; a rename breaks it here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
