import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
#: a backticked dotted name such as `protocol.branch_matrix` or `hrsp.cli`
DOTTED = re.compile(r"`((?:hrsp\.)?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def test_readme_python_blocks_run():
    # the library sketch names public hrsp functions; a rename breaks it here
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_prose_names_resolve():
    # every `module.name` outside the code blocks names something in hrsp
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    names = DOTTED.findall(prose)
    assert "protocol.branch_matrix" in names and "exact.GATES" in names
    for name in names:
        module, *attrs = name.removeprefix("hrsp.").split(".")
        obj = importlib.import_module(f"hrsp.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"README names {name}, which hrsp lacks"
            obj = getattr(obj, attr)
