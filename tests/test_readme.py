import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    # Running the tour's python block keeps its imports and calls in step
    # with the package.
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md:library-tour", "exec"), {})
