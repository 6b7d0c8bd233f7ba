"""The README's interactive examples, run as doctests."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    # A code fence right after an expected output would read as part of it.
    text = "\n".join(
        line for line in README.read_text().splitlines() if not line.startswith("```")
    )
    test = doctest.DocTestParser().get_doctest(text, {}, README.name, str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0
    assert result.attempted >= 21
