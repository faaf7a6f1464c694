"""The interpreter tour in README.md, run as a doctest, so its documented
outputs cannot drift from what the library prints."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour():
    tour = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(tour, {}, "README tour",
                                               str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize() == (0, 6)
