import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    # the README's library example must keep running against the public API
    text = README.read_text()
    tour = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert abs(namespace["val"] - 3.27) < 0.01
    assert namespace["rep"]["target"] == 31


def test_public_api_size():
    # the public API is tracked next to the timings: a change adds a public
    # name on purpose, and updates this count with it
    import opuczeros
    assert len(opuczeros.__all__) == 27
    assert all(hasattr(opuczeros, name) for name in opuczeros.__all__)
