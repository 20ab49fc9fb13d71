"""The README's python blocks run as written, so its quickstart cannot fall
behind the public API, and its scenario example names every config key."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_python_blocks_run(tmp_path, monkeypatch, capsys):
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.MULTILINE | re.DOTALL)
    assert blocks
    # The blocks write their files into the working directory.
    monkeypatch.chdir(tmp_path)
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), {})


def test_scenario_example_has_every_config_key():
    from filterlab.harness import SCENARIO_KEYS

    with open(README) as fh:
        [block] = re.findall(r"^```json\n(.*?)^```", fh.read(), re.MULTILINE | re.DOTALL)
    assert re.findall(r'^  "(\w+)":', block, re.MULTILINE) == list(SCENARIO_KEYS)
