"""README examples run as written, so the docs keep up with the names they use."""

import csv
import json
import pathlib
import re

from weylscope import cli, hainlust

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for source in blocks:
        exec(compile(source, "README.md", "exec"), {})


def test_readme_scan_config_runs(tmp_path):
    configs = [json.loads(block) for block in _blocks("json")]
    (config,) = [c for c in configs if c["model"]["type"] == "hainlust"]
    path, out = tmp_path / "cfg.json", tmp_path / "scan.csv"
    path.write_text(json.dumps(config))
    assert cli.main(["scan", "--config", str(path), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == list(hainlust.SCAN_HEADER) and len(header) == 13
