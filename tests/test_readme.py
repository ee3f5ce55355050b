"""The README's library example and CLI examples run as written."""

import io
import re
import shlex
import sys
from pathlib import Path

from radiolabel.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def readme_pipelines() -> list:
    """Each `radiolabel` line of the README's sh blocks as a list of argvs,
    one per stage of its pipeline, without the program name."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    pipelines = []
    for line in "".join(blocks).splitlines():
        if line.startswith("radiolabel "):
            stages = [shlex.split(stage, comments=True)
                      for stage in line.split("|")]
            assert all(argv[0] == "radiolabel" for argv in stages), line
            pipelines.append([argv[1:] for argv in stages])
    return pipelines


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    # in order, in one directory, since later lines read the files that
    # earlier ones write; a stage reads the previous stage's stdout
    pipelines = readme_pipelines()
    assert len(pipelines) >= 10
    monkeypatch.chdir(tmp_path)
    for stages in pipelines:
        out = ""
        for argv in stages:
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, err) == (0, ""), argv
