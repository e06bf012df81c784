import json

import make_golden
from inclined import __version__


def test_the_golden_set_keeps_every_byte(tmp_path):
    # Every exit code, stdout and file of tests/data/make_golden.py's commands
    # against the digests it recorded for this numpy and BLAS; for a pair it
    # has no set for, against a second run of the same commands.
    golden = make_golden.load()
    assert golden["version"] == __version__, "rerun tests/data/make_golden.py"
    run = tmp_path / "run"
    run.mkdir()
    digests = make_golden.run_set(run)
    # the digests demo records of its own files are the ones taken here
    summary = json.loads((run / "demo" / "demo_summary.json").read_text())
    assert {f"demo/{name}": digest for name, digest in summary["files"].items()}.items() \
        <= digests["files"].items()
    expected = golden["sets"].get(make_golden.environment_key())
    if expected is None:
        (tmp_path / "again").mkdir()
        expected = make_golden.run_set(tmp_path / "again")
    # named, so that a failure says which command or file changed
    changed = [name for part in ("commands", "files")
               for name in sorted(expected[part].keys() | digests[part].keys())
               if expected[part].get(name) != digests[part].get(name)]
    assert changed == []
