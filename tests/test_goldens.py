"""Artifact bytes of all seven scenarios, pinned across changes.

``tests/data/golden_digests.txt`` holds the sha256 of every artifact that
``scripts/regen_goldens.py`` produces; a change that moves any byte fails
here until the file is regenerated and the change is explained.  The same
digests must come out of a serial run with the default chunks and of a
two-thread run with chunks of at most 64 streams drawn in many step blocks.
"""

import importlib.util
from pathlib import Path

import pytest

from spinmech import sde

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "regen_goldens.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("regen_goldens", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n_workers, chunk_streams, chunk_bytes", [
    (1, sde._CHUNK_STREAMS, sde._CHUNK_NOISE_BYTES),
    # chunks of at most 64 streams in blocks of at least 48 steps (30 at momentum_limit's
    # two step sizes): each worker runs several chunks of mc_fp_xval, ou_relax and
    # track_ensemble, and every ensemble chunk draws in several blocks
    (2, 64, 8 * 64 * 48),
], ids=["serial", "threaded-small-chunks"])
def test_artifact_digests_match_goldens(tmp_path, monkeypatch, n_workers, chunk_streams,
                                        chunk_bytes):
    monkeypatch.setattr(sde, "_CHUNK_STREAMS", chunk_streams)
    monkeypatch.setattr(sde, "_CHUNK_NOISE_BYTES", chunk_bytes)
    regen = _load_script()
    expected = regen.GOLDEN_FILE.read_text().splitlines()
    actual = regen.digest_lines(tmp_path, n_workers)
    assert actual == expected, "\n".join(["artifacts moved:", *regen.moved_lines(expected, actual),
                                          regen.cpu_features()])


def test_a_failed_check_names_the_cpu_features(tmp_path, monkeypatch, capsys):
    regen = _load_script()
    golden = tmp_path / "golden_digests.txt"
    golden.write_text("0" * 64 + "  ou_relax/summary.txt\n")
    monkeypatch.setattr(regen, "GOLDEN_FILE", golden)
    monkeypatch.setattr(regen, "digest_lines",
                        lambda work, **kw: ["1" * 64 + "  ou_relax/summary.txt"])
    monkeypatch.setattr("sys.argv", ["regen_goldens.py", "--check"])
    assert regen.main() == 1
    err = capsys.readouterr().err.splitlines()
    assert err[1:3] == ["- " + "0" * 64 + "  ou_relax/summary.txt",
                        "+ " + "1" * 64 + "  ou_relax/summary.txt"]
    assert err[3] == regen.cpu_features() and err[3].startswith("numpy dispatch features: ")
    assert len(err[3].split()) > 3  # names at least one enabled feature
