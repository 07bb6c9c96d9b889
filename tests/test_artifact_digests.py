"""tools/artifact_digests.py: the digest of a run's metadata and its run matrix."""
import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "artifact_digests.py")
_spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)


def _write(path, meta):
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return str(path)


def test_metadata_digest_ignores_only_the_outdir(tmp_path):
    meta = {"config": {"outdir": "runs/a", "ns": 40, "flux": "a"},
            "results": {"fronts": [0.543481942953328, 1.25]}}
    a = _write(tmp_path / "a.json", meta)
    meta["config"]["outdir"] = "/elsewhere/b"
    b = _write(tmp_path / "b.json", meta)
    assert artifact_digests.digest(a) == artifact_digests.digest(b)
    meta["results"]["fronts"][0] = 0.5434819429533279  # one ulp
    c = _write(tmp_path / "c.json", meta)
    assert artifact_digests.digest(c) != artifact_digests.digest(a)


def test_every_replay_replays_a_run_of_the_matrix():
    assert artifact_digests.REPLAYS
    for name, source in artifact_digests.REPLAYS.items():
        assert name in artifact_digests.RUNS and source in artifact_digests.RUNS, name
