"""tools/artifact_diff.py: bitwise comparison of two digest OUTDIRs and the size of each change."""
import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "artifact_diff.py")
_spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)

CSV = {"x": ["-9.75000000000000000e-01", "0.00000000000000000e+00", "9.75000000000000000e-01"],
       "u": ["5.43481942953327968e-01", "nan", "1.00000000000000000e+00"]}
META = {"config": {"outdir": "", "ns": [40], "flux": "a"},
        "front_comparison": {"reference_fronts": [0.543481942953328, 1.25], "max_offset": 0.0},
        "slope": float("nan")}


def _outdir(top, name, csv=None, meta=None):
    """A digest OUTDIR holding one run, run/out.csv and run/out.json, written as the CLI
    writes them, its outdir in the metadata set to the run's directory."""
    csv, meta = csv or CSV, json.loads(json.dumps(meta or META))
    run = top / name / "run"
    run.mkdir(parents=True)
    rows = [",".join(csv)] + [",".join(r) for r in zip(*csv.values())]
    (run / "out.csv").write_text("\n".join(rows) + "\n")
    meta["config"]["outdir"] = str(run)
    (run / "out.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return str(top / name)


def _diff(capsys, a, b):
    code = artifact_diff.main([a, b])
    return code, capsys.readouterr().out


def test_identical_runs_in_different_directories(tmp_path, capsys):
    # the outdirs differ, and a NaN leaf equals a NaN of the same bits
    code, out = _diff(capsys, _outdir(tmp_path, "a"), _outdir(tmp_path, "b"))
    assert code == 0
    assert out.splitlines() == ["run/out.csv   identical", "run/out.json  identical",
                                "2 of 2 artifacts identical"]


def test_one_ulp_in_a_csv_column(tmp_path, capsys):
    csv = dict(CSV, u=["5.43481942953327857e-01", *CSV["u"][1:]])  # one ulp below row 1
    code, out = _diff(capsys, _outdir(tmp_path, "a"), _outdir(tmp_path, "b", csv=csv))
    assert code == 1
    assert "run/out.csv   differs" in out and "run/out.json  identical" in out
    note = next(line for line in out.splitlines() if "column u" in line)
    assert note.startswith("    column u: 1 of 3 rows differ, max abs 1.11e-16, max rel 2.04e-16")
    assert note.endswith("first row 1: 5.43481942953327968e-01 vs 5.43481942953327857e-01")
    assert "column x" not in out


def test_a_changed_json_leaf_by_its_path(tmp_path, capsys):
    meta = json.loads(json.dumps(META))
    meta["front_comparison"]["reference_fronts"][0] = 0.5434819429533279
    meta["config"]["flux"] = "c"
    code, out = _diff(capsys, _outdir(tmp_path, "a"), _outdir(tmp_path, "b", meta=meta))
    assert code == 1
    assert "    config.flux: 'a' vs 'c'" in out
    assert ("    front_comparison.reference_fronts[0]: 0.543481942953328 vs 0.5434819429533279 "
            "(abs 1.11e-16, rel 2.04e-16)") in out
    assert "outdir" not in out and "reference_fronts[1]" not in out


def test_a_signed_zero_differs_by_its_bits(tmp_path, capsys):
    csv = dict(CSV, x=[CSV["x"][0], "-0.00000000000000000e+00", CSV["x"][2]])
    meta = dict(META, front_comparison=dict(META["front_comparison"], max_offset=-0.0))
    code, out = _diff(capsys, _outdir(tmp_path, "a"), _outdir(tmp_path, "b", csv, meta))
    assert code == 1
    assert ("    column x: 1 of 3 rows differ, max abs 0, max rel 0, first row 2: "
            "0.00000000000000000e+00 vs -0.00000000000000000e+00") in out
    assert "    front_comparison.max_offset: 0.0 vs -0.0 (abs 0, rel 0)" in out


def test_a_nan_of_other_bits_differs(tmp_path, capsys):
    # text carries a NaN's sign: -nan parses with the sign bit set
    csv = dict(CSV, u=[CSV["u"][0], "-nan", CSV["u"][2]])
    code, out = _diff(capsys, _outdir(tmp_path, "a"), _outdir(tmp_path, "b", csv=csv))
    assert code == 1
    assert "    column u: 1 of 3 rows differ, max abs nan, max rel nan, first row 2: nan vs -nan" \
        in out


def test_artifacts_on_one_side_only_and_other_files(tmp_path, capsys):
    a, b = _outdir(tmp_path, "a"), _outdir(tmp_path, "b")
    os.remove(os.path.join(b, "run", "out.json"))
    os.makedirs(os.path.join(a, "configs"))
    os.makedirs(os.path.join(b, "configs"))
    for top, text in ((a, "ns = 40\n"), (b, "ns = 400\n")):
        with open(os.path.join(top, "configs", "one.cfg"), "w") as fh:
            fh.write(text)
    code, out = _diff(capsys, a, b)
    assert code == 1
    assert out.splitlines() == ["configs/one.cfg  differs", "    bytes: 8 vs 9",
                                "run/out.csv      identical", "run/out.json     differs",
                                "    only in A", "1 of 3 artifacts identical"]


def test_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        artifact_diff.main([str(tmp_path), str(tmp_path / "none")])
    assert exc.value.code == 2
