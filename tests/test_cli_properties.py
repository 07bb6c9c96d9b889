"""Property tests of the CLI configuration: round-trips, flags and exit code 2."""
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavedg import cli
from wavedg.cli import ConfigError, ExperimentConfig, emit_config, main, parse_config
from wavedg.mesh import uniform_mesh_1d
from wavedg.problems import EXAMPLES
from wavedg.scheme1d import SOURCES

# the fixtures are shared by the examples of one test: tmp_path files are
# rewritten by each example, and monkeypatch sets the same guard every time
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
default_or_positive = st.one_of(st.just(-1.0), positive)
interval = st.builds(lambda a, w: (a, a + w), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
domains = st.one_of(st.just(()), interval, st.builds(lambda a, b: a + b, interval, interval))


def _is_valid(cfg: ExperimentConfig) -> bool:
    try:
        cli._validate(cfg)
    except ConfigError:
        return False
    return True


configs = st.builds(
    ExperimentConfig,
    problem=st.sampled_from(sorted(EXAMPLES) + ["custom"]),
    ns=st.lists(st.integers(1, 10**6), max_size=4).map(tuple),
    p=st.integers(2, 9),
    q=st.one_of(st.just(-1), st.integers(1, 9)),
    flux=st.sampled_from(["a", "c", "s", "A", "alternating", "Central", "sommerfeld"]),
    sommerfeld_speed=positive,
    alternating_side=st.sampled_from([0, 1]),
    penalty_coefficient=st.floats(min_value=0.0, allow_infinity=False),
    damping=st.booleans(),
    penalty=st.booleans(),
    chi=st.sampled_from([-1, 0, 1]),
    t_final=default_or_positive,
    dt=default_or_positive,
    seed=st.integers(0, 2**64),
    mesh_perturb=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True)),
    sample_every=st.integers(0, 10**6),
    parallel=st.booleans(),
    outdir=st.text(),
    dim=st.sampled_from([1, 2]),
    domain=domains,
    initial=st.sampled_from(["sine", "gauss", "box"]),
    source=st.sampled_from([""] + sorted(SOURCES)),
    boundary=st.sampled_from(["", "periodic", "neumann"]),
).filter(_is_valid)


@SETTINGS
@given(cfg=configs)
def test_emitted_config_file_parses_back_to_the_same_config(tmp_path, cfg):
    path = tmp_path / "run.cfg"
    path.write_text(emit_config(cfg))
    assert parse_config(str(path)) == cfg


@SETTINGS
@given(cfg=configs)
def test_metadata_json_config_replays_to_the_same_config(tmp_path, cfg):
    path = str(tmp_path / "run.json")
    cli._write_meta(cli._metadata(cfg, cfg.resolved_problem(), uniform_mesh_1d(0.0, 1.0, 1), 0.1),
                    path)
    assert parse_config(path) == cfg


def _outside(lo, hi):
    """Floats, NaN and the infinities included, outside the open interval (lo, hi)."""
    return st.floats().filter(lambda x: not lo < x < hi)


# one out-of-range value per numeric key, on ex1 (p = 2, default dt) or, for
# the domain, on a custom 1D problem
BAD_VALUES = {
    "p": st.one_of(st.integers(max_value=1), st.integers(min_value=7)),
    "q": st.integers().filter(lambda q: q not in (-1, 1, 2)),
    "chi": st.integers().filter(lambda c: c not in (-1, 0, 1)),
    "t_final": _outside(0.0, math.inf).filter(lambda x: x != -1.0),
    "dt": _outside(0.0, math.inf).filter(lambda x: x != -1.0),
    "sample_every": st.integers(max_value=-1),
    "sommerfeld_speed": _outside(0.0, math.inf),
    "alternating_side": st.integers().filter(lambda s: s not in (0, 1)),
    "penalty_coefficient": st.floats().filter(lambda x: not 0.0 <= x < math.inf),
    "mesh_perturb": st.floats().filter(lambda x: not 0.0 <= x < 0.5),
    "seed": st.integers(max_value=-1),
    "dim": st.integers().filter(lambda d: d not in (1, 2)),
    "ns": st.lists(st.integers(max_value=10**6), min_size=1, max_size=4).filter(
        lambda ns: min(ns) < 1),
    "domain": st.tuples(st.floats(), st.floats()).filter(
        lambda d: not (math.isfinite(d[0]) and math.isfinite(d[1]) and d[0] < d[1])),
}


@SETTINGS
@given(case=st.one_of([st.tuples(st.just(k), s) for k, s in BAD_VALUES.items()]))
def test_every_out_of_range_value_exits_2_before_integration(tmp_path, capsys, monkeypatch,
                                                             case):
    key, val = case

    def no_compute(*args, **kwargs):
        raise AssertionError("integration ran before the input was checked")

    monkeypatch.setattr(cli, "integrate", no_compute)
    lines = {"problem": "ex1", "ns": "8"}
    if key == "domain":
        lines.update(problem="custom", dim="1")
    lines[key] = ",".join(map(repr, val)) if isinstance(val, (list, tuple)) else repr(val)
    path = tmp_path / "bad.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    assert main(["shock", "--config", str(path), "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"'{key}'" in err


@pytest.mark.parametrize("value", ['"a\\u0023b"', '" padded "', '"two\\nlines"'])
def test_quoted_string_values_parse_as_json(tmp_path, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"outdir = {value}  # trailing comment\n")
    assert parse_config(str(path)).outdir == json.loads(value)


FLAG_PARSER = cli._FlagParser()
cli._add_common(FLAG_PARSER)
FLAGS = {a.dest: a for a in FLAG_PARSER._actions if a.dest in cli._FIELD_TYPES}

# text a config-file line can hold: no comment mark and no line break
line_text = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"),
                                  blacklist_characters="#"))
flag_texts = st.one_of(line_text, st.integers().map(str), st.floats().map(repr),
                       st.lists(st.integers(-3, 10**6), max_size=3).map(
                           lambda ns: ",".join(map(str, ns))),
                       st.sampled_from(["true", " off ", "YES", '"quoted"', '"a\\u0023b"', "1 2",
                                        "--"]))


def _outcome(make):
    """The config make() returns, or the message of the ConfigError it raises."""
    try:
        return make()
    except ConfigError as exc:
        return str(exc)


@SETTINGS
@given(data=st.data())
def test_a_flag_gives_the_config_of_the_same_config_file_line(tmp_path, data):
    key = data.draw(st.sampled_from(sorted(FLAGS)))
    action = FLAGS[key]
    if action.const is not None and data.draw(st.booleans()):
        # a bare bool flag reads as its const, "true"
        text, argv = action.const, [action.option_strings[0]]
    else:
        text = data.draw(flag_texts)
        # the "=" form passes any text to the flag, a leading "-" included
        argv = [f"{action.option_strings[0]}={text}"]
    base = {} if key == "problem" else {"problem": "ex1"}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in dict(base, **{key: text}).items()))
    args = FLAG_PARSER.parse_args([f"--{k}={v}" for k, v in base.items()] + argv)
    from_flag = _outcome(lambda: parse_config(None, cli._overrides(args)))
    assert from_flag == _outcome(lambda: parse_config(str(path)))


# argparse drops a "--" from an option's values; the CLI's parser keeps it
DOUBLE_DASH_KEYS = ["alternating_side", "ns", "damping", "outdir"]


@pytest.mark.parametrize("key", DOUBLE_DASH_KEYS)
def test_a_double_dash_flag_gives_the_config_of_its_config_file_line(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"problem = ex1\n{key} = --\n")
    args = FLAG_PARSER.parse_args(["--problem=ex1", f"{FLAGS[key].option_strings[0]}=--"])
    from_flag = _outcome(lambda: parse_config(None, cli._overrides(args)))
    assert from_flag == _outcome(lambda: parse_config(str(path)))
    if key == "outdir":
        assert from_flag.outdir == "--"
    else:
        assert from_flag == f"key {key!r}: could not parse '--'"


@pytest.mark.parametrize("key", DOUBLE_DASH_KEYS)
def test_main_reads_a_double_dash_flag_as_its_config_file_line(tmp_path, capsys, monkeypatch,
                                                                key):
    monkeypatch.chdir(tmp_path)
    flag = FLAGS[key].option_strings[0]
    code = main(["shock", "--problem", "ex1", "--ns", "4", "--outdir", str(tmp_path),
                 f"{flag}=--"])
    if key == "outdir":
        assert code == 0 and (tmp_path / "--" / "ex1_shock_ofedg_n4.csv").is_file()
    else:
        assert code == 2 and f"key {key!r}" in capsys.readouterr().err
