import csv
import io
import json

import pytest

from doflab import linalg
from doflab.cli import build_parser, config_to_argv, parse_int_range, parse_snr, run
from doflab.errors import InputError


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_csv(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, list(csv.DictReader(io.StringIO(out)))


def strip_timestamp(doc):
    return {k: v for k, v in doc.items() if k != "timestamp"}


def report_text(capsys, argv):
    """Exit code and report text, without the JSON timestamp line."""
    code = run(argv)
    lines = capsys.readouterr().out.splitlines(keepends=True)
    return code, "".join(l for l in lines if not l.startswith('  "timestamp": '))


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def test_parse_int_range():
    assert parse_int_range("2") == [2]
    assert parse_int_range("1:3") == [1, 2, 3]
    assert parse_int_range("1,4,5") == [1, 4, 5]
    with pytest.raises(InputError):
        parse_int_range("3:1")
    with pytest.raises(InputError):
        parse_int_range("x")


def test_parse_snr():
    assert parse_snr("60:10:100").points_db == (60, 70, 80, 90, 100)
    with pytest.raises(InputError):
        parse_snr("60:100")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_bound_command(capsys):
    code, doc = run_json(capsys, ["bound", "--K", "2", "--L", "2",
                                  "--M", "3", "--N", "2"])
    assert code == 0
    assert doc["command"] == "bound"
    assert doc["result"]["final_bound"] == "4"
    assert doc["result"]["final_bound_decimal"] == 4.0


def test_bound_command_csv(capsys):
    code, rows = run_csv(capsys, ["bound", "--K", "2", "--L", "2",
                                  "--M", "3", "--N", "2", "--format", "csv"])
    assert code == 0
    assert rows[0]["final_bound"] == "4"
    assert rows[0]["binding_term"] == "LN"


def test_bound_command_invalid_input(capsys):
    assert run(["bound", "--K", "2", "--L", "1", "--M", "3", "--N", "2"]) == 1
    assert "error" in capsys.readouterr().err


def test_zf_command(capsys):
    code, doc = run_json(capsys, ["zf", "--K", "2", "--beta", "1",
                                  "--seed", "3", "--assert"])
    assert code == 0
    assert doc["result"]["decodable"] is True
    assert doc["params"]["M"] == 3 and doc["params"]["N"] == 2


def test_nsia_command(capsys):
    code, doc = run_json(capsys, ["nsia", "--K", "2", "--beta", "1",
                                  "--seed", "3", "--assert"])
    assert code == 0
    assert doc["params"]["M"] == 2 and doc["params"]["N"] == 3
    assert all(e["dim"] == 1 for e in doc["result"]["null_dims"])


def test_slope_command_with_assert(capsys):
    code, doc = run_json(capsys, ["slope", "--scheme", "nsia", "--K", "2",
                                  "--beta", "1", "--snr", "60:10:100",
                                  "--seed", "7", "--assert",
                                  "--tol-slope", "0.03"])
    assert code == 0
    assert doc["result"]["expected_slope"] == 4
    assert abs(doc["result"]["slope"] - 4.0) <= 0.12


def test_slope_assert_failure_exits_2(capsys):
    code = run(["slope", "--scheme", "zf", "--K", "2", "--beta", "1",
                "--seed", "7", "--assert", "--tol-slope", "1e-12"])
    capsys.readouterr()
    assert code == 2


def test_slope_random_requires_profile(capsys):
    assert run(["slope", "--scheme", "random", "--K", "2"]) == 1
    capsys.readouterr()


def test_slope_random_baseline(capsys):
    code, doc = run_json(capsys, ["slope", "--scheme", "random",
                                  "--profile", "tx-heavy", "--K", "2",
                                  "--seed", "0", "--assert"])
    assert code == 0
    assert doc["result"]["slope"] <= 0.5


def test_lemma1_command(capsys):
    code, doc = run_json(capsys, ["lemma1", "--m", "2", "--n", "4", "--l", "3",
                                  "--trials", "1000", "--seed", "1", "--assert"])
    assert code == 0
    assert doc["result"]["passes"] == 1000


def test_lemma1_invalid_dims(capsys):
    assert run(["lemma1", "--m", "3", "--n", "2", "--l", "3"]) == 1
    capsys.readouterr()


def test_lemma2_command_csv(capsys):
    code, rows = run_csv(capsys, ["lemma2", "--M", "2", "--N", "3",
                                  "--trials", "200", "--seed", "1",
                                  "--p-source", "nsia", "--format", "csv"])
    assert code == 0
    assert rows[0]["passes"] == "200"
    assert rows[0]["all_passed"] == "True"


def test_sweep_command(capsys):
    code, rows = run_csv(capsys, ["sweep", "--K", "1:3", "--beta", "1",
                                  "--schemes", "both", "--format", "csv",
                                  "--assert"])
    assert code == 0
    assert len(rows) == 6
    for row in rows:
        bound = float(row["bound"])
        assert bound == 2 * int(row["K"])
        assert abs(float(row["slope"]) - bound) / bound <= 0.03
        assert row["decodable"] == "True"


def test_sweep_columns_fixed(capsys):
    code = run(["sweep", "--K", "1", "--beta", "1", "--schemes", "zf",
                "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    header = out.splitlines()[0]
    assert header == "K,beta,scheme,seed,bound,slope,r_squared,residual,decodable"


def test_sweep_single_point_matches_slope_command(capsys):
    code, rows = run_csv(capsys, ["sweep", "--K", "2", "--beta", "1",
                                  "--schemes", "zf", "--seeds", "5",
                                  "--format", "csv"])
    assert code == 0
    code, doc = run_json(capsys, ["slope", "--scheme", "zf", "--K", "2",
                                  "--beta", "1", "--seed", "5"])
    assert code == 0
    assert float(rows[0]["slope"]) == pytest.approx(doc["result"]["slope"],
                                                    rel=1e-12)


def test_sweep_empty_range(capsys):
    assert run(["sweep", "--K", "3:1", "--beta", "1"]) == 1
    capsys.readouterr()


def test_unknown_command_exits_1(capsys):
    assert run(["frobnicate"]) == 1
    capsys.readouterr()


def test_no_command_exits_1(capsys):
    assert run([]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism, seeding, files
# ---------------------------------------------------------------------------

def test_reports_deterministic_modulo_timestamp(capsys):
    argv = ["slope", "--scheme", "nsia", "--K", "2", "--seed", "9"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    assert strip_timestamp(first) == strip_timestamp(second)


def test_seed_falls_back_to_environment(capsys, monkeypatch):
    monkeypatch.setenv("DOFLAB_SEED", "17")
    _, doc = run_json(capsys, ["zf", "--K", "2"])
    assert doc["params"]["seed"] == 17
    monkeypatch.delenv("DOFLAB_SEED")
    _, doc = run_json(capsys, ["zf", "--K", "2"])
    assert doc["params"]["seed"] == 0


def test_explicit_seed_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("DOFLAB_SEED", "17")
    _, doc = run_json(capsys, ["zf", "--K", "2", "--seed", "4"])
    assert doc["params"]["seed"] == 4


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run(["bound", "--K", "1", "--L", "2", "--M", "1", "--N", "1",
                "--output", str(target)]) == 0
    capsys.readouterr()
    doc = json.loads(target.read_text())
    assert doc["result"]["final_bound"] == "1"


def test_unwritable_output_exits_1(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert run(["bound", "--K", "1", "--L", "2", "--M", "1", "--N", "1",
                "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("doflab: error: ")
    assert not target.exists()


def test_channel_dump_and_replay(tmp_path, capsys):
    dump = tmp_path / "channels.json"
    _, fresh = run_json(capsys, ["nsia", "--K", "2", "--seed", "21",
                                 "--dump-channels", str(dump)])
    assert dump.exists()
    _, replayed = run_json(capsys, ["nsia", "--channels", str(dump)])
    assert strip_timestamp(replayed) == strip_timestamp(fresh)


def test_replay_at_another_profile_exits_1(tmp_path, capsys):
    # a zf dump is tx-heavy (K=2: M=3, N=2); the rx-heavy random baseline
    # needs (2, 3), so the replay is refused instead of rated at a profile
    # it was not drawn at
    dump = tmp_path / "channels.json"
    assert run(["zf", "--K", "2", "--seed", "4", "--dump-channels", str(dump)]) == 0
    capsys.readouterr()
    slope = ["slope", "--scheme", "random", "--channels", str(dump)]
    assert run([*slope, "--profile", "rx-heavy"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(M, N)=(3, 2)" in captured.err and "(M, N)=(2, 3)" in captured.err
    assert run([*slope, "--profile", "tx-heavy"]) == 0
    assert run(["nsia", "--channels", str(dump)]) == 1


def scaled_dump(tmp_path, capsys, factor, mutate=None):
    dump = tmp_path / "channels.json"
    assert run(["zf", "--K", "2", "--seed", "3", "--dump-channels", str(dump)]) == 0
    capsys.readouterr()
    doc = json.loads(dump.read_text())
    for entry in doc["channels"]:
        entry["re"] = [[v * factor for v in row] for row in entry["re"]]
        entry["im"] = [[v * factor for v in row] for row in entry["im"]]
    if mutate is not None:
        mutate(doc)
    dump.write_text(json.dumps(doc))
    return dump


@pytest.mark.parametrize("factor", [1e200, 1e-200])
def test_replay_with_non_finite_leakage_exits_1(tmp_path, capsys, factor):
    dump = scaled_dump(tmp_path, capsys, factor)
    assert run(["zf", "--channels", str(dump), "--assert"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cross link (m=1, l=2, k=1)" in captured.err


def test_replay_rejects_nan_entries(tmp_path, capsys):
    def poison(doc):
        doc["channels"][0]["re"][0][0] = float("nan")
    dump = scaled_dump(tmp_path, capsys, 1.0, poison)
    assert "NaN" in dump.read_text()
    assert run(["zf", "--channels", str(dump)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_replay_rejects_bool_indices(tmp_path, capsys):
    def boolean(doc):
        doc["channels"][0]["m"] = True
    dump = scaled_dump(tmp_path, capsys, 1.0, boolean)
    assert run(["zf", "--channels", str(dump)]) == 1
    assert "must be integers" in capsys.readouterr().err


def test_replay_rejects_bool_config_values(tmp_path, capsys):
    def boolean(doc):
        doc["config"]["K"] = True
    dump = scaled_dump(tmp_path, capsys, 1.0, boolean)
    assert run(["zf", "--channels", str(dump)]) == 1
    assert "K must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("index,rank", [(0, 0), (2, 1)])
def test_replay_of_a_degenerate_channel_exits_1(tmp_path, capsys, index, rank):
    # an all-zero direct link (1, 1, 1) and a rank-1 cross link (1, 2, 1)
    # are refused by the loader, naming the link, instead of failing later
    # in the construction
    def degenerate(doc):
        entry = doc["channels"][index]
        for part in ("re", "im"):
            entry[part] = ([[0.0] * 3] * 2 if rank == 0
                           else [entry[part][0]] * 2)
    dump = scaled_dump(tmp_path, capsys, 1.0, degenerate)
    assert run(["zf", "--channels", str(dump), "--assert"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    link = "(m=1, l=1, k=1)" if index == 0 else "(m=1, l=2, k=1)"
    assert f"channel {link} has numeric rank {rank}" in captured.err


@pytest.mark.parametrize("command", [["slope", "--scheme", "zf", "--K", "1"],
                                     ["sweep", "--K", "1"]])
@pytest.mark.parametrize("snr", ["0:0.001:100", "0:1:inf"])
def test_snr_grid_beyond_the_point_cap_exits_1(capsys, command, snr):
    assert run([*command, f"--snr={snr}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("doflab: error: SNR range")


@pytest.mark.parametrize("text", ["5", "null", '{"config": 5, "channels": []}'])
def test_replay_of_the_wrong_json_type_exits_1(tmp_path, capsys, text):
    dump = tmp_path / "channels.json"
    dump.write_text(text)
    assert run(["zf", "--channels", str(dump)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("doflab: error: ")


def test_impossible_rank_tolerance_exits_1(capsys):
    # 0.5 * max(M, N) = 1.5 >= 1: used to redraw the first channel forever
    assert run(["zf", "--K", "2", "--rel-rank-tol", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no singular value can pass" in captured.err


def test_large_report_does_not_depend_on_prior_blas_threads(capsys):
    # N = 80 is past the size where OpenBLAS threads its kernels; run at 1
    # and at 2 threads, these sum rates differ in the last digits
    blas = linalg._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count functions")
    set_threads, get_threads = blas
    argv = ["slope", "--scheme", "nsia", "--K", "1", "--beta", "40", "--seed", "0"]
    before = get_threads()
    reports = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            assert run(argv) == 0
            assert get_threads() == threads
            out = capsys.readouterr().out
            reports.append([line for line in out.splitlines()
                            if not line.startswith('  "timestamp": ')])
    finally:
        set_threads(before)
    assert len(reports[0]) == len(out.splitlines()) - 1
    assert reports[0] == reports[1]


def test_workers_flag_is_accepted_and_ignored(capsys):
    argv = ["lemma2", "--M", "2", "--N", "3", "--trials", "50", "--seed", "4"]
    _, plain = run_json(capsys, argv)
    code, threaded = run_json(capsys, [*argv, "--workers", "4"])
    assert code == 0
    assert strip_timestamp(threaded) == strip_timestamp(plain)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

# (config document, the flags it stands for); one case per command, plus
# one CSV report
CONFIG_CASES = {
    "bound": ({"command": "bound", "K": 2, "L": 2, "M": 3, "N": 2},
              ["bound", "--K", "2", "--L", "2", "--M", "3", "--N", "2"]),
    "zf": ({"command": "zf", "K": 2, "beta": 1, "seed": 3, "assert": True,
            "dump_channels": None},
           ["zf", "--K", "2", "--beta", "1", "--seed", "3", "--assert"]),
    "nsia": ({"command": "nsia", "K": 2, "beta": 2, "seed": 3,
              "dist": "uniform-square", "rel_rank_tol": 1e-9},
             ["nsia", "--K", "2", "--beta", "2", "--seed", "3",
              "--dist", "uniform-square", "--rel-rank-tol", "1e-9"]),
    "slope": ({"command": "slope", "scheme": "nsia", "K": 2, "beta": 1,
               "seed": 7, "snr": "60:10:100", "assert": True},
              ["slope", "--scheme", "nsia", "--K", "2", "--beta", "1",
               "--seed", "7"]),
    "lemma1": ({"command": "lemma1", "m": 2, "n": 4, "l": 3, "trials": 50,
                "seed": 1, "workers": 2},
               ["lemma1", "--m", "2", "--n", "4", "--l", "3", "--trials", "50",
                "--seed", "1"]),
    "lemma2": ({"command": "lemma2", "M": 2, "N": 3, "trials": 40, "seed": 4,
                "p_source": "nsia", "assert": False},
               ["lemma2", "--M", "2", "--N", "3", "--trials", "40",
                "--seed", "4", "--p-source", "nsia"]),
    "sweep": ({"command": "sweep", "K": "1:2", "beta": 1, "seeds": "0,1",
               "schemes": "zf", "tol_slope": 0.05, "min_r2": 0.99},
              ["sweep", "--K", "1:2", "--beta", "1", "--seeds", "0,1",
               "--schemes", "zf", "--tol-slope", "0.05", "--min-r2", "0.99"]),
    "bound-csv": ({"command": "bound", "K": 2, "L": 3, "M": 3, "N": 4,
                   "output_format": "csv"},
                  ["bound", "--K", "2", "--L", "3", "--M", "3", "--N", "4",
                   "--format", "csv"]),
}


# Each subcommand's flags by argparse dest, which are also the keys its
# config documents may use.
COMMAND_DESTS = {
    "bound": ["K", "L", "M", "N", "output_format", "output_path"],
    "zf": ["K", "assert", "beta", "channels", "dist", "dump_channels",
           "output_format", "output_path", "rel_rank_tol", "seed"],
    "nsia": ["K", "assert", "beta", "channels", "dist", "dump_channels",
             "output_format", "output_path", "rel_rank_tol", "seed"],
    "slope": ["K", "assert", "beta", "channels", "dist", "dump_channels",
              "min_r2", "output_format", "output_path", "profile",
              "rel_rank_tol", "scheme", "seed", "snr", "tol_slope"],
    "lemma1": ["assert", "dist", "l", "m", "n", "output_format",
               "output_path", "rel_rank_tol", "seed", "trials", "workers"],
    "lemma2": ["M", "N", "assert", "dist", "output_format", "output_path",
               "p_source", "rel_rank_tol", "seed", "trials", "workers"],
    "sweep": ["K", "assert", "beta", "dist", "min_r2", "output_format",
              "output_path", "rel_rank_tol", "schemes", "seeds", "snr",
              "tol_slope"],
}


def test_each_command_keeps_its_config_keys():
    parser = build_parser()
    dests = {name: sorted(action.dest for action in p._actions
                          if action.dest != "help")
             for name, p in parser.commands.items()}
    assert dests == COMMAND_DESTS


def write_config(tmp_path, doc):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name", sorted(CONFIG_CASES))
def test_config_file_runs_experiment(tmp_path, capsys, name):
    doc, argv = CONFIG_CASES[name]
    code, text = report_text(capsys, ["--config", str(write_config(tmp_path, doc))])
    assert code == 0
    assert (code, text) == report_text(capsys, argv)
    assert text


def test_config_value_starting_with_a_dash_matches_the_flags(tmp_path, capsys):
    path = write_config(tmp_path, {"command": "slope", "scheme": "zf", "K": 2,
                                   "seed": 5, "snr": "-10:10:30"})
    code, text = report_text(capsys, ["--config", str(path)])
    assert code == 0
    assert json.loads(text)["result"]["snr_db"] == [-10.0, 0.0, 10.0, 20.0, 30.0]
    assert (code, text) == report_text(
        capsys, ["slope", "--scheme", "zf", "--K", "2", "--seed", "5",
                 "--snr=-10:10:30"])


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_config_switch_takes_only_a_boolean(tmp_path, capsys, value):
    path = write_config(tmp_path, {"command": "zf", "K": 2, "assert": value})
    assert run(["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "takes true or false" in captured.err


@pytest.mark.parametrize("doc", [["command"], 5, {"command": 5},
                                 {"command": ["zf"]}, {"command": "frobnicate"}])
def test_config_must_be_an_object_naming_a_command(tmp_path, capsys, doc):
    assert run(["--config", str(write_config(tmp_path, doc))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("doflab: error: ")


def test_config_rejects_another_commands_flags(tmp_path, capsys):
    path = write_config(tmp_path, {"command": "slope", "scheme": "zf", "K": 2,
                                   "trials": 10})
    assert run(["--config", str(path)]) == 1
    assert "unknown config keys for 'slope': ['trials']" in capsys.readouterr().err


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"command": "bound", "K": 2, "L": 2,
                                "M": 3, "N": 2, "frobs": 1}))
    assert run(["--config", str(path)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_requires_command(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"K": 2}))
    assert run(["--config", str(path)]) == 1
    capsys.readouterr()


def test_config_and_subcommand_conflict(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"command": "bound", "K": 1, "L": 2,
                                "M": 1, "N": 1}))
    assert run(["--config", str(path), "bound", "--K", "1", "--L", "2",
                "--M", "1", "--N", "1"]) == 1
    capsys.readouterr()


def test_experiment_config_round_trip():
    argv = config_to_argv(build_parser(), {"command": "lemma1", "m": 2, "n": 4,
                                           "l": 3, "trials": 50, "seed": 1})
    assert argv == ["lemma1", "--m=2", "--n=4", "--l=3", "--trials=50", "--seed=1"]
    assert run(argv) == 0
