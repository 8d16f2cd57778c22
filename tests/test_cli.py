import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import doflab
from doflab import bounds, linalg
from doflab.cli import (build_parser, config_to_argv, parse_int_range,
                        parse_snr, run)
from doflab.errors import ConfigurationError, InputError
from doflab.network import (MAX_REDRAWS, NetworkConfig, channel_set_to_dict,
                            generate_channels)
from doflab.schemes import build_nsia, build_zf_precoders


def package_env():
    """The environment, with this doflab first on PYTHONPATH, for a
    subprocess that imports it."""
    src = str(Path(doflab.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


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


def test_parse_int_range_refuses_a_huge_range_before_building_it(capsys):
    assert parse_int_range("0:9999") == list(range(10_000))
    for text in ("0:10000", "0:4000000000", "-1:99999999999999999999"):
        with pytest.raises(InputError, match="has more than 10000 values"):
            parse_int_range(text)
    assert run(["sweep", "--seeds", "0:4000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "integer range '0:4000000000' has more than 10000 values" in captured.err


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


def test_bound_refuses_a_term_too_large_for_a_double(capsys):
    big = str(10 ** 400)
    assert run(["bound", "--K", "1", "--L", "2", "--M", big, "--N", big]) == 1
    assert capsys.readouterr().err == (
        "doflab: error: the bound's per_set_bound term is too large for a double\n")
    assert run(["bound", "--K", "1", "--L", "2", "--M", big, "--N", "1"]) == 1
    assert capsys.readouterr().err == (
        "doflab: error: the bound's lambda_d term is too large for a double\n")
    # a bound that fits keeps its exact keys
    code, doc = run_json(capsys, ["bound", "--K", "1", "--L", "2",
                                  "--M", str(10 ** 300), "--N", str(10 ** 300)])
    assert code == 0
    assert doc["result"]["final_bound"] == str(10 ** 300)
    assert doc["result"]["final_bound_decimal"] == 1e300


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 5.96 GiB for an array with shape "
                 "(1, 20000, 20000) and data type complex128"),
     "Unable to allocate 5.96 GiB for an array with shape "
     "(1, 20000, 20000) and data type complex128"),
    (MemoryError(), "out of memory")])
def test_memory_error_is_one_error_line(capsys, monkeypatch, exc, line):
    from doflab import simulation

    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(simulation, "monte_carlo_lemma1", exhausted)
    assert run(["lemma1", "--m", "20000", "--n", "20000", "--l", "3",
                "--trials", "1"]) == 1
    assert capsys.readouterr().err == f"doflab: error: {line}\n"


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


# zf at K=3, seed 14 and rel_rank_tol 0.01 is not decodable: cell 1's
# smallest singular value is 0.58 of its rank threshold, so it ranks 2 of 3
UNDECODABLE = ["--K", "3", "--beta", "1", "--seed", "14",
               "--rel-rank-tol", "0.01"]


@pytest.mark.parametrize("asserted", [True, False])
def test_slope_of_a_scheme_failing_verification_is_a_verdict(capsys, asserted):
    code, doc = run_json(capsys, ["slope", "--scheme", "zf", *UNDECODABLE]
                         + ["--assert"] * asserted)
    assert code == (2 if asserted else 0)
    result = doc["result"]
    assert result["verification"]["decodable"] is False
    assert result["verification"]["effective_rank"][0]["rank"] == 2
    assert result["expected_slope"] == 6
    assert result["snr_db"] == [60.0, 70.0, 80.0, 90.0, 100.0]
    assert result["sum_rates"] == [None] * 5
    assert [result[key] for key in ("slope", "intercept", "r_squared")] == [
        None, None, None]


@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize("asserted", [True, False])
def test_sweep_row_of_a_scheme_failing_verification_is_a_verdict(
        capsys, output_format, asserted):
    argv = ["sweep", "--K", "2:3", "--beta", "1", "--seeds", "14",
            "--schemes", "zf", "--rel-rank-tol", "0.01",
            "--format", output_format] + ["--assert"] * asserted
    code = run(argv)
    out = capsys.readouterr().out
    assert code == (2 if asserted else 0)
    if output_format == "json":
        doc = json.loads(out)
        # the tolerance the row failed at is on record, as in slope's params
        assert doc["params"]["rel_rank_tol"] == 0.01
        rows = doc["result"]["rows"]
        decodable = [row["decodable"] for row in rows]
        fits = [(row["slope"], row["r_squared"]) for row in rows]
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
        decodable = [row["decodable"] == "True" for row in rows]
        fits = [(row["slope"] or None, row["r_squared"] or None)
                for row in rows]
    assert decodable == [True, False]
    assert None not in fits[0] and fits[1] == (None, None)


@pytest.mark.parametrize("asserted", [True, False])
def test_slope_config_of_a_scheme_failing_verification_is_a_verdict(
        tmp_path, capsys, asserted):
    config = write_config(tmp_path, {
        "command": "slope", "scheme": "zf", "K": 3, "seed": 14,
        "rel_rank_tol": 0.01, "assert": asserted})
    code, doc = run_json(capsys, ["--config", str(config)])
    assert code == (2 if asserted else 0)
    assert doc["result"]["verification"]["decodable"] is False
    assert doc["result"]["slope"] is None


def test_slope_random_requires_profile(capsys):
    assert run(["slope", "--scheme", "random", "--K", "2"]) == 1
    capsys.readouterr()


def test_slope_random_baseline(capsys):
    code, doc = run_json(capsys, ["slope", "--scheme", "random",
                                  "--profile", "tx-heavy", "--K", "2",
                                  "--seed", "0", "--assert"])
    assert code == 0
    assert doc["result"]["slope"] <= 0.5


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_slope_random_baseline_passes_at_rx_heavy(capsys, K, beta, seed):
    # without alignment beta dimensions per cell still survive the
    # interference at rx-heavy: the baseline is judged against that
    # slope, 2*beta, not against saturation; the reported expected_slope
    # stays the outer bound
    code, doc = run_json(capsys, ["slope", "--scheme", "random",
                                  "--profile", "rx-heavy", "--K", str(K),
                                  "--beta", str(beta), "--seed", str(seed),
                                  "--assert"])
    assert code == 0
    assert abs(doc["result"]["slope"] - 2 * beta) <= 1e-3
    assert doc["result"]["expected_slope"] == 2 * K * beta


@pytest.mark.parametrize("scheme, profile", [("zf", "rx-heavy"),
                                              ("nsia", "tx-heavy")])
def test_slope_refuses_another_profile_for_a_built_scheme(capsys, scheme,
                                                          profile):
    assert run(["slope", "--scheme", scheme, "--profile", profile,
                "--K", "2", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tx-heavy" in captured.err and "rx-heavy" in captured.err


@pytest.mark.parametrize("scheme, profile", [("zf", "tx-heavy"),
                                              ("nsia", "rx-heavy")])
def test_slope_takes_a_built_schemes_own_profile(capsys, scheme, profile):
    argv = ["slope", "--scheme", scheme, "--K", "2", "--seed", "1"]
    code, text = report_text(capsys, [*argv, "--profile", profile])
    assert code == 0
    assert (code, text) == report_text(capsys, argv)


@pytest.mark.parametrize("profile", bounds.VARIANTS)
def test_slope_random_runs_at_either_profile(capsys, profile):
    code, doc = run_json(capsys, ["slope", "--scheme", "random",
                                  "--profile", profile, "--K", "2",
                                  "--seed", "1"])
    assert code == 0
    params = doc["params"]
    assert (params["M"], params["N"]) == bounds.antenna_profile(2, 1, profile)


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
    # a sweep row is the slope result projected at its point, bit for bit,
    # at a decodable point and at one whose scheme fails verification
    for point, decodable in [(["--K", "2", "--beta", "1", "--seed", "5"], True),
                             (UNDECODABLE, False)]:
        sweep_point = ["--seeds" if flag == "--seed" else flag
                       for flag in point]
        code, sweep = run_json(capsys, ["sweep", "--schemes", "zf",
                                        *sweep_point])
        assert code == 0
        code, slope = run_json(capsys, ["slope", "--scheme", "zf", *point])
        assert code == 0
        (row,) = sweep["result"]["rows"]
        result = slope["result"]
        verification = result["verification"]
        assert row["decodable"] is verification["decodable"] is decodable
        assert [row[key] for key in ("bound", "slope", "r_squared",
                                     "residual", "decodable")] == [
            result["expected_slope"], result["slope"], result["r_squared"],
            verification["residual_interference"], verification["decodable"]]


def test_sweep_empty_range(capsys):
    assert run(["sweep", "--K", "3:1", "--beta", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, env_seed, message", [
    (["slope", "--scheme", "zf", "--K", "1", "--snr", "a:b:c"], None,
     "cannot parse SNR range 'a:b:c'"),
    (["zf", "--K", "1"], "x", "DOFLAB_SEED='x' is not an integer"),
    (["zf"], None, "--K is required when --channels is not given"),
])
def test_refused_input_exits_1_with_one_message(capsys, monkeypatch, argv,
                                                env_seed, message):
    if env_seed is None:
        monkeypatch.delenv("DOFLAB_SEED", raising=False)
    else:
        monkeypatch.setenv("DOFLAB_SEED", env_seed)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"doflab: error: {message}\n"


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


def test_channel_dump_is_json_dumps_indent_2(tmp_path, capsys):
    dump = tmp_path / "channels.json"
    assert run(["nsia", "--K", "2", "--seed", "3", "--dump-channels", str(dump),
                "--output", str(tmp_path / "report.json")]) == 0
    for path in (dump, tmp_path / "report.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_dump_and_replay_together_exit_1(tmp_path, capsys):
    # a replay generates no channels to dump; the replayed file does not
    # exist, so the refusal must come before it is read
    dump, replay = tmp_path / "dump.json", tmp_path / "missing.json"
    flags = ["nsia", "--channels", str(replay), "--dump-channels", str(dump)]
    config = write_config(tmp_path, {"command": "nsia", "channels": str(replay),
                                     "dump_channels": str(dump)})
    for argv in (flags, ["--config", str(config)]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--channels and --dump-channels" in captured.err
    assert not dump.exists()


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


@pytest.mark.parametrize("argv, variant", [
    (["zf"], bounds.TX_HEAVY), (["nsia"], bounds.RX_HEAVY),
    (["slope", "--scheme", "random", "--profile", "tx-heavy"], bounds.TX_HEAVY)],
    ids=["zf", "nsia", "slope-random"])
def test_replay_of_three_cells_exits_1(tmp_path, capsys, argv, variant):
    # verification and rates take any L, but the closed forms and the
    # two-cell converse a slope reports are for L=2: an L=3 dump at the
    # command's own profile is refused where it is loaded, by the profile
    # check the builders make
    M, N = bounds.antenna_profile(1, 1, variant)
    dump = tmp_path / "channels.json"
    dump.write_text(json.dumps(channel_set_to_dict(generate_channels(
        NetworkConfig(L=3, K=1, M=M, N=N, seed=2)))))
    assert run([*argv, "--channels", str(dump)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"doflab: error: the {variant} profile at K=1, "
                            f"beta=1 is L=2, (M, N)={(M, N)}; got L=3, "
                            f"(M, N)={(M, N)}\n")


@pytest.mark.parametrize("cells, at", [(3, "own"), (2, "other")])
@pytest.mark.parametrize("argv, build, variant", [
    (["zf"], build_zf_precoders, bounds.TX_HEAVY),
    (["nsia"], build_nsia, bounds.RX_HEAVY),
    (["slope", "--scheme", "random", "--profile", "rx-heavy"], None,
     bounds.RX_HEAVY)], ids=["zf", "nsia", "slope-random"])
def test_builder_and_replay_refuse_with_one_text(tmp_path, capsys, argv, build,
                                                 variant, cells, at):
    # one check (bounds.require_profile) refuses a network that is not
    # two-cell at the command's profile: the builder raises, and a replay
    # of the same channels prints, the same ConfigurationError text
    (other,) = set(bounds.VARIANTS) - {variant}
    M, N = bounds.antenna_profile(2, 1, variant if at == "own" else other)
    cs = generate_channels(NetworkConfig(L=cells, K=2, M=M, N=N, seed=3))
    with pytest.raises(ConfigurationError) as exc:
        bounds.require_profile(cs.config, variant)
    text = str(exc.value)
    assert text == (f"the {variant} profile at K=2, beta=1 is L=2, (M, N)="
                    f"{bounds.antenna_profile(2, 1, variant)}; got L={cells}, "
                    f"(M, N)={(M, N)}")
    if build is not None:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(text)}$"):
            build(cs)
    dump = tmp_path / "channels.json"
    dump.write_text(json.dumps(channel_set_to_dict(cs)))
    assert run([*argv, "--channels", str(dump)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"doflab: error: {text}\n")


def scaled_dump(tmp_path, capsys, factor, mutate=None, scheme="zf"):
    dump = tmp_path / "channels.json"
    assert run([scheme, "--K", "2", "--seed", "3",
                "--dump-channels", str(dump)]) == 0
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
    # the loader refuses the first link out of range before any leakage
    # is formed
    dump = scaled_dump(tmp_path, capsys, factor)
    assert run(["zf", "--channels", str(dump), "--assert"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "channel (m=1, l=1, k=1) has entries of magnitude up to" in captured.err
    assert "outside the supported range [1e-150, 1e150]" in captured.err


@pytest.mark.parametrize("scheme", ["zf", "nsia"])
@pytest.mark.parametrize("factor", [1e149, 1e-149])
def test_replay_inside_the_magnitude_range_verifies(tmp_path, capsys, scheme,
                                                    factor):
    dump = scaled_dump(tmp_path, capsys, factor, scheme=scheme)
    assert run([scheme, "--channels", str(dump), "--assert"]) == 0


def test_nsia_replay_beyond_the_magnitude_range_exits_1(tmp_path, capsys):
    # the loader refuses a link beyond 1e150 before the build sees it
    dump = scaled_dump(tmp_path, capsys, 1e154, scheme="nsia")
    assert run(["nsia", "--channels", str(dump), "--assert"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "doflab: error: channel (m=1, l=1, k=1) has entries of magnitude up to")
    assert "null dimension" not in captured.err


def test_rates_at_the_top_of_the_replay_range(tmp_path, capsys):
    # the seed-3 K=2 zf dump with its largest entry at 0.999e150: from
    # 90 dB, rho/beta times a Gram eigenvalue overflows, and at every SNR
    # of the grid rho/beta times a Gram entry.  zf's rates used to read
    # Infinity (not strict JSON), and the random baseline's NaN, then a
    # refusal of its covariance; both now rate, in strict JSON
    def to_peak(doc):
        parts = [entry[part] for entry in doc["channels"] for part in ("re", "im")]
        factor = 0.999e150 / max(abs(v) for part in parts for row in part for v in row)
        for entry in doc["channels"]:
            for part in ("re", "im"):
                entry[part] = [[v * factor for v in row] for row in entry[part]]

    dump = scaled_dump(tmp_path, capsys, 1.0, to_peak)
    code, report = run_json(capsys, ["slope", "--scheme", "zf", "--channels",
                                     str(dump), "--assert"])
    assert code == 0
    assert all(math.isfinite(rate) for rate in report["result"]["sum_rates"])
    assert report["result"]["slope"] == pytest.approx(4, rel=0.03)
    assert run(["slope", "--scheme", "random", "--profile", "tx-heavy",
                "--channels", str(dump)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    result = json.loads(capsys.readouterr().out, parse_constant=refuse)["result"]
    assert all(math.isfinite(rate) for rate in result["sum_rates"])
    assert result["slope"] <= 0.5


def test_replay_rejects_nan_entries(tmp_path, capsys):
    def poison(doc):
        doc["channels"][0]["re"][0][0] = float("nan")
    dump = scaled_dump(tmp_path, capsys, 1.0, poison)
    assert "NaN" in dump.read_text()
    assert run(["zf", "--channels", str(dump)]) == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("part, value", [("re", True), ("im", "0.5")])
def test_replay_rejects_entries_that_are_not_json_numbers(tmp_path, capsys,
                                                          part, value):
    # numpy reads true as 1.0 and "0.5" as 0.5, and both dumps used to
    # replay to a decodable report with exit code 0
    def retype(doc):
        doc["channels"][1][part][1][0] = value
    dump = scaled_dump(tmp_path, capsys, 1.0, retype, scheme="nsia")
    assert run(["nsia", "--channels", str(dump), "--assert"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"channel (m=1, l=1, k=2) {part!r} has an entry that is not a "
            f"JSON number") in captured.err


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


@pytest.mark.parametrize("snr, bad", [("3073:10:3083", "3083.0"),
                                      ("-3077:10:-3067", "-3077.0")])
def test_snr_point_beyond_the_double_range_exits_1(capsys, snr, bad):
    message = (f"SNR point {bad} dB is outside the range a double holds, "
               f"-3076.5 to 3082.5 dB")
    with pytest.raises(InputError) as exc:
        parse_snr(snr)
    assert str(exc.value) == message
    assert run(["slope", "--scheme", "zf", "--K", "1", f"--snr={snr}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"doflab: error: {message}\n"


def test_snr_grid_not_distinct_at_double_precision_exits_1(capsys):
    # all 101 points have linear SNR 1.0: the fit used to pass with slope
    # 0.0 and r² 1.0
    message = ("SNR grid points 0.0 and 1e-300 dB are not distinct at "
               "double precision")
    with pytest.raises(InputError) as exc:
        parse_snr("0:1e-300:1e-298")
    assert str(exc.value) == message
    assert run(["slope", "--scheme", "random", "--profile", "tx-heavy",
                "--K", "1", "--seed", "3", "--snr=0:1e-300:1e-298",
                "--assert"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"doflab: error: {message}\n"


@pytest.mark.parametrize("snr", ["3072:10:3082", "-3076:10:-3066"])
def test_snr_grid_at_the_edges_of_the_double_range_rates(capsys, snr):
    code, doc = run_json(capsys, ["slope", "--scheme", "zf", "--K", "1",
                                  "--seed", "3", f"--snr={snr}"])
    assert code == 0
    result = doc["result"]
    assert all(math.isfinite(v) for v in result["sum_rates"])
    assert 0 <= result["r_squared"] <= 1


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


def test_rank_tolerance_below_rounding_level_exits_1(tmp_path, capsys):
    # below 1e-15 the threshold sits at the SVD's rounding level, where
    # nsia --K 1 reported a null dimension of 0 and lemma2 failed a trial
    dump = scaled_dump(tmp_path, capsys, 1.0,
                       lambda doc: doc["config"].update(rel_rank_tol=1e-16))
    for argv in (["nsia", "--K", "1", "--rel-rank-tol", "1e-16"],
                 ["lemma2", "--M", "2", "--N", "3", "--p-source", "nsia",
                  "--trials", "50", "--rel-rank-tol", "1e-16"],
                 ["zf", "--channels", str(dump)]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rel_rank_tol must be in [1e-15, 1), got 1e-16" in captured.err


def test_lemma1_impossible_rank_tolerance_exits_1(capsys):
    # 0.5 * max(m, l) = 1.5 >= 1: used to report 0 passes
    argv = ["lemma1", "--m", "2", "--n", "4", "--l", "3", "--rel-rank-tol", "0.5"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no singular value can pass" in captured.err


@pytest.mark.parametrize("argv", [
    ["nsia", "--K", "4"],
    ["lemma2", "--M", "4", "--N", "6"],
    ["lemma2", "--M", "4", "--N", "6", "--p-source", "nsia"],
])
def test_redraws_stop_at_the_cap(argv):
    # 0.15 * max(M, N) < 1 passes require_rankable, but a full-rank draw is
    # so rare at this tolerance that an unbounded redraw loop never ends.
    # A subprocess, so that a hang fails the test instead of stalling it.
    done = subprocess.run(
        [sys.executable, "-m", "doflab.cli", *argv, "--rel-rank-tol", "0.15"],
        env=package_env(), capture_output=True, text=True, timeout=30)
    assert done.returncode == 1
    assert done.stdout == ""
    error = done.stderr.splitlines()[-1]
    assert error.startswith("doflab: error: ")
    assert f"after {MAX_REDRAWS} redraws at rel_rank_tol=0.15" in error


def test_a_link_at_the_redraw_cap_warns_once():
    # the link used to log one warning per redraw: 1000 lines before the
    # error.  Now one warning names the link and the error gives the count.
    done = subprocess.run(
        [sys.executable, "-m", "doflab.cli", "nsia", "--K", "4",
         "--rel-rank-tol", "0.15"],
        env=package_env(), capture_output=True, text=True, timeout=30)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "degenerate channel draw at (m=1, l=1, k=1); redrawing",
        "doflab: error: channel (m=1, l=1, k=1) is still degenerate after "
        f"{MAX_REDRAWS} redraws at rel_rank_tol=0.15"]


def test_a_lemma2_h_at_the_redraw_cap_warns_once():
    # lemma2's H is redrawn by the same loop as a channel, with one warning
    # in the same format before the error
    done = subprocess.run(
        [sys.executable, "-m", "doflab.cli", "lemma2", "--M", "2", "--N", "3",
         "--rel-rank-tol", "0.33", "--trials", "1"],
        env=package_env(), capture_output=True, text=True, timeout=30)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "degenerate H draw at 1 trial (0); redrawn",
        "doflab: error: H of trial 0 is still rank-deficient after "
        f"{MAX_REDRAWS} redraws at rel_rank_tol=0.33"]


def test_lemma2_warns_once_for_all_redrawn_trials():
    # 231 of these 300 trials redraw H: one line counts them, where one
    # line per trial used to be written
    done = subprocess.run(
        [sys.executable, "-m", "doflab.cli", "lemma2", "--M", "2", "--N", "3",
         "--trials", "300", "--seed", "5", "--rel-rank-tol", "0.2"],
        env=package_env(), capture_output=True, text=True, timeout=30)
    assert done.returncode == 0
    assert done.stderr == ("degenerate H draw at 231 trials (0, 2, 3, 5, 6, 8, "
                           "9, 10, 11, 12, ...); redrawn\n")


FIT_COMMANDS = [["slope", "--scheme", "zf", "--K", "1"], ["sweep", "--K", "1"]]


@pytest.mark.parametrize("command", FIT_COMMANDS)
@pytest.mark.parametrize("flag, value", [
    ("--tol-slope", "inf"), ("--tol-slope", "nan"), ("--tol-slope", "-0.01"),
    ("--min-r2", "nan"), ("--min-r2", "-inf"), ("--min-r2", "-0.5"),
    ("--min-r2", "1.5"),
])
def test_fit_thresholds_out_of_range_exit_1(capsys, command, flag, value):
    # a NaN used to fail every fit (exit 2, "verification failed") and an
    # infinite slope tolerance or r² floor of -inf to pass every fit
    assert run([*command, f"{flag}={value}", "--assert"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"doflab: error: {flag} must be ")


@pytest.mark.parametrize("key, value", [("tol_slope", -1), ("min_r2", 2)])
def test_config_fit_thresholds_out_of_range_exit_1(tmp_path, capsys, key, value):
    path = write_config(tmp_path, {"command": "slope", "scheme": "zf", "K": 1,
                                   key: value})
    assert run(["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("doflab: error: --")


@pytest.mark.parametrize("command", FIT_COMMANDS)
def test_fit_thresholds_accept_their_limits(capsys, command):
    # 0 and 1 are the limits; such strict thresholds fail the fit, which
    # is a verdict (exit 2), not an input error
    argv = [*command, "--tol-slope=0", "--min-r2=1", "--assert"]
    assert run(argv) == 2
    assert run([*command, "--tol-slope=0.5", "--min-r2=0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["lemma1", "--m", "2", "--n", "4", "--l", "3"],
    ["lemma2", "--M", "2", "--N", "3"],
    ["lemma2", "--M", "2", "--N", "3", "--p-source", "nsia"],
])
def test_negative_seed_exits_1_with_one_message(capsys, argv):
    assert run([*argv, "--seed=-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("doflab: error: seed must be a non-negative "
                            "integer, got -1\n")


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


def test_importing_the_cli_builds_no_parser():
    # build_parser is cached, but runs on its first call: importing the
    # library must not pay for the argparse tree.
    probe = ("import doflab.cli as cli; "
             "before = cli.build_parser.cache_info().currsize; "
             "cli.build_parser(); "
             "print(before, cli.build_parser.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], env=package_env(),
                          check=True, capture_output=True, text=True,
                          timeout=60)
    assert done.stdout.split() == ["0", "1"]


# Every name doflab exported when its __init__ imported its submodules,
# less SubspaceBasis: a subspace is now an array with orthonormal columns.
EXPORTED_NAMES = [
    "ChannelSet", "ConfigurationError", "ContractError", "DegeneracyError",
    "DimensionError", "DofBoundReport", "DoflabError", "InputError",
    "LemmaTrialReport", "NSIA", "NetworkConfig", "RANDOM", "RX_HEAVY",
    "RankError", "Scheme", "SchemeReport", "SlopeEstimate", "SnrGrid",
    "TX_HEAVY", "Tolerance", "ZF", "antenna_profile",
    "bounds", "build_nsia", "build_zf_precoders", "channel_set",
    "channel_set_from_dict", "channel_set_to_dict", "converse_two_cell",
    "dof_outer_bound", "errors", "estimate_dof_slope", "generate_channels",
    "interference_limited_rate", "intersection_dim", "linalg",
    "monte_carlo_lemma1", "monte_carlo_lemma2", "network",
    "null_space_basis", "numeric_rank", "orthonormalize_rows",
    "per_message_set_bound", "pi_transform", "random_matrix",
    "random_precoders", "range_basis", "schemes", "seeded_rng",
    "simulation", "sum_rate", "two_user_ic_dof", "verify_scheme",
]


def probe(code, **env):
    """stdout of a fresh interpreter running ``code`` with this doflab
    first on its path; ``env`` sets variables, and None removes one."""
    full = package_env()
    for name, value in env.items():
        full.pop(name, None)
        if value is not None:
            full[name] = value
    return subprocess.run([sys.executable, "-c", code], env=full, check=True,
                          capture_output=True, text=True, timeout=60).stdout


@pytest.fixture
def openblas():
    if linalg._openblas_threads() is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count functions")


# OpenBLAS's thread count after the probe's imports, and the variable as
# the probe's os.environ holds it afterwards
BLAS_THREADS = ("from doflab import linalg; "
                "print(linalg._openblas_threads()[1](), "
                "repr(os.environ.get('OPENBLAS_NUM_THREADS')))")
# The first numeric command, which loads numpy
FIRST_NUMERIC_RUN = ("import os, doflab.cli; "
                     "doflab.cli.run(['lemma1', '--m', '2', '--n', '2', "
                     "'--l', '2', '--trials', '1', '--output', os.devnull]); ")


@pytest.mark.parametrize("value", [None, ""])
def test_the_first_numeric_command_starts_openblas_on_one_thread(openblas,
                                                                 value):
    # an unset or empty variable is set to 1 only while numpy loads
    out = probe(FIRST_NUMERIC_RUN + BLAS_THREADS, OPENBLAS_NUM_THREADS=value)
    assert out.split() == ["1", repr(value)]


def test_the_first_numeric_command_keeps_an_explicit_thread_count(openblas):
    out = probe(FIRST_NUMERIC_RUN + BLAS_THREADS, OPENBLAS_NUM_THREADS="2")
    assert out.split() == ["2", "'2'"]


def test_bound_help_and_refused_inputs_load_no_numpy(tmp_path):
    # the outer bound is exact arithmetic, and a refusal before any
    # numeric step has nothing to compute
    config = write_config(tmp_path, {"command": "zf", "K": 2, "frobs": 1})
    out = probe(
        "import sys, doflab.cli as cli; cli.build_parser(); "
        "codes = [cli.run(argv) for argv in ("
        "['bound', '--K', '2', '--L', '2', '--M', '3', '--N', '2'], "
        "['--help'], ['zf', '--K', 'two'], "
        f"['--config', {str(config)!r}])]; "
        "print(codes, 'numpy' in sys.modules)")
    assert out.splitlines()[-1] == "[0, 0, 1, 1] False"


def test_the_library_leaves_openblas_threading_as_numpy_starts_it(openblas):
    # not 2 hard-coded: OpenBLAS starts one thread per core, so a 1-CPU
    # machine gives 1 either way
    library = probe("import os, doflab; doflab.numeric_rank([[1.0, 2.0]]); "
                    + BLAS_THREADS, OPENBLAS_NUM_THREADS=None)
    numpy_alone = probe(f"import os, numpy; {BLAS_THREADS}",
                        OPENBLAS_NUM_THREADS=None)
    assert library == numpy_alone


def test_importing_the_package_loads_no_numpy():
    # a submodule still resolves as an attribute after a bare import
    out = probe("import sys, doflab; print('numpy' in sys.modules); "
                "print(doflab.linalg.one_blas_thread.__name__)")
    assert out.split() == ["False", "one_blas_thread"]


def test_the_package_resolves_every_exported_name():
    namespace = {}
    exec(f"from doflab import {', '.join(EXPORTED_NAMES)}", namespace)
    for name in EXPORTED_NAMES:
        assert getattr(doflab, name) is namespace[name]
    assert set(EXPORTED_NAMES) == set(doflab.__all__)
    assert set(EXPORTED_NAMES) <= set(dir(doflab))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        doflab.no_such_name
    with pytest.raises(ImportError):
        exec("from doflab import no_such_name", {})


def test_the_benchmark_tracer_finds_every_function_it_pins():
    # perfbench/tracer.py's Tracer looks up every function its LAYERS
    # names when it is made, so deleting or renaming one fails here; while
    # active it records a span per call, and it restores the originals
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    original = linalg.numeric_rank
    with tracer.active():
        assert linalg.numeric_rank is not original
        assert linalg.numeric_rank([[1.0, 0.0], [0.0, 2.0]]) == 2
    assert linalg.numeric_rank is original
    assert "linalg.numeric_rank" in {span[1] for span in tracer.spans}


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
