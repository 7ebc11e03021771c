"""Command-line interface: job parsing, payloads, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from heisenmod import cli

CLI = [sys.executable, "-m", "heisenmod.cli"]

TIGHT_JOB = {
    "group": [4],
    "generators": [[[2], [0]], [[0], [2]]],
    "weight": "1",
    "windows": ["delta:0", "delta:1"],
    "seed": 3,
}


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(argv), capture_output=True, text=True, env=env, timeout=120
    )


def write_job(tmp_path, job, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return str(path)


def test_adjoint_self_dual_lattice(tmp_path):
    spec = write_job(tmp_path, TIGHT_JOB)
    res = run_cli("adjoint", "--spec", spec)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["count"] == 4
    assert payload["weight"] == "1"
    assert payload["s"] == "1"
    assert [[0], [0]] in payload["elements"]
    assert [[2], [2]] in payload["elements"]


def test_adjoint_full_plane_collapses(tmp_path):
    job = {"group": [2], "generators": [[[1], [0]], [[0], [1]]], "weight": "1"}
    spec = write_job(tmp_path, job)
    res = run_cli("adjoint", "--spec", spec)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["count"] == 1
    assert payload["weight"] == "2"
    assert payload["s"] == "1/2"
    assert payload["elements"] == [[[0], [0]]]


def test_frame_bounds_tight(tmp_path):
    spec = write_job(tmp_path, TIGHT_JOB)
    res = run_cli("frame-bounds", "--spec", spec)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["frame"] is True
    assert payload["A"] == pytest.approx(2.0, abs=1e-12)
    assert payload["B"] == pytest.approx(2.0, abs=1e-12)


def test_frame_bounds_deficient(tmp_path):
    job = dict(TIGHT_JOB, windows=["delta:0"])
    spec = write_job(tmp_path, job)
    res = run_cli("frame-bounds", "--spec", spec)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["frame"] is False
    assert payload["A"] == pytest.approx(0.0, abs=1e-12)


def test_dual_window_tight_and_explicit_window_entry(tmp_path):
    spec = write_job(tmp_path, TIGHT_JOB)
    res = run_cli("dual-window", "--spec", spec)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["windows"][0][0] == pytest.approx([0.5, 0.0])
    assert payload["windows"][1][1] == pytest.approx([0.5, 0.0])
    # an explicit [re, im] window list matches the named delta
    explicit = dict(
        TIGHT_JOB,
        windows=[[[1, 0], [0, 0], [0, 0], [0, 0]], "delta:1"],
    )
    res2 = run_cli("dual-window", "--spec", write_job(tmp_path, explicit, "e.json"))
    assert res2.returncode == 0, res2.stderr
    assert json.loads(res2.stdout) == payload


def test_dual_window_non_frame_exits_3(tmp_path):
    job = dict(TIGHT_JOB, windows=["delta:0"])
    spec = write_job(tmp_path, job)
    res = run_cli("dual-window", "--spec", spec)
    assert res.returncode == 3
    assert "error:" in res.stderr


def test_figa_gap_small(tmp_path):
    job = dict(TIGHT_JOB, windows=["randn:5"])  # cycles one window to all four slots
    spec = write_job(tmp_path, job)
    res = run_cli("figa", "--spec", spec)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["abs_gap"] < 1e-10
    assert payload["lhs"] == pytest.approx(payload["rhs"], abs=1e-10)


def test_figa_z2_full_plane_fixture(tmp_path):
    job = {
        "group": [2],
        "generators": [[[1], [0]], [[0], [1]]],
        "weight": "1",
        "windows": ["delta:0"],
    }
    res = run_cli("figa", "--spec", write_job(tmp_path, job))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["lhs"] == pytest.approx([2.0, 0.0], abs=1e-12)
    assert payload["rhs"] == pytest.approx([2.0, 0.0], abs=1e-12)
    assert payload["abs_gap"] < 1e-12


def test_gen_check_positive_and_negative(tmp_path):
    res = run_cli("gen-check", "--spec", write_job(tmp_path, TIGHT_JOB))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload == {
        "A": pytest.approx(2.0, abs=1e-12),
        "B": pytest.approx(2.0, abs=1e-12),
        "agree": True,
        "frame": True,
        "generating": True,
    }
    thin = {
        "group": [4],
        "generators": [[[2], [2]]],
        "windows": ["delta:0"],
    }
    res2 = run_cli("gen-check", "--spec", write_job(tmp_path, thin, "thin.json"))
    payload2 = json.loads(res2.stdout)
    assert payload2["generating"] is False
    assert payload2["frame"] is False
    assert payload2["agree"] is True


def test_janssen_agreement(tmp_path):
    job = dict(TIGHT_JOB, windows=["randn:9"])
    res = run_cli("janssen", "--spec", write_job(tmp_path, job))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["pass"] is True
    assert payload["max_abs_gap"] < 1e-10


def test_janssen_decides_on_the_gap_scaled_by_the_operator(tmp_path):
    # Window entries of 100-200 give |S| entries near 1e6: the absolute gap exceeds 1e-10 on rounding
    # alone, the gap over max(1, max|S|) stays near eps.
    window = [[100 + (37 * t) % 101, 100 + (53 * t + 11) % 101] for t in range(12)]
    job = {"group": [12], "generators": [[[2], [3]], [[0], [4]]], "windows": [window]}
    res = run_cli("janssen", "--spec", write_job(tmp_path, job))
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["max_abs_gap"] > 1e-10
    assert payload["max_rel_gap"] <= 1e-14 and payload["pass"] is True, payload


def test_verify_at_a_weight_whose_square_overflows_prints_its_report(tmp_path):
    job = {"group": [4], "generators": [[[1], [0]], [[0], [2]]], "weight": "1e160", "seed": 3}
    res = run_cli("verify", "--spec", write_job(tmp_path, job))
    assert res.returncode in (0, 1), res.stderr
    assert "Traceback" not in res.stderr
    report = json.loads(res.stdout)
    assert report["pass"] is (res.returncode == 0)
    assert len(report["identities"]) >= 13


def test_verify_passes_at_a_weight_whose_square_overflows(tmp_path):
    # twisted-axioms evaluates its identities on operands over sqrt(w): no term, and no product of two
    # operands inside a convolution, leaves the float range, so the report holds no NaN and no warning.
    job = {"group": [4], "generators": [[[1], [0]], [[0], [2]]], "weight": "1e160", "seed": 5}
    res = run_cli("verify", "--spec", write_job(tmp_path, job))
    assert res.returncode == 0 and res.stderr == "", (res.stdout, res.stderr)
    assert "NaN" not in res.stdout and json.loads(res.stdout)["pass"] is True


def test_spectrum_json_and_csv(tmp_path):
    spec = write_job(tmp_path, TIGHT_JOB)
    res = run_cli("spectrum", "--spec", spec)
    assert res.returncode == 0, res.stderr
    eigs = json.loads(res.stdout)["spectrum"]
    assert eigs == pytest.approx([2.0, 2.0, 2.0, 2.0], abs=1e-12)
    res_csv = run_cli("spectrum", "--spec", spec, "--out", "csv")
    lines = res_csv.stdout.strip().split("\n")
    assert len(lines) == 4
    assert [float(v) for v in lines] == pytest.approx(eigs, abs=0)


def test_verify_passes_json_and_csv(tmp_path):
    job = {"group": [4], "generators": [[[2], [0]], [[0], [2]]], "seed": 1}
    spec = write_job(tmp_path, job)
    res = run_cli("verify", "--spec", spec)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["pass"] is True
    assert report["seed"] == 1
    assert len(report["identities"]) >= 13
    res_csv = run_cli("verify", "--spec", spec, "--out", "csv")
    assert res_csv.returncode == 0
    lines = res_csv.stdout.strip().split("\n")
    assert lines[0] == "name,cases,max_abs_gap,max_rel_gap,pass"
    assert len(lines) == 1 + len(report["identities"])
    assert all(line.endswith(",true") for line in lines[1:])


def test_seed_flag_overrides_job(tmp_path):
    job = {"group": [4], "generators": [[[2], [0]], [[0], [2]]], "seed": 1}
    spec = write_job(tmp_path, job)
    res = run_cli("verify", "--spec", spec, "--seed", "7")
    assert json.loads(res.stdout)["seed"] == 7


def test_one_seed_rule_for_every_command_and_the_flag(tmp_path, capsys):
    # The job's seed is checked by every command, whether or not it reads it, and --seed by the same rule: a
    # nonnegative integer, JSON true and false not counting as one. Everything else exits 2.
    for seed in (True, False, -1, 1.5, "3"):
        spec = write_job(tmp_path, dict(TIGHT_JOB, seed=seed))
        for cmd in sorted(cli._COMMANDS):
            assert cli.main([cmd, "--spec", spec]) == 2, (seed, cmd)
            assert 'field "seed" must be a nonnegative integer' in capsys.readouterr().err
    tight = write_job(tmp_path, TIGHT_JOB, "tight.json")
    for flag in ("-3", "1.5", "true", "0x5"):
        for cmd in ("verify", "adjoint"):
            with pytest.raises(SystemExit) as exit_:
                cli.main([cmd, "--spec", tight, "--seed", flag])
            assert exit_.value.code == 2, (flag, cmd)
    assert cli.main(["adjoint", "--spec", write_job(tmp_path, dict(TIGHT_JOB, seed=0), "zero.json")]) == 0
    # the same codes from a fresh process
    res = run_cli("verify", "--spec", tight, "--seed", "-3")
    assert res.returncode == 2 and "seed must be a nonnegative integer" in res.stderr, res.stderr
    res = run_cli("frame-bounds", "--spec", write_job(tmp_path, dict(TIGHT_JOB, seed=True), "bool.json"))
    assert res.returncode == 2 and 'field "seed"' in res.stderr, res.stderr


def test_determinism_byte_identical(tmp_path):
    job = {"group": [6], "generators": [[[2], [0]], [[0], [3]]], "seed": 42}
    spec = write_job(tmp_path, job)
    first = run_cli("verify", "--spec", spec)
    second = run_cli("verify", "--spec", spec)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0
    s1 = run_cli("spectrum", "--spec", write_job(tmp_path, TIGHT_JOB, "t.json"))
    s2 = run_cli("spectrum", "--spec", write_job(tmp_path, TIGHT_JOB, "t2.json"))
    assert s1.stdout == s2.stdout


OVERFLOW_LATTICE = {"group": [4], "generators": [[[1], [0]], [[0], [2]]]}


def test_malformed_inputs_exit_2(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run_cli("adjoint", "--spec", str(bad_json)).returncode == 2
    assert run_cli("adjoint", "--spec", str(tmp_path / "missing.json")).returncode == 2
    for job in (
        {"group": []},
        {"group": [0]},
        {"group": "4"},
        {"group": [4], "generators": [[[2]]]},
        {"group": [4], "generators": [[[2], [0, 0]]]},
        {"group": [4], "weight": "nope"},
        {"group": [4], "weight": "-1"},
        {"group": [4], "windows": ["mystery"]},
        {"group": [4], "windows": [[[1, 0]]]},
        {"group": [4], "windows": [42]},
        {"group": [4], "seed": -1},
        {"group": [4], "seed": True},
        {"group": [True, 4], "windows": ["const"]},
        {"group": [4], "generators": [[[True], [0]]], "windows": ["const"]},
        {"group": [4], "windows": [[["a", 0], [0, 0], [0, 0], [0, 0]]]},
        {"group": [4], "windows": [[[True, 0], [0, 0], [0, 0], [0, 0]]]},
        {"group": [4], "windows": [[[float("nan"), 0], [0, 0], [0, 0], [0, 0]]]},
        {"group": [4], "windows": [[[0, float("-inf")], [0, 0], [0, 0], [0, 0]]]},
        {"group": [4], "windows": [[[10**400, 0], [0, 0], [0, 0], [0, 0]]]},
        dict(OVERFLOW_LATTICE, weight="1e400", windows=["const"]),
        dict(OVERFLOW_LATTICE, weight="1e-400", windows=["const"]),
        dict(OVERFLOW_LATTICE, weight="1e400", seed=1),
        dict(OVERFLOW_LATTICE, windows=[[[1e300, 0]] * 4]),
    ):
        spec = write_job(tmp_path, job, "case.json")
        cmd = "verify" if "seed" in job else "frame-bounds"
        res = run_cli(cmd, "--spec", spec)
        assert res.returncode == 2, (job, res.stderr)
        assert "error:" in res.stderr
    # numbers that overflow floats, in every floating-point command (in process); adjoint computes exactly
    huge = write_job(tmp_path, dict(OVERFLOW_LATTICE, windows=[[[1e300, 0]] * 4]), "huge.json")
    heavy = write_job(tmp_path, dict(OVERFLOW_LATTICE, weight="1e400", windows=["const"]), "heavy.json")
    for cmd in ("dual-window", "spectrum", "gen-check", "figa", "janssen"):
        assert cli.main([cmd, "--spec", huge]) == 2, cmd
    assert cli.main(["figa", "--spec", heavy]) == 2
    for weight in ("1e400", "1e-400"):
        assert cli.main(["adjoint", "--spec", write_job(tmp_path, dict(OVERFLOW_LATTICE, weight=weight))]) == 0
    # --tol must be positive and finite; argparse rejects it before any command runs
    tight = write_job(tmp_path, TIGHT_JOB, "tight.json")
    for tol, cmd in zip(("0", "-1", "nan", "inf"), ("frame-bounds", "dual-window", "gen-check", "verify")):
        res = run_cli(cmd, "--spec", tight, "--tol", tol)
        assert res.returncode == 2, (tol, cmd, res.stderr)
        assert "tolerance must be positive and finite" in res.stderr


def test_only_a_non_frame_exits_3(tmp_path, monkeypatch):
    def buggy(job, args):
        raise ValueError("a bug, not a domain error")

    monkeypatch.setitem(cli._COMMANDS, "frame-bounds", buggy)
    with pytest.raises(ValueError, match="a bug"):
        cli.main(["frame-bounds", "--spec", write_job(tmp_path, TIGHT_JOB)])
    # redundancy 1/2: |Delta| = 12 on Z24 is never a frame
    job = {"group": [24], "generators": [[[4], [0]], [[0], [12]]], "windows": ["randn:5"]}
    res = run_cli("dual-window", "--spec", write_job(tmp_path, job, "half.json"))
    assert res.returncode == 3
    assert "not a frame" in res.stderr


def test_missing_window_exit_2(tmp_path):
    job = {"group": [4], "generators": [[[2], [0]]]}
    res = run_cli("frame-bounds", "--spec", write_job(tmp_path, job))
    assert res.returncode == 2


def test_unknown_command_exit_2(tmp_path):
    res = run_cli("nonsense", "--spec", write_job(tmp_path, TIGHT_JOB))
    assert res.returncode == 2


def test_thread_cap_env(tmp_path):
    spec = write_job(tmp_path, TIGHT_JOB)
    res = run_cli("frame-bounds", "--spec", spec, env_extra={"HEISENMOD_THREADS": "1"})
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["frame"] is True


def test_thread_cap_applied_on_package_import():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["HEISENMOD_THREADS"] = "1"
    probe = "import os, heisenmod; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "1"
