import csv
import json

import numpy as np
import pytest

from stacontrol import dynamics, experiments
from stacontrol.cli import build_parser, main
from stacontrol.config import FIELDS, read_config, resolve
from stacontrol.errors import ConfigError
from stacontrol.experiments import decay_run


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def csv_bytes(outdir):
    """Every CSV an output directory holds, by name."""
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


class TestConfigResolution:
    FIELDS = {"schedule": {"nu": None, "delta": 35.0},
              "grid": {"t_start": None, "t_end": None, "n_points": None}}

    def test_empty_config_gets_all_defaults(self):
        cfg = resolve({}, self.FIELDS, "derive-pulse")
        assert cfg == {"schedule": {"nu": 2.0, "delta": 35.0},
                       "grid": {"t_start": 0.0, "t_end": 5.0, "n_points": 2001}}

    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(ConfigError, match="schedule.*speed"):
            resolve({"schedule": {"speed": 3}}, self.FIELDS, "derive-pulse")
        with pytest.raises(ConfigError, match="derive-pulse.*mystery"):
            resolve({"mystery": {}}, self.FIELDS, "derive-pulse")

    def test_grid_and_scan_sections(self):
        cfg = resolve({"grid": {"t_start": -1.0, "n_points": 101}}, self.FIELDS,
                      "derive-pulse")
        assert cfg["grid"] == {"t_start": -1.0, "t_end": 5.0, "n_points": 101}
        with pytest.raises(ConfigError, match="scan"):
            resolve({"scan": {"parameter": "decay-kappa"}}, self.FIELDS,
                    "derive-pulse")

    def test_negative_rate_names_field(self, tmp_path, capsys):
        code = main(["scan-decay", "--values", "0.01", "--gamma-m", "-0.1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "gamma_m" in capsys.readouterr().err

    def test_malformed_yaml_reports_line(self, tmp_path):
        path = write_config(tmp_path, "schedule:\n  nu: [1, 2\n")
        with pytest.raises(ConfigError, match="line"):
            read_config(path)

    def test_round_trip_identity(self, tmp_path):
        """The manifest's resolved_config, fed back as --config, is the run."""
        path = write_config(tmp_path, "grid:\n  n_points: 101\n")
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["transfer", "--config", str(path), "--nu", "1.5",
                     "--out", str(first)]) == 0
        resolved = json.loads((first / "manifest.json").read_text())["resolved_config"]
        assert resolved == {
            "schedule": {"nu": 1.5, "delta": 40.0},
            "grid": {"t_start": 0.0, "t_end": 10.0 / 1.5, "n_points": 101},
            "solver": {"rtol_unitary": 1e-9}}
        path = write_config(tmp_path, json.dumps(resolved), "resolved.yaml")
        assert main(["transfer", "--config", str(path), "--out", str(second)]) == 0
        assert csv_bytes(second) == csv_bytes(first)


class TestCliExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transfer", "--nu"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["mystery"])
        assert exc.value.code == 2

    def test_config_error_is_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "schedule:\n  speed: 3\n")
        code = main(["derive-pulse", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_is_1(self, tmp_path, capsys):
        code = main(["derive-pulse", "--config", str(tmp_path / "absent.yaml"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: cannot read config" in capsys.readouterr().err

    def test_malformed_config_is_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "schedule:\n  nu: [1, 2\n")
        code = main(["derive-pulse", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: cannot parse config" in err and "at line" in err

    def test_bad_range_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["scan-detuning", "--range", "1:2", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_range_step_must_divide_span(self, tmp_path, capsys):
        # 0:1:0.35 would otherwise end at 1.05, past its inclusive end
        with pytest.raises(SystemExit) as exc:
            main(["scan-detuning", "--range", "0:1:0.35",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "does not divide" in capsys.readouterr().err

    def test_success_is_0(self, tmp_path):
        code = main(["derive-pulse", "--out", str(tmp_path / "out")])
        assert code == 0

    def test_check_failure_is_1(self, tmp_path, capsys):
        # a tiny detuning violates the transfer threshold under --check
        code = main(["transfer", "--delta", "1.0", "--out",
                     str(tmp_path / "out"), "--check"])
        assert code == 1
        assert "CHECK FAILED" in capsys.readouterr().err


class TestCliOutputs:
    def test_derive_pulse_files(self, tmp_path):
        out = tmp_path / "out"
        assert main(["derive-pulse", "--out", str(out)]) == 0
        pulse = (out / "pulse.csv").read_text().splitlines()
        assert pulse[0] == "t,G1,G2,theta_dot,ratio"
        assert len(pulse) == 2002
        manifests = list(out.glob("manifest.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["command"] == "derive-pulse"
        assert manifest["resolved_config"] == {
            "schedule": {"nu": 2.0, "delta": 40.0},
            "grid": {"t_start": 0.0, "t_end": 5.0, "n_points": 2001}}
        assert "tolerances" not in manifest

    def test_reruns_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["derive-pulse", "--out", str(out1)]) == 0
        assert main(["derive-pulse", "--out", str(out2)]) == 0
        assert (out1 / "pulse.csv").read_bytes() == (out2 / "pulse.csv").read_bytes()

    def test_env_var_outdir(self, tmp_path, monkeypatch):
        out = tmp_path / "from_env"
        monkeypatch.setenv("STACONTROL_OUT", str(out))
        assert main(["derive-pulse"]) == 0
        assert (out / "pulse.csv").exists()

    def test_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, "schedule:\n  nu: 0.5\n  delta: 20.0\n")
        out = tmp_path / "out"
        assert main(["derive-pulse", "--config", str(path),
                     "--delta", "40.0", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        sched = manifest["resolved_config"]["schedule"]
        assert sched["delta"] == 40.0   # flag wins
        assert sched["nu"] == 0.5       # config survives
        assert manifest["resolved_config"]["grid"]["t_end"] == 20.0  # 10/nu

    def test_transfer_trajectory(self, tmp_path):
        out = tmp_path / "out"
        assert main(["transfer", "--out", str(out), "--check"]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,p1,p_m,p2"
        final = [float(x) for x in rows[-1].split(",")]
        assert final[3] > 0.99

    def test_scan_delay_range_with_leading_minus(self, tmp_path):
        out = tmp_path / "out"
        code = main(["scan-delay", "--range", "-0.2:0.2:0.2",
                     "--out", str(out), "--check"])
        assert code == 0
        rows = (out / "scan_delay.csv").read_text().splitlines()
        assert rows[0] == "delta_t,final_p2,convergence_delta"
        assert len(rows) == 4
        dts = [float(r.split(",")[0]) for r in rows[1:]]
        np.testing.assert_allclose(dts, [-0.2, 0.0, 0.2], atol=1e-12)

    def test_default_delay_range_hits_its_grid_points(self):
        values = build_parser().parse_args(["scan-delay"]).range
        assert len(values) == 25
        assert values[12] == 0.0 and values[0] == -0.6 and values[-1] == 0.6
        assert values[1] == -0.55

    def test_scan_delay_check_without_baseline_says_so(self, tmp_path, capsys):
        code = main(["scan-delay", "--values", "0.1", "0.2",
                     "--out", str(tmp_path / "out"), "--check"])
        assert code == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("note:")]
        assert len(notes) == 1 and "skipped" in notes[0]

    def test_scan_detuning_csv(self, tmp_path):
        out = tmp_path / "out"
        assert main(["scan-detuning", "--values", "20", "40",
                     "--out", str(out), "--check"]) == 0
        rows = (out / "scan_detuning.csv").read_text().splitlines()
        assert rows[0] == "delta,max_phonon,convergence_delta,detuning_ratio"
        phonon = [float(r.split(",")[1]) for r in rows[1:]]
        assert phonon[1] < phonon[0]


def read_table(path):
    """CSV header and rows as strings, so comparisons are exact."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


class TestSaveTrajectories:
    """Each saved trajectory is the run its CSV row was taken from."""

    @pytest.mark.parametrize("pulse", ["G1", "both"])
    def test_scan_delay(self, tmp_path, pulse):
        out = tmp_path / "out"
        assert main(["scan-delay", "--pulse", pulse, "--values", "-0.3", "0.25",
                     "--save-trajectories", "--out", str(out)]) == 0
        _, rows = read_table(out / "scan_delay.csv")
        assert len(rows) == 2
        for i, (_, final_p2, _) in enumerate(rows):
            header, traj = read_table(out / f"trajectory_{i:03d}.csv")
            assert header == ["t", "p1", "p_m", "p2"]
            assert traj[-1][3] == final_p2

    def test_scan_detuning_solves_each_row_twice(self, tmp_path, monkeypatch):
        calls = []
        solve_ivp = dynamics.solve_ivp

        def counting(*args, **kwargs):
            calls.append(kwargs["rtol"])
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", counting)
        out = tmp_path / "out"
        assert main(["scan-detuning", "--values", "30", "45", "--workers", "1",
                     "--save-trajectories", "--out", str(out)]) == 0
        assert len(calls) == 4      # rtol and rtol/2 per row, no reruns
        _, rows = read_table(out / "scan_detuning.csv")
        for i, (_, max_phonon, _, _) in enumerate(rows):
            _, traj = read_table(out / f"trajectory_{i:03d}.csv")
            p_m = [float(r[2]) for r in traj]
            assert traj[int(np.argmax(p_m))][2] == max_phonon

    def test_scan_decay_both_protocols(self, tmp_path):
        out = tmp_path / "out"
        assert main(["scan-decay", "--protocol", "both", "--values", "0.01",
                     "--save-trajectories", "--out", str(out)]) == 0
        header, rows = read_table(out / "scan_decay.csv")
        for protocol, nu in (("adiabatic", 0.5), ("tqd", 2.0)):
            traj, fid = decay_run(0.01, protocol, nu)
            assert rows[0][header.index(f"F_{protocol}")] == f"{fid:.17g}"
            _, saved = read_table(out / f"trajectory_{protocol}_000.csv")
            expected = np.column_stack([traj.times, traj.populations])
            assert saved == [[f"{x:.17g}" for x in r] for r in expected]


# the 25 fields of the former all-in-one schema, each with a value off its default
OLD_FIELDS = {
    "schedule.kind": "tqd", "schedule.g0": 2.0, "schedule.nu": 1.5,
    "schedule.delta": 30.0, "schedule.delays": [0.3, 0.0],
    "schedule.values": [1.0, 1.0], "schedule.samples": [[0.0, 0.0, 1.0], [5.0, 1.0, 0.0]],
    "schedule.samples_csv": "pulses.csv",
    "dissipation.kappa1": 0.5, "dissipation.kappa2": 0.5,
    "dissipation.gamma_m": 1e-3, "dissipation.n_th": 50.0,
    "system.fock_dims": [2, 3, 2], "system.labels": ["a", "b", "c"],
    "grid.t_start": -1.0, "grid.t_end": 6.0, "grid.n_points": 501,
    "scan.parameter": "decay-kappa", "scan.values": [0.1],
    "scan.metric": "fidelity-F", "scan.base": {},
    "solver.rtol_unitary": 1e-8, "solver.atol_unitary": 1e-3,
    "solver.rtol_lindblad": 1e-6, "solver.atol_lindblad": 1e-3,
}
GRID = {"grid.t_start", "grid.t_end", "grid.n_points"}
# subcommand -> (cheap arguments, the fields its run reads)
SUBCOMMANDS = {
    "derive-pulse": ([], {"schedule.nu", "schedule.delta"} | GRID),
    "transfer": ([], {"schedule.nu", "schedule.delta", "solver.rtol_unitary"} | GRID),
    "fig2-suite": (["--nu", "2"], {"solver.rtol_unitary"}),
    "scan-detuning": (["--values", "40"], {"schedule.nu", "solver.rtol_unitary"}),
    "scan-delay": (["--values", "0.1"], {"schedule.nu", "schedule.delta",
                                         "solver.rtol_unitary"}),
    "scan-decay": (["--values", "0.01", "--protocol", "tqd"],
                   {"dissipation.gamma_m", "dissipation.n_th"}),
}


def test_eight_settable_fields():
    accepted = set().union(*(fields for _, fields in SUBCOMMANDS.values()))
    assert accepted == {f"{s}.{k}" for s, fields in FIELDS.items() for k in fields}
    assert len(accepted) == 8 and accepted < set(OLD_FIELDS)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_field_reaches_the_run_or_exits_1(tmp_path, capsys, command):
    """A config holding one field changes the CSVs if the run reads that
    field, and otherwise exits 1 before running; the manifest's
    resolved_config of a run without a config reproduces that run."""
    argv, reads = SUBCOMMANDS[command]

    def run(name, config=None):
        out = tmp_path / name
        extra = [] if config is None else ["--config", str(config)]
        return main([command, *argv, *extra, "--out", str(out)]), out

    code, base = run("base")
    assert code == 0
    resolved = json.loads((base / "manifest.json").read_text())["resolved_config"]
    assert {f"{s}.{k}" for s, fields in resolved.items() for k in fields} == reads
    code, again = run("again", write_config(tmp_path, json.dumps(resolved), "resolved.yaml"))
    assert code == 0 and csv_bytes(again) == csv_bytes(base)
    capsys.readouterr()
    for i, (field, value) in enumerate(OLD_FIELDS.items()):
        section, key = field.split(".")
        path = write_config(tmp_path, json.dumps({section: {key: value}}), f"{i}.yaml")
        code, out = run(str(i), path)
        if field in reads:
            assert code == 0, field
            assert csv_bytes(out) != csv_bytes(base), field
        else:
            assert code == 1, field
            assert "error:" in capsys.readouterr().err, field
            assert not out.exists(), field


def test_scan_decay_manifest_records_the_run(tmp_path):
    out = tmp_path / "out"
    assert main(["scan-decay", "--values", "0.01", "--protocol", "tqd",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"] == {
        "dissipation": {"gamma_m": 5e-4, "n_th": 100.0}}
    tqd = manifest["settings"]["tqd"]
    assert tqd["nu"] == 2.0 and "dims" not in tqd and "rtol" not in tqd
    assert tqd["protocol"] == "tqd" and tqd["axis"] == "kappa"
    assert tqd["n_points"] == 801
    assert list(manifest["settings"]) == ["tqd"]


@pytest.mark.parametrize("command, argv, grid, record", [
    ("scan-delay", ["--values", "0.1", "--pulse", "G2"],
     {"t_start": -12.0, "t_end": 17.0, "n_points": 2001},
     {"axis": "delta_t", "pulse": "G2", "delta": 40.0}),
    ("scan-detuning", ["--values", "40"],
     {"t_start": 0.0, "t_end": 5.0, "n_points": 2001}, {"axis": "delta"}),
])
def test_scan_manifest_records_the_run(tmp_path, command, argv, grid, record):
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 0
    settings = json.loads((out / "manifest.json").read_text())["settings"]
    assert settings["grid"] == grid
    assert "dims" not in settings and settings["nu"] == 2.0
    assert settings["rtol"] == 1e-9
    assert settings.items() >= record.items()


@pytest.mark.parametrize("command, values, argv", [
    ("scan-detuning", ["80", "40"], []),
    ("scan-decay", ["0.05", "0.01"], ["--protocol", "tqd"]),
], ids=["scan-detuning", "scan-decay"])
def test_check_does_not_depend_on_value_order(tmp_path, capsys, command, values, argv):
    out = tmp_path / "out"
    assert main([command, "--values", *values, *argv, "--check",
                 "--out", str(out)]) == 0
    assert "CHECK FAILED" not in capsys.readouterr().err
    (table,) = out.glob("scan_*.csv")
    _, rows = read_table(table)
    assert [float(r[0]) for r in rows] == [float(v) for v in values]


@pytest.mark.parametrize("command, flag", [
    ("derive-pulse", ["--workers", "3"]),
    ("derive-pulse", ["--save-trajectories"]),
    ("derive-pulse", ["--check"]),
    ("transfer", ["--workers", "3"]),
    ("transfer", ["--save-trajectories"]),
    ("fig2-suite", ["--workers", "3"]),
    ("fig2-suite", ["--save-trajectories"]),
])
def test_flag_no_run_reads_is_usage_error(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *flag, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["scan-delay", "scan-detuning"])
@pytest.mark.parametrize("values_first", [True, False])
def test_values_and_range_exclude_each_other(tmp_path, capsys, command, values_first):
    axis = [["--values", "0.1"], ["--range", "0:0.2:0.1"]]
    if not values_first:
        axis.reverse()
    with pytest.raises(SystemExit) as exc:
        main([command, *axis[0], *axis[1], "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, field", [
    ("scan-decay", "dissipation:\n  gamma_m: abc\n", "dissipation.gamma_m"),
    ("transfer", "solver:\n  rtol_unitary: [1]\n", "solver.rtol_unitary"),
    ("transfer", "grid:\n  n_points: true\n", "grid.n_points"),
    ("scan-detuning", "schedule:\n  nu: 0\n", "schedule.nu"),
    ("derive-pulse", "schedule:\n  nu: true\n", "schedule.nu"),
    ("fig2-suite", "solver:\n  rtol_unitary: true\n", "solver.rtol_unitary"),
    ("derive-pulse", 'schedule:\n  nu: "2"\n', "schedule.nu"),
])
def test_malformed_value_is_1(tmp_path, capsys, command, text, field):
    path = write_config(tmp_path, text)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "out").exists()


def test_fig2_suite_labels_each_rate_exactly(tmp_path):
    out = tmp_path / "out"
    assert main(["fig2-suite", "--nu", "1", "--nu", "1.0000001", "--out", str(out)]) == 0
    assert set(csv_bytes(out)) == {f"{kind}_nu{label}.csv"
                                   for kind in ("adiabatic", "couplings", "tqd")
                                   for label in ("1", "1.0000001")}


def test_fig2_suite_repeated_rate_is_1(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(experiments, "run_fig2_scenario", no_run)
    out = tmp_path / "out"
    assert main(["fig2-suite", "--nu", "2", "--nu", "2.0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: shape rates must be distinct")
    assert not out.exists()


def test_points_flag_overrides_grid(tmp_path):
    path = write_config(tmp_path, "grid:\n  n_points: 101\n")
    out = tmp_path / "out"
    assert main(["derive-pulse", "--config", str(path), "--points", "11",
                 "--out", str(out)]) == 0
    assert len((out / "pulse.csv").read_text().splitlines()) == 12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["grid"]["n_points"] == 11


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_1_is_usage_error(workers):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["scan-decay", "--workers", workers])
    assert exc.value.code == 2
