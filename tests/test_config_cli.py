import csv
import json

import numpy as np
import pytest

from stacontrol import dynamics
from stacontrol.cli import main
from stacontrol.config import (
    parse_config,
    resolve_config_data,
    resolved_equal,
    resolved_to_dict,
    serialize_config,
)
from stacontrol.errors import ConfigError
from stacontrol.experiments import decay_run


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigResolution:
    def test_empty_config_gets_all_defaults(self, tmp_path):
        rc = parse_config(write_config(tmp_path, ""))
        sched = rc.system.schedule
        assert sched.kind == "vitanov"
        assert sched.g0 == 1.0 and sched.nu == 2.0
        assert rc.system.fock_dims == (2, 2, 2)
        assert rc.grid is None and rc.scan is None
        assert "schedule.g0" in rc.defaulted
        assert "dissipation.kappa1" in rc.defaulted
        assert "grid" in rc.defaulted

    def test_delta_implies_tqd_kind(self):
        rc = resolve_config_data({"schedule": {"nu": 2.0, "delta": 40.0}})
        assert rc.system.schedule.kind == "tqd"
        assert "schedule.kind" in rc.defaulted

    def test_explicit_fields_not_marked_defaulted(self):
        rc = resolve_config_data({"schedule": {"kind": "vitanov", "nu": 1.0}})
        assert "schedule.nu" not in rc.defaulted
        assert "schedule.kind" not in rc.defaulted

    def test_negative_rate_names_field(self):
        with pytest.raises(ConfigError, match="kappa1"):
            resolve_config_data({"dissipation": {"kappa1": -0.1}})

    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(ConfigError, match="schedule"):
            resolve_config_data({"schedule": {"speed": 3}})
        with pytest.raises(ConfigError, match="config"):
            resolve_config_data({"mystery": {}})

    def test_malformed_yaml_reports_line(self, tmp_path):
        path = write_config(tmp_path, "schedule:\n  nu: [1, 2\n")
        with pytest.raises(ConfigError, match="line"):
            parse_config(path)

    def test_grid_and_scan_sections(self):
        rc = resolve_config_data({
            "grid": {"t_start": 0.0, "t_end": 5.0, "n_points": 101},
            "scan": {"parameter": "decay-kappa", "values": [0.0, 0.01],
                     "metric": "fidelity-F"},
        })
        assert rc.grid.n_points == 101
        assert rc.scan.parameter == "decay-kappa"

    def test_samples_csv_relative_to_config(self, tmp_path):
        (tmp_path / "sched.csv").write_text(
            "t,g1,g2\n0,0,1\n1,0.5,0.5\n2,1,0\n")
        path = write_config(
            tmp_path, "schedule:\n  kind: tabulated\n  samples_csv: sched.csv\n")
        rc = parse_config(path)
        assert rc.system.schedule.kind == "tabulated"
        g1, g2 = rc.system.schedule.couplings(1.0)
        assert g1 == pytest.approx(0.5) and g2 == pytest.approx(0.5)

    def test_round_trip_identity(self, tmp_path):
        rc = resolve_config_data({
            "schedule": {"nu": 1.5, "delta": 30.0},
            "dissipation": {"kappa1": 0.02, "n_th": 10.0},
            "system": {"fock_dims": [2, 6, 2]},
            "grid": {"t_start": -1.0, "t_end": 8.0, "n_points": 501},
        })
        path = tmp_path / "resolved.yaml"
        serialize_config(rc, path)
        rc2 = parse_config(path)
        assert resolved_equal(rc, rc2)
        assert resolved_to_dict(rc) == resolved_to_dict(rc2)


class TestCliExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transfer", "--dims"])
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
        assert "schedule.g0" in manifest["defaulted_fields"]
        assert manifest["tolerances"]["rtol_unitary"] == 1e-9

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

    @pytest.mark.filterwarnings("ignore::stacontrol.dynamics.TruncationWarning")
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
