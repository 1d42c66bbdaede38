import concurrent.futures
import csv
import dataclasses
import json
import pickle
from types import SimpleNamespace

import pytest

from uwoan import cli
from uwoan.base_station import BsState
from uwoan.cli import main
from uwoan.config import load_config
from uwoan.engine import simulate
from uwoan.frame import SlotPayload, SuperFrame
from uwoan.report import (ReportError, SimReport, aggregate, csv_row,
                          report_to_json)

BASE_CFG = """
n_uwn = 12
t_max_s = 12
seed = 4
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(BASE_CFG)
    return path


@pytest.fixture
def in_process_pool(monkeypatch):
    """A stand-in sweep pool that maps in-process, so no worker process is
    ever started, whatever the count asked for.  Records the size of each
    pool made and every task handed to one.  The sweep imports the pool
    from `concurrent.futures` when it starts one, so it is patched there."""
    seen = SimpleNamespace(sizes=[], tasks=[])

    class RecordingPool:
        def __init__(self, max_workers):
            seen.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            seen.tasks.extend(tasks)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return seen


class TestExitCodes:
    def test_missing_config_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        code = main(["run", "--config", str(missing), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert "absent.cfg" in capsys.readouterr().err

    def test_bad_flag_exits_1(self, capsys):
        assert main(["run", "--no-such-flag"]) == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_invalid_config_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("c0 = -1\n")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2

    def test_bad_c_list_exits_2(self, cfg_file, tmp_path):
        assert main(["sweep", "--config", str(cfg_file),
                     "--c-list", "0.056,banana", "--seeds", "2",
                     "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("text,needle", [
        ("n_uwn = 1100\n", "1023 network IDs"),
        ("depth_resolution_surface_m = 0.001\n"
         "depth_resolution_gradient = 0\n", "depth code 200000"),
        ("t_max_s = inf\n", "t_max_s must be finite"),
        ("superframe_period_s = 1e-300\nt_max_s = 1e-9\n"
         "first_superframe_offset_s = 1e6\nn_uwn = 5\n", "sonar pings"),
        ("move_duration_min_s = 1e-9\nmove_duration_max_s = 1e-9\n",
         "move_duration_max_s"),
        ("superframe_period_s = 1e-4\n", "more than the 20,000,000"),
    ])
    def test_unrepresentable_config_exits_2_before_running(
            self, tmp_path, capsys, text, needle):
        path = tmp_path / "big.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()

    def test_sonar_noise_past_the_floor_runs_clean(self, tmp_path):
        # noisy measured depths are clipped to the region, so they never
        # reach past the deepest depth code a frame can carry
        path = tmp_path / "noisy.cfg"
        path.write_text("n_uwn = 10\nt_max_s = 5\n"
                        "depth_resolution_surface_m = 0.0125\n"
                        "depth_resolution_gradient = 0\n"
                        "sonar_depth_noise_std_m = 100\n")
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0

    def test_protocol_limit_hit_mid_run_exits_2(self, cfg_file, tmp_path,
                                                capsys, monkeypatch):
        def compose_unencodable(self, now):
            return SuperFrame(0, (SlotPayload(1, 16384, 0, 0),))
        monkeypatch.setattr(BsState, "compose_superframe",
                            compose_unencodable)
        assert main(["run", "--config", str(cfg_file),
                     "--out", str(tmp_path / "out")]) == 2
        assert "depth_code 16384" in capsys.readouterr().err

    def test_unknown_topo_format_exits_1(self, tmp_path):
        assert main(["topo", "--report", "whatever.json",
                     "--format", "svg"]) == 1


class TestUndecodableInput:
    """A file that is not UTF-8 text is an input error: exit 2, no output."""

    @pytest.mark.parametrize("command", [
        ["run", "--config"],
        ["sweep", "--c-list", "0.056", "--seeds", "1", "--config"],
        ["topo", "--report"],
    ], ids=["run", "sweep", "topo"])
    def test_exits_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bin.cfg"
        bad.write_bytes(b"\xff\xfe\x00n_uwn = 3\n")
        out = tmp_path / "out"
        argv = command + [str(bad)]
        if command[0] != "topo":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {bad}: not UTF-8 text: invalid "
                                "start byte at byte 0\n")
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [bad]


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of an input file is skipped."""

    @staticmethod
    def twins(tmp_path, name, text):
        """The same text written twice: plain, and after the mark."""
        plain, marked = tmp_path / f"plain-{name}", tmp_path / f"bom-{name}"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        return plain, marked

    def test_run(self, tmp_path, capsys):
        outputs = []
        for path in self.twins(tmp_path, "scenario.cfg", BASE_CFG.lstrip()):
            out = tmp_path / f"out-{path.name}"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((stdout, {p.name: p.read_bytes()
                                     for p in sorted(out.iterdir())}))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1]) == 4

    def test_sweep(self, tmp_path, capsys):
        outputs = []
        for path in self.twins(tmp_path, "scenario.cfg", BASE_CFG.lstrip()):
            out = tmp_path / f"{path.name}.csv"
            assert main(["sweep", "--config", str(path), "--c-list",
                         "0.056,0.151", "--seeds", "2",
                         "--out", str(out)]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_topo(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        capsys.readouterr()
        report = (out / "report.json").read_text()
        for fmt in ("json", "dot"):
            printed = []
            for path in self.twins(tmp_path, f"report-{fmt}.json", report):
                assert main(["topo", "--report", str(path),
                             "--format", fmt]) == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1] != ""


class TestUnusableOut:
    """An --out path that cannot be written exits 2 before any run."""

    @pytest.fixture(autouse=True)
    def no_runs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before checking --out")
        monkeypatch.setattr(cli, "simulate", refuse)

    @pytest.fixture
    def a_file(self, tmp_path):
        path = tmp_path / "taken"
        path.write_text("keep me\n")
        return path

    @pytest.mark.parametrize("out,needle", [
        ("taken", "exists and is not a directory"),
        ("taken/sub", "exists and is not a directory"),
    ])
    def test_run(self, cfg_file, tmp_path, a_file, capsys, out, needle):
        assert main(["run", "--config", str(cfg_file),
                     "--out", str(tmp_path / out)]) == 2
        assert needle in capsys.readouterr().err
        assert a_file.read_text() == "keep me\n"

    @pytest.mark.parametrize("out,needle", [
        (".", "is a directory"),
        ("missing/x.csv", "does not exist"),
        ("taken/x.csv", "does not exist"),
    ])
    def test_sweep(self, cfg_file, tmp_path, a_file, capsys, out, needle):
        assert main(["sweep", "--config", str(cfg_file),
                     "--c-list", "0.056", "--seeds", "2",
                     "--out", str(tmp_path / out)]) == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("out", ["", "  "])
    def test_empty_out(self, cfg_file, tmp_path, monkeypatch, capsys, out):
        # an empty path would mean the working directory
        monkeypatch.chdir(tmp_path)
        for command in (["run"], ["sweep", "--c-list", "0.056",
                                  "--seeds", "2"]):
            assert main(command + ["--config", str(cfg_file),
                                   "--out", out]) == 2
            assert capsys.readouterr().err \
                == f"error: --out is empty: '{out}'\n"
        assert list(tmp_path.iterdir()) == [cfg_file]


class TestRunCommand:
    def test_writes_all_artifacts(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        for name in ("report.json", "trace.log", "topology.json",
                     "topology.dot"):
            assert (out / name).is_file(), name
        report = json.loads((out / "report.json").read_text())
        assert report["n_uwn"] == 12
        assert report["seed"] == 4
        assert "access" in capsys.readouterr().out

    def test_byte_identical_reruns(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg_file), "--out", str(out1)])
        main(["run", "--config", str(cfg_file), "--out", str(out2)])
        for name in ("report.json", "trace.log", "topology.json",
                     "topology.dot"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override(self, cfg_file, tmp_path):
        out = tmp_path / "o"
        main(["run", "--config", str(cfg_file), "--seed", "99",
              "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 99


class TestSweepCommand:
    def test_row_counts(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_file),
                     "--c-list", "0.056,0.120,0.151", "--seeds", "4",
                     "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c0", "seed", "access_rate", "dual_hop_rate",
                           "avg_sound_delay_s", "max_decomp_delay_s",
                           "n_failed", "n_unresolved"]
        run_rows = [r for r in rows[1:] if r[1] != "mean"]
        mean_rows = [r for r in rows[1:] if r[1] == "mean"]
        assert len(run_rows) == 12  # 3 coefficients x 4 seeds
        assert len(mean_rows) == 3
        assert [r[0] for r in mean_rows] == ["0.056", "0.12", "0.151"]

    def test_identical_across_worker_counts(self, cfg_file, tmp_path):
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        main(["sweep", "--config", str(cfg_file), "--c-list", "0.056,0.151",
              "--seeds", "3", "--out", str(seq), "--workers", "1"])
        main(["sweep", "--config", str(cfg_file), "--c-list", "0.056,0.151",
              "--seeds", "3", "--out", str(par), "--workers", "2"])
        assert seq.read_bytes() == par.read_bytes()

    @pytest.mark.parametrize("workers,seeds,cpus,pool_size", [
        (5000, 1, 8, None),  # one task: no pool at all
        (5000, 3, 8, 6),
        (6, 3, 8, 6),
        (4, 3, 8, 4),
        (5000, 3, 2, 2),  # capped at the usable CPUs
        (2, 3, 1, None),  # one CPU: no pool at all
    ])
    def test_pool_capped_at_task_count(self, cfg_file, tmp_path,
                                       monkeypatch, in_process_pool,
                                       workers, seeds, cpus, pool_size):
        sizes = in_process_pool.sizes
        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        c_list = "0.056" if seeds == 1 else "0.056,0.151"
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        main(["sweep", "--config", str(cfg_file), "--c-list", c_list,
              "--seeds", str(seeds), "--out", str(seq)])
        assert sizes == []
        assert main(["sweep", "--config", str(cfg_file), "--c-list", c_list,
                     "--seeds", str(seeds), "--out", str(par),
                     "--workers", str(workers)]) == 0
        assert sizes == ([] if pool_size is None else [pool_size])
        assert seq.read_bytes() == par.read_bytes()

    def test_tasks_interleave_coefficients(self, cfg_file, tmp_path,
                                           monkeypatch, in_process_pool):
        # runs in turbid water cost about twice those in clear water, so
        # every chunk a worker takes should mix the coefficients
        handed = in_process_pool.tasks
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        c_values = [0.151, 0.056, 0.12]
        assert main(["sweep", "--config", str(cfg_file),
                     "--c-list", ",".join(map(str, c_values)),
                     "--seeds", "2", "--out", str(tmp_path / "sweep.csv"),
                     "--workers", "2"]) == 0
        assert len(handed) == 6
        assert sorted(c0 for _, c0, _ in handed[:len(c_values)]) \
            == sorted(c_values)
        assert sorted((c0, seed) for _, c0, seed in handed) \
            == sorted((c0, seed) for c0 in c_values for seed in range(2))

    @pytest.mark.parametrize("cpu_count,usable", [(3, 3), (None, 1)])
    def test_usable_cpus_without_affinity(self, monkeypatch, cpu_count,
                                          usable):
        # platforms without sched_getaffinity fall back to the CPU count
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpu_count)
        assert cli._usable_cpus() == usable

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_exit_2(self, cfg_file, tmp_path, capsys,
                                        workers):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_file), "--c-list", "0.056",
                     "--seeds", "1", "--out", str(out),
                     "--workers", workers]) == 2
        assert capsys.readouterr().err \
            == f"error: --workers must be positive, got {workers}\n"
        assert not out.exists()

    def test_repeated_coefficient_exits_2(self, cfg_file, tmp_path, capsys):
        # compared by value: 0.12 and 0.120 are one coefficient
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_file),
                     "--c-list", "0.056,0.12,0.151,0.120", "--seeds", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --c-list repeats 0.12\n"
        assert not out.exists()

    @pytest.mark.parametrize("c_list", ["0.05,,0.12", "0.056,", " ,0.056",
                                        "0.056, ,0.151", ",", "", "  "])
    def test_empty_coefficient_exits_2(self, cfg_file, tmp_path, capsys,
                                       c_list):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg_file),
                     "--c-list", c_list, "--seeds", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err \
            == f"error: --c-list has an empty entry: '{c_list}'\n"
        assert not out.exists()

    def test_workers_return_lean_results(self, cfg_file):
        # a worker sends back what the parent reads: the CSV row, and for
        # aggregate the report with its config, less nodes and edges
        config = load_config(cfg_file)
        tasks = [(config, c0, seed) for c0 in (0.056, 0.151)
                 for seed in range(3)]
        full = [simulate(dataclasses.replace(config, c0=c0, seed=seed)).report
                for _, c0, seed in tasks]
        results = [cli._sweep_one(task) for task in tasks]
        assert [row for row, _ in results] == [csv_row(r) for r in full]
        lean = [report for _, report in results]
        assert lean == [dataclasses.replace(r, nodes=(), edges=())
                        for r in full]
        assert all(r.nodes and r.config for r in full)
        assert aggregate(lean) == aggregate(full)
        assert max(len(pickle.dumps(result)) for result in results) < 2000
        # the mixed-config check still sees each run's config
        other = cli._sweep_one(
            (dataclasses.replace(config, t_max_s=11.0), 0.056, 7))[1]
        with pytest.raises(ReportError, match="mixed configs"):
            aggregate(lean + [other])

    def test_rows_sorted_by_c0_then_seed(self, cfg_file, tmp_path):
        out = tmp_path / "sorted.csv"
        main(["sweep", "--config", str(cfg_file), "--c-list", "0.151,0.056",
              "--seeds", "3", "--out", str(out)])
        with out.open() as fh:
            rows = [r for r in csv.reader(fh)][1:]
        keys = [(float(r[0]), int(r[1])) for r in rows if r[1] != "mean"]
        assert keys == sorted(keys)


class TestTopoCommand:
    def test_json_and_dot(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(cfg_file), "--out", str(out)])
        capsys.readouterr()  # drop the run command's summary line
        assert main(["topo", "--report", str(out / "report.json"),
                     "--format", "json"]) == 0
        topo = json.loads(capsys.readouterr().out)
        assert topo == json.loads((out / "topology.json").read_text())
        assert main(["topo", "--report", str(out / "report.json"),
                     "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_missing_report_exits_2(self, tmp_path):
        assert main(["topo", "--report", str(tmp_path / "gone.json")]) == 2

    def test_corrupt_report_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["topo", "--report", str(bad)]) == 2

    @pytest.mark.parametrize("config", [[1], None, "x"])
    def test_non_object_config_exits_2(self, tmp_path, capsys, config):
        payload = json.loads(report_to_json(
            SimReport(0.056, 0, 0, 1.0, 0.0, 0.0, 0.0, 0, 0, 0, 0)))
        payload["config"] = config
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["topo", "--report", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_object_report_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('"x"')
        assert main(["topo", "--report", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
