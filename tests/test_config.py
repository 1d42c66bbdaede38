import ast
import math
import random
from dataclasses import fields
from pathlib import Path

import pytest

import uwoan.config
from uwoan.config import ConfigError, SimConfig, load_config, parse_config
from uwoan.engine import Simulation, run, simulate
from uwoan.geometry import Position
from uwoan.world import World


# modules that import SimConfig; config importing one would make a cycle
PROTOCOL_MODULES = ("base_station", "node", "engine", "world")


def imported_modules(source: str) -> list[str]:
    """The last dotted part of every module a source file imports."""
    found = []
    for stmt in ast.walk(ast.parse(source)):
        if isinstance(stmt, ast.Import):
            found += [alias.name for alias in stmt.names]
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is None:  # from . import x
                found += [alias.name for alias in stmt.names]
            else:
                found.append(stmt.module)
    return [name.rsplit(".", 1)[-1] for name in found]


def test_config_imports_no_protocol_module():
    source = Path(uwoan.config.__file__).read_text()
    bad = [m for m in imported_modules(source) if m in PROTOCOL_MODULES]
    assert bad == [], f"config.py imports {', '.join(bad)}"


def test_import_guard_sees_each_form():
    source = ("from .base_station import BsState\n"
              "from . import node\n"
              "import uwoan.engine\n"
              "from uwoan.world import World\n")
    assert imported_modules(source) \
        == ["base_station", "node", "engine", "world"]


class TestDefaults:
    def test_paper_scale_defaults(self):
        cfg = SimConfig()
        assert cfg.n_uwn == 50
        assert (cfg.region_east_m, cfg.region_north_m, cfg.region_depth_m) \
            == (200.0, 200.0, 200.0)
        assert cfg.t_max_s == 50.0
        assert cfg.c0 == 0.056
        assert cfg.bs_position().depth == 0.0
        assert cfg.bs_position().east == 100.0

    def test_derived_bundles(self):
        cfg = SimConfig()
        assert cfg.water_profile().sound_speed == 1500.0
        assert cfg.link_budget().divergence_half_angle \
            == pytest.approx(math.radians(1.0))
        assert cfg.depth_model().delta0 == 0.5

    def test_to_dict_round_trip(self):
        cfg = SimConfig(seed=9, c0=0.12)
        again = SimConfig(**cfg.to_dict())
        assert again == cfg


class TestParsing:
    def test_full_file(self, tmp_path):
        text = """
        # paper scenario, murkier water
        n_uwn = 25
        c0 = 0.151            # turbid harbor
        t_max_s = 30
        match_on_motion_marker = false
        seed = 17
        """
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.n_uwn == 25
        assert cfg.c0 == 0.151
        assert cfg.t_max_s == 30.0
        assert cfg.match_on_motion_marker is False
        assert cfg.seed == 17
        assert cfg.v_max_mps == 0.5  # untouched default

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'n_uwns'"):
            parse_config("n_uwns = 3")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("seed = 1\nseed = 2")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("seed 5")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config("n_uwn = 5.5")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="expected true/false"):
            parse_config("match_on_motion_marker = maybe")

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        with pytest.raises(ConfigError, match="nope.cfg"):
            load_config(missing)


class TestValidation:
    @pytest.mark.parametrize("kwargs,needle", [
        (dict(n_uwn=-1), "n_uwn"),
        (dict(region_depth_m=0.0), "region_depth_m"),
        (dict(bs_east_m=500.0), "bs_east_m"),
        (dict(c0=0.0), "c0"),
        (dict(c0=0.05, gamma=-0.001), "gamma"),
        (dict(p_frame_loss=1.5), "p_frame_loss"),
        (dict(v_min_mps=0.6, v_max_mps=0.5), "v_min"),
        (dict(move_duration_min_s=0.0), "move_duration"),
        (dict(t_max_s=-1.0), "t_max_s"),
        (dict(direct_retries=0), "direct_retries"),
        (dict(divergence_half_angle_deg=90.0), "divergence"),
        (dict(rx_fov_half_angle_deg=91.0), "rx_fov"),
        (dict(superframe_period_s=0.0), "superframe_period_s"),
        (dict(c0=math.nan), "c0 must be finite"),
        (dict(region_east_m=math.inf), "region_east_m must be finite"),
        (dict(current_north_mps=-math.inf), "current_north_mps must be finite"),
        (dict(depth_resolution_surface_m=0.001,
              depth_resolution_gradient=0.0), "depth code"),
        (dict(t_max_s=1e10), "frame_seq"),
        (dict(region_east_m=1e300), "squared diagonal"),
        (dict(region_north_m=1e154, region_depth_m=1e154), "squared diagonal"),
        # pings come once a period from t = 0, even with no frame before
        # t_max_s, so the frame bound alone admitted this
        (dict(superframe_period_s=1e-300, t_max_s=1e-9,
              first_superframe_offset_s=1e6, n_uwn=5), "sonar pings"),
        (dict(t_max_s=2.0**32 + 1.0, first_superframe_offset_s=2.0),
         "sonar pings"),
        (dict(move_duration_min_s=1e-9, move_duration_max_s=1e-9),
         "move_duration_max_s"),
        (dict(move_duration_min_s=1e-300, move_duration_max_s=1e-300),
         "move_duration_max_s"),
    ])
    def test_rejects(self, kwargs, needle):
        with pytest.raises(ConfigError, match=needle):
            SimConfig(**kwargs)

    def test_superframe_count_message_is_short(self):
        # the count is printed like the ping and movement counts, not as
        # the hundreds of digits of an integer-formatted 5e301
        cfg = SimConfig()
        frames = (cfg.t_max_s - cfg.first_superframe_offset_s) / 1e-300
        with pytest.raises(ConfigError, match="frame_seq") as caught:
            SimConfig(superframe_period_s=1e-300)
        message = str(caught.value)
        assert f"spans {frames:.4g} superframes" in message
        assert len(message) < 200

    def test_limits_are_inclusive(self):
        # 200 m at a 0.0125 m resolution is code 16000, within 14 bits
        SimConfig(depth_resolution_surface_m=0.0125,
                  depth_resolution_gradient=0.0)
        SimConfig(t_max_s=2.0**32 - 1 + 0.1)

    def test_movement_limit_is_inclusive(self):
        # 50 / 2**32 is exact, so t_max_s spans exactly 2**32 intervals
        SimConfig(move_duration_min_s=1e-9, move_duration_max_s=50.0 / 2**32)
        with pytest.raises(ConfigError, match="move_duration_max_s"):
            SimConfig(move_duration_min_s=1e-9,
                      move_duration_max_s=math.nextafter(50.0 / 2**32, 0.0))

    def test_tiny_minimum_duration_still_runs(self):
        # durations are uniform on [min, max]: only the maximum is bounded
        cfg = SimConfig(move_duration_min_s=1e-9, n_uwn=20, t_max_s=20.0)
        rng = random.Random(3)
        positions = [Position(rng.uniform(60.0, 140.0),
                              rng.uniform(60.0, 140.0), 100.0)
                     for _ in range(cfg.n_uwn)]
        world = World(cfg.bs_position(), positions, (200.0, 200.0, 200.0))
        rep = Simulation(cfg, seed=3, world=world).run()
        assert rep.n_accessed + rep.n_failed + rep.n_dormant \
            + rep.n_unresolved == 20

    def test_stationary_draw_allowed(self):
        # v_min = 0 models nodes that may hold station during a draw
        cfg = SimConfig(v_min_mps=0.0)
        assert cfg.v_min_mps == 0.0


class TestConfigFuzz:
    FLOATS = (0.0, -1.0, 1e-300, 1e-9, 1e-3, 0.5, 1.0, 2.0, 100.0, 1e6,
              1e300, math.inf)
    INTS = (0, -1, 1, 2, 60, 2**31)
    N_UWN = (-1, 0, 1, 2, 60)  # capped: run cost grows with the node count

    def draw(self, rng):
        overrides = {}
        for f in rng.sample(fields(SimConfig), rng.randint(1, 8)):
            if f.name == "n_uwn":
                overrides[f.name] = rng.choice(self.N_UWN)
            elif f.type == "bool":
                overrides[f.name] = rng.choice((True, False))
            elif f.type == "int":
                overrides[f.name] = rng.choice(self.INTS)
            else:
                overrides[f.name] = rng.choice(self.FLOATS)
        return overrides

    def test_valid_configs_run_clean(self):
        # a config either fails validation or runs to a consistent report,
        # the same with and without the trace (and so without any of the
        # untraced shortcuts); any other exception fails the test
        rng = random.Random(2109)
        rejected = ran = 0
        for _ in range(200):
            overrides = self.draw(rng)
            try:
                cfg = SimConfig(**overrides)
            except ConfigError:
                rejected += 1
                continue
            # validation admits up to 2**32 periods, which can take days;
            # pings come once a period from t = 0, so cap the periods
            if cfg.t_max_s / cfg.superframe_period_s > 60:
                continue
            rep = run(cfg)
            counts = (rep.n_accessed, rep.n_failed, rep.n_dormant,
                      rep.n_unresolved)
            assert sum(counts) == cfg.n_uwn, overrides
            assert 0.0 <= rep.access_rate <= 1.0, overrides
            assert 0.0 <= rep.dual_hop_rate <= 1.0, overrides
            assert rep == simulate(cfg, collect_trace=True).report, overrides
            ran += 1
        assert rejected >= 100 and ran >= 30  # neither side is vacuous
