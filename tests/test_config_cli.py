import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from clawlab import svgplot
from clawlab.cli import _run_flux, main
from clawlab.config import PAIR_KINDS, load_config, parse_config
from clawlab.errors import ConfigError
from clawlab.grids import load_field

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL_CONTRACTION = """
[flux]
name = burgers1d

[initial_data]
kind = box
height = 1.0
lo = -0.5
hi = 0.0

[initial_data2]
kind = box
height = 1.0
lo = -0.4
hi = 0.1

[grid]
lo = -3.0
hi = 3.0
nx = 600
dim = 1
t_end = 1.0
store_every = 10

[scheme]
kind = rusanov
cfl = 0.9
boundary = outflow

[output]
dir = out

[checks]
tasks = cone, glob

[check.cone]
kind = cone_contraction
r = 2.0

[check.glob]
kind = global_contraction
r_list = 1, 2, 4, 8
"""


# entropy-sweep keys that leave a pair that cannot run, or no pair at all,
# with a word of the error each must print
_BAD_PAIR_SETS = [(["smooth_n=0"], ">= 1"), (["smooth_n=-4"], ">= 1"),
                  (["k0_count=-1"], ">= 0"),
                  (["k0_count=0", "smooth_n="], "no entropy pair")]
_BAD_PAIR_IDS = ["smooth_n_zero", "smooth_n_negative", "k0_count_negative",
                 "no_pair"]

# test-function widths that are not positive, or NaN, and check values
# that would pass a check whatever the data, on the bundled runs:
# (run, check kind, --set keys, a word of the error each must print)
_BAD_WINDOW_CASES = [
    ("burgers_contraction", "kato", ["r=2.0", "h=-0.05"], "h must be positive"),
    ("burgers_contraction", "kato", ["r=2.0", "h=0"], "h must be positive"),
    ("burgers_contraction", "kato", ["r=2.0", "h=nan"], "h must be positive"),
    ("burgers_contraction", "kato", ["r=2.0", "eps=nan"],
     "eps must be positive"),
    ("entropy_burgers", "entropy_inequality", ["phi_radius=nan"],
     "radius > 0"),
    ("burgers_contraction", "cone_contraction", ["r=2.0", "c_cal=inf"],
     ">= 0"),
    ("burgers_contraction", "global_contraction", ["r_list=1, 2", "c_cal=nan"],
     ">= 0"),
    ("burgers_contraction", "kato", ["r=2.0", "c_tol=inf"], ">= 0"),
    ("burgers_contraction", "kato", ["r=2.0", "c_tol=-0.5"], ">= 0"),
    ("entropy_burgers", "entropy_inequality", ["c_tol=inf"], ">= 0"),
    ("entropy_burgers", "entropy_inequality", ["phi_center=nan"], "finite"),
]
_BAD_WINDOW_IDS = ["kato_h_negative", "kato_h_zero", "kato_h_nan",
                   "kato_eps_nan", "entropy_radius_nan", "cone_c_cal_inf",
                   "global_c_cal_nan", "kato_c_tol_inf", "kato_c_tol_negative",
                   "entropy_c_tol_inf", "entropy_phi_center_nan"]

# check values that would pass a check whatever the data, or crash it, in
# a bundled config: (config, line, its replacement, a word of the error)
_BAD_CHECK_VALUES = {
    "cone_c_cal_inf": ("burgers_contraction", "kind = cone_contraction\n",
                       "kind = cone_contraction\nc_cal = inf\n", ">= 0"),
    "cone_c_cal_negative": ("burgers_contraction",
                            "kind = cone_contraction\n",
                            "kind = cone_contraction\nc_cal = -1\n", ">= 0"),
    "global_c_cal_nan": ("burgers_contraction", "kind = global_contraction\n",
                         "kind = global_contraction\nc_cal = nan\n", ">= 0"),
    "kato_c_tol_inf": ("burgers_contraction", "kind = kato\n",
                       "kind = kato\nc_tol = inf\n", ">= 0"),
    "entropy_c_tol_nan": ("entropy_burgers", "phi_center = 0.0\n",
                          "phi_center = 0.0\nc_tol = nan\n", ">= 0"),
    "phi_center_nan": ("entropy_burgers", "phi_center = 0.0\n",
                       "phi_center = nan\n", "finite"),
    "t_sample_nan": ("entropy_burgers", "t_sample = 0.2\n",
                     "t_sample = nan\n", "finite"),
    "points_zero": ("entropy_burgers", "points = 6\n", "points = 0\n",
                    "at least one sample"),
    "eps_list_zero": ("entropy_burgers", "eps_list = 0.1, 0.05, 0.025\n",
                      "eps_list = 0.1, 0.05, 0\n", "finite and > 0"),
    "eps_list_empty": ("entropy_burgers", "eps_list = 0.1, 0.05, 0.025\n",
                       "eps_list = \n", "finite and > 0"),
    "center_nan": ("uniqueness_burgers", "min_ratio = 1.5\n",
                   "min_ratio = 1.5\ncenter = nan\n", "finite"),
    "min_ratio_nan": ("uniqueness_burgers", "min_ratio = 1.5\n",
                      "min_ratio = nan\n", ">= 1"),
    "min_ratio_zero": ("uniqueness_burgers", "min_ratio = 1.5\n",
                       "min_ratio = 0\n", ">= 1"),
    "radius_negative": ("uniqueness_burgers", "min_ratio = 1.5\n",
                        "min_ratio = 1.5\nradius = -1\n", "finite and > 0"),
    "cfl_above_one": ("uniqueness_burgers", "cfl_list = 0.9, 0.45\n",
                      "cfl_list = 1.5, 0.45\n", "(0, 1]"),
    "viscous_coeff_nan": ("uniqueness_burgers", "viscous_coeff = 2.0\n",
                          "viscous_coeff = nan\n", ">= 0"),
    "single_variant": ("uniqueness_burgers",
                       "cfl_list = 0.9, 0.45\nviscous_coeff = 2.0\n",
                       "cfl_list = 0.9\nviscous_coeff = 0\n", "variant"),
    "equal_variants": ("uniqueness_burgers",
                       "cfl_list = 0.9, 0.45\nviscous_coeff = 2.0\n",
                       "cfl_list = 0.9, 0.9\nviscous_coeff = 0\n", "variant"),
}


def _set_args(params: dict) -> list:
    """``--set`` arguments that carry a check's parsed keys."""
    out = []
    for key, val in params.items():
        vals = val if isinstance(val, list) else [val]
        out += ["--set", f"{key}=" + ",".join(format(x, ".17g") for x in vals)]
    return out


def _drop_section(text: str, name: str) -> str:
    """``text`` without its [name] section, up to the next blank line."""
    return re.sub(rf"\[{re.escape(name)}\]\n(.+\n)*", "", text)


# config refusals, each on SMALL_CONTRACTION: (edit of the text, a match of
# the error it must raise)
_CONFIG_REFUSALS = {
    "empty_section_name": (lambda t: t.replace("[output]", "[ ]"),
                           r"line \d+: empty section name"),
    "duplicate_section": (lambda t: t + "\n[grid]\nlo = 1.0\n",
                          r"line \d+: duplicate section \[grid\]"),
    "key_outside_section": (lambda t: "seed = 1\n" + t,
                            "line 1: key outside any section"),
    "unknown_initial_kind": (lambda t: t.replace("kind = box", "kind = wave", 1),
                             r"\[initial_data\] unknown kind 'wave'"),
    "initial_kind_missing_key": (lambda t: t.replace("hi = 0.0\n", ""),
                                 r"\[initial_data\] .*missing.*'hi'"),
    **{f"missing_{name}": (lambda t, name=name: _drop_section(t, name),
                           rf"missing \[{name}\] section")
       for name in ("flux", "initial_data", "grid", "scheme", "output")},
    "task_without_section": (lambda t: _drop_section(t, "check.glob"),
                             r"task 'glob' has no \[check\.glob\] section"),
    "unlisted_check_section": (
        lambda t: t.replace("tasks = cone, glob", "tasks = cone"),
        r"section \[check\.glob\] is not listed in \[checks\] tasks"),
    "duplicate_task": (
        lambda t: t.replace("tasks = cone, glob", "tasks = cone, glob, cone"),
        r"\[checks\] task 'cone' is listed more than once"),
}


# an x-dependent 2-d flux whose solver bound M exceeds max|u| over the
# stored levels (store_every = 10), so a field that loses M on disk shows
PRODUCT_2D = """
[flux]
name = product2d

[initial_data]
kind = box
height = 1.0
lo = -0.5
hi = 0.0

[initial_data2]
kind = box
height = 1.0
lo = -0.4
hi = 0.1

[grid]
lo = -3.0
hi = 3.0
nx = 80
dim = 2
t_end = 0.5
store_every = 10

[scheme]
kind = rusanov
cfl = 0.9
boundary = outflow

[output]
dir = product2d

[checks]
tasks = cone, kato

[check.cone]
kind = cone_contraction
r = 2.0

[check.kato]
kind = kato
r = 2.0
"""


# 20 steps of t_end / 20 land one ulp past t_end, so an entropy window
# taken from t_end instead of the stored times moves the report
LAST_LEVEL_OFF_T_END = """
[flux]
name = burgers1d

[initial_data]
kind = sine
amp = 0.3
freq = 1.0
offset = 0.5

[grid]
lo = -1.0
hi = 1.0
nx = 200
dim = 1
t_end = 0.2185
store_every = 1

[scheme]
kind = rusanov
cfl = 0.9
boundary = periodic

[output]
dir = last_level_off_t_end

[checks]
tasks = entropy

[check.entropy]
kind = entropy_inequality
"""


@pytest.fixture(scope="module")
def bundled_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundled")
    (root / "product2d.cfg").write_text(PRODUCT_2D)
    (root / "off_t_end.cfg").write_text(LAST_LEVEL_OFF_T_END)
    runs = {}
    for name, path in (("entropy_burgers", CONFIGS / "entropy_burgers.cfg"),
                       ("burgers_contraction",
                        CONFIGS / "burgers_contraction.cfg"),
                       ("product2d", root / "product2d.cfg"),
                       ("off_t_end", root / "off_t_end.cfg")):
        cfg = load_config(path)
        assert main(["run", str(path), "--out", str(root / name)]) == 0
        runs[name] = (cfg, root / name)
    return runs


@pytest.fixture(params=["missing", "empty_dir", "not_a_slab", "cut_short"])
def unreadable_field(request, bundled_runs, tmp_path):
    """(path, the file its error names, defect) of a field that cannot be
    read as a slab file."""
    _, outdir = bundled_runs["burgers_contraction"]
    if request.param == "missing":
        return tmp_path / "nowhere", tmp_path / "nowhere", "No such file"
    if request.param == "empty_dir":
        (tmp_path / "empty").mkdir()
        return (tmp_path / "empty", tmp_path / "empty" / "field.slab",
                "No such file")
    if request.param == "not_a_slab":
        return outdir / "config.cfg", outdir / "config.cfg", "not a slab file"
    slab = outdir / "u_slabs" / "field.slab"
    cut = tmp_path / "cut.slab"
    cut.write_bytes(slab.read_bytes()[:-8])
    return cut, cut, f"{len(slab.read_bytes()) - 8} bytes, expected"


class TestConfigParsing:
    def test_roundtrip_lossless(self):
        cfg = parse_config(SMALL_CONTRACTION)
        text = cfg.to_text()
        again = parse_config(text)
        assert again == cfg
        assert again.to_text() == text

    def test_unknown_key_named(self):
        bad = SMALL_CONTRACTION.replace("[flux]\nname = burgers1d",
                                        "[flux]\nname = burgers1d\nfluxx = 2")
        with pytest.raises(ConfigError, match="fluxx"):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(SMALL_CONTRACTION + "\n[mystery]\na = 1\n")

    def test_unknown_flux_rejected(self):
        with pytest.raises(ConfigError, match="nope"):
            parse_config(SMALL_CONTRACTION.replace("name = burgers1d",
                                                   "name = nope"))

    def test_missing_grid_key(self):
        with pytest.raises(ConfigError, match="nx"):
            parse_config(SMALL_CONTRACTION.replace("nx = 600\n", ""))

    def test_pair_check_requires_second_data(self):
        text = SMALL_CONTRACTION.replace(
            "[initial_data2]\nkind = box\nheight = 1.0\nlo = -0.4\nhi = 0.1\n",
            "")
        with pytest.raises(ConfigError, match="initial_data2"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(SMALL_CONTRACTION.replace(
                "cfl = 0.9", "cfl = 0.9\ncfl = 0.5"))

    def test_line_numbers_in_errors(self):
        bad = "[flux]\nname = burgers1d\nbroken_line_without_equals\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(bad)

    def test_godunov_only_for_burgers1d(self):
        text = SMALL_CONTRACTION.replace("kind = rusanov",
                                         "kind = godunov_burgers")
        assert parse_config(text).grid.scheme == "godunov_burgers"
        with pytest.raises(ConfigError, match="godunov_burgers"):
            parse_config(text.replace("[flux]\nname = burgers1d",
                                      "[flux]\nname = burgers2d")
                         .replace("dim = 1", "dim = 2"))
        with pytest.raises(ConfigError, match="godunov_burgers"):
            parse_config(text.replace("[flux]\nname = burgers1d",
                                      "[flux]\nname = product1d"))

    @pytest.mark.parametrize("section,key", [
        ("[check.cone]\nkind = cone_contraction\nr = 2.0",
         "[check.cone]\nkind = cone_contraction"),
        ("[check.glob]\nkind = global_contraction\nr_list = 1, 2, 4, 8",
         "[check.glob]\nkind = global_contraction\nc_cal = 1.0"),
        ("[check.cone]\nkind = cone_contraction\nr = 2.0",
         "[check.cone]\nkind = kato\nrho = 0.25"),
    ], ids=["cone", "glob", "kato"])
    def test_required_check_key_refused(self, tmp_path, section, key):
        text = SMALL_CONTRACTION.replace(section, key).replace(
            "dir = out", f"dir = {tmp_path / 'out'}")
        name = key.split("]")[0][len("[check."):]
        needed = "r_list" if name == "glob" else "r"
        with pytest.raises(ConfigError,
                           match=rf"\[check\.{name}\] missing .*'{needed}'"):
            parse_config(text)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old,new,match", [
        ("store_every = 10", "store_every = 0", "store_every"),
        ("cfl = 0.9", "cfl = 1.5", "cfl"),
        ("kind = rusanov", "kind = viscous", "viscosity"),
        # a viscosity the scheme would ignore, or one no run can take
        ("boundary = outflow", "boundary = outflow\nviscosity = 0.5",
         "rusanov scheme needs viscosity = 0"),
        ("kind = rusanov", "kind = godunov_burgers\nviscosity = 1e-3",
         "godunov_burgers scheme needs viscosity = 0"),
        ("kind = rusanov", "kind = viscous\nviscosity = nan", "finite and > 0"),
        ("kind = rusanov", "kind = viscous\nviscosity = inf", "finite and > 0"),
        ("kind = rusanov", "kind = viscous\nviscosity = -0.5", "finite and > 0"),
        # a scheme or boundary the solver does not know, named
        ("kind = rusanov", "kind = upwind", "'upwind'"),
        ("boundary = outflow", "boundary = reflecting", "'reflecting'"),
    ], ids=["store_every", "cfl", "viscous", "rusanov_viscosity",
            "godunov_viscosity", "viscous_nan", "viscous_inf",
            "viscous_negative", "unknown_kind", "unknown_boundary"])
    def test_bad_scheme_value_refused_before_output(self, tmp_path, old, new,
                                                    match):
        text = SMALL_CONTRACTION.replace(old, new).replace(
            "dir = out", f"dir = {tmp_path / 'out'}")
        with pytest.raises(ConfigError, match=match):
            parse_config(text)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old,new,match", [
        ("t_end = 1.0", "t_end = nan", "finite"),
        ("t_end = 1.0", "t_end = inf", "finite"),
        ("t_end = 1.0", "t_end = 0", "t_end > 0"),
        ("t_end = 1.0", "t_end = -0.5", "t_end > 0"),
        ("lo = -3.0", "lo = -inf", "finite"),
        ("hi = 3.0", "hi = -3.0", "hi > lo"),
        ("nx = 600", "nx = 0", "nx >= 1"),
        ("dim = 1", "dim = 3", "dim = 3"),
    ], ids=["t_end_nan", "t_end_inf", "t_end_zero", "t_end_negative",
            "lo_inf", "hi_below_lo", "nx_zero", "dim_3"])
    def test_bad_grid_value_refused_before_output(self, tmp_path, old, new,
                                                  match):
        text = SMALL_CONTRACTION.replace(old, new).replace(
            "dir = out", f"dir = {tmp_path / 'out'}")
        with pytest.raises(ConfigError, match=match):
            parse_config(text)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old,new", [
        ("r = 2.0", "r = 0"), ("r = 2.0", "r = -1"), ("r = 2.0", "r = inf"),
        ("r = 2.0", "r = nan"), ("r_list = 1, 2, 4, 8", "r_list = 1, inf"),
        ("r_list = 1, 2, 4, 8", "r_list = 1, nan"),
        ("r_list = 1, 2, 4, 8", "r_list = 1, 0"),
        ("r_list = 1, 2, 4, 8", "r_list = ,"),
    ], ids=["r_zero", "r_negative", "r_inf", "r_nan", "r_list_inf",
            "r_list_nan", "r_list_zero", "r_list_empty"])
    def test_bad_radius_refused_before_output(self, tmp_path, old, new):
        text = SMALL_CONTRACTION.replace(old, new).replace(
            "dir = out", f"dir = {tmp_path / 'out'}")
        with pytest.raises(ConfigError, match="finite and > 0"):
            parse_config(text)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flux,dim", [("burgers2d", 1), ("product2d", 1),
                                          ("burgers1d", 2)])
    def test_flux_dim_mismatch_refused_before_output(self, tmp_path, flux,
                                                     dim):
        text = (SMALL_CONTRACTION
                .replace("[flux]\nname = burgers1d", f"[flux]\nname = {flux}")
                .replace("dim = 1", f"dim = {dim}")
                .replace("dir = out", f"dir = {tmp_path / 'out'}"))
        with pytest.raises(ConfigError, match=rf"{flux} is \d-d .* dim = {dim}"):
            parse_config(text)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_bundled_configs_parse(self):
        for name in ("burgers_contraction.cfg", "uniqueness_burgers.cfg",
                     "entropy_burgers.cfg"):
            cfg = load_config(CONFIGS / name)
            assert cfg.grid.nx > 0

    def test_flux_params_addressable(self):
        text = SMALL_CONTRACTION.replace(
            "[flux]\nname = burgers1d",
            "[flux]\nname = advection1d\nc = 3.0")
        cfg = parse_config(text)
        assert cfg.flux_params == {"c": 3.0}
        with pytest.raises(ConfigError, match="speed"):
            parse_config(SMALL_CONTRACTION.replace(
                "[flux]\nname = burgers1d",
                "[flux]\nname = advection1d\nspeed = 3.0"))

    def test_riemann_x0_optional(self):
        text = (CONFIGS / "uniqueness_burgers.cfg").read_text()
        cfg = parse_config(text.replace("x0 = 0.0\n", ""))
        vals = cfg.initial_data(np.array([[-0.1], [0.1]]))
        assert vals.tolist() == [1.0, 0.0]

    def test_bundled_configs_roundtrip(self):
        for name in ("burgers_contraction.cfg", "uniqueness_burgers.cfg",
                     "entropy_burgers.cfg"):
            cfg = load_config(CONFIGS / name)
            assert parse_config(cfg.to_text()) == cfg

    @pytest.mark.parametrize("case", list(_CONFIG_REFUSALS))
    def test_config_refused(self, tmp_path, case):
        edit, match = _CONFIG_REFUSALS[case]
        text = edit(SMALL_CONTRACTION.replace(
            "dir = out", f"dir = {tmp_path / 'out'}"))
        with pytest.raises(ConfigError, match=match):
            parse_config(text)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("nx = 1200", "nxx = 1200", "line 22: unknown key 'nxx' in [grid]"),
        ("[grid]", "[grdi]", "unknown section [grdi]"),
    ], ids=["key", "section"])
    def test_typo_named_before_missing(self, tmp_path, capsys, old, new,
                                       message):
        # a typo'd key or section is reported as itself, not as the key or
        # section it leaves missing
        text = (CONFIGS / "burgers_contraction.cfg").read_text()
        assert old in text
        text = text.replace(old, new)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text)
        cfg_path = tmp_path / "typo.cfg"
        cfg_path.write_text(text)
        capsys.readouterr()
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestCliRun:
    def run_small(self, tmp_path, name="run1", extra=()):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_CONTRACTION.replace(
            "dir = out", f"dir = {tmp_path / name}"))
        return main(["run", str(cfg_path), *extra]), tmp_path / name

    def test_run_produces_artifacts(self, tmp_path):
        code, outdir = self.run_small(tmp_path)
        assert code == 0
        for expected in ("config.cfg", "summary.txt", "summary.csv",
                         "u_slabs", "v_slabs", "report_cone.json",
                         "report_glob.json", "profile_cone.csv",
                         "u_snapshots.svg"):
            assert (outdir / expected).exists(), expected
        assert not (outdir / "u.csv").exists()
        assert not (outdir / "v.csv").exists()
        assert not (outdir / "FAILED").exists()
        profile = (outdir / "profile_cone.csv").read_text().splitlines()
        assert profile[0] == "t,radius,l1_mass"
        masses = [float(r.split(",")[2]) for r in profile[1:]]
        rep = json.loads((outdir / "report_cone.json").read_text())
        tol = rep["tolerance"]
        assert all(b <= a + tol for a, b in zip(masses, masses[1:]))

    def test_refuses_overwrite_without_force(self, tmp_path):
        code, outdir = self.run_small(tmp_path)
        assert code == 0
        cfg_path = tmp_path / "exp.cfg"
        assert main(["run", str(cfg_path)]) == 2
        assert main(["run", str(cfg_path), "--force"]) == 0

    def test_determinism_bitwise(self, tmp_path):
        _, out1 = self.run_small(tmp_path, name="a")
        cfg_path = tmp_path / "exp2.cfg"
        cfg_path.write_text(SMALL_CONTRACTION.replace(
            "dir = out", f"dir = {tmp_path / 'b'}"))
        assert main(["run", str(cfg_path)]) == 0
        slabs = sorted(p.relative_to(out1)
                       for p in out1.glob("[uv]_slabs/*.slab"))
        for name in ("u_slabs", "v_slabs"):
            assert len(load_field(out1 / name).times) > 2
        assert slabs == sorted(p.relative_to(tmp_path / "b") for p in
                               (tmp_path / "b").glob("[uv]_slabs/*.slab"))
        for rel in [*slabs, "profile_cone.csv", "summary.csv"]:
            assert (out1 / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    def test_failed_marker_on_error(self, tmp_path):
        # cone radius far beyond the domain: lipschitz fine but the first
        # usable level check dies on the empty cone? use a kato support
        # violation instead: rho/tau beyond stored horizon
        text = SMALL_CONTRACTION.replace(
            "tasks = cone, glob", "tasks = kato_bad").replace(
            "[check.cone]\nkind = cone_contraction\nr = 2.0",
            "[check.kato_bad]\nkind = kato\nr = 2.0\nrho = 1.5\n"
            "tau = 1.8\nh = 0.1\neps = 0.2").replace(
            "[check.glob]\nkind = global_contraction\nr_list = 1, 2, 4, 8",
            "")
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text.replace("dir = out", f"dir = {tmp_path / 'bad'}"))
        assert main(["run", str(cfg_path)]) == 2
        assert (tmp_path / "bad" / "FAILED").exists()

    def test_two_dimensional_run(self, tmp_path):
        text = "\n".join([
            "[flux]", "name = burgers2d", "",
            "[initial_data]", "kind = box", "height = 1.0", "lo = -0.3",
            "hi = 0.1", "",
            "[initial_data2]", "kind = box", "height = 1.0", "lo = -0.2",
            "hi = 0.2", "",
            "[grid]", "lo = -2.0", "hi = 2.0", "nx = 48", "dim = 2",
            "t_end = 0.4", "store_every = 8", "",
            "[scheme]", "kind = rusanov", "cfl = 0.9",
            "boundary = outflow", "",
            "[output]", f"dir = {tmp_path / 'run2d'}", "",
            "[checks]", "tasks = cone", "",
            "[check.cone]", "kind = cone_contraction", "r = 1.5", "",
        ])
        cfg_path = tmp_path / "two_d.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "run2d" / "report_cone.json").read_text())
        assert rep["passed"] is True
        assert (tmp_path / "run2d" / "u_slabs").is_dir()
        assert not (tmp_path / "run2d" / "u.csv").exists()

    def test_two_dimensional_entropy_check(self, tmp_path):
        # the default sweep adds smooth pairs n = 4, 16, 64 to the Kruzkov
        # pairs; all of them run on 2-d fields
        text = "\n".join([
            "[flux]", "name = product2d", "",
            "[initial_data]", "kind = box", "height = 1.0", "lo = -0.3",
            "hi = 0.1", "",
            "[grid]", "lo = -2.0", "hi = 2.0", "nx = 40", "dim = 2",
            "t_end = 0.4", "store_every = 2", "",
            "[scheme]", "kind = rusanov", "cfl = 0.9",
            "boundary = outflow", "",
            "[output]", f"dir = {tmp_path / 'ent2d'}", "",
            "[checks]", "tasks = ent", "",
            "[check.ent]", "kind = entropy_inequality", "phi_radius = 1.0",
            "",
        ])
        cfg_path = tmp_path / "ent2d.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 0
        out = tmp_path / "ent2d"
        assert not (out / "FAILED").exists()
        rep = json.loads((out / "report_ent.json").read_text())
        assert rep["passed"] is True
        labels = [r["pair"] for r in rep["metadata"]["sweep"]]
        assert len(labels) == 12
        assert sum(label.startswith("smooth") for label in labels) == 3

    def test_env_var_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLAWLAB_OUT", str(tmp_path / "root"))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_CONTRACTION)  # relative dir = out
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "root" / "out" / "summary.txt").exists()


class TestCliOther:
    def test_catalog_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "burgers1d" in out and "xsquared1d" in out

    def test_verify_on_stored_fields(self, tmp_path, capsys):
        code, outdir = TestCliRun().run_small(tmp_path)
        assert code == 0
        capsys.readouterr()   # drain the run output
        code = main(["verify", str(outdir / "u_slabs"), str(outdir / "v_slabs"),
                     "--check", "cone_contraction", "--flux", "burgers1d",
                     "--set", "r=2.0"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["kind"] == "cone_contraction"
        assert rep["passed"] is True

    def test_bundled_uniqueness_run_passes(self, tmp_path):
        text = (CONFIGS / "uniqueness_burgers.cfg").read_text()
        text = text.replace("nx = 250", "nx = 120").replace(
            "dir = runs/uniqueness_burgers", f"dir = {tmp_path / 'uniq'}")
        cfg_path = tmp_path / "uniq.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "uniq" / "report_uniq.json").read_text())
        assert rep["passed"] is True
        assert all(r >= 1.5 for r in rep["metadata"]["ratios"])

    @staticmethod
    def refuse_uniqueness_ball(tmp_path, capsys, ball):
        """Run a copy of the bundled uniqueness config on sine data (no
        oracle) with the ``ball`` keys; expect exit 2 and no run directory,
        and return the error line."""
        text = (CONFIGS / "uniqueness_burgers.cfg").read_text()
        text = text.replace(
            "kind = riemann\nul = 1.0\nur = 0.0\nx0 = 0.0",
            "kind = sine\namp = 0.3\nfreq = 1.0\noffset = 0.5").replace(
            "nx = 250", "nx = 120").replace(
            "min_ratio = 1.5", f"min_ratio = 1.5\n{ball}").replace(
            "dir = runs/uniqueness_burgers", f"dir = {tmp_path / 'uniq'}")
        cfg_path = tmp_path / "uniq.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 2
        assert not (tmp_path / "uniq").exists()
        return capsys.readouterr().err

    def test_uniqueness_ball_outside_domain_refused(self, tmp_path, capsys):
        # a ball that misses [-1, 1.5]: distances over no cell would pass
        # the check with ratios inf; the config is refused before anything
        # is solved or written
        err = self.refuse_uniqueness_ball(tmp_path, capsys, "center = 5.0")
        assert err.startswith("error: [check.uniq] the ball of radius 0.625 "
                              "about 5.0 holds no cell centre of [-1.0, 1.5] "
                              "at nx = 120")

    def test_uniqueness_ball_empty_on_refined_grid_refused(self, tmp_path,
                                                           capsys):
        # the first cell's centre alone: the check's second level, the
        # refined grid, has no centre there
        err = self.refuse_uniqueness_ball(
            tmp_path, capsys, "center = -0.9895833333333334\nradius = 0.001")
        assert err.startswith("error: [check.uniq] the ball of radius 0.001 "
                              "about -0.9895833333333334 holds no cell centre "
                              "of [-1.0, 1.5] at nx = 240")

    def test_cone_ball_outside_domain_refused(self, tmp_path, capsys):
        # B_2(0) misses the grid [2.5, 8.5]: refused before anything is
        # solved or written
        text = (CONFIGS / "burgers_contraction.cfg").read_text()
        text = text.replace(
            "lo = -3.0\nhi = 3.0", "lo = 2.5\nhi = 8.5").replace(
            "tasks = cone, glob, kato", "tasks = cone").replace(
            "dir = runs/burgers_contraction", f"dir = {tmp_path / 'cone'}")
        assert "lo = 2.5\nhi = 8.5" in text
        cfg_path = tmp_path / "cone.cfg"
        cfg_path.write_text(text.split("[check.glob]")[0])
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [check.cone] the ball of radius 2 "
                              "about 0.0 holds no cell centre of [2.5, 8.5] "
                              "at nx = 1200")
        assert not (tmp_path / "cone").exists()

    def test_reports_are_standard_json(self, bundled_runs, tmp_path):
        # a float that is not finite is written as a string that float()
        # reads back, never as the non-standard tokens NaN or Infinity
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        _, outdir = bundled_runs["entropy_burgers"]
        rep = json.loads((outdir / "report_doubling.json").read_text(),
                         parse_constant=refuse)
        assert rep["tolerance"] == "NaN"
        # constant data: every variant's distance is 0, under the floor,
        # so every ratio is infinite
        text = (CONFIGS / "uniqueness_burgers.cfg").read_text()
        text = text.replace(
            "kind = riemann\nul = 1.0\nur = 0.0\nx0 = 0.0",
            "kind = constant\nvalue = 0.5").replace(
            "nx = 250", "nx = 60").replace(
            "dir = runs/uniqueness_burgers", f"dir = {tmp_path / 'uniq'}")
        cfg_path = tmp_path / "uniq.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "uniq" / "report_uniq.json").read_text(),
                         parse_constant=refuse)
        ratios = rep["metadata"]["ratios"]
        assert ratios == ["Infinity"] * 3
        assert all(float(r) == float("inf") for r in ratios)

    def test_bundled_entropy_run_passes(self, tmp_path):
        text = (CONFIGS / "entropy_burgers.cfg").read_text()
        text = text.replace("nx = 800", "nx = 400").replace(
            "points = 6", "points = 4").replace(
            "dir = runs/entropy_burgers", f"dir = {tmp_path / 'ent'}")
        cfg_path = tmp_path / "ent.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 0
        rep = json.loads((tmp_path / "ent" / "report_entropy.json").read_text())
        assert rep["passed"] is True
        assert len(rep["metadata"]["sweep"]) == 12   # 9 kruzkov + 3 smooth

    def test_verify_kato_from_files(self, tmp_path, capsys):
        code, outdir = TestCliRun().run_small(tmp_path)
        capsys.readouterr()
        code = main(["verify", str(outdir / "u_slabs"), str(outdir / "v_slabs"),
                     "--check", "kato", "--flux", "burgers1d",
                     "--set", "r=2.0", "--set", "rho=0.25", "--set", "tau=0.75",
                     "--set", "h=0.1", "--set", "eps=0.2"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["kind"] == "kato" and rep["passed"] is True

    def test_verify_entropy_on_single_field(self, tmp_path, capsys):
        code, outdir = TestCliRun().run_small(tmp_path)
        capsys.readouterr()
        code = main(["verify", str(outdir / "u_slabs"),
                     "--check", "entropy_inequality", "--flux", "burgers1d",
                     "--set", "k0_count=3", "--set", "phi_radius=1.0"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["kind"] == "entropy_inequality"
        assert len(rep["metadata"]["sweep"]) == 6   # 3 kruzkov + 3 smooth

    @pytest.mark.parametrize("sets", [
        ["rr=0.5"], [], ["r=2.0", "r=1.0"], ["r=abc"], ["r"], ["kind=kato"],
    ], ids=["unknown", "missing", "duplicate", "bad_value", "no_equals",
            "kind"])
    def test_verify_refuses_bad_keys(self, bundled_runs, capsys, sets):
        _, outdir = bundled_runs["burgers_contraction"]
        capsys.readouterr()
        args = ["verify", str(outdir / "u_slabs"), str(outdir / "v_slabs"),
                "--check", "cone_contraction", "--flux", "burgers1d"]
        for kv in sets:
            args += ["--set", kv]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("check,sets", [
        ("cone_contraction", ["r=-1"]), ("cone_contraction", ["r=0"]),
        ("cone_contraction", ["r=inf"]), ("global_contraction", ["r_list=1, inf"]),
        ("global_contraction", ["r_list=1, nan"]),
        ("global_contraction", ["r_list="]),
        ("kato", ["r=nan", "rho=0.25", "tau=0.75", "h=0.1", "eps=0.2"]),
    ], ids=["cone_negative", "cone_zero", "cone_inf", "global_inf",
            "global_nan", "global_empty", "kato_nan"])
    def test_verify_refuses_bad_radius(self, bundled_runs, capsys, check, sets):
        _, outdir = bundled_runs["burgers_contraction"]
        capsys.readouterr()
        args = ["verify", str(outdir / "u_slabs"), str(outdir / "v_slabs"),
                "--check", check, "--flux", "burgers1d"]
        for kv in sets:
            args += ["--set", kv]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "finite and > 0" in captured.err

    @pytest.mark.parametrize("sets,needle", _BAD_PAIR_SETS,
                             ids=_BAD_PAIR_IDS)
    def test_verify_refuses_bad_pairs(self, bundled_runs, capsys, sets,
                                      needle):
        _, outdir = bundled_runs["entropy_burgers"]
        capsys.readouterr()
        args = ["verify", str(outdir / "u_slabs"), "--check",
                "entropy_inequality", "--flux", "burgers1d"]
        for kv in sets:
            args += ["--set", kv]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and needle in captured.err

    @pytest.mark.parametrize("sets,needle", _BAD_PAIR_SETS,
                             ids=_BAD_PAIR_IDS)
    def test_run_refuses_bad_pairs(self, tmp_path, capsys, sets, needle):
        text = (CONFIGS / "entropy_burgers.cfg").read_text().replace(
            "k0_count = 9\n", "".join(kv.replace("=", " = ") + "\n"
                                      for kv in sets)).replace(
            "dir = runs/entropy_burgers", f"dir = {tmp_path / 'out'}")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        capsys.readouterr()
        assert main(["run", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and needle in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("run,check,sets,needle", _BAD_WINDOW_CASES,
                             ids=_BAD_WINDOW_IDS)
    def test_verify_refuses_bad_window(self, bundled_runs, capsys, run, check,
                                       sets, needle):
        _, outdir = bundled_runs[run]
        capsys.readouterr()
        args = ["verify", str(outdir / "u_slabs")]
        if check in PAIR_KINDS:
            args.append(str(outdir / "v_slabs"))
        args += ["--check", check, "--flux", "burgers1d"]
        for kv in sets:
            args += ["--set", kv]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and needle in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("name,line,bad,needle", [
        ("burgers_contraction", "h = 0.1\n", "h = 0\n", "h must be positive"),
        ("entropy_burgers", "phi_radius = 0.35\n", "phi_radius = nan\n",
         "radius > 0"),
    ], ids=["kato_h_zero", "entropy_radius_nan"])
    def test_run_refuses_bad_window(self, tmp_path, capsys, name, line, bad,
                                    needle):
        text = (CONFIGS / f"{name}.cfg").read_text()
        assert line in text
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text.replace(line, bad))
        capsys.readouterr()
        assert main(["run", str(cfg_path), "--out",
                     str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and needle in captured.err
        assert "Traceback" not in captured.err
        assert (tmp_path / "out" / "FAILED").exists()

    @pytest.mark.parametrize("name,line,bad,needle",
                             list(_BAD_CHECK_VALUES.values()),
                             ids=list(_BAD_CHECK_VALUES))
    def test_run_refuses_bad_check_value(self, tmp_path, capsys, name, line,
                                         bad, needle):
        text = (CONFIGS / f"{name}.cfg").read_text()
        assert line in text
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text.replace(line, bad))
        capsys.readouterr()
        assert main(["run", str(cfg_path), "--out",
                     str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and needle in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    def test_verify_refuses_wrong_field_count(self, bundled_runs, capsys):
        _, outdir = bundled_runs["burgers_contraction"]
        capsys.readouterr()
        assert main(["verify", str(outdir / "u_slabs"), "--check",
                     "cone_contraction", "--flux", "burgers1d",
                     "--set", "r=2.0"]) == 2
        assert main(["verify", str(outdir / "u_slabs"),
                     str(outdir / "v_slabs"), "--check",
                     "entropy_inequality", "--flux", "burgers1d"]) == 2
        assert "field" in capsys.readouterr().err

    def test_verify_flux_dim_mismatch(self, bundled_runs, capsys):
        _, outdir = bundled_runs["burgers_contraction"]
        capsys.readouterr()
        code = main(["verify", str(outdir / "u_slabs"), str(outdir / "v_slabs"),
                     "--check", "cone_contraction", "--flux", "burgers2d",
                     "--set", "r=2.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2-d" in err

    def test_verify_refuses_unreadable_field(self, unreadable_field, capsys):
        path, named, defect = unreadable_field
        capsys.readouterr()
        assert main(["verify", str(path), "--check", "entropy_inequality",
                     "--flux", "burgers1d"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named}: ")
        assert defect in captured.err

    def test_file_initial_data_unreadable(self, unreadable_field, tmp_path,
                                          capsys):
        path = unreadable_field[0]
        capsys.readouterr()
        main(["verify", str(path), "--check", "entropy_inequality",
              "--flux", "burgers1d"])
        verify_err = capsys.readouterr().err
        text = SMALL_CONTRACTION.replace(
            "[initial_data]\nkind = box\nheight = 1.0\nlo = -0.5\nhi = 0.0",
            f"[initial_data]\nkind = file\npath = {path}").replace(
            "dir = out", f"dir = {tmp_path / 'fromfile'}")
        cfg_path = tmp_path / "fromfile.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err == verify_err
        assert (tmp_path / "fromfile" / "FAILED").exists()

    @pytest.mark.parametrize("flux,nx,dim,freq", [
        ("burgers1d", 100, 1, 1.0), ("burgers2d", 20, 2, 0.5)],
        ids=["1d", "2d"])
    def test_study_smooth_self_convergence(self, tmp_path, capsys, flux, nx,
                                           dim, freq):
        # the error is the L1 norm, |error| dx^dim summed over cells; a 2-d
        # study weighted by dx alone reports an order 1 too low
        text = "\n".join([
            "[flux]", f"name = {flux}", "",
            "[initial_data]", "kind = sine", "amp = 0.3", f"freq = {freq}",
            "offset = 0.5", "",
            "[grid]", "lo = -1.0", "hi = 1.0", f"nx = {nx}", f"dim = {dim}",
            "t_end = 0.3", "store_every = 1000000", "",
            "[scheme]", "kind = rusanov", "cfl = 0.9",
            "boundary = periodic", "",
            "[output]", f"dir = {tmp_path / 'smooth'}", "",
        ])
        cfg_path = tmp_path / "smooth.cfg"
        cfg_path.write_text(text)
        assert main(["study", str(cfg_path), "--levels", "3"]) == 0
        study = (tmp_path / "smooth" / "study.csv").read_text().splitlines()
        orders = [float(r.split(",")[2]) for r in study[2:] if r.split(",")[2]]
        assert orders and all(0.8 <= o <= 1.3 for o in orders)

    def test_study_produces_orders(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        text = (Path(CONFIGS) / "uniqueness_burgers.cfg").read_text()
        text = text.replace("nx = 250", "nx = 100").replace(
            "dir = runs/uniqueness_burgers", f"dir = {tmp_path / 'study'}")
        cfg_path.write_text(text)
        assert main(["study", str(cfg_path), "--levels", "3"]) == 0
        out = capsys.readouterr().out
        assert "order" in out
        study = (tmp_path / "study" / "study.csv").read_text().splitlines()
        orders = [float(r.split(",")[2]) for r in study[2:]]
        assert all(0.5 <= o <= 1.2 for o in orders)

    def test_study_prints_violation_rows(self, tmp_path, capsys):
        # one row per cone or global check: its value at each level, and
        # the shrink ratio of each level to the next
        text = SMALL_CONTRACTION.replace("nx = 600", "nx = 100").replace(
            "dir = out", f"dir = {tmp_path / 'study'}")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["study", str(cfg_path), "--levels", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("cone", "glob"):
            row = re.search(rf"^violations\[{name}\]: (\S+), (\S+)  "
                            r"shrink ratios: (\S+)$", out, re.MULTILINE)
            assert row, out
            coarse, fine = float(row[1]), float(row[2])
            assert coarse >= 0.0 and fine >= 0.0
            assert row[3] == ("inf" if fine == 0.0
                              else f"{coarse / fine:.2f}")

    def test_study_violation_rows_on_run_levels(self, tmp_path, capsys):
        # the cone quantity of this pair rises between stored times: a study
        # that stored t = 0 and t_end alone printed 0 at every level, while
        # level 0 is now the run's very field and prints the run's value
        text = "\n".join([
            "[flux]", "name = burgers1d",
            "[initial_data]", "kind = sine", "amp = 1.5", "freq = 3",
            "offset = 0",
            "[initial_data2]", "kind = sine", "amp = 1.2", "freq = 3",
            "offset = 0.3",
            "[grid]", "lo = -3.0", "hi = 3.0", "nx = 200", "dim = 1",
            "t_end = 0.8", "store_every = 1",
            "[scheme]", "kind = rusanov", "cfl = 0.9", "boundary = outflow",
            "[output]", "dir = probe",
            "[checks]", "tasks = cone",
            "[check.cone]", "kind = cone_contraction", "r = 2.0", ""])
        cfg_path = tmp_path / "probe.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "report_cone.json").read_text())
        assert report["value"] > 0.0
        capsys.readouterr()
        assert main(["study", str(cfg_path), "--levels", "2",
                     "--out", str(tmp_path / "study")]) == 0
        row = re.search(r"^violations\[cone\]: (\S+), ", capsys.readouterr().out,
                        re.MULTILINE)
        assert row and row[1] == format(report["value"], ".3e")

    def test_study_needs_two_levels(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SMALL_CONTRACTION.replace(
            "dir = out", f"dir = {tmp_path / 'study'}"))
        capsys.readouterr()
        assert main(["study", str(cfg_path), "--levels", "1"]) == 2
        assert capsys.readouterr().err == "error: study needs --levels >= 2\n"
        assert not (tmp_path / "study").exists()

    def test_failed_marker_on_study_error(self, tmp_path, capsys):
        # initial data from a file that does not exist: the study has
        # written its config when the solver raises
        text = SMALL_CONTRACTION.replace(
            "[initial_data]\nkind = box\nheight = 1.0\nlo = -0.5\nhi = 0.0",
            f"[initial_data]\nkind = file\npath = {tmp_path / 'nowhere'}"
        ).replace("dir = out", f"dir = {tmp_path / 'study'}")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        capsys.readouterr()
        assert main(["study", str(cfg_path), "--levels", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert (tmp_path / "study" / "config.cfg").exists()
        assert "Traceback" in (tmp_path / "study" / "FAILED").read_text()

    def test_exit_code_on_failed_check(self, tmp_path):
        # an anti-pair run: expansion-shock initial data evolves to the
        # rarefaction, so comparing against a frozen non-entropic profile
        # is not possible through the CLI; instead force failure via a
        # wrong-direction uniqueness ratio threshold
        text = (CONFIGS / "uniqueness_burgers.cfg").read_text()
        text = text.replace("nx = 250", "nx = 80").replace(
            "min_ratio = 1.5", "min_ratio = 50.0").replace(
            "dir = runs/uniqueness_burgers", f"dir = {tmp_path / 'fail'}")
        cfg_path = tmp_path / "fail.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 1


class TestVerifyReproducesRun:
    """``verify`` on a run's slabs, given a check section's own keys,
    prints that run's report (bar the run-only ``check_name`` and
    ``seed``)."""

    @pytest.mark.parametrize("config,check_name", [
        ("entropy_burgers", "entropy"),
        ("burgers_contraction", "cone"),
        ("burgers_contraction", "glob"),
        ("burgers_contraction", "kato"),
        ("product2d", "cone"),
        ("product2d", "kato"),
        ("off_t_end", "entropy"),
    ])
    def test_same_report(self, bundled_runs, capsys, config, check_name):
        cfg, outdir = bundled_runs[config]
        check = next(c for c in cfg.checks if c.name == check_name)
        fields = [str(outdir / "u_slabs")]
        if check.kind != "entropy_inequality":
            fields.append(str(outdir / "v_slabs"))
        capsys.readouterr()
        code = main(["verify", *fields, "--check", check.kind,
                     "--flux", cfg.flux_name, *_set_args(check.params)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        stored = json.loads(
            (outdir / f"report_{check_name}.json").read_text())
        assert stored["metadata"].pop("check_name") == check_name
        assert stored["metadata"].pop("seed") == cfg.seed
        assert printed == stored

    def test_parameterized_flux_read_from_run(self, tmp_path, capsys):
        text = SMALL_CONTRACTION.replace(
            "[flux]\nname = burgers1d",
            "[flux]\nname = advection1d\nc = 3.0").replace("nx = 600",
                                                           "nx = 150")
        cfg_path = tmp_path / "adv.cfg"
        cfg_path.write_text(text)
        outdir = tmp_path / "adv"
        assert main(["run", str(cfg_path), "--out", str(outdir)]) == 0
        capsys.readouterr()
        assert main(["verify", str(outdir / "u_slabs"), str(outdir / "v_slabs"),
                     "--check", "cone_contraction", "--flux", "advection1d",
                     "--set", "r=2.0"]) == 0
        printed = json.loads(capsys.readouterr().out)
        stored = json.loads((outdir / "report_cone.json").read_text())
        assert printed["metadata"]["N"] == pytest.approx(3.0, rel=1e-12)
        del stored["metadata"]["check_name"], stored["metadata"]["seed"]
        assert printed == stored
        # a slab file reads the config of its grandparent
        slab = sorted((outdir / "u_slabs").glob("*.slab"))[0]
        assert _run_flux("advection1d", slab).params == {"c": 3.0}

    def test_parameterized_flux_needs_matching_config(self, bundled_runs,
                                                      tmp_path, capsys):
        _, outdir = bundled_runs["burgers_contraction"]
        copied = tmp_path / "u_slabs"
        shutil.copytree(outdir / "u_slabs", copied)
        for field, needle in ((outdir / "u_slabs", "burgers1d"),
                              (copied, "config.cfg")):
            capsys.readouterr()
            assert main(["verify", str(field), "--check",
                         "entropy_inequality", "--flux", "advection1d"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and needle in err

    def test_global_profile_radius_is_inf(self, bundled_runs):
        _, outdir = bundled_runs["burgers_contraction"]
        rows = (outdir / "profile_glob.csv").read_text().splitlines()
        assert rows[0] == "t,radius,l1_mass"
        assert len(rows) > 2
        assert all(r.split(",")[1] == "inf" for r in rows[1:])


def _per_point_polylines(series, logx, logy):
    """The points attribute of each polyline of ``svgplot.line_plot`` at
    its default size, one point at a time in Python floats: the plot's
    filter, log10, axis range and pixel formulas."""
    def ok(v, log):
        return math.isfinite(v) and (v > 0 if log else True)

    def t(v, log):
        return math.log10(v) if log else v

    # the axis values; a plot without points draws one at (0, 0)
    clean = [pts for pts in (
        [(t(float(x), logx), t(float(y), logy)) for x, y in zip(xs, ys)
         if ok(float(x), logx) and ok(float(y), logy)]
        for xs, ys, _ in series) if pts] or [[(0.0, 0.0)]]
    xvals = [x for pts in clean for x, _ in pts]
    yvals = [y for pts in clean for _, y in pts]
    xlo, xhi, ylo, yhi = min(xvals), max(xvals), min(yvals), max(yvals)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad_y = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad_y, yhi + pad_y
    ml, mt, pw, ph = 70, 34, 550, 354
    return [" ".join(f"{ml + pw * (x - xlo) / (xhi - xlo):.2f},"
                     f"{mt + ph * (1.0 - (y - ylo) / (yhi - ylo)):.2f}"
                     for x, y in pts) for pts in clean]


class TestLinePlot:
    @pytest.mark.parametrize("logx,logy", [(False, False), (True, False),
                                           (False, True), (True, True)])
    @pytest.mark.parametrize("seed", range(4))
    def test_polylines_match_per_point_formatting(self, tmp_path, seed,
                                                  logx, logy):
        # random scales and signs, with NaN, +-inf and (on a log axis)
        # non-positive points left out, series of unequal lengths cut to
        # the shorter, and series that lose every point
        rng = np.random.default_rng(seed)
        series = []
        for i in range(4):
            n = int(rng.integers(1, 1200))
            xs = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-8, 8)
            ys = rng.normal(size=n + int(rng.integers(0, 3))) * 10.0 ** (
                rng.uniform(-8, 8))
            for v in (xs, ys):
                bad = rng.random(v.size) < 0.05
                v[bad] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0],
                                    bad.sum())
            series.append((xs.tolist() if i % 2 else xs, ys, f"s{i}"))
        series.append(([np.nan, 1.0], [2.0, np.inf], "dropped"))
        for case in (series, series[-1:]):
            path = tmp_path / "plot.svg"
            svgplot.line_plot(path, case, logx=logx, logy=logy)
            got = re.findall(r'<polyline points="([^"]*)"', path.read_text())
            assert got == _per_point_polylines(case, logx, logy)
