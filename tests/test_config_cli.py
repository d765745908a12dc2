import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from clawlab.cli import _run_flux, main
from clawlab.config import load_config, parse_config
from clawlab.errors import ConfigError

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


def _set_args(params: dict) -> list:
    """``--set`` arguments that carry a check's parsed keys."""
    out = []
    for key, val in params.items():
        vals = val if isinstance(val, list) else [val]
        out += ["--set", f"{key}=" + ",".join(format(x, ".17g") for x in vals)]
    return out


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


@pytest.fixture(scope="module")
def bundled_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundled")
    (root / "product2d.cfg").write_text(PRODUCT_2D)
    runs = {}
    for name, path in (("entropy_burgers", CONFIGS / "entropy_burgers.cfg"),
                       ("burgers_contraction",
                        CONFIGS / "burgers_contraction.cfg"),
                       ("product2d", root / "product2d.cfg")):
        cfg = load_config(path)
        assert main(["run", str(path), "--out", str(root / name)]) == 0
        runs[name] = (cfg, root / name)
    return runs


@pytest.fixture(params=["missing", "empty_dir", "not_a_slab", "cut_short"])
def unreadable_field(request, bundled_runs, tmp_path):
    """(path, defect) of a field that cannot be read as slabs."""
    _, outdir = bundled_runs["burgers_contraction"]
    if request.param == "missing":
        return tmp_path / "nowhere", "No such file"
    if request.param == "empty_dir":
        (tmp_path / "empty").mkdir()
        return tmp_path / "empty", "no slab files"
    if request.param == "not_a_slab":
        return outdir / "config.cfg", "not a slab file"
    slab = sorted((outdir / "u_slabs").glob("*.slab"))[0]
    cut = tmp_path / "cut.slab"
    cut.write_bytes(slab.read_bytes()[:-8])
    return cut, "data bytes"


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
        assert parse_config(text).scheme.kind == "godunov_burgers"
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
    ], ids=["store_every", "cfl", "viscous"])
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
        assert len(slabs) > 2
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
        path, defect = unreadable_field
        capsys.readouterr()
        assert main(["verify", str(path), "--check", "entropy_inequality",
                     "--flux", "burgers1d"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert defect in captured.err

    def test_file_initial_data_unreadable(self, unreadable_field, tmp_path,
                                          capsys):
        path, _ = unreadable_field
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

    def test_study_smooth_self_convergence(self, tmp_path, capsys):
        text = "\n".join([
            "[flux]", "name = burgers1d", "",
            "[initial_data]", "kind = sine", "amp = 0.3", "freq = 1.0",
            "offset = 0.5", "",
            "[grid]", "lo = -1.0", "hi = 1.0", "nx = 100", "dim = 1",
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
        assert all(0.8 <= o <= 1.3 for o in orders)

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
