"""Command-line surface: validation, record output, CSV round trips."""

import json
import math

import pytest

from coopic import cli, frontier, txcoop
from coopic.model import ChannelGains, PowerBudget, Simplex2, Simplex3, TcAllocation

SQRT2 = math.sqrt(2.0)

TC_ALLOCATION = {
    "lambda": [1 / 3, 1 / 3, 1 / 3],
    "kappa": [0.5, 0.5],
    "gamma": [0.5, 0.5],
    "alpha": [0.5, 0.5],
    "beta": [0.5, 0.5],
    "mu": [1 / 3, 1 / 3, 1 / 3],
    "eta": [1 / 3, 1 / 3, 1 / 3],
}


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


def run(args):
    return cli.main(args)


# ---------------------------------------------------------------------------
# eval


def test_eval_matches_library_bit_exactly(tmp_path, capsys):
    cfg = write_config(tmp_path, allocation=TC_ALLOCATION, scheme="TC")
    assert run(["eval", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    g = ChannelGains(c12=10.0, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=10.0)
    p = PowerBudget(5.0, 5.0, 5.0, 5.0)
    a = TcAllocation(lam=Simplex3(*TC_ALLOCATION["lambda"]),
                     kappa=Simplex2(*TC_ALLOCATION["kappa"]),
                     gamma=Simplex2(*TC_ALLOCATION["gamma"]),
                     alpha=Simplex2(*TC_ALLOCATION["alpha"]),
                     beta=Simplex2(*TC_ALLOCATION["beta"]),
                     mu=Simplex3(*TC_ALLOCATION["mu"]),
                     eta=Simplex3(*TC_ALLOCATION["eta"]))
    pair = txcoop.tc_rate_pair(g, p, a)
    assert record["r1_bits"] == pair.r1
    assert record["r2_bits"] == pair.r2
    rates = txcoop.tc_phase_rates(g, p, a)
    assert record["streams"]["r1_r1"] == rates.r1_r1
    assert record["streams"]["r2_3"] == rates.r2_3


def test_eval_zero_power_record(tmp_path, capsys):
    cfg = write_config(tmp_path, allocation=TC_ALLOCATION, p1=0, p2=0, p3=0, p4=0)
    assert run(["eval", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["r1_bits"] == 0.0 and record["r2_bits"] == 0.0
    assert all(v == 0.0 for v in record["streams"].values())


def test_eval_malformed_simplex_exits_2(tmp_path, capsys):
    bad = dict(TC_ALLOCATION, mu=[0.3, 0.3, 0.3])
    cfg = write_config(tmp_path, allocation=bad)
    assert run(["eval", "--config", cfg]) == cli.EXIT_VALIDATION
    assert "simplex sum" in capsys.readouterr().err


def test_eval_missing_allocation_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["eval", "--config", cfg]) == cli.EXIT_VALIDATION


def test_eval_rc_scheme(tmp_path, capsys):
    alloc = {"lambda": [0.4, 0.3, 0.3], "mu": [0.4, 0.3, 0.3],
             "eta": [0.4, 0.3, 0.3], "alpha": [0.5, 0.5], "beta": [0.5, 0.5]}
    cfg = write_config(tmp_path, allocation=alloc, scheme="RC", weight=2.0)
    assert run(["eval", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["scheme"] == "RC"
    assert record["r1_bits"] > 0.0


def test_eval_rc_tiny_forwarding_share(tmp_path, capsys):
    # a forwarding share so small that 2**rate - 1 rounds to zero
    alloc = {"lambda": [0.4, 0.3, 0.3], "mu": [0.4, 0.3, 0.3],
             "eta": [0.4, 0.3, 0.3], "alpha": [1e-300, 1.0], "beta": [0.5, 0.5]}
    cfg = write_config(tmp_path, allocation=alloc, scheme="RC")
    assert run(["eval", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    assert math.isfinite(record["r1_bits"]) and math.isfinite(record["r2_bits"])


RC_ALLOCATION = {"lambda": [0.4, 0.3, 0.3], "mu": [0.4, 0.3, 0.3],
                 "eta": [0.4, 0.3, 0.3], "alpha": [0.5, 0.5], "beta": [0.5, 0.5]}
SMALL_TC = {"schemes": ["TC"], "weights": 1, "restarts": 8, "max_iter": 5}


@pytest.mark.parametrize("command, config, flags", [
    ("region", {"schemes": ["IC"], "weights": math.inf}, []),  # written as 1e400
    ("region", {"schemes": ["IC"], "restarts": math.inf}, []),
    ("region", {"schemes": ["IC"], "p1": None}, []),
    ("region", {"schemes": ["IC"], "c13": [1]}, []),
    ("region", dict(SMALL_TC, seed=-1), []),  # more restarts than corner starts
    ("region", SMALL_TC, ["--seed", "-1"]),
    ("eval", {"scheme": "RC", "allocation": RC_ALLOCATION, "weight": "x"}, []),
    ("eval", {"scheme": "RC", "allocation": RC_ALLOCATION, "weight": None}, []),
    ("eval", {"allocation": dict(TC_ALLOCATION, mu=["a", 0.5, 0.5])}, []),
    ("eval", {"allocation": dict(TC_ALLOCATION, mu=[None, 0.5, 0.5])}, []),
    # finite values whose c^2 * P or det(I + M) overflows a float
    ("eval", {"c13": 1e200, "allocation": TC_ALLOCATION}, []),
    ("region", dict(SMALL_TC, c13=1e150, p1=1e10), []),
    ("bounds", {"c13": 1e150, "c14": 1e150, "p1": 1e10}, []),
])
def test_bad_config_numbers_exit_2(tmp_path, capsys, command, config, flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace("Infinity", "1e400"))
    args = [command, "--config", str(path), *flags]
    if command == "region":
        args += ["--out", str(tmp_path / "region.csv")]
    assert run(args) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, config", [
    ("region", {"schemes": 5}),
    ("region", {"schemes": ["TC", 5]}),
    ("region", {"schemes": ["IC"], "out": 5}),
    ("eval", {"scheme": 5, "allocation": TC_ALLOCATION}),
])
def test_bad_config_types_exit_2(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run([command, "--config", str(path)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_eval_infinite_gain_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, allocation=TC_ALLOCATION, c12="inf")
    assert run(["eval", "--config", cfg]) == cli.EXIT_EVALUATOR


@pytest.mark.parametrize("scheme, allocation", [
    ("TC", dict(TC_ALLOCATION, **{"lambda": [5e-324, 0.5, 0.5]})),
    ("RC", dict(RC_ALLOCATION, **{"lambda": [5e-324, 0.5, 0.5]})),
])
def test_eval_subnormal_duration_exits_3(tmp_path, capsys, scheme, allocation):
    # the burst power of a subnormal phase would overflow and print Infinity/NaN
    cfg = write_config(tmp_path, allocation=allocation, scheme=scheme)
    assert run(["eval", "--config", cfg]) == cli.EXIT_EVALUATOR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.strip().splitlines()) == 1
    assert "burst power" in captured.err


# ---------------------------------------------------------------------------
# region


def _region_args(tmp_path, out="region.csv", **cfg):
    base = {"weights": 3, "restarts": 2, "max_iter": 60}
    base.update(cfg)
    path = write_config(tmp_path, **base)
    return ["region", "--config", path, "--out", str(tmp_path / out)]


def test_region_csv_layout_and_roundtrip(tmp_path, capsys):
    args = _region_args(tmp_path, schemes=["TC", "RDPC", "IC"])
    assert run(args) == 0
    out = tmp_path / "region.csv"
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r1_bits,r2_bits,scheme,weight,seed"
    schemes = {line.split(",")[2] for line in lines[1:]}
    assert schemes == {"TC", "RDPC", "IC", "bound"}
    # frontier rows re-hull to the same vertex set (12 significant digits)
    tc_rows = [line.split(",") for line in lines[1:] if line.split(",")[2] == "TC"]
    pts = [(float(r[0]), float(r[1])) for r in tc_rows]
    assert frontier.hull(pts) == pts
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert "TC" in sidecar["schemes"]
    assert sidecar["schemes"]["TC"]["points"][0]["allocation"] is not None
    assert "TC" in sidecar["bounds"]
    stats = sidecar["schemes"]["TC"]["stats"]
    assert stats["runs"] == len(frontier.default_weights(3)) * 2
    assert stats["evaluations"] >= stats["runs"] * 18  # each run evaluates its initial simplex
    assert 0 <= stats["unconverged"] <= stats["runs"]
    assert all(isinstance(n, int) for n in stats["penalized"].values())


def test_region_limit_mode_tagging(tmp_path):
    args = _region_args(tmp_path, out="lim.csv", schemes=["TC"], c12="inf",
                        weights=5, restarts=2, max_iter=80)
    assert run(args) == 0
    lines = (tmp_path / "lim.csv").read_text().strip().splitlines()
    schemes = {line.split(",")[2] for line in lines[1:]}
    assert "TC_inf" in schemes


def test_region_rc_schemes(tmp_path):
    args = _region_args(tmp_path, out="rc.csv", schemes=["TC", "RC"])
    assert run(args) == 0
    lines = (tmp_path / "rc.csv").read_text().strip().splitlines()
    schemes = {line.split(",")[2] for line in lines[1:]}
    assert schemes == {"TC", "RC", "bound"}


def test_region_empty_schemes_exits_2(tmp_path, capsys):
    assert run(_region_args(tmp_path, schemes=[])) == cli.EXIT_VALIDATION


def test_region_unknown_scheme_exits_2(tmp_path):
    assert run(_region_args(tmp_path, schemes=["XC"])) == cli.EXIT_VALIDATION


def test_region_unknown_config_key_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, schemes=["TC"], nonsense=1)
    assert run(["region", "--config", path]) == cli.EXIT_VALIDATION
    assert "unknown config keys" in capsys.readouterr().err


def test_region_unwritable_out_exits_4(tmp_path, capsys):
    args = _region_args(tmp_path, schemes=["IC"])
    args[-1] = "/nonexistent-dir/out.csv"
    assert run(args) == cli.EXIT_OUTPUT


def test_region_rdpc_with_infinite_gain_exits_3(tmp_path):
    args = _region_args(tmp_path, out="x.csv", schemes=["RDPC"], c12="inf")
    assert run(args) == cli.EXIT_EVALUATOR


def test_region_ic_requires_strong_interference(tmp_path):
    args = _region_args(tmp_path, out="x.csv", schemes=["IC"], c14=0.5)
    assert run(args) == cli.EXIT_EVALUATOR


# ---------------------------------------------------------------------------
# bounds / compare


def test_bounds_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["bounds", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["TC"]["sum_max"] == pytest.approx(math.log2(56.0), abs=1e-9)
    assert record["RC"]["sum_max"] == pytest.approx(math.log2(56.0), abs=1e-9)
    assert record["IC"]["r1_max"] == pytest.approx(math.log2(6.0), abs=1e-12)


def test_bounds_reports_non_strong_ic(tmp_path, capsys):
    cfg = write_config(tmp_path, c14=0.5)
    assert run(["bounds", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    assert "error" in record["IC"]


def test_compare_identical_configs(tmp_path, capsys):
    cfg = write_config(tmp_path, scheme="RDPC", weights=3, restarts=2, max_iter=60)
    assert run(["compare", cfg, cfg]) == 0
    out = capsys.readouterr().out
    assert "equal within tolerance" in out


def test_compare_dominance(tmp_path, capsys):
    a = write_config(tmp_path, "a.json", scheme="TC", weights=7, restarts=6, max_iter=200)
    b = write_config(tmp_path, "b.json", scheme="RDPC", weights=7, restarts=6, max_iter=200)
    assert run(["compare", a, b]) == 0
    out = capsys.readouterr().out
    assert "A dominates B" in out
    assert "max gap" in out
