"""Command-line surface: validation, record output, CSV round trips."""

import dataclasses
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


def test_allocation_record_passes_a_non_simplex_field_as_a_scalar():
    # An allocation field that is no simplex (here an encoding order) is
    # written as the scalar it is, after the simplices' weights, in field order.
    @dataclasses.dataclass(frozen=True)
    class OrderedTc(TcAllocation):
        user1_clean: bool = False

    base = TcAllocation(lam=Simplex3(*TC_ALLOCATION["lambda"]),
                        kappa=Simplex2(*TC_ALLOCATION["kappa"]),
                        gamma=Simplex2(*TC_ALLOCATION["gamma"]),
                        alpha=Simplex2(*TC_ALLOCATION["alpha"]),
                        beta=Simplex2(*TC_ALLOCATION["beta"]),
                        mu=Simplex3(*TC_ALLOCATION["mu"]), eta=Simplex3(*TC_ALLOCATION["eta"]))
    record = cli._allocation_to_dict(OrderedTc(*base, user1_clean=True))
    plain = cli._allocation_to_dict(base)
    assert list(record) == list(plain) + ["user1_clean"]
    assert record == {**plain, "user1_clean": True} and record["user1_clean"] is True
    assert json.loads(json.dumps(record)) == record


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


def test_eval_rc_large_gains_compression(tmp_path, capsys):
    # the compression numerator at3 * at4 - cross^2 cancelled below zero here
    gains = dict(zip(("c12", "c13", "c14", "c23", "c24", "c34"),
                     (6.40729008083737, 0.0011459801474974821, 0.0273014277732587,
                      3584293.361623593, 71082698.58822317, 0.4724221056279107)))
    powers = dict(zip(("p1", "p2", "p3", "p4"),
                      (211.84987726474137, 8604.298758666277, 34.70963587824628,
                       34.582705508673335)))
    uniform = {"lambda": [1 / 3] * 3, "mu": [1 / 3] * 3, "eta": [1 / 3] * 3,
               "alpha": [0.5, 0.5], "beta": [0.5, 0.5]}
    cfg = write_config(tmp_path, allocation=uniform, scheme="RC", **gains, **powers)
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
    # a search-free trace: the origin alone, or the unsearched starts, as a frontier
    ("region", dict(SMALL_TC, restarts=0), []),
    ("region", SMALL_TC, ["--restarts", "0"]),
    ("region", dict(SMALL_TC, max_iter=0), []),
    # a scalarization weight must be in [0, +inf]
    ("eval", {"scheme": "RC", "allocation": RC_ALLOCATION, "weight": -1.0}, []),
    ("eval", {"scheme": "RC", "allocation": RC_ALLOCATION, "weight": math.nan}, []),
    # eval evaluates one scheme: a second --scheme is an error, not ignored
    ("eval", {"scheme": "RC", "allocation": RC_ALLOCATION}, ["--scheme", "RC", "--scheme", "TC"]),
    # a number is a JSON number: no bool, no numeric string
    ("region", {"schemes": ["IC"], "p1": "5"}, []),
    ("bounds", {"p1": True}, []),
    ("bounds", {"c13": True}, []),
    ("region", {"schemes": ["IC"], "restarts": True}, []),
    ("region", {"schemes": ["IC"], "seed": "3"}, []),
    ("region", {"schemes": ["IC"], "weights": " 4 "}, []),
    ("eval", {"scheme": "RC", "allocation": RC_ALLOCATION, "weight": "2"}, []),
    ("eval", {"scheme": "RC", "allocation": dict(RC_ALLOCATION, mu=["0.4", 0.3, 0.3])}, []),
    ("eval", {"scheme": "RC", "allocation": dict(RC_ALLOCATION, alpha=[True, 0.0])}, []),
    # only the conferencing gains may be infinite
    ("bounds", {"c13": "inf"}, []),
    # more weights than default_weights builds; they used to be built, until memory ran out
    ("region", {"schemes": ["IC"], "weights": 1e300}, []),
    ("region", {"schemes": ["IC"]}, ["--weights", str(10 ** 300)]),
    # more restarts or iterations than TraceOptions takes; they used to trace without end
    ("region", {"schemes": ["IC"]}, ["--restarts", str(10 ** 300)]),
    ("region", {"schemes": ["IC"], "restarts": 1e300}, []),
    ("region", {"schemes": ["IC"], "max_iter": 1e300}, []),
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
    ("region", {"schemes": ["RC", "rc"]}),  # one scheme traced twice
    # the config file: missing (None), not JSON (text written as is), not an object
    ("bounds", None),
    ("bounds", "{"),
    ("bounds", [1.0, 2.0]),
    # the allocation: not an object, a key too many or too few, a block too short
    ("eval", {"allocation": [1.0, 0.0, 0.0]}),
    ("eval", {"allocation": dict(TC_ALLOCATION, zeta=[1.0])}),
    ("eval", {"allocation": {"lambda": [1.0, 0.0, 0.0]}}),
    ("eval", {"allocation": dict(TC_ALLOCATION, mu=[0.5, 0.5])}),
])
def test_bad_config_types_exit_2(tmp_path, monkeypatch, capsys, command, config):
    # run in tmp_path: a region case that stopped failing would write its default out
    # there, and an --out flag would hide the bad "out" value of the third case
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
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


def test_region_stats_flag(tmp_path, capsys):
    # --stats prints one line per traced scheme (IC is not traced) with the
    # sidecar's counts plus wall time; the sidecar itself is unchanged.  TC
    # and RDPC share a lockstep, and every line gets the share of the one
    # timed call that its evaluations make, so all show one cost per evaluation.
    args = _region_args(tmp_path, schemes=["TC", "RDPC", "RC", "IC"], weights=1, max_iter=20)
    assert run(args) == 0
    plain = capsys.readouterr().out.splitlines()
    sidecar = (tmp_path / "region.json").read_text()
    assert len(plain) == 1 and plain[0].startswith("wrote ")
    assert run(args + ["--stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == plain[0] and (tmp_path / "region.json").read_text() == sidecar
    assert [line.split(":")[0] for line in lines[:-1]] == ["stats TC", "stats RDPC", "stats RC"]
    per_eval = [float(line.split("us_per_eval=")[1]) for line in lines[:-1]]
    assert max(per_eval) - min(per_eval) <= 0.011
    for line in lines[:-1]:
        scheme = line.split(":")[0].split()[1]
        fields = dict(f.split("=") for f in line.split(": ")[1].split())
        stats = json.loads(sidecar)["schemes"][scheme]["stats"]
        assert int(fields["evaluations"]) == stats["evaluations"] > 0
        assert int(fields["penalized"]) == sum(stats["penalized"].values())
        assert {k[len("penalized."):]: int(v) for k, v in fields.items()
                if k.startswith("penalized.")} == stats["penalized"]
        assert int(fields["runs"]) == stats["runs"] == len(frontier.default_weights(1)) * 2
        assert int(fields["unconverged"]) == stats["unconverged"]
        assert int(fields["dropped"]) == stats["dropped"] == 0
        wall_s, us_per_eval = float(fields["wall_s"]), float(fields["us_per_eval"])
        assert us_per_eval > 0.0
        # wall_s is printed to 1e-3 s and us_per_eval to 1e-2 us
        assert abs(us_per_eval * stats["evaluations"] - 1e6 * wall_s) \
            <= 1e6 * 5e-4 + 5e-3 * stats["evaluations"]


def test_region_weights_zero_traces_the_axes_alone(tmp_path):
    # --weights is the number of log-spaced weights; 0 used to trace weight 1 too
    args = _region_args(tmp_path, schemes=["TC"], restarts=1, max_iter=5)
    assert run(args + ["--weights", "0"]) == 0
    sidecar = json.loads((tmp_path / "region.json").read_text())
    assert sidecar["schemes"]["TC"]["weights"] == ["0", "inf"]
    assert sidecar["schemes"]["TC"]["stats"]["runs"] == 2


def test_region_limit_mode_tagging(tmp_path):
    args = _region_args(tmp_path, out="lim.csv", schemes=["TC"], c12="inf",
                        weights=5, restarts=2, max_iter=80)
    assert run(args) == 0
    lines = (tmp_path / "lim.csv").read_text().strip().splitlines()
    schemes = {line.split(",")[2] for line in lines[1:]}
    assert "TC_inf" in schemes


def _no_constant(name):
    raise AssertionError(f"sidecar holds {name}, which is not JSON (RFC 8259)")


@pytest.mark.xfail(raises=AssertionError,
                   reason="the sidecar writes the RC point at weight inf as the bare token "
                          "Infinity; the benchmark reads that field, so its fix waits for "
                          "ROADMAP direction J")
def test_region_sidecar_is_strict_json(tmp_path):
    assert run(_region_args(tmp_path, schemes=["RC"])) == 0
    json.loads((tmp_path / "region.json").read_text(), parse_constant=_no_constant)


@pytest.mark.parametrize("command", ["bounds", "region"])
def test_infinite_bound_is_written_as_inf(tmp_path, capsys, command):
    # c14 = c23 = 0.3: both receivers treat interference as noise, so the IC
    # region's sum constraint does not bind; strict JSON cannot hold Infinity
    if command == "bounds":
        assert run(["bounds", "--config", write_config(tmp_path, c14=0.3, c23=0.3)]) == 0
        record = json.loads(capsys.readouterr().out, parse_constant=_no_constant)["IC"]
    else:
        assert run(_region_args(tmp_path, schemes=["IC"], c14=0.3, c23=0.3)) == 0
        sidecar = (tmp_path / "region.json").read_text()
        record = json.loads(sidecar, parse_constant=_no_constant)["schemes"]["IC"]
    # receiver 3 treats user 2 as noise: r1_max = cap(5 / (1 + 0.09 * 5))
    assert record["r1_max"] == pytest.approx(math.log2(129.0 / 29.0), abs=1e-12)
    assert record["sum_max"] == "inf"


def test_region_rc_schemes(tmp_path):
    args = _region_args(tmp_path, out="rc.csv", schemes=["TC", "RC"])
    assert run(args) == 0
    lines = (tmp_path / "rc.csv").read_text().strip().splitlines()
    schemes = {line.split(",")[2] for line in lines[1:]}
    assert schemes == {"TC", "RC", "bound"}


def test_region_sidecar_allocations_round_trip_through_eval(tmp_path, capsys):
    # The sidecar writes allocations in the keys the config reads: each
    # vertex's allocation (and weight, which only RC reads) fed back to eval
    # gives the vertex's rates bit for bit.
    assert run(_region_args(tmp_path, schemes=["TC", "RDPC", "RC"])) == 0
    capsys.readouterr()
    sidecar = json.loads((tmp_path / "region.json").read_text())
    for scheme in ("TC", "RDPC", "RC"):
        points = sidecar["schemes"][scheme]["points"]
        assert points
        for pt in points:
            cfg = write_config(tmp_path, name="eval.json", scheme=scheme,
                               allocation=pt["allocation"], weight=pt["weight"])
            assert run(["eval", "--config", cfg]) == 0
            record = json.loads(capsys.readouterr().out)
            assert (record["r1_bits"], record["r2_bits"]) == (pt["r1_bits"], pt["r2_bits"])


def test_region_empty_schemes_exits_2(tmp_path, capsys):
    assert run(_region_args(tmp_path, schemes=[])) == cli.EXIT_VALIDATION


def test_region_unknown_scheme_exits_2(tmp_path):
    assert run(_region_args(tmp_path, schemes=["XC"])) == cli.EXIT_VALIDATION


def test_region_unknown_config_key_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, schemes=["TC"], nonsense=1)
    assert run(["region", "--config", path]) == cli.EXIT_VALIDATION
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("config_name, flags", [
    ("region.json", []),  # the default out region.csv puts its sidecar on the config
    ("config.json", ["--out", "x.json"]),  # the CSV and the sidecar in one file
    ("config.csv", ["--out", "config.csv"]),
])
def test_region_out_never_overwrites_its_inputs(tmp_path, monkeypatch, capsys,
                                                config_name, flags):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / config_name
    text = json.dumps({"schemes": ["IC"]})
    path.write_text(text)
    assert run(["region", "--config", config_name, *flags]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: out ")
    assert path.read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == [config_name]


def test_region_unwritable_out_exits_4(tmp_path, capsys):
    args = _region_args(tmp_path, schemes=["IC"])
    args[-1] = "/nonexistent-dir/out.csv"
    assert run(args) == cli.EXIT_OUTPUT


def test_region_rc_limit_mode(tmp_path):
    # c34 = inf: the two corners of the two-antenna MAC pentagon, at weights
    # 0 and inf, with no allocation to write
    args = _region_args(tmp_path, c34="inf") + ["--scheme", "RC"]
    assert run(args) == 0
    rows = [line.split(",") for line in (tmp_path / "region.csv").read_text().split()[1:]]
    r2_min = math.log2(56.0) - 4.0
    limit_rows = [row for row in rows if row[2] == "RC_inf"]
    assert [row[3] for row in limit_rows] == ["0", "inf"]
    assert [float(x) for row in limit_rows for x in row[:2]] == \
        pytest.approx([4.0, r2_min, r2_min, 4.0], abs=1e-11)
    points = json.loads((tmp_path / "region.json").read_text())["schemes"]["RC_inf"]["points"]
    assert [pt[key] for pt in points for key in ("r1_bits", "r2_bits")] == \
        pytest.approx([4.0, r2_min, r2_min, 4.0], abs=1e-12)
    assert [pt["weight"] for pt in points] == [0.0, math.inf]
    assert all(pt["allocation"] is None for pt in points)


def test_region_rdpc_with_infinite_gain_exits_3(tmp_path):
    args = _region_args(tmp_path, out="x.csv", schemes=["RDPC"], c12="inf")
    assert run(args) == cli.EXIT_EVALUATOR


def test_region_ic_on_weak_interference(tmp_path):
    # c14 < c13: receiver 4 treats user 1 as noise, receiver 3 still decodes both
    args = _region_args(tmp_path, out="x.csv", schemes=["IC"], c14=0.5)
    assert run(args) == 0
    rows = [line.split(",") for line in (tmp_path / "x.csv").read_text().split()[1:]]
    assert rows and {row[2] for row in rows} == {"IC"}
    # pentagon (log2 6, log2(29/9), 4): receiver 3's joint rate caps the sum
    r1_max, r2_max = math.log2(6.0), math.log2(29.0 / 9.0)
    want = [r1_max, 4.0 - r1_max, 4.0 - r2_max, r2_max]
    assert [float(x) for row in rows for x in row[:2]] == pytest.approx(want, abs=1e-11)


# ---------------------------------------------------------------------------
# bounds / compare


def test_bounds_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["bounds", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["TC"]["sum_max"] == pytest.approx(math.log2(56.0), abs=1e-9)
    assert record["RC"]["sum_max"] == pytest.approx(math.log2(56.0), abs=1e-9)
    assert record["IC"]["r1_max"] == pytest.approx(math.log2(6.0), abs=1e-12)


def test_bounds_large_nearly_parallel_gains(tmp_path, capsys):
    # the broadcast sum bound's determinant at q = P cancelled to -2.88e17
    gains = dict(zip(("c12", "c13", "c14", "c23", "c24", "c34"),
                     (12255987.180431776, 3247826.058790772, 0.25094098926762454,
                      3368229.9878108758, 109212.2362986903, 1.1389854947944813)))
    powers = dict(zip(("p1", "p2", "p3", "p4"),
                      (966.535402087646, 2118.890745865961, 3.14187916425278,
                       43.17282029246764)))
    cfg = write_config(tmp_path, **gains, **powers)
    assert run(["bounds", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    assert all(math.isfinite(record[kind]["sum_max"]) for kind in ("TC", "RC"))


def test_bounds_reports_ic_on_weak_interference(tmp_path, capsys):
    cfg = write_config(tmp_path, c14=0.5)
    assert run(["bounds", "--config", cfg]) == 0
    record = json.loads(capsys.readouterr().out)
    # receiver 4 treats user 1 as noise: r2_max = cap(5 / (1 + 0.25 * 5))
    assert record["IC"]["r1_max"] == pytest.approx(math.log2(6.0), abs=1e-12)
    assert record["IC"]["r2_max"] == pytest.approx(math.log2(29.0 / 9.0), abs=1e-12)
    assert record["IC"]["sum_max"] == pytest.approx(math.log2(16.0), abs=1e-12)


@pytest.mark.parametrize("args", [
    ["eval", "--seed", "3"],
    ["eval", "--weights", "9"],
    ["eval", "--restarts", "0"],
    ["bounds", "--scheme", "XX"],
    ["bounds", "--seed", "3"],
    ["bounds", "--weights", "9"],
    ["bounds", "--restarts", "0"],
])
def test_unread_flags_exit_2(tmp_path, capsys, args):
    # a subcommand registers only the flags it reads; argparse rejects the rest
    with pytest.raises(SystemExit) as exc:
        run([*args, "--config", write_config(tmp_path)])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compare_repeated_scheme_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, scheme="TC")
    assert run(["compare", cfg, cfg, "--scheme", "TC", "--scheme", "RC"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


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


def test_compare_oversized_weight_count_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["compare", cfg, cfg, "--weights", str(10 ** 300)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: weights: count ")


@pytest.mark.parametrize("config_a, config_b, verdict", [
    ({"scheme": "RDPC"}, {"scheme": "TC"}, "B dominates A"),  # test_compare_dominance reversed
    # mirrored channels (c13 <-> c24): each favours its own strong user
    ({"scheme": "RC", "c13": 2.0}, {"scheme": "RC", "c24": 2.0}, "incomparable"),
])
def test_compare_verdicts(tmp_path, capsys, config_a, config_b, verdict):
    budget = {"weights": 7, "restarts": 6, "max_iter": 200}
    a = write_config(tmp_path, "a.json", **config_a, **budget)
    b = write_config(tmp_path, "b.json", **config_b, **budget)
    assert run(["compare", a, b]) == 0
    assert f"verdict: {verdict}\n" in capsys.readouterr().out
