import json
import math

import pytest

from monowatch.cli import main

from conftest import DOUBLE_PTS, SQUARE_PTS, UNOTCH_PTS


def _write_polygon(tmp_path, pts, name="poly.json", as_object=False):
    path = tmp_path / name
    doc = {"name": name.rsplit(".", 1)[0], "vertices": pts} if as_object else pts
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_solve_double_json(tmp_path, capsys):
    poly = _write_polygon(tmp_path, DOUBLE_PTS)
    rc, out, err = _run(capsys, ["solve", "--polygon", poly,
                                 "--theta-deg", "0"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["length"] == pytest.approx(4.0, abs=1e-9)
    assert doc["theta_deg"] == 0.0
    assert len(doc["cuts"]) == 4
    assert len(doc["gates"]) == 2
    assert sorted(doc["tour"]) == [[2.5, 2.0], [2.5, 4.0]]
    assert all(t["kind"] == "moving" for t in doc["tags"])


def test_solve_square_point(tmp_path, capsys):
    poly = _write_polygon(tmp_path, SQUARE_PTS, as_object=True)
    rc, out, err = _run(capsys, ["solve", "--polygon", poly,
                                 "--theta-deg", "45"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["length"] == 0.0
    assert doc["name"] == "poly"
    assert doc["tour"] == [[0.0, 0.0]]


def test_solve_floats_have_nine_decimals(tmp_path, capsys):
    poly = _write_polygon(tmp_path, DOUBLE_PTS)
    rc, out, _ = _run(capsys, ["solve", "--polygon", poly,
                               "--theta-deg", "10"])
    assert rc == 0
    assert '"length":2.550045591' in out


def test_solve_refuses_event_angle(tmp_path, capsys):
    poly = _write_polygon(tmp_path, DOUBLE_PTS)
    rc, out, err = _run(capsys, ["solve", "--polygon", poly,
                                 "--theta-deg", "75.9638"])
    assert rc == 2
    assert "Validity" in err
    assert "try" in err


def test_solve_writes_json_and_svg_files(tmp_path, capsys):
    poly = _write_polygon(tmp_path, DOUBLE_PTS)
    out_json = tmp_path / "sol.json"
    out_svg = tmp_path / "sol.svg"
    rc, out, _ = _run(capsys, ["solve", "--polygon", poly,
                               "--theta-deg", "0",
                               "--json", str(out_json),
                               "--svg", str(out_svg)])
    assert rc == 0
    assert out == ""
    doc = json.loads(out_json.read_text())
    assert doc["length"] == pytest.approx(4.0, abs=1e-9)
    svg = out_svg.read_text()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_verify_round_trip(tmp_path, capsys):
    poly = _write_polygon(tmp_path, DOUBLE_PTS)
    sol = tmp_path / "sol.json"
    rc, _, _ = _run(capsys, ["solve", "--polygon", poly, "--theta-deg", "0",
                             "--json", str(sol)])
    assert rc == 0
    rc, out, err = _run(capsys, ["verify", "--polygon", poly,
                                 "--theta-deg", "0", "--tour", str(sol)])
    assert rc == 0
    assert "valid" in out
    assert "4 cuts" in out


def test_verify_rejects_bad_tour(tmp_path, capsys):
    poly = _write_polygon(tmp_path, DOUBLE_PTS)
    tour = tmp_path / "tour.json"
    tour.write_text(json.dumps([[7.0, 1.0]]))
    rc, out, err = _run(capsys, ["verify", "--polygon", poly,
                                 "--theta-deg", "0", "--tour", str(tour)])
    assert rc == 3
    assert "violated" in err
    assert "misses by" in err


def test_verify_point_tour(tmp_path, capsys):
    poly = _write_polygon(tmp_path, UNOTCH_PTS)
    tour = tmp_path / "tour.json"
    tour.write_text(json.dumps({"tour": [[4.0, 2.0]]}))
    rc, out, _ = _run(capsys, ["verify", "--polygon", poly,
                               "--theta-deg", "0", "--tour", str(tour)])
    assert rc == 0


def test_verify_rejects_vertex_outside_polygon(tmp_path, capsys):
    poly = _write_polygon(tmp_path, DOUBLE_PTS)
    tour = tmp_path / "tour.json"
    tour.write_text(json.dumps([[4.0, 1.0], [6.0, 3.0]]))
    rc, out, err = _run(capsys, ["verify", "--polygon", poly,
                                 "--theta-deg", "0.5", "--tour", str(tour)])
    assert rc == 3
    assert ("invalid: tour vertex (6.000000,3.000000) lies outside the "
            "polygon") in err


def test_exit_one_on_bad_inputs(tmp_path, capsys):
    good = _write_polygon(tmp_path, SQUARE_PTS)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    bowtie = _write_polygon(
        tmp_path, [[0, 0], [2, 2], [2, 0], [0, 2]], name="bowtie.json")
    nan_tour = tmp_path / "nan_tour.json"
    nan_tour.write_text(json.dumps([[1, 1], [math.nan, 2]]))
    # json reads 1e999 as inf and NaN as nan, which it cannot print back
    inf_name = tmp_path / "inf_name.json"
    inf_name.write_text('{"name": 1e999, "vertices": %s}'
                        % json.dumps(SQUARE_PTS))
    nan_name = tmp_path / "nan_name.json"
    nan_name.write_text('{"name": NaN, "vertices": %s}'
                        % json.dumps(SQUARE_PTS))
    cases = [
        ["solve", "--polygon", str(tmp_path / "missing.json"),
         "--theta-deg", "10"],
        ["solve", "--polygon", str(bad_json), "--theta-deg", "10"],
        ["solve", "--polygon", bowtie, "--theta-deg", "10"],
        ["solve", "--polygon", good, "--theta-deg", "180"],
        ["solve", "--polygon", good, "--theta-deg", "-5"],
        ["sweep", "--polygon", good, "--step-deg", "0"],
        ["verify", "--polygon", good, "--theta-deg", "10",
         "--tour", str(nan_tour)],
        ["solve", "--polygon", str(inf_name), "--theta-deg", "10"],
        ["solve", "--polygon", str(nan_name), "--theta-deg", "10"],
        # the sweep's sampling is fixed: no config file is read
        ["optimize", "--polygon", good, "--config", good],
    ]
    for argv in cases:
        rc, out, err = _run(capsys, argv)
        assert rc == 1, argv
        assert "error" in err, argv
        if argv[2].endswith("_name.json"):
            assert "name must be a string or null" in err, argv


@pytest.mark.parametrize("step", ["nan", "inf", "0"])
def test_sweep_step_must_be_finite_and_positive(tmp_path, capsys, step):
    poly = _write_polygon(tmp_path, SQUARE_PTS)
    rc, _, err = _run(capsys, ["sweep", "--polygon", poly,
                               "--step-deg", step])
    assert rc == 1
    assert "--step-deg" in err


def test_optimize_double(tmp_path, capsys):
    poly = _write_polygon(tmp_path, DOUBLE_PTS)
    csv = tmp_path / "curve.csv"
    rc, out, _ = _run(capsys, ["optimize", "--polygon", poly,
                               "--csv", str(csv)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["best_length"] == 0.0
    assert doc["best_theta_deg"] == pytest.approx(60.481878, abs=1e-4)
    assert len(doc["events"]) == 16
    assert len(doc["intervals"]) == 9
    assert doc["sample_count"] > 100
    types = {e["type"] for e in doc["events"]}
    assert {"Validity", "Passing", "Jumping", "Bending", "Cuddle"} <= types
    lines = csv.read_text().splitlines()
    assert lines[0] == "theta_deg,length"
    assert len(lines) == doc["sample_count"] + 1
    first = lines[1].split(",")
    assert len(first) == 2
    float(first[0]), float(first[1])


def test_optimize_writes_svg(tmp_path, capsys):
    poly = _write_polygon(tmp_path, DOUBLE_PTS)
    out_svg = tmp_path / "best.svg"
    rc, out, _ = _run(capsys, ["optimize", "--polygon", poly,
                               "--svg", str(out_svg)])
    assert rc == 0
    assert json.loads(out)["best_length"] == 0.0
    svg = out_svg.read_text()
    assert svg.startswith("<svg ")
    assert "<circle" in svg


def test_sweep_csv(tmp_path, capsys):
    poly = _write_polygon(tmp_path, SQUARE_PTS)
    rc, out, _ = _run(capsys, ["sweep", "--polygon", poly,
                               "--step-deg", "30"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "theta_deg,length"
    assert len(lines) == 7
    assert all(line.endswith(",0.000000000") for line in lines[1:])


def test_outputs_are_deterministic(tmp_path, capsys):
    poly = _write_polygon(tmp_path, DOUBLE_PTS)
    argv = ["optimize", "--polygon", poly]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_clockwise_input_is_reversed(tmp_path, capsys):
    poly = _write_polygon(tmp_path, list(reversed(SQUARE_PTS)),
                          name="cw.json")
    rc, out, err = _run(capsys, ["solve", "--polygon", poly,
                                 "--theta-deg", "45"])
    assert rc == 0
    assert "clockwise" in err
    assert json.loads(out)["length"] == 0.0
