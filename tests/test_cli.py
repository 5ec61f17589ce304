"""Command surface: schemas, round trips, determinism, exit codes."""

import json
import time

import numpy as np
import pytest

from groundlattice import fixtures, jsonio
from groundlattice.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_VERIFY_FAILED, main
from groundlattice.cone import analyze_cone, extreme_rays
from groundlattice.errors import InputError
from groundlattice.fixtures import m3_p_bottom, m3_subspace, three_bit_two_local
from groundlattice.config import RunConfig
from groundlattice.lattice import build_lattice, enumerate_coatoms, q_max
from groundlattice.linalg import Projection, hermitian_matrix
from groundlattice.manybody import SiteSystem, marginal_map
from groundlattice.subspace import from_spanning_set


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str) -> dict:
    start = stdout.index("{")
    return json.loads(stdout[start:])


class TestSchemas:
    def test_matrix_round_trip(self):
        a = hermitian_matrix([[1, 2 + 1j, 0], [2 - 1j, -1, 3j], [0, -3j, 0.5]])
        obj = jsonio.matrix_to_json(a)
        b = jsonio.matrix_from_json(obj)
        assert np.allclose(a, b)
        assert jsonio.matrix_to_json(b) == obj

    def test_matrix_validation(self):
        with pytest.raises(InputError):
            jsonio.matrix_from_json({"n": 2, "entries": [[1, 0]]})
        with pytest.raises(InputError):
            jsonio.matrix_from_json({"entries": []})

    def test_projection_round_trip_float(self):
        rng = np.random.default_rng(0)
        cols = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        p = Projection.from_columns(4, cols)
        obj = jsonio.projection_to_json(p)
        q = jsonio.projection_from_json(obj, 4)
        assert p.same_image(q, tol=1e-9)
        assert jsonio.projection_to_json(q) == jsonio.projection_to_json(
            jsonio.projection_from_json(jsonio.projection_to_json(q), 4))

    def test_projection_round_trip_support(self):
        p = Projection.from_support(8, {1, 5, 6})
        obj = jsonio.projection_to_json(p)
        assert obj == {"support": [1, 5, 6]}
        q = jsonio.projection_from_json(obj, 8)
        assert q.classical_support == p.classical_support

    def test_subspace_round_trip_float(self):
        u = m3_subspace()
        obj = jsonio.subspace_to_json(u)
        v = jsonio.subspace_from_json(obj)
        assert v.dim == u.dim
        assert v.contains_identity
        assert jsonio.subspace_to_json(v) == jsonio.subspace_to_json(
            jsonio.subspace_from_json(jsonio.subspace_to_json(v)))

    def test_subspace_round_trip_float_from_dependent_span(self):
        sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
        obj = {"engine": "float-hermitian", "ambient_n": 2,
               "basis": [jsonio.matrix_to_json(m)
                         for m in (np.eye(2), sx + sz, 2 * (sx + sz), sz)]}
        u = jsonio.subspace_from_json(obj)
        assert u.dim == 3 and u.contains_identity
        first = json.dumps(jsonio.subspace_to_json(u))
        again = json.dumps(jsonio.subspace_to_json(jsonio.subspace_from_json(json.loads(first))))
        assert again == first

    def test_subspace_round_trip_exact(self):
        u = three_bit_two_local()
        obj = jsonio.subspace_to_json(u)
        v = jsonio.subspace_from_json(obj)
        assert v.dim == 7
        assert v.is_exact and v.contains_identity
        assert jsonio.subspace_to_json(v) == obj
        # a JSON float is not a rational: 0.1 would be read as its binary
        # expansion 3602879701896397 / 2**55
        with pytest.raises(InputError, match="floats"):
            jsonio.subspace_from_json({**obj, "vectors": [[0.1] + v[1:] for v in obj["vectors"]]})

    def test_cone_json(self):
        u = m3_subspace()
        desc = analyze_cone(m3_p_bottom(), u)
        assert jsonio.cone_to_json(desc)["extreme_rays"] is None
        obj = jsonio.cone_to_json(desc, extreme_rays(desc))
        assert obj["dim_K"] == 2 and obj["is_ray"] is False
        assert obj["witness"]["n"] == 3
        assert len(obj["extreme_rays"]) == 2

    def test_lattice_json_and_dot(self):
        u = three_bit_two_local()
        lat = build_lattice(u)
        obj = jsonio.lattice_to_json(lat)
        assert obj["completeness"] == "exact"
        assert len(obj["nodes"]) == lat.node_count
        assert len(obj["coatoms"]) == 16
        dot = jsonio.lattice_to_dot(lat)
        assert dot.startswith("digraph") and "->" in dot

    def test_marginal_tuple_json(self):
        sys_ = SiteSystem.qubits(2)
        rho = np.eye(4, dtype=complex) / 4
        tup = marginal_map(rho, sys_, 1)
        obj = jsonio.marginal_tuple_to_json(tup)
        assert [e["nu"] for e in obj] == [[0], [1]]
        assert all(e["matrix"]["n"] == 2 for e in obj)


class TestCommands:
    def test_membership_on_files(self, tmp_path, capsys):
        u = three_bit_two_local()
        sub_file = tmp_path / "u.json"
        sub_file.write_text(json.dumps(jsonio.subspace_to_json(u)))
        proj_file = tmp_path / "p.json"
        proj_file.write_text(json.dumps({"support": [0, 1]}))
        code, out, _ = run_cli(capsys, ["membership", str(sub_file), str(proj_file)])
        assert code == EXIT_OK
        report = last_json(out)
        assert report["payload"]["member"] is True

    def test_membership_rank_seven_not_member(self, tmp_path, capsys):
        u = three_bit_two_local()
        sub_file = tmp_path / "u.json"
        sub_file.write_text(json.dumps(jsonio.subspace_to_json(u)))
        proj_file = tmp_path / "p.json"
        proj_file.write_text(json.dumps({"support": [0, 1, 2, 3, 4, 5, 6]}))
        code, out, _ = run_cli(capsys, ["membership", str(sub_file), str(proj_file)])
        assert code == EXIT_OK
        report = last_json(out)
        assert report["payload"]["member"] is False
        assert report["payload"]["q_max"] == {"support": list(range(8))}

    def test_membership_identity_dim_zero(self, tmp_path, capsys):
        u = three_bit_two_local()
        sub_file = tmp_path / "u.json"
        sub_file.write_text(json.dumps(jsonio.subspace_to_json(u)))
        proj_file = tmp_path / "p.json"
        proj_file.write_text(json.dumps({"support": list(range(8))}))
        code, out, _ = run_cli(capsys, ["membership", str(sub_file), str(proj_file)])
        report = last_json(out)
        assert report["payload"]["member"] is True
        assert report["payload"]["dim_K"] == 0
        assert report["margin"] is None       # the exact engine tests no threshold

    def test_lattice_three_bits_spec_string(self, capsys):
        code, out, _ = run_cli(capsys, ["lattice", "bits:N=3:k=2"])
        assert code == EXIT_OK
        report = last_json(out)
        assert report["payload"]["coatom_count"] == 16
        assert "margin" not in report      # only the membership and cone reports carry it

    def test_report_echoes_the_engine_that_ran(self, capsys):
        # :engine= selects the engine of sites: specs only, float by default;
        # bits: is exact, qubits: float, and fixtures carry their own
        for argv, engine in [(["lattice", "bits:N=3:k=2"], "exact"),
                             (["klocal", "qubits:N=2:k=1"], "float"),
                             (["klocal", "sites:dims=2,3:k=1:engine=exact"], "exact"),
                             (["klocal", "sites:dims=[2,3]:k=1"], "float"),
                             (["coatoms", "m3-example", "--samples", "5"], "float")]:
            code, out, _ = run_cli(capsys, argv)
            assert code == EXIT_OK
            assert last_json(out)["config"]["engine"] == engine

    def test_lattice_span_id(self, capsys):
        code, out, _ = run_cli(capsys, ["lattice", "span{id}:n=3", "--samples", "20"])
        assert code == EXIT_OK
        report = last_json(out)
        assert len(report["payload"]["nodes"]) == 2

    def test_lattice_m3_fixture_contains_markers(self, capsys):
        code, out, _ = run_cli(capsys,
                               ["lattice", "m3-example", "--samples", "25", "--seed", "3"])
        assert code == EXIT_OK
        report = last_json(out)
        ranks = [node["rank"] for node in report["payload"]["nodes"]]
        assert 0 in ranks and 3 in ranks  # bottom and identity
        assert 1 in ranks and 2 in ranks  # 0+1 meet and the rank-two coatoms
        assert report["payload"]["completeness"] == "sampled"

    def test_coatoms_m3_thousand_samples(self, capsys):
        # the rank-one family has one diagonal, (1/2, 1/2, 0), so a dedupe
        # keyed on the diagonal compared all ~700 coatoms pairwise
        started = time.perf_counter()
        code, out, _ = run_cli(capsys, ["coatoms", "m3-example", "--samples", "1000"])
        assert time.perf_counter() - started < 15.0
        assert code == EXIT_OK
        coatoms = last_json(out)["payload"]["coatoms"]
        assert len(coatoms) >= 100
        assert {len(c["image_basis"]) for c in coatoms} == {1, 2}
        assert sum(len(c["image_basis"]) == 2 for c in coatoms) == 2   # p_plus and p_minus

    def test_coatoms_report_the_enumeration_alone(self, capsys):
        # five descents miss the rank-two coatom p_minus, and the report
        # does not add it
        code, out, _ = run_cli(capsys, ["coatoms", "m3-example", "--samples", "5",
                                        "--seed", "1"])
        assert code == EXIT_OK
        coatoms, flag = enumerate_coatoms(m3_subspace(), RunConfig(samples=5, seed=1))
        expected = {"completeness": flag, "count": len(coatoms),
                    "coatoms": [jsonio.projection_to_json(p) for p in coatoms]}
        assert json.dumps(last_json(out)["payload"], sort_keys=True) == \
            json.dumps(expected, sort_keys=True)

    def test_lattice_reports_build_lattice_alone(self, capsys):
        code, out, _ = run_cli(capsys, ["lattice", "m3-example", "--samples", "5",
                                        "--seed", "1"])
        assert code == EXIT_OK
        lat = build_lattice(m3_subspace(), RunConfig(samples=5, seed=1))
        expected = jsonio.lattice_to_json(lat)
        expected.update(coatom_count=len(lat.coatoms), partial=False)
        assert json.dumps(last_json(out)["payload"], sort_keys=True) == \
            json.dumps(expected, sort_keys=True)

    def test_coatoms_and_lattice_report_the_reading(self, tmp_path, capsys):
        # a rotated bits:N=3:k=2 commutes and is rational: its reports carry
        # the reading's two residuals outside the byte-identical payload;
        # the exact engine and m3 have no reading
        rng = np.random.default_rng(3)
        z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        v = np.linalg.qr(z)[0]
        u = from_spanning_set([v @ m @ v.conj().T
                               for m in three_bit_two_local().basis_as_matrices()])
        sub_file = tmp_path / "u.json"
        sub_file.write_text(json.dumps(jsonio.subspace_to_json(u)))
        for command, count in (("coatoms", "count"), ("lattice", "coatom_count")):
            reports = [last_json(run_cli(capsys, [command, str(sub_file)])[1]) for _ in range(2)]
            assert json.dumps(reports[0]["payload"]) == json.dumps(reports[1]["payload"])
            assert reports[0]["payload"]["completeness"] == "complete"
            assert reports[0]["payload"][count] == 16
            reading = reports[0]["reading"]
            assert set(reading) == {"off_diagonal", "rational"}
            assert 0 <= reading["off_diagonal"] <= 1e-9 and 0 <= reading["rational"] <= 1e-9
            assert "reading" not in reports[0]["payload"]
        for argv in (["coatoms", "bits:N=3:k=2"], ["lattice", "m3-example", "--samples", "5"]):
            assert last_json(run_cli(capsys, argv)[1])["reading"] is None

    def test_lattice_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, ["lattice", "span{id}:n=2", "--samples", "5",
                                        "--out", "dot"])
        assert code == EXIT_OK
        assert out.startswith("digraph")

    def test_klocal_dimensions(self, capsys):
        code, out, _ = run_cli(capsys, ["klocal", "qubits:N=3:k=2"])
        assert code == EXIT_OK
        report = last_json(out)
        assert report["payload"]["dim_U"] == 37
        assert report["payload"]["dim_marginal_body"] == 36

    def test_marginal_command(self, tmp_path, capsys):
        rho = np.eye(4) / 4
        mat_file = tmp_path / "rho.json"
        mat_file.write_text(json.dumps(jsonio.matrix_to_json(rho.astype(complex))))
        code, out, _ = run_cli(capsys, ["marginal", str(mat_file), "qubits:N=2:k=1"])
        assert code == EXIT_OK
        report = last_json(out)
        assert len(report["payload"]["marginals"]) == 2

    def test_cone_command_with_rays(self, tmp_path, capsys):
        u = m3_subspace()
        sub_file = tmp_path / "u.json"
        sub_file.write_text(json.dumps(jsonio.subspace_to_json(u)))
        proj_file = tmp_path / "p.json"
        proj_file.write_text(json.dumps(jsonio.projection_to_json(m3_p_bottom())))
        code, out, _ = run_cli(capsys, ["cone", str(sub_file), str(proj_file), "--rays"])
        assert code == EXIT_OK
        report = last_json(out)
        assert report["payload"]["dim_K"] == 2
        assert len(report["payload"]["extreme_rays"]) == 2
        # the facial reduction's closest call, outside the payload
        assert "margin" not in report["payload"]
        assert report["margin"] == analyze_cone(m3_p_bottom(), u).margin > 100

    def test_qmax_of_the_m3_bottom(self, tmp_path, capsys):
        proj_file = tmp_path / "p.json"
        proj_file.write_text(json.dumps(jsonio.projection_to_json(m3_p_bottom())))
        code, out, _ = run_cli(capsys, ["qmax", "m3-example", str(proj_file)])
        assert code == EXIT_OK
        payload = last_json(out)["payload"]
        assert payload["rank"] == 1
        assert jsonio.projection_from_json(payload["q_max"], 3).same_image(
            q_max(m3_p_bottom(), m3_subspace()))

    def test_qmax_exact_returns_a_support(self, tmp_path, capsys):
        proj_file = tmp_path / "p.json"
        proj_file.write_text(json.dumps({"support": [0, 3]}))
        code, out, _ = run_cli(capsys, ["qmax", "bits:N=3:k=2", str(proj_file)])
        assert code == EXIT_OK
        assert last_json(out)["payload"] == {"q_max": {"support": [0, 3]}, "rank": 2}

    def test_determinism_identical_payloads(self, capsys):
        _, out1, _ = run_cli(capsys, ["coatoms", "m3-example", "--samples", "15",
                                      "--seed", "11"])
        _, out2, _ = run_cli(capsys, ["coatoms", "m3-example", "--samples", "15",
                                      "--seed", "11"])
        p1, p2 = last_json(out1), last_json(out2)
        assert json.dumps(p1["payload"], sort_keys=True) == \
            json.dumps(p2["payload"], sort_keys=True)
        assert json.dumps(p1["config"], sort_keys=True) == \
            json.dumps(p2["config"], sort_keys=True)


class TestExitCodes:
    def test_unknown_fixture(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "nope"])
        assert code == EXIT_INPUT_ERROR
        assert "unknown fixture" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["membership", "/does/not/exist.json", "p.json"])
        assert code == EXIT_INPUT_ERROR
        assert "cannot read" in err

    def test_bad_json_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, ["membership", str(bad), str(bad)])
        assert code == EXIT_INPUT_ERROR
        assert "line 1" in err

    def test_unreadable_files_name_their_argument(self, capsys):
        missing = "/does/not/exist.json"
        code, _, err = run_cli(capsys, ["membership", "bits:N=3:k=1", missing])
        assert code == EXIT_INPUT_ERROR
        assert f"cannot read projection file {missing!r}" in err
        code, _, err = run_cli(capsys, ["marginal", missing, "bits:N=3:k=1"])
        assert code == EXIT_INPUT_ERROR
        assert f"cannot read matrix file {missing!r}" in err

    def test_image_basis_projection_on_exact_subspace(self, tmp_path, capsys):
        proj_file = tmp_path / "p.json"
        proj_file.write_text(json.dumps({"image_basis": []}))
        code, _, err = run_cli(capsys, ["membership", "bits:N=3:k=2", str(proj_file)])
        assert code == EXIT_INPUT_ERROR
        assert "support-based" in err

    def test_engine_validated(self, capsys):
        # a sites: spec names exact or float; bits: and qubits: carry their own
        for spec in ("sites:dims=[2,3]:k=1:engine=magic", "sites:dims=[2,3]:k=1:engine=",
                     "bits:N=3:k=1:engine=float", "qubits:N=2:k=1:engine=exact"):
            code, out, err = run_cli(capsys, ["klocal", spec])
            assert code == EXIT_INPUT_ERROR and not out, spec
            assert f"cannot read {spec!r}" in err and "(field: system)" in err, spec

    @pytest.mark.parametrize("argv, field", [
        # a missing, unknown or malformed key ended in a KeyError or
        # ValueError traceback with exit 1, or was dropped without a word
        (["klocal", "bits:N=3"], "system"),
        (["klocal", "bits:N=x:k=2"], "system"),
        (["klocal", "bits:N=3:K=2"], "system"),
        (["coatoms", "bits:N=3:k=2:k=1"], "system"),
        (["klocal", "sites:dims=[2,x]:k=1"], "system"),
        (["klocal", "sites:dims=[2,3]:k=1:engine=magic"], "system"),
        (["klocal", "span{id}:n=2"], "system"),
        (["lattice", "span{id}:n=x"], "subspace"),
        (["lattice", "span{id}:n=0"], "subspace"),
        (["lattice", "span{id}"], "subspace"),
        # a value out of range (N = 0, k > N, a site of dimension 1) carried no field
        (["klocal", "bits:N=0:k=1"], "system"),
        (["klocal", "bits:N=3:k=9"], "system"),
        (["klocal", "sites:dims=[2,1]:k=1"], "system"),
    ])
    def test_malformed_specs(self, capsys, argv, field):
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_INPUT_ERROR and not out
        assert f"(field: {field})" in err and "Traceback" not in err

    def test_tol_reaches_the_json_parsers(self, tmp_path, capsys):
        # U = span{1, Z, Z + 1e-7 X} is span{1, Z} at a rank cutoff of 1e-5,
        # and so is the image of the columns e0, e0 + 1e-7 e1: at the default
        # cutoff the coatoms of the 3-dimensional U were sampled
        z, x = np.diag([1, -1]), np.array([[0, 1], [1, 0]])
        sub_file, proj_file = tmp_path / "u.json", tmp_path / "p.json"
        sub_file.write_text(json.dumps({"engine": "float-hermitian", "ambient_n": 2,
                                        "basis": [jsonio.matrix_to_json(m) for m in
                                                  (np.eye(2), z, z + 1e-7 * x)]}))
        proj_file.write_text(json.dumps({"image_basis": [[[1, 0], [0, 0]], [[1, 0], [1e-7, 0]]]}))
        code, out, _ = run_cli(capsys, ["coatoms", str(sub_file), "--tol", "1e-5"])
        payload = last_json(out)["payload"]
        assert code == EXIT_OK and (payload["completeness"], payload["count"]) == ("complete", 2)
        for tol, rank in (("1e-5", 1), ("1e-9", 2)):
            code, out, _ = run_cli(capsys, ["qmax", str(sub_file), str(proj_file), "--tol", tol])
            assert code == EXIT_OK and last_json(out)["payload"]["rank"] == rank, tol

    def test_subspace_file_engine_validated(self, tmp_path, capsys):
        # "exact" is the flag's name, not an engine: the file must not fall
        # through to the float engine
        u = jsonio.subspace_to_json(m3_subspace())
        sub_file = tmp_path / "u.json"
        proj_file = tmp_path / "p.json"
        proj_file.write_text(json.dumps(jsonio.projection_to_json(m3_p_bottom())))
        for engine in ("exact", "float", "magic"):
            sub_file.write_text(json.dumps({**u, "engine": engine}))
            code, _, err = run_cli(capsys, ["membership", str(sub_file), str(proj_file)])
            assert code == EXIT_INPUT_ERROR
            assert f"unknown engine {engine!r}" in err
        # nor may exact vectors run under the float engine's name
        exact = jsonio.subspace_to_json(three_bit_two_local())
        sub_file.write_text(json.dumps({**exact, "engine": "float-hermitian"}))
        proj_file.write_text(json.dumps({"support": [0, 1]}))
        code, _, err = run_cli(capsys, ["membership", str(sub_file), str(proj_file)])
        assert code == EXIT_INPUT_ERROR
        assert "needs 'basis'" in err

    def test_malformed_projection_files(self, tmp_path, capsys):
        # int() would read 0.5 as configuration 0 and decide a support nobody gave
        proj_file = tmp_path / "p.json"
        for subspace, obj, field in (("bits:N=3:k=2", {"support": [0.5, 2]}, "support"),
                                     ("bits:N=3:k=2", {"support": ["a"]}, "support"),
                                     ("m3-example", {"image_basis": [[1, 0]]}, "image_basis")):
            proj_file.write_text(json.dumps(obj))
            code, out, err = run_cli(capsys, ["membership", subspace, str(proj_file)])
            assert code == EXIT_INPUT_ERROR and not out
            assert f"(field: {field})" in err

    @pytest.mark.parametrize("obj, field", [
        # int() read 2.7 as n = 2 and decided a matrix nobody gave
        ({"n": 2.7, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}, "n"),
        ({"n": True, "entries": [[1, 0]]}, "n"),
        ({"n": -1, "entries": []}, "n"),
        # bare numbers ended in a TypeError traceback
        ({"n": 2, "entries": [1, 0, 0, 1]}, "entries"),
        ({"n": 2, "entries": [[1, 0], [0, 0], [0, 0], ["1", 0]]}, "entries"),
        ({"n": 1, "entries": [[1, 0, 0]]}, "entries"),
        # a matrix that is not hermitian was read as its hermitian part
        ({"n": 2, "entries": [[0, 0], [1, 0], [0, 0], [0, 0]]}, "entries"),
    ])
    def test_malformed_matrix_files(self, tmp_path, capsys, obj, field):
        mat_file = tmp_path / "a.json"
        mat_file.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, ["marginal", str(mat_file), "qubits:N=1:k=1"])
        assert code == EXIT_INPUT_ERROR and not out
        assert f"(field: {field})" in err
        sub_file, proj_file = tmp_path / "u.json", tmp_path / "p.json"
        sub_file.write_text(json.dumps({"engine": "float-hermitian", "ambient_n": 2,
                                        "basis": [obj]}))
        proj_file.write_text(json.dumps({"image_basis": [[[1, 0], [0, 0]]]}))
        code, out, err = run_cli(capsys, ["membership", str(sub_file), str(proj_file)])
        assert code == EXIT_INPUT_ERROR and not out
        assert f"(field: {field})" in err

    def test_each_command_takes_only_the_options_it_reads(self, tmp_path, capsys):
        # the shared options, each with a value off RunConfig's default and
        # the RunConfig field it sets, and the options that the positional
        # spec replaced, which no command takes
        shared = {"--tol": ("1e-8", "tol_rank"), "--seed": ("1", "seed"),
                  "--samples": ("5", "samples"), "--max-nodes": ("100001", "max_nodes"),
                  "--k": ("2", None), "--engine": ("float", None),
                  "--system": ("bits:N=2:k=1", None)}
        reads = {"membership": "--tol", "qmax": "--tol", "cone": "--tol --seed",
                 "coatoms": "--tol --seed --samples",
                 "lattice": "--tol --seed --samples --max-nodes",
                 "klocal": "", "marginal": "", "verify": "--tol --seed --max-nodes"}
        proj_file, mat_file = tmp_path / "p.json", tmp_path / "m.json"
        proj_file.write_text(json.dumps({"support": [0, 3]}))
        mat_file.write_text(json.dumps(jsonio.matrix_to_json(np.eye(4, dtype=complex) / 4)))
        inputs = {"membership": ["bits:N=3:k=2", str(proj_file)],
                  "qmax": ["bits:N=3:k=2", str(proj_file)],
                  "cone": ["bits:N=3:k=2", str(proj_file)], "coatoms": ["bits:N=3:k=2"],
                  "lattice": ["bits:N=3:k=2"], "klocal": ["bits:N=3:k=2"],
                  "marginal": [str(mat_file), "bits:N=2:k=1"],
                  "verify": ["3bit-ff"]}
        defaults = RunConfig()
        assert set(reads) == set(inputs) and len(reads) == 8
        for command, options in reads.items():
            options = options.split()
            config = {shared[o][1]: getattr(defaults, shared[o][1])
                      for o in options if shared[o][1]}
            config["engine"] = None if command == "verify" else "exact"
            code, out, _ = run_cli(capsys, [command, *inputs[command]])
            assert code == EXIT_OK and last_json(out)["config"] == config, command
            for option, (value, field) in shared.items():
                argv = [command, *inputs[command], option, value]
                if option in options:
                    code, out, _ = run_cli(capsys, argv)
                    expected = {**config, field: type(config[field])(value)} if field else config
                    assert code == EXIT_OK and last_json(out)["config"] == expected, argv
                else:
                    with pytest.raises(SystemExit) as exc:
                        main(argv)
                    assert exc.value.code == EXIT_INPUT_ERROR, argv
                    assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_klocal_missing_k(self, capsys):
        code, _, err = run_cli(capsys, ["klocal", "bits:N=3"])
        assert code == EXIT_INPUT_ERROR
        assert "as bits:N=<int>:k=<int> (field: system)" in err

    def test_verify_failure(self, monkeypatch, capsys):
        def checks(cfg):
            return [("holds", True, ""), ("does not hold", False, "x=1")]

        monkeypatch.setitem(fixtures.CHECKS, "failing", checks)
        code, out, _ = run_cli(capsys, ["verify", "failing"])
        assert code == EXIT_VERIFY_FAILED
        assert "PASS: holds\nFAIL: does not hold (x=1)\n" in out
        assert last_json(out)["payload"]["all_ok"] is False


class TestVerifyCommand:
    def test_verify_m3_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "m3"])
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.count("PASS") >= 5

    def test_verify_3bit_ff_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "3bit-ff"])
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_verify_klocal_dims_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "klocal-dims"])
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_verify_3bit_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "3bit"])
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.count("PASS") == 5

    def test_membership_requires_identity(self, tmp_path, capsys):
        # span of sigma_X alone: no identity component
        obj = {"engine": "float-hermitian", "ambient_n": 2,
               "basis": [{"n": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}]}
        sub_file = tmp_path / "u.json"
        sub_file.write_text(json.dumps(obj))
        proj_file = tmp_path / "p.json"
        proj_file.write_text(json.dumps({"support": [0]}))
        code, _, err = run_cli(capsys, ["membership", str(sub_file), str(proj_file)])
        assert code == EXIT_INPUT_ERROR
        assert "identity" in err

    def test_lattice_budget_exit_code_and_partial_flag(self, capsys):
        code, out, _ = run_cli(capsys, ["lattice", "bits:N=3:k=2", "--max-nodes", "50"])
        assert code == 3
        report = last_json(out)
        assert report["payload"]["partial"] is True
        assert len(report["payload"]["nodes"]) <= 50

    def test_marginal_exact_engine_diagonal(self, tmp_path, capsys):
        diag = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        mat_file = tmp_path / "f.json"
        mat_file.write_text(json.dumps(jsonio.matrix_to_json(diag)))
        code, out, _ = run_cli(capsys, ["marginal", str(mat_file), "bits:N=2:k=1"])
        assert code == EXIT_OK
        report = last_json(out)
        entries = report["payload"]["marginals"]
        assert [e["nu"] for e in entries] == [[0], [1]]
        # uniform distribution marginalizes to (1/2, 1/2) on each site
        for e in entries:
            vals = [re for re, _ in e["matrix"]["entries"]]
            assert vals[0] == pytest.approx(0.5) and vals[3] == pytest.approx(0.5)

    def test_marginal_exact_rejects_nondiagonal(self, tmp_path, capsys):
        mat = np.full((4, 4), 0.25, dtype=complex)
        mat_file = tmp_path / "f.json"
        mat_file.write_text(json.dumps(jsonio.matrix_to_json(mat)))
        code, _, err = run_cli(capsys, ["marginal", str(mat_file), "bits:N=2:k=1"])
        assert code == EXIT_INPUT_ERROR
        assert "diagonal" in err
