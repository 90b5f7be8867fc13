import json

import numpy as np
import numpy.testing as nptest
import pytest

import oracles
from sepball import algebra, jsonio, maps, matcore, sampling, sdp
from sepball.errors import SchemaError


def test_dumps_is_stable_and_newline_terminated():
    s = jsonio.dumps({"b": 1, "a": [1.5, 2.0]})
    assert s == jsonio.dumps({"a": [1.5, 2.0], "b": 1})
    assert s.endswith("\n")
    assert json.loads(s) == {"a": [1.5, 2.0], "b": 1}


def test_dumps_rejects_nan():
    # a SchemaError, so the CLI reports it as one error line
    for bad in (float("nan"), float("inf")):
        with pytest.raises(SchemaError):
            jsonio.dumps({"x": bad})


def _outside_strings(text: str) -> str:
    """The characters of JSON text that lie outside string literals."""
    out, in_string, escaped = [], False, False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        else:
            out.append(ch)
    return "".join(out)


def _keys_sorted(pairs):
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


def test_dumps_is_compact_canonical_text():
    doc = {"zeta": [1, -0.0, 5e-324, 1.7976931348623157e308, None, True],
           "Alpha": {"b key": "two words, \"quoted\"\n", "a": []},
           "m": jsonio.encode_matrix(np.array([[1 - 2j, 0.5j]])),
           "": {"y": {"x": 0}}}
    text = jsonio.dumps(doc)
    assert text.endswith("}\n") and text.count("\n") == 1
    assert not any(ch.isspace() for ch in _outside_strings(text[:-1]))
    assert json.loads(text, object_pairs_hook=_keys_sorted) == doc


def _per_entry(a) -> list:
    """The encoder's reference: one float() per real and imaginary part."""
    def pair(z):
        z = complex(z)
        return [float(z.real), float(z.imag)]
    if a.ndim == 1:
        return [pair(z) for z in a]
    return [[pair(z) for z in row] for row in a]


@pytest.mark.parametrize("shape", [(1,), (7,), (1, 1), (3, 5), (6, 6)])
def test_vectorised_encoders_match_per_entry_floats(shape):
    rng = sampling.rng_from(0xE7C, len(shape) * 10 + shape[-1])
    specials = np.array([0.0, -0.0, 5e-324, -5e-324,
                         1.7976931348623157e308, -1.7976931348623157e308])
    a = sampling.complex_gaussian(rng, shape)
    flat = a.reshape(-1)
    flat.real[::2] = rng.choice(specials, size=flat[::2].size)
    flat.imag[1::3] = rng.choice(specials, size=flat[1::3].size)
    # repr tells -0.0 from 0.0 and a numpy scalar from a Python float
    assert repr(jsonio.encode_matrix(a)) == repr(_per_entry(a))
    assert repr(jsonio.encode_matrix(a.real)) == repr(_per_entry(a.real))


def test_matrix_roundtrip():
    rng = sampling.rng_from(0x10, 0)
    m = sampling.complex_gaussian(rng, (3, 2))
    back = jsonio.decode_matrix(json.loads(jsonio.dumps(jsonio.encode_matrix(m))),
                                "m")
    nptest.assert_allclose(back, m, atol=0)
    assert back.dtype == np.complex128


def test_matrix_decode_errors_name_the_path():
    with pytest.raises(SchemaError, match="m"):
        jsonio.decode_matrix("nope", "m")
    with pytest.raises(SchemaError, match=r"m\[0\]"):
        jsonio.decode_matrix([5], "m")
    with pytest.raises(SchemaError, match=r"m\[1\]"):
        jsonio.decode_matrix([[[1, 0]], [[1, 0], [0, 1]]], "m")
    with pytest.raises(SchemaError, match=r"m\[0\]\[1\]"):
        jsonio.decode_matrix([[[1, 0], "x"]], "m")


def test_complex_decode_accepts_real_scalars():
    assert jsonio.decode_complex(2, "z") == 2.0 + 0j
    assert jsonio.decode_complex([1, -1], "z") == 1 - 1j
    with pytest.raises(SchemaError):
        jsonio.decode_complex([1, 2, 3], "z")


def test_algebra_roundtrip():
    a = algebra.FdAlgebra((2, 3))
    obj = json.loads(jsonio.dumps(jsonio.encode_algebra(a)))
    assert jsonio.decode_algebra(obj) == a
    with pytest.raises(SchemaError, match="blocks"):
        jsonio.decode_algebra({"wrong": []})


def test_element_roundtrip():
    a = algebra.FdAlgebra((1, 2))
    b = algebra.FdAlgebra((2,))
    x = oracles.bipartite_identity(a, b)
    obj = json.loads(jsonio.dumps(jsonio.encode_element(x)))
    back = jsonio.decode_element(obj)
    assert back.alg_a == a and back.alg_b == b
    for p, q in zip(back.parts, x.parts):
        nptest.assert_allclose(p, q)


def test_element_decode_fills_missing_pairs_with_zero():
    a = algebra.FdAlgebra((1, 2))
    b = algebra.FdAlgebra((2,))
    obj = {
        "algA": {"blocks": [1, 2]},
        "algB": {"blocks": [2]},
        "parts": [{"k": 1, "l": 0, "m": jsonio.encode_matrix(np.eye(4))}],
    }
    back = jsonio.decode_element(obj)
    nptest.assert_allclose(back.part(0, 0), np.zeros((2, 2)))
    nptest.assert_allclose(back.part(1, 0), np.eye(4))


def test_element_decode_rejects_out_of_grid_pair():
    obj = {
        "algA": {"blocks": [2]},
        "algB": {"blocks": [2]},
        "parts": [{"k": 1, "l": 0, "m": jsonio.encode_matrix(np.eye(4))}],
    }
    with pytest.raises(Exception):
        jsonio.decode_element(obj)


def test_map_roundtrip():
    f = maps.transpose_map(2)
    obj = json.loads(jsonio.dumps(jsonio.encode_map(f)))
    back = jsonio.decode_map(obj)
    assert back.dim_in == 2 and back.dim_out == 2
    nptest.assert_allclose(back.choi, f.choi)
    with pytest.raises(SchemaError, match="dimIn"):
        jsonio.decode_map({"dimOut": 2, "choi": []})


def test_sdp_problem_roundtrip():
    prob = sdp.SdpProblem(
        blocks=(2,),
        objective=(np.diag([2.0, 1.0]),),
        constraints=((1.0, (np.eye(2),)),),
    )
    obj = json.loads(jsonio.dumps(jsonio.encode_sdp_problem(prob)))
    back = jsonio.decode_sdp_problem(obj)
    assert back.blocks == prob.blocks
    nptest.assert_allclose(back.objective[0], prob.objective[0])
    assert back.constraints[0][0] == 1.0
    sol = sdp.solve(back)
    assert sol.status == "optimal"
    out = json.loads(jsonio.dumps(jsonio.encode_sdp_solution(sol)))
    assert out["status"] == "optimal"
    assert abs(out["primalObjective"] - 1.0) < 1e-8


def test_sdp_solution_encoding_handles_unbounded():
    prob = sdp.SdpProblem(
        blocks=(2,),
        objective=(np.diag([0.0, -1.0]),),
        constraints=((1.0, (np.diag([1.0, 0.0]),)),),
    )
    sol = sdp.solve(prob)
    assert sol.status == "unbounded"
    doc = json.loads(jsonio.dumps(jsonio.encode_sdp_solution(sol)))
    assert doc["status"] == "unbounded"
    assert doc["dualY"] == []


def test_load_document_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\n  broken\n}\n")
    with pytest.raises(SchemaError, match="line 2"):
        jsonio.load_document(str(p))


def test_load_document_roundtrip(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(jsonio.dumps({"k": [1, 2]}))
    assert jsonio.load_document(str(p)) == {"k": [1, 2]}
