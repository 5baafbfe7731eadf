"""Grid and Hamiltonian containers: constructors, algebra, validation, I/O."""

import numpy as np
import pytest

from canonfactor import (DomainError, Grid, HalfLineFunction, Hamiltonian,
                         ValidationError, random_unimodular, read_hamiltonian,
                         wave_amplitudes, write_hamiltonian)


def test_grid_basics():
    g = Grid([0.0, 1.0, 2.5, 4.0])
    assert g.n_cells == 3
    assert g.span == 4.0
    assert np.allclose(g.widths, [1.0, 1.5, 1.5])


def test_grid_cell_index_last_cell_closed():
    g = Grid([0.0, 1.0, 2.0])
    assert g.cell_index(0.0) == 0
    assert g.cell_index(0.999) == 0
    assert g.cell_index(1.0) == 1
    # right endpoint belongs to the last cell
    assert g.cell_index(2.0) == 1


def test_grid_rejects_bad_nodes():
    with pytest.raises(ValidationError):
        Grid([0.0, 2.0, 1.0])
    with pytest.raises(ValidationError):
        Grid([0.5, 1.0])        # must start at 0
    with pytest.raises(ValidationError):
        Grid([0.0])


def test_identity_and_constant_constructors():
    ham = Hamiltonian.identity(5.0, 4)
    assert ham.grid.n_cells == 4
    assert np.allclose(ham.cells, np.eye(2))
    hc = Hamiltonian.constant([[2.0, 1.0], [1.0, 1.0]], span=3.0)
    assert np.allclose(hc.at(1.7), [[2.0, 1.0], [1.0, 1.0]])
    assert hc.unimodular


def test_from_entries_and_accessors():
    nodes = [0.0, 1.0, 3.0]
    ham = Hamiltonian.from_entries(nodes, [2.0, 1.0], [1.0, 0.0],
                                   [1.0, 1.0])
    assert np.allclose(ham.h1, [2.0, 1.0])
    assert np.allclose(ham.h, [1.0, 0.0])
    assert np.allclose(ham.h2, [1.0, 1.0])
    assert np.allclose(ham.dets, 1.0)


def test_dual_is_conjugation_by_j():
    ham = Hamiltonian.constant([[2.0, 1.0], [1.0, 1.0]], span=1.0)
    dual = ham.dual()
    # J^T [[2,1],[1,1]] J = [[1,-1],[-1,2]], worked by hand
    assert np.allclose(dual.at(0.5), [[1.0, -1.0], [-1.0, 2.0]])
    # involution
    assert np.allclose(dual.dual().cells, ham.cells)


def test_dilate_scales_nodes_only():
    ham = Hamiltonian.constant([[2.0, 0.0], [0.0, 0.5]], span=2.0, n_cells=2)
    dil = ham.dilate(3.0)
    assert dil.grid.span == 6.0
    assert np.allclose(dil.cells, ham.cells)
    with pytest.raises(DomainError):
        ham.dilate(-1.0)


@pytest.mark.parametrize("y", [np.nan, np.inf, 0.0, -1.0])
def test_dilate_rejects_a_bad_factor(y):
    ham = Hamiltonian.identity(2.0, 2)
    f = HalfLineFunction.from_uniform([1.0, 2.0], tail=1.0)
    for obj in (ham, f):
        with pytest.raises(DomainError, match="must be positive"):
            obj.dilate(y)


def test_sqrt_cells_hand_value():
    # sqrt of [[2,1],[1,1]] is [[3,1],[1,2]]/sqrt(5)
    ham = Hamiltonian.constant([[2.0, 1.0], [1.0, 1.0]], span=1.0)
    s = ham.sqrt_cells()[0]
    assert np.allclose(s, np.array([[3.0, 1.0], [1.0, 2.0]]) / np.sqrt(5.0))
    assert np.allclose(s @ s, [[2.0, 1.0], [1.0, 1.0]], atol=1e-14)


def test_random_unimodular_properties():
    rng = np.random.default_rng(3)
    for _ in range(25):
        ham = random_unimodular(rng, 6, span=float(rng.uniform(2.0, 9.0)))
        assert np.max(np.abs(ham.dets - 1.0)) < 1e-12
        assert np.all(ham.h1 > 0)
        # PSD with det 1 means positive definite cells
        eigs = np.linalg.eigvalsh(ham.cells)
        assert np.all(eigs > 0)


def test_validate_flags_defects():
    # construction itself runs the same checks, so a cell with
    # det = -3 never yields a usable object
    with pytest.raises(ValidationError, match="det"):
        Hamiltonian.from_entries([0.0, 1.0], [1.0], [2.0], [1.0])
    with pytest.raises(ValidationError, match="finite"):
        Hamiltonian.from_entries([0.0, 1.0], [np.nan], [0.0], [1.0])
    # finite entries whose determinant overflows: inf - inf = nan for
    # the indefinite cell, inf for the definite diag(1e200, 1e200)
    for h in (2e200, 0.0):
        with pytest.raises(ValidationError, match="cell 1 has a determinant"):
            Hamiltonian.from_entries([0.0, 1.0, 2.0], [1.0, 1e200],
                                     [0.0, h], [1.0, 1e200])


def test_unimodular_flag_checked():
    # det = 2: the flag is read off the cells, and the waves refuse them
    ham = Hamiltonian.from_entries([0.0, 1.0], [2.0], [0.0], [1.0])
    assert not ham.unimodular
    with pytest.raises(DomainError, match="unimodular"):
        wave_amplitudes(ham, [1.0])


def test_unimodular_read_off_the_cells(tmp_path):
    h = Hamiltonian.from_entries([0, 1, 2], [2, 1], [1, 0], [1, 1])
    assert h.unimodular
    path = tmp_path / "h.txt"
    write_hamiltonian(h, path)
    assert read_hamiltonian(path) == h
    # the waves run on det-1 cells however they were built
    alphas, _ = wave_amplitudes(h, [0.5, 1.0])
    again, _ = wave_amplitudes(Hamiltonian(h.grid, h.cells), [0.5, 1.0])
    assert np.all(np.isfinite(alphas)) and np.array_equal(alphas, again)


def test_hamiltonian_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    ham = random_unimodular(rng, 5, span=4.0)
    path = tmp_path / "h.txt"
    write_hamiltonian(ham, path)
    back = read_hamiltonian(path)
    assert back.grid == ham.grid
    assert np.array_equal(back.cells, ham.cells)   # repr round trip is exact


def test_read_hamiltonian_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("no header\n0 1 1 0 1\n")
    with pytest.raises(ValidationError):
        read_hamiltonian(path)


@pytest.mark.parametrize("body", [
    "",                                  # header only
    "0 1 1 0 x\n",                       # non-numeric field
    "0 1 1 0 nan\n",                     # non-finite field
    "0 1 1 0\n",                         # wrong column count
])
def test_read_hamiltonian_malformed_rows(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text("#canon-hamiltonian v1\n" + body)
    with pytest.raises(ValidationError):
        read_hamiltonian(path)
