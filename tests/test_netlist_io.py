"""Round-trip tests for the plain-text netlist and placement formats."""

import numpy as np
import pytest

from repro import Placement
from repro.netlist import (
    load_netlist,
    load_placement,
    netlist_from_string,
    netlist_to_string,
    save_netlist,
    save_placement,
)


class TestNetlistRoundTrip:
    def test_string_round_trip(self, four_cell_netlist):
        text = netlist_to_string(four_cell_netlist)
        back = netlist_from_string(text)
        assert back.name == four_cell_netlist.name
        assert back.num_cells == four_cell_netlist.num_cells
        assert back.num_nets == four_cell_netlist.num_nets
        for a, b in zip(four_cell_netlist.cells, back.cells):
            assert (a.name, a.width, a.height, a.fixed) == (
                b.name,
                b.width,
                b.height,
                b.fixed,
            )
            assert a.delay == b.delay and a.input_cap == b.input_cap
        for a, b in zip(four_cell_netlist.nets, back.nets):
            assert a.name == b.name and a.weight == b.weight
            assert [p.cell for p in a.pins] == [p.cell for p in b.pins]
            assert [p.direction for p in a.pins] == [p.direction for p in b.pins]

    def test_file_round_trip(self, four_cell_netlist, tmp_path):
        path = tmp_path / "netlist.txt"
        save_netlist(four_cell_netlist, path)
        back = load_netlist(path)
        assert back.num_cells == four_cell_netlist.num_cells

    def test_generated_circuit_round_trip(self, tiny_circuit):
        text = netlist_to_string(tiny_circuit.netlist)
        back = netlist_from_string(text)
        assert back.stats() == tiny_circuit.netlist.stats()

    def test_bad_header(self):
        with pytest.raises(ValueError):
            netlist_from_string("garbage\n")

    def test_bad_record(self):
        with pytest.raises(ValueError):
            netlist_from_string("# repro netlist v1\nbogus record here\n")


class TestPlacementRoundTrip:
    def test_round_trip(self, four_cell_netlist, four_cell_region, tmp_path):
        p = Placement.at_center(four_cell_netlist, four_cell_region)
        a = four_cell_netlist.cell_by_name("a").index
        p.move_to(a, 12.5, 37.5)
        path = tmp_path / "placement.txt"
        save_placement(p, path)
        back = load_placement(four_cell_netlist, path)
        assert np.allclose(back.x, p.x) and np.allclose(back.y, p.y)

    def test_missing_cell_rejected(self, four_cell_netlist, four_cell_region, tmp_path):
        path = tmp_path / "placement.txt"
        p = Placement.at_center(four_cell_netlist, four_cell_region)
        save_placement(p, path)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")  # drop last cell
        with pytest.raises(ValueError):
            load_placement(four_cell_netlist, path)

    def test_bad_header(self, four_cell_netlist, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            load_placement(four_cell_netlist, path)


class TestPlacementRecords:
    """Every bad placement record names its file and line."""

    def _write(self, netlist, region, tmp_path, edit):
        path = tmp_path / "p.placement"
        save_placement(Placement.at_center(netlist, region), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        return path

    @pytest.mark.parametrize("record,message", [
        ("a nan 0.0", "cell 'a' has non-finite position"),
        ("a 1.0 inf", "cell 'a' has non-finite position"),
        ("a 1.0", "malformed placement record 'a 1.0'"),
        ("a 1.0 2.0 3.0", "malformed placement record"),
        ("a x 2.0", "malformed placement record"),
        ("ghost 1.0 2.0", "placement names unknown cell 'ghost'"),
    ])
    def test_bad_record_names_the_line(
        self, four_cell_netlist, four_cell_region, tmp_path, record, message
    ):
        def edit(lines):
            k = next(i for i, line in enumerate(lines) if line.startswith("a "))
            return lines[:k] + [record] + lines[k + 1:]

        path = self._write(four_cell_netlist, four_cell_region, tmp_path, edit)
        lineno = path.read_text().splitlines().index(record) + 1
        with pytest.raises(ValueError, match=rf"^p\.placement:{lineno}: {message}"):
            load_placement(four_cell_netlist, path)

    def test_duplicate_record_names_both_lines(
        self, four_cell_netlist, four_cell_region, tmp_path
    ):
        path = self._write(
            four_cell_netlist, four_cell_region, tmp_path, lambda ls: ls + [ls[-1]]
        )
        n = len(path.read_text().splitlines())
        with pytest.raises(
            ValueError,
            match=rf"^p\.placement:{n}: duplicate record for cell 'b' "
                  rf"\(first at line {n - 1}\)",
        ):
            load_placement(four_cell_netlist, path)

    def test_missing_cell_names_the_file(
        self, four_cell_netlist, four_cell_region, tmp_path
    ):
        path = self._write(
            four_cell_netlist, four_cell_region, tmp_path, lambda ls: ls[:-1]
        )
        with pytest.raises(
            ValueError, match=r"^p\.placement: placement file misses cell 'b'"
        ):
            load_placement(four_cell_netlist, path)
