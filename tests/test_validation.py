"""Input validation: netlist repair/reject and Bookshelf diagnostics."""

import numpy as np
import pytest

from repro.geometry import PlacementRegion, Rect
from repro.netlist import (
    Netlist,
    NetlistBuilder,
    load_bookshelf,
    load_netlist,
    netlist_from_string,
    netlist_to_string,
    validate_netlist,
)
from repro.netlist.cell import Cell


def _region(w=100.0, h=100.0):
    return PlacementRegion(bounds=Rect(0.0, 0.0, w, h))


def _text_netlist():
    """Canonical text of a two-cell design: one movable cell, one pad."""
    b = NetlistBuilder("t")
    b.add_cell("a", 4.0, 4.0)
    b.add_fixed_cell("pad", 1.0, 1.0, x=0.0, y=0.0)
    b.add_net("n", [("pad", "output"), ("a", "input")])
    return netlist_to_string(b.build())


def _with_cell_field(text, cell, column, value):
    """*text* with field *column* of *cell*'s record set to *value*."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        tokens = line.split()
        if tokens[:2] == ["cell", cell]:
            tokens[column] = value
            lines[i] = " ".join(tokens) + "\n"
            return "".join(lines), i + 1
    raise AssertionError(f"no record for cell {cell!r}")


#: Token positions of a text-format cell record's fields ("cell" is 0).
TEXT_COLUMNS = {"width": 2, "height": 3, "x": 6, "y": 7, "delay": 8,
                "input_cap": 9, "power": 10}


class TestNetlistConstructionRejects:
    def test_nonfinite_cell_size_rejected(self):
        # NaN compares False with everything, so a "width <= 0" check alone
        # lets it through; Cell checks finiteness itself.
        with pytest.raises(ValueError, match="non-finite size"):
            Netlist("bad", [Cell("a", float("nan"), 2.0)], [])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("field", ["width", "height"])
    def test_cell_needs_finite_positive_size(self, field, value):
        size = {"width": 1.0, "height": 1.0, field: value}
        with pytest.raises(ValueError, match="cell 'a' has"):
            Cell("a", **size)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["x", "y"])
    def test_fixed_cell_needs_finite_position(self, field, value):
        where = {"x": 0.0, "y": 0.0, field: value}
        with pytest.raises(ValueError, match="non-finite position"):
            Cell("p", 1.0, 1.0, fixed=True, **where)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["delay", "input_cap", "power"])
    def test_cell_needs_finite_timing_and_power(self, field, value):
        with pytest.raises(ValueError, match=f"non-finite {field}"):
            Cell("a", 1.0, 1.0, **{field: value})

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("cell,field", [
        ("a", "width"), ("a", "height"), ("pad", "x"), ("pad", "y"),
        ("a", "delay"), ("a", "input_cap"), ("a", "power"),
    ])
    def test_text_format_nonfinite_field_names_the_line(self, cell, field, value):
        text, lineno = _with_cell_field(
            _text_netlist(), cell, TEXT_COLUMNS[field], value
        )
        with pytest.raises(
            ValueError, match=rf"^line {lineno}: (fixed )?cell '{cell}' has non-finite"
        ):
            netlist_from_string(text)

    def test_text_format_netlist_record_only_first(self):
        # A second netlist record used to start a new design silently,
        # dropping every cell and net read before it.
        text = _text_netlist() + "netlist other\n"
        with pytest.raises(ValueError, match=r"^line 6: a netlist record"):
            netlist_from_string(text)

    def test_load_netlist_names_the_file_and_line(self, tmp_path):
        text, lineno = _with_cell_field(
            _text_netlist(), "a", TEXT_COLUMNS["power"], "nan"
        )
        path = tmp_path / "d.netlist"
        path.write_text(text)
        with pytest.raises(
            ValueError, match=rf"^d\.netlist:{lineno}: cell 'a' has non-finite power"
        ):
            load_netlist(path)
        path.write_text("garbage\n")
        with pytest.raises(ValueError, match=r"^d\.netlist:1: not a repro netlist"):
            load_netlist(path)

    def test_negative_cell_size_rejected(self):
        cell = Cell("a", 1.0, 1.0)
        cell.width = -3.0  # post-construction corruption
        with pytest.raises(ValueError, match="negative size"):
            Netlist("bad", [cell], [])

    def test_nonfinite_fixed_position_rejected(self):
        cell = Cell("p", 1.0, 1.0, fixed=True, x=0.0, y=0.0)
        cell.y = float("inf")
        with pytest.raises(ValueError, match="non-finite position"):
            Netlist("bad", [cell], [])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_nonfinite_net_weight_rejected(self, weight):
        # NaN passes a "weight <= 0" check, and the placer would then fail
        # its numerical health check at iteration 0.
        b = NetlistBuilder("t")
        b.add_cell("a", 1.0, 1.0)
        b.add_cell("bb", 1.0, 1.0)
        with pytest.raises(ValueError, match="finite, positive weight"):
            b.add_net("n", ["a", "bb"], weight=weight)

    def test_nonfinite_pin_offset_rejected(self):
        b = NetlistBuilder("t")
        b.add_cell("a", 1.0, 1.0)
        b.add_cell("bb", 1.0, 1.0)
        with pytest.raises(ValueError, match="non-finite pin offset"):
            b.add_net("n", ["a", ("bb", "input", float("nan"), 0.0)])


class TestValidateNetlist:
    def _broken(self):
        b = NetlistBuilder("t")
        b.add_cell("a", 4.0, 4.0)
        b.add_cell("hint", 4.0, 4.0, x=np.nan, y=1.0)
        b.add_fixed_cell("pad", 1.0, 1.0, x=500.0, y=-3.0)
        b.add_net("good", ["a", "hint"])
        b.add_net("self", [("a", "output"), ("a", "input", 1.0, 0.0)])
        nl = b.build()
        # A zero width cannot be smuggled in: a netlist's cells are
        # read-only views, and construction rejects the size, so there is
        # no degenerate-size state left to repair.
        with pytest.raises(AttributeError, match="read-only"):
            nl.cells[0].width = 0.0
        zero = Cell("a", 4.0, 4.0)
        zero.width = 0.0
        with pytest.raises(ValueError, match="zero or negative size"):
            Netlist("t", [zero], [])
        return nl

    def test_clean_netlist_untouched(self, four_cell_netlist):
        out, report = validate_netlist(four_cell_netlist, region=_region())
        assert out is four_cell_netlist
        assert report.ok
        assert report.summary().startswith("netlist clean")

    def test_permissive_repairs_everything(self):
        out, report = validate_netlist(self._broken(), region=_region())
        assert report.num_repairs == 3
        codes = {issue.code for issue in report.issues}
        assert codes == {
            "nonfinite-hint",
            "fixed-outside-region",
            "degenerate-net",
        }
        # Repairs actually landed in the rebuilt netlist.
        assert out.cell_by_name("hint").x is None
        pad = out.cell_by_name("pad")
        assert (pad.x, pad.y) == (100.0, 0.0)
        assert [n.name for n in out.nets] == ["good"]
        # And the rebuilt netlist is clean on a second pass.
        again, report2 = validate_netlist(out, region=_region())
        assert again is out and report2.ok

    def test_strict_raises_with_full_damage_report(self):
        with pytest.raises(ValueError) as err:
            validate_netlist(self._broken(), region=_region(), strict=True)
        message = str(err.value)
        for code in ("nonfinite-hint", "fixed-outside-region",
                     "degenerate-net"):
            assert code in message

    def test_boundary_pads_are_legal(self):
        # Pads conventionally sit exactly on the region edge; the
        # half-open Rect containment must not flag them.
        b = NetlistBuilder("edge")
        b.add_cell("a", 2.0, 2.0)
        b.add_fixed_cell("pr", 1.0, 1.0, x=100.0, y=50.0)
        b.add_net("n", ["a", "pr"])
        nl = b.build()
        out, report = validate_netlist(nl, region=_region())
        assert report.ok and out is nl

    def test_feedthrough_net_on_two_cells_kept(self):
        # A net visiting the same cell twice but also another cell is NOT
        # degenerate (test_self_loop_pins_same_cell relies on this shape).
        b = NetlistBuilder("loop")
        b.add_cell("a", 5.0, 5.0)
        b.add_cell("bb", 5.0, 5.0)
        b.add_net("n", [("a", "output"), ("a", "input", 2.0, 0.0), ("bb", "input")])
        out, report = validate_netlist(b.build())
        assert report.ok
        assert out.num_nets == 1

    def test_report_by_code(self):
        _, report = validate_netlist(self._broken(), region=_region())
        assert len(report.by_code("degenerate-net")) == 1
        assert report.by_code("nope") == []


class TestBookshelfDiagnostics:
    def _write_minimal(self, tmp_path, nodes=None, nets=None, pl=None, scl=None):
        (tmp_path / "d.aux").write_text(
            "RowBasedPlacement : d.nodes d.nets d.pl d.scl\n"
        )
        (tmp_path / "d.nodes").write_text(nodes or (
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n"
            "  a 8 10\n  bb 8 10\n"
        ))
        (tmp_path / "d.nets").write_text(nets or (
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
            "NetDegree : 2  n0\n  a O : 0 0\n  bb I : 0 0\n"
        ))
        (tmp_path / "d.pl").write_text(pl or (
            "UCLA pl 1.0\na 0 0 : N\nbb 20 0 : N\n"
        ))
        (tmp_path / "d.scl").write_text(scl or (
            "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n"
            "  Coordinate : 0\n  Height : 10\n  Sitespacing : 1\n"
            "  SubrowOrigin : 0  NumSites : 100\nEnd\n"
        ))
        return tmp_path / "d.aux"

    def test_malformed_node_names_file_and_line(self, tmp_path):
        aux = self._write_minimal(tmp_path, nodes=(
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n"
            "  a 8 10\n  bb eight 10\n"
        ))
        with pytest.raises(ValueError, match=r"d\.nodes:5: malformed node"):
            load_bookshelf(aux)

    def test_unknown_pl_node_names_file_and_line(self, tmp_path):
        aux = self._write_minimal(tmp_path, pl=(
            "UCLA pl 1.0\na 0 0 : N\nghost 20 0 : N\n"
        ))
        with pytest.raises(ValueError, match=r"d\.pl:3: .*unknown node 'ghost'"):
            load_bookshelf(aux)

    def test_truncated_net_names_header_line(self, tmp_path):
        aux = self._write_minimal(tmp_path, nets=(
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\n"
            "NetDegree : 3  n0\n  a O : 0 0\n  bb I : 0 0\n"
        ))
        with pytest.raises(ValueError, match=r"d\.nets:4: .*declares 3 pins"):
            load_bookshelf(aux)

    def test_unknown_net_node_names_file_and_line(self, tmp_path):
        aux = self._write_minimal(tmp_path, nets=(
            "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
            "NetDegree : 2  n0\n  a O : 0 0\n  ghost_node I : 0 0\n"
        ))
        with pytest.raises(
            ValueError, match=r"d\.nets:4: .*unknown cell 'ghost_node'"
        ):
            load_bookshelf(aux)

    def test_malformed_row_attribute(self, tmp_path):
        aux = self._write_minimal(tmp_path, scl=(
            "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n"
            "  Coordinate : zero\n  Height : 10\n"
            "  SubrowOrigin : 0  NumSites : 100\nEnd\n"
        ))
        with pytest.raises(ValueError, match=r"d\.scl:4: malformed row"):
            load_bookshelf(aux)

    def test_duplicate_node_names_file_and_line(self, tmp_path):
        aux = self._write_minimal(tmp_path, nodes=(
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n"
            "  a 8 10\n  bb 8 10\n  a 9 10\n"
        ))
        with pytest.raises(
            ValueError, match=r"d\.nodes:6: duplicate node 'a' \(first at line 4\)"
        ):
            load_bookshelf(aux)

    @pytest.mark.parametrize("size", ["nan 10", "8 inf", "0 10", "8 -1"])
    def test_bad_node_size_names_file_and_line(self, tmp_path, size):
        aux = self._write_minimal(tmp_path, nodes=(
            "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n"
            f"  a 8 10\n  bb {size}\n"
        ))
        with pytest.raises(
            ValueError, match=r"d\.nodes:5: node 'bb' needs a finite, positive size"
        ):
            load_bookshelf(aux)

    @pytest.mark.parametrize("record", ["bb 20", "bb nan 0 : N /FIXED",
                                        "bb 20 inf : N"])
    def test_bad_pl_record_names_file_and_line(self, tmp_path, record):
        aux = self._write_minimal(tmp_path, pl=(
            f"UCLA pl 1.0\na 0 0 : N\n{record}\n"
        ))
        with pytest.raises(ValueError, match=r"d\.pl:3: malformed placement"):
            load_bookshelf(aux)

    @pytest.mark.parametrize("attribute", ["Coordinate : nan", "Height : 0",
                                           "Height : inf"])
    def test_bad_row_names_file_and_line(self, tmp_path, attribute):
        aux = self._write_minimal(tmp_path, scl=(
            "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n"
            f"  Coordinate : 0\n  Height : 10\n  {attribute}\n"
            "  SubrowOrigin : 0  NumSites : 100\nEnd\n"
        ))
        with pytest.raises(ValueError, match=r"d\.scl:[36]: "):
            load_bookshelf(aux)

    def test_comments_and_trailing_blanks_tolerated(self, tmp_path):
        aux = self._write_minimal(tmp_path, nodes=(
            "UCLA nodes 1.0\n"
            "# a comment line\n"
            "NumNodes : 2\nNumTerminals : 0\n"
            "  a 8 10  # trailing comment\n"
            "  bb 8 10\n"
            "\n\n   \n"
        ))
        netlist, _, _ = load_bookshelf(aux)
        assert netlist.num_cells == 2
