"""Entity extractors (M17-M26) and rule engine (T4/A7) tests."""

from __future__ import annotations

import pytest

from documentai_ray.functions import minipdf
from documentai_ray.sources.pages import po_fields, po_lines
from documentai_ray.stages import entities, rules


PO_TEXT = "\n".join(po_lines(42))


class TestPoExtractor:
    def test_all_fields(self):
        got = entities.extract_po(PO_TEXT)
        want = po_fields(42)
        for f in entities.PO_FIELDS:
            assert got[f] == want[f], f

    def test_missing_fields_empty(self):
        got = entities.extract_po("no purchase order content here")
        assert all(v == "" for v in got.values())

    def test_incoterms_word_boundary(self):
        # 'DELIVERY CFR ...' must not capture 'ERY CFR ...'
        got = entities.extract_po("DELIVERY CFR SINGAPORE (INCOTERMS 2020)")
        assert got["incoterms"] == "CFR SINGAPORE (INCOTERMS 2020)"


class TestGenericExtractor:
    def test_kinds(self):
        text = ("Meeting on 12.03.2024 cost USD 1,250.00 — contact "
                "bob@example.com or +1 (555) 123-4567.")
        got = entities.extract_generic(text)
        assert got["dates"] == ["12.03.2024"]
        assert got["amounts"] == ["USD 1,250.00"]
        assert got["emails"] == ["bob@example.com"]
        assert len(got["phones"]) == 1


class TestTableDetection:
    def test_runs_of_columns(self):
        text = ("header line\n"
                "a1  b1  c1\n"
                "a2  b2  c2\n"
                "trailing prose\n")
        tables = entities.detect_tables(text)
        assert tables == [[["a1", "b1", "c1"], ["a2", "b2", "c2"]]]

    def test_single_column_line_is_not_table(self):
        assert entities.detect_tables("only\nprose\nlines") == []


class TestHtmlTablesMarkedSections:
    # an unparsable ``<![`` is a bogus comment up to the next ``>``; the
    # cells around it are still read
    @pytest.mark.parametrize("section", ["<![]>", "<![ x>", "<![foo bar]>"])
    def test_unparsable_section_is_skipped(self, section):
        html = f"<table><tr><td>a</td>{section}<td>b</td></tr></table>"
        assert entities.extract_html_tables(html) == [[["a", "b"]]]

    def test_unterminated_at_end_of_input(self):
        html = "<table><tr><td>a</td><td>b</td></tr></table><!["
        assert entities.extract_html_tables(html) == [[["a", "b"]]]

    def test_cdata_section_unchanged(self):
        html = "<table><tr><td>a</td><![CDATA[x]]><td>b</td></tr></table>"
        assert entities.extract_html_tables(html) == [[["a", "b"]]]


class TestGoodsTable:
    def test_rsplit_parsing(self):
        text = (
            "DESCRIPTION HSCODE QTY UNIT PRICE AMOUNT\n"
            "HOT ROLLED STEEL COILS 7208.39 500.00 MT 250.00 125,000.00\n"
            "COLD ROLLED SHEET 7209.16 100.00 MT 300.00 30,000.00\n"
            "\n"
        )
        goods = entities.parse_goods_table(text)
        assert len(goods) == 2
        assert goods[0]["description"] == "HOT ROLLED STEEL COILS"
        assert goods[0]["hs_code"] == "7208.39"
        assert goods[1]["amount"] == "30,000.00"

    def test_no_header_no_goods(self):
        assert entities.parse_goods_table("random text") == []


class TestInvoiceExtractor:
    def test_golden_fields_roundtrip(self):
        from documentai_ray.sources.pages import invoice_fields, invoice_goods, invoice_lines

        for doc_id in (4, 14, 123454, 970004):
            text = "\n".join(invoice_lines(doc_id))
            assert entities.extract_invoice(text) == invoice_fields(doc_id)
            assert entities.parse_goods_table(text) == invoice_goods(doc_id)

    def test_dispatch_in_entities_batch(self):
        import pyarrow as pa

        from documentai_ray.sources.pages import invoice_goods, invoice_lines

        batch = pa.table({
            "text": pa.array(["\n".join(invoice_lines(24)), "no entities here"],
                             pa.large_string()),
            "category": pa.array(["invoice", "data_report"], pa.string()),
        })
        out = entities.entities_batch(batch)
        assert out.column("inv_number").to_pylist() == ["INV-20024", ""]
        gi = out.column("goods_items").to_pylist()
        assert gi[0] == invoice_goods(24)
        assert gi[1] == []
        # completeness over INV_FIELDS for invoice rows
        assert out.column("completeness").to_pylist()[0] == 1.0


class TestWordBoxPipeline:
    def test_po_fields_matched_to_layout_geometry(self):
        """M23 end-to-end on the PDF path: line-preserving MINIPDF layout →
        walk → extract_po → match_entity_boxes; bbox values follow the
        documented closed-form geometry (×2 scale)."""
        payload, _ = minipdf.build_from_lines(po_lines(12), shuffle_key=12)
        text, boxes = minipdf.walk(payload)
        ents = entities.extract_po(text)
        m = entities.match_entity_boxes(
            {f: ents[f] for f in ("po_number", "seller", "buyer")}, boxes)
        assert m["po_number"] == {"text": "PO-10012", "page": 1, "x0": 196.0,
                                  "y0": 100.0, "x1": 292.0, "y1": 120.0,
                                  "conf": 1.0}
        # multi-word consecutive-run match with merged bbox
        assert m["seller"]["x0"] == 164.0 and m["seller"]["x1"] == 532.0
        assert m["seller"]["y0"] == 124.0 and m["seller"]["y1"] == 144.0
        assert m["buyer"]["x0"] == 152.0 and m["buyer"]["x1"] == 356.0


class TestLcExtractor:
    def test_all_34_codes_both_row_shapes(self):
        from documentai_ray.sources.pages import _html_lc, lc_tag_values

        tags = entities.extract_lc_tags(_html_lc(29))
        assert len(tags) == 34
        assert tags == lc_tag_values(29)

    def test_normalization_and_first_wins(self):
        html = (
            "<table>"
            "<tr><td>f - 40a</td><td>desc</td><td>IRREVOCABLE</td></tr>"
            "<tr><td>F-40A</td><td>LATER</td></tr>"
            "<tr><td>F59</td><td>BENEF</td></tr>"
            "<tr><td>NOTACODE</td><td>x</td></tr>"
            "</table>"
        )
        tags = entities.extract_lc_tags(html)
        assert tags == {"F-40A": "IRREVOCABLE", "F59": "BENEF"}
        assert entities.lc_rule_field("F-40A") == "40A"
        assert entities.lc_rule_field("F31D") == "31D"


class TestEntityBoxMatching:
    def _boxes(self, text):
        payload, _ = minipdf.build_from_text(text)
        _, boxes = minipdf.walk(payload)
        return boxes

    def test_exact_and_multiword(self):
        boxes = self._boxes("PO NUMBER PO-10042 SELLER ACME TRADING LIMITED")
        m = entities.match_entity_boxes(
            {"po_number": "PO-10042", "seller": "ACME TRADING LIMITED", "none": ""},
            boxes,
        )
        assert m["po_number"]["text"] == "PO-10042"
        assert m["seller"]["text"] == "ACME TRADING LIMITED"
        assert m["seller"]["x1"] > m["seller"]["x0"]
        assert m["none"] is None

    def test_substring_fallback(self):
        boxes = self._boxes("total 125,000.00USD end")
        m = entities.match_entity_boxes({"amt": "125,000.00"}, boxes)
        assert m["amt"] is not None


class TestValidatorsAndCompleteness:
    def test_format_checks(self):
        ents = {"po_date": "12.03.2024", "total_amount": "125,000.00",
                "currency": "USD", "seller": "X", "missing": ""}
        checks = entities.validate_field_formats(ents)
        assert checks["po_date"] and checks["total_amount"] and checks["currency"]
        assert checks["seller"] and not checks["missing"]

    def test_completeness(self):
        assert entities.completeness_score({"a": "x", "b": ""}, ["a", "b"]) == 0.5


class TestRuleCompiler:
    def test_pattern_rule(self):
        r = rules.compile_rule("PO_NUMBER", "The value must match pattern PO-[0-9]+")
        assert r.check("PO-123") and not r.check("XX-1") and not r.check("")

    def test_date_rules(self):
        r = rules.compile_rule("D", "The value must be a valid date in DD.MM.YYYY format")
        assert r.check("28.02.2024") and not r.check("31.02.2024") and not r.check("x")
        r2 = rules.compile_rule("D", "The value must be in YYMMDD format")
        assert r2.check("240228") and not r2.check("249999")

    def test_number_rules(self):
        gt = rules.compile_rule("Q", "The value must be a number greater than 0")
        lt = rules.compile_rule("Q", "The value must be a number less than 300")
        assert gt.check("257.00") and not gt.check("0") and not gt.check("abc")
        assert lt.check("257.00") and not lt.check("300")
        assert gt.check("1,250.00")  # thousands separator stripped

    def test_contains_equals_required(self):
        assert rules.compile_rule("I", "The value must contain INCOTERMS 2020").check(
            "CFR SINGAPORE (INCOTERMS 2020)")
        eq = rules.compile_rule("T", "The value of 40A tag must be IRREVOCABLE")
        assert eq.check("irrevocable") and not eq.check("revocable")
        req = rules.compile_rule("S", "The value must not be empty")
        assert req.check("x") and not req.check("  ")

    def test_currency_amount_rule(self):
        r = rules.compile_rule(
            "32B", "The value must be a valid ISO 4217 currency amount greater than 0")
        assert r.check("USD 125,000.00") and not r.check("US 1") and not r.check("USD 0")

    def test_validate_entities_summary(self):
        rl = rules.load_rules(
            "configs/validation_rules/purchase_order_rules.txt")
        assert len(rl) == 8
        ents = {f.lower(): v for f, v in po_fields(42).items()}
        res = rules.validate_entities(
            {"po_number": ents["po_number"], "po_date": ents["po_date"],
             "seller": ents["seller"], "buyer": ents["buyer"],
             "quantity": ents["quantity"], "total_amount": ents["total_amount"],
             "incoterms": ents["incoterms"]},
            rl,
        )
        # doc 42: qty = 142 < 300 → all pass
        assert res["rules_passed"] == 8 and res["overall_valid"]

    def test_quantity_cap_fails_for_large_docs(self):
        rl = rules.load_rules("configs/validation_rules/purchase_order_rules.txt")
        f = {k.lower(): v for k, v in po_fields(250).items()}  # qty 350
        res = rules.validate_entities(f, rl)
        assert res["rules_passed"] == 7 and not res["overall_valid"]


class TestLcRulesAndCrossField:
    def test_lc_rules_compile(self):
        rl = rules.load_rules("configs/validation_rules/lc_rules.txt")
        assert len(rl) == 6
        types = {r.field: r.rule_type for r in rl}
        assert types["40A"] == "equals"
        assert types["31C"] == "date"
        assert types["31D"] == "cross_date"
        assert types["32B"] == "currency_amount"

    def test_lc_validation_pass(self):
        rl = rules.load_rules("configs/validation_rules/lc_rules.txt")
        ents = {"40a": "IRREVOCABLE", "31c": "240301", "31d": "240315",
                "32b": "USD 125,000.00", "50": "APPLICANT CO", "59": "BENEFICIARY CO"}
        res = rules.validate_entities(ents, rl)
        assert res["overall_valid"], res

    def test_cross_field_date_failure(self):
        rl = rules.load_rules("configs/validation_rules/lc_rules.txt")
        ents = {"40a": "IRREVOCABLE", "31c": "240315", "31d": "240301",
                "32b": "USD 1", "50": "X", "59": "Y"}
        res = rules.validate_entities(ents, rl)
        assert res["rules_failed"] == 1  # 31D before 31C

    def test_cross_field_missing_operand_fails(self):
        r = rules.compile_rule("31D", "The value must be a date on or after the value of 31C")
        assert r.cross_check("240315", {}) is False
        assert r.cross_check("", {"31c": "240301"}) is False

    def test_cross_field_mixed_formats(self):
        r = rules.compile_rule("D2", "The value must be a date after the value of D1")
        assert r.cross_check("16.03.2024", {"d1": "240315"}) is True
        assert r.cross_check("14.03.2024", {"d1": "240315"}) is False
