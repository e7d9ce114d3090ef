"""Position-auction kernel (GSP vs VCG): the Edelman-Ostrovsky-
Schwarz relationships pinned by hand — per-slot GSP ≥ VCG with
equality at the last slot, single-slot Vickrey collapse, truthful
VCG utility, and the free slot past the field."""

from __future__ import annotations

from documentai_ray.extras import position_auction_int


class TestPositionAuction:
    def test_two_slot_hand_case(self):
        """c = (10, 4), bids 7/6/1: GSP pays 10·6 = 60 and
        4·1 = 4; VCG pays (10−4)·6 + 4 = 40 and 4 — dominance in
        slot 1, EQUALITY at the last slot (both read c_S·b_{S+1}),
        revenues 64 vs 44, overcharge 20/64 = 312500 ppm."""
        out = position_auction_int(
            [("A", 7), ("B", 6), ("C", 1)], [10, 4])
        assert list(out["gsp_pay"]) == [60, 4]
        assert list(out["vcg_pay"]) == [40, 4]
        assert int(out["overcharge_ppm"].iloc[0]) == 312500
        assert out["gsp_dominates"].all()

    def test_single_slot_is_vickrey(self):
        """One slot: both mechanisms collapse to Vickrey's second
        price c·b₂ — the degenerate case where GSP IS truthful."""
        out = position_auction_int(
            [("A", 7), ("B", 6), ("C", 1)], [10])
        assert int(out["gsp_pay"].iloc[0]) \
            == int(out["vcg_pay"].iloc[0]) == 60
        assert int(out["overcharge_ppm"].iloc[0]) == 0

    def test_slot_past_the_field_is_free(self):
        """Exactly S bidders: the last slot's next bid is past the
        field (b_{S+1} = 0), so it pays 0 under BOTH rules."""
        out = position_auction_int(
            [("A", 9), ("B", 5)], [10, 4])
        assert int(out["gsp_pay"].iloc[1]) == 0
        assert int(out["vcg_pay"].iloc[1]) == 0

    def test_gsp_dominates_every_slot_and_truthful_utility(self):
        """The telescoping theorem on a 3-slot field: c_i·b_{i+1}
        ≥ vcg_pay_i term-by-term (bids descend), and truthful VCG
        utility is nonneg — c_i·b_i ≥ vcg_pay_i for every winner."""
        out = position_auction_int(
            [("A", 11), ("B", 8), ("C", 5), ("D", 3), ("E", 1)],
            [1000, 600, 300])
        assert (out["gsp_pay"] >= out["vcg_pay"]).all()
        assert ((out["ctr_permille"] * out["bid_micro"])
                >= out["vcg_pay"]).all()
        assert int(out["gsp_revenue"].iloc[0]) \
            >= int(out["vcg_revenue"].iloc[0])

    def test_equal_bids_tie_by_name(self):
        """Equal bids rank by name asc — the deterministic
        tiebreak both engines share."""
        out = position_auction_int(
            [("zeta", 5), ("alpha", 5)], [10, 4])
        assert list(out["bidder"]) == ["alpha", "zeta"]

    def test_fewer_bidders_than_slots_truncates(self):
        """2 bidders, 3 slots: only filled slots emit, and the
        effective CTR ladder ends at the last FILLED slot (c₃ plays
        no role in either payment)."""
        out = position_auction_int(
            [("A", 9), ("B", 5)], [1000, 600, 300])
        assert len(out) == 2
        assert list(out["slot"]) == [1, 2]
