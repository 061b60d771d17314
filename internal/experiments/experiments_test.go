package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// quickOptions runs the experiments at the default 5% scale — the
// smallest scale at which the synthetic datasets preserve the paper's
// skew profile (the >70%-of-pairs head block needs a tail of thousands
// of small blocks, which a 1% sample cannot hold).
func quickOptions() Options {
	return DefaultOptions()
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

func TestFigure8Profile(t *testing.T) {
	tbl, err := Figure8(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 datasets", len(tbl.Rows))
	}
	// Column 6 is the largest block's pair share; the paper documents
	// >70% for DS1 — at tiny scales it may dip, but it must dominate.
	for _, row := range tbl.Rows {
		share := parseFloat(t, row[6])
		if share < 40 {
			t.Errorf("%s largest-block pair share = %s, want the dominant block to hold most pairs", row[0], row[6])
		}
		ents := parseFloat(t, row[4])
		if ents > 15 {
			t.Errorf("%s largest-block entity share = %s, want a few percent", row[0], row[4])
		}
	}
}

func TestFigure9Shapes(t *testing.T) {
	tbl, err := Figure9(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	// At s=0 Basic is fastest (no BDM job).
	if b, bs := parseFloat(t, first[2]), parseFloat(t, first[3]); b >= bs {
		t.Errorf("s=0: Basic (%.0f) should beat BlockSplit (%.0f)", b, bs)
	}
	// At s=1 Basic is much slower than both balanced strategies.
	b1 := parseFloat(t, last[2])
	for col, name := range map[int]string{3: "BlockSplit", 4: "PairRange"} {
		v := parseFloat(t, last[col])
		if b1 < 4*v {
			t.Errorf("s=1: Basic (%.0f) should be ≫ %s (%.0f); paper reports >12×", b1, name, v)
		}
	}
	// Balanced strategies stay stable across skew (within 3× of their
	// own minimum once skew kicks in).
	for col := 3; col <= 4; col++ {
		lo, hi := 1e18, 0.0
		for _, row := range tbl.Rows[1:] {
			v := parseFloat(t, row[col])
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > 3*lo {
			t.Errorf("column %d varies %g..%g across skew; should be robust", col, lo, hi)
		}
	}
}

func TestFigure10Shapes(t *testing.T) {
	tbl, err := Figure10(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		basic := parseFloat(t, row[1])
		for col := 2; col <= 3; col++ {
			if v := parseFloat(t, row[col]); basic < 2*v {
				t.Errorf("r=%s: Basic (%.0f) should clearly exceed col %d (%.0f)", row[0], basic, col, v)
			}
		}
	}
}

func TestFigure11Shapes(t *testing.T) {
	tbl, err := Figure11(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		bsU, bsS := parseFloat(t, row[1]), parseFloat(t, row[2])
		prU, prS := parseFloat(t, row[3]), parseFloat(t, row[4])
		if bsS < bsU*1.2 {
			t.Errorf("r=%s: sorted input should degrade BlockSplit (unsorted %.0f, sorted %.0f)", row[0], bsU, bsS)
		}
		if prS > prU*1.6 {
			t.Errorf("r=%s: PairRange should be largely unaffected by sorting (unsorted %.0f, sorted %.0f)", row[0], prU, prS)
		}
	}
}

func TestFigure12Shapes(t *testing.T) {
	tbl, err := Figure12(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	basic0 := parseFloat(t, tbl.Rows[0][1])
	prevPR := 0.0
	for i, row := range tbl.Rows {
		// Basic constant.
		if v := parseFloat(t, row[1]); v != basic0 {
			t.Errorf("Basic map output changed with r: %g vs %g", v, basic0)
		}
		// PairRange strictly increasing.
		pr := parseFloat(t, row[3])
		if pr <= prevPR {
			t.Errorf("row %d: PairRange map output not increasing (%g after %g)", i, pr, prevPR)
		}
		prevPR = pr
		// All strategies emit at least the input size when there is work.
		if bs := parseFloat(t, row[2]); bs < basic0 {
			t.Errorf("BlockSplit map output %g below input size %g", bs, basic0)
		}
	}
	// PairRange eventually exceeds BlockSplit (the Figure 12 crossover).
	lastBS := parseFloat(t, tbl.Rows[len(tbl.Rows)-1][2])
	lastPR := parseFloat(t, tbl.Rows[len(tbl.Rows)-1][3])
	if lastPR <= lastBS {
		t.Errorf("at r=160 PairRange (%g) should emit more than BlockSplit (%g)", lastPR, lastBS)
	}
}

func TestFigure13Shapes(t *testing.T) {
	tbl, err := Figure13(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	basicSpeedup := parseFloat(t, last[4])
	bsSpeedup := parseFloat(t, last[6])
	prSpeedup := parseFloat(t, last[8])
	if basicSpeedup > 3 {
		t.Errorf("Basic speedup at 100 nodes = %.1f; paper: does not scale past ~2 nodes", basicSpeedup)
	}
	if bsSpeedup < 3*basicSpeedup || prSpeedup < 3*basicSpeedup {
		t.Errorf("balanced strategies should scale far better than Basic (%.1f/%.1f vs %.1f)",
			bsSpeedup, prSpeedup, basicSpeedup)
	}
}

func TestFigure14Shapes(t *testing.T) {
	tbl, err := Figure14(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Speedups grow monotonically with nodes for both strategies.
	prevBS, prevPR := 0.0, 0.0
	for _, row := range tbl.Rows {
		bs, pr := parseFloat(t, row[4]), parseFloat(t, row[6])
		if bs < prevBS || pr < prevPR {
			t.Errorf("nodes=%s: speedup regressed (BS %.1f after %.1f, PR %.1f after %.1f)",
				row[0], bs, prevBS, pr, prevPR)
		}
		prevBS, prevPR = bs, pr
	}
	if prevBS < 10 || prevPR < 10 {
		t.Errorf("DS2 speedup at 100 nodes = %.1f/%.1f, want near-linear scaling region", prevBS, prevPR)
	}
}

func TestByNumber(t *testing.T) {
	if _, err := ByNumber(7, quickOptions()); err == nil {
		t.Error("figure 7 should be rejected")
	}
	if _, err := ByNumber(8, quickOptions()); err != nil {
		t.Errorf("figure 8: %v", err)
	}
}
