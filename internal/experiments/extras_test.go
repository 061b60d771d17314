package experiments

import (
	"reflect"
	"strconv"
	"testing"
)

func TestAppendixDual(t *testing.T) {
	tbl, err := AppendixDual(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		// PairRange stays essentially perfectly balanced at every r.
		pr := parseFloat(t, row[3])
		if pr > 1.05 {
			t.Errorf("r=%s: two-source PairRange max/mean = %g, want ~1", row[0], pr)
		}
		// BlockSplit's balance is never catastrophic (its match-task
		// granularity bounds the straggler).
		bs := parseFloat(t, row[1])
		if bs > 5 {
			t.Errorf("r=%s: two-source BlockSplit max/mean = %g", row[0], bs)
		}
	}
}

func TestAblationsTable(t *testing.T) {
	tbl, err := Ablations(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]float64)
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("non-numeric ablation value %q", row[1])
		}
		byName[row[0]] = v
	}
	if v := byName["BDM combiner (paper footnote 2)"]; v < 1 {
		t.Errorf("combiner should not increase map output, factor %g", v)
	}
	if byName["PairRange emits per entity (r=1000)"] <= byName["PairRange emits per entity (r=20)"] {
		t.Error("PairRange replication should grow with r")
	}
	if v := byName["task granularity under ±15% slot speeds"]; v <= 1 {
		t.Errorf("coarse scheduling should be slower under heterogeneity, ratio %g", v)
	}
	if v := byName["memory cap 64 entities/task"]; v > 1.5 {
		t.Errorf("memory cap should cost little balance, ratio %g", v)
	}
	// No row is a wall-clock measurement: a second run gives the same
	// table.
	again, err := Ablations(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Rows, tbl.Rows) {
		t.Errorf("ablations differ between two runs:\n%v\n%v", tbl.Rows, again.Rows)
	}
}

func TestBalanceTable(t *testing.T) {
	tbl, err := BalanceTable(quickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Basic's straggler factor dwarfs the balanced strategies'.
	basic := parseFloat(t, tbl.Rows[0][3])
	bs := parseFloat(t, tbl.Rows[1][3])
	pr := parseFloat(t, tbl.Rows[2][3])
	if basic < 5*bs || basic < 5*pr {
		t.Errorf("Basic max/mean %g should dwarf BlockSplit %g / PairRange %g", basic, bs, pr)
	}
	if pr > 1.05 {
		t.Errorf("PairRange max/mean = %g, want ~1", pr)
	}
}
