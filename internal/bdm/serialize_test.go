package bdm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/entity"
)

func TestSerializeRoundTrip(t *testing.T) {
	one, err := FromPartitions(parts2(), "k", blocking.Identity())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Matrix{one, dualMatrix(t), bottomMatrix(t)} {
		var buf bytes.Buffer
		n, err := x.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("WriteTo returned %d bytes, buffer holds %d", n, buf.Len())
		}
		back, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, x) {
			t.Errorf("round trip changed the matrix:\n%v\nvs\n%v", back, x)
		}
	}
}

func TestSerializeAwkwardKeys(t *testing.T) {
	// Keys with tabs, newlines, unicode, and emptiness must survive.
	parts := entity.Partitions{{
		entity.New("a", "k", "tab\tkey"),
		entity.New("b", "k", "new\nline"),
		entity.New("c", "k", "日本語"),
		entity.New("d", "k", ""),
		entity.New("e", "k", `quoted "key"`),
	}}
	x, err := FromPartitions(parts, "k", blocking.Identity())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x.Cells(), back.Cells()) {
		t.Errorf("awkward keys mangled:\n%v\nvs\n%v", x.Cells(), back.Cells())
	}
}

func TestSerializeFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 20; trial++ {
		m := rng.Intn(6) + 1
		parts := make(entity.Partitions, m)
		for i := 0; i < rng.Intn(300); i++ {
			p := rng.Intn(m)
			parts[p] = append(parts[p], entity.New(fmt.Sprintf("e%d", i), "k", fmt.Sprintf("key%02d", rng.Intn(25))))
		}
		x, err := FromPartitions(parts, "k", blocking.Identity())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(x.Cells(), back.Cells()) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestReadFromErrors(t *testing.T) {
	cases := map[string]string{
		"empty":                "",
		"bad header":           "nope\t3\n",
		"bad partitions":       "bdm\tzero\n",
		"zero partitions":      "bdm\t0\n",
		"short line":           "bdm\t2\n\"a\"\t1\n",
		"bad key quoting":      "bdm\t2\nnoquotes\t0\t1\n",
		"bad count":            "bdm\t2\n\"a\"\t0\tmany\n",
		"bad partition":        "bdm\t2\n\"a\"\tx\t1\n",
		"out of range":         "bdm\t2\n\"a\"\t7\t1\n",
		"duplicate cells":      "bdm\t2\n\"a\"\t0\t1\n\"a\"\t0\t2\n",
		"bad source tag":       "bdm\t2\tRX\n\"a\"\t0\t1\n",
		"short tags":           "bdm\t2\tR\n\"a\"\t0\t1\n",
		"empty tags":           "bdm\t2\t\n",
		"fourth field":         "bdm\t2\tRS\tR\n",
		"⊥ without keyless":    "bdm\t2\t⊥\n\"a\"\t0\t1\n",
		"⊥ of an empty matrix": "bdm\t2\t⊥\n",
		"⊥ twice":              "bdm\t2\t⊥⊥\n\"\"\t0\t1\n",
		"⊥ and tags":           "bdm\t2\tRS⊥\n\"\"\t0\t1\n",
		"⊥ then tags":          "bdm\t2\t⊥\tRS\n\"\"\t0\t1\n",
	}
	for name, input := range cases {
		_, err := ReadFrom(strings.NewReader(input))
		if err == nil {
			t.Errorf("%s: want error", name)
		} else if strings.ContainsAny(input, "R⊥") && !strings.Contains(err.Error(), "line 1:") {
			t.Errorf("%s: error %q does not name line 1", name, err)
		}
	}
}

func TestReadFromEmptyMatrix(t *testing.T) {
	x, err := ReadFrom(strings.NewReader("bdm\t4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if x.NumBlocks() != 0 || x.NumPartitions() != 4 {
		t.Errorf("empty matrix = %d blocks × %d partitions", x.NumBlocks(), x.NumPartitions())
	}
}

// TestWriteToFormat pins the text format byte for byte against its
// definition: a "bdm\t<m>" header, then one "<quoted key>\t<partition>\t
// <count>" line per non-zero cell in (block, partition) order.
func TestWriteToFormat(t *testing.T) {
	parts := entity.Partitions{
		{entity.New("a", "k", "tab\tkey"), entity.New("b", "k", "plain"), entity.New("c", "k", "plain")},
		{entity.New("d", "k", `quoted "key"`), entity.New("e", "k", "plain"), entity.New("f", "k", "")},
		{},
	}
	x, err := FromPartitions(parts, "k", blocking.Identity())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("bdm\t%d\n", x.NumPartitions())
	for _, c := range x.Cells() {
		want += fmt.Sprintf("%s\t%d\t%d\n", strconv.Quote(c.BlockKey), c.Partition, c.Count)
	}
	var buf bytes.Buffer
	if n, err := x.WriteTo(&buf); err != nil || n != int64(len(want)) {
		t.Fatalf("WriteTo = %d, %v; want %d bytes", n, err, len(want))
	}
	if buf.String() != want {
		t.Fatalf("WriteTo wrote\n%q\nwant\n%q", buf.String(), want)
	}
	// Two sources add one tag per partition as a third header field.
	y, err := x.WithSources([]Source{SourceS, SourceR, SourceS})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := y.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if want := strings.Replace(want, "\n", "\tSRS\n", 1); buf.String() != want {
		t.Fatalf("WriteTo wrote\n%q\nwant\n%q", buf.String(), want)
	}
}

// TestReadFromAllocatesPerMatrix: parsing costs the text, the cell
// slice and the matrix — not a string, a field slice or a growth step
// per cell.
func TestReadFromAllocatesPerMatrix(t *testing.T) {
	const blocks, m = 3000, 4
	var cells []Cell
	for k := 0; k < blocks; k++ {
		for p := 0; p < m; p++ {
			cells = append(cells, Cell{BlockKey: fmt.Sprintf("key%05d", k), Partition: p, Count: 1 + (k+p)%5})
		}
	}
	x, err := FromCells(cells, m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	allocs := testing.AllocsPerRun(5, func() {
		back, err := ReadFrom(strings.NewReader(text))
		if err != nil || back.NumBlocks() != blocks {
			t.Fatalf("ReadFrom: %v", err)
		}
	})
	// About 20 today, nearly all of them FromCells assembling the matrix.
	if allocs > 40 {
		t.Errorf("ReadFrom of %d cells: %.0f allocs, want a number that does not grow with the cells", len(cells), allocs)
	}
}
