package bdm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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
	if !reflect.DeepEqual(x, back) {
		t.Errorf("awkward keys mangled:\n%v\nvs\n%v", x, back)
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
		if !reflect.DeepEqual(x, back) {
			t.Fatalf("trial %d: round trip mismatch:\n%v\nvs\n%v", trial, x, back)
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
		"keys out of order":    "bdm\t2\n\"b\"\t0\t1\n\"a\"\t0\t1\n",
		"key returns":          "bdm\t2\n\"a\"\t0\t1\n\"b\"\t0\t1\n\"a\"\t1\t1\n",
		"partition past int32": "bdm\t2\n\"a\"\t4294967296\t1\n",
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
	// The order refusals name the line where the smaller key arrives.
	for name, line := range map[string]string{"keys out of order": "line 3:", "key returns": "line 4:"} {
		if _, err := ReadFrom(strings.NewReader(cases[name])); err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("%s: err = %v, want an error naming %s", name, err, line)
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
	for k := range x.NumBlocks() {
		for p := range x.NumPartitions() {
			if n := x.SizeIn(k, p); n > 0 {
				want += fmt.Sprintf("%s\t%d\t%d\n", strconv.Quote(x.BlockKey(k)), p, n)
			}
		}
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

// TestReadFromAllocatesPerMatrix: parsing costs the text, the key
// table, the count records and the matrix — not a string, a field slice
// or a growth step per cell.
func TestReadFromAllocatesPerMatrix(t *testing.T) {
	const blocks, m = 3000, 4
	text := flatMatrixText(t, blocks, m)
	allocs := testing.AllocsPerRun(5, func() {
		back, err := ReadFrom(strings.NewReader(text))
		if err != nil || back.NumBlocks() != blocks {
			t.Fatalf("ReadFrom: %v", err)
		}
	})
	// About 25 today: the key table's growth steps, then FromCounts
	// assembling the matrix.
	if allocs > 40 {
		t.Errorf("ReadFrom of %d cells: %.0f allocs, want a number that does not grow with the cells", blocks*m, allocs)
	}
}

// flatMatrix returns a matrix of the flat workloads' shape: blocks keys,
// every one in each of m partitions.
func flatMatrix(t *testing.T, blocks, m int) *Matrix {
	t.Helper()
	keys := make([]string, blocks)
	var counts []CountRecord
	for k := range keys {
		keys[k] = fmt.Sprintf("key%05d", k)
		for p := 0; p < m; p++ {
			counts = append(counts, cell(k, p, 1+(k+p)%5))
		}
	}
	x, err := FromCounts(keys, m, counts)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// flatMatrixText is flatMatrix in WriteTo's text.
func flatMatrixText(t *testing.T, blocks, m int) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := flatMatrix(t, blocks, m).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMatrixStringLinear: String allocates a small multiple of what it
// returns (about 6× today, mostly the builder's growth steps), not a
// copy of the text so far per block.
func TestMatrixStringLinear(t *testing.T) {
	x := flatMatrix(t, 3000, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := x.String()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 10*uint64(len(s)) {
		t.Errorf("String of %d blocks allocated %d B for %d B of text, want at most 10×", x.NumBlocks(), alloc, len(s))
	}
}
