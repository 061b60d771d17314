package entity

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mk(id, title string) Entity { return New(id, "title", title) }

func TestEntityBasics(t *testing.T) {
	e := mk("e1", "hello")
	if e.Attr("title") != "hello" {
		t.Error("Attr wrong")
	}
	if e.Attr("missing") != "" {
		t.Error("missing attr should be empty")
	}
	e2 := Entity{ID: "e1", Attrs: []Attr{{"brand", "acme"}, {"title", "hello"}}}
	if e2.Attr("brand") != "acme" || e.Attr("brand") != "" {
		t.Error("Attr reads the wrong attribute")
	}
	if got := e2.String(); got != "e1{brand=acme, title=hello}" {
		t.Errorf("String() = %q", got)
	}
}

func TestSplitRoundRobin(t *testing.T) {
	es := []Entity{mk("a", ""), mk("b", ""), mk("c", ""), mk("d", ""), mk("e", "")}
	ps := SplitRoundRobin(es, 2)
	if len(ps) != 2 || len(ps[0]) != 3 || len(ps[1]) != 2 {
		t.Fatalf("shape = %d/%d", len(ps[0]), len(ps[1]))
	}
	if ps[0][0].ID != "a" || ps[1][0].ID != "b" || ps[0][1].ID != "c" {
		t.Error("round-robin order wrong")
	}
	if ps.Total() != 5 {
		t.Errorf("Total = %d", ps.Total())
	}
}

func TestSplitContiguous(t *testing.T) {
	es := []Entity{mk("a", ""), mk("b", ""), mk("c", ""), mk("d", ""), mk("e", "")}
	ps := SplitContiguous(es, 2)
	if len(ps[0]) != 2 || len(ps[1]) != 3 {
		t.Fatalf("shape = %d/%d", len(ps[0]), len(ps[1]))
	}
	if ps[0][0].ID != "a" || ps[1][0].ID != "c" {
		t.Error("contiguous split order wrong")
	}
}

// TestSplitsPreserveEverything: both splitters produce a permutation of
// the input covering every entity exactly once, for any m.
func TestSplitsPreserveEverything(t *testing.T) {
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw % 50)
		m := int(mRaw%10) + 1
		es := make([]Entity, n)
		for i := range es {
			es[i] = mk(fmt.Sprintf("e%d", i), "")
		}
		for _, ps := range []Partitions{SplitRoundRobin(es, m), SplitContiguous(es, m)} {
			if len(ps) != m || ps.Total() != n {
				return false
			}
			seen := make(map[string]bool)
			for _, p := range ps {
				for _, e := range p {
					if seen[e.ID] {
						return false
					}
					seen[e.ID] = true
				}
			}
			if len(seen) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitPanicsOnBadM(t *testing.T) {
	for name, fn := range map[string]func(){
		"SplitRoundRobin": func() { SplitRoundRobin(nil, 0) },
		"SplitContiguous": func() { SplitContiguous(nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(m=0) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSortByAttr(t *testing.T) {
	es := []Entity{mk("1", "zebra"), mk("2", "apple"), mk("3", "apple")}
	sorted := SortByAttr(es, "title")
	if sorted[0].Attr("title") != "apple" || sorted[2].Attr("title") != "zebra" {
		t.Error("not sorted by attr")
	}
	if sorted[0].ID != "2" || sorted[1].ID != "3" {
		t.Error("ties not broken by ID")
	}
	if es[0].Attr("title") != "zebra" {
		t.Error("SortByAttr mutated its input")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	es := []Entity{
		New("e1", "title", "hello, world"),
		{ID: "e2", Attrs: []Attr{{"brand", "acme"}, {"title", "line\nbreak"}}},
		New("e3", "title", `with "quotes"`),
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, es, []string{"title", "brand"}); err != nil {
		t.Fatal(err)
	}
	got, err := readRows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d entities", len(got))
	}
	for i := range es {
		if got[i].ID != es[i].ID || got[i].Attr("title") != es[i].Attr("title") {
			t.Errorf("entity %d: %v != %v", i, got[i], es[i])
		}
	}
	if got[1].Attr("brand") != "acme" {
		t.Error("brand attr lost")
	}
	// e1 has no brand: reads back as empty, which Attr treats uniformly.
	if got[0].Attr("brand") != "" {
		t.Error("absent attr should read back empty")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := readRows(strings.NewReader("")); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := readRows(strings.NewReader("name,title\nx,y\n")); err == nil {
		t.Error("header without id: want error")
	}
}

func TestPartitionsEqualAfterCSV(t *testing.T) {
	// Splitting before or after a CSV round trip is equivalent.
	es := make([]Entity, 17)
	for i := range es {
		es[i] = mk(fmt.Sprintf("e%02d", i), fmt.Sprintf("title %d", i))
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, es, []string{"title"}); err != nil {
		t.Fatal(err)
	}
	back, err := readRows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(SplitRoundRobin(es, 4), SplitRoundRobin(back, 4)) {
		t.Error("partitions differ after CSV round trip")
	}
}
