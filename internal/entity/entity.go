// Package entity defines the data model for entity resolution: entities,
// partitions of entities, and helpers to split a dataset into the m input
// partitions consumed by the MapReduce jobs.
//
// An Entity is a flat record with a stable identifier and a set of named
// string attributes. The blocking key is not stored on the entity; it is
// derived by a blocking.KeyFunc so that the same dataset can be blocked in
// different ways (as the paper does in its skew-robustness experiment).
package entity

import (
	"fmt"
	"slices"
	"strings"
)

// Attr is one named attribute of an entity.
type Attr struct {
	Name  string
	Value string
}

// Entity is a single record to be resolved. ID must be unique within a
// source. Attrs holds the record's payload (e.g., a product title) as a
// slice sorted by attribute name with unique names — an invariant every
// constructor in this package maintains. The slice representation makes
// an entity one allocation instead of a map plus per-bucket overhead;
// two entities with the same attributes are reflect.DeepEqual
// regardless of how they were built. Entities are ingest's form: the
// jobs read Rows (row.go), which bdm.Annotate makes of them.
type Entity struct {
	ID    string
	Attrs []Attr
}

// New returns an entity with the given id and a single attribute.
func New(id, attr, value string) Entity {
	return Entity{ID: id, Attrs: []Attr{{Name: attr, Value: value}}}
}

// Attr returns the named attribute or "" when absent. Entities hold a
// handful of attributes, so a linear scan of the sorted slice beats a
// binary search (and either beats the old map lookup).
func (e Entity) Attr(name string) string {
	for i := range e.Attrs {
		if e.Attrs[i].Name == name {
			return e.Attrs[i].Value
		}
	}
	return ""
}

// setAttr sets or replaces the named attribute in place, keeping Attrs
// sorted by name with unique names. Appending already-sorted input (the
// common decode path) hits the fast append at the end.
func (e *Entity) setAttr(name, value string) {
	attrs := e.Attrs
	i := len(attrs)
	for i > 0 && attrs[i-1].Name > name {
		i--
	}
	if i > 0 && attrs[i-1].Name == name {
		attrs[i-1].Value = value
		return
	}
	attrs = append(attrs, Attr{})
	copy(attrs[i+1:], attrs[i:])
	attrs[i] = Attr{Name: name, Value: value}
	e.Attrs = attrs
}

// String renders the entity as "id{k=v, ...}" with attributes sorted by
// name (the slice order), for deterministic logs and test output.
func (e Entity) String() string {
	var b strings.Builder
	b.WriteString(e.ID)
	b.WriteByte('{')
	for i, a := range e.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", a.Name, a.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Partition is one input partition (split) of a dataset. The MR engine
// runs one map task per partition, mirroring the paper's setup where the
// number of map tasks m equals the number of input partitions.
type Partition []Entity

// Partitions is the full partitioned input of one source.
type Partitions []Partition

// Total returns the total number of entities across all partitions.
func (ps Partitions) Total() int {
	n := 0
	for _, p := range ps {
		n += len(p)
	}
	return n
}

// SplitRoundRobin distributes entities over m partitions in round-robin
// order. This models an "arbitrary" (blocking-key independent) input
// order, the favorable case for BlockSplit.
func SplitRoundRobin(entities []Entity, m int) Partitions {
	if m <= 0 {
		panic("entity: SplitRoundRobin requires m > 0")
	}
	ps := make(Partitions, m)
	per := (len(entities) + m - 1) / m
	for i := range ps {
		ps[i] = make(Partition, 0, per)
	}
	for i, e := range entities {
		ps[i%m] = append(ps[i%m], e)
	}
	return ps
}

// SplitContiguous cuts the entity slice into m contiguous chunks of
// near-equal size, preserving order. Applied to a dataset sorted by the
// blocking attribute this reproduces the paper's "sorted" experiment
// (Figure 11), where large blocks land in few partitions and BlockSplit's
// ability to split them degrades.
func SplitContiguous(entities []Entity, m int) Partitions {
	if m <= 0 {
		panic("entity: SplitContiguous requires m > 0")
	}
	ps := make(Partitions, m)
	n := len(entities)
	for i := 0; i < m; i++ {
		lo := i * n / m
		hi := (i + 1) * n / m
		ps[i] = append(Partition(nil), entities[lo:hi]...)
	}
	return ps
}

// SortByAttr returns a copy of entities sorted by the given attribute
// (ties broken by ID), used to build the "sorted by title" input of the
// Figure 11 experiment.
func SortByAttr(entities []Entity, attr string) []Entity {
	out := append([]Entity(nil), entities...)
	slices.SortStableFunc(out, func(x, y Entity) int {
		if c := strings.Compare(x.Attr(attr), y.Attr(attr)); c != 0 {
			return c
		}
		return strings.Compare(x.ID, y.ID)
	})
	return out
}
