package entity

import (
	"fmt"

	"repro/internal/runio"
)

// Codec is the runio codec for Entity. No job of the pipeline shuffles
// entities any more — Job 2 reads Rows (row.go) — but the frozen
// benchmark harness (benchmark/trace.go) still writes entities to a run
// file in its runio pass, so the codec stays registered and retires
// with it (ROADMAP item 1d). Layout: id ‖ attribute count ‖
// (name ‖ value)*, all strings length-prefixed, so IDs and attributes
// containing tabs, newlines, or invalid UTF-8 survive the disk round
// trip byte-exactly.
// Attribute order on disk follows the entity's sorted slice order, so
// the encoding is deterministic; decoding re-establishes the sorted
// invariant even for foreign byte streams. Decoded entities alias the
// string they were decoded from (the runio codec contract).
type Codec struct{}

// Append implements runio.Codec.
func (Codec) Append(dst []byte, e Entity) []byte {
	dst = runio.AppendString(dst, e.ID)
	dst = runio.AppendUvarint(dst, uint64(len(e.Attrs)))
	for _, a := range e.Attrs {
		dst = runio.AppendString(dst, a.Name)
		dst = runio.AppendString(dst, a.Value)
	}
	return dst
}

// NewDecoder implements runio.Codec. Decoded IDs, attribute names, and
// attribute values all alias src; each entity's Attrs is its own
// allocation, sized by the record's count once the count is known to
// fit the bytes left. Zero attributes decode to nil Attrs, matching the
// zero Entity.
func (Codec) NewDecoder() func(string) (Entity, int, error) {
	return func(src string) (Entity, int, error) {
		id, n, err := runio.String(src)
		if err != nil {
			return Entity{}, 0, fmt.Errorf("entity id: %w", err)
		}
		count, cn, err := runio.Uvarint(src[n:])
		if err != nil {
			return Entity{}, 0, fmt.Errorf("entity attr count: %w", err)
		}
		n += cn
		if count > uint64(len(src)-n)/2 {
			// Each attribute needs at least two bytes; a larger claimed
			// count is corrupt, and bounding it here keeps the Attrs
			// allocation proportional to real data.
			return Entity{}, 0, fmt.Errorf("%w: entity attr count %d exceeds remaining bytes", runio.ErrCorrupt, count)
		}
		e := Entity{ID: id}
		if count > 0 {
			e.Attrs = make([]Attr, 0, count)
		}
		for i := uint64(0); i < count; i++ {
			k, kn, err := runio.String(src[n:])
			if err != nil {
				return Entity{}, 0, fmt.Errorf("entity attr name: %w", err)
			}
			n += kn
			v, vn, err := runio.String(src[n:])
			if err != nil {
				return Entity{}, 0, fmt.Errorf("entity attr value: %w", err)
			}
			n += vn
			e.setAttr(k, v)
		}
		return e, n, nil
	}
}

func init() {
	runio.Register[Entity](Codec{})
}
