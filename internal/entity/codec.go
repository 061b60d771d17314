package entity

import (
	"fmt"

	"repro/internal/runio"
)

// Codec is the runio codec for Entity, the dominant shuffle value type
// of every matching job: the external dataflow serializes spilled
// entities with it. Layout: id ‖ attribute count ‖ (name ‖ value)*,
// all strings length-prefixed, so IDs and attributes containing tabs,
// newlines, or invalid UTF-8 survive the disk round trip byte-exactly.
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

// attrChunkLen is the Attr-arena chunk size of the decoder: big enough
// to amortize the chunk allocation over ~100 entities, small enough
// that one retained entity pins only a few KB of neighbors.
const attrChunkLen = 256

// NewDecoder implements runio.Codec. Decoded IDs, attribute names, and
// attribute values all alias src; the Attrs slices are carved from a
// chunked arena, so the steady-state cost of decoding an entity is zero
// allocations. Zero attributes decode to nil Attrs, matching the zero
// Entity.
func (Codec) NewDecoder() func(string) (Entity, int, error) {
	var arena []Attr
	return func(src string) (Entity, int, error) {
		var e Entity
		id, n, err := runio.String(src)
		if err != nil {
			return e, 0, fmt.Errorf("entity id: %w", err)
		}
		e.ID = id
		count, cn, err := runio.Uvarint(src[n:])
		if err != nil {
			return e, 0, fmt.Errorf("entity attr count: %w", err)
		}
		n += cn
		if count > uint64(len(src)-n)/2 {
			// Each attribute needs at least two bytes; a larger claimed
			// count is corrupt, and bounding it here keeps the arena
			// allocation proportional to real data.
			return e, 0, fmt.Errorf("%w: entity attr count %d exceeds remaining bytes", runio.ErrCorrupt, count)
		}
		if count > 0 {
			need := int(count)
			if cap(arena)-len(arena) < need {
				arena = make([]Attr, 0, max(attrChunkLen, need))
			}
			start := len(arena)
			// Carve a capacity-capped sub-slice so setAttr's appends stay
			// inside the carved region and can never grow into a later
			// record's carve.
			e.Attrs = arena[start : start : start+need]
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
			// Duplicate names shrink the result below the carve; reclaim
			// the spare slots for the next record and clamp the entity's
			// capacity so nothing can reach past its own attributes.
			arena = arena[:start+len(e.Attrs)]
			e.Attrs = e.Attrs[:len(e.Attrs):len(e.Attrs)]
		}
		return e, n, nil
	}
}

func init() {
	runio.Register[Entity](Codec{})
}
