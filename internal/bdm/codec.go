package bdm

import (
	"fmt"

	"repro/internal/entity"
	"repro/internal/mapreduce"
	"repro/internal/runio"
)

// keyCodec serializes the BDM job's composite key (block ‖ partition)
// for the external dataflow's spill runs: two zig-zag varints. The
// value type of the BDM job is a plain int, covered by runio's built-in
// codec.
type keyCodec struct{}

func (keyCodec) Append(dst []byte, k Key) []byte {
	dst = runio.AppendVarint(dst, int64(k.Block))
	return runio.AppendVarint(dst, int64(k.Partition))
}

// NewDecoder implements runio.Codec. A field that overflows int32 is
// corrupt: truncating it would decode another key.
func (keyCodec) NewDecoder() func(string) (Key, int, error) {
	return func(src string) (Key, int, error) {
		b, n, err := runio.Varint(src)
		if err != nil {
			return Key{}, 0, fmt.Errorf("bdm.Key block: %w", err)
		}
		p, pn, err := runio.Varint(src[n:])
		if err != nil {
			return Key{}, 0, fmt.Errorf("bdm.Key partition: %w", err)
		}
		k := Key{Block: int32(b), Partition: int32(p)}
		if int64(k.Block) != b || int64(k.Partition) != p {
			return Key{}, 0, fmt.Errorf("bdm.Key: %w: a field overflows int32", runio.ErrCorrupt)
		}
		return k, n + pn, nil
	}
}

func init() {
	runio.Register[Key](keyCodec{})
	// Distributed execution also moves Job 2's input and the BDM job's
	// output records across process boundaries: register codecs for both
	// pair shapes (Annotated and CountRecord). The element codecs exist
	// by now — int32 and int are runio builtins, entity.Row is registered
	// by the entity package's init, Key just above. The BDM job's input,
	// the block-id column, is a plain int32.
	mapreduce.RegisterPairCodec[int32, entity.Row]()
	mapreduce.RegisterPairCodec[Key, int]()
}
