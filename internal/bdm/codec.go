package bdm

import (
	"fmt"

	"repro/internal/entity"
	"repro/internal/mapreduce"
	"repro/internal/runio"
)

// keyCodec serializes the BDM job's composite key (blockingKey ‖
// partition) for the external dataflow's spill runs. The blocking key
// is an arbitrary user-derived string — length-prefixing keeps tabs,
// newlines, and invalid UTF-8 intact, the same concern the quoted
// on-disk matrix format (serialize.go) handles. The value type of the
// BDM job is a plain int, covered by runio's built-in codec.
type keyCodec struct{}

func (keyCodec) Append(dst []byte, k Key) []byte {
	dst = runio.AppendString(dst, k.BlockKey)
	return runio.AppendVarint(dst, int64(k.Partition))
}

// NewDecoder implements runio.Codec: the decoded BlockKey aliases src.
// The BDM reducer emits its key into retained output records, so it
// clones the block key at emit time (see job.go) per the
// copy-what-you-retain contract.
func (keyCodec) NewDecoder() func(string) (Key, int, error) {
	return func(src string) (Key, int, error) {
		var k Key
		s, n, err := runio.String(src)
		if err != nil {
			return k, 0, fmt.Errorf("bdm.Key block key: %w", err)
		}
		k.BlockKey = s
		p, pn, err := runio.Varint(src[n:])
		if err != nil {
			return k, 0, fmt.Errorf("bdm.Key partition: %w", err)
		}
		k.Partition = int(p)
		return k, n + pn, nil
	}
}

func init() {
	runio.Register[Key](keyCodec{})
	// Distributed execution also moves the BDM job's input and output
	// records across process boundaries: register codecs for both pair
	// shapes (Annotated and CountRecord). The element codecs exist by
	// now — string and int are runio builtins, entity.Entity is
	// registered by the entity package's init, Key just above.
	mapreduce.RegisterPairCodec[string, entity.Entity]()
	mapreduce.RegisterPairCodec[Key, int]()
}
