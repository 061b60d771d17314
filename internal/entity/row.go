package entity

import (
	"fmt"

	"repro/internal/runio"
)

// Row is what the matching job carries of an entity: its ID and the
// text of the one attribute it is matched on. bdm.Annotate reads the
// attribute once per entity and fills both the blocking key and Text,
// so no record of Job 2 holds an Entity or its attribute slice.
type Row struct {
	ID, Text string
}

// RowCodec is the runio codec for Row, the value of every matching
// job's records in runs and frames. Layout: id ‖ text, both
// length-prefixed, so IDs and texts containing tabs, newlines, or
// invalid UTF-8 survive byte-exactly. Decoded rows alias the string
// they were decoded from (the runio codec contract).
type RowCodec struct{}

// Append implements runio.Codec.
func (RowCodec) Append(dst []byte, r Row) []byte {
	return runio.AppendString(runio.AppendString(dst, r.ID), r.Text)
}

// NewDecoder implements runio.Codec: both strings alias src, and a
// decode allocates nothing.
func (RowCodec) NewDecoder() func(string) (Row, int, error) {
	return func(src string) (Row, int, error) {
		id, n, err := runio.String(src)
		if err != nil {
			return Row{}, 0, fmt.Errorf("row id: %w", err)
		}
		text, tn, err := runio.String(src[n:])
		if err != nil {
			return Row{}, 0, fmt.Errorf("row text: %w", err)
		}
		return Row{ID: id, Text: text}, n + tn, nil
	}
}

func init() {
	runio.Register[Row](RowCodec{})
}
