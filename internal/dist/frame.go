package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The frame is the one shape of every message that carries records or a
// job spec between master and worker (/task both ways, /job):
//
//	offset   size  field
//	0        3     magic "ERF"
//	3        1     version (frameVersion)
//	4        4     header length hlen, little-endian, ≤ maxFrameHeader
//	8        8     payload length plen, little-endian, ≤ maxFramePayload
//	16       hlen  header: the message's metadata struct as JSON
//	16+hlen  plen  payload: raw bytes — a record blob or a job spec
//
// The metadata is a few hundred bytes per message; the payload is the
// megabytes, and it is never escaped, scanned or re-encoded: the sender
// writes the blob it encoded, the receiver reads it with one ReadFull
// into a buffer of exactly plen bytes. A frame ends where its lengths
// say: trailing bytes are an error, like a short read.
//
// Version 2: a map response is a header only; in version 1 it carried
// the attempt's side output, which an older master would take from an
// empty payload to be an empty Job 2 input. The versions refuse each
// other instead.
//
// Version 3: both jobs' records carry an entity.Row (id ‖ text) where
// version 2 carried the whole entity (id ‖ attribute count ‖ attributes);
// a version-2 peer would read the text's length as an attribute count.
//
// Version 4: a row's blocking key travels as its block id, an int32
// varint, where version 3 sent the key string: Job 1's map input is the
// id column alone, Job 2's records are (id, row), and Job 1's key is
// (block, partition) as two varints. A version-3 peer would read an id
// as a string length.
//
// Version 5: a run record is key ‖ value (run version 2), where version
// 4's were key code ‖ key ‖ value, and a segment reference no longer
// says how long that code is. A version-4 worker would take a record's
// first 16 bytes for a key code and decode the rest out of step.
const (
	frameMagic     = "ERF"
	frameVersion   = 5
	framePrefixLen = 16

	// maxFrameHeader bounds the metadata of one message. The largest
	// header is a reduce request's segment list, ~150 bytes per map task.
	maxFrameHeader = 1 << 20
	// maxFramePayload bounds one record blob or job spec — one map
	// task's input partition, encoded. The receiver allocates the length
	// a frame claims, so this is also the most a lying prefix can cost.
	maxFramePayload = 1 << 30
	// maxFrameBody is the largest well-formed frame: what /task and /job
	// bodies are cut off at (http.MaxBytesReader).
	maxFrameBody = framePrefixLen + maxFrameHeader + maxFramePayload

	frameContentType = "application/x-er-frame"
)

// ErrFrame is wrapped by every framing failure: wrong magic (a JSON
// client, some other protocol), a version from another build, a length
// over its bound, a body shorter or longer than its lengths claim, a
// header that does not parse. A frame either reads completely or fails
// with ErrFrame; no caller ever sees part of one.
var ErrFrame = errors.New("dist: malformed frame")

// frameHead encodes a frame's prefix and header for a payload of
// payloadLen bytes; the frame is these bytes followed by the payload.
func frameHead(meta any, payloadLen int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, framePrefixLen))
	if err := json.NewEncoder(&buf).Encode(meta); err != nil {
		return nil, fmt.Errorf("dist: encode frame header: %w", err)
	}
	head := buf.Bytes()
	hlen := len(head) - framePrefixLen
	if hlen > maxFrameHeader || payloadLen > maxFramePayload {
		return nil, fmt.Errorf("%w: header %d bytes (max %d), payload %d bytes (max %d)",
			ErrFrame, hlen, maxFrameHeader, payloadLen, maxFramePayload)
	}
	copy(head, frameMagic)
	head[3] = frameVersion
	binary.LittleEndian.PutUint32(head[4:], uint32(hlen))
	binary.LittleEndian.PutUint64(head[8:], uint64(payloadLen))
	return head, nil
}

// writeFrame writes one frame: the head in one write, the payload —
// untouched — in a second.
func writeFrame(w io.Writer, head, payload []byte) error {
	if _, err := w.Write(head); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads exactly one frame from r, which must end with it:
// the header is decoded into meta and the payload returned (nil when
// empty). size is the body length the HTTP message declared, -1 if it
// declared none; the frame's own lengths must add up to it, which is
// checked before anything they claim is allocated. Every failure wraps
// ErrFrame and the reader's own error.
func readFrame(r io.Reader, size int64, meta any) ([]byte, error) {
	var prefix [framePrefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated prefix: %w", ErrFrame, err)
	}
	if string(prefix[:3]) != frameMagic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrFrame, prefix[:3], frameMagic)
	}
	if v := prefix[3]; v != frameVersion {
		return nil, fmt.Errorf("%w: frame version %d, this build speaks %d", ErrFrame, v, frameVersion)
	}
	hlen := binary.LittleEndian.Uint32(prefix[4:])
	plen := binary.LittleEndian.Uint64(prefix[8:])
	if hlen > maxFrameHeader {
		return nil, fmt.Errorf("%w: header length %d exceeds %d", ErrFrame, hlen, maxFrameHeader)
	}
	if plen > maxFramePayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrFrame, plen, maxFramePayload)
	}
	if total := framePrefixLen + int64(hlen) + int64(plen); size >= 0 && size != total {
		return nil, fmt.Errorf("%w: a %d-byte frame in a %d-byte body", ErrFrame, total, size)
	}
	header := make([]byte, hlen)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: truncated header (%d bytes claimed): %w", ErrFrame, hlen, err)
	}
	var payload []byte
	if plen > 0 {
		payload = make([]byte, plen)
		if n, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("%w: payload is %d of %d claimed bytes: %w", ErrFrame, n, plen, err)
		}
	}
	var one [1]byte
	switch _, err := io.ReadFull(r, one[:]); err {
	case io.EOF:
	case nil:
		return nil, fmt.Errorf("%w: bytes after the %d-byte payload", ErrFrame, plen)
	default:
		return nil, fmt.Errorf("%w: after payload: %w", ErrFrame, err)
	}
	// The header is decoded last, so meta is written only by a frame
	// that arrived whole.
	if err := json.Unmarshal(header, meta); err != nil {
		return nil, fmt.Errorf("%w: header: %w", ErrFrame, err)
	}
	return payload, nil
}
