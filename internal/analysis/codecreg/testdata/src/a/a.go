// Package a exercises the codecreg analyzer: package-owned Job K/V
// types must be runio-registered in this package's init.
package a

import (
	"mapreduce"
	"runio"
)

type GoodKey struct{ B string }

type BadKey struct{ B string }

type LateKey struct{ B string }

type Val struct{ N int }

type goodKeyCodec struct{}

func (goodKeyCodec) Append(dst []byte, v GoodKey) []byte { return dst }

func (goodKeyCodec) NewDecoder() func(string) (GoodKey, int, error) { return nil }

type lateKeyCodec struct{}

func (lateKeyCodec) Append(dst []byte, v LateKey) []byte { return dst }

func (lateKeyCodec) NewDecoder() func(string) (LateKey, int, error) { return nil }

type valCodec struct{}

func (valCodec) Append(dst []byte, v Val) []byte { return dst }

func (valCodec) NewDecoder() func(string) (Val, int, error) { return nil }

func init() {
	runio.Register[GoodKey](goodKeyCodec{})
	runio.Register[Val](valCodec{})
}

// good uses a registered key and value: not flagged.
func good() *mapreduce.Job[int, GoodKey, Val, int] {
	return &mapreduce.Job[int, GoodKey, Val, int]{Name: "good"}
}

// bad's key has no codec: flagged once per type, at the first use.
func bad() *mapreduce.Job[int, BadKey, Val, int] { // want `Job key type BadKey has no runio codec`
	return &mapreduce.Job[int, BadKey, Val, int]{Name: "bad"}
}

// registerLate is not an init function, so its Register does not
// discharge the obligation: the external dataflow resolves codecs at
// job start, before any ordinary function is guaranteed to have run.
func registerLate() {
	runio.Register[LateKey](lateKeyCodec{})
}

func late() *mapreduce.Job[int, LateKey, Val, int] { // want `Job key type LateKey has no runio codec`
	return &mapreduce.Job[int, LateKey, Val, int]{Name: "late"}
}

// basic K/V ride runio's built-in codecs: not flagged.
func basic() *mapreduce.Job[int, string, int, int] {
	return &mapreduce.Job[int, string, int, int]{Name: "basic"}
}

// foreign types are the owning package's responsibility: not flagged
// here (runio.Codec is owned by the runio fixture).
func foreign() *mapreduce.Job[int, runio.Codec[int], Val, int] {
	return nil
}
