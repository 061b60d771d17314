// Package runio is a fixture stand-in for the codec registry: codecreg
// matches Register by (package name, function name, one type arg).
package runio

type Codec[T any] interface {
	Append(dst []byte, v T) []byte
	NewDecoder() func(src string) (T, int, error)
}

func Register[T any](c Codec[T]) {}
