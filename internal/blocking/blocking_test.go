package blocking

import "testing"

func TestNormalizedPrefix(t *testing.T) {
	p3 := NormalizedPrefix(3)
	tests := map[string]string{
		"Canon EOS":   "can",
		"  sony a7":   "son",
		"\"quoted\"":  "quo",
		"a b":         "a", // separator ends the key
		"ABCdef":      "abc",
		"":            "",
		"!!!":         "",
		"x":           "x",
		"123 printer": "123", // digits count
	}
	for in, want := range tests {
		if got := p3(in); got != want {
			t.Errorf("NormalizedPrefix(3)(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestNormalizedPrefixCountsLetters: n is letters, not bytes, so
// titles that share only their first multi-byte letter or two get
// distinct keys.
func TestNormalizedPrefixCountsLetters(t *testing.T) {
	p3 := NormalizedPrefix(3)
	for _, pair := range [][2]string{{"日本語です", "日本人"}, {"Ünïcode", "Ünterwegs"}} {
		a, b := p3(pair[0]), p3(pair[1])
		if a == b {
			t.Errorf("%q and %q share the key %q", pair[0], pair[1], a)
		}
	}
	for in, want := range map[string]string{"日本語です": "日本語", "Ünïcode": "ünï", "Ünterwegs": "ünt", "éa": "éa"} {
		if got := p3(in); got != want {
			t.Errorf("NormalizedPrefix(3)(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizedPrefixPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NormalizedPrefix(0) did not panic")
		}
	}()
	NormalizedPrefix(0)
}

func TestIdentity(t *testing.T) {
	id := Identity()
	for _, s := range []string{"", "x", "block-42"} {
		if id(s) != s {
			t.Errorf("Identity()(%q) = %q", s, id(s))
		}
	}
}
