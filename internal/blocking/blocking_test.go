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
