package bitvec

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		v := New(n)
		if v.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, v.Len())
		}
		if v.PopCount() != 0 {
			t.Errorf("New(%d) has %d set bits", n, v.PopCount())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetFlip(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Errorf("bit %d set in fresh vector", i)
		}
		v.Set(i, true)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		if got := v.Flip(i); got {
			t.Errorf("Flip(%d) returned true after clearing", i)
		}
		if v.Get(i) {
			t.Errorf("bit %d still set after Flip", i)
		}
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) on length-10 vector did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestFromBitsAndString(t *testing.T) {
	v := FromBits([]bool{true, false, true, true})
	if v.String() != "1011" {
		t.Errorf("String() = %q, want 1011", v.String())
	}
	w, err := FromString("1011")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(w) {
		t.Error("FromBits and FromString disagree")
	}
	if _, err := FromString("10x1"); err == nil {
		t.Error("FromString accepted an invalid character")
	}
}

func TestFromUintAndUintRoundTrip(t *testing.T) {
	cases := []struct {
		x     uint64
		width int
		want  string
	}{
		{4, 3, "100"}, // the paper's Figure 1 example value
		{0, 3, "000"},
		{7, 3, "111"},
		{5, 4, "0101"},
	}
	for _, c := range cases {
		v := FromUint(c.x, c.width)
		if v.String() != c.want {
			t.Errorf("FromUint(%d,%d) = %s, want %s", c.x, c.width, v, c.want)
		}
		if v.Uint() != c.x {
			t.Errorf("round trip of %d gave %d", c.x, v.Uint())
		}
	}
}

func TestUintRoundTripProperty(t *testing.T) {
	prop := func(x uint32, width uint8) bool {
		w := int(width%32) + 1
		val := uint64(x) & (1<<uint(w) - 1)
		return FromUint(val, w).Uint() == val
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	v := MustFromString("1010")
	w := v.Clone()
	w.Set(1, true)
	if v.Get(1) {
		t.Error("mutating a clone changed the original")
	}
	if !v.Equal(MustFromString("1010")) {
		t.Error("original changed after clone mutation")
	}
}

func TestEqualAndHamming(t *testing.T) {
	a := MustFromString("110010")
	b := MustFromString("100011")
	if a.Equal(b) {
		t.Error("distinct vectors reported Equal")
	}
	if a.Hamming(b) != 2 {
		t.Errorf("Hamming = %d, want 2", a.Hamming(b))
	}
	if a.Hamming(a) != 0 {
		t.Error("Hamming(a,a) != 0")
	}
	if a.Equal(MustFromString("1100")) {
		t.Error("vectors of different length reported Equal")
	}
}

func TestHammingLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hamming on mismatched lengths did not panic")
		}
	}()
	MustFromString("10").Hamming(MustFromString("100"))
}

func TestXor(t *testing.T) {
	a := MustFromString("1100")
	b := MustFromString("1010")
	got := a.Xor(b)
	if got.String() != "0110" {
		t.Errorf("Xor = %s, want 0110", got)
	}
	// Inputs unchanged.
	if a.String() != "1100" || b.String() != "1010" {
		t.Error("Xor mutated its inputs")
	}
}

func TestPopCountProperty(t *testing.T) {
	prop := func(x uint64) bool {
		return FromUint(x, 64).PopCount() == bits.OnesCount64(x)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesRoundTripProperty(t *testing.T) {
	prop := func(raw []byte, length uint8) bool {
		n := int(length) % 150
		v := New(n)
		for i := 0; i < n && i < 8*len(raw); i++ {
			if raw[i/8]&(1<<uint(i%8)) != 0 {
				v.Set(i, true)
			}
		}
		back, err := ParseBytes(v.Bytes())
		return err == nil && back.Equal(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseBytesRejectsCorrupt(t *testing.T) {
	if _, err := ParseBytes(nil); err == nil {
		t.Error("ParseBytes(nil) succeeded")
	}
	if _, err := ParseBytes([]byte{1, 2, 3}); err == nil {
		t.Error("ParseBytes(short) succeeded")
	}
	good := MustFromString("101").Bytes()
	if _, err := ParseBytes(good[:len(good)-1]); err == nil {
		t.Error("ParseBytes(truncated) succeeded")
	}
	// Set a bit beyond the declared length to make it non-canonical.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] |= 0x80
	if _, err := ParseBytes(bad); err == nil {
		t.Error("ParseBytes accepted a non-canonical encoding")
	}
}

func TestBytesInjective(t *testing.T) {
	seen := map[string]string{}
	for n := 0; n <= 9; n++ {
		for x := uint64(0); x < 1<<uint(n); x++ {
			v := FromUint(x, n)
			k := string(v.Bytes())
			if prev, dup := seen[k]; dup {
				t.Fatalf("Bytes collision between %q and %q", prev, v.String())
			}
			seen[k] = v.String()
		}
	}
}

// TestAppendPackedIsTheBytesWordsCut: the packed bytes are ⌈n/8⌉ bytes of
// the Bytes encoding's words, bit i at bit i%8 of byte i/8.
func TestAppendPackedIsTheBytesWordsCut(t *testing.T) {
	prop := func(raw []byte, length uint8) bool {
		n := int(length) % 150
		v := New(n)
		for i := 0; i < n && i < 8*len(raw); i++ {
			if raw[i/8]&(1<<uint(i%8)) != 0 {
				v.Set(i, true)
			}
		}
		packed := v.AppendPacked([]byte{0xee})
		if len(packed) != 1+(n+7)/8 || packed[0] != 0xee || string(packed[1:]) != string(v.Bytes()[8:8+(n+7)/8]) {
			return false
		}
		for i := 0; i < n; i++ {
			if packed[1+i/8]>>uint(i%8)&1 == 1 != v.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
