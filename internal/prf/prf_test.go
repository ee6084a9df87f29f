package prf

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func testKey() []byte { return bytes.Repeat([]byte{0x42}, MinKeyBytes) }

// TestGeneratorKeyLength: the one place a key enters from outside refuses
// 37 bytes and accepts 38; the library constructors accept any length.
func TestGeneratorKeyLength(t *testing.T) {
	if _, err := GeneratorKey(strings.Repeat("ab", MinKeyBytes-1)); !errors.Is(err, ErrShortKey) {
		t.Errorf("%d-byte key: got err %v, want ErrShortKey", MinKeyBytes-1, err)
	}
	if _, err := GeneratorKey("00"); !errors.Is(err, ErrShortKey) {
		t.Errorf("1-byte key: got err %v, want ErrShortKey", err)
	}
	key, err := GeneratorKey(strings.Repeat("ab", MinKeyBytes))
	if err != nil || !bytes.Equal(key, bytes.Repeat([]byte{0xab}, MinKeyBytes)) {
		t.Errorf("%d-byte key: got %x, err %v", MinKeyBytes, key, err)
	}
	if _, err := GeneratorKey("not hex"); err == nil || errors.Is(err, ErrShortKey) {
		t.Errorf("non-hex key: got err %v, want a decode error", err)
	}
	dev, err := GeneratorKey("")
	if err != nil || len(dev) != MinKeyBytes {
		t.Errorf("development key: %d bytes, err %v", len(dev), err)
	}
	NewFunc([]byte("short")).Uint64([]byte("x")) // constructors stay permissive
}

func TestFuncDeterministic(t *testing.T) {
	f := NewFunc(testKey())
	a := f.Uint64([]byte("user-1"), []byte("subset"), []byte{1, 0, 1})
	b := f.Uint64([]byte("user-1"), []byte("subset"), []byte{1, 0, 1})
	if a != b {
		t.Fatalf("same tuple gave %d then %d", a, b)
	}
	g := NewFunc(testKey())
	if g.Uint64([]byte("user-1"), []byte("subset"), []byte{1, 0, 1}) != a {
		t.Fatal("same key, fresh Func: output differs")
	}
}

func TestFuncKeySeparation(t *testing.T) {
	f := NewFunc(testKey())
	other := bytes.Repeat([]byte{0x43}, MinKeyBytes)
	g := NewFunc(other)
	same := 0
	for i := byte(0); i < 100; i++ {
		if f.Uint64([]byte{i}) == g.Uint64([]byte{i}) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different keys agreed on %d/100 inputs", same)
	}
}

func TestFuncTupleBoundaries(t *testing.T) {
	// ("ab","c") must differ from ("a","bc") and from ("abc").
	f := NewFunc(testKey())
	a := f.Uint64([]byte("ab"), []byte("c"))
	b := f.Uint64([]byte("a"), []byte("bc"))
	c := f.Uint64([]byte("abc"))
	if a == b || a == c || b == c {
		t.Errorf("tuple encoding is ambiguous: %d %d %d", a, b, c)
	}
}

func TestFuncTupleBoundariesProperty(t *testing.T) {
	f := NewFunc(testKey())
	prop := func(x, y []byte, split uint8) bool {
		joined := append(append([]byte(nil), x...), y...)
		if len(joined) == 0 {
			return true
		}
		s := int(split) % (len(joined) + 1)
		a, b := joined[:s], joined[s:]
		// Only when the split reproduces the original pair may outputs match.
		if bytes.Equal(a, x) && bytes.Equal(b, y) {
			return f.Uint64(a, b) == f.Uint64(x, y)
		}
		return f.Uint64(a, b) != f.Uint64(x, y)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestUint64ApproximatelyUniform reads the top 53 bits of each output as a
// fraction in [0,1) — the bits Prob.Decide compares first — and checks
// their first two moments and decile counts.
func TestUint64ApproximatelyUniform(t *testing.T) {
	f := NewFunc(testKey())
	const n = 20000
	var sum, sumSq float64
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		u := f.Uint64([]byte("uniformity"), []byte{byte(i), byte(i >> 8), byte(i >> 16)})
		v := float64(u>>11) / (1 << 53)
		sum += v
		sumSq += v * v
		buckets[int(v*10)]++
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	variance := sumSq/n - mean*mean
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("variance = %v, want ~1/12", variance)
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.02 {
			t.Errorf("bucket %d has fraction %v, want ~0.1", i, frac)
		}
	}
}

func TestExpandDeterministicAndPrefixConsistent(t *testing.T) {
	f := NewFunc(testKey())
	long := make([]byte, 200)
	f.Expand(long, []byte("stream"))
	short := make([]byte, 64)
	f.Expand(short, []byte("stream"))
	if !bytes.Equal(long[:64], short) {
		t.Error("Expand is not prefix-consistent for the same tuple")
	}
	other := make([]byte, 64)
	f.Expand(other, []byte("stream2"))
	if bytes.Equal(short, other) {
		t.Error("different tuples produced identical streams")
	}
}

func TestDeriveKeyIndependence(t *testing.T) {
	f := NewFunc(testKey())
	k1 := f.DeriveKey("alpha", 38)
	k2 := f.DeriveKey("beta", 38)
	if bytes.Equal(k1, k2) {
		t.Error("derived keys for different labels are equal")
	}
	if len(k1) != 38 {
		t.Errorf("derived key length = %d, want 38", len(k1))
	}
	if bytes.Equal(k1, make([]byte, 38)) {
		t.Error("derived key is all zeros")
	}
}

func TestFuncConcurrentUse(t *testing.T) {
	f := NewFunc(testKey())
	want := f.Uint64([]byte("concurrent"))
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := f.Uint64([]byte("concurrent")); got != want {
					errs <- errors.New("concurrent evaluation returned a different value")
					return
				}
				_ = f.Uint64([]byte{byte(g), byte(i)})
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}
