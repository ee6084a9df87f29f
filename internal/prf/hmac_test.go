package prf

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// RFC 4231 HMAC-SHA-256 test vectors.
func TestHMACVectors(t *testing.T) {
	mustHex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatalf("bad hex in test vector: %v", err)
		}
		return b
	}
	cases := []struct {
		name string
		key  []byte
		msg  []byte
		want string
	}{
		{
			name: "rfc4231-1",
			key:  mustHex(strings.Repeat("0b", 20)),
			msg:  []byte("Hi There"),
			want: "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
		},
		{
			name: "rfc4231-2",
			key:  []byte("Jefe"),
			msg:  []byte("what do ya want for nothing?"),
			want: "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
		},
		{
			name: "rfc4231-3",
			key:  mustHex(strings.Repeat("aa", 20)),
			msg:  mustHex(strings.Repeat("dd", 50)),
			want: "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
		},
		{
			name: "rfc4231-4",
			key:  mustHex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
			msg:  mustHex(strings.Repeat("cd", 50)),
			want: "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
		},
		{
			name: "rfc4231-6-long-key",
			key:  mustHex(strings.Repeat("aa", 131)),
			msg:  []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			want: "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
		},
		{
			name: "rfc4231-7-long-key-long-msg",
			key:  mustHex(strings.Repeat("aa", 131)),
			msg:  []byte("This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."),
			want: "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
		},
	}
	for _, c := range cases {
		got := HMAC(c.key, c.msg)
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("%s: HMAC = %x, want %s", c.name, got, c.want)
		}
	}
	// The same vectors through the product's engines: each scalar engine
	// on a lone message, and 8 lanes on a pair.
	eachScalarEngine(t, func(t *testing.T) {
		defer SetLanes(0)
		for _, c := range cases {
			me := NewFunc(c.key).NewMultiEvaluator()
			if got := digestOne(me, c.msg); hex.EncodeToString(got[:]) != c.want {
				t.Errorf("%s: scalar engine = %x, want %s", c.name, got, c.want)
			}
			if err := SetLanes(8); err != nil {
				t.Fatal(err)
			}
			var out [2][DigestSize]byte
			me.DigestBatch([][]byte{c.msg, c.msg}, out[:])
			for _, d := range out {
				if hex.EncodeToString(d[:]) != c.want {
					t.Errorf("%s: 8 lanes = %x, want %s", c.name, d, c.want)
				}
			}
			if err := SetLanes(0); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestHMACStateMatchesOneShot holds the engines to the reference across
// every padding boundary: each message length 0…200 (the inner hash's last
// block fills at 55/56 and 119/120, the message's own at 63/64 and 127/128)
// under keys shorter than, equal to and longer than a block (a longer one
// is hashed first), through every entry point that reaches the midstates —
// the scalar engine behind Func and a lone message, and the batch
// evaluator at both lane policies — against the direct RFC 2104
// construction over the from-scratch hash.  The 8-lane engine's raw
// midstate words, which compress8 computes at key construction, are held
// word for word to the reference compress over the pad blocks, so a wrong
// one is named before it shows as a digest mismatch.
func TestHMACStateMatchesOneShot(t *testing.T) {
	defer SetLanes(0)
	const maxLen = 200
	data := make([]byte, maxLen)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	msgs := make([][]byte, maxLen+1)
	for n := range msgs {
		msgs[n] = data[:n]
	}
	want := make([][DigestSize]byte, len(msgs))
	got := make([][DigestSize]byte, len(msgs))
	for _, keyLen := range []int{0, 1, 38, 63, 64, 65, 200} {
		key := bytes.Repeat([]byte{0xa7}, keyLen)
		f := NewFunc(key)
		ipad, opad := hmacPads(key)
		istate, ostate := sha256InitState, sha256InitState
		compress(&istate, ipad[:])
		compress(&ostate, opad[:])
		if f.mac.istate != istate {
			t.Fatalf("key %d B: istate = %08x, want %08x", keyLen, f.mac.istate, istate)
		}
		if f.mac.ostate != ostate {
			t.Fatalf("key %d B: ostate = %08x, want %08x", keyLen, f.mac.ostate, ostate)
		}
		me := f.NewMultiEvaluator()
		for n, m := range msgs {
			want[n] = HMAC(key, m)
			if d := digestOne(me, m); d != want[n] {
				t.Fatalf("key %d B, msg %d B: lone DigestBatch = %x, want %x", keyLen, n, d, want[n])
			}
			// Func.Digest tuple-encodes its parts: 16 more bytes of message.
			if d, w := f.Digest(m), HMAC(key, encodeTuple(nil, m)); d != w {
				t.Fatalf("key %d B, part %d B: Func.Digest = %x, want %x", keyLen, n, d, w)
			}
		}
		for _, lanes := range []int{1, 8} {
			if err := SetLanes(lanes); err != nil {
				t.Fatal(err)
			}
			me.DigestBatch(msgs, got)
			for n := range msgs {
				if got[n] != want[n] {
					t.Fatalf("key %d B, msg %d B, lanes %d: DigestBatch = %x, want %x", keyLen, n, lanes, got[n], want[n])
				}
			}
		}
	}
}

func TestHMACKeyAndMessageSensitivity(t *testing.T) {
	base := HMAC([]byte("key"), []byte("msg"))
	if HMAC([]byte("kez"), []byte("msg")) == base {
		t.Error("changing key did not change HMAC output")
	}
	if HMAC([]byte("key"), []byte("msh")) == base {
		t.Error("changing message did not change HMAC output")
	}
}
