package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("hello"), bytes.Repeat([]byte{7}, 1000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, want) {
			t.Errorf("frame %d: type %d payload %q", i, typ, got)
		}
	}
}

func TestFrameLimitsAndTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Error("oversized frame accepted on write")
	}
	// Hand-craft an oversized header (type, length, checksum).
	hdr := []byte{1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Error("oversized frame accepted on read")
	}
	// Truncated stream.
	var short bytes.Buffer
	WriteFrame(&short, 2, []byte("abcdef"))
	trunc := short.Bytes()[:short.Len()-3]
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestFrameChecksumRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 3, []byte("counter payload")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit: the reader must refuse the frame rather than
	// hand a silently different payload to the decoder.
	for i := FrameHeaderSize; i < buf.Len(); i++ {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[i] ^= 0x40
		if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameChecksum) {
			t.Fatalf("corrupt byte %d: got %v, want ErrFrameChecksum", i, err)
		}
	}
	// A corrupted checksum field itself must also fail.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[5] ^= 0x01
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameChecksum) {
		t.Fatalf("corrupt checksum: got %v, want ErrFrameChecksum", err)
	}
	// The untouched frame still reads back.
	typ, payload, err := ReadFrame(bytes.NewReader(buf.Bytes()))
	if err != nil || typ != 3 || string(payload) != "counter payload" {
		t.Fatalf("clean frame: type %d payload %q err %v", typ, payload, err)
	}
}

func TestPublishedRoundTrip(t *testing.T) {
	p := sketch.Published{
		ID:     42,
		Subset: bitvec.MustSubset(3, 0, 17),
		S:      sketch.Sketch{Key: 513, Length: 12},
	}
	back, err := DecodePublished(EncodePublished(p))
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != p.ID || !back.Subset.Equal(p.Subset) || back.S != p.S {
		t.Errorf("round trip gave %+v", back)
	}
	if PublishedWireSize(p) <= 0 {
		t.Error("wire size should be positive")
	}
}

func TestPublishedRoundTripProperty(t *testing.T) {
	prop := func(id uint32, positions [4]uint8, key uint16, lenRaw uint8) bool {
		seen := map[int]bool{}
		var pos []int
		for _, pr := range positions {
			p := int(pr)
			if !seen[p] {
				seen[p] = true
				pos = append(pos, p)
			}
		}
		length := int(lenRaw%sketch.MaxLength) + 1
		p := sketch.Published{
			ID:     bitvec.UserID(id),
			Subset: bitvec.MustSubset(pos...),
			S:      sketch.Sketch{Key: uint64(key) & (1<<uint(length) - 1), Length: length},
		}
		back, err := DecodePublished(EncodePublished(p))
		return err == nil && back.ID == p.ID && back.Subset.Equal(p.Subset) && back.S == p.S
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodePublishedRejectsCorrupt(t *testing.T) {
	good := EncodePublished(sketch.Published{ID: 1, Subset: bitvec.MustSubset(0), S: sketch.Sketch{Key: 1, Length: 4}})
	cases := [][]byte{
		nil,
		good[:5],
		good[:len(good)-1],
		append(append([]byte(nil), good...), 0xff),
	}
	for i, c := range cases {
		if _, err := DecodePublished(c); !errors.Is(err, ErrCorrupt) && err == nil {
			t.Errorf("case %d: corrupt payload accepted", i)
		}
	}
}
