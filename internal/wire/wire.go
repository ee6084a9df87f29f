// Package wire defines the compact binary protocol the collection server
// and client speak: length-prefixed frames carrying published sketches,
// compiled query plans and their raw counters.  The encoding reuses the canonical
// byte forms of the underlying types (subset tags, value vectors, sketch
// keys), so the bytes on the wire are exactly the public objects of the
// paper — experiment E16 measures their size directly.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// Message types.  2 and 3 are retired and stay unassigned (see
// ProtocolVersion).
const (
	// TypePublish carries one published sketch from a user to the collector.
	TypePublish byte = 1
	// TypeAck acknowledges a publish.
	TypeAck byte = 4
	// TypeError carries a protocol- or query-level error message.
	TypeError byte = 5
)

// MaxFrameSize bounds a single frame; sketches and conjunctive queries are
// tiny, so anything larger indicates a corrupt or hostile peer.
const MaxFrameSize = 1 << 20

// FrameHeaderSize is the byte cost every frame pays before its payload:
// the type byte, the 4-byte big-endian payload length and the 4-byte
// CRC32-C of the payload.
const FrameHeaderSize = 9

// frameCRC is the frame checksum polynomial: Castagnoli, the one the
// durable store checksums its log frames and segment blocks with
// (store.checksum), hardware-accelerated on every platform this runs on.
var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// Frame errors.
var (
	// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrCorrupt is returned when a payload cannot be decoded.
	ErrCorrupt = errors.New("wire: corrupt payload")
	// ErrFrameChecksum is returned when a frame's payload does not match
	// its header CRC: the bytes were corrupted in flight (or a torn write
	// spliced two frames together).  The connection cannot be trusted past
	// this point — later frames have no self-synchronization — so readers
	// hang up and the peer retries on a fresh connection.
	ErrFrameChecksum = errors.New("wire: frame checksum mismatch")
)

// WriteFrame writes a type byte, a 4-byte big-endian length, a 4-byte
// CRC32-C of the payload and the payload itself.  The checksum is what
// turns in-flight byte corruption from a silently wrong estimate into a
// loud ErrFrameChecksum on the reading side: raw counters carried in
// plan results merge into published numbers, so a flipped bit must
// never decode cleanly.
func WriteFrame(w io.Writer, msgType byte, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	header := make([]byte, FrameHeaderSize)
	header[0] = msgType
	binary.BigEndian.PutUint32(header[1:], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[5:], crc32.Checksum(payload, frameCRC))
	if _, err := w.Write(header); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame, verifying the payload
// checksum.
func ReadFrame(r io.Reader) (msgType byte, payload []byte, err error) {
	header := make([]byte, FrameHeaderSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(header[1:])
	if size > MaxFrameSize {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	payload = make([]byte, size)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if got, want := crc32.Checksum(payload, frameCRC), binary.BigEndian.Uint32(header[5:]); got != want {
		return 0, nil, fmt.Errorf("%w: frame type %d, %d payload bytes", ErrFrameChecksum, header[0], size)
	}
	return header[0], payload, nil
}

// appendBytes appends a 4-byte length prefix and the bytes.
func appendBytes(dst, b []byte) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	dst = append(dst, l[:]...)
	return append(dst, b...)
}

// readBytes consumes a length-prefixed byte string.
func readBytes(src []byte) (value, rest []byte, err error) {
	if len(src) < 4 {
		return nil, nil, ErrCorrupt
	}
	n := binary.BigEndian.Uint32(src)
	src = src[4:]
	if uint32(len(src)) < n {
		return nil, nil, ErrCorrupt
	}
	return src[:n], src[n:], nil
}

// EncodePublished serializes a published sketch.
func EncodePublished(p sketch.Published) []byte {
	return AppendPublished(make([]byte, 0, PublishedEncodedLen(p)), p)
}

// PublishedEncodedLen returns len(EncodePublished(p)) without encoding.
func PublishedEncodedLen(p sketch.Published) int {
	return 8 + 4 + p.Subset.TagLen() + 4 + p.S.EncodedLen()
}

// AppendPublished appends the EncodePublished encoding to dst without
// intermediate allocations; the store's WAL assembles records into
// reusable scratch through it.
func AppendPublished(dst []byte, p sketch.Published) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.ID))
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Subset.TagLen()))
	dst = p.Subset.AppendTag(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.S.EncodedLen()))
	return p.S.AppendBytes(dst)
}

// DecodePublished reverses EncodePublished.
func DecodePublished(b []byte) (sketch.Published, error) {
	return decodePublished(b, nil)
}

// PublishedDecoder decodes a stream of encoded published records, reusing
// the parsed subset across consecutive records that carry identical tag
// bytes.  Segment records are sorted by subset key and replayed WAL batches
// cluster by subset, so the store's startup replay hits the cache almost
// every record and skips the tag parse (and its per-record allocations).
// Decoded records of one run share a single Subset value, which is safe:
// subsets are immutable.  The zero value is ready to use; a decoder is not
// safe for concurrent use.
type PublishedDecoder struct {
	tag    []byte
	subset bitvec.Subset
}

// Decode is DecodePublished with the decoder's subset cache.
func (d *PublishedDecoder) Decode(b []byte) (sketch.Published, error) {
	return decodePublished(b, d)
}

func decodePublished(b []byte, d *PublishedDecoder) (sketch.Published, error) {
	if len(b) < 8 {
		return sketch.Published{}, ErrCorrupt
	}
	id := bitvec.UserID(binary.BigEndian.Uint64(b))
	rest := b[8:]
	tag, rest, err := readBytes(rest)
	if err != nil {
		return sketch.Published{}, err
	}
	var subset bitvec.Subset
	if d != nil && d.tag != nil && bytes.Equal(tag, d.tag) {
		subset = d.subset
	} else {
		subset, err = bitvec.ParseTag(tag)
		if err != nil {
			return sketch.Published{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if d != nil {
			d.subset = subset
			d.tag = append(d.tag[:0], tag...)
		}
	}
	sb, rest, err := readBytes(rest)
	if err != nil {
		return sketch.Published{}, err
	}
	if len(rest) != 0 {
		return sketch.Published{}, ErrCorrupt
	}
	s, err := sketch.ParseSketch(sb)
	if err != nil {
		return sketch.Published{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return sketch.Published{ID: id, Subset: subset, S: s}, nil
}

// PublishedWireSize returns the number of bytes a published sketch occupies
// on the wire (used by experiment E16).
func PublishedWireSize(p sketch.Published) int { return len(EncodePublished(p)) + FrameHeaderSize }
