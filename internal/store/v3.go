package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// Format v3 is the one old format the store still reads.  It is v4 with an
// id column of 8-byte big-endian ids: a run's columns in a log frame are
// count ids and then count sketch words, and a segment block is the ids of
// up to 64 records, their words and the block's checksum.  Nothing writes
// it.  A v3 log is rolled into a v4 segment before its shard serves
// (rollV3Log); a v3 segment is read where it lies — the walk and the reads
// of segment.go, told apart by segIndex.v3 — until a compaction merges it
// into a v4 one.  decodeColumns below is the whole of the v3 decoder.
//
// A directory older than v3 — per-record logs, v1 or v2 segments, no
// format marker in its manifest — is refused with ErrFormatTooOld.
var (
	walMagicV3 = [8]byte{'S', 'K', 'W', 'A', 'L', 0, 0, 3}
	segMagicV3 = [8]byte{'S', 'K', 'S', 'E', 'G', 0, 0, 3}
)

// decodeColumns appends the n records whose v3 columns src holds exactly
// to ids and keys, refusing — before it appends any — a word that is no
// valid sketch.
func decodeColumns(src []byte, n, width int, ids []bitvec.UserID, keys sketch.Words) ([]bitvec.UserID, sketch.Words, error) {
	if len(src) != n*(8+width) {
		return ids, keys, fmt.Errorf("%d-byte columns for %d records of width %d", len(src), n, width)
	}
	keys, err := keys.AppendEncoded(src[8*n:], width)
	if err != nil {
		return ids, keys, err
	}
	for i := 0; i < n; i++ {
		ids = append(ids, bitvec.UserID(binary.BigEndian.Uint64(src[8*i:])))
	}
	return ids, keys, nil
}

// decodeBlockV3 is decodeBlock's v3 arm: cols is a block's columns, its
// checksum verified.
func decodeBlockV3(cols []byte, m, width int, ids *sketch.IDBuilder, keys sketch.Words) (bitvec.UserID, sketch.Words, error) {
	var buf [segBlockRecords]bitvec.UserID
	raw, keys, err := decodeColumns(cols, m, width, buf[:0], keys)
	if err != nil {
		return 0, keys, err
	}
	return raw[0], keys, ids.AppendAscending(raw)
}

// readMagic returns the first 8 bytes of the file at path, fewer if it is
// shorter, none if it does not exist.
func readMagic(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var head [8]byte
	n, err := io.ReadFull(f, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return head[:n], nil
}

// rollV3Log rewrites a v3 log left in a shard directory, and nothing else:
// its acknowledged records — the valid prefix, as a replay would keep it —
// become segment seq, newer than every other, beside a new empty log.
// Both files go through a fsynced temporary file and a rename, so a crash
// leaves each old or new and the next Open carries on; a crash between the
// segment and the new log leaves the records in both, which deduplication
// absorbs.  It reports whether it wrote the segment.
func rollV3Log(dir string, seq uint64) (rolled bool, err error) {
	logPath := filepath.Join(dir, walName)
	head, err := readMagic(logPath)
	if err != nil || !bytes.Equal(head, walMagicV3[:]) {
		return false, err
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		return false, err
	}
	set := newRunSet()
	set.v3 = true
	if _, records := scanLog(data, set); records > 0 {
		image, idx := encodeSegment(set.normalized())
		if _, err := writeSegment(dir, seq, image, idx); err != nil {
			return false, fmt.Errorf("store: rolling the v3 log %s: %w", logPath, err)
		}
		rolled = true
	}
	if err := writeFileAtomic(logPath, walMagic[:]); err != nil {
		return rolled, fmt.Errorf("store: rolling the v3 log %s: %w", logPath, err)
	}
	return rolled, syncDir(dir)
}
