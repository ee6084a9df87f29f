package wire

import (
	"encoding/json"
	"fmt"
)

// Stats message types (the sketchctl stats opcode pair).
const (
	// TypeStats requests a server stats report; the payload is empty.
	TypeStats byte = 6
	// TypeStatsReply carries the report back, EncodeStats-encoded.
	TypeStatsReply byte = 7
)

// SubsetCount reports how many sketches one subset holds.
type SubsetCount struct {
	// Subset is the human-readable form, e.g. "{0,2,4}".
	Subset string `json:"subset"`
	// Positions is the subset's attribute positions in subset order.
	Positions []int `json:"positions"`
	// Count is the number of stored sketches for the subset.
	Count uint64 `json:"count"`
}

// ShardStats mirrors store.ShardStats on the wire (the wire package
// cannot import internal/store — the store frames its records with this
// package — so the type is duplicated here and converted by the server).
type ShardStats struct {
	Shard          int    `json:"shard"`
	WALBytes       int64  `json:"wal_bytes"`
	WALRecords     uint64 `json:"wal_records"`
	Segments       int    `json:"segments"`
	SegmentBytes   int64  `json:"segment_bytes"`
	SegmentRecords uint64 `json:"segment_records"`
}

// StoreStats describes the durable store backing a server, when any.
type StoreStats struct {
	// Dir is the server's data directory.
	Dir string `json:"dir"`
	// Records counts raw records across WALs and segments, before
	// deduplication.
	Records uint64 `json:"records"`
	// Shards holds per-shard sizes.
	Shards []ShardStats `json:"shards"`
}

// Robustness carries a node's request-path health counters: how often the
// per-connection read-idle deadline and the max-in-flight guard fired, and
// how many frames failed their payload checksum.  Operators watch these to
// see degradation (slow clients, bursts, a flaky link) before it becomes
// refusal.
type Robustness struct {
	// InFlight is the number of frames executing right now.
	InFlight int `json:"in_flight"`
	// MaxInFlight is the configured in-flight ceiling (0 = unlimited).
	MaxInFlight int `json:"max_in_flight"`
	// Overloads counts requests shed by the in-flight guard.
	Overloads uint64 `json:"overloads"`
	// IdleCloses counts connections closed by the read-idle deadline.
	IdleCloses uint64 `json:"idle_closes"`
	// ChecksumErrors counts frames refused for a CRC mismatch.
	ChecksumErrors uint64 `json:"checksum_errors"`
	// DeadlineAbandons counts plan executions abandoned because the
	// query's end-to-end budget expired mid-execution.
	DeadlineAbandons uint64 `json:"deadline_abandons"`
}

// Stats is the server report answering a TypeStats request.
type Stats struct {
	// Params is the human-readable mechanism parameter string.
	Params string `json:"params"`
	// P is the bias of the public function H.
	P float64 `json:"p"`
	// SketchBits is the sketch length ℓ.
	SketchBits int `json:"sketch_bits"`
	// Sketches is the total number of stored sketches.
	Sketches uint64 `json:"sketches"`
	// Subsets lists per-subset record counts.
	Subsets []SubsetCount `json:"subsets"`
	// SetAsideRecords counts the stored records the server does not serve,
	// their sketches not of its length ℓ: those its engine skipped loading
	// when it attached the store.
	SetAsideRecords uint64 `json:"set_aside_records"`
	// Store is present when the server runs on a durable store.
	Store *StoreStats `json:"store,omitempty"`
	// Robustness is present when the server tracks request-path health.
	Robustness *Robustness `json:"robustness,omitempty"`
}

// EncodeStats serializes a stats report.  Stats is an operator endpoint,
// not a hot path, so the payload is JSON rather than the hand-rolled
// binary encoding the data-plane messages use.
func EncodeStats(s Stats) []byte {
	out, err := json.Marshal(s)
	if err != nil {
		// Stats contains only plain data types; Marshal cannot fail.
		panic(fmt.Sprintf("wire: encoding stats: %v", err))
	}
	return out
}

// DecodeStats reverses EncodeStats.
func DecodeStats(b []byte) (Stats, error) {
	var s Stats
	if err := json.Unmarshal(b, &s); err != nil {
		return Stats{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}
