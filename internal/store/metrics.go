package store

import (
	"time"

	"sketchprivacy/internal/obs"
)

// metrics holds the store's hot-path instruments.  A nil *metrics (no
// registry in Options) disables instrumentation entirely: the WAL and
// compaction paths pay one nil check and skip the time.Now calls, so an
// uninstrumented store runs exactly as before.
type metrics struct {
	appendLatency  *obs.Histogram
	fsyncLatency   *obs.Histogram
	rolls          *obs.Counter
	rollFailures   *obs.Counter
	compactions    *obs.Counter
	compactLatency *obs.Histogram
	// Group-commit instruments: one observation per committed window.
	commits       *obs.Counter
	commitLatency *obs.Histogram
	// commitRecords abuses the duration histogram as a size histogram:
	// windows observe 1s per record, so bucket bounds and the rendered
	// sum read directly as record counts.
	commitRecords *obs.Histogram
	// logDecodes counts on-demand decodes of a log: a roll or a read that
	// found no runs kept since the last append.
	logDecodes *obs.Counter
}

// commitRecordBuckets are the store_commit_records bounds: powers of two
// from 1 to 1024 records (encoded as seconds, see metrics.commitRecords).
var commitRecordBuckets = func() []time.Duration {
	var b []time.Duration
	for n := 1; n <= 1024; n *= 2 {
		b = append(b, time.Duration(n)*time.Second)
	}
	return b
}()

// newMetrics registers the store's instrument families on reg.
func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		appendLatency:  reg.Histogram("store_wal_append_seconds", "Latency of one WAL window append (write syscall, excluding fsync).", nil),
		fsyncLatency:   reg.Histogram("store_wal_fsync_seconds", "Latency of the per-window WAL fsync (only recorded when Options.Fsync is on).", nil),
		rolls:          reg.Counter("store_wal_rolls_total", "WAL-to-segment rolls completed."),
		rollFailures:   reg.Counter("store_roll_failures_total", "Inline WAL-to-segment roll attempts that failed (the records stay durable in the WAL; the roll is retried after another flush threshold of growth)."),
		compactions:    reg.Counter("store_compactions_total", "Segment compaction merges completed."),
		compactLatency: reg.Histogram("store_compaction_seconds", "Duration of one shard's segment compaction merge.", nil),
		commits:        reg.Counter("store_commits_total", "Group-commit windows committed (each is one WAL write and, in fsync mode, one fsync)."),
		commitLatency:  reg.Histogram("store_commit_seconds", "Latency of one group-commit window's WAL write+fsync.", nil),
		commitRecords:  reg.Histogram("store_commit_records", "Records per committed group-commit window (bounds are record counts, not seconds).", commitRecordBuckets),
		logDecodes:     reg.Counter("store_wal_decodes_total", "On-demand decodes of a shard's log: a roll, read or stream that found no runs kept since the last append."),
	}
}

// registerCollectors wires the render-time gauges: per-shard WAL and
// segment sizes (bytes, records, segment count) read from Stats on each
// scrape, plus the startup replay duration.  Collectors take shard locks
// only at scrape time, never on the append path.
func (d *Durable) registerCollectors(reg *obs.Registry) {
	emitPerShard := func(pick func(ShardStats) float64) func(emit func(v float64, labels ...obs.Label)) {
		return func(emit func(v float64, labels ...obs.Label)) {
			for _, s := range d.Stats().Shards {
				emit(pick(s), obs.L("shard", shardDirName(s.Shard)))
			}
		}
	}
	reg.CollectFunc("store_wal_bytes", "Current WAL size per shard in bytes.", obs.TypeGauge,
		emitPerShard(func(s ShardStats) float64 { return float64(s.WALBytes) }))
	reg.CollectFunc("store_wal_records", "Acknowledged records currently in each shard's WAL.", obs.TypeGauge,
		emitPerShard(func(s ShardStats) float64 { return float64(s.WALRecords) }))
	reg.CollectFunc("store_segments", "Immutable segments per shard.", obs.TypeGauge,
		emitPerShard(func(s ShardStats) float64 { return float64(s.Segments) }))
	reg.CollectFunc("store_segment_bytes", "Total segment bytes per shard.", obs.TypeGauge,
		emitPerShard(func(s ShardStats) float64 { return float64(s.SegmentBytes) }))
	reg.CollectFunc("store_segment_records", "Total segment records per shard.", obs.TypeGauge,
		emitPerShard(func(s ShardStats) float64 { return float64(s.SegmentRecords) }))
	reg.GaugeFunc("store_roll_failing", "Shards whose last inline WAL roll failed and has not succeeded since (non-zero turns sketchd's /healthz degraded).",
		func() float64 { return float64(d.RollFailing()) })
	reg.GaugeFunc("store_replay_seconds", "Wall time the last Open spent replaying WALs and validating segments.",
		func() float64 { return d.replayTime.Seconds() })
}

// now is time.Now behind the nil gate: instrumentation sites call it only
// when a metrics struct is installed.
func now(m *metrics) time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}
