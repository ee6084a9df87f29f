package store

import (
	"os"
	"slices"

	"sketchprivacy/internal/bitvec"
	"sketchprivacy/internal/sketch"
)

// RunIterator is the part of Store that replays its contents as whole
// runs — one subset's records as id and sketch columns.  The engine
// rehydrates its table through it: each run lands with one column load.
type RunIterator interface {
	// IterateRuns calls fn with every stored record, deduplicated (the
	// newest record for a (user, subset) pair wins), as one run per subset
	// in subset-tag order, user ids ascending.  fn owns the run's columns.
	// Iteration stops at the first error, which is returned.
	IterateRuns(fn func(r sketch.Run) error) error
}

// runSource is one place a subset's run can come from during a merge: an
// open segment, or the log's normalized runs.
type runSource struct {
	// A segment: its index and its file, held open so that a compaction
	// removing the file mid-merge takes nothing away.
	idx *segIndex
	f   *os.File
	// The log: normalized runs, shared and immutable.
	log []run

	// Reused from subset to subset when reading a segment.
	raw  []byte
	keys sketch.Words
}

// subsets calls fn with the tag and subset of each of the source's runs.
func (s *runSource) subsets(fn func(tag string, subset bitvec.Subset)) {
	if s.idx != nil {
		for _, r := range s.idx.runs {
			fn(r.tag, r.subset)
		}
	}
	for _, r := range s.log {
		fn(r.tag, r.Subset)
	}
}

// load returns the source's run for tag, empty if it has none.  The
// word column is valid until the next load.
func (s *runSource) load(tag string) (sketch.Run, error) {
	if s.idx == nil {
		if i, ok := findRun(s.log, tag); ok {
			return s.log[i].Run, nil
		}
		return sketch.Run{}, nil
	}
	r, ok := s.idx.find(tag)
	if !ok {
		return sketch.Run{}, nil
	}
	raw, part, err := readBlocks(s.f, s.idx, r, 0, r.count, s.raw, s.keys)
	s.raw, s.keys = raw, part.Keys
	return part, err
}

// mergeSources calls emit with every subset's records across srcs as one
// run — ids ascending, the later source winning a (user, subset) pair two
// of them hold — in tag order.  Sources that can hold the same pair must
// be listed oldest first; sources of different shards never share a user.
// One subset is in memory at a time.  Each emitted run's columns are fresh.
func mergeSources(srcs []runSource, emit func(run) error) error {
	subsets := make(map[string]bitvec.Subset)
	for i := range srcs {
		srcs[i].subsets(func(tag string, subset bitvec.Subset) { subsets[tag] = subset })
	}
	tags := make([]string, 0, len(subsets))
	for tag := range subsets {
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	parts := make([]sketch.Run, 0, len(srcs))
	for _, tag := range tags {
		parts = parts[:0]
		for i := range srcs {
			part, err := srcs[i].load(tag)
			if err != nil {
				return err
			}
			parts = append(parts, part)
		}
		ids, keys := mergeColumns(parts)
		if err := emit(run{tag: tag, Run: sketch.Run{Subset: subsets[tag], IDs: ids, Keys: keys}}); err != nil {
			return err
		}
	}
	return nil
}

// openSources opens segs as merge sources, oldest first as listed.  The
// caller closes them.
func openSources(segs []segmentMeta) ([]runSource, error) {
	srcs := make([]runSource, 0, len(segs)+1)
	for _, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			closeSources(srcs)
			return nil, err
		}
		srcs = append(srcs, runSource{idx: seg.idx, f: f})
	}
	return srcs, nil
}

func closeSources(srcs []runSource) {
	for _, s := range srcs {
		if s.f != nil {
			s.f.Close()
		}
	}
}

// IterateRuns implements RunIterator.  Each shard is held only long enough
// to open its segments and take its log's runs — a consistent cut of the
// shard, which later rolls and compactions cannot take files away from —
// and the merge then runs, subset by subset across all shards at once,
// with no lock held.
func (d *Durable) IterateRuns(fn func(r sketch.Run) error) error {
	var srcs []runSource
	defer func() { closeSources(srcs) }()
	for _, sh := range d.shards {
		sh.mu.Lock()
		segs, err := openSources(sh.segs)
		var log []run
		if err == nil {
			log, err = sh.wal.runs()
		}
		sh.mu.Unlock()
		srcs = append(srcs, segs...)
		if err != nil {
			return err
		}
		// The log is newer than every segment of its shard.
		srcs = append(srcs, runSource{log: log})
	}
	return mergeSources(srcs, func(r run) error { return fn(r.Run) })
}

// Iterate is IterateRuns a record at a time: every record, deduplicated,
// in canonical (subset, user) order.
func (d *Durable) Iterate(fn func(p sketch.Published) error) error {
	var records []sketch.Published
	return d.IterateRuns(func(r sketch.Run) error {
		records = r.AppendTo(records[:0])
		for _, p := range records {
			if err := fn(p); err != nil {
				return err
			}
		}
		return nil
	})
}
