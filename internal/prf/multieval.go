package prf

import "encoding/binary"

// MultiEvaluator is the per-goroutine handle on a keyed PRF: it evaluates
// the PRF over many pre-encoded messages at once, packing up to 8 messages
// into each pass of the multi-lane SHA-256 compression unless the lane
// policy (Lanes) says scalar, and over a lone message through the scalar
// engine (Uint64Msg).  Like the scalar engine it resumes from the HMAC
// ipad/opad midstates, so a message of b post-midstate blocks costs b+1
// compression passes for a whole lane group instead of per message.
//
// Messages of unequal length are handled by bucketing: the batch is
// ordered by inner block count, each run of equal-size messages fills lane
// groups, and ragged tails (a group of one) fall back to the scalar engine
// (eng — the same one Func runs, and the whole of the work under lane
// policy 1).  Output is bit-identical to evaluating each message alone,
// whatever the lane policy — FuzzMultiLaneEquivalence holds both widths to
// that.
//
// A MultiEvaluator is NOT safe for concurrent use — create one per
// goroutine (the staging arrays make it a few KiB) or pool it.
type MultiEvaluator struct {
	mac    *hmacState
	states laneStates
	blocks laneBlocks
	w      laneSchedule
	eng    resumed // the scalar engine: lane policy 1 and lone messages
	// idx orders the batch by inner block count without allocating.
	idx []int
	// group holds the current lane group's messages; unused lanes repeat
	// the last real message so every lane compresses valid data.
	group [lanesMax][]byte
}

// NewMultiEvaluator returns a fresh batch evaluation handle for this
// function, sharing its immutable key schedule.
func (f *Func) NewMultiEvaluator() *MultiEvaluator {
	return &MultiEvaluator{mac: f.mac}
}

// Rebind points the evaluator at a (possibly different) keyed function
// while keeping its staging buffers, so pools can reuse it across keys.
func (m *MultiEvaluator) Rebind(f *Func) { m.mac = f.mac }

// innerBlocks returns how many post-midstate compressions the inner hash
// of an n-byte message costs: the message plus mandatory padding (0x80 and
// the 8-byte bit length), rounded up to whole blocks.
func innerBlocks(n int) int { return (n + 9 + BlockSize - 1) / BlockSize }

// Uint64Msg evaluates the PRF on one tuple-encoded message through the
// scalar engine, whatever the lane policy: the output Uint64Batch writes
// for it.  With it the handle that scans batches (Algorithm 2) also answers
// lone messages (Algorithm 1's candidate keys).
func (m *MultiEvaluator) Uint64Msg(msg []byte) uint64 {
	d := m.eng.hmac(m.mac, msg)
	return binary.BigEndian.Uint64(d[:8])
}

// Uint64Batch evaluates the PRF on every message, writing the uniform
// 64-bit output of msgs[i] to out[i].  out must be at least len(msgs)
// long.  It allocates nothing after warm-up.
func (m *MultiEvaluator) Uint64Batch(msgs [][]byte, out []uint64) {
	_ = out[:len(msgs)]
	if Lanes() == 1 || len(msgs) < 2 {
		for i, msg := range msgs {
			out[i] = m.Uint64Msg(msg)
		}
		return
	}
	m.eachGroup(msgs, func(idx []int, k int) {
		for l := 0; l < k; l++ {
			out[idx[l]] = uint64(m.states[0][l])<<32 | uint64(m.states[1][l])
		}
	}, func(i int) {
		out[i] = m.Uint64Msg(msgs[i])
	})
}

// DigestBatch evaluates the PRF on every message, writing the full 32-byte
// digest of msgs[i] to out[i].  out must be at least len(msgs) long.
func (m *MultiEvaluator) DigestBatch(msgs [][]byte, out [][DigestSize]byte) {
	_ = out[:len(msgs)]
	if Lanes() == 1 || len(msgs) < 2 {
		for i, msg := range msgs {
			out[i] = m.eng.hmac(m.mac, msg)
		}
		return
	}
	m.eachGroup(msgs, func(idx []int, k int) {
		for l := 0; l < k; l++ {
			d := &out[idx[l]]
			for i := 0; i < 8; i++ {
				binary.BigEndian.PutUint32(d[4*i:], m.states[i][l])
			}
		}
	}, func(i int) {
		out[i] = m.eng.hmac(m.mac, msgs[i])
	})
}

// eachGroup orders the batch by inner block count, carves each equal-size
// run into lane groups and runs the multi-lane HMAC over them, calling
// emit with the group's message indices; lone leftovers go through scalar.
func (m *MultiEvaluator) eachGroup(msgs [][]byte, emit func(idx []int, k int), scalar func(i int)) {
	idx := m.idx[:0]
	for i := range msgs {
		idx = append(idx, i)
	}
	// Insertion sort by block count: the hot callers batch equal-length
	// messages, so this is one linear pass; mixed batches are small.
	for i := 1; i < len(idx); i++ {
		j, v := i, idx[i]
		nb := innerBlocks(len(msgs[v]))
		for j > 0 && innerBlocks(len(msgs[idx[j-1]])) > nb {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = v
	}
	m.idx = idx
	for lo := 0; lo < len(idx); {
		nb := innerBlocks(len(msgs[idx[lo]]))
		hi := lo + 1
		for hi < len(idx) && innerBlocks(len(msgs[idx[hi]])) == nb {
			hi++
		}
		for glo := lo; glo < hi; glo += lanesMax {
			k := min(hi-glo, lanesMax)
			if k == 1 {
				scalar(idx[glo])
				continue
			}
			for l := 0; l < lanesMax; l++ {
				src := glo + l
				if src >= hi {
					src = hi - 1 // repeat the last real message into spare lanes
				}
				m.group[l] = msgs[idx[src]]
			}
			m.hmacLanes(nb)
			emit(idx[glo:hi], k)
		}
		lo = hi
	}
}

// hmacLanes runs the midstate-resumed HMAC over the messages staged in
// m.group, all of inner block count nb, leaving lane l's digest words in
// m.states[0..7][l].
func (m *MultiEvaluator) hmacLanes(nb int) {
	// Inner hash: resume every lane from the ipad midstate and absorb the
	// padded message blocks.
	for i := 0; i < 8; i++ {
		for l := 0; l < lanesMax; l++ {
			m.states[i][l] = m.mac.istate[i]
		}
	}
	for b := 0; b < nb; b++ {
		for l := 0; l < lanesMax; l++ {
			fillPaddedBlock(&m.blocks[l], m.group[l], b, nb)
		}
		compress8(&m.states, &m.blocks, &m.w)
	}
	// Outer hash: one block per lane — the 32-byte inner digest, 0x80,
	// zeros, and the bit length of the opad block plus the digest.
	for l := 0; l < lanesMax; l++ {
		blk := &m.blocks[l]
		for i := 0; i < 8; i++ {
			binary.BigEndian.PutUint32(blk[4*i:], m.states[i][l])
		}
		blk[DigestSize] = 0x80
		for i := DigestSize + 1; i < BlockSize-8; i++ {
			blk[i] = 0
		}
		binary.BigEndian.PutUint64(blk[BlockSize-8:], (BlockSize+DigestSize)*8)
	}
	for i := 0; i < 8; i++ {
		for l := 0; l < lanesMax; l++ {
			m.states[i][l] = m.mac.ostate[i]
		}
	}
	compress8(&m.states, &m.blocks, &m.w)
}

// fillPaddedBlock writes 64 bytes of the inner hash's padded stream — the
// message, then 0x80, zeros and the 8-byte bit length (which counts the
// already-absorbed ipad block) — for the given block ordinal.
func fillPaddedBlock(dst *[BlockSize]byte, msg []byte, block, nblocks int) {
	off := block * BlockSize
	n := 0
	if off < len(msg) {
		n = copy(dst[:], msg[off:])
	}
	if n == BlockSize {
		return
	}
	for i := n; i < BlockSize; i++ {
		dst[i] = 0
	}
	if p := len(msg) - off; p >= 0 && p < BlockSize {
		dst[p] = 0x80
	}
	if block == nblocks-1 {
		binary.BigEndian.PutUint64(dst[BlockSize-8:], uint64(BlockSize+len(msg))*8)
	}
}
