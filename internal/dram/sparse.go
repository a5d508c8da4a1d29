package dram

// Sparse chunk-granular backing store for Device data.
//
// A Device used to hold its entire capacity as one dense []byte, which made
// NewDevice for a multi-GiB profile cost gigabytes up front even though the
// experiments touch a few megabytes of it.  The store below allocates
// fixed-size segments on first *distinguishing* bulk write: reads of
// untouched memory return the fill pattern (zero — DRAM hands the kernel
// zeroed frames in this simulation) without materialising anything, writes
// that store the fill pattern into an untouched segment are elided, and
// single-byte stores into one are kept as a short list until there are
// too many of them.  The observable byte sequence is identical to the
// dense array for every operation order, which is why the E1–E17 goldens
// are pinned byte-for-byte across the switch (see
// TestSparseDenseObservationalEquivalence).

// storeChunkBytes is the segment granularity: large enough that the chunk
// index of an 8 GiB device stays around a megabyte, small enough that one
// touched page does not materialise a noticeable fraction of a bank.
const storeChunkBytes = 64 << 10

// store is the sparse byte store.  A nil chunk represents storeChunkBytes
// of the fill pattern (zero), except for the few distinguishing bytes that
// single-byte stores have left in it: demand-faulting a buffer stores one
// byte per page, and materialising a chunk per sixteen pages for sixteen
// bytes made such sweeps allocation-bound.
type store struct {
	size   uint64
	chunks [][]byte
	few    [][]fewByte // per chunk, only while the chunk is nil
}

// fewByte is one distinguishing byte of a chunk that is not materialised.
type fewByte struct {
	off uint32
	v   byte
}

// fewMax is how many distinguishing bytes a chunk holds before a further
// single-byte store materialises it: two per page.
const fewMax = 2 * storeChunkBytes / 4096

// newStore builds an empty (all-zero) store of the given capacity.
func newStore(size uint64) *store {
	n := size / storeChunkBytes
	if size%storeChunkBytes != 0 {
		n++
	}
	return &store{size: size, chunks: make([][]byte, n), few: make([][]fewByte, n)}
}

// chunkFor materialises and returns the chunk containing pa.
func (s *store) chunkFor(pa uint64) []byte {
	ci := pa / storeChunkBytes
	c := s.chunks[ci]
	if c == nil {
		n := uint64(storeChunkBytes)
		if base := ci * storeChunkBytes; base+n > s.size {
			n = s.size - base
		}
		c = make([]byte, n)
		for _, f := range s.few[ci] {
			c[f.off] = f.v
		}
		s.few[ci] = nil
		s.chunks[ci] = c
	}
	return c
}

// load returns the byte at pa.
func (s *store) load(pa uint64) byte {
	ci, off := pa/storeChunkBytes, uint32(pa%storeChunkBytes)
	if c := s.chunks[ci]; c != nil {
		return c[off]
	}
	for _, f := range s.few[ci] {
		if f.off == off {
			return f.v
		}
	}
	return 0
}

// set stores v at pa.  Into a chunk that is not materialised it records a
// distinguishing byte, or forgets one when v is the fill pattern, and
// materialises the chunk only past fewMax of them: sweeps of zero writes
// (page zeroing) stay allocation-free and page-touching sweeps stay cheap.
func (s *store) set(pa uint64, v byte) {
	ci, off := pa/storeChunkBytes, uint32(pa%storeChunkBytes)
	if c := s.chunks[ci]; c != nil {
		c[off] = v
		return
	}
	few := s.few[ci]
	for i, f := range few {
		if f.off == off {
			if v == 0 {
				few[i] = few[len(few)-1]
				s.few[ci] = few[:len(few)-1]
			} else {
				few[i].v = v
			}
			return
		}
	}
	switch {
	case v == 0:
	case len(few) < fewMax:
		s.few[ci] = append(few, fewByte{off, v})
	default:
		s.chunkFor(pa)[off] = v
	}
}

// xor flips the masked bits at pa.
func (s *store) xor(pa uint64, mask byte) {
	if mask == 0 {
		return
	}
	s.set(pa, s.load(pa)^mask)
}

// dropFew forgets the distinguishing bytes of chunk ci at offsets in
// [lo, hi), which a zero write or fill has just overwritten.
func (s *store) dropFew(ci, lo, hi uint64) {
	kept := s.few[ci][:0]
	for _, f := range s.few[ci] {
		if uint64(f.off) < lo || uint64(f.off) >= hi {
			kept = append(kept, f)
		}
	}
	s.few[ci] = kept
}

// read copies [pa, pa+len(out)) into out.  Untouched chunks read as the
// fill pattern: the covered span of out is zeroed explicitly, so callers
// may pass reused buffers.
func (s *store) read(pa uint64, out []byte) {
	for len(out) > 0 {
		ci, off := pa/storeChunkBytes, pa%storeChunkBytes
		n := storeChunkBytes - off
		if n > uint64(len(out)) {
			n = uint64(len(out))
		}
		if c := s.chunks[ci]; c != nil {
			copy(out[:n], c[off:off+n])
		} else {
			clear(out[:n])
			for _, f := range s.few[ci] {
				if uint64(f.off) >= off && uint64(f.off) < off+n {
					out[uint64(f.off)-off] = f.v
				}
			}
		}
		out = out[n:]
		pa += n
	}
}

// write stores data at [pa, pa+len(data)).  A segment that would write the
// fill pattern into an untouched chunk is elided, so bulk zero fills over
// fresh memory allocate nothing.
func (s *store) write(pa uint64, data []byte) {
	for len(data) > 0 {
		ci, off := pa/storeChunkBytes, pa%storeChunkBytes
		n := storeChunkBytes - off
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		seg := data[:n]
		if s.chunks[ci] != nil || !allZero(seg) {
			copy(s.chunkFor(pa)[off:], seg)
		} else {
			s.dropFew(ci, off, off+n)
		}
		data = data[n:]
		pa += n
	}
}

// fill stores n copies of v at [pa, pa+n).
func (s *store) fill(pa, n uint64, v byte) {
	for n > 0 {
		ci, off := pa/storeChunkBytes, pa%storeChunkBytes
		span := storeChunkBytes - off
		if span > n {
			span = n
		}
		switch {
		case v != 0:
			seg := s.chunkFor(pa)[off : off+span]
			for i := range seg {
				seg[i] = v
			}
		case s.chunks[ci] != nil:
			// The kernel's page zeroing, a hot path: clear compiles to
			// memclr.
			clear(s.chunks[ci][off : off+span])
		default:
			s.dropFew(ci, off, off+span)
		}
		n -= span
		pa += span
	}
}

// materializedBytes reports how much backing memory the store has actually
// allocated — the number NewDevice keeps near-free for untouched profiles.
// Distinguishing bytes of chunks that are not materialised are not counted.
func (s *store) materializedBytes() uint64 {
	var total uint64
	for _, c := range s.chunks {
		total += uint64(len(c))
	}
	return total
}

// materializeAll forces every chunk into existence, turning the store into
// the dense array it replaced.  Test hook: the sparse/dense equivalence
// property runs identical workloads against a fresh store and a fully
// materialised one.
func (s *store) materializeAll() {
	for ci := range s.chunks {
		s.chunkFor(uint64(ci) * storeChunkBytes)
	}
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
