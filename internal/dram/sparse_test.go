package dram

import (
	"bytes"
	"testing"

	"explframe/internal/stats"
)

// --- store unit tests ------------------------------------------------------

func TestStoreBasics(t *testing.T) {
	s := newStore(3*storeChunkBytes + 100) // deliberately ragged tail
	if got := s.materializedBytes(); got != 0 {
		t.Fatalf("fresh store materialised %d bytes", got)
	}
	// Reads of untouched memory return zero and materialise nothing.
	if v := s.load(storeChunkBytes + 5); v != 0 {
		t.Fatalf("untouched load = %#x", v)
	}
	buf := []byte{0xDE, 0xAD}
	s.read(2*storeChunkBytes-1, buf)
	if buf[0] != 0 || buf[1] != 0 {
		t.Fatalf("untouched read did not zero the buffer: %v", buf)
	}
	// Zero writes over untouched memory are elided...
	s.set(0, 0)
	s.write(storeChunkBytes, make([]byte, 300))
	s.fill(2*storeChunkBytes, 400, 0)
	if got := s.materializedBytes(); got != 0 {
		t.Fatalf("zero writes materialised %d bytes", got)
	}
	// ...while distinguishing bulk writes materialise exactly one chunk.
	s.write(storeChunkBytes+7, []byte{0x5A})
	if got := s.materializedBytes(); got != storeChunkBytes {
		t.Fatalf("materialised %d bytes, want one chunk (%d)", got, storeChunkBytes)
	}
	if v := s.load(storeChunkBytes + 7); v != 0x5A {
		t.Fatalf("read-back %#x", v)
	}
	// The tail chunk is sized to the store, not the chunk granule.
	s.write(3*storeChunkBytes+99, []byte{1})
	if got := s.materializedBytes(); got != storeChunkBytes+100 {
		t.Fatalf("tail chunk: materialised %d bytes, want %d", got, storeChunkBytes+100)
	}
	if v := s.load(3*storeChunkBytes + 99); v != 1 {
		t.Fatalf("tail read-back %#x", v)
	}
}

func TestStoreCrossChunkRanges(t *testing.T) {
	const size = 4 * storeChunkBytes
	s := newStore(size)
	dense := make([]byte, size)
	rng := stats.NewRNG(11)

	// Random writes/fills mirrored into a plain array, then random reads
	// compared — ranges chosen to straddle chunk boundaries often.
	for i := 0; i < 500; i++ {
		pa := uint64(rng.Intn(size - 1))
		n := uint64(rng.Intn(3*storeChunkBytes)) + 1
		if pa+n > size {
			n = size - pa
		}
		switch rng.Intn(5) {
		case 0:
			data := make([]byte, n)
			rng.Bytes(data)
			if rng.Intn(4) == 0 { // exercise the all-zero elision path too
				for j := range data {
					data[j] = 0
				}
			}
			s.write(pa, data)
			copy(dense[pa:], data)
		case 1:
			v := byte(rng.Intn(4)) // weight zero heavily
			if v > 1 {
				v = 0
			}
			s.fill(pa, n, v)
			for j := uint64(0); j < n; j++ {
				dense[pa+j] = v
			}
		case 3: // single-byte stores and flips, mostly into few-byte chunks
			for j := uint64(0); j < n%64; j++ {
				b := pa + uint64(rng.Intn(int(n)))
				v := byte(rng.Intn(3))
				if rng.Intn(2) == 0 {
					s.set(b, v)
					dense[b] = v
				} else {
					s.xor(b, v)
					dense[b] ^= v
				}
				if s.load(b) != dense[b] {
					t.Fatalf("iteration %d: load(%d) = %#x, want %#x", i, b, s.load(b), dense[b])
				}
			}
		case 2:
			got := make([]byte, n)
			rng.Bytes(got) // dirty the buffer: read must fully overwrite
			s.read(pa, got)
			if !bytes.Equal(got, dense[pa:pa+n]) {
				t.Fatalf("iteration %d: read mismatch at %d+%d", i, pa, n)
			}
		}
	}
	for pa := uint64(0); pa < size; pa++ {
		if s.load(pa) != dense[pa] {
			t.Fatalf("final sweep: byte %d is %#x, want %#x", pa, s.load(pa), dense[pa])
		}
	}
}

// Single-byte stores into an untouched chunk stay a short list — a page
// touching sweep materialises nothing — until fewMax of them, and the
// chunk then materialises holding every byte stored so far.
func TestStoreFewBytes(t *testing.T) {
	s := newStore(2 * storeChunkBytes)
	for i := 0; i < fewMax; i++ {
		s.set(uint64(i)*4096/2+1, byte(i+1))
	}
	s.set(5, 0) // the fill pattern into an untouched byte: nothing to record
	if got := s.materializedBytes(); got != 0 {
		t.Fatalf("%d single-byte stores materialised %d bytes", fewMax, got)
	}
	s.set(1, 0) // forgetting one makes room for another
	s.set(storeChunkBytes-1, 0xEE)
	if got := s.materializedBytes(); got != 0 {
		t.Fatalf("a replaced store materialised %d bytes", got)
	}
	s.set(3, 0x33)
	if got := s.materializedBytes(); got != storeChunkBytes {
		t.Fatalf("store %d materialised %d bytes, want one chunk", fewMax+1, got)
	}
	want := map[uint64]byte{1: 0, 3: 0x33, storeChunkBytes - 1: 0xEE}
	for i := 1; i < fewMax; i++ {
		want[uint64(i)*4096/2+1] = byte(i + 1)
	}
	for pa, v := range want {
		if got := s.load(pa); got != v {
			t.Fatalf("byte %d: %#x, want %#x", pa, got, v)
		}
	}
}

// --- sparse vs dense observational equivalence -----------------------------

// equivalenceWorkload drives one device through a randomised mix of reads,
// writes, range ops, hammering and refreshes, returning a digest of every
// observable output (read values, stats, weak cells, flip log).
func equivalenceWorkload(t *testing.T, d *Device, seed uint64) []byte {
	t.Helper()
	rng := stats.NewRNG(seed)
	size := int(d.Size())
	d.EnableFlipLog()
	var log bytes.Buffer

	// A hammer target with its aggressor rows, derived from a planted weak
	// cell so flips actually occur during the workload.
	victim := Addr{Bank: 1, Row: 200, Col: 50}
	bg := d.mapper.BankGroup(victim)
	d.PlantWeakCell(WeakCell{Bank: bg, Row: 200, ByteInRow: 50, Bit: 2, Threshold: 600, FlipTo: 0})
	d.Write(d.mapper.ToPhys(victim), 0xFF)
	up := d.mapper.SameBankRow(victim, victim.Row-1, 0)
	down := d.mapper.SameBankRow(victim, victim.Row+1, 0)

	for i := 0; i < 2000; i++ {
		pa := uint64(rng.Intn(size))
		switch rng.Intn(8) {
		case 0:
			log.WriteByte(d.Read(pa))
		case 1:
			d.Write(pa, byte(rng.Intn(256)))
		case 2:
			log.WriteByte(d.ReadNoActivate(pa))
		case 3:
			n := rng.Intn(9000) + 1
			if int(pa)+n > size {
				n = size - int(pa)
			}
			buf := make([]byte, n)
			rng.Bytes(buf) // read must overwrite stale contents
			d.ReadRangeNoActivate(pa, buf)
			log.Write(buf)
		case 4:
			n := rng.Intn(5000) + 1
			if int(pa)+n > size {
				n = size - int(pa)
			}
			buf := make([]byte, n)
			if rng.Intn(2) == 0 {
				rng.Bytes(buf)
			}
			d.WriteRangeNoActivate(pa, buf)
		case 5:
			n := uint64(rng.Intn(5000) + 1)
			if pa+n > uint64(size) {
				n = uint64(size) - pa
			}
			var v byte
			if rng.Intn(2) == 0 {
				v = byte(rng.Intn(256))
			}
			d.FillNoActivate(pa, n, v)
		case 6:
			for k := 0; k < 300; k++ {
				d.ActivateRow(up)
				d.ActivateRow(down)
			}
		case 7:
			d.Refresh()
		}
	}

	st := d.Stats()
	if err := writeStats(&log, st); err != nil {
		t.Fatal(err)
	}
	for _, f := range d.DrainFlipLog() {
		log.WriteByte(byte(f.Phys))
		log.WriteByte(byte(f.Phys >> 8))
		log.WriteByte(f.Bit)
		log.WriteByte(f.From)
	}
	for _, wc := range d.WeakCellsInRange(0, d.Size()) {
		log.WriteByte(byte(wc.Row))
		log.WriteByte(byte(wc.ByteInRow))
		log.WriteByte(wc.Bit)
	}
	// Full-memory dump: the two devices must agree byte for byte.
	dump := make([]byte, 4096)
	for pa := uint64(0); pa < uint64(size); pa += uint64(len(dump)) {
		d.ReadRangeNoActivate(pa, dump)
		log.Write(dump)
	}
	return log.Bytes()
}

func writeStats(log *bytes.Buffer, st DeviceStats) error {
	for _, v := range []uint64{st.Reads, st.Writes, st.Activations, st.RowHits,
		st.Refreshes, st.BitFlips, st.TRRRefreshes, st.ECCCorrected, st.ECCUncorrectable} {
		for s := 0; s < 64; s += 8 {
			log.WriteByte(byte(v >> s))
		}
	}
	return nil
}

// A sparse device and a fully materialised (dense) device must be
// observationally identical under an arbitrary workload: every read value,
// every counter, every flip.  Run with and without mitigations so the ECC
// range path is covered too.
func TestSparseDenseObservationalEquivalence(t *testing.T) {
	g := Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 4, Rows: 512, RowBytes: 4096}
	cases := []struct {
		name string
		mut  func(*FaultModel)
	}{
		{"plain", func(*FaultModel) {}},
		{"ecc", func(m *FaultModel) { m.ECC = ECCSecDed }},
		{"trr", func(m *FaultModel) { m.TRR = TRRConfig{Enabled: true, TrackerSize: 2, Threshold: 150} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model := DefaultFaultModel()
			model.WeakCellDensity = 1e-4
			model.FlipReliability = 1 // keep the device RNG stream workload-independent
			tc.mut(&model)

			build := func(materialize bool) *Device {
				d, err := NewDevice(g, model, 42)
				if err != nil {
					t.Fatal(err)
				}
				if materialize {
					d.data.materializeAll()
					if got, want := d.MaterializedBytes(), d.Size(); got != want {
						t.Fatalf("materializeAll left %d of %d bytes unbacked", got, want)
					}
				}
				return d
			}
			sparse := equivalenceWorkload(t, build(false), 99)
			dense := equivalenceWorkload(t, build(true), 99)
			if !bytes.Equal(sparse, dense) {
				i := 0
				for i < len(sparse) && i < len(dense) && sparse[i] == dense[i] {
					i++
				}
				t.Fatalf("sparse and dense devices diverge (first difference at digest byte %d of %d/%d)",
					i, len(sparse), len(dense))
			}
		})
	}
}

// The bulk read path (ReadRangeNoActivate + eccCorrectRange) must agree
// with the per-byte path on random ranges, including the stats deltas.
func TestReadRangeMatchesPerByte(t *testing.T) {
	g := Geometry{Channels: 1, DIMMs: 1, Ranks: 1, Banks: 4, Rows: 512, RowBytes: 4096}
	model := DefaultFaultModel()
	model.WeakCellDensity = 0
	model.FlipReliability = 1
	model.ECC = ECCSecDed
	d, err := NewDevice(g, model, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Two corrupted cells: one alone in its word (correctable), two sharing
	// a word elsewhere (uncorrectable).
	plant := func(a Addr, bit uint8, thr int) {
		d.PlantWeakCell(WeakCell{Bank: d.mapper.BankGroup(a), Row: a.Row, ByteInRow: a.Col, Bit: bit, Threshold: thr, FlipTo: 0})
		d.Write(d.mapper.ToPhys(a), 0xFF)
	}
	single := Addr{Bank: 0, Row: 100, Col: 64}
	pair := Addr{Bank: 0, Row: 100, Col: 130}
	plant(single, 3, 500)
	plant(pair, 1, 500)
	plant(Addr{Bank: 0, Row: 100, Col: 133}, 6, 550)
	d.Write(d.mapper.ToPhys(Addr{Bank: 0, Row: 100, Col: 133}), 0xFF)
	for i := 0; i < 700; i++ {
		d.ActivateRow(d.mapper.ToPhys(Addr{Bank: 0, Row: 99, Col: 0}))
		d.ActivateRow(d.mapper.ToPhys(Addr{Bank: 0, Row: 101, Col: 0}))
	}
	if d.Stats().BitFlips < 3 {
		t.Fatalf("setup did not flip all cells: %+v", d.Stats())
	}

	rng := stats.NewRNG(3)
	size := int(d.Size())
	for i := 0; i < 400; i++ {
		pa := uint64(rng.Intn(size))
		n := rng.Intn(2*d.geom.RowBytes) + 1
		if int(pa)+n > size {
			n = size - int(pa)
		}
		bulkStats := d.Stats()
		bulk := make([]byte, n)
		rng.Bytes(bulk)
		d.ReadRangeNoActivate(pa, bulk)
		bulkDelta := d.Stats()

		byteStats := d.Stats()
		perByte := make([]byte, n)
		for j := 0; j < n; j++ {
			perByte[j] = d.ReadNoActivate(pa + uint64(j))
		}
		byteDelta := d.Stats()

		if !bytes.Equal(bulk, perByte) {
			t.Fatalf("range [%d,%d): bulk and per-byte reads differ", pa, pa+uint64(n))
		}
		if gc, gb := bulkDelta.ECCCorrected-bulkStats.ECCCorrected, byteDelta.ECCCorrected-byteStats.ECCCorrected; gc != gb {
			t.Fatalf("range [%d,%d): bulk corrected %d, per-byte %d", pa, pa+uint64(n), gc, gb)
		}
		if gu, gb := bulkDelta.ECCUncorrectable-bulkStats.ECCUncorrectable, byteDelta.ECCUncorrectable-byteStats.ECCUncorrectable; gu != gb {
			t.Fatalf("range [%d,%d): bulk uncorrectable %d, per-byte %d", pa, pa+uint64(n), gu, gb)
		}
	}
}
