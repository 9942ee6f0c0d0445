package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"opd/internal/interval"
	"opd/internal/trace"
)

// This file implements detector checkpoint/restore: a versioned,
// checksummed binary encoding of the complete detector state — window
// contents, symbol table, adaptive-TW anchor state, analyzer running
// statistics, phase records, and the ProcessBatch pending partial-group
// buffer — with the invariant that restore-then-continue is bit-identical
// to an uninterrupted run. The durability layer (internal/durable,
// internal/serve) persists these snapshots so live sessions survive a
// process crash or redeploy, echoing how prior phase-tracking hardware
// persisted compact per-interval signatures across runs.
//
// Snapshot layout (version 1, little-endian, varint-packed):
//
//	[8]  magic "OPDDETS1"
//	u16  version
//	     config    cw/tw/skip uvarints; tw-policy, anchor, resize, model,
//	               analyzer bytes; analyzer param f64
//	     detector  flag byte (finished/inPhase/haveSim/state); stream
//	               counters; pending group; raw + adjusted phase lists
//	     analyzer  running statistics (Average count+sum; Threshold none)
//	     model     symbol table (id -> Branch); window buffer (dense IDs,
//	               TW then CW); TW length, window stream indices,
//	               anchored/filled flags; overlap set in maintained order
//	u32  CRC-32C over every preceding byte
//
// The overlap set is persisted verbatim (not recomputed) because weighted
// similarity sums float64 contributions in the set's maintained order:
// reproducing the bits of every future similarity value requires
// reproducing that order exactly. The window counter slices, by contrast,
// are pure functions of the window buffer and are rebuilt on restore.
// An anchored TW is held as counts, so its part of the buffer is written
// grouped by ID in ID order; restore rebuilds the same counts from any
// order, and nothing reads an anchored TW's order.

// SnapshotVersion is the current detector snapshot encoding version.
const SnapshotVersion = 1

var snapshotMagic = [8]byte{'O', 'P', 'D', 'D', 'E', 'T', 'S', '1'}

// ErrSnapshot reports a detector snapshot that cannot be restored:
// damaged bytes (bad magic, failed checksum, malformed fields) or an
// unsupported version. All Restore errors wrap it.
var ErrSnapshot = errors.New("core: invalid detector snapshot")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// detector flag bits.
const (
	snapFinished = 1 << iota
	snapInPhase
	snapHaveSim
	snapStateP
)

// window flag bits.
const (
	snapAnchored = 1 << iota
	snapFilled
)

// Snapshot encodes the detector's complete state. It is supported for
// detectors assembled from the built-in components (SetModel with a
// Threshold or Average analyzer — everything Config.New produces);
// detectors with custom models or analyzers return an error. The
// detector's telemetry probe and phase hooks are not part of the state:
// the caller re-attaches them after Restore.
func (d *Detector) Snapshot() ([]byte, error) { return d.AppendSnapshot(nil) }

// AppendSnapshot appends the detector's Snapshot encoding to dst and
// returns the extended buffer, so a caller that embeds the snapshot in a
// larger payload writes it in place. On error dst comes back unchanged.
func (d *Detector) AppendSnapshot(dst []byte) ([]byte, error) {
	sm, ok := d.model.(*SetModel)
	if !ok {
		return dst, fmt.Errorf("core: snapshot: unsupported model %T", d.model)
	}
	cfg := Config{
		CWSize:     sm.win.cwSize,
		TWSize:     sm.win.twSize,
		SkipFactor: d.skip,
		TW:         sm.win.policy,
		Anchor:     sm.anchor,
		Resize:     sm.resize,
		Model:      sm.kind,
	}
	switch a := d.analyzer.(type) {
	case *Threshold:
		cfg.Analyzer, cfg.Param = ThresholdAnalyzer, a.T
	case *Average:
		cfg.Analyzer, cfg.Param = AverageAnalyzer, a.Delta
	default:
		return dst, fmt.Errorf("core: snapshot: unsupported analyzer %T", d.analyzer)
	}

	start := len(dst)
	w := snapWriter{buf: dst}
	w.buf = append(w.buf, snapshotMagic[:]...)
	w.u16(SnapshotVersion)

	// Config.
	w.uvarint(uint64(cfg.CWSize))
	w.uvarint(uint64(cfg.TWSize))
	w.uvarint(uint64(cfg.SkipFactor))
	w.u8(uint8(cfg.TW))
	w.u8(uint8(cfg.Anchor))
	w.u8(uint8(cfg.Resize))
	w.u8(uint8(cfg.Model))
	w.u8(uint8(cfg.Analyzer))
	w.f64(cfg.Param)

	// Detector.
	var flags byte
	if d.finished {
		flags |= snapFinished
	}
	if d.inPhase {
		flags |= snapInPhase
	}
	if d.haveSim {
		flags |= snapHaveSim
	}
	if d.state.IsPhase() {
		flags |= snapStateP
	}
	w.u8(flags)
	w.varint(d.n)
	w.varint(d.curStart)
	w.varint(d.curAdjStart)
	w.varint(d.simCount)
	w.varint(d.lastFlipAt)
	w.f64(d.lastSim)
	// The pending partial group persists in Branch form, decoded through
	// the symbol table; restore interns it back.
	w.uvarint(uint64(len(d.pending)))
	for _, id := range d.pending {
		w.uvarint(uint64(d.syms[id]))
	}
	w.intervals(d.phases)
	w.intervals(d.adjPhases)

	// Analyzer running statistics.
	if avg, ok := d.analyzer.(*Average); ok {
		w.varint(avg.count)
		w.f64(avg.sum)
	}

	// Model: symbol table, window buffer, overlap set.
	w.uvarint(uint64(len(d.syms)))
	for _, b := range d.syms {
		w.uvarint(uint64(b))
	}
	win := sm.win
	live := win.buf[win.head:]
	w.uvarint(uint64(win.twLen - win.tws + len(live)))
	if win.anchored {
		for id, c := range win.twCounts {
			for ; c > 0; c-- {
				w.uvarint(uint64(id))
			}
		}
	}
	for _, id := range live {
		w.uvarint(uint64(id))
	}
	w.uvarint(uint64(win.twLen))
	w.varint(win.firstIndex)
	w.varint(win.nextIndex)
	var wflags byte
	if win.anchored {
		wflags |= snapAnchored
	}
	if win.filled {
		wflags |= snapFilled
	}
	w.u8(wflags)
	w.uvarint(uint64(len(win.overlapIDs)))
	for _, id := range win.overlapIDs {
		w.uvarint(uint64(id))
	}

	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf[start:], castagnoli))
	return w.buf, nil
}

// RestoreDetector rebuilds a detector (and the configuration it was
// built from) out of a Snapshot. The restored detector continues the
// stream exactly where the snapshot was taken: every subsequent
// similarity value, state flip, phase boundary, and event is bit-identical
// to the uninterrupted run. Damaged or truncated snapshots return an
// error wrapping ErrSnapshot — never a panic — and allocation is bounded
// before the checksum has been verified.
func RestoreDetector(data []byte) (*Detector, Config, error) {
	var cfg Config
	if len(data) < len(snapshotMagic)+2+4 {
		return nil, cfg, fmt.Errorf("%w: %d bytes is too short", ErrSnapshot, len(data))
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return nil, cfg, fmt.Errorf("%w: bad magic", ErrSnapshot)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.Checksum(body, castagnoli); got != want {
		return nil, cfg, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", ErrSnapshot, got, want)
	}
	r := &snapReader{buf: body, off: 8}
	if v := r.u16(); v != SnapshotVersion {
		return nil, cfg, fmt.Errorf("%w: unsupported version %d", ErrSnapshot, v)
	}

	// Config.
	cfg = Config{
		CWSize:     int(r.uvarint()),
		TWSize:     int(r.uvarint()),
		SkipFactor: int(r.uvarint()),
		TW:         TWPolicy(r.u8()),
		Anchor:     AnchorPolicy(r.u8()),
		Resize:     ResizePolicy(r.u8()),
		Model:      ModelKind(r.u8()),
		Analyzer:   AnalyzerKind(r.u8()),
		Param:      r.f64(),
	}
	if r.err != nil {
		return nil, cfg, r.fail("config")
	}
	d, err := cfg.New()
	if err != nil {
		return nil, cfg, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}

	// Detector.
	flags := r.u8()
	d.finished = flags&snapFinished != 0
	d.inPhase = flags&snapInPhase != 0
	d.haveSim = flags&snapHaveSim != 0
	d.state = Transition
	if flags&snapStateP != 0 {
		d.state = InPhase
	}
	d.n = r.varint()
	d.curStart = r.varint()
	d.curAdjStart = r.varint()
	d.simCount = r.varint()
	d.lastFlipAt = r.varint()
	d.lastSim = r.f64()
	nPending := r.uvarint()
	if r.err == nil && nPending >= uint64(d.skip) {
		return nil, cfg, fmt.Errorf("%w: pending group of %d with skip factor %d", ErrSnapshot, nPending, d.skip)
	}
	pending := make([]trace.Branch, 0, capAlloc(nPending))
	for i := uint64(0); i < nPending && r.err == nil; i++ {
		pending = append(pending, trace.Branch(r.uvarint()))
	}
	d.phases = r.intervals()
	d.adjPhases = r.intervals()
	if r.err != nil {
		return nil, cfg, r.fail("detector state")
	}

	// Analyzer running statistics.
	if avg, ok := d.analyzer.(*Average); ok {
		avg.count = r.varint()
		avg.sum = r.f64()
	}

	// Model.
	sm := d.sm
	nTable := r.uvarint()
	table := make([]trace.Branch, 0, capAlloc(nTable))
	for i := uint64(0); i < nTable && r.err == nil; i++ {
		table = append(table, trace.Branch(r.uvarint()))
	}
	win := sm.win
	// The window buffer is checked here and decoded again below, once
	// the TW length and anchored flag that split it are known.
	nBuf := r.uvarint()
	bufAt := r.off
	for i := uint64(0); i < nBuf && r.err == nil; i++ {
		if id := r.uvarint(); id >= nTable {
			return nil, cfg, fmt.Errorf("%w: window element id %d outside intern table of %d", ErrSnapshot, id, nTable)
		}
	}
	twLen := r.uvarint()
	win.firstIndex = r.varint()
	win.nextIndex = r.varint()
	wflags := r.u8()
	nOverlap := r.uvarint()
	overlap := make([]int32, 0, capAlloc(nOverlap))
	for i := uint64(0); i < nOverlap && r.err == nil; i++ {
		id := r.uvarint()
		if id >= nTable {
			return nil, cfg, fmt.Errorf("%w: overlap id %d outside intern table of %d", ErrSnapshot, id, nTable)
		}
		overlap = append(overlap, int32(id))
	}
	if r.err != nil {
		return nil, cfg, r.fail("model state")
	}
	if r.off != len(r.buf) {
		return nil, cfg, fmt.Errorf("%w: %d trailing bytes", ErrSnapshot, len(r.buf)-r.off)
	}
	anchored := wflags&snapAnchored != 0
	switch {
	case twLen > nBuf:
		return nil, cfg, fmt.Errorf("%w: TW length %d exceeds window buffer %d", ErrSnapshot, twLen, nBuf)
	case nBuf-twLen > uint64(win.cwSize):
		return nil, cfg, fmt.Errorf("%w: CW length %d exceeds CW size %d", ErrSnapshot, nBuf-twLen, win.cwSize)
	case !anchored && twLen > uint64(win.twSize):
		return nil, cfg, fmt.Errorf("%w: unanchored TW length %d exceeds TW size %d", ErrSnapshot, twLen, win.twSize)
	}

	// Rebuild the derived state: the detector's table and index from the
	// persisted table, the counter slices from the window buffer segments,
	// and the overlap index from the persisted set. The pending group
	// interns into the table last: a snapshot taken before the detector
	// interned at its boundary may hold pending elements its table lacks,
	// and they take the next IDs in arrival order, as they would have.
	d.table = trace.NewInternedBuilder(0)
	for id, b := range table {
		if d.table.Intern(b) != int32(id) {
			return nil, cfg, fmt.Errorf("%w: duplicate intern table entry %v", ErrSnapshot, b)
		}
	}
	for _, b := range pending {
		d.pending = append(d.pending, d.table.Intern(b))
	}
	win.twLen = int(twLen)
	win.anchored = anchored
	win.filled = wflags&snapFilled != 0
	d.bindTable(d.table)
	// An anchored TW is rebuilt as counts alone; buf keeps the CW and
	// an unanchored TW.
	if !anchored {
		win.tws = win.twLen
	}
	win.buf = make([]int32, 0, win.tws+int(nBuf-twLen))
	br := snapReader{buf: r.buf, off: bufAt}
	for i := uint64(0); i < nBuf; i++ {
		id := int32(br.uvarint())
		if i < twLen {
			win.twCounts[id]++
			if anchored {
				continue
			}
		} else {
			win.cwCounts[id]++
		}
		win.buf = append(win.buf, id)
	}
	win.overlapIDs = overlap
	for i, id := range overlap {
		if win.overlapPos[id] != 0 {
			return nil, cfg, fmt.Errorf("%w: duplicate overlap id %d", ErrSnapshot, id)
		}
		win.overlapPos[id] = int32(i + 1)
	}
	// Coherence: the overlap set must be exactly the ids present in both
	// windows, and cwDistinct the count of distinct CW ids.
	for id := range table {
		inBoth := win.cwCounts[id] > 0 && win.twCounts[id] > 0
		if inBoth != (win.overlapPos[id] != 0) {
			return nil, cfg, fmt.Errorf("%w: overlap set inconsistent at id %d", ErrSnapshot, id)
		}
		if win.cwCounts[id] > 0 {
			win.cwDistinct++
		}
	}
	return d, cfg, nil
}

// capAlloc bounds a pre-allocation driven by an untrusted count: small
// counts allocate exactly, absurd ones start small and grow by append.
func capAlloc(n uint64) int {
	const max = 1 << 16
	if n > max {
		return max
	}
	return int(n)
}

// snapWriter appends the snapshot's primitive encodings.
type snapWriter struct {
	buf []byte
}

func (w *snapWriter) u8(b uint8)   { w.buf = append(w.buf, b) }
func (w *snapWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *snapWriter) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}
func (w *snapWriter) varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}
func (w *snapWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

func (w *snapWriter) intervals(ivs []interval.Interval) {
	w.uvarint(uint64(len(ivs)))
	for _, iv := range ivs {
		w.varint(iv.Start)
		w.varint(iv.End)
	}
}

// snapReader decodes the snapshot's primitive encodings, latching the
// first failure so callers can decode a whole section and check once.
type snapReader struct {
	buf []byte
	off int
	err error
}

func (r *snapReader) fail(section string) error {
	return fmt.Errorf("%w: decoding %s: %v", ErrSnapshot, section, r.err)
}

func (r *snapReader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.err = errors.New("unexpected end of snapshot")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *snapReader) u16() uint16 {
	if r.err != nil {
		return 0
	}
	if r.off+2 > len(r.buf) {
		r.err = errors.New("unexpected end of snapshot")
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = errors.New("malformed uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.err = errors.New("malformed varint")
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.err = errors.New("unexpected end of snapshot")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *snapReader) intervals() []interval.Interval {
	n := r.uvarint()
	ivs := make([]interval.Interval, 0, capAlloc(n))
	for i := uint64(0); i < n && r.err == nil; i++ {
		start := r.varint()
		end := r.varint()
		ivs = append(ivs, interval.Interval{Start: start, End: end})
	}
	return ivs
}
