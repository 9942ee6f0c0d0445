package core

import "opd/internal/trace"

// ProcessBatchPerGroup is ProcessBatch with every whole group taking
// ProcessProfileIDs, the general per-group path, never the fused group
// loop: the reference the fused loop is tested against.
func ProcessBatchPerGroup(d *Detector, elems []trace.Branch) {
	for len(elems) > 0 {
		n := min(len(elems), internSpan)
		ids := d.intern(elems[:n])
		elems = elems[n:]
		if len(d.pending) > 0 {
			need := min(d.skip-len(d.pending), len(ids))
			d.pending = append(d.pending, ids[:need]...)
			ids = ids[need:]
			if len(d.pending) == d.skip {
				d.ProcessProfileIDs(d.pending)
				d.pending = d.pending[:0]
			}
		}
		whole := (len(ids) / d.skip) * d.skip
		for i := 0; i < whole; i += d.skip {
			d.ProcessProfileIDs(ids[i : i+d.skip])
		}
		d.pending = append(d.pending, ids[whole:]...)
	}
}

// RunTraceInternedPerGroup is RunTraceInterned on the general per-group
// path.
func RunTraceInternedPerGroup(d *Detector, in *trace.Interned) *Detector {
	d.Bind(in)
	ids := in.IDs()
	for i := 0; i < len(ids); i += d.skip {
		d.ProcessProfileIDs(ids[i:min(i+d.skip, len(ids))])
	}
	d.Finish()
	return d
}
