package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	want := []string{"read", "decode", "wal_append", "wal_fsync", "detect", "publish", "snapshot"}
	stages := Stages()
	if len(stages) != int(NumStages) || len(stages) != len(want) {
		t.Fatalf("Stages() has %d entries, want %d", len(stages), len(want))
	}
	for i, st := range stages {
		if st.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, st, want[i])
		}
	}
	if s := Stage(200).String(); !strings.Contains(s, "200") {
		t.Errorf("unknown stage String = %q", s)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	if got := f.Traces(); len(got) != 0 {
		t.Fatalf("fresh recorder has %d traces", len(got))
	}
	for i := int64(1); i <= 5; i++ {
		f.Record(ChunkTrace{Seq: i})
	}
	if got := f.Total(); got != 5 {
		t.Errorf("total = %d, want 5", got)
	}
	traces := f.Traces()
	if len(traces) != 3 {
		t.Fatalf("retained %d traces, want 3", len(traces))
	}
	for i, want := range []int64{3, 4, 5} {
		if traces[i].Seq != want {
			t.Errorf("trace %d seq = %d, want %d (oldest first)", i, traces[i].Seq, want)
		}
	}
}

func TestFlightRecorderPartial(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(ChunkTrace{Seq: 1})
	f.Record(ChunkTrace{Seq: 2})
	traces := f.Traces()
	if len(traces) != 2 || traces[0].Seq != 1 || traces[1].Seq != 2 {
		t.Errorf("partial ring traces = %+v", traces)
	}
}

// TestFlightRecorderGrowth pins the ring across its growth steps: a new
// recorder holds no ring, the ring doubles up to the capacity (5 here, so
// the last step is short of a double), and after every Record the
// retained traces are the newest ones, oldest first, with their contents
// intact.
func TestFlightRecorderGrowth(t *testing.T) {
	f := NewFlightRecorder(5)
	if f.buf != nil {
		t.Fatalf("new recorder holds a ring of %d", cap(f.buf))
	}
	wantCaps := []int{1, 2, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5}
	for i := int64(1); i <= 12; i++ {
		ct := ChunkTrace{Seq: i, Bytes: 100 * i, Elements: 10 * i, TotalNS: 1000 * i, Events: i % 3}
		ct.StageNS[StageDetect] = 7 * i
		if i%4 == 0 {
			ct.Err = "bad chunk"
		}
		f.Record(ct)
		if got := cap(f.buf); got != wantCaps[i-1] {
			t.Errorf("after %d records the ring holds %d, want %d", i, got, wantCaps[i-1])
		}
		if f.Total() != i {
			t.Errorf("after %d records total = %d", i, f.Total())
		}
		traces := f.Traces()
		if want := min(i, 5); int64(len(traces)) != want {
			t.Fatalf("after %d records: %d traces, want %d", i, len(traces), want)
		}
		first := i - int64(len(traces)) + 1
		for j, tr := range traces {
			seq := first + int64(j)
			if tr.Seq != seq || tr.Bytes != 100*seq || tr.Elements != 10*seq || tr.TotalNS != 1000*seq ||
				tr.Events != seq%3 || tr.StageNS[StageDetect] != 7*seq || (tr.Err != "") != (seq%4 == 0) {
				t.Fatalf("after %d records, trace %d = %+v, want chunk %d's", i, j, tr, seq)
			}
		}
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var f *FlightRecorder
	f.Record(ChunkTrace{Seq: 1}) // must not panic
	if f.Total() != 0 || f.Traces() != nil {
		t.Error("nil recorder reads nonzero")
	}
}

func TestFlightRecorderRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFlightRecorder(0) did not panic")
		}
	}()
	NewFlightRecorder(0)
}

func TestFlightRecorderDump(t *testing.T) {
	f := NewFlightRecorder(4)
	ct := ChunkTrace{Seq: 7, Start: time.Now(), Bytes: 128, Elements: 32, TotalNS: 1500, Events: 2}
	ct.StageNS[StageDecode] = 500
	ct.StageNS[StageDetect] = 1000
	f.Record(ct)
	f.Record(ChunkTrace{Seq: 8, Start: time.Now(), Err: "boom"})
	var sb strings.Builder
	if err := f.WriteDump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"chunk 7", "decode=", "detect=", "events=2", "chunk 8", "ERR boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}
