package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"opd/internal/telemetry"
)

// The event log keeps a session's retained events in the bytes a
// checkpoint writes for them: each event is OPDSESS1's per-event encoding
// (a kind byte, then varint At, V1, V2; see persist.go), so the log holds
// no pointers for the garbage collector to scan, a checkpoint copies its
// event section in one piece, and a restore validates the snapshot's
// event section and adopts it without building an Event per entry. Seq,
// Kind and Src are not stored: Seq follows from an event's position, the
// kind byte names Kind, and Src is the session's config ID, so all three
// are filled in when events are read.
//
// Beside the events the log keeps each event's wall clock (unix
// nanoseconds when it entered the log) as a varint delta from the
// previous one, in a second byte stream. Events restored from a snapshot
// carry no wall clock: SSE lag across a restart or a migration means
// nothing, so they take no wall bytes and read back a zero wall.
//
// Events are variable-length, so finding one by Seq starts from a mark:
// the log's position in both byte streams at every markEvery-th Seq. A
// seek decodes at most markEvery-1 events past its mark.

// markEvery is the Seq stride of the log's marks. A mark costs 24 bytes,
// 1.5 bytes per event at 16.
const markEvery = 16

// maxLogEventBytes bounds one event's encoding: a kind byte and three
// varints.
const maxLogEventBytes = 1 + 3*binary.MaxVarintLen64

// eventKindNames maps the per-event kind byte to Event.Kind.
var eventKindNames = [2]string{telemetry.EvPhaseStart.String(), telemetry.EvPhaseEnd.String()}

// logEventKind maps an Event.Kind to its kind byte.
func logEventKind(kind string) byte {
	if kind == eventKindNames[1] {
		return 1
	}
	return 0
}

// A fifo is a slice whose live elements are b[head:]. push appends at
// the tail and drop retires from the head, both without moving anything.
// The live elements move only when a push finds no room at the tail:
// they slide to the front when the slice holds half again the room they
// then need, and otherwise move to a new slice of that size. Either way
// the next move is at least half the live length of pushes away, so a
// push costs amortized O(1) copies, and the capacity stays within 1.5
// times the largest live length plus one push (and the allocator's size
// class). off is the absolute position of b[0]: positions count every
// element ever pushed, so a position stays valid across moves.
type fifo[T any] struct {
	b    []T
	head int
	off  uint64
}

// live returns the live elements.
func (q *fifo[T]) live() []T { return q.b[q.head:] }

// end returns the absolute position one past the newest element.
func (q *fifo[T]) end() uint64 { return q.off + uint64(len(q.b)) }

// at returns the index into b of absolute position pos.
func (q *fifo[T]) at(pos uint64) int { return int(pos - q.off) }

// push appends elements at the tail.
func (q *fifo[T]) push(elems ...T) {
	if len(q.b)+len(elems) > cap(q.b) {
		live := len(q.b) - q.head
		need := live + len(elems)
		if want := need + need/2; cap(q.b) >= want {
			q.b = q.b[:copy(q.b, q.b[q.head:])]
		} else {
			q.b = append(slices.Grow([]T(nil), want), q.b[q.head:]...)
		}
		q.off += uint64(q.head)
		q.head = 0
	}
	q.b = append(q.b, elems...)
}

// dropTo retires every element before absolute position pos.
func (q *fifo[T]) dropTo(pos uint64) { q.head = q.at(pos) }

// A logMark is the log's position at one Seq: offsets into the event and
// wall streams, and the wall clock of the walled event before it (zero
// when there is none).
type logMark struct {
	enc, wall uint64
	prev      int64
}

// logMarkBytes is a logMark's size.
const logMarkBytes = 24

// A logCursor is a logMark with the Seq it stands at.
type logCursor struct {
	logMark
	seq uint64
}

// An eventLog is a session's retained events. The zero value is an empty
// log whose first event takes Seq 0 and carries a wall clock.
type eventLog struct {
	enc   fifo[byte]    // kept events, OPDSESS1 per-event encoding
	walls fifo[byte]    // varint wall-clock deltas of the walled events
	marks fifo[logMark] // one per kept Seq that is a multiple of markEvery
	head  logCursor     // the oldest kept event
	next  uint64        // the Seq the next event takes
	// walledFrom is the first Seq with a wall clock: events before it
	// were restored from a snapshot. lastWall is the wall clock of the
	// newest walled event, zero before the first.
	walledFrom uint64
	lastWall   int64
}

// base returns the Seq of the oldest kept event.
func (l *eventLog) base() uint64 { return l.head.seq }

// len returns the number of kept events.
func (l *eventLog) len() int { return int(l.next - l.head.seq) }

// bytes returns what the log's slices hold, slack included: the cost
// eventLogBytes charges per kept event.
func (l *eventLog) bytes() int {
	return cap(l.enc.b) + cap(l.walls.b) + cap(l.marks.b)*logMarkBytes
}

// appendLogEvent appends one event's OPDSESS1 encoding to dst.
func appendLogEvent(dst []byte, kind byte, at, v1, v2 int64) []byte {
	dst = append(dst, kind)
	dst = binary.AppendVarint(dst, at)
	dst = binary.AppendVarint(dst, v1)
	return binary.AppendVarint(dst, v2)
}

// push appends an event that entered the log at wall clock wall.
func (l *eventLog) push(kind byte, at, v1, v2, wall int64) {
	if l.next%markEvery == 0 {
		l.marks.push(logMark{enc: l.enc.end(), wall: l.walls.end(), prev: l.lastWall})
	}
	var ev [maxLogEventBytes]byte
	l.enc.push(appendLogEvent(ev[:0], kind, at, v1, v2)...)
	var w [binary.MaxVarintLen64]byte
	l.walls.push(binary.AppendVarint(w[:0], wall-l.lastWall)...)
	l.lastWall = wall
	l.next++
}

// trim drops the n oldest events.
func (l *eventLog) trim(n int) {
	c := l.head
	for ; n > 0; n-- {
		if c.seq%markEvery == 0 {
			l.marks.head++
		}
		l.step(&c)
	}
	l.head = c
	l.enc.dropTo(c.enc)
	l.walls.dropTo(c.wall)
}

// step decodes the event at c and moves c past it. The log wrote (or
// validated) every byte it decodes, so step does no error checking.
func (l *eventLog) step(c *logCursor) (kind byte, at, v1, v2, wall int64) {
	b := l.enc.b[l.enc.at(c.enc):]
	kind = b[0]
	n := 1
	var k int
	at, k = binary.Varint(b[n:])
	n += k
	v1, k = binary.Varint(b[n:])
	n += k
	v2, k = binary.Varint(b[n:])
	n += k
	c.enc += uint64(n)
	if c.seq >= l.walledFrom {
		d, k := binary.Varint(l.walls.b[l.walls.at(c.wall):])
		c.wall += uint64(k)
		c.prev += d
		wall = c.prev
	}
	c.seq++
	return kind, at, v1, v2, wall
}

// seek returns a cursor at seq, which must be a kept Seq or next.
func (l *eventLog) seek(seq uint64) logCursor {
	c := l.head
	// The first mark stands at the first multiple of markEvery at or
	// after the head. A seek to next may be one stride past the newest.
	first := (c.seq + markEvery - 1) / markEvery * markEvery
	if marks := l.marks.live(); seq >= first && len(marks) > 0 {
		k := min((seq-first)/markEvery, uint64(len(marks)-1))
		c = logCursor{marks[k], first + k*markEvery}
	}
	for c.seq < seq {
		l.step(&c)
	}
	return c
}

// read returns every kept event with Seq >= since, filling in Src as
// src, with each one's wall clock (zero for a restored event), and the
// Seq past the last event.
func (l *eventLog) read(since uint64, src string) ([]Event, []int64, uint64) {
	since = max(since, l.base())
	if since >= l.next {
		return nil, nil, l.next
	}
	evs := make([]Event, 0, l.next-since)
	walls := make([]int64, 0, l.next-since)
	for c := l.seek(since); c.seq < l.next; {
		seq := c.seq
		kind, at, v1, v2, wall := l.step(&c)
		evs = append(evs, Event{Seq: seq, Kind: eventKindNames[kind], Src: src, At: at, V1: v1, V2: v2})
		walls = append(walls, wall)
	}
	return evs, walls, l.next
}

// appendEncoded appends the kept events' OPDSESS1 encoding to dst: the
// event section of a checkpoint.
func (l *eventLog) appendEncoded(dst []byte) []byte { return append(dst, l.enc.live()...) }

// restoreEventLog validates count events in OPDSESS1's per-event
// encoding at the head of data and adopts them as a log whose oldest
// event takes Seq base. The events carry no wall clocks. It returns the
// log and the bytes after the events.
func restoreEventLog(base, count uint64, data []byte) (eventLog, []byte, error) {
	if count > math.MaxUint64-base {
		return eventLog{}, nil, errors.New("event base")
	}
	l := eventLog{head: logCursor{seq: base}, next: base + count, walledFrom: base + count}
	n := 0
	for i := range count {
		if (base+i)%markEvery == 0 {
			l.marks.push(logMark{enc: uint64(n)})
		}
		if n >= len(data) || data[n] > 1 {
			return eventLog{}, nil, fmt.Errorf("event %d: kind", i)
		}
		n++
		for range 3 {
			_, k := binary.Varint(data[n:])
			if k <= 0 {
				return eventLog{}, nil, fmt.Errorf("event %d: payload", i)
			}
			n += k
		}
	}
	l.enc.b = slices.Clone(data[:n])
	return l, data[n:], nil
}
