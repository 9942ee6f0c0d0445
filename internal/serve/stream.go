package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"opd/internal/telemetry"
	"opd/internal/trace"
)

// Persistent framed ingest: POST /v1/sessions/{id}/stream upgrades the
// HTTP/1.1 connection (Upgrade: opd-stream/1) to a long-lived byte
// stream carrying trace.Frame-coded messages in both directions. The
// client sends one FrameHello, then data-plane frames (FrameData, or
// FrameSyms/FrameIDs in dense-ID mode), and finally FrameEnd; the
// server answers with FrameHelloAck, one FrameAck per applied chunk,
// FrameEvent for every phase-lifecycle event (multiplexed between
// acks by a pump goroutine), FrameErr on failures, and FrameDone.
//
// Damage semantics split by layer, mirroring the PR-3 ingest taxonomy:
// frame-level damage (bad checksum, absurd length, torn header) means
// the byte stream can no longer be trusted to be frame-aligned, so it
// is fatal to the connection — the session survives and the client
// reconnects and resumes from the acked cursor. In-payload damage (a
// chunk that fails OPDBRNC1 or ID decoding) rejects that chunk whole —
// nothing of it reaches the detector, exactly like the one-shot
// endpoint's lenient-reject contract — and the connection stays in
// sync, reported by a retryable FrameErr.
const streamProtocol = "opd-stream/1"

// streamHello is the client's negotiation payload (FrameHello, JSON).
type streamHello struct {
	// Mode selects the ingest representation: "branch" (the wire bytes
	// of the one-shot endpoint, the default) or "ids" (dense IDs into a
	// client-fed symbol table — the zero-hash hot path).
	Mode string `json:"mode,omitempty"`
	// EventsSince resumes event delivery from this sequence number.
	EventsSince uint64 `json:"events_since,omitempty"`
	// NoEvents disables event multiplexing on this connection entirely
	// (EventsSince is then ignored). Pure bulk-ingest clients set it:
	// event delivery costs a marshal + wakeup + write per event, which
	// an uninterested client would silently discard anyway. Events are
	// still detected, logged, and available over SSE or a later
	// subscribing connection.
	NoEvents bool `json:"no_events,omitempty"`
}

// streamHelloAck is the server's handshake answer (FrameHelloAck,
// JSON): the latched mode and the resume cursors. A reconnecting client
// skips its first Applied chunks and resends symbols from Symbols on.
type streamHelloAck struct {
	Mode          string `json:"mode"`
	Applied       uint64 `json:"applied"`
	Consumed      int64  `json:"consumed"`
	EventsTotal   uint64 `json:"events_total"`
	Symbols       int    `json:"symbols"`
	MaxFrameBytes int64  `json:"max_frame_bytes"`
	// Degraded warns a resuming client that the session is currently
	// running without durability (WAL breaker open): chunks acked during
	// the spell are not crash-safe until durability resumes.
	Degraded bool `json:"degraded,omitempty"`
}

// appendAckPayload encodes a FrameAck payload:
//
//	uvarint applied chunk count (the resume cursor, absolute)
//	uvarint elements covered by this ack (one ack may cover a whole
//	        burst of chunks — the cursor is what resumes care about)
//	u8      flags (bit 0: detector currently in a phase)
//	uvarint total events emitted
func appendAckPayload(dst []byte, applied uint64, elements int64, inPhase bool, eventsTotal uint64) []byte {
	dst = binary.AppendUvarint(dst, applied)
	dst = binary.AppendUvarint(dst, uint64(elements))
	var flags byte
	if inPhase {
		flags |= 1
	}
	dst = append(dst, flags)
	return binary.AppendUvarint(dst, eventsTotal)
}

// parseAckPayload decodes a FrameAck payload.
func parseAckPayload(data []byte) (applied uint64, elements int64, inPhase bool, eventsTotal uint64, err error) {
	bad := errors.New("serve: malformed ack payload")
	applied, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, false, 0, bad
	}
	data = data[n:]
	el, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, false, 0, bad
	}
	data = data[n:]
	if len(data) < 1 {
		return 0, 0, false, 0, bad
	}
	inPhase = data[0]&1 != 0
	data = data[1:]
	eventsTotal, n = binary.Uvarint(data)
	if n <= 0 || len(data) != n {
		return 0, 0, false, 0, bad
	}
	return applied, int64(el), inPhase, eventsTotal, nil
}

// appendErrPayload encodes a FrameErr payload: one flag byte (1 = the
// connection survives and the client may continue or retry, 0 = fatal)
// followed by the message text.
func appendErrPayload(dst []byte, retryable bool, msg string) []byte {
	var flag byte
	if retryable {
		flag = 1
	}
	dst = append(dst, flag)
	return append(dst, msg...)
}

// parseErrPayload decodes a FrameErr payload.
func parseErrPayload(data []byte) (retryable bool, msg string) {
	if len(data) == 0 {
		return false, "unspecified stream error"
	}
	return data[0] == 1, string(data[1:])
}

// A streamConn is the server half of one upgraded ingest connection.
// The write side is shared between the main frame loop (acks, errors,
// done) and the event pump, so every write goes through writeFrame's
// mutex; a write error latches, failing all later writes cheaply.
type streamConn struct {
	s    *Server
	sess *Session
	conn net.Conn
	rbuf *bufio.Reader // the hijacked read side, for input-pending checks
	gen  uint64        // handshake generation; fences frames racing a successor

	wmu  sync.Mutex
	bw   writerFlusher
	wbuf []byte
	pbuf []byte // ack/err payload scratch, distinct from the frame buffer
	werr error
}

// writerFlusher is the buffered write side of the hijacked connection.
type writerFlusher interface {
	Write(p []byte) (int, error)
	Flush() error
}

// writeFrame frames and flushes one message, reporting whether the
// connection is still writable.
func (sc *streamConn) writeFrame(t trace.FrameType, payload []byte) bool {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return sc.writeFrameLocked(t, payload, true)
}

// armWriteDeadline bounds the next write burst: a peer that cannot
// drain its socket within the configured timeout fails the write, which
// latches werr and tears the connection down. Callers hold wmu.
func (sc *streamConn) armWriteDeadline() {
	if d := sc.s.manager.res.streamWrite; d > 0 {
		_ = sc.conn.SetWriteDeadline(time.Now().Add(d))
	}
}

func (sc *streamConn) writeFrameLocked(t trace.FrameType, payload []byte, flush bool) bool {
	if sc.werr != nil {
		return false
	}
	sc.armWriteDeadline()
	sc.wbuf = trace.AppendFrame(sc.wbuf[:0], t, payload)
	if _, err := sc.bw.Write(sc.wbuf); err != nil {
		sc.werr = err
		return false
	}
	if flush {
		if err := sc.bw.Flush(); err != nil {
			sc.werr = err
			return false
		}
	}
	return true
}

// flush drains the write buffer. The frame loop calls it before blocking
// on an idle connection, so acks batch while the client keeps frames in
// flight (one write per burst instead of per chunk) yet never sit in the
// buffer once the input runs dry.
func (sc *streamConn) flush() {
	sc.wmu.Lock()
	if sc.werr == nil {
		sc.armWriteDeadline()
		if err := sc.bw.Flush(); err != nil {
			sc.werr = err
		}
	}
	sc.wmu.Unlock()
}

// sendErr reports a failure to the client; fatal errors are followed by
// connection teardown at the caller.
func (sc *streamConn) sendErr(retryable bool, err error) bool {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.pbuf = appendErrPayload(sc.pbuf[:0], retryable, err.Error())
	return sc.writeFrameLocked(trace.FrameErr, sc.pbuf, true)
}

// writeAck acknowledges one applied chunk with the session's cursors.
// Acks are buffered, not flushed: the frame loop flushes before blocking,
// so a pipelining client gets its acks in batches.
func (sc *streamConn) writeAck(elements int64) bool {
	applied, inPhase, eventsTotal := sc.sess.StreamProgress()
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.pbuf = appendAckPayload(sc.pbuf[:0], applied, elements, inPhase, eventsTotal)
	return sc.writeFrameLocked(trace.FrameAck, sc.pbuf, false)
}

// pumpEvents is the connection's event multiplexer: the session's event
// log from `since` on, then new events as they are detected, written as
// FrameEvent between acks. It exits when the session terminates, the
// connection dies, or stop closes.
func (sc *streamConn) pumpEvents(since uint64, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	sc.sess.followEvents(since, stop, func(evs []Event, _ uint64, _ bool) bool {
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return false
			}
			// Buffer each event and flush once per batch below: during a
			// hot ingest burst events arrive in clusters, and a syscall
			// per event would contend the write lock with the ack path.
			sc.wmu.Lock()
			ok := sc.writeFrameLocked(trace.FrameEvent, data, false)
			sc.wmu.Unlock()
			if !ok {
				return false
			}
		}
		if len(evs) > 0 {
			sc.flush()
		}
		return true
	})
}

// handleStream upgrades the request and runs the frame loop until the
// client ends the stream, the connection drops, or a fatal protocol
// error occurs.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessionFor(w, r)
	if !ok {
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), streamProtocol) ||
		!strings.Contains(strings.ToLower(r.Header.Get("Connection")), "upgrade") {
		w.Header().Set("Upgrade", streamProtocol)
		writeError(w, http.StatusUpgradeRequired,
			fmt.Errorf("serve: streaming ingest requires \"Upgrade: %s\"", streamProtocol))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("serve: connection cannot be hijacked"))
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: hijacking connection: %w", err))
		return
	}
	// The ResponseWriter is dead after Hijack; record the switch for the
	// request log by hand.
	if sr, ok := w.(*statusRecorder); ok {
		sr.status = http.StatusSwitchingProtocols
	}
	defer conn.Close()
	defer s.trackHijacked(conn)()
	// The connection's buffered read/write sides are a real per-client
	// cost; charge them for the connection's lifetime.
	s.manager.res.gov.Reserve(streamConnBytes)
	defer s.manager.res.gov.Release(streamConnBytes)
	fmt.Fprintf(brw, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n", streamProtocol)
	if err := brw.Flush(); err != nil {
		return
	}
	// Frames must be read through brw.Reader: it may already hold bytes
	// the client pipelined behind the upgrade request.
	sc := &streamConn{s: s, sess: sess, conn: conn, rbuf: brw.Reader, bw: brw.Writer}
	fr := trace.NewFrameReader(brw.Reader, int(s.manager.opts.MaxChunkBytes))
	s.serveStream(sc, fr)
}

// serveStream runs the post-upgrade protocol: handshake, then the
// data-plane frame loop.
func (s *Server) serveStream(sc *streamConn, fr *trace.FrameReader) {
	sess := sc.sess
	hb := s.manager.res.heartbeat
	if hb > 0 {
		// The handshake gets one heartbeat interval: a connection that
		// upgrades and then says nothing is not worth a ping.
		_ = sc.conn.SetReadDeadline(time.Now().Add(hb))
	}
	typ, payload, err := fr.ReadFrame()
	if err != nil || typ != trace.FrameHello {
		if err == nil {
			sc.sendErr(false, fmt.Errorf("serve: expected hello frame, got %s", typ))
		}
		return
	}
	var hello streamHello
	if err := json.Unmarshal(payload, &hello); err != nil {
		sc.sendErr(false, fmt.Errorf("serve: decoding hello: %w", err))
		return
	}
	switch hello.Mode {
	case "", "branch", "ids":
	default:
		sc.sendErr(false, fmt.Errorf("serve: unknown stream mode %q", hello.Mode))
		return
	}
	st, err := sess.StreamHello(hello.Mode == "ids")
	if err != nil {
		sc.sendErr(false, err)
		return
	}
	sc.gen = st.Gen
	ack, err := json.Marshal(streamHelloAck{
		Mode:          st.Mode.String(),
		Applied:       st.Applied,
		Consumed:      st.Consumed,
		EventsTotal:   st.EventsTotal,
		Symbols:       st.Symbols,
		MaxFrameBytes: s.manager.opts.MaxChunkBytes,
		Degraded:      st.Degraded,
	})
	if err != nil || !sc.writeFrame(trace.FrameHelloAck, ack) {
		return
	}

	stop := make(chan struct{})
	var pump sync.WaitGroup
	if !hello.NoEvents {
		pump.Add(1)
		go sc.pumpEvents(hello.EventsSince, stop, &pump)
	}
	defer func() {
		// Unblock the pump (it may be parked on the subscriber), tear the
		// connection down, then wait so the pump never outlives the conn.
		close(stop)
		sc.conn.Close()
		pump.Wait()
	}()

	// One decode scratch per connection (see ingestScratch).
	scratch := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(scratch)
	var pendingAck int64  // elements applied but not yet acked
	var pendingChunks int // chunks covered by pendingAck

	// Heartbeat: each loop turn re-arms the read deadline. The first
	// silent interval sends a Ping; a second one in a row disconnects —
	// so a stalled client is gone within 2x the heartbeat interval, and
	// its session stays resumable. Any frame from the client (Pong
	// included) proves liveness and resets the cycle.
	pinged := false

	for {
		// About to block if the client has nothing in flight: write the
		// deferred ack for everything applied so far, then push the write
		// buffer out. (Flush on an empty buffer is a no-op, and double
		// buffering means checking both the frame reader and the hijacked
		// bufio it reads through.)
		if fr.Buffered() == 0 && sc.rbuf.Buffered() == 0 {
			if pendingAck > 0 || pendingChunks > 0 {
				if !sc.writeAck(pendingAck) {
					return
				}
				pendingAck, pendingChunks = 0, 0
			}
			sc.flush()
		}
		if hb > 0 {
			_ = sc.conn.SetReadDeadline(time.Now().Add(hb))
		}
		typ, err := fr.Next()
		if err != nil {
			var ne net.Error
			if hb > 0 && errors.As(err, &ne) && ne.Timeout() {
				if !pinged {
					pinged = true
					if !sc.writeFrame(trace.FramePing, nil) {
						return
					}
					continue
				}
				s.manager.res.probe.HeartbeatDrop()
				s.logger.Warn("stream heartbeat timeout; disconnecting",
					"session", sess.ID(), "heartbeat", hb.String())
				sc.sendErr(true, fmt.Errorf("serve: no frames for %v; reconnect and resume", 2*hb))
				return
			}
			// io.EOF: the client hung up between frames; anything else is
			// frame-level damage or a torn read — fatal either way, the
			// session itself survives for a reconnect.
			return
		}
		pinged = false
		switch typ {
		case trace.FramePong:
			// Liveness proven; drain the (empty) payload and move on.
			if _, err := fr.Payload(); err != nil {
				return
			}
			continue
		case trace.FrameData, trace.FrameIDs, trace.FrameSyms:
			// Next blocked for as long as the client was idle; the read
			// stage starts at the payload read.
			ct := telemetry.ChunkTrace{Start: time.Now()}
			payload, err := fr.Payload()
			ct.StageNS[telemetry.StageRead] = time.Since(ct.Start).Nanoseconds()
			if err != nil {
				return
			}
			ct.Bytes = int64(len(payload))
			data := typ != trace.FrameSyms
			// Hard-watermark shedding of data frames, same contract as the
			// one-shot endpoint: the shed is a retryable FrameErr and the
			// cursor does not advance, so the client backs off and resends.
			// Like every refusal below, it ends the connection.
			if g := s.manager.res.gov; data && !g.TryReserve(ct.Bytes) {
				s.manager.res.probe.ShedChunk()
				s.logger.Warn("stream chunk shed: memory over hard watermark",
					"session", sess.ID(), "chunk_bytes", ct.Bytes, "used_bytes", g.Used())
				sc.sendErr(true, fmt.Errorf("serve: chunk shed, accounted memory at %d bytes; retry", g.Used()))
				return
			}
			err = sess.ingest(sc.gen, typ, payload, scratch, &ct)
			if data {
				s.manager.res.gov.Release(ct.Bytes)
			}
			if err != nil {
				// Nothing of the record was applied, and every refusal ends
				// the connection, retryably or not (see ingestStatus): the
				// client may have pipelined frames behind this one, and none
				// of them may apply while its resume cursor still points at
				// this one.
				_, retryable := ingestStatus(err)
				sc.sendErr(retryable, err)
				return
			}
			if !data {
				continue
			}
			// Acks carry the absolute applied cursor, so under a burst one
			// ack can cover every chunk in it: defer to the loop-top
			// drain point rather than paying the progress-snapshot and
			// write-lock cost per frame. The chunk bound keeps the cursor
			// moving for a client that never lets the input run dry.
			pendingAck += ct.Elements
			if pendingChunks++; pendingChunks >= 32 {
				if !sc.writeAck(pendingAck) {
					return
				}
				pendingAck, pendingChunks = 0, 0
			}

		case trace.FrameEnd:
			payload, err := fr.Payload()
			if err != nil {
				return
			}
			var sum *Summary
			if len(payload) > 0 && payload[0] == 1 {
				sum, _ = s.manager.Close(sess.ID())
				// Closing terminated the session, which wakes the pump for
				// a final drain-and-exit; waiting here orders Done after
				// the last event, so a client may stop reading at Done
				// without losing the final phase_end.
				pump.Wait()
			} else {
				sum = sess.Summary()
			}
			if sum == nil {
				sum = sess.Summary()
			}
			data, err := json.Marshal(sum)
			if err == nil {
				sc.writeFrame(trace.FrameDone, data)
			}
			return

		default:
			sc.sendErr(false, fmt.Errorf("serve: unexpected %s frame", typ))
			return
		}
	}
}
