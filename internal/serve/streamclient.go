package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"

	"opd/internal/trace"
)

// A StreamError is a failure the server reported over the stream
// (FrameErr). Retryable means the chunk was not applied and the client
// may reconnect and resume from the acked cursor.
type StreamError struct {
	Retryable bool
	Msg       string
}

func (e *StreamError) Error() string {
	kind := "fatal"
	if e.Retryable {
		kind = "retryable"
	}
	return fmt.Sprintf("serve: stream error (%s): %s", kind, e.Msg)
}

// An UpgradeError is a stream upgrade the server refused before the
// connection ever spoke frames: the HTTP status and error body of the
// non-101 response. 429 (admission shed) and 503 (recovering, draining,
// overloaded) are transient; 404 means the session is gone.
type UpgradeError struct {
	Status int
	Msg    string
}

func (e *UpgradeError) Error() string {
	return fmt.Sprintf("serve: stream upgrade refused (%d): %s", e.Status, e.Msg)
}

// Transient reports whether redialing later can plausibly succeed.
func (e *UpgradeError) Transient() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// StreamOptions configures DialStream.
type StreamOptions struct {
	// IDs negotiates dense-ID mode: the client interns elements into a
	// symbol table it feeds to the server incrementally, and chunks go
	// over the wire as dense IDs — the server skips per-element hashing
	// entirely.
	IDs bool
	// EventsSince resumes event delivery from this sequence number
	// (exclusive of nothing: events with Seq >= EventsSince arrive).
	OnEvent     func(Event)
	EventsSince uint64
	// NoEvents turns off event multiplexing for this connection: pure
	// bulk-ingest clients skip the per-event marshal + wakeup + write
	// the server would otherwise spend on events nobody reads. OnEvent
	// and EventsSince are ignored when set; events are still detected
	// and remain available over SSE or a later subscribing connection.
	NoEvents bool
	// Builder supplies the client-side symbol table for dense-ID mode,
	// letting a reconnect reuse the table built so far. nil means a
	// fresh builder (correct for both first connections and process
	// restarts: re-interning the skipped chunks rebuilds it).
	Builder *trace.InternedBuilder
	// ChunkBase presets the connection's send counter: the first Send
	// carries absolute chunk index ChunkBase. A reconnecting client that
	// has trimmed acknowledged chunks from its replay history passes the
	// absolute index of its oldest retained chunk so the resume cursor
	// arithmetic stays aligned with the server's applied count.
	ChunkBase uint64
}

// A StreamClient drives one persistent framed ingest connection. Send,
// Drain, End, and Close must be called from one goroutine; acks,
// events, and errors are consumed by an internal reader goroutine, so
// sends pipeline — Send returns as soon as the chunk is written, and
// Drain waits for the server to catch up.
type StreamClient struct {
	conn    net.Conn
	bw      *bufio.Writer
	fr      *trace.FrameReader
	ids     bool
	builder *trace.InternedBuilder
	onEvent func(Event)

	applied  uint64 // server cursor at handshake: chunks to skip
	symsSent int    // symbols the server is known to hold
	sent     uint64 // chunks submitted via Send (including skipped)

	// wmu serializes writers on the connection: the sending goroutine
	// (Send/Flush/Drain/End) and the reader goroutine answering server
	// heartbeat pings both assemble frames through bw/wbuf.
	wmu  sync.Mutex
	wbuf []byte // frame assembly
	pbuf []byte // payload assembly
	idb  []int32

	mu          sync.Mutex
	degraded    bool
	cond        *sync.Cond
	acked       uint64 // server's applied cursor from the latest ack
	inPhase     bool
	eventsTotal uint64
	summary     *Summary
	err         error
	done        bool
}

// DialStream connects to a phased server, upgrades to the streaming
// ingest protocol for the given session, and completes the handshake.
// addr is host:port (the server's Addr).
func DialStream(addr, sessionID string, opts StreamOptions) (*StreamClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dialing stream: %w", err)
	}
	fail := func(err error) (*StreamClient, error) {
		conn.Close()
		return nil, err
	}
	_, err = fmt.Fprintf(conn, "POST /v1/sessions/%s/stream HTTP/1.1\r\nHost: %s\r\nUpgrade: %s\r\nConnection: Upgrade\r\nContent-Length: 0\r\n\r\n",
		sessionID, addr, streamProtocol)
	if err != nil {
		return fail(fmt.Errorf("serve: writing upgrade request: %w", err))
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return fail(fmt.Errorf("serve: reading upgrade response: %w", err))
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		resp.Body.Close()
		if eb.Error == "" {
			eb.Error = resp.Status
		}
		return fail(&UpgradeError{Status: resp.StatusCode, Msg: eb.Error})
	}
	// Past the 101, the connection speaks frames; br may already hold
	// the server's first ones.
	c := &StreamClient{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		fr:      trace.NewFrameReader(br, 0),
		ids:     opts.IDs,
		builder: opts.Builder,
		onEvent: opts.OnEvent,
	}
	c.cond = sync.NewCond(&c.mu)
	c.sent = opts.ChunkBase
	if c.ids && c.builder == nil {
		c.builder = trace.NewInternedBuilder(0)
	}
	mode := "branch"
	if c.ids {
		mode = "ids"
	}
	hello, err := json.Marshal(streamHello{Mode: mode, EventsSince: opts.EventsSince, NoEvents: opts.NoEvents})
	if err == nil {
		err = c.writeFrameFlush(trace.FrameHello, hello)
	}
	if err != nil {
		return fail(fmt.Errorf("serve: sending hello: %w", err))
	}
	typ, payload, err := c.fr.ReadFrame()
	if err != nil {
		return fail(fmt.Errorf("serve: reading hello ack: %w", err))
	}
	switch typ {
	case trace.FrameHelloAck:
	case trace.FrameErr:
		retryable, msg := parseErrPayload(payload)
		return fail(&StreamError{Retryable: retryable, Msg: msg})
	default:
		return fail(fmt.Errorf("serve: expected hello ack, got %s frame", typ))
	}
	var ack streamHelloAck
	if err := json.Unmarshal(payload, &ack); err != nil {
		return fail(fmt.Errorf("serve: decoding hello ack: %w", err))
	}
	if c.ids && ack.Mode != "ids" {
		return fail(fmt.Errorf("serve: server refused ids mode (negotiated %q)", ack.Mode))
	}
	c.applied = ack.Applied
	c.acked = ack.Applied
	c.symsSent = ack.Symbols
	c.eventsTotal = ack.EventsTotal
	c.degraded = ack.Degraded
	go c.readLoop()
	return c, nil
}

// flushThreshold is how much a Send lets accumulate before pushing a
// burst to the server. Low enough that the server starts chewing while
// the client is still producing (pipeline ramp-up), high enough to
// amortize the syscall across several small chunks.
const flushThreshold = 32 << 10

// writeFrame assembles one frame into the write buffer on the caller's
// goroutine. Frames are not flushed individually: Send pipelines into
// the buffer and flushes by the burst (flushThreshold), and
// Flush/Drain/End push the tail out.
func (c *StreamClient) writeFrame(t trace.FrameType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = trace.AppendFrame(c.wbuf[:0], t, payload)
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return err
	}
	if c.bw.Buffered() >= flushThreshold {
		return c.bw.Flush()
	}
	return nil
}

// writeFrameFlush is writeFrame plus an immediate flush, for frames the
// peer must see now (handshake, end-of-stream).
func (c *StreamClient) writeFrameFlush(t trace.FrameType, payload []byte) error {
	if err := c.writeFrame(t, payload); err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.bw.Flush()
}

// Flush pushes any buffered frames to the server. Call it when the
// stream goes idle mid-session and timely detection matters more than
// batching; Drain and End flush implicitly.
func (c *StreamClient) Flush() error {
	if err := c.failed(); err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.bw.Flush()
}

// failed returns the latched terminal error, if any.
func (c *StreamClient) failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Send submits the next chunk. Chunking must be deterministic across
// reconnects: the i-th Send on every connection must carry the same
// elements, because the resume cursor counts chunks. Chunks the server
// already applied are skipped on the wire but still interned locally
// (dense-ID mode) so the client table stays aligned with the server's.
// Send pipelines: it returns once the chunk is written, without waiting
// for the ack.
func (c *StreamClient) Send(elems []trace.Branch) error {
	if err := c.failed(); err != nil {
		return err
	}
	idx := c.sent
	c.sent++
	if !c.ids {
		if idx < c.applied {
			return nil
		}
		c.pbuf = trace.AppendBranches(c.pbuf[:0], elems)
		return c.writeFrame(trace.FrameData, c.pbuf)
	}
	c.idb = c.idb[:0]
	for _, e := range elems {
		c.idb = append(c.idb, c.builder.Intern(e))
	}
	if idx < c.applied {
		return nil
	}
	// New symbols first, so the IDs that follow always resolve. The
	// boundary is what the server confirmed, not the chunk: a reused
	// builder may already hold symbols from chunks lost with the
	// previous connection.
	if card := c.builder.Cardinality(); card > c.symsSent {
		c.pbuf = trace.AppendSymsPayload(c.pbuf[:0], uint64(c.symsSent), c.builder.Symbols()[c.symsSent:card])
		if err := c.writeFrame(trace.FrameSyms, c.pbuf); err != nil {
			return err
		}
		c.symsSent = card
	}
	c.pbuf = trace.AppendIDsPayload(c.pbuf[:0], c.idb)
	return c.writeFrame(trace.FrameIDs, c.pbuf)
}

// Drain blocks until the server has acknowledged every chunk submitted
// so far, or the stream fails.
func (c *StreamClient) Drain() error {
	c.wmu.Lock()
	ferr := c.bw.Flush()
	c.wmu.Unlock()
	if ferr != nil {
		if lerr := c.failed(); lerr != nil {
			return lerr
		}
		return ferr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && !c.done && c.acked < c.sent {
		c.cond.Wait()
	}
	return c.err
}

// End closes the stream: finish true closes the session server-side
// (flushing its open phase), false detaches leaving the session live.
// It returns the session summary from the server's FrameDone.
func (c *StreamClient) End(finish bool) (*Summary, error) {
	flag := []byte{0}
	if finish {
		flag[0] = 1
	}
	if err := c.writeFrameFlush(trace.FrameEnd, flag); err != nil {
		if lerr := c.failed(); lerr != nil {
			return nil, lerr
		}
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && !c.done {
		c.cond.Wait()
	}
	if c.err != nil {
		return nil, c.err
	}
	return c.summary, nil
}

// Close tears the connection down. Safe after End or a failure.
func (c *StreamClient) Close() error { return c.conn.Close() }

// Builder returns the client-side symbol table builder (dense-ID mode),
// for handing to the next connection's StreamOptions on reconnect.
func (c *StreamClient) Builder() *trace.InternedBuilder { return c.builder }

// Applied returns the server's resume cursor from the handshake: the
// number of leading chunks this connection skipped.
func (c *StreamClient) Applied() uint64 { return c.applied }

// Degraded reports whether the session was running without durability
// when this connection's handshake completed: chunks acked during a
// degraded spell are not crash-safe until the server's disk heals.
func (c *StreamClient) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// Progress returns the latest acknowledged state: the server's applied
// cursor, whether the detector is in a phase, and total events emitted.
func (c *StreamClient) Progress() (acked uint64, inPhase bool, eventsTotal uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked, c.inPhase, c.eventsTotal
}

// fail latches a terminal error and wakes every waiter.
func (c *StreamClient) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// readLoop consumes server frames: acks update the cursor, events fire
// the callback, an error frame or a dead connection latches failure,
// and FrameDone completes the stream.
func (c *StreamClient) readLoop() {
	for {
		typ, payload, err := c.fr.ReadFrame()
		if err != nil {
			c.fail(fmt.Errorf("serve: stream connection lost: %w", err))
			return
		}
		switch typ {
		case trace.FrameAck:
			applied, _, inPhase, eventsTotal, perr := parseAckPayload(payload)
			if perr != nil {
				c.fail(perr)
				return
			}
			c.mu.Lock()
			c.acked = applied
			c.inPhase = inPhase
			c.eventsTotal = eventsTotal
			c.cond.Broadcast()
			c.mu.Unlock()
		case trace.FrameEvent:
			var ev Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				c.fail(fmt.Errorf("serve: decoding event frame: %w", err))
				return
			}
			c.mu.Lock()
			c.eventsTotal = ev.Seq + 1
			c.mu.Unlock()
			if c.onEvent != nil {
				c.onEvent(ev)
			}
		case trace.FramePing:
			// Server heartbeat: the stream has been silent past the
			// read deadline. Answering proves the client is alive even
			// when it has nothing to send.
			if err := c.writeFrameFlush(trace.FramePong, nil); err != nil {
				c.fail(fmt.Errorf("serve: answering heartbeat: %w", err))
				return
			}
		case trace.FrameErr:
			retryable, msg := parseErrPayload(payload)
			c.fail(&StreamError{Retryable: retryable, Msg: msg})
			return
		case trace.FrameDone:
			var sum Summary
			if err := json.Unmarshal(payload, &sum); err != nil {
				c.fail(fmt.Errorf("serve: decoding done frame: %w", err))
				return
			}
			c.mu.Lock()
			c.summary = &sum
			c.done = true
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		default:
			c.fail(fmt.Errorf("serve: unexpected %s frame from server", typ))
			return
		}
	}
}
