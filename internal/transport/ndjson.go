// NDJSON ingest: the debug- and interop-friendly alternative to the
// binary codec, and a second framer in front of the same connection
// chain. A connection whose first byte is not the binary Magic is read
// as newline-delimited JSON objects, one event per line:
//
//	{"seq":17,"type":"STR_A","ts":1500000,"kind":"possession","vals":[1.5,2]}
//
// "type" is either the registry-interned numeric id or the registered
// type name; "kind" is either the numeric kind or its name (see
// event.ParseKind). The lines that arrived with one read are a run,
// staged, committed with one journal commit round, submitted and
// answered exactly like a binary run (run.go); only the replies differ,
// status and error lines instead of frames. NDJSON connections get no
// credit frames — backpressure is the bounded read: the server is at
// most one read ahead of the sink, so a fast producer eventually blocks
// in the kernel's TCP flow control.
package transport

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/event"
)

// ndjsonBatch bounds the events of one staged NDJSON batch — one
// journal record.
const ndjsonBatch = 256

// serveNDJSON runs the line read loop. A run is every complete line
// already buffered, never a line the handler would have to wait for:
// each line's event is decoded into the run's slab, every ndjsonBatch
// events are staged as one batch, and the run is settled (settle).
//
// Two kinds of non-event lines ride the same stream. The connection's
// first non-empty line is judged once: a tenant hello — {"token":"..."}
// — is admitted with its token and answered with
// {"status":"ok","tenant":"..."}; any other line admits the anonymous
// tenant and is decoded as an event. And the server emits
// {"status":"degraded"} / {"status":"durable"} lines on journal episode
// transitions (plus one at connect when already degraded), so a
// plain-text producer learns that acceptance is currently at-most-once —
// the NDJSON equivalent of FlagDegraded, which only binary acks carry.
func (c *binaryConn) serveNDJSON(br *bufio.Reader) error {
	if c.s.cfg.Journal != nil && c.s.degraded() {
		c.ack(0, 0, true)
		if c.send() != nil {
			return nil
		}
	}
	var buf []byte
	for {
		c.events = c.events[:0]
		rerr, err := c.lines(br, &buf)
		if err = c.settle(err); err != nil {
			c.drop(err)
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// lines reads and dispatches the lines of one run, staging every
// ndjsonBatch events. It returns the read failure that ends the
// connection (rerr) or the first bad line's error (err); either way the
// lines before it are staged.
func (c *binaryConn) lines(br *bufio.Reader, buf *[]byte) (rerr, err error) {
	for {
		c.s.armIdle(c.conn)
		var raw []byte
		if raw, rerr = readLineBounded(br, buf, c.s.cfg.MaxFrame); rerr == errLineTooLong {
			rerr, err = nil, errLineTooLong
		} else {
			err = c.line(trimLine(raw))
		}
		if err != nil || rerr != nil || !lineBuffered(br) {
			if serr := c.stageLines(); serr != nil {
				err = serr // in stream order the journal fault came first
			}
			return rerr, err
		}
		if len(c.events)%ndjsonBatch == 0 {
			if err := c.stageLines(); err != nil {
				return nil, err
			}
		}
	}
}

// line dispatches one NDJSON line: a blank line is skipped, the first
// non-empty one admits the connection (a hello is answered, not
// decoded), and every other line is decoded into the run's slab.
func (c *binaryConn) line(line []byte) error {
	if len(line) == 0 {
		return nil
	}
	if !c.helloDone {
		c.helloDone = true
		if token, ok := ndjsonHelloToken(line); ok {
			if err := c.admit(token); err != nil {
				return err
			}
			name := ""
			if c.ten != nil {
				name = c.ten.name
			}
			c.out = fmt.Appendf(c.out, "{\"status\":\"ok\",\"tenant\":%q}\n", name)
			return nil
		}
		if err := c.admit(nil); err != nil {
			return err
		}
	}
	e, err := decodeNDJSONLine(line, c.s.cfg.Registry)
	if err != nil {
		return err
	}
	c.events = append(c.events, e)
	return nil
}

// stageLines stages the events decoded since the last staged batch as
// one batch; its journal payload is Encoder.AppendEvents of them, so the
// log replays NDJSON batches exactly like binary ones. Only a run's
// last batch is staged short, so the unstaged events start at a
// multiple of ndjsonBatch.
func (c *binaryConn) stageLines() error {
	lo := len(c.staged) * ndjsonBatch
	if lo == len(c.events) {
		return nil
	}
	var payload []byte
	if c.s.cfg.Journal != nil {
		payload = Encoder{}.AppendEvents(nil, c.events[lo:])
	}
	return c.stageBatch(lo, 0, 0, payload)
}

// ndjsonHelloToken recognizes a tenant hello line — a JSON object with
// a "token" member, e.g. {"token":"tok-alpha"} — and returns the token
// bytes. Only the connection's first non-empty line is ever tested
// against it; event lines (no "token" member) report ok == false.
func ndjsonHelloToken(line []byte) (token []byte, ok bool) {
	var hello struct {
		Token *string `json:"token"`
	}
	if err := json.Unmarshal(line, &hello); err != nil || hello.Token == nil {
		return nil, false
	}
	return []byte(*hello.Token), true
}

// ndjsonEvent is the wire shape of one NDJSON line.
type ndjsonEvent struct {
	Seq  uint64          `json:"seq"`
	Type json.RawMessage `json:"type"`
	TS   int64           `json:"ts"`
	Kind json.RawMessage `json:"kind"`
	Vals []float64       `json:"vals,omitempty"`
}

// decodeNDJSONLine parses one line into an event, resolving type names
// (and validating type ids) against reg when non-nil.
func decodeNDJSONLine(line []byte, reg *event.Registry) (event.Event, error) {
	var raw ndjsonEvent
	if err := json.Unmarshal(line, &raw); err != nil {
		return event.Event{}, fmt.Errorf("transport: ndjson: %w", err)
	}
	e := event.Event{Seq: raw.Seq, TS: event.Time(raw.TS), Vals: raw.Vals}

	switch {
	case len(raw.Type) == 0:
		return event.Event{}, fmt.Errorf("transport: ndjson: missing type")
	case raw.Type[0] == '"':
		var name string
		if err := json.Unmarshal(raw.Type, &name); err != nil {
			return event.Event{}, fmt.Errorf("transport: ndjson type: %w", err)
		}
		if reg == nil {
			return event.Event{}, fmt.Errorf("transport: ndjson: type by name %q needs a registry", name)
		}
		id, ok := reg.Lookup(name)
		if !ok {
			return event.Event{}, fmt.Errorf("transport: ndjson: unknown type %q", name)
		}
		e.Type = id
	default:
		id, err := strconv.ParseInt(string(raw.Type), 10, 32)
		if err != nil || id < 0 {
			return event.Event{}, fmt.Errorf("transport: ndjson: bad type id %q", raw.Type)
		}
		if reg != nil && int(id) >= reg.Len() {
			return event.Event{}, fmt.Errorf("transport: ndjson: unknown type id %d (registry has %d)", id, reg.Len())
		}
		e.Type = event.Type(id)
	}

	switch {
	case len(raw.Kind) == 0:
		e.Kind = event.KindNone
	case raw.Kind[0] == '"':
		var name string
		if err := json.Unmarshal(raw.Kind, &name); err != nil {
			return event.Event{}, fmt.Errorf("transport: ndjson kind: %w", err)
		}
		k, ok := event.ParseKind(name)
		if !ok {
			return event.Event{}, fmt.Errorf("transport: ndjson: unknown kind %q", name)
		}
		e.Kind = k
	default:
		k, err := strconv.ParseUint(string(raw.Kind), 10, 8)
		if err != nil {
			return event.Event{}, fmt.Errorf("transport: ndjson: bad kind %q", raw.Kind)
		}
		e.Kind = event.Kind(k)
	}
	return e, nil
}

// errLineTooLong reports an NDJSON line exceeding the frame bound; its
// text is the producer's error line.
var errLineTooLong = errors.New("line too long")

// readLineBounded reads one newline-terminated line into *buf (reused
// across calls), failing with errLineTooLong as soon as the
// accumulated length exceeds max — unlike bufio's ReadBytes, it never
// buffers an unbounded line before checking, so one newline-less
// connection cannot grow server memory past the frame bound.
func readLineBounded(br *bufio.Reader, buf *[]byte, max int) ([]byte, error) {
	line := (*buf)[:0]
	for {
		chunk, err := br.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > max {
			*buf = line[:0]
			return nil, errLineTooLong
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		*buf = line
		return line, err
	}
}

// lineBuffered reports whether br holds a complete line, which can be
// read without waiting for the peer.
func lineBuffered(br *bufio.Reader) bool {
	buffered, _ := br.Peek(br.Buffered())
	return bytes.IndexByte(buffered, '\n') >= 0
}

// trimLine strips the trailing newline and optional carriage return.
func trimLine(line []byte) []byte {
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line
}
