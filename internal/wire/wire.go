// Package wire defines the length-framed binary protocol spoken between a
// nestedsgd server and its clients.
//
// Every message is one frame: a uvarint payload length followed by the
// payload, capped at MaxFrame. Payloads are built from the NSGB primitives
// exported by internal/event (uvarint-prefixed strings and kind-tagged
// spec.Values) and read back with its Cursor, so the module has one binary
// encoding of values, and one decoder, across traces, the WAL and the
// network protocol. A parser refuses a payload with bytes left over.
//
// A connection carries one session, whose state (the cursor into its
// nested-transaction tree fragment) lives on the server. The server handles
// requests one at a time and answers them in request order, one response
// frame per request frame. A client need not wait for an answer before it
// sends the next request: one whose reply it does not need yet (BEGIN,
// CHILD, a blind update whose value its type fixes, a subtransaction's
// COMMIT) may be sent ahead in the same write as the request that does, as
// long as the client later reads one response per request it sent. The server
// flushes its responses when the next request frame is not already complete
// in its read buffer — after every response for a strictly alternating
// client, once per burst for one that sends ahead — so a response is never
// held back while the server waits for bytes the client has yet to send.
// Requests are:
//
//	BEGIN            open a top-level transaction (child of T0)
//	CHILD [n]        open a subtransaction of the current transaction; with
//	                 n the parent names it "k<n>" (an error if the current
//	                 transaction already has a child of that name), without
//	                 it the server invents a name
//	ACCESS obj op v  run one access as a child of the current transaction
//	COMMIT           commit the current transaction
//	ABORT            abort the current transaction
//	VERDICT          report the server's live certification state
//	PING             no-op round trip
//
// Responses carry a status byte: OK, TX_ABORTED (the server aborted the
// session's whole top-level transaction — deadlock timeout or drain; the
// session is reset to idle and the client should retry the transaction), or
// ERROR (protocol misuse; the transaction state is unchanged).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"nestedsg/internal/event"
	"nestedsg/internal/spec"
)

// Cmd identifies a request kind.
type Cmd uint8

// Request kinds.
const (
	CmdInvalid Cmd = iota
	CmdBegin
	CmdChild
	CmdAccess
	CmdCommit
	CmdAbort
	CmdVerdict
	CmdPing
)

var cmdNames = [...]string{
	CmdInvalid: "INVALID",
	CmdBegin:   "BEGIN",
	CmdChild:   "CHILD",
	CmdAccess:  "ACCESS",
	CmdCommit:  "COMMIT",
	CmdAbort:   "ABORT",
	CmdVerdict: "VERDICT",
	CmdPing:    "PING",
}

// String returns the wire name of the command.
func (c Cmd) String() string {
	if int(c) < len(cmdNames) {
		return cmdNames[c]
	}
	return fmt.Sprintf("Cmd(%d)", uint8(c))
}

// Status is the outcome class of a response.
type Status uint8

// Response statuses.
const (
	// StatusOK: the request succeeded.
	StatusOK Status = iota
	// StatusTxAborted: the server aborted the session's top-level
	// transaction (deadlock timeout, waits-for victim, or drain). The
	// session is idle again; the client should back off and retry.
	StatusTxAborted
	// StatusError: the request was rejected without touching transaction
	// state (protocol misuse, unknown object, draining server).
	StatusError
)

// String returns the wire name of the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusTxAborted:
		return "TX_ABORTED"
	case StatusError:
		return "ERROR"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// MaxFrame bounds a frame payload so a corrupt or adversarial length prefix
// fails fast instead of allocating gigabytes.
const MaxFrame = 1 << 20

// Request is a decoded request frame. Obj, Op and Arg are meaningful only
// for CmdAccess; RO only for CmdBegin; Named and N only for CmdChild.
type Request struct {
	Cmd Cmd
	Obj string
	Op  spec.OpKind
	Arg spec.Value
	// RO asks for a read-only transaction: backends with a snapshot store
	// serve its reads from a certified snapshot without locks; others run
	// it as a normal transaction. Encoded as an optional flag byte after
	// CmdBegin, so old BEGIN frames (no byte) still parse.
	RO bool
	// Named says the parent names this child: "k<N>". Encoded as an optional
	// uvarint after CmdChild, the way BEGIN carries RO, so a label-less CHILD
	// is the same one byte as before and the server then invents the name.
	// A number, not a string: nothing to validate, and no client-chosen name
	// can collide with a server-made "a…", "c…" or "s…" one.
	Named bool
	N     uint64
}

// Verdict is the server's live certification state, as reported by
// CmdVerdict.
type Verdict struct {
	// Events is the length of the server's event log; Certified is how many
	// of those the online certifier has consumed.
	Events    uint64
	Certified uint64
	// Acyclic reports that every certified prefix has an acyclic SG.
	Acyclic bool
	// Parents, Nodes and Edges are the live SG sizes.
	Parents uint64
	Nodes   uint64
	Edges   uint64
	// Commits and Aborts count completion events in the log.
	Commits uint64
	Aborts  uint64
}

// Response is a decoded response frame. Which payload fields are meaningful
// depends on (Status, request Cmd): Value for ACCESS, Name for BEGIN/CHILD,
// Seq for COMMIT (the certified log index of the COMMIT event), Verdict for
// VERDICT, Reason for TX_ABORTED and ERROR.
type Response struct {
	Status  Status
	Value   spec.Value
	Name    string
	Seq     uint64
	Reason  string
	Verdict Verdict
}

// errFrameTooLarge formats the one cold error of the framing functions. It
// is kept out of line so that its allocation stays here and the hotalloc
// gate can hold PutFrame and WriteFrame to zero.
//
//go:noinline
func errFrameTooLarge(n uint64) error {
	return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
}

// PutFrame appends one length-prefixed frame to the writer's buffer without
// flushing it, so several frames can share one write to the connection. The
// length prefix goes out byte-by-byte through the bufio.Writer: a stack
// scratch array passed to Write would escape through the underlying
// io.Writer interface and cost the hot path an allocation per frame.
//
//sgvet:hotpath
func PutFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return errFrameTooLarge(uint64(len(payload)))
	}
	n := uint64(len(payload))
	for n >= 0x80 {
		if err := w.WriteByte(byte(n) | 0x80); err != nil {
			return err
		}
		n >>= 7
	}
	if err := w.WriteByte(byte(n)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteFrame writes one length-prefixed frame and flushes the writer.
//
//sgvet:hotpath
func WriteFrame(w *bufio.Writer, payload []byte) error {
	if err := PutFrame(w, payload); err != nil {
		return err
	}
	return w.Flush()
}

// FrameBuffered reports whether r already holds a complete, well-formed
// frame, so that the next ReadFrame returns it without reading from the
// connection. It never blocks. A bad or oversized length prefix reads as "no":
// the caller then flushes what it owes before ReadFrame reports the error.
//
//sgvet:hotpath
func FrameBuffered(r *bufio.Reader) bool {
	have := r.Buffered()
	b, _ := r.Peek(min(have, binary.MaxVarintLen64)) // no more than is buffered: cannot fail, cannot block
	n, k := binary.Uvarint(b)
	return k > 0 && n <= MaxFrame && uint64(have-k) >= n
}

// ReadFrame reads one length-prefixed frame into buf (grown as needed) and
// returns the payload slice. io.EOF before the length prefix means a clean
// connection close. Growth is geometric — at least double the old capacity,
// clamped to MaxFrame — so a long-lived session's reuse buffer settles at
// its peak frame size after O(log n) reallocations instead of reallocating
// on every upward size wobble.
func ReadFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, errFrameTooLarge(n)
	}
	if uint64(cap(buf)) < n {
		newCap := 2 * cap(buf)
		if newCap < 64 {
			newCap = 64
		}
		if uint64(newCap) < n {
			newCap = int(n)
		}
		if newCap > MaxFrame {
			newCap = MaxFrame
		}
		buf = make([]byte, newCap)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: frame body: %w", err)
	}
	return buf, nil
}

// AppendRequest encodes q onto buf.
//
//sgvet:hotpath
func AppendRequest(buf []byte, q Request) []byte {
	buf = append(buf, byte(q.Cmd))
	switch {
	case q.Cmd == CmdAccess:
		buf = event.AppendString(buf, q.Obj)
		buf = binary.AppendUvarint(buf, uint64(q.Op))
		buf = event.AppendValue(buf, q.Arg)
	case q.Cmd == CmdBegin && q.RO:
		buf = append(buf, 1)
	case q.Cmd == CmdChild && q.Named:
		buf = binary.AppendUvarint(buf, q.N)
	}
	return buf
}

// ParseRequest decodes a request payload. It reads the byte slice in place
// through an event.Cursor, so commands without string payloads parse
// without allocating; an ACCESS request's one allocation is the Obj string.
func ParseRequest(payload []byte) (Request, error) {
	c := event.NewCursor(payload)
	cb, err := c.Byte("request cmd")
	if err != nil {
		return Request{}, err
	}
	q := Request{Cmd: Cmd(cb), Arg: spec.Nil}
	switch q.Cmd {
	case CmdAccess:
		if q.Obj, err = c.Str("request obj"); err != nil {
			return Request{}, err
		}
		if q.Op, err = c.OpKind("request op"); err != nil {
			return Request{}, err
		}
		if q.Arg, err = c.Value("request arg"); err != nil {
			return Request{}, err
		}
	case CmdBegin:
		// Optional read-only flag byte; absent means read/write.
		if c.Len() > 0 {
			if f, _ := c.Byte("request flag"); f != 1 { // cannot fail: a byte is left
				return Request{}, fmt.Errorf("wire: BEGIN flag byte %d", f)
			}
			q.RO = true
		}
	case CmdChild:
		// Optional name number; absent means the server names the child.
		if c.Len() > 0 {
			if q.N, err = c.Uvarint("request child name"); err != nil {
				return Request{}, err
			}
			q.Named = true
		}
	case CmdCommit, CmdAbort, CmdVerdict, CmdPing:
		// No payload beyond the command byte.
	case CmdInvalid:
		return Request{}, fmt.Errorf("wire: invalid command byte 0")
	default:
		return Request{}, fmt.Errorf("wire: unknown command byte %d", cb)
	}
	if c.Len() > 0 {
		return Request{}, fmt.Errorf("wire: %d trailing bytes after %s request", c.Len(), q.Cmd)
	}
	return q, nil
}

// AppendResponse encodes the response to a cmd request onto buf. The command
// selects which payload fields travel, mirroring ParseResponse.
//
//sgvet:hotpath
func AppendResponse(buf []byte, cmd Cmd, resp Response) []byte {
	buf = append(buf, byte(resp.Status))
	switch resp.Status {
	case StatusTxAborted, StatusError:
		return event.AppendString(buf, resp.Reason)
	case StatusOK:
		// Fall through to the per-command payload below.
	default:
		// Unknown statuses carry no payload; ParseResponse rejects them.
		return buf
	}
	switch cmd {
	case CmdBegin, CmdChild:
		buf = event.AppendString(buf, resp.Name)
	case CmdAccess:
		buf = event.AppendValue(buf, resp.Value)
	case CmdCommit:
		buf = binary.AppendUvarint(buf, resp.Seq)
	case CmdVerdict:
		v := resp.Verdict
		buf = binary.AppendUvarint(buf, v.Events)
		buf = binary.AppendUvarint(buf, v.Certified)
		if v.Acyclic {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, v.Parents)
		buf = binary.AppendUvarint(buf, v.Nodes)
		buf = binary.AppendUvarint(buf, v.Edges)
		buf = binary.AppendUvarint(buf, v.Commits)
		buf = binary.AppendUvarint(buf, v.Aborts)
	case CmdAbort, CmdPing, CmdInvalid:
		// No payload.
	default:
		// Unknown commands have no response payload.
	}
	return buf
}

// ParseResponse decodes the response to a cmd request. Like ParseRequest it
// reads the byte slice in place, so responses without string payloads (PING,
// ACCESS with a scalar value, COMMIT) parse without allocating.
func ParseResponse(cmd Cmd, payload []byte) (Response, error) {
	c := event.NewCursor(payload)
	sb, err := c.Byte("response status")
	if err != nil {
		return Response{}, err
	}
	resp := Response{Status: Status(sb), Value: spec.Nil}
	switch {
	case resp.Status == StatusTxAborted || resp.Status == StatusError:
		resp.Reason, err = c.Str("response reason")
	case resp.Status != StatusOK:
		return Response{}, fmt.Errorf("wire: unknown response status %d", sb)
	case cmd == CmdBegin || cmd == CmdChild:
		resp.Name, err = c.Str("response name")
	case cmd == CmdAccess:
		resp.Value, err = c.Value("response value")
	case cmd == CmdCommit:
		resp.Seq, err = c.Uvarint("response seq")
	case cmd == CmdVerdict:
		err = parseVerdict(&c, &resp.Verdict)
	}
	// An OK answer to any other command has no payload.
	if err != nil {
		return Response{}, err
	}
	if c.Len() > 0 {
		return Response{}, fmt.Errorf("wire: %d trailing bytes after %s response", c.Len(), cmd)
	}
	return resp, nil
}

// parseVerdict reads the payload of an OK answer to VERDICT.
func parseVerdict(c *event.Cursor, v *Verdict) error {
	var err error
	if v.Events, err = c.Uvarint("response verdict"); err != nil {
		return err
	}
	if v.Certified, err = c.Uvarint("response verdict"); err != nil {
		return err
	}
	acyclic, err := c.Byte("response verdict acyclic")
	if err != nil {
		return err
	}
	v.Acyclic = acyclic != 0
	for _, f := range []*uint64{&v.Parents, &v.Nodes, &v.Edges, &v.Commits, &v.Aborts} {
		if *f, err = c.Uvarint("response verdict"); err != nil {
			return err
		}
	}
	return nil
}
