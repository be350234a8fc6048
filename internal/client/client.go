// Package client is the Go client for a nestedsgd server: a thin cursor
// over the session state the server keeps, plus a retry loop for the
// server-side aborts (deadlock victims, lock timeouts, drains) that any
// concurrent locking protocol must be allowed to issue.
//
// The methods of Conn are one request, one answer: when Begin, Child, Access
// or Commit returns, the request has reached the server and been answered.
// RunTx and RunReadTx pay a round trip only for an answer the body reads and
// does not already hold.
// Six kinds of request are frames held back and sent in the same write as
// the body's next request that waits for its answer (or the final COMMIT):
//
//   - their BEGIN;
//   - each Tx.Child, which returns the name the parent gives the child;
//   - each Tx.Access whose op has an answer its type fixes in every state
//     (spec.FixedAnswer: a write, increment, deposit, insert, append, enq …),
//     which returns that answer;
//   - each Tx.Access of a read-only op whose answer the attempt already
//     holds: a repeat of a read it made, or a read its own update of the
//     object answers (spec.AnswerAfter: a register's read after its write,
//     a set's member(x) after its insert(x) or remove(x)), which returns
//     that answer;
//   - each Tx.Commit of a subtransaction, which returns seq 0 — never a real
//     log index, since those start at 1;
//   - the top-level COMMIT of a RunReadTx whose BEGIN the server answered
//     "snapshot", after a body that read something and left nothing owed
//     but CHILD and COMMIT answers. Such a transaction is a query outside
//     the behavior the server certifies: its COMMIT logs, syncs and certifies
//     nothing, and the server answers it OK unconditionally. RunReadTx then
//     returns nil at once, and the COMMIT travels with the connection's next
//     request, whatever call makes it.
//
// A burst — the requests held back and the request that waits for them — is
// one write: a request whose frame would not fit the rest of the write buffer
// makes the burst go first. Nothing else bounds it, so a body that sends a
// hundred blind writes and then reads pays one write for all of them. One
// write is what keeps both ends moving even over a net.Pipe, which buffers
// nothing: the server takes the whole write in one read of its own buffer,
// the same size, before it answers anything, so however many bytes its
// answers are, the client is reading them by the time the server writes.
// The server answers the burst in one write when the answers fit its write
// buffer, and every answer is still read and checked: its status, a CHILD's
// echoed name, an access's promised value.
// So a nil error from one of these calls means only "accepted for sending".
// Whatever goes wrong with the request — a refused BEGIN, a deadlock victim,
// an object that lacks the op — is reported by the body's next request that
// waits, or by the final COMMIT, in place of that later request's own
// outcome; and whatever the body does in between happens before the server
// has seen it. A request whose frame would not fit an empty write buffer is
// the exception: it is always a plain round trip, since writing it straight
// to the connection could block both ends.
//
// An attempt holds the answers it can already give, keyed by object, op and
// argument: what each read-only op got, and what a read-only op must answer
// after the attempt's own update of the object. Until the attempt ends, or
// one of its subtransactions aborts, the server can only give such a read
// the held answer, or abort the attempt: the attempt holds the object's lock
// (Moss), every operation granted since commutes backward with its own (undo
// logging), or a later version restarts it (strict mvto). So Tx.Access
// answers such a read at once, and still sends it ahead, promised the held
// answer, so that every value the body is handed is one the log holds. The
// synchronous Conn.Access asks every time.
//
// A snapshot transaction — a RunReadTx attempt whose BEGIN the server
// answered "snapshot" — answers from the connection's view instead. The
// server's session keeps the last few distinct (object, op, argument) reads
// it served the connection's snapshot transactions, and only it evicts one;
// the connection keeps a copy of their answers, valid at the cut the last
// snapshot BEGIN pinned. Each snapshot BEGIN's answer brings the copy to
// its own cut: it drops the keys the session evicted since the last one,
// and pushes, with its value at the new cut, every key whose object a
// top-level COMMIT changed in between; an object that nothing changed
// answers the same at both cuts. From that answer until the attempt ends,
// Tx.Access answers a read whose key the copy holds at once and sends
// nothing, and one it lacks waits for its answer, which the session serves
// at the attempt's cut and both ends then keep. A read of a key the copy
// holds waits for the BEGIN's answer first, if it has not come. So a warm
// connection's snapshot transaction whose reads are all in its view pays
// one write, its BEGIN, with the previous transaction's COMMIT and whatever
// CHILD frames ride along, and is served no read. Its answers are all at
// the one cut its BEGIN pinned, like any snapshot transaction's. RunTx and a
// backend without snapshots keep no view; the synchronous Conn.Access always
// asks, and in a snapshot transaction its answer joins the view as well.
//
// So after RunReadTx the connection may still be owed answers between calls,
// and the next call — a synchronous method, a RunTx, a Pool's health-check
// Ping — reads them first. Should one of them fail, which takes a transport
// failure, that call reports it in place of its own outcome. Close drops
// them unsent; the server then closes the snapshot transaction without a
// trace, as it does for a client that vanishes mid-read.
//
// One consequence the synchronous methods do not have: the top-level COMMIT
// travels with the requests sent ahead of it, so it is applied even when one
// of them was refused. Such a refusal is a programming error — the server
// refuses a blind update only for an empty object name, an op the object's
// type lacks, or a write inside a snapshot read-only transaction — and RunTx
// then returns it marked as having committed (ErrCommittedAnyway).
package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"nestedsg/internal/spec"
	"nestedsg/internal/wire"
)

// ErrTxAborted is wrapped by every error caused by the server aborting the
// session's top-level transaction. After it, the session is idle again and
// the transaction can simply be retried; RunTx does so automatically.
var ErrTxAborted = errors.New("transaction aborted by server")

// ErrCommittedAnyway is wrapped by the error RunTx returns when a request
// sent ahead with the top-level COMMIT failed and the COMMIT did not: the
// transaction committed all the same, without whatever the server refused.
var ErrCommittedAnyway = errors.New("the transaction committed anyway")

// sent is a request that has been put on the wire (or into the write
// buffer) and not yet answered.
type sent struct {
	cmd wire.Cmd
	// name is the name a CHILD request gave its subtransaction, which the
	// answer must echo; "" when the server chooses.
	name string
	// value is the answer an ACCESS sent ahead was promised to give, when
	// promised is set: the one its type fixes, or one the attempt holds.
	value    spec.Value
	promised bool
	// key is what an ACCESS of a read-only op asks, whose answer drain keeps
	// in the view when the session serves it to a snapshot transaction; its
	// obj is "" for any other request.
	key readKey
}

// readKey is what a read asks: an op, with its argument, on an object.
type readKey struct {
	obj string
	op  spec.Op
}

// Conn is one connection — hence one server-side session. A Conn is not
// safe for concurrent use; the server answers requests in the order sent.
type Conn struct {
	nc   net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	rbuf []byte
	out  []byte
	// ahead holds the requests not yet answered, oldest first. Between calls
	// it is empty, except after a RunReadTx that left its snapshot COMMIT
	// (and the CHILD and COMMIT answers before it) owed.
	ahead []sent
	// children numbers the subtransactions this connection has named; a
	// session's names never repeat, so none can collide under one parent.
	children uint64
	// beginErr is why the BEGIN of the running RunTx attempt failed, once
	// its answer has been read; begun says that answer has been read.
	beginErr error
	begun    bool
	// ro says the running RunTx attempt is a RunReadTx's; snapshot says the
	// last BEGIN was answered OK with the snapshot flag, once that answer
	// has been read.
	ro, snapshot bool
	// held is the running attempt's table of held answers (see heldAnswer),
	// a slice reused from attempt to attempt and scanned linearly: a body
	// touches a handful of objects.
	held []heldAnswer
	// view is the connection's copy of its session's view (see the package
	// comment): read entries, valid at the cut of the last snapshot BEGIN
	// whose answer has been read, in no order. That answer leaves it no
	// more keys than the session keeps, since it drops every other or
	// empties the copy; until the next one it also keeps what the session
	// serves, as a transaction's held answers would.
	view []heldAnswer
	// dead is the first transport failure: the server-side session is gone,
	// so the connection must not be pooled or reused.
	dead error
}

// Dial connects to a nestedsgd server.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// NewConn wraps an established connection (e.g. one end of net.Pipe served
// by Server.ServeConn) as a client session.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
}

// Broken reports that the connection has seen a transport error and is
// dead.
func (c *Conn) Broken() bool { return c.dead != nil }

// Close closes the connection. A transaction left open is aborted by the
// server.
func (c *Conn) Close() error { return c.nc.Close() }

// put appends q's frame to the write buffer and records that the answer s
// describes is owed. Nothing reaches the server before the next drain — which
// comes first if q would not fit the rest of the write buffer, so a burst is
// always one write: the server reads it whole, into a read buffer of the
// same size, before it writes any answer, and neither end can block writing
// while the other is not reading.
func (c *Conn) put(q wire.Request, s sent) error {
	c.out = wire.AppendRequest(c.out[:0], q)
	return c.putOut(q.Cmd, s)
}

// putOut is put for the request whose frame c.out holds.
func (c *Conn) putOut(cmd wire.Cmd, s sent) error {
	if c.dead != nil {
		return c.dead
	}
	if len(c.ahead) > 0 && len(c.out)+binary.MaxVarintLen32 > c.w.Available() {
		if _, err := c.drain(); err != nil {
			return err
		}
	}
	if err := wire.PutFrame(c.w, c.out); err != nil {
		c.dead = fmt.Errorf("client: write %s: %w", cmd, err)
		return c.dead
	}
	s.cmd = cmd
	c.ahead = append(c.ahead, s)
	return nil
}

// fits reports that the frame c.out holds fits an empty write buffer, so it
// can wait there behind others.
func (c *Conn) fits() bool { return len(c.out)+binary.MaxVarintLen32 <= c.w.Size() }

// putAhead puts q to be answered with a later request. The exception is a
// frame too big for an empty write buffer: bufio writes it straight to the
// connection, where it can block on a peer that is itself blocked writing
// the answers to what went before it — over a net.Pipe, which buffers
// nothing, both ends would wait for ever. Such a request is a plain round
// trip instead, and putAhead returns its answer with answered set.
func (c *Conn) putAhead(q wire.Request, s sent) (resp wire.Response, answered bool, err error) {
	if err := c.put(q, s); err != nil {
		return wire.Response{}, true, err
	}
	if c.fits() {
		return wire.Response{}, false, nil
	}
	resp, err = c.drain()
	return resp, true, err
}

// drain flushes the write buffer and reads the answer to every unanswered
// request, oldest first. It always consumes the whole burst, so requests and
// answers cannot fall out of step, and returns the last request's response
// (the zero Response if it could not be read) together with the first
// failure. Once the transport has failed, that failure is the answer to
// everything still waiting. A snapshot BEGIN's answer updates the view, and
// a read the session served a snapshot transaction joins it.
func (c *Conn) drain() (wire.Response, error) {
	var (
		resp  wire.Response
		first error
	)
	if c.dead == nil {
		if err := c.w.Flush(); err != nil {
			c.dead = fmt.Errorf("client: write: %w", err)
		}
	}
	for _, s := range c.ahead {
		resp = wire.Response{}
		err := c.dead
		if err == nil {
			resp, err = c.answer(s)
		}
		switch {
		case s.cmd == wire.CmdBegin:
			// BEGIN is the first request owed, but for answers a RunReadTx
			// left behind: its own failure is why no transaction opened.
			c.beginErr, c.begun, c.snapshot = err, true, err == nil && resp.Snapshot
			if c.snapshot {
				c.applyView(resp)
			}
		case s.key.obj != "" && err == nil && c.snapshot:
			c.keep(s.key, resp.Value)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	c.ahead = c.ahead[:0]
	return resp, first
}

// answer reads and checks the response to s.
func (c *Conn) answer(s sent) (wire.Response, error) {
	payload, err := wire.ReadFrame(c.r, c.rbuf)
	if err != nil {
		c.dead = fmt.Errorf("client: read %s response: %w", s.cmd, err)
		return wire.Response{}, c.dead
	}
	c.rbuf = payload
	resp, err := wire.ParseResponse(s.cmd, payload)
	if err != nil {
		return wire.Response{}, err
	}
	switch resp.Status {
	case wire.StatusOK:
		if s.name != "" && resp.Name != s.name {
			return resp, fmt.Errorf("client: server named the child %q, not %q", resp.Name, s.name)
		}
		if s.promised && resp.Value != s.value {
			return resp, fmt.Errorf("client: server answered ACCESS with %s, not the %s the client promised", resp.Value, s.value)
		}
		return resp, nil
	case wire.StatusTxAborted:
		c.held = c.held[:0]
		return resp, fmt.Errorf("%w: %s", ErrTxAborted, resp.Reason)
	case wire.StatusError:
		return resp, fmt.Errorf("client: server rejected %s: %s", s.cmd, resp.Reason)
	default:
		return resp, fmt.Errorf("client: unknown response status %d", uint8(resp.Status))
	}
}

// roundTrip sends q, with whatever was put ahead of it, and waits for its
// answer. An earlier request's failure is reported in place of q's own.
func (c *Conn) roundTrip(q wire.Request) (wire.Response, error) {
	if err := c.put(q, sent{}); err != nil {
		return wire.Response{}, err
	}
	return c.drain()
}

// Begin opens a top-level transaction and returns its label.
func (c *Conn) Begin() (string, error) {
	resp, err := c.roundTrip(wire.Request{Cmd: wire.CmdBegin})
	return resp.Name, err
}

// BeginRO opens a read-only top-level transaction. On a backend with a
// snapshot store (mvto) the transaction reads a consistent certified
// snapshot without taking locks and can never be aborted by the server; on
// other backends the server degrades it to an ordinary transaction, so
// callers must still be prepared for ErrTxAborted (RunReadTx is).
func (c *Conn) BeginRO() (string, error) {
	resp, err := c.roundTrip(wire.Request{Cmd: wire.CmdBegin, RO: true})
	return resp.Name, err
}

// Child opens a subtransaction of the current transaction.
func (c *Conn) Child() (string, error) {
	resp, err := c.roundTrip(wire.Request{Cmd: wire.CmdChild})
	return resp.Name, err
}

// Access performs one access (a leaf child of the current transaction) and
// returns its committed value. An ErrTxAborted-wrapped error means the
// server aborted the whole top-level transaction while the access waited.
// It is always a round trip: it answers nothing from the answers a RunTx
// attempt holds, though an update it makes drops those it may change.
func (c *Conn) Access(obj string, op spec.OpKind, arg spec.Value) (spec.Value, error) {
	var s sent
	if spec.ReadOnlyKind(op) {
		s.key = readKey{obj: obj, op: spec.Op{Kind: op, Arg: arg}}
	} else {
		c.forget(obj)
	}
	if err := c.put(wire.Request{Cmd: wire.CmdAccess, Obj: obj, Op: op, Arg: arg}, s); err != nil {
		return spec.Nil, err
	}
	resp, err := c.drain()
	return resp.Value, err
}

// Commit commits the current transaction and returns the log index of its
// COMMIT event. A nil error certifies that the server's SG(β) was acyclic
// on a prefix covering the commit.
func (c *Conn) Commit() (uint64, error) {
	resp, err := c.roundTrip(wire.Request{Cmd: wire.CmdCommit})
	return resp.Seq, err
}

// Abort aborts the current transaction. Whatever answers the running
// attempt held are dropped with it.
func (c *Conn) Abort() error {
	c.held = c.held[:0]
	_, err := c.roundTrip(wire.Request{Cmd: wire.CmdAbort})
	return err
}

// Verdict reports the server's live certification state.
func (c *Conn) Verdict() (wire.Verdict, error) {
	resp, err := c.roundTrip(wire.Request{Cmd: wire.CmdVerdict})
	return resp.Verdict, err
}

// Ping round-trips a no-op frame.
func (c *Conn) Ping() error {
	_, err := c.roundTrip(wire.Request{Cmd: wire.CmdPing})
	return err
}

// heldAnswer is one entry of the running attempt's table of held answers,
// each about obj. A read entry (update false) is the answer v the read-only
// op got. An update entry is the attempt's last own update of obj, op, and
// answers a read-only op with spec.AnswerAfter(op, read). An own update of
// obj drops every entry about obj and adds its own; a subtransaction's
// Abort, a server-side abort and the start of an attempt empty the table.
//
// An entry answers a repeat of its read, or a read after its update, with
// what the server must answer, or the attempt is aborted: a snapshot
// transaction reads the one cut its BEGIN pinned, which never changes; a
// locking transaction holds the lock its access took until it commits or
// aborts (Moss), or every operation granted since commutes backward with
// the attempt's own (undo logging); and strict mvto serves the attempt's
// later read the same version, or restarts it (THEORY.md).
type heldAnswer struct {
	readKey
	v      spec.Value
	update bool
}

// Tx is the in-transaction view passed to a RunTx body: the same cursor,
// minus Begin/Commit (the retry loop owns those). It tracks the nesting
// depth so the retry loop can unwind subtransactions the body left open.
type Tx struct {
	c     *Conn
	depth int
}

// Child opens a subtransaction and returns its name, which the client
// chooses: the parent names its child and moves on. The request travels with
// the body's next request that waits for its answer, where a refusal would
// surface; a nil error here only says the request was accepted for sending.
func (t *Tx) Child() (string, error) {
	c := t.c
	c.children++
	c.out = strconv.AppendUint(append(c.out[:0], 'k'), c.children, 10) // put re-uses the scratch
	name := string(c.out)
	if err := c.put(wire.Request{Cmd: wire.CmdChild, Named: true, N: c.children}, sent{name: name}); err != nil {
		return "", err
	}
	t.depth++
	return name, nil
}

// Access performs one access in the current transaction and returns its
// value. An op whose answer its type fixes (spec.FixedAnswer) returns that
// answer at once: the request travels with the body's next request that
// waits, the server's answer is checked against the promise then, and any
// failure — the transaction aborted by the server, an object that lacks the
// op — is reported there. A nil error from such an access says only that it
// was accepted for sending. So does a read-only op whose answer the attempt
// already holds (see heldAnswer): a repeat of a read it made, with the same
// object, op and argument, or a read its own update of the object answers
// (spec.AnswerAfter). It returns the held answer at once and is sent ahead
// with that answer as its promise, so the server still grants, logs and
// certifies it. In a snapshot transaction (see RunReadTx) a read whose key
// the connection's view holds returns its answer there and sends nothing.
// Any other op, and a request too big to wait in the write buffer, waits
// for its answer. Whatever is still owed stays owed until the next request
// that waits, or the COMMIT.
func (t *Tx) Access(obj string, op spec.OpKind, arg spec.Value) (spec.Value, error) {
	c, o := t.c, spec.Op{Kind: op, Arg: arg}
	v, fixed := spec.FixedAnswer(op)
	if fixed {
		c.updated(obj, o)
	} else {
		if c.ro && !c.begun && c.viewed(obj, o) >= 0 {
			// The copy answers at the last snapshot BEGIN's cut until this
			// attempt's BEGIN answer brings it to the attempt's own.
			if _, err := c.drain(); err != nil {
				return spec.Nil, err
			}
		}
		if c.snapshot {
			if i := c.viewed(obj, o); i >= 0 {
				return c.view[i].v, nil
			}
			return c.Access(obj, op, arg) // drain keeps the answer in the view
		}
		var held bool
		if v, held = c.lookup(obj, o); !held {
			return t.read(obj, o)
		}
	}
	resp, answered, err := c.putAhead(wire.Request{Cmd: wire.CmdAccess, Obj: obj, Op: op, Arg: arg}, sent{value: v, promised: true})
	if answered {
		return resp.Value, err
	}
	return v, nil
}

// read makes an access whose answer the attempt cannot give with a round
// trip, and holds the answer if the op is read-only and the transaction is
// not a snapshot one, whose reads drain keeps in the view instead.
func (t *Tx) read(obj string, o spec.Op) (spec.Value, error) {
	c := t.c
	v, err := c.Access(obj, o.Kind, o.Arg)
	if err == nil && !c.snapshot && spec.ReadOnlyKind(o.Kind) {
		c.held = append(c.held, heldAnswer{readKey: readKey{obj: obj, op: o}, v: v})
	}
	return v, err
}

// viewed returns the index of the read o of obj in the view, or -1.
//
//sgvet:hotpath
func (c *Conn) viewed(obj string, o spec.Op) int {
	for i := range c.view {
		if h := &c.view[i]; h.obj == obj && h.op == o {
			return i
		}
	}
	return -1
}

// keep puts the answer v to the read k, which the session served a snapshot
// transaction, in the view.
func (c *Conn) keep(k readKey, v spec.Value) {
	if i := c.viewed(k.obj, k.op); i >= 0 {
		c.view[i].v = v
	} else {
		c.view = append(c.view, heldAnswer{readKey: k, v: v})
	}
}

// applyView brings the view to the cut of the snapshot BEGIN whose answer
// resp is: it drops what the session dropped, then takes what it pushed.
func (c *Conn) applyView(resp wire.Response) {
	if resp.ViewReset {
		c.view = c.view[:0]
		return
	}
	r := wire.NewViewReader(resp.View)
	for e, ok := r.Next(); ok; e, ok = r.Next() {
		switch i := c.viewed(e.Obj, e.Op); {
		case i < 0: // a key the client did not keep
		case e.Push:
			c.view[i].v = e.Value
		default:
			c.view = slices.Delete(c.view, i, i+1)
		}
	}
}

// lookup returns the answer the attempt holds for the read-only op o on obj.
//
//sgvet:hotpath
func (c *Conn) lookup(obj string, o spec.Op) (spec.Value, bool) {
	for i := range c.held {
		h := &c.held[i]
		if h.obj != obj {
			continue
		}
		if h.update {
			if v, ok := spec.AnswerAfter(h.op, o); ok {
				return v, true
			}
		} else if h.op == o {
			return h.v, true
		}
	}
	return spec.Nil, false
}

// updated records the attempt's own update o of obj in the held answers.
func (c *Conn) updated(obj string, o spec.Op) {
	c.forget(obj)
	c.held = append(c.held, heldAnswer{readKey: readKey{obj: obj, op: o}, update: true})
}

// forget drops every held answer about obj.
func (c *Conn) forget(obj string) {
	kept := c.held[:0]
	for _, h := range c.held {
		if h.obj != obj {
			kept = append(kept, h)
		}
	}
	c.held = kept
}

// Commit commits the current subtransaction. It returns seq 0 and a nil
// error at once — the request travels with the body's next request that
// waits, where a failure would surface — since a subtransaction's COMMIT is
// its own output, not a question to its parent. Called with no
// subtransaction open it commits the top level and waits for the log index
// of its COMMIT event, leaving RunTx's own COMMIT to fail.
func (t *Tx) Commit() (uint64, error) {
	if t.depth == 0 {
		return t.c.Commit()
	}
	if err := t.c.put(wire.Request{Cmd: wire.CmdCommit}, sent{}); err != nil {
		return 0, err
	}
	t.depth--
	return 0, nil
}

// Abort aborts the current subtransaction.
func (t *Tx) Abort() error {
	err := t.c.Abort()
	if err == nil && t.depth > 0 {
		t.depth--
	}
	return err
}

// RunTx runs fn inside a top-level transaction, committing on nil return.
// When the server aborts the transaction (deadlock victim, lock timeout),
// RunTx backs off exponentially — 1ms doubling to 64ms — and retries, up to
// maxAttempts. Any other error from fn aborts the transaction and is
// returned as-is.
//
// BEGIN is sent with fn's first request that waits for its answer (or with
// the COMMIT of an fn that makes none), so fn starts before the server has
// seen it; so do Tx.Child, Tx.Access of a blind update or of a read whose
// answer the attempt holds, and a subtransaction's Tx.Commit (see the package
// comment). Each attempt starts with no answers held. If the server refuses
// BEGIN (draining, WAL failed), RunTx returns the server's refusal, whatever
// fn made of it.
// Before judging fn's error, or the subtransactions it left open, RunTx reads
// every answer still owed: a failure among them happened first and is
// returned in place of fn's own error. One that arrives with the top-level
// COMMIT, which the server applied all the same, wraps ErrCommittedAnyway.
func (c *Conn) RunTx(maxAttempts int, fn func(tx *Tx) error) error {
	return c.runTx(maxAttempts, false, fn)
}

// RunReadTx is RunTx for read-only transactions: it opens the top level
// with BeginRO, so on a snapshot-capable backend the body runs lock-free
// against a consistent certified snapshot. The retry loop is kept because
// backends without snapshots serve the transaction normally and may abort
// it like any other; their COMMIT carries the certifier's verdict, and
// RunReadTx waits for it. A snapshot transaction's COMMIT, whose answer
// carries nothing, is left to ride with the connection's next request (see
// the package comment), so the body's last read is its last round trip.
//
// A snapshot transaction asks for each read at most once: every read is
// answered from the state at the cut its BEGIN pinned, which nothing can
// change, and the connection's view, brought to that cut by the BEGIN's
// answer, answers every key it holds, a repeat of the attempt's own read
// among them, and sends nothing (see the package comment). A retry pins a
// new cut, and its BEGIN's answer brings the view to it. On a backend
// without snapshots every read is a logged access, and each is sent, a
// repeat ahead of its answer as in RunTx.
func (c *Conn) RunReadTx(maxAttempts int, fn func(tx *Tx) error) error {
	return c.runTx(maxAttempts, true, fn)
}

func (c *Conn) runTx(maxAttempts int, ro bool, fn func(tx *Tx) error) error {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	backoff := time.Millisecond
	var last error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > 64*time.Millisecond {
				backoff = 64 * time.Millisecond
			}
		}
		c.beginErr, c.begun, c.ro, c.snapshot, c.held = nil, false, ro, false, c.held[:0]
		if err := c.put(wire.Request{Cmd: wire.CmdBegin, RO: ro}, sent{}); err != nil {
			return err
		}
		tx := &Tx{c: c}
		err := fn(tx)
		if len(c.ahead) > 0 && (err != nil || tx.depth > 0) {
			// Every answer fn is owed comes in before fn is judged: a failure
			// among them came first. fn's own ErrTxAborted stands, since what
			// fn sent after it was answered "outside a transaction".
			if _, derr := c.drain(); derr != nil && !errors.Is(err, ErrTxAborted) {
				err = derr
			}
		}
		if c.beginErr != nil {
			// No transaction was opened: nothing to commit or unwind.
			return c.beginErr
		}
		if err == nil && tx.depth > 0 {
			err = fmt.Errorf("client: transaction body left %d subtransaction(s) open", tx.depth)
		}
		if _, access := c.Owed(); err == nil && ro && c.snapshot && !access {
			// Nothing the server could still refuse is owed — an ACCESS sent
			// ahead here is a blind update, which the snapshot refuses — and
			// a snapshot transaction's COMMIT is answered OK whatever
			// happens: it rides with the connection's next request.
			return c.put(wire.Request{Cmd: wire.CmdCommit}, sent{})
		}
		if err == nil {
			var resp wire.Response
			resp, err = c.roundTrip(wire.Request{Cmd: wire.CmdCommit})
			if err == nil {
				return nil
			}
			if errors.Is(err, ErrTxAborted) {
				last = err
				continue
			}
			if resp.Status == wire.StatusOK && resp.Seq > 0 {
				// A request that rode with the COMMIT failed; the COMMIT did not.
				return fmt.Errorf("%w (%w at log index %d)", err, ErrCommittedAnyway, resp.Seq)
			}
			// COMMIT always leaves the session idle (committed, aborted, or
			// rejected after the fact by the certifier) — nothing to clean up.
			return err
		}
		if errors.Is(err, ErrTxAborted) {
			// Session is already idle server-side; just retry.
			last = err
			continue
		}
		// Application error: unwind any subtransactions the body left open,
		// then the top level, and bail.
		for i := 0; i <= tx.depth; i++ {
			if aerr := c.Abort(); aerr != nil {
				if !errors.Is(aerr, ErrTxAborted) {
					return errors.Join(err, aerr)
				}
				break
			}
		}
		return err
	}
	return fmt.Errorf("client: transaction failed after %d attempts: %w", maxAttempts, last)
}

// Owed reports how many requests the connection has sent, or put in its
// write buffer, whose answers it has yet to read, and whether an ACCESS is
// among them. While a call waits for an answer, its own request is the last
// one owed. It only reads: a scheduler that runs the connection's calls on
// another goroutine may ask while that goroutine waits for its next call, or
// for an answer the server is holding back.
func (c *Conn) Owed() (n int, access bool) {
	for _, s := range c.ahead {
		access = access || s.cmd == wire.CmdAccess
	}
	return len(c.ahead), access
}

// Pool is a trivial free-list of connections to one server, for callers
// that multiplex many logical sessions over a bounded set of workers.
type Pool struct {
	addr string
	mu   sync.Mutex
	free []*Conn //sgvet:guardedby mu
}

// NewPool returns a pool dialing addr on demand.
func NewPool(addr string) *Pool { return &Pool{addr: addr} }

// Get returns a pooled connection or dials a fresh one. A pooled
// connection is health-checked with a Ping first, so a connection the
// server dropped while it sat in the free list (restart, drain, frame
// error) is discarded instead of handed out. The Ping also reads whatever a
// RunReadTx left owed on the connection.
func (p *Pool) Get() (*Conn, error) {
	for {
		p.mu.Lock()
		n := len(p.free)
		if n == 0 {
			p.mu.Unlock()
			return Dial(p.addr)
		}
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		if err := c.Ping(); err == nil {
			return c, nil
		}
		c.Close()
	}
}

// Put returns a connection to the pool. Only idle connections (no open
// transaction) may be returned; a broken connection is closed instead of
// pooled.
func (p *Pool) Put(c *Conn) {
	if c.Broken() {
		c.Close()
		return
	}
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// Close closes every pooled connection.
func (p *Pool) Close() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, c := range free {
		c.Close()
	}
}
