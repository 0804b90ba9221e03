package ctrlplane

import (
	"fmt"

	"microp4/internal/sim"
	"microp4/internal/trace"
)

// TxnOp is one operation of a transaction plan: an op (OpAddEntry,
// OpSetDefault, OpClearTable, or OpSetMulticast) destined for one
// peer. Session, Seq, and Txn are assigned by the client.
type TxnOp struct {
	Peer string
	Op   CtrlOp
}

// TxnResult reports a transaction's outcome. Committed means every
// participant durably applied the batch — except peers listed in
// PeerErrs with an ErrUnreachable during the commit phase, which are
// in doubt (they prepared, and will commit if the channel heals; the
// classic 2PC limitation, surfaced honestly instead of hidden).
// A non-committed result is a rollback: every participant the abort
// reached retains none of the batch; a participant unreachable even by
// the abort is listed in PeerErrs and may hold prepared state.
type TxnResult struct {
	Txn       uint64
	Committed bool
	// PeerErrs records per-peer failures: a staged op's rejection, a
	// failed prepare, or exhausted retries, keyed by peer name.
	PeerErrs map[string]error
}

// Err summarizes the result as an error (nil on a clean commit).
func (r TxnResult) Err() error {
	if r.Committed && len(r.PeerErrs) == 0 {
		return nil
	}
	if r.Committed {
		return fmt.Errorf("ctrlplane: txn %d committed with %d peers in doubt", r.Txn, len(r.PeerErrs))
	}
	return fmt.Errorf("ctrlplane: txn %d aborted (%d peer errors)", r.Txn, len(r.PeerErrs))
}

// Transaction runs a multi-switch atomic batch over two-phase commit:
// every op is staged on its peer (validated on receipt, applied later),
// then each participant prepares (checkpoint + apply), and only when
// every participant has prepared does the coordinator commit; any
// rejection or unreachable peer before that point aborts everywhere,
// restoring the checkpoints. done fires during the network run.
//
// Each phase's messages ride the same lossy links as everything else —
// staging, prepare, commit, and abort are all individually retried,
// idempotent (agent-side dedup), and breaker-gated.
func (c *Client) Transaction(ops []TxnOp, done func(TxnResult)) error {
	if done == nil {
		done = func(TxnResult) {}
	}
	c.nextTxn++
	t := &txnCoord{
		c:    c,
		id:   c.nextTxn,
		ops:  ops,
		errs: make(map[string]error),
		done: done,
	}
	if c.tracer != nil {
		tid := c.tracer.NextID()
		t.root = &trace.Span{
			TraceID: tid, SpanID: tid, Kind: "txn",
			Name:  fmt.Sprintf("%s txn %d", c.name, t.id),
			Start: c.n.Now(), End: c.n.Now(),
		}
		c.tracer.Record(t.root)
	}
	// Participants in first-appearance order: deterministic iteration
	// for every later phase.
	seen := make(map[string]bool)
	for _, op := range ops {
		if c.peers[op.Peer] == nil {
			return fmt.Errorf("ctrlplane: txn references unknown peer %q", op.Peer)
		}
		if !seen[op.Peer] {
			seen[op.Peer] = true
			t.peers = append(t.peers, op.Peer)
		}
	}
	if len(ops) == 0 {
		t.finish("committed", "empty transaction")
		done(TxnResult{Txn: t.id, Committed: true, PeerErrs: t.errs})
		return nil
	}
	c.event("txn-stage", fmt.Sprintf("txn %d: %d ops across %d peers", t.id, len(ops), len(t.peers)))
	t.stage()
	return nil
}

// txnCoord is the coordinator state machine for one transaction.
type txnCoord struct {
	c       *Client
	id      uint64
	ops     []TxnOp
	peers   []string // participants, first-appearance order
	pending int
	doomed  bool
	errs    map[string]error
	done    func(TxnResult)
	root    *trace.Span // the transaction's trace root (nil when untraced)
}

// startPhase opens a 2PC phase span under the transaction root and
// points the client's current-span at it, so every Do the caller issues
// next reports its send/retry/timeout/breaker lifecycle to this phase.
// The caller must clear c.curSpan (endPhase) once its sends are issued;
// late events still reach the span through the calls that captured it.
func (t *txnCoord) startPhase(name string) {
	if t.root == nil {
		return
	}
	now := t.c.n.Now()
	sp := &trace.Span{
		TraceID: t.root.TraceID, SpanID: t.c.tracer.NextID(), ParentID: t.root.SpanID,
		Kind: "txn", Name: name, Start: now, End: now,
	}
	t.c.tracer.Record(sp)
	t.c.curSpan = sp
}

// endPhase stops attributing new Do calls to the current phase span.
func (t *txnCoord) endPhase() {
	if t.root != nil {
		t.c.curSpan = nil
	}
}

// finish closes the root span with the transaction's outcome.
func (t *txnCoord) finish(outcome, detail string) {
	if t.root == nil {
		return
	}
	now := t.c.n.Now()
	t.root.Event(now, outcome, detail)
	t.root.End = now
	if outcome == "aborted" {
		t.root.Err = detail
	}
}

// fail records a peer failure (first error per peer wins) and dooms
// the transaction.
func (t *txnCoord) fail(peer string, err error) {
	t.doomed = true
	if _, dup := t.errs[peer]; !dup {
		t.errs[peer] = err
	}
}

// stage sends every op with the transaction tag; agents validate and
// buffer them. All ops are pipelined at once — ordering is recovered
// agent-side by client sequence number at prepare.
func (t *txnCoord) stage() {
	t.startPhase("stage")
	defer t.endPhase()
	t.pending = len(t.ops)
	for _, op := range t.ops {
		peerName := op.Peer
		wire := op.Op
		wire.Txn = t.id
		_ = t.c.Do(peerName, wire, func(rep *CtrlReply, err error) {
			if err != nil {
				t.fail(peerName, err)
			} else if rep.Status == StatusRejected {
				t.fail(peerName, replyError(rep))
			}
			t.pending--
			if t.pending == 0 {
				if t.doomed {
					t.abort()
				} else {
					t.prepare()
				}
			}
		})
	}
}

// prepare asks every participant to checkpoint and apply its batch.
func (t *txnCoord) prepare() {
	t.c.event("txn-prepare", fmt.Sprintf("txn %d", t.id))
	t.startPhase("prepare")
	defer t.endPhase()
	t.pending = len(t.peers)
	for _, peerName := range t.peers {
		peerName := peerName
		_ = t.c.Do(peerName, CtrlOp{Kind: OpPrepare, Txn: t.id}, func(rep *CtrlReply, err error) {
			if err != nil {
				t.fail(peerName, err)
			} else if rep.Status == StatusRejected {
				t.fail(peerName, replyError(rep))
			}
			t.pending--
			if t.pending == 0 {
				if t.doomed {
					t.abort()
				} else {
					t.commit()
				}
			}
		})
	}
}

// commit finalizes on every participant. A peer unreachable here is in
// doubt: it has prepared and its agent will hold the applied state; the
// result says so rather than pretending otherwise.
func (t *txnCoord) commit() {
	t.startPhase("commit")
	defer t.endPhase()
	t.pending = len(t.peers)
	for _, peerName := range t.peers {
		peerName := peerName
		_ = t.c.Do(peerName, CtrlOp{Kind: OpCommit, Txn: t.id}, func(rep *CtrlReply, err error) {
			if err != nil {
				t.fail(peerName, err)
			} else if rep.Status == StatusRejected {
				t.fail(peerName, replyError(rep))
			}
			t.pending--
			if t.pending == 0 {
				t.c.cfg.Metrics.txnCommit()
				t.c.event("txn-commit", fmt.Sprintf("txn %d (%d peer errors)", t.id, len(t.errs)))
				t.finish("committed", fmt.Sprintf("%d peer errors", len(t.errs)))
				t.done(TxnResult{Txn: t.id, Committed: true, PeerErrs: t.errs})
			}
		})
	}
}

// abort rolls back every participant (restore checkpoint, discard
// staged ops). Abort is agent-side idempotent and always succeeds when
// it arrives; a peer unreachable even by the abort is recorded in
// PeerErrs — it usually holds only staged-but-unapplied ops, but may
// hold prepared state when its prepare reply (rather than the prepare
// itself) was what kept getting lost.
func (t *txnCoord) abort() {
	t.startPhase("abort")
	defer t.endPhase()
	t.pending = len(t.peers)
	for _, peerName := range t.peers {
		peerName := peerName
		_ = t.c.Do(peerName, CtrlOp{Kind: OpAbort, Txn: t.id}, func(rep *CtrlReply, err error) {
			if err != nil {
				t.fail(peerName, err)
			}
			t.pending--
			if t.pending == 0 {
				t.c.cfg.Metrics.txnAbort()
				t.c.event("txn-abort", fmt.Sprintf("txn %d (%d peer errors)", t.id, len(t.errs)))
				t.finish("aborted", fmt.Sprintf("%d peer errors", len(t.errs)))
				t.done(TxnResult{Txn: t.id, Committed: false, PeerErrs: t.errs})
			}
		})
	}
}

// replyError converts a rejection reply into a *sim.ControlError.
func replyError(rep *CtrlReply) error {
	return &sim.ControlError{Op: "txn", Kind: rep.Class, Reason: rep.Reason}
}
