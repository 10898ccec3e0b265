package engine

import "fmt"

// Delivery records: the engine's in-flight work, as data.
//
// Every message crossing the Transmit seam used to be a heap-allocated
// continuation closure (`deliver func()`); at N=10^6 hosts those closures
// were ~60% of all allocated bytes. A DeliveryRec replaces the closure with
// a pooled value-typed record — an op code plus the fields the continuation
// would have captured — interpreted by the engine's runRec switch. Like the
// paper's handoff protocol, which transfers explicit per-MH state between
// MSSs instead of suspended computation, the delivery chain is explicit
// transferable state.
//
// Ownership rules:
//
//   - A record scheduled through TransmitRec / AfterRec / EnqueueRec is
//     owned by the substrate until it hands the record to the bound RecSink.
//   - RecSink.StepRec runs the record's op and then ALWAYS frees it. An op
//     that needs to park further work (the in-transit waiter queues)
//     allocates a fresh record from the pool; records are never re-armed.
//   - A substrate wrapper that destroys a transmission in flight (the fault
//     injector's drop, dark-link and crashed-station paths) must call
//     RecSink.FreeRec instead of silently discarding the record, returning
//     it to the pool unexecuted.
//   - RecSink.CloneRec allocates a pooled copy for wrappers that duplicate
//     a transmission; each copy is stepped and freed independently.
//   - FreeRec never follows rec.inner: an ARQ data frame's payload record
//     is owned by the ARQ sender queue until the frame is acked (see
//     arq.go), so dropping an air copy must not free the payload.
//   - A timer (Context.After, Context.AfterDaemon, fault-plan arming) is an
//     opTimer record carrying its callback, scheduled through AfterRec like
//     any other deferred work and counted by LiveRecs until it fires. It is
//     the one record whose state is not plain data: the callback is the
//     algorithm's, not the engine's. Wrappers outside the engine obtain one
//     from RecSink.TimerRec.
//   - The daemon flag (Daemon) marks a timer as standing maintenance: live
//     substrates' AfterRec does not count an armed daemon record as an
//     outstanding operation, so it cannot hold WaitIdle open.
//
// The free list is intrusive (the next field), single-threaded like the
// rest of the engine, and never shrinks; steady-state routing allocates no
// records at all.

// recOp selects the runRec branch a DeliveryRec executes.
type recOp uint8

const (
	opInvalid recOp = iota

	// Routing (routing.go).
	opDispatchMSS   // run the MSS handler: alg=opts.alg, at=mss, from, msg
	opRouteArrive   // routed message reached mss over a wired hop: re-check and deliver or chase
	opRouteResume   // waiter: resume routeToMH(mss, mh, msg, opts, stale)
	opDownArrive    // wireless downlink completed at (mss, mh): prefix-rule delivery
	opNotifyFailure // failure notification reached the origin: mss=origin
	opSendFromMH    // waiter: replay sendFromMH(opts.alg, mh, msg, opts.cat)
	opUpForwardVia  // uplink completed: forwardViaMSS(opts.origin, mss, mh, msg, opts)
	opSendMHViaMSS  // waiter: replay sendMHViaMSS(opts.alg, mh, mss, mh2, msg, opts.cat)
	opSendMHToMH    // waiter: replay sendMHToMH(opts.alg, mh, mh2, msg, opts.cat)
	opUpRoute       // uplink completed: routeToMH(mss, mh, msg, opts, false)

	// Mobility (mobility.go).
	opLeave           // leave(r) reached the old cell: mh leaves mss for mss2
	opCompleteJoin    // travel done: join in cell mss (prev mss2, wasDisconnected=flag)
	opJoin            // join(mh, prev) reached the new cell
	opDisconnect      // disconnect(r) reached the cell mss
	opReconnect       // reconnect(mh, prev) reached the new cell (knowsPrev=flag)
	opReconnectLocate // locate done: send the handoff request from mss to mss2
	opHandoffReq      // handoff request reached the previous cell mss2
	opHandoffReply    // handoff reply reached the new cell mss

	// Reliable wireless (arq.go).
	opArqData    // data frame survived channel ch: recvData(ch, ackCh, seq, inner)
	opArqAck     // ack for seq came back: recvAck(ch, seq)
	opArqTimeout // ack timer fired: timeout(ch, gen=seq)

	// Timers (context.go; fault-plan arming via RecSink.TimerRec).
	opTimer // run fn on the execution context (daemon timer=flag)
)

// DeliveryRec is one unit of in-flight engine work (see the package comment
// above). The struct is exported so substrates can carry *DeliveryRec, but
// its state is opaque outside the engine except for the channel and tag
// accessors used by transport-level tooling.
type DeliveryRec struct {
	op    recOp
	stale bool
	flag  bool
	mh    MHID
	mh2   MHID
	mss   MSSID
	mss2  MSSID
	from  From
	msg   Message
	opts  routeOpts
	seq   uint64
	// ch, ackCh and onCh are flat channel ids, which reach M*M+M*N+N (~10^10
	// at M=10^4/N=10^6): full ints, never narrowed.
	ch    int
	ackCh int
	onCh  int   // transmit channel, stamped by the outermost wrapper; -1 off-channel
	tag   int32 // wrapper-private cookie (the fault injector's trace index)
	next  *DeliveryRec
	inner *DeliveryRec // ARQ data frame's payload; owned by the sender queue
	fn    func()       // opTimer's callback
}

// Chan returns the flat channel id the record was transmitted on, or -1 for
// records scheduled off-channel (AfterRec/EnqueueRec). Substrate wrappers
// use it to classify a record at delivery time (ChannelLayout.Decode).
func (r *DeliveryRec) Chan() int { return r.onCh }

// SetChan stamps the transmit channel; called by the outermost wrapper's
// TransmitRec (and by off-channel paths with -1).
func (r *DeliveryRec) SetChan(ch int) { r.onCh = ch }

// Tag returns the wrapper-private cookie set by SetTag.
func (r *DeliveryRec) Tag() int32 { return r.tag }

// SetTag attaches a wrapper-private cookie to the record (the fault
// injector stores its per-channel trace index so a discard at delivery time
// can amend the transmit-time trace entry).
func (r *DeliveryRec) SetTag(v int32) { r.tag = v }

// Daemon reports whether the record is a daemon timer (Context.AfterDaemon):
// a live substrate's AfterRec must not count it as an outstanding operation
// while it is armed.
func (r *DeliveryRec) Daemon() bool { return r.op == opTimer && r.flag }

// RecSink executes and recycles delivery records. The engine implements it;
// substrates receive it through Substrate.BindRecSink, and a fault-injecting
// wrapper may interpose its own sink to discard records at delivery time.
type RecSink interface {
	// StepRec runs the record's operation, then frees it.
	StepRec(rec *DeliveryRec)
	// FreeRec returns an unexecuted record to the pool (a transmission
	// destroyed in flight).
	FreeRec(rec *DeliveryRec)
	// CloneRec allocates a pooled copy of rec (a transmission duplicated in
	// flight). Each copy is stepped or freed independently.
	CloneRec(rec *DeliveryRec) *DeliveryRec
	// TimerRec allocates a pooled timer record that runs fn when stepped;
	// the caller schedules it with Substrate.AfterRec (fault-plan arming).
	TimerRec(fn func()) *DeliveryRec
}

var _ RecSink = (*Engine)(nil)

// newRec takes a record from the free list (or allocates one) and resets it
// to op with no transmit channel.
func (e *Engine) newRec(op recOp) *DeliveryRec {
	r := e.recFree
	if r == nil {
		r = &DeliveryRec{}
	} else {
		e.recFree = r.next
		r.next = nil
	}
	e.recLive++
	r.op = op
	r.onCh = -1
	return r
}

// FreeRec returns rec to the pool, clearing every field so no message or
// payload reference outlives the record. It never frees rec.inner (owned by
// the ARQ sender queue).
func (e *Engine) FreeRec(rec *DeliveryRec) {
	if rec == nil {
		return
	}
	*rec = DeliveryRec{next: e.recFree}
	e.recFree = rec
	e.recLive--
}

// CloneRec returns a pooled copy of rec.
func (e *Engine) CloneRec(rec *DeliveryRec) *DeliveryRec {
	c := e.newRec(rec.op)
	next := c.next
	*c = *rec
	c.next = next
	return c
}

// TimerRec returns a pooled non-daemon timer record running fn.
func (e *Engine) TimerRec(fn func()) *DeliveryRec {
	r := e.newRec(opTimer)
	r.fn = fn
	return r
}

// LiveRecs reports the number of records currently checked out of the pool:
// in flight in a substrate, armed as timers, queued as waiters, or held by
// the ARQ sender queues. A quiesced fault-free system holds zero; the
// pool-recycling test asserts the same after a chaos plan.
func (e *Engine) LiveRecs() int { return e.recLive }

// StepRec runs rec's operation and frees it.
func (e *Engine) StepRec(rec *DeliveryRec) {
	e.runRec(rec)
	e.FreeRec(rec)
}

// runRec is the delivery interpreter: the bodies of what used to be the
// continuation closures in routing.go, arq.go and mobility.go. Ops that
// continue the chain allocate fresh records; rec itself is never re-armed
// (StepRec frees it on return).
func (e *Engine) runRec(rec *DeliveryRec) {
	switch rec.op {
	case opDispatchMSS:
		e.dispatchMSS(rec.opts.alg, rec.mss, rec.from, rec.msg)

	case opRouteArrive:
		// Re-check on arrival: the MH may have moved on while the message
		// crossed the wired network.
		cur := &e.mh[rec.mh]
		switch {
		case cur.status != StatusConnected || cur.at != rec.mss:
			e.stats.StaleReroutes++
			e.routeToMH(rec.mss, rec.mh, rec.msg, rec.opts, true)
		case rec.opts.toMSS:
			e.dispatchMSS(rec.opts.alg, rec.mss, From{MSS: rec.opts.origin}, rec.msg)
		default:
			e.wirelessDown(rec.mss, rec.mh, rec.msg, rec.opts)
		}

	case opRouteResume:
		e.routeToMH(rec.mss, rec.mh, rec.msg, rec.opts, rec.stale)

	case opDownArrive:
		e.downArrive(rec)

	case opNotifyFailure:
		// The pair sequence slot was already tombstoned at send time
		// (the origin may be crashed and this record discarded in
		// flight); only the origin-side failure callback remains here.
		e.notifyFailure(rec.opts.alg, rec.mss, rec.mh, rec.msg, FailDisconnected)

	case opSendFromMH:
		if err := e.sendFromMH(rec.opts.alg, rec.mh, rec.msg, rec.opts.cat); err != nil {
			// The MH disconnected before the deferred send could run, so
			// the transmission never happened. The loss is counted in
			// FailedDeliveries rather than silently swallowed; no
			// DeliveryFailureHandler fires because there is no origin MSS
			// to notify — the message never left the MH.
			e.stats.FailedDeliveries++
		}

	case opUpForwardVia:
		// One fixed hop to the directory's MSS, charged even when the
		// sender's own MSS is the target.
		e.forwardViaMSS(rec.opts.origin, rec.mss, rec.mh, rec.msg, rec.opts)

	case opSendMHViaMSS:
		_ = e.sendMHViaMSS(rec.opts.alg, rec.mh, rec.mss, rec.mh2, rec.msg, rec.opts.cat)

	case opSendMHToMH:
		_ = e.sendMHToMH(rec.opts.alg, rec.mh, rec.mh2, rec.msg, rec.opts.cat)

	case opUpRoute:
		// The message was transmitted before any subsequent leave(), so
		// routing starts from the cell it was sent in.
		e.routeToMH(rec.mss, rec.mh, rec.msg, rec.opts, false)

	case opLeave:
		e.leaveArrive(rec.mh, rec.mss, rec.mss2)
	case opCompleteJoin:
		e.completeJoin(rec.mh, rec.mss, rec.mss2, rec.flag)
	case opJoin:
		e.joinArrive(rec.mh, rec.mss, rec.mss2, rec.flag)
	case opDisconnect:
		e.disconnectArrive(rec.mh, rec.mss)
	case opReconnect:
		e.reconnectArrive(rec.mh, rec.mss, rec.mss2, rec.flag)
	case opReconnectLocate:
		e.reconnectLocate(rec.mh, rec.mss, rec.mss2)
	case opHandoffReq:
		e.handoffReqArrive(rec.mh, rec.mss, rec.mss2)
	case opHandoffReply:
		e.handoffReplyArrive(rec.mh, rec.mss, rec.mss2)

	case opArqData:
		e.arq.recvData(rec.ch, rec.ackCh, rec.seq, rec.inner)
	case opArqAck:
		e.arq.recvAck(rec.ch, rec.seq)
	case opArqTimeout:
		e.arq.timeout(rec.ch, rec.seq)

	case opTimer:
		rec.fn()

	default:
		panic(fmt.Sprintf("engine: delivery record with invalid op %d", int(rec.op)))
	}
}
