package engine

import (
	"fmt"

	"mobiledist/internal/sim"
)

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
//   - A record scheduled through TransmitRec / AfterRec is owned by the
//     substrate until it hands the record to the bound RecSink, the engine.
//   - StepRec runs the record's op and then ALWAYS frees it. An op that
//     needs to park further work (the in-transit waiter queues) allocates a
//     fresh record from the pool; records are never re-armed.
//   - Under a Weather, transmit frees a record destroyed in flight, clones
//     one duplicated in flight (each copy is stepped and freed on its own),
//     and StepRec frees a record discarded at its receiver without running
//     it. No record leaves the engine except into the substrate.
//   - freeRec never follows rec.inner: an ARQ data frame's payload record
//     is owned by the ARQ sender queue until the frame is acked (see
//     arq.go), so dropping an air copy must not free the payload.
//   - A timer (Context.After, Context.AfterDaemon) is an opTimer record:
//     a message the algorithm sends itself (opts.alg, msg), scheduled
//     through AfterRec like any other deferred work, counted by LiveRecs
//     until it fires, and handed to the algorithm's TimerHandler then.
//     Like every other record it is plain data.
//   - A planned crash or restart is an opCrash record (mss, restart=flag)
//     that AfterCrash schedules with AfterRec at the Weather's request;
//     stepping it notifies the CrashObservers or RestartObservers.
//   - The daemon flag (Daemon) marks a timer as standing maintenance: the
//     live host's due queue does not count it as an outstanding operation,
//     so it cannot hold WaitIdle open.
//
// The free list is intrusive (the next field), single-threaded like the
// rest of the engine, and never shrinks; steady-state routing allocates no
// records at all. It grows by slabs (growRecs), not one record at a time.

// recOp selects the runRec branch a DeliveryRec executes.
type recOp uint8

const (
	opInvalid recOp = iota

	// Routing (routing.go).
	opDispatchMSS   // run the MSS handler: alg=opts.alg, at=mss, msg, from mss2 (mh2 if flag)
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

	// Timers (context.go).
	opTimer // HandleTimer(opts.alg, msg) on the execution context (daemon timer=flag)

	// Fault-plan instants (AfterCrash).
	opCrash // mss crashed (restarted if flag): notifyCrash
)

// DeliveryRec is one unit of in-flight engine work (see the package comment
// above). The struct is exported so substrates can carry *DeliveryRec, but
// its state is opaque outside the engine except for Daemon.
//
// Layout (DESIGN §7.2): 128 bytes, one 128-aligned size class, so a record
// is exactly two cache lines. Hot fields come first — what every routing op
// reads (op, ids, opts, msg) and the pool link — and the ARQ, timer and
// fault fields last. A new field goes into an existing one's slot or
// after the rest; TestDeliveryRecLayout fails if the record outgrows 128.
type DeliveryRec struct {
	op    recOp
	stale bool
	flag  bool  // op-specific; opDispatchMSS: the sender is mh2, not mss2
	tag   int32 // per-channel transmission index under a Weather
	mh    MHID
	mh2   MHID
	mss   MSSID
	mss2  MSSID
	opts  routeOpts
	msg   Message
	next  *DeliveryRec
	// ch, ackCh and onCh are flat channel ids, which reach M*M+M*N+N (~10^10
	// at M=10^4/N=10^6): full ints, never narrowed.
	onCh  int // transmit channel under a Weather; -1 off-channel
	ch    int
	ackCh int
	seq   uint64
	inner *DeliveryRec // ARQ data frame's payload; owned by the sender queue
	spare [8]byte      // unused: keeps the record at 128 bytes (DESIGN §7.2, Layout)
}

// Daemon reports whether the record is a daemon timer (Context.AfterDaemon):
// a live substrate's AfterRec must not count it as an outstanding operation
// while it is armed.
func (r *DeliveryRec) Daemon() bool { return r.op == opTimer && r.flag }

// RecSink executes and recycles delivery records. The engine implements it;
// substrates receive it through Substrate.BindRecSink.
type RecSink interface {
	// StepRec runs the record's operation, then frees it.
	StepRec(rec *DeliveryRec)
}

var _ RecSink = (*Engine)(nil)

// Slab lengths, in 128-byte values, of the record pool and the waiter
// blocks: the first slab is 32 KB and each next one doubles, up to 256 KB.
// A slab holds pointers, so between 512 B and 32 KB the allocator puts an
// 8-byte header in front of it and its values would start 8 bytes past a
// 128-byte boundary; from 32 KB up a slab is a large object, page-aligned,
// and each value in it spans exactly two cache lines (DESIGN §7.2, Layout;
// TestDeliveryRecLayout pins the sizes and the alignment).
const (
	slabMin = 256
	slabMax = 2048
)

// nextSlab returns the length of the slab that follows one of length cur
// (0 before the first).
func nextSlab(cur int) int { return min(max(2*cur, slabMin), slabMax) }

// newRec takes a record from the free list (growing the pool when it is
// empty) and resets it to op with no transmit channel.
func (e *Engine) newRec(op recOp) *DeliveryRec {
	if e.recFree == nil {
		e.growRecs()
	}
	r := e.recFree
	e.recFree = r.next
	r.next = nil
	e.recLive++
	r.op = op
	r.onCh = -1
	return r
}

// growRecs allocates the next slab and threads its records onto the free
// list in address order.
func (e *Engine) growRecs() {
	e.recSlab = nextSlab(e.recSlab)
	slab := make([]DeliveryRec, e.recSlab)
	for i := range slab[:len(slab)-1] {
		slab[i].next = &slab[i+1]
	}
	e.recFree = &slab[0]
}

// freeRec returns rec to the pool, clearing every field so no message or
// payload reference outlives the record. It never frees rec.inner (owned by
// the ARQ sender queue).
func (e *Engine) freeRec(rec *DeliveryRec) {
	*rec = DeliveryRec{next: e.recFree}
	e.recFree = rec
	e.recLive--
}

// cloneRec returns a pooled copy of rec.
func (e *Engine) cloneRec(rec *DeliveryRec) *DeliveryRec {
	c := e.newRec(rec.op)
	next := c.next
	*c = *rec
	c.next = next
	return c
}

// timerRec returns a pooled timer record carrying msg back to alg; it panics
// at once, naming alg, if alg has no TimerHandler to take msg when it fires.
func (e *Engine) timerRec(alg int32, msg Message, daemon bool) *DeliveryRec {
	if _, ok := e.algs[alg].(TimerHandler); !ok {
		panic(fmt.Sprintf("engine: algorithm %q armed a timer without TimerHandler", e.algs[alg].Name()))
	}
	r := e.newRec(opTimer)
	r.opts.alg = alg
	r.msg = msg
	r.flag = daemon
	return r
}

// CrashRec returns a pooled record announcing mss's crash or restart: plain
// data, which the live drivers' tests also carry as probe records.
func (e *Engine) CrashRec(mss MSSID, restart bool) *DeliveryRec {
	r := e.newRec(opCrash)
	r.mss = mss
	r.flag = restart
	return r
}

// AfterCrash implements PlanClock: it schedules a CrashRec d ticks from now.
func (e *Engine) AfterCrash(d sim.Time, mss MSSID, restart bool) {
	e.sub.AfterRec(d, e.CrashRec(mss, restart))
}

// Now implements PlanClock: the substrate's virtual time.
func (e *Engine) Now() sim.Time { return e.sub.Now() }

// LiveRecs reports the number of records currently checked out of the pool:
// in flight in a substrate, armed as timers, queued as waiters, or held by
// the ARQ sender queues. A quiesced fault-free system holds zero; the
// pool-recycling test asserts the same after a chaos plan.
func (e *Engine) LiveRecs() int { return e.recLive }

// StepRec runs rec's operation and frees it. Under a Weather, a record that
// landed off a channel runs only if the weather does not discard it at its
// receiver.
func (e *Engine) StepRec(rec *DeliveryRec) {
	if e.weather == nil || rec.onCh < 0 || !e.weather.Discard(rec.onCh, rec.tag) {
		e.runRec(rec)
	}
	e.freeRec(rec)
}

// runRec is the delivery interpreter: the bodies of what used to be the
// continuation closures in routing.go, arq.go and mobility.go. Ops that
// continue the chain allocate fresh records; rec itself is never re-armed
// (StepRec frees it on return).
func (e *Engine) runRec(rec *DeliveryRec) {
	switch rec.op {
	case opDispatchMSS:
		e.dispatchMSS(rec.opts.alg, rec.mss, From{MSS: rec.mss2, MH: rec.mh2, IsMH: rec.flag}, rec.msg)

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
		e.algs[rec.opts.alg].(TimerHandler).HandleTimer(e.ctxs[rec.opts.alg], rec.msg)

	case opCrash:
		e.notifyCrash(rec.mss, rec.flag)

	default:
		panic(fmt.Sprintf("engine: delivery record with invalid op %d", int(rec.op)))
	}
}
