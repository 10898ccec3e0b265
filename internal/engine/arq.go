package engine

import (
	"mobiledist/internal/obs"
	"mobiledist/internal/sim"
)

// The reliable-wireless sublayer: a per-channel stop-and-wait ARQ that sits
// between the engine's wireless sends (transmitDown / transmitUp) and the
// substrate's raw FIFO transport. The paper's model assumes lossless FIFO
// wireless channels; when the substrate underneath actually drops,
// duplicates, or reorders frames (internal/faults), this layer restores
// exactly those semantics so every algorithm above is untouched:
//
//   - each logical message becomes a data frame carrying a per-channel
//     sequence number; the sender holds frame k+1 until frame k is acked;
//   - a receiver delivers frame k exactly when k is the next expected
//     sequence number, acks it on the reverse wireless channel, and re-acks
//     (without redelivering) duplicates of already-accepted frames;
//   - an unacked frame is retransmitted on an ack timeout, with the timeout
//     doubling per retry up to a cap and resetting on progress.
//
// Stop-and-wait (window of one) keeps per-channel order trivially: a frame
// cannot overtake its predecessor because the predecessor's ack gates it.
// Acks themselves are not acknowledged — a lost ack causes a retransmission
// that the receiver dedups and re-acks.
//
// Retransmissions and acks are control traffic of the network layer: they
// are counted in Stats (Retransmits, DuplicatesSuppressed) but charged to
// no cost category, so the paper's Table-2-style algorithm costs stay
// comparable across fault plans. Against a link that stays dark forever the
// sender retransmits indefinitely (the model has no notion of giving up on
// a connected MH); fault plans use finite flap windows and restart times.
//
// Wired MSS-to-MSS channels bypass this layer entirely: the model keeps
// them lossless, and the fault injector only discards wired traffic at a
// crashed station, which is a station failure, not a link failure.

// arqFrame is one logical message queued on a wireless channel. The ack
// channel is captured at send time: for a downlink it is the MH's uplink;
// for an uplink it is the downlink of the cell the MH occupied when it
// sent (acks are network-layer control and not subject to presence
// semantics, so a stale cell still acks correctly).
//
// Record ownership: rec is the payload delivery record. The sender queue
// owns it from send() until recvAck pops the frame and frees it; the
// receiver runs it (runRec, no free) on first acceptance. Air copies
// (opArqData), acks (opArqAck) and ack timers (opArqTimeout) are fresh
// records per transmission attempt, freed by StepRec like any other; a
// dropped or duplicated air copy therefore never touches the payload's
// lifetime, which is what makes retransmission safe under pooling.
type arqFrame struct {
	seq   uint64
	ackCh int
	rec   *DeliveryRec
}

// arqChan is the sender and receiver state of one wireless channel.
// A channel carries data in exactly one direction, so one struct holds
// both ends without confusion: sender fields are used by the transmitting
// engine side, recvNext by the delivering side.
type arqChan struct {
	// Sender side.
	sendNext    uint64
	queue       []arqFrame // queue[0] is in flight iff outstanding
	outstanding bool
	rto         sim.Time
	retries     int32  // retransmissions of the current in-flight frame
	timerGen    uint64 // invalidates stale ack timers
	// Receiver side.
	recvNext uint64
}

type arq struct {
	e      *Engine
	chans  *ChanTable[*arqChan] // entries nil until first use
	rto0   sim.Time
	rtoMax sim.Time
}

func newARQ(e *Engine) *arq {
	// Data frame out plus ack back, both at maximum latency, plus slack for
	// same-instant scheduling.
	rto := 2*e.cfg.Wireless.Max + 4
	return &arq{
		e:      e,
		chans:  NewChanTable[*arqChan](ChannelLayout{M: e.cfg.M, N: e.cfg.N}),
		rto0:   rto,
		rtoMax: 8 * rto,
	}
}

func (a *arq) state(ch int) *arqChan {
	st := a.chans.At(ch)
	if *st == nil {
		*st = &arqChan{rto: a.rto0}
	}
	return *st
}

// send enqueues one logical message on wireless channel ch, transmitting
// immediately if the channel has no frame in flight.
func (a *arq) send(ch, ackCh int, rec *DeliveryRec) {
	st := a.state(ch)
	st.queue = append(st.queue, arqFrame{seq: st.sendNext, ackCh: ackCh, rec: rec})
	st.sendNext++
	if !st.outstanding {
		a.transmitHead(ch)
	}
}

// transmitHead puts the head-of-queue frame on the air and arms its ack
// timer. Called for both first transmissions and retransmissions; each
// attempt gets a fresh air record and timer record, so an injector
// dropping one copy frees only that copy.
func (a *arq) transmitHead(ch int) {
	st := a.state(ch)
	f := st.queue[0]
	st.outstanding = true
	st.timerGen++
	air := a.e.newRec(opArqData)
	air.ch = ch
	air.ackCh = f.ackCh
	air.seq = f.seq
	air.inner = f.rec
	a.e.sub.TransmitRec(ch, a.e.delay(a.e.cfg.Wireless), air)
	timer := a.e.newRec(opArqTimeout)
	timer.ch = ch
	timer.seq = st.timerGen
	a.e.sub.AfterRec(st.rto, timer)
}

// timeout fires when an ack did not arrive in time; a stale generation
// means the frame was acked (or already retransmitted) and the timer is a
// no-op, so timers never rearm and simulations quiesce.
func (a *arq) timeout(ch int, gen uint64) {
	st := a.state(ch)
	if !st.outstanding || st.timerGen != gen {
		return
	}
	a.e.stats.Retransmits++
	st.retries++
	a.e.event(obs.EvRetransmit, int32(ch), st.retries, 0)
	if st.rto < a.rtoMax {
		st.rto *= 2
		if st.rto > a.rtoMax {
			st.rto = a.rtoMax
		}
	}
	a.transmitHead(ch)
}

// recvData runs at the receiving end of channel ch when a data frame
// survives the link. payload is the frame's delivery record; it is run in
// place (not freed — the sender queue owns it until acked), and a
// suppressed duplicate never touches it, so a payload already released by
// a completed ack round is never dereferenced through a straggler copy.
func (a *arq) recvData(ch, ackCh int, seq uint64, payload *DeliveryRec) {
	st := a.state(ch)
	switch {
	case seq == st.recvNext:
		st.recvNext++
		a.sendAck(ackCh, ch, seq)
		a.e.runRec(payload)
	case seq < st.recvNext:
		// A retransmitted or injector-duplicated copy of an accepted frame:
		// suppress it, but re-ack so a sender whose ack was lost makes
		// progress.
		a.e.stats.DuplicatesSuppressed++
		a.sendAck(ackCh, ch, st.recvNext-1)
	}
	// seq > recvNext is impossible under stop-and-wait: the sender holds
	// frame k+1 until frame k is acked, so a reordered copy is always old.
}

// sendAck acknowledges seq on dataCh by transmitting on the reverse
// wireless channel. Acks are fire-and-forget: a lost ack is repaired by the
// data sender's retransmission.
func (a *arq) sendAck(ackCh, dataCh int, seq uint64) {
	ack := a.e.newRec(opArqAck)
	ack.ch = dataCh
	ack.seq = seq
	a.e.sub.TransmitRec(ackCh, a.e.delay(a.e.cfg.Wireless), ack)
}

// recvAck resolves the in-flight frame of dataCh and releases the next.
func (a *arq) recvAck(ch int, seq uint64) {
	st := a.state(ch)
	if !st.outstanding || st.queue[0].seq != seq {
		return // duplicate or stale ack
	}
	st.outstanding = false
	a.e.FreeRec(st.queue[0].rec) // delivered (and run) at the receiver; release the payload
	st.queue = append(st.queue[:0], st.queue[1:]...)
	st.rto = a.rto0
	a.e.event(obs.EvAck, int32(ch), st.retries, 0)
	st.retries = 0
	st.timerGen++ // cancel the pending ack timer
	if len(st.queue) > 0 {
		a.transmitHead(ch)
	}
}
