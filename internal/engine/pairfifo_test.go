package engine

import (
	"slices"
	"testing"
)

// mapPair is the per-pair reorder buffer as a map from sequence number to
// what waits for it, delivering its present prefix after every put — the
// model FuzzPairFIFO holds the window to. A put below the cursor parks in
// the map forever, as it always did; the window drops it instead, so the
// two are compared from the cursor up, and held counts the entries there.
type mapPair struct {
	nextSeq, nextDeliver uint64
	buffer               map[uint64]deferredDelivery
	held                 int
}

func (m *mapPair) put(seq uint64, d deferredDelivery, deliver func(deferredDelivery)) {
	if _, ok := m.buffer[seq]; !ok && seq >= m.nextDeliver {
		m.held++
	}
	m.buffer[seq] = d
	for {
		d, ok := m.buffer[m.nextDeliver]
		if !ok {
			return
		}
		delete(m.buffer, m.nextDeliver)
		m.nextDeliver++
		m.held--
		if d.state == slotHeld {
			deliver(d)
		}
	}
}

// pairMsg is the message FuzzPairFIFO sends: the pair's index and the
// sequence number.
type pairMsg struct {
	pair int
	seq  uint64
}

// delivery is one MH delivery: where, and what.
type delivery struct {
	at  MHID
	msg Message
}

// pairLog records every MH delivery.
type pairLog struct{ got []delivery }

func (l *pairLog) Name() string { return "pair-log" }
func (l *pairLog) HandleMH(ctx Context, at MHID, msg Message) {
	l.got = append(l.got, delivery{at, msg})
}

// FuzzPairFIFO drives the per-pair FIFO of three ordered pairs with a
// byte-chosen sequence of sends, arrivals in any order, skipPairSeq
// tombstones, and duplicate arrivals and tombstones of sequence numbers that
// already arrived, held or delivered, and after every op compares it with
// mapPair: the same deliveries in the same order, the same cursor, and a
// window holding exactly the model's entries at or above it, which never
// ends in an empty slot.
func FuzzPairFIFO(f *testing.F) {
	// Byte b: op b&3, pair (b>>2)%3, and (b>>2)/3 picks among the pair's
	// sequence numbers. A duplicate picks a sequence that already arrived
	// and arrives it again (pick even) or tombstones it (pick odd).
	const send, arrive, skip, dup = 0, 1, 2, 3
	op := func(kind, pair, pick int) byte { return byte(kind | (pair+3*pick)<<2) }
	f.Add([]byte{op(send, 0, 0), op(send, 0, 0), op(send, 0, 0), op(arrive, 0, 0), op(arrive, 0, 0), op(arrive, 0, 0)})            // in order
	f.Add([]byte{op(send, 1, 0), op(send, 1, 0), op(send, 1, 0), op(arrive, 1, 2), op(arrive, 1, 1), op(arrive, 1, 0)})            // reversed
	f.Add([]byte{op(send, 2, 0), op(send, 2, 0), op(send, 2, 0), op(arrive, 2, 2), op(skip, 2, 0), op(arrive, 2, 0)})              // a hole tombstoned
	f.Add([]byte{op(send, 0, 0), op(send, 0, 0), op(arrive, 0, 1), op(dup, 0, 0), op(arrive, 0, 0), op(dup, 0, 1), op(dup, 0, 2)}) // duplicates held and below the cursor
	// Seqs 0..5 on one pair; 1 and 3 arrive, then 0 drains 0–1 and leaves 3
	// at an offset, and 5 lands past the array's capacity: the window slides.
	f.Add([]byte{op(send, 0, 0), op(send, 0, 0), op(send, 0, 0), op(send, 0, 0), op(send, 0, 0), op(send, 0, 0),
		op(arrive, 0, 1), op(arrive, 0, 2), op(arrive, 0, 0), op(arrive, 0, 2), op(arrive, 0, 0), op(arrive, 0, 0)})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, _ := newWaiterEngine(t, 2, 3)
		log := &pairLog{}
		e.Register(log)
		pairs := [3]pairKey{{0, 1}, {1, 0}, {2, 1}}
		var models [3]mapPair
		var inflight, arrived [3][]uint64 // sent and not yet arrived or skipped; arrived
		var want []delivery
		checked := 0 // deliveries compared so far
		for i := range models {
			models[i].buffer = make(map[uint64]deferredDelivery)
		}
		for step, b := range data {
			p, pick := int(b>>2)%3, int(b>>2)/3
			key, m := pairs[p], &models[p]
			opts := routeOpts{pair: key, hasPair: true}
			deliver := func(d deferredDelivery) { want = append(want, delivery{key.to, d.msg}) }
			take := func() (uint64, bool) {
				if len(inflight[p]) == 0 {
					return 0, false
				}
				i := pick % len(inflight[p])
				seq := inflight[p][i]
				inflight[p] = slices.Delete(inflight[p], i, i+1)
				return seq, true
			}
			switch b & 3 {
			case send:
				ps := e.pairState(key)
				if ps.nextSeq != m.nextSeq {
					t.Fatalf("step %d: pair %v hands out seq %d, model %d", step, key, ps.nextSeq, m.nextSeq)
				}
				ps.nextSeq++
				inflight[p] = append(inflight[p], m.nextSeq)
				m.nextSeq++
			case arrive:
				seq, ok := take()
				if !ok {
					continue
				}
				opts.seq = seq
				msg := pairMsg{p, seq}
				e.deliverToMH(key.to, msg, opts)
				m.put(seq, deferredDelivery{state: slotHeld, msg: msg}, deliver)
				arrived[p] = append(arrived[p], seq)
			case skip:
				seq, ok := take()
				if !ok {
					continue
				}
				opts.seq = seq
				e.skipPairSeq(opts)
				m.put(seq, deferredDelivery{state: slotSkip}, deliver)
			case dup:
				if len(arrived[p]) == 0 {
					continue
				}
				seq := arrived[p][(pick/2)%len(arrived[p])]
				opts.seq = seq
				if pick%2 == 1 {
					e.skipPairSeq(opts)
					m.put(seq, deferredDelivery{state: slotSkip}, deliver)
					break
				}
				msg := pairMsg{p, seq}
				e.deliverToMH(key.to, msg, opts)
				m.put(seq, deferredDelivery{state: slotHeld, msg: msg}, deliver)
			}
			if len(log.got) != len(want) || !slices.Equal(log.got[checked:], want[checked:]) {
				t.Fatalf("step %d: delivered %v, model %v", step, log.got[checked:], want[checked:])
			}
			checked = len(want)
			held := 0
			for i, key := range pairs {
				checkWindow(t, step, key, e.pairs[key], &models[i])
				held += models[i].held
			}
			if got := e.PairsHeld(); got != held {
				t.Fatalf("step %d: PairsHeld() = %d, model holds %d", step, got, held)
			}
		}
	})
}

// checkWindow holds one pair's window to the model's entries at or above
// its cursor.
func checkWindow(t *testing.T, step int, key pairKey, ps *pairState, m *mapPair) {
	t.Helper()
	if ps == nil {
		if m.nextSeq != 0 {
			t.Fatalf("step %d: pair %v has no state after %d sends", step, key, m.nextSeq)
		}
		return
	}
	if ps.nextDeliver != m.nextDeliver {
		t.Fatalf("step %d: pair %v cursor %d, model %d", step, key, ps.nextDeliver, m.nextDeliver)
	}
	win := ps.win[ps.off:]
	if len(win) > 0 && win[len(win)-1].state == slotEmpty {
		t.Fatalf("step %d: pair %v window ends in an empty slot: %v", step, key, win)
	}
	n := 0
	for i, d := range win {
		md, ok := m.buffer[ps.nextDeliver+uint64(i)]
		if d.state == slotEmpty && ok || d.state != slotEmpty && (!ok || d.state != md.state || d.msg != md.msg) {
			t.Fatalf("step %d: pair %v seq %d holds %+v, model %+v (present %v)", step, key, ps.nextDeliver+uint64(i), d, md, ok)
		}
		if ok {
			n++
		}
	}
	if n != m.held {
		t.Fatalf("step %d: pair %v window holds %d, model %d from the cursor up", step, key, n, m.held)
	}
	for _, d := range ps.win[:ps.off] {
		if d.state != slotEmpty {
			t.Fatalf("step %d: pair %v keeps a delivered slot %+v before its offset", step, key, d)
		}
	}
}
