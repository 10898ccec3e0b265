package dtn

import (
	"fmt"
	"math/bits"
	"slices"

	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
)

// Wire messages. These travel MSS-to-MSS over the engine's wired channel
// (SendFixed, charged to cost.CatControl like the mobility plumbing they
// extend). A bundleMsg owns the replica it carries: replicate makes it
// for the message, transfer hands over one it just took out of a store,
// and the receiving station stores that same Bundle. One replica per
// message, never shared, so a replica costs one allocation and nothing
// is copied on arrival. On netrt, payloads never leave the hub, which
// relays them like any other algorithm message.
type (
	// bundleMsg carries one replica to a peer station.
	bundleMsg struct{ b *Bundle }
	// summaryMsg is an anti-entropy summary vector (EncodeSummary).
	summaryMsg struct{ data []byte }
	// wantMsg answers a summary with the IDs the receiver lacks.
	wantMsg struct{ data []byte }
)

// Manager is the custody subsystem: one bounded Store per station, a
// routing strategy deciding replication, and the engine seam
// (CustodyHook in, RedeliverCustody/FailCustody out). It registers as an
// ordinary algorithm, so the same Manager runs unchanged on the
// simulator, the live runtime, and both network runtimes.
//
// Like the engine's location registry, the Manager is the fixed tier's
// shared view: state is global and mutated only on the engine's
// execution context, while every replica movement is a real wired
// message with real latency and charges.
type Manager struct {
	ctx      engine.Context
	eng      *engine.Engine
	cfg      Config
	strategy RoutingAlgorithm
	ticker   Ticker  // non-nil iff strategy wants periodic maintenance
	sprayer  sprayer // non-nil iff strategy replicates on arrival

	stores []*Store
	// ledger holds one entry per bundle the manager still accounts for:
	// from custody until the bundle is retired and no replica of it is
	// stored or on the wire. So "is any copy left" costs one lookup, not
	// a probe of every station, and a replica event touches one entry.
	// A dropped entry is recycled through spareEntries. storedTotal and
	// inFlightTotal sum the entries' resident and in-flight counts, so
	// "is anything stored" and "is anything travelling" (the gossip
	// tick re-arms while transfers are on the wire even if every store
	// drained) cost nothing.
	ledger        map[BundleID]*ledgerEntry
	spareEntries  []*ledgerEntry
	storedTotal   int
	inFlightTotal int
	// Retired IDs reached a terminal state (delivered or failed); late
	// replicas of a retired bundle are duplicates. IDs are dense and
	// allocated in order, so the set is a watermark — every ID up to
	// retiredUpTo is retired — plus the sparse retired IDs above it,
	// which drain into the watermark as the gaps below them close.
	retiredUpTo BundleID
	retired     map[BundleID]struct{}
	nextID      BundleID

	connected []bool // per MH: false between disconnect() and reconnect join
	// visits holds per MH the recently joined cells, most recent first,
	// each in its own historyDepth-capacity window of one backing array.
	visits [][]engine.MSSID
	down   []bool // per MSS: true between NoteCrash and NoteRestart

	tickArmed bool
	stats     Stats

	// bundleBuf and wantBuf are scratch for the walks that remove while
	// they iterate (sweeps, drains, crash wipes) and for want-lists.
	bundleBuf []*Bundle
	wantBuf   []BundleID
}

// ledgerEntry is the manager's books on one bundle.
type ledgerEntry struct {
	resident int // stores holding a replica
	copies   int // replicas created while live (the replication-cost histogram at delivery)
	flight
}

// flight is one bundle's on-the-wire accounting: a representative copy
// (for loss reporting if every wired replica dies), held while total >
// 0, and the number of copies travelling toward each destination
// station, so NoteCrash can reap the copies the fault injector discards
// at a crashed receiver.
type flight struct {
	b     Bundle
	dests []flightDest // one per station with copies on the way, n > 0
	total int
}

// flightDest counts the copies of one bundle travelling toward to.
type flightDest struct {
	to engine.MSSID
	n  int32
}

// dest returns the index of to in f.dests, or -1.
func (f *flight) dest(to engine.MSSID) int {
	for i := range f.dests {
		if f.dests[i].to == to {
			return i
		}
	}
	return -1
}

// Manager capabilities, checked at compile time.
var (
	_ engine.Algorithm          = (*Manager)(nil)
	_ engine.MSSHandler         = (*Manager)(nil)
	_ engine.JoinObserver       = (*Manager)(nil)
	_ engine.DisconnectObserver = (*Manager)(nil)
	_ engine.CrashObserver      = (*Manager)(nil)
	_ engine.RestartObserver    = (*Manager)(nil)
	_ engine.TimerHandler       = (*Manager)(nil)
	_ engine.CustodyHook        = (*Manager)(nil)
)

// New registers a custody manager on the network behind reg and binds it
// to the engine's custody seam. reg must expose its engine (the core,
// rt, and netrt Systems all do; so does a bare *engine.Engine).
func New(reg engine.Registrar, cfg Config) (*Manager, error) {
	if cfg.Strategy == nil {
		cfg.Strategy = Park{}
	}
	eng, err := engine.Of(reg)
	if err != nil {
		return nil, fmt.Errorf("dtn: %w", err)
	}
	m := &Manager{
		cfg:      cfg,
		strategy: cfg.Strategy,
		ledger:   make(map[BundleID]*ledgerEntry),
		retired:  make(map[BundleID]struct{}),
		nextID:   1,
	}
	m.ticker, _ = cfg.Strategy.(Ticker)
	m.sprayer, _ = cfg.Strategy.(sprayer)
	m.ctx = reg.Register(m)
	m.stores = make([]*Store, m.ctx.M())
	for i := range m.stores {
		m.stores[i] = NewStore(cfg.StoreCap, cfg.MHQuota)
	}
	// Hosts start connected; OnDisconnect/OnJoin track them from there.
	// The visit history is seeded with the initial placement: OnJoin only
	// fires for later moves, but "where a host started" is as good a
	// spray target as any visited cell.
	m.connected = make([]bool, m.ctx.N())
	history := make([]engine.MSSID, m.ctx.N()*historyDepth)
	m.visits = make([][]engine.MSSID, m.ctx.N())
	for mh := range m.visits {
		m.connected[mh] = true
		m.visits[mh] = history[mh*historyDepth : mh*historyDepth : (mh+1)*historyDepth]
		if at, _ := eng.Where(engine.MHID(mh)); m.ctx.IsLocal(at, engine.MHID(mh)) {
			m.visits[mh] = append(m.visits[mh], at)
		}
	}
	m.down = make([]bool, m.ctx.M())
	m.eng = eng
	eng.BindCustody(m)
	return m, nil
}

// Name identifies the manager (and its strategy) in reports.
func (m *Manager) Name() string { return "dtn-" + m.strategy.Name() }

// Stats returns a copy of the custody counters. Read it between settled
// phases; the counters are maintained on the engine's execution context.
func (m *Manager) Stats() Stats { return m.stats }

// StoredTotal reports the replicas currently resident across all
// stations (diagnostics and tests).
func (m *Manager) StoredTotal() int { return m.storedTotal }

// put and remove are the only places a replica enters or leaves a store,
// so the ledger's resident counts are exact. put takes b's position in
// at's store from the caller's find, which showed it is not resident.
func (m *Manager) put(at engine.MSSID, i int, b *Bundle) (evicted *Bundle, ok bool) {
	evicted, ok = m.stores[at].putAt(i, b)
	if ok {
		m.entry(b.ID).resident++
		m.storedTotal++
	}
	if evicted != nil {
		m.noteRemoved(evicted.ID)
	}
	return evicted, ok
}

func (m *Manager) remove(at engine.MSSID, id BundleID) *Bundle {
	b := m.stores[at].Remove(id)
	if b != nil {
		m.noteRemoved(id)
	}
	return b
}

func (m *Manager) noteRemoved(id BundleID) {
	e := m.ledger[id]
	e.resident--
	m.storedTotal--
	m.settle(id, e)
}

// entry returns id's ledger entry, opening one if there is none.
func (m *Manager) entry(id BundleID) *ledgerEntry {
	if e := m.ledger[id]; e != nil {
		return e
	}
	var e *ledgerEntry
	if n := len(m.spareEntries); n > 0 {
		e = m.spareEntries[n-1]
		m.spareEntries = m.spareEntries[:n-1]
	} else {
		e = new(ledgerEntry)
	}
	m.ledger[id] = e
	return e
}

// settle drops id's entry once the bundle is retired and nothing of it
// is stored or on the wire. The entry keeps its destination slots for
// the bundle that reuses it.
func (m *Manager) settle(id BundleID, e *ledgerEntry) {
	if e == nil || e.resident > 0 || e.total > 0 || !m.isRetired(id) {
		return
	}
	delete(m.ledger, id)
	*e = ledgerEntry{flight: flight{dests: e.dests[:0]}}
	m.spareEntries = append(m.spareEntries, e)
}

// retire marks id terminal, advancing the watermark over every retired
// ID that is now contiguous with it.
func (m *Manager) retire(id BundleID) {
	if id != m.retiredUpTo+1 {
		if id > m.retiredUpTo {
			m.retired[id] = struct{}{}
		}
		return
	}
	m.retiredUpTo = id
	for len(m.retired) > 0 {
		if _, ok := m.retired[m.retiredUpTo+1]; !ok {
			break
		}
		m.retiredUpTo++
		delete(m.retired, m.retiredUpTo)
	}
}

func (m *Manager) isRetired(id BundleID) bool {
	if id <= m.retiredUpTo {
		return true
	}
	_, dead := m.retired[id]
	return dead
}

// takeBundleBuf lends out the bundle scratch slice, empty. While it is
// out a nested walk gets nil and allocates its own, so a strategy or
// engine callback that re-enters the manager cannot clobber the outer
// walk; giveBundleBuf returns it with its pointers dropped.
func (m *Manager) takeBundleBuf() []*Bundle {
	buf := m.bundleBuf[:0]
	m.bundleBuf = nil
	return buf
}

func (m *Manager) giveBundleBuf(buf []*Bundle) {
	clear(buf)
	m.bundleBuf = buf[:0]
}

// ---- CustodyHook (the engine seam, inbound) ----

// OfferCustody implements engine.CustodyHook: the engine offers a
// payload it would otherwise bounce as a delivery failure. Refusing
// (station down, destination over quota) lets the engine proceed with
// the base protocol's failure notification, so refusal is always safe.
func (m *Manager) OfferCustody(holder engine.MSSID, mh engine.MHID, msg engine.Message, ref engine.CustodyRef) bool {
	if m.down[holder] {
		return false
	}
	now := m.ctx.Now()
	b := &Bundle{
		ID:      m.nextID,
		MH:      mh,
		Msg:     msg,
		Ref:     ref,
		Created: now,
		Tokens:  sprayCopies,
	}
	if m.cfg.TTL > 0 {
		b.Expiry = now + m.cfg.TTL
	}
	i, dup := m.stores[holder].find(b.ID) // a fresh ID: the end of the index
	if dup {
		panic(fmt.Sprintf("dtn: custody of bundle %d, which is already resident at mss%d", b.ID, int(holder)))
	}
	evicted, ok := m.put(holder, i, b)
	if !ok {
		m.stats.DroppedQuota++
		return false
	}
	m.nextID++
	m.stats.Accepted++
	m.ledger[b.ID].copies = 1
	m.ctx.NoteBundleCustody(uint64(b.ID), holder, mh)
	if evicted != nil {
		m.evict(holder, evicted)
	}
	m.onStored(holder, b)
	m.maybeArmTick()
	return true
}

// ---- MSSHandler (wire arrivals) ----

// HandleMSS processes DTN wire messages at station at.
func (m *Manager) HandleMSS(ctx engine.Context, at engine.MSSID, from engine.From, msg engine.Message) {
	switch v := msg.(type) {
	case bundleMsg:
		b := v.b
		tracked := m.inflightDec(b.ID, at)
		if m.down[at] {
			// The fault injector discards deliveries to a crashed
			// station before they reach us; guard the race anyway. A
			// copy NoteCrash already reaped was loss-accounted there,
			// so only still-tracked copies are lost here.
			if tracked {
				m.lose(at, b)
			}
		} else {
			m.acceptBundle(at, b)
		}
	case summaryMsg:
		if !m.down[at] && !from.IsMH {
			m.handleSummary(at, from.MSS, v.data)
		}
	case wantMsg:
		if !m.down[at] && !from.IsMH {
			m.handleWant(at, from.MSS, v.data)
		}
	}
	m.maybeArmTick()
}

// acceptBundle is the single admission point for every replica reaching
// a station: fresh transfers, gossip replicas, and same-cell custody
// moves all pass through it, so the dedup, expiry, and delivery rules
// hold uniformly.
func (m *Manager) acceptBundle(at engine.MSSID, b *Bundle) {
	if m.isRetired(b.ID) {
		m.stats.Duplicates++
		return
	}
	i, resident := m.stores[at].find(b.ID)
	if resident {
		// Duplicate before expiry: an expired replica arriving where an
		// (equally expired) copy is already resident is one duplicate,
		// not an extra expiry — the resident copy's sweep is the single
		// place this bundle's expiry is counted and traced.
		m.stats.Duplicates++
		return
	}
	if b.expired(m.ctx.Now()) {
		m.expire(at, b)
		return
	}
	if m.connected[b.MH] {
		m.deliver(at, b)
		return
	}
	evicted, ok := m.put(at, i, b)
	if !ok {
		m.stats.DroppedQuota++
		m.ctx.NoteBundleDropped(uint64(b.ID), at, b.MH)
		m.terminal(at, b, true)
		return
	}
	m.ctx.NoteBundleCustody(uint64(b.ID), at, b.MH)
	if evicted != nil {
		m.evict(at, evicted)
	}
	m.onStored(at, b)
}

// onStored asks a spraying strategy where the replica that just entered
// at's store should replicate, and ships it half the replica's tokens.
func (m *Manager) onStored(at engine.MSSID, b *Bundle) {
	if m.sprayer == nil {
		return
	}
	p, ok := m.sprayer.sprayTarget(m, at, b)
	if !ok || m.down[p] {
		return
	}
	give := b.Tokens / 2
	b.Tokens -= give
	m.replicate(at, p, b, give)
}

// deliver retires the bundle and hands it back to the engine, which
// routes it to the (re)connected host with a stale-location search plus
// the ordinary wireless downlink.
func (m *Manager) deliver(at engine.MSSID, b *Bundle) {
	e := m.ledger[b.ID]
	m.retire(b.ID)
	m.stats.Delivered++
	m.ctx.NoteBundleDelivered(uint64(b.ID), at, e.copies)
	m.settle(b.ID, e)
	m.eng.RedeliverCustody(at, b.MH, b.Msg, b.Ref)
}

// ---- replica movement ----

// replicate copies b from one station to another, giving the new
// replica the stated token budget: the copy is the one allocation a
// replica costs, and the message owns it. Replication toward a down
// station is a silent no-op (its store is gone and the wire to it is
// dead), so no copy is created or charged.
func (m *Manager) replicate(from, to engine.MSSID, b *Bundle, tokens int) {
	if m.down[to] {
		return
	}
	cp := new(Bundle)
	*cp = *b
	cp.Tokens = tokens
	m.inflightInc(cp, to).copies++
	m.stats.Transfers++
	m.ctx.NoteBundleTransfer(uint64(b.ID), from, to)
	m.ctx.SendFixed(from, to, bundleMsg{b: cp}, cost.CatControl)
}

// transfer moves b (already removed from from's store) toward to
// without creating a new replica — the custody move of deliverAll. The
// message takes b over.
func (m *Manager) transfer(from, to engine.MSSID, b *Bundle) {
	m.inflightInc(b, to)
	m.stats.Transfers++
	m.ctx.NoteBundleTransfer(uint64(b.ID), from, to)
	m.ctx.SendFixed(from, to, bundleMsg{b: b}, cost.CatControl)
}

// inflightInc counts one copy of b onto the wire toward to, and returns
// the bundle's ledger entry.
func (m *Manager) inflightInc(b *Bundle, to engine.MSSID) *ledgerEntry {
	e := m.entry(b.ID)
	if e.total == 0 {
		e.b = *b
	}
	if i := e.dest(to); i >= 0 {
		e.dests[i].n++
	} else {
		e.dests = append(e.dests, flightDest{to: to, n: 1})
	}
	e.total++
	m.inFlightTotal++
	return e
}

// landed retires n copies of bundle id toward e.dests[i], dropping the
// representative copy once nothing of the bundle is left on the wire.
func (m *Manager) landed(id BundleID, e *ledgerEntry, i int, n int32) {
	if e.dests[i].n -= n; e.dests[i].n == 0 {
		last := len(e.dests) - 1
		e.dests[i] = e.dests[last]
		e.dests = e.dests[:last]
	}
	e.total -= int(n)
	m.inFlightTotal -= int(n)
	if e.total == 0 {
		e.b = Bundle{}
		m.settle(id, e)
	}
}

// inflightDec retires one on-the-wire copy that just surfaced at
// station at. It reports false when no copy toward at is tracked — the
// copy was presumed discarded and reaped by NoteCrash but survived
// (e.g. it arrived after the station restarted) — so the caller must
// not loss-account it a second time.
func (m *Manager) inflightDec(id BundleID, at engine.MSSID) bool {
	e := m.ledger[id]
	if e == nil {
		return false
	}
	i := e.dest(at)
	if i < 0 {
		return false
	}
	m.landed(id, e, i, 1)
	return true
}

// ---- anti-entropy ----

// handleSummary answers a peer's summary vector with the IDs this
// station lacks. The vector and the store's word view both ascend by
// word index, so one merge walk finds them a word at a time: what is
// wanted from a peer word is peer &^ own, less the retired IDs, and only
// the bits left after the watermark's mask are looked up in the sparse
// retired set. Nothing is decoded into IDs but the wanted ones. A
// corrupt vector is dropped whole, as DecodeSummary would have rejected
// it.
func (m *Manager) handleSummary(at, peer engine.MSSID, data []byte) {
	own := m.stores[at].wordView()
	want := m.wantBuf[:0]
	r := readWords(data)
	for w, ok := r.next(); ok; w, ok = r.next() {
		for len(own) > 0 && own[0].idx < w.idx {
			own = own[1:]
		}
		if len(own) > 0 && own[0].idx == w.idx {
			w.bits &^= own[0].bits
		}
		if w.bits != 0 {
			want = m.appendUnretired(want, w)
		}
	}
	m.wantBuf = want[:0]
	if r.err != nil || len(want) == 0 {
		return
	}
	m.ctx.SendFixed(at, peer, wantMsg{data: EncodeSummary(want)}, cost.CatControl)
}

// appendUnretired appends the IDs of w that are not retired, ascending:
// the watermark clears its share of the word by one mask, and only the
// bits above it are looked up in the sparse set.
func (m *Manager) appendUnretired(dst []BundleID, w summaryWord) []BundleID {
	if lo, upTo := w.idx<<6, uint64(m.retiredUpTo); upTo >= lo {
		if upTo-lo >= 63 {
			return dst
		}
		w.bits &^= 2<<(upTo-lo) - 1 // IDs lo … upTo
	}
	for b := w.bits; b != 0; b &= b - 1 {
		id := BundleID(w.idx<<6 | uint64(bits.TrailingZeros64(b)))
		if _, dead := m.retired[id]; !dead {
			dst = append(dst, id)
		}
	}
	return dst
}

// handleWant replicates every still-present bundle a peer asked for, one
// search of the store per wanted ID. The want-list is decoded into the
// manager's ID scratch, lent out for the walk like bundleBuf; a corrupt
// list is dropped whole.
func (m *Manager) handleWant(at, peer engine.MSSID, data []byte) {
	ids, err := appendDecoded(m.wantBuf[:0], data)
	if err != nil {
		m.wantBuf = ids
		return
	}
	m.wantBuf = nil
	now := m.ctx.Now()
	st := m.stores[at]
	for _, id := range ids {
		i, ok := st.find(id)
		if !ok {
			continue
		}
		b := st.at(i)
		if b.expired(now) {
			m.remove(at, id)
			m.expire(at, b)
			continue
		}
		// A peer asking for the bundle proves it useful: refresh its
		// eviction rank.
		st.touchAt(i)
		m.replicate(at, peer, b, 1)
	}
	m.wantBuf = ids[:0]
}

// ---- replica loss paths ----

// expire drops a replica whose TTL passed.
func (m *Manager) expire(at engine.MSSID, b *Bundle) {
	m.stats.Expired++
	m.ctx.NoteBundleExpired(uint64(b.ID), at, b.MH)
	m.terminal(at, b, !m.down[at])
}

// evict drops a replica pushed out of a full store.
func (m *Manager) evict(at engine.MSSID, b *Bundle) {
	m.stats.EvictedLRU++
	m.ctx.NoteBundleDropped(uint64(b.ID), at, b.MH)
	m.terminal(at, b, true)
}

// lose drops a replica wiped by (or delivered into) a crash.
func (m *Manager) lose(at engine.MSSID, b *Bundle) {
	m.stats.Lost++
	m.ctx.NoteBundleDropped(uint64(b.ID), at, b.MH)
	m.terminal(at, b, false)
}

// terminal checks whether the bundle just lost its last copy; if so it
// retires the ID and releases the engine-side obligations: a failure
// notification to the origin when a live station can send one, a silent
// abandonment (still freeing the pair-FIFO slot) when only a crashed
// station could.
func (m *Manager) terminal(at engine.MSSID, b *Bundle, canNotify bool) {
	if m.isRetired(b.ID) {
		return
	}
	e := m.ledger[b.ID]
	if e != nil && (e.total > 0 || e.resident > 0) {
		return
	}
	m.retire(b.ID)
	m.settle(b.ID, e)
	m.stats.Failed++
	if canNotify {
		m.eng.FailCustody(at, b.MH, b.Msg, b.Ref)
	} else {
		m.eng.AbandonCustody(b.Ref)
	}
}

// sweepExpired lazily drops every expired replica at the station, in
// ascending ID order. It is O(1) while the store's earliest deadline is
// still ahead.
func (m *Manager) sweepExpired(at engine.MSSID) {
	buf := m.stores[at].appendExpired(m.takeBundleBuf(), m.ctx.Now())
	for _, b := range buf {
		m.remove(at, b.ID)
		m.expire(at, b)
	}
	m.giveBundleBuf(buf)
}

// ---- mobility ----

// OnJoin marks the host reachable, records the visit for spray
// targeting, and drains every replica parked for it toward its station.
// A leave changes nothing: an in-transit host is still deliverable (the
// engine queues for it).
func (m *Manager) OnJoin(ctx engine.Context, mss engine.MSSID, mh engine.MHID, prev engine.MSSID, wasDisconnected bool) {
	m.connected[mh] = true
	m.noteVisit(mh, mss)
	m.deliverAll(mss, mh)
	m.maybeArmTick()
}

// OnDisconnect marks the host unreachable so arriving replicas park
// instead of delivering.
func (m *Manager) OnDisconnect(ctx engine.Context, mss engine.MSSID, mh engine.MHID) {
	m.connected[mh] = false
}

// noteVisit moves mss to the front of mh's history in place: an earlier
// visit to it is taken out, and a full history drops its oldest cell.
func (m *Manager) noteVisit(mh engine.MHID, mss engine.MSSID) {
	v := m.visits[mh]
	k := slices.Index(v, mss)
	if k < 0 {
		if len(v) < historyDepth {
			v = append(v, 0)
		}
		k = len(v) - 1
	}
	copy(v[1:k+1], v[:k])
	v[0] = mss
	m.visits[mh] = v
}

// ---- crash seam ----

// NoteCrash wipes the station's volatile store and refuses custody
// there until NoteRestart. It implements engine.CrashObserver: the engine
// calls it, on the execution context, at each crash the fault plan arms.
func (m *Manager) NoteCrash(mss engine.MSSID) {
	if int(mss) < 0 || int(mss) >= len(m.down) {
		return
	}
	m.down[mss] = true
	buf := m.stores[mss].appendAll(m.takeBundleBuf())
	for _, b := range buf {
		m.remove(mss, b.ID)
		m.lose(mss, b)
	}
	m.giveBundleBuf(buf)
	m.reapInflight(mss)
}

// reapInflight loss-accounts every replica currently on the wire toward
// the crashed station. The engine discards, at its fault model's word,
// those records before HandleMSS ever sees them, so without this reap
// the bundle's in-flight count would never drain and its terminal
// obligations (failure notification or abandonment, pair-seq slot
// release) would never fire — wedging all later ordered traffic of the
// pair. A reaped copy that survives anyway (it lands after the station
// restarts) is ignored by inflightDec and deduped by acceptBundle's
// retired check, so the conservative reap can never double-deliver.
func (m *Manager) reapInflight(mss engine.MSSID) {
	// Reap in ascending bundle-ID order: map iteration order must not
	// leak into the event trace (seeded runs are byte-identical).
	var ids []BundleID
	for id, e := range m.ledger {
		if e.dest(mss) >= 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		e := m.ledger[id]
		i := e.dest(mss)
		n, b := e.dests[i].n, e.b
		m.landed(id, e, i, n)
		for ; n > 0; n-- {
			m.lose(mss, &b)
		}
	}
}

// NoteRestart reopens the station for custody (its store restarts
// empty, like every volatile structure on a restarted station). It
// implements engine.RestartObserver.
func (m *Manager) NoteRestart(mss engine.MSSID) {
	if int(mss) < 0 || int(mss) >= len(m.down) {
		return
	}
	m.down[mss] = false
}

// ---- replica drains ----

// sendSummary ships the station's summary vector to a peer (anti-entropy:
// the peer answers with a want-list, see handleSummary).
func (m *Manager) sendSummary(from, peer engine.MSSID) {
	if from == peer || m.down[from] {
		return
	}
	m.sweepExpired(from)
	if m.stores[from].Len() == 0 {
		return
	}
	m.stats.SummariesSent++
	// The store caches its encoded vector until its ID set changes, so
	// both ring neighbours' messages share one read-only slice.
	m.ctx.SendFixed(from, peer, summaryMsg{data: m.stores[from].summary()}, cost.CatControl)
}

// deliverAll moves every stored replica destined for mh toward station
// at; the first to arrive is redelivered, the rest are duplicates.
// Stations are visited in ascending order and bundles in ascending ID
// order; arrival order may still differ, and the engine's pair sequence
// buffer restores per-pair FIFO at final delivery.
func (m *Manager) deliverAll(at engine.MSSID, mh engine.MHID) {
	buf := m.takeBundleBuf()
	for i := range m.stores {
		src := engine.MSSID(i)
		if m.down[src] {
			continue
		}
		buf = m.stores[src].appendForMH(buf[:0], mh)
		for _, b := range buf {
			m.remove(src, b.ID)
			if b.expired(m.ctx.Now()) {
				m.expire(src, b)
				continue
			}
			if src == at {
				// Already at the host's station: no wire hop, the
				// redelivery downlink is the only remaining cost.
				m.acceptBundle(at, b)
			} else {
				m.transfer(src, at, b)
			}
		}
		clear(buf)
	}
	m.giveBundleBuf(buf)
}

// ---- gossip timer ----

// maybeArmTick arms the strategy's maintenance timer while there is
// anything to maintain. The timer is a daemon: it never holds the
// substrate's idle accounting open, so a settling run with drained
// stores quiesces even mid-period.
func (m *Manager) maybeArmTick() {
	if m.ticker == nil || m.tickArmed {
		return
	}
	if m.inFlightTotal == 0 && m.storedTotal == 0 {
		return
	}
	m.tickArmed = true
	m.ctx.AfterDaemon(m.ticker.TickEvery(), gossipTick{})
}

// gossipTick is the maintenance timer's message.
type gossipTick struct{}

// HandleTimer implements engine.TimerHandler: the maintenance tick.
func (m *Manager) HandleTimer(engine.Context, engine.Message) {
	m.tickArmed = false
	for i := range m.stores {
		if !m.down[i] {
			m.sweepExpired(engine.MSSID(i))
		}
	}
	m.ticker.Tick(m)
	m.maybeArmTick()
}
