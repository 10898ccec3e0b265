package dtn

import (
	"fmt"
	"sort"

	"mobiledist/internal/cost"
	"mobiledist/internal/engine"
	"mobiledist/internal/sim"
)

// Wire messages. These travel MSS-to-MSS over the engine's wired channel
// (SendFixed, charged to cost.CatControl like the mobility plumbing they
// extend); payloads stay by-value so the netrt substrates relay them
// hub-side like any other algorithm message.
type (
	// bundleMsg carries one replica to a peer station.
	bundleMsg struct{ b Bundle }
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
	ticker   Ticker // non-nil iff strategy wants periodic maintenance

	stores []*Store
	// resident counts the stores holding a replica of each bundle and
	// storedTotal sums them: the ledger put and remove keep, so "is any
	// copy left" and "is anything stored" cost one lookup, not a probe
	// of every station.
	resident    map[BundleID]int
	storedTotal int
	// Retired IDs reached a terminal state (delivered or failed); late
	// replicas of a retired bundle are duplicates. IDs are dense and
	// allocated in order, so the set is a watermark — every ID up to
	// retiredUpTo is retired — plus the sparse retired IDs above it,
	// which drain into the watermark as the gaps below them close.
	retiredUpTo BundleID
	retired     map[BundleID]struct{}
	// copies counts replicas created per live bundle (for the
	// replication-cost histogram at delivery time).
	copies map[BundleID]int
	// inflight tracks replicas currently on the wire per live bundle,
	// keyed by destination so NoteCrash can reap the copies the fault
	// injector discards at a crashed receiver; inFlightTotal is the sum,
	// kept so the gossip tick re-arms while transfers are still
	// travelling even if every store drained.
	inflight      map[BundleID]*flight
	inFlightTotal int
	nextID        BundleID

	connected []bool           // per MH: false between disconnect() and reconnect join
	visits    [][]engine.MSSID // per MH: recently joined cells, most recent first
	down      []bool           // per MSS: true between NoteCrash and NoteRestart

	tickArmed bool
	stats     Stats

	// bundleBuf and wantBuf are scratch for the walks that remove while
	// they iterate (sweeps, drains, crash wipes) and for want-lists.
	bundleBuf []*Bundle
	wantBuf   []BundleID
}

// flight is one bundle's on-the-wire accounting: a representative copy
// (for loss reporting if every wired replica dies) and the number of
// copies travelling toward each destination station.
type flight struct {
	b     Bundle
	dests map[engine.MSSID]int
	total int
}

// Manager capabilities, checked at compile time.
var (
	_ engine.Algorithm        = (*Manager)(nil)
	_ engine.MSSHandler       = (*Manager)(nil)
	_ engine.MobilityObserver = (*Manager)(nil)
	_ engine.CustodyHook      = (*Manager)(nil)
	_ Host                    = (*Manager)(nil)
)

// New registers a custody manager on the network behind reg and binds it
// to the engine's custody seam. reg must expose its engine (the core,
// rt, and netrt Systems all do; so does a bare *engine.Engine).
func New(reg engine.Registrar, cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	var eng *engine.Engine
	switch r := reg.(type) {
	case *engine.Engine:
		eng = r
	case interface{ Engine() *engine.Engine }:
		eng = r.Engine()
	default:
		return nil, fmt.Errorf("dtn: registrar %T does not expose its engine", reg)
	}
	m := &Manager{
		cfg:      cfg,
		strategy: cfg.Strategy,
		resident: make(map[BundleID]int),
		retired:  make(map[BundleID]struct{}),
		copies:   make(map[BundleID]int),
		inflight: make(map[BundleID]*flight),
		nextID:   1,
	}
	m.ticker, _ = cfg.Strategy.(Ticker)
	m.ctx = reg.Register(m)
	m.stores = make([]*Store, m.ctx.M())
	for i := range m.stores {
		m.stores[i] = NewStore(cfg.StoreCap, cfg.MHQuota)
	}
	// Hosts start connected; OnDisconnect/OnJoin track them from there.
	m.connected = make([]bool, m.ctx.N())
	for i := range m.connected {
		m.connected[i] = true
	}
	m.visits = make([][]engine.MSSID, m.ctx.N())
	// Seed the visit history with the initial placement: OnJoin only
	// fires for later moves, but "where a host started" is as good a
	// spray target as any visited cell.
	for i := range m.stores {
		for _, mh := range m.ctx.LocalMHs(engine.MSSID(i)) {
			m.visits[mh] = []engine.MSSID{engine.MSSID(i)}
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
// so the resident ledger is exact.
func (m *Manager) put(at engine.MSSID, b *Bundle) (evicted *Bundle, ok bool) {
	evicted, ok = m.stores[at].Put(b)
	if ok {
		m.resident[b.ID]++
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
	if n := m.resident[id] - 1; n > 0 {
		m.resident[id] = n
	} else {
		delete(m.resident, id)
	}
	m.storedTotal--
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
		Tokens:  m.cfg.SprayCopies,
	}
	if m.cfg.TTL > 0 {
		b.Expiry = now + m.cfg.TTL
	}
	evicted, ok := m.put(holder, b)
	if !ok {
		m.stats.DroppedQuota++
		return false
	}
	m.nextID++
	m.stats.Accepted++
	m.copies[b.ID] = 1
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
				m.lose(at, &b)
			}
		} else {
			m.acceptBundle(at, &b)
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
	if m.stores[at].Has(b.ID) {
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
	evicted, ok := m.put(at, b)
	if !ok {
		m.stats.DroppedQuota++
		m.ctx.NoteBundleDropped(uint64(b.ID), at, b.MH)
		m.strategy.ReportFailure(m, at, b, "quota")
		m.terminal(at, b, true)
		return
	}
	m.ctx.NoteBundleCustody(uint64(b.ID), at, b.MH)
	if evicted != nil {
		m.evict(at, evicted)
	}
	m.onStored(at, b)
}

// onStored runs the strategy hooks for a replica that just entered at's
// store and executes any replication it requests. Token accounting is
// binary: a replica with more than one token hands half to each peer.
func (m *Manager) onStored(at engine.MSSID, b *Bundle) {
	m.strategy.NotifyIncoming(m, at, b)
	peers, drop := m.strategy.SenderForBundle(m, at, b)
	for _, p := range peers {
		if p == at || int(p) < 0 || int(p) >= len(m.stores) || m.down[p] {
			continue
		}
		tokens := 1
		if b.Tokens > 1 {
			give := b.Tokens / 2
			b.Tokens -= give
			tokens = give
		}
		m.replicate(at, p, b, tokens)
	}
	if drop && m.stores[at].Has(b.ID) &&
		(m.inflight[b.ID] != nil || m.resident[b.ID] > 1) {
		// Custody transfer: the strategy moved the bundle on and wants
		// the local replica gone. Only honour it while another copy
		// exists, so a buggy strategy cannot silently lose a bundle.
		m.remove(at, b.ID)
	}
}

// deliver retires the bundle and hands it back to the engine, which
// routes it to the (re)connected host with a stale-location search plus
// the ordinary wireless downlink.
func (m *Manager) deliver(at engine.MSSID, b *Bundle) {
	m.retire(b.ID)
	m.stats.Delivered++
	m.ctx.NoteBundleDelivered(uint64(b.ID), at, m.copies[b.ID])
	delete(m.copies, b.ID)
	m.eng.RedeliverCustody(at, b.MH, b.Msg, b.Ref)
}

// ---- replica movement ----

// replicate copies b from one station to another, giving the new
// replica the stated token budget. Replication toward a down station is
// a silent no-op (its store is gone and the wire to it is dead), so no
// copy is created or charged.
func (m *Manager) replicate(from, to engine.MSSID, b *Bundle, tokens int) {
	if m.down[to] {
		return
	}
	cp := *b
	cp.Tokens = tokens
	m.copies[b.ID]++
	m.inflightInc(&cp, to)
	m.stats.Transfers++
	m.ctx.NoteBundleTransfer(uint64(b.ID), from, to)
	m.ctx.SendFixed(from, to, bundleMsg{b: cp}, cost.CatControl)
}

// transfer moves b (already removed from from's store) toward to
// without creating a new replica — the custody move of DeliverAll.
func (m *Manager) transfer(from, to engine.MSSID, b *Bundle) {
	m.inflightInc(b, to)
	m.stats.Transfers++
	m.ctx.NoteBundleTransfer(uint64(b.ID), from, to)
	m.ctx.SendFixed(from, to, bundleMsg{b: *b}, cost.CatControl)
}

func (m *Manager) inflightInc(b *Bundle, to engine.MSSID) {
	f := m.inflight[b.ID]
	if f == nil {
		f = &flight{b: *b, dests: make(map[engine.MSSID]int)}
		m.inflight[b.ID] = f
	}
	f.dests[to]++
	f.total++
	m.inFlightTotal++
}

// inflightDec retires one on-the-wire copy that just surfaced at
// station at. It reports false when no copy toward at is tracked — the
// copy was presumed discarded and reaped by NoteCrash but survived
// (e.g. it arrived after the station restarted) — so the caller must
// not loss-account it a second time.
func (m *Manager) inflightDec(id BundleID, at engine.MSSID) bool {
	f := m.inflight[id]
	if f == nil || f.dests[at] == 0 {
		return false
	}
	f.dests[at]--
	if f.dests[at] == 0 {
		delete(f.dests, at)
	}
	f.total--
	if f.total == 0 {
		delete(m.inflight, id)
	}
	m.inFlightTotal--
	return true
}

// ---- anti-entropy ----

// handleSummary answers a peer's summary vector with the IDs this
// station lacks. Both the vector and the store's index ascend by ID, so
// one merge walk finds them: nothing is decoded into a slice and only an
// ID actually missing here is looked up in the retired set. A corrupt
// vector is dropped whole, as DecodeSummary would have rejected it.
func (m *Manager) handleSummary(at, peer engine.MSSID, data []byte) {
	have := m.stores[at].live()
	want := m.wantBuf[:0]
	r := readSummary(data)
	var chunk [64]BundleID
	for n := r.read(chunk[:]); n > 0; n = r.read(chunk[:]) {
		for _, id := range chunk[:n] {
			for len(have) > 0 && have[0].id < id {
				have = have[1:]
			}
			if len(have) > 0 && have[0].id == id {
				continue
			}
			if !m.isRetired(id) {
				want = append(want, id)
			}
		}
	}
	m.wantBuf = want[:0]
	if r.err != nil || len(want) == 0 {
		return
	}
	m.ctx.SendFixed(at, peer, wantMsg{data: EncodeSummary(want)}, cost.CatControl)
}

func (m *Manager) handleWant(at, peer engine.MSSID, data []byte) {
	ids, err := DecodeSummary(data)
	if err != nil {
		return
	}
	now := m.ctx.Now()
	for _, id := range ids {
		b := m.stores[at].Get(id)
		if b == nil {
			continue
		}
		if b.expired(now) {
			m.remove(at, id)
			m.expire(at, b)
			continue
		}
		// A peer asking for the bundle proves it useful: refresh its
		// eviction rank.
		m.stores[at].Touch(id)
		m.replicate(at, peer, b, 1)
	}
}

// ---- replica loss paths ----

// expire drops a replica whose TTL passed.
func (m *Manager) expire(at engine.MSSID, b *Bundle) {
	m.stats.Expired++
	m.ctx.NoteBundleExpired(uint64(b.ID), at, b.MH)
	m.strategy.ReportFailure(m, at, b, "expired")
	m.terminal(at, b, !m.down[at])
}

// evict drops a replica pushed out of a full store.
func (m *Manager) evict(at engine.MSSID, b *Bundle) {
	m.stats.EvictedLRU++
	m.ctx.NoteBundleDropped(uint64(b.ID), at, b.MH)
	m.strategy.ReportFailure(m, at, b, "evicted")
	m.terminal(at, b, true)
}

// lose drops a replica wiped by (or delivered into) a crash.
func (m *Manager) lose(at engine.MSSID, b *Bundle) {
	m.stats.Lost++
	m.ctx.NoteBundleDropped(uint64(b.ID), at, b.MH)
	m.strategy.ReportFailure(m, at, b, "crash")
	m.terminal(at, b, false)
}

// terminal checks whether the bundle just lost its last copy; if so it
// retires the ID and releases the engine-side obligations: a failure
// notification to the origin when a live station can send one, a silent
// abandonment (still freeing the pair-FIFO slot) when only a crashed
// station could.
func (m *Manager) terminal(at engine.MSSID, b *Bundle, canNotify bool) {
	if m.isRetired(b.ID) || m.inflight[b.ID] != nil || m.resident[b.ID] > 0 {
		return
	}
	m.retire(b.ID)
	delete(m.copies, b.ID)
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

// ---- MobilityObserver ----

// OnJoin marks the host reachable, records the visit for spray
// targeting, and lets the strategy drain parked traffic toward it.
func (m *Manager) OnJoin(ctx engine.Context, mss engine.MSSID, mh engine.MHID, prev engine.MSSID, wasDisconnected bool) {
	m.connected[mh] = true
	m.noteVisit(mh, mss)
	m.strategy.ReportPeerAppeared(m, mss, mh)
	m.maybeArmTick()
}

// OnLeave is a no-op: an in-transit host is still deliverable (the
// engine queues for it), so custody state does not change.
func (m *Manager) OnLeave(ctx engine.Context, mss engine.MSSID, mh engine.MHID) {}

// OnDisconnect marks the host unreachable so arriving replicas park
// instead of delivering.
func (m *Manager) OnDisconnect(ctx engine.Context, mss engine.MSSID, mh engine.MHID) {
	m.connected[mh] = false
	m.strategy.ReportPeerDisappeared(m, mss, mh)
}

func (m *Manager) noteVisit(mh engine.MHID, mss engine.MSSID) {
	v := m.visits[mh]
	out := make([]engine.MSSID, 0, len(v)+1)
	out = append(out, mss)
	for _, c := range v {
		if c != mss && len(out) < m.cfg.HistoryDepth {
			out = append(out, c)
		}
	}
	m.visits[mh] = out
}

// ---- crash seam ----

// NoteCrash wipes the station's volatile store and refuses custody
// there until NoteRestart. Wire it to faults.Injector.OnCrash (or the
// netrt supervisor's crash callback); it runs on the execution context.
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
// the crashed station. The fault injector's delivery gate discards
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
	for id, f := range m.inflight {
		if f.dests[mss] > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		f := m.inflight[id]
		n := f.dests[mss]
		delete(f.dests, mss)
		f.total -= n
		if f.total == 0 {
			delete(m.inflight, id)
		}
		m.inFlightTotal -= n
		b := f.b
		for ; n > 0; n-- {
			m.lose(mss, &b)
		}
	}
}

// NoteRestart reopens the station for custody (its store restarts
// empty, like every volatile structure on a restarted station).
func (m *Manager) NoteRestart(mss engine.MSSID) {
	if int(mss) < 0 || int(mss) >= len(m.down) {
		return
	}
	m.down[mss] = false
}

// ---- Host (the strategy service surface) ----

// M reports the number of stations.
func (m *Manager) M() int { return m.ctx.M() }

// Now reports the current virtual time.
func (m *Manager) Now() sim.Time { return m.ctx.Now() }

// HasReplica reports whether the station holds a replica of id.
func (m *Manager) HasReplica(at engine.MSSID, id BundleID) bool {
	return m.stores[at].Has(id)
}

// StoredAt returns the station's resident bundle IDs in ascending order.
func (m *Manager) StoredAt(at engine.MSSID) []BundleID {
	return m.stores[at].IDs()
}

// RecentCells returns the cells mh recently joined, most recent first.
func (m *Manager) RecentCells(mh engine.MHID) []engine.MSSID {
	return m.visits[mh]
}

// SendSummary ships the station's summary vector to a peer.
func (m *Manager) SendSummary(from, peer engine.MSSID) {
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

// DeliverAll moves every stored replica destined for mh toward station
// at. Stations are visited in ascending order and bundles in ascending
// ID order; arrival order may still differ, and the engine's pair
// sequence buffer restores per-pair FIFO at final delivery.
func (m *Manager) DeliverAll(at engine.MSSID, mh engine.MHID) {
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
	m.ctx.AfterDaemon(m.ticker.TickEvery(), m.tick)
}

func (m *Manager) tick() {
	m.tickArmed = false
	for i := range m.stores {
		if !m.down[i] {
			m.sweepExpired(engine.MSSID(i))
		}
	}
	m.ticker.Tick(m)
	m.maybeArmTick()
}
